"""Bayesian linear regression tests.

The incremental Sherman-Morrison model is checked against the closed-form
posterior computed independently in each test (direct solve of the
precision system), never against itself.
"""

import numpy as np
import numpy.testing as npt
import pytest

from exval.bayes import BayesianLinearModel, exact_posterior
from exval.emuq import v_max


def ridge_oracle(Phi, y, alpha, beta):
    # Independent route: solve the precision system for m directly.
    M = Phi.shape[1]
    A = alpha * np.eye(M) + beta * Phi.T @ Phi
    return np.linalg.solve(A, beta * Phi.T @ y)


def test_exact_posterior_matches_ridge_solve():
    rng = np.random.default_rng(0)
    for _ in range(5):
        Phi = rng.standard_normal((30, 6))
        y = rng.standard_normal(30)
        S, m = exact_posterior(Phi, y, alpha=0.7, beta=2.0)
        npt.assert_allclose(m, ridge_oracle(Phi, y, 0.7, 2.0), atol=1e-12)
        npt.assert_array_equal(S, S.T)
        A = 0.7 * np.eye(6) + 2.0 * Phi.T @ Phi
        npt.assert_allclose(S @ A, np.eye(6), atol=1e-12)


def test_exact_posterior_multi_head_targets():
    rng = np.random.default_rng(1)
    Phi = rng.standard_normal((20, 4))
    Y = rng.standard_normal((20, 3))
    S, m = exact_posterior(Phi, Y, alpha=1.0, beta=1.0)
    assert m.shape == (4, 3)
    for h in range(3):
        npt.assert_allclose(m[:, h], ridge_oracle(Phi, Y[:, h], 1.0, 1.0),
                            atol=1e-12)


def test_constructor_validation():
    with pytest.raises(ValueError):
        BayesianLinearModel(4, alpha=0.0)
    with pytest.raises(ValueError):
        BayesianLinearModel(4, beta=-1.0)


def test_fresh_model_state():
    model = BayesianLinearModel(5, alpha=2.0, beta=3.0, n_heads=2)
    npt.assert_array_equal(model.S, np.eye(5) / 2.0)
    npt.assert_array_equal(model.t, np.zeros((5, 2)))
    npt.assert_array_equal(model.m, np.zeros((5, 2)))
    assert model.n_observed == 0


def test_incremental_matches_exact_posterior():
    rng = np.random.default_rng(2)
    for trial in range(5):
        alpha = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.5, 3.0))
        Phi = rng.standard_normal((40, 8))
        Y = rng.standard_normal((40, 2))
        model = BayesianLinearModel(8, alpha=alpha, beta=beta, n_heads=2)
        for phi, y in zip(Phi, Y):
            model.observe(phi, y)
        S_ref, m_ref = exact_posterior(Phi, Y, alpha, beta)
        npt.assert_allclose(model.S, S_ref, atol=1e-10)
        npt.assert_allclose(model.m, m_ref, atol=1e-10)
        assert model.n_observed == 40


def test_observe_target_accumulator():
    # t must advance by exactly beta * phi * y per head.
    model = BayesianLinearModel(3, alpha=1.0, beta=2.5, n_heads=2)
    phi = np.array([1.0, -2.0, 0.5])
    y = np.array([0.4, -1.0])
    t_before = model.t.copy()
    model.observe(phi, y)
    npt.assert_allclose(model.t - t_before, 2.5 * np.outer(phi, y),
                        atol=1e-15)
    npt.assert_allclose(model.m, model.S @ model.t, atol=1e-15)


def test_covariance_only_then_set_targets():
    rng = np.random.default_rng(3)
    Phi = rng.standard_normal((15, 4))
    y = rng.standard_normal(15)
    full = BayesianLinearModel(4, alpha=0.3, beta=1.2)
    deferred = BayesianLinearModel(4, alpha=0.3, beta=1.2)
    for phi, yi in zip(Phi, y):
        full.observe(phi, yi)
        deferred.observe(phi, 0.0)    # zero targets: covariance update only
    npt.assert_allclose(deferred.S, full.S, atol=1e-14)
    npt.assert_array_equal(deferred.t, np.zeros((4, 1)))
    deferred.set_targets(1.2 * Phi.T @ y)
    npt.assert_allclose(deferred.m, full.m, atol=1e-12)


def test_prior_variance_is_fresh_unit_norm_prediction():
    model = BayesianLinearModel(9, alpha=0.1, beta=2.0)
    phi = np.zeros(9)
    phi[2] = 1.0    # unit norm
    assert phi @ model.S @ phi / model.beta == pytest.approx(v_max(0.1, 2.0))
    assert v_max(0.1, 2.0) == 5.0


def test_variance_contracts_with_repeated_observation():
    model = BayesianLinearModel(4, alpha=0.5, beta=1.0)
    phi = np.array([0.5, 0.5, 0.5, 0.5])
    prev = phi @ model.S @ phi
    for _ in range(6):
        model.observe(phi, 0.0)
        cur = phi @ model.S @ phi
        assert cur < prev
        prev = cur


def test_centered_quadratic_fresh_is_exact_zero():
    model = BayesianLinearModel(30, alpha=0.001, beta=1.0)
    rng = np.random.default_rng(7)
    phi = rng.standard_normal(30)
    assert model.centered_quadratic(phi) == 0.0
    batch = rng.standard_normal((5, 30))
    npt.assert_array_equal(model.centered_quadratic(batch), np.zeros(5))


def test_centered_quadratic_matches_subtraction_route():
    rng = np.random.default_rng(8)
    model = BayesianLinearModel(6, alpha=0.3, beta=1.0)
    for _ in range(20):
        model.observe(rng.standard_normal(6), rng.standard_normal())
    batch = rng.standard_normal((9, 6))
    want = np.array([row @ model.S @ row - row @ row / 0.3
                     for row in batch])
    npt.assert_allclose(model.centered_quadratic(batch), want, atol=1e-9)
    one = model.centered_quadratic(batch[0])
    assert one == pytest.approx(want[0], abs=1e-9)


def test_symmetrize_restores_symmetry():
    rng = np.random.default_rng(9)
    model = BayesianLinearModel(8, alpha=0.05, beta=2.0)
    for _ in range(300):
        model.observe(rng.standard_normal(8), rng.standard_normal())
    model.symmetrize()
    npt.assert_array_equal(model.S, model.S.T)
