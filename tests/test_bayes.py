"""Bayesian linear regression tests.

The incremental Sherman-Morrison model is checked against the closed-form
posterior of oracles.exact_posterior (a direct solve of the precision
system), never against itself.
"""

import numpy as np
import numpy.testing as npt
import pytest

from exval.bayes import FOLD_EVERY, BayesianLinearModel
from exval.features import rff_embed, sample_rff
from oracles import exact_posterior


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


@pytest.mark.parametrize("alpha", [0.1, 0.001])
def test_rank1_updates_at_agent_scale_match_exact_posterior(alpha):
    # EmuQ's size: M = 300 unit-norm RFF rows, many more rows than
    # features.  The batched rank-1 updates stay within rounding of the
    # direct solve, and nearly symmetric with no symmetrize call.
    rng = np.random.default_rng(11)
    fmap = sample_rff([0.3, 0.3], 150, seed=5)
    Phi = rff_embed(rng.uniform(0.0, 1.0, size=(1500, 2)), fmap)
    model = BayesianLinearModel(300, alpha=alpha, beta=1.0)
    for phi in Phi:
        model.observe(phi, 0.0)
    S_ref, _ = exact_posterior(Phi, np.zeros(len(Phi)), alpha, 1.0)
    assert np.max(np.abs(model.S - S_ref)) <= 1e-10 / alpha
    assert np.max(np.abs(model.S - model.S.T)) <= 1e-12 / alpha


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
    # V_max = 1 / (alpha beta)
    assert phi @ model.S @ phi / model.beta == pytest.approx(1 / (0.1 * 2.0))


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


def test_symmetrize_restores_symmetry():
    rng = np.random.default_rng(9)
    model = BayesianLinearModel(8, alpha=0.05, beta=2.0)
    for _ in range(300):
        model.observe(rng.standard_normal(8), rng.standard_normal())
    model.symmetrize()
    npt.assert_array_equal(model.S, model.S.T)


def agent_scale_rows(n):
    rng = np.random.default_rng(12)
    fmap = sample_rff([0.3, 0.3, 1.0], 150, seed=4)
    return rff_embed(rng.uniform(0.0, 1.0, size=(n, 3)), fmap)


@pytest.mark.parametrize("pending", range(1, FOLD_EVERY))
def test_pending_updates_read_as_the_exact_posterior(pending):
    # Two folds, then 1 to FOLD_EVERY - 1 rank-1 terms left pending:
    # reading S folds them, and S and m match the direct solve.
    rng = np.random.default_rng(pending)
    n = 2 * FOLD_EVERY + pending
    Phi = rng.standard_normal((n, 8))
    Y = rng.standard_normal((n, 2))
    model = BayesianLinearModel(8, alpha=0.3, beta=1.7, n_heads=2)
    for phi, y in zip(Phi, Y):
        model.observe(phi, y)
    assert model._pending == pending
    S_ref, m_ref = exact_posterior(Phi, Y, 0.3, 1.7)
    npt.assert_allclose(model.m, m_ref, atol=1e-10)
    npt.assert_allclose(model.S, S_ref, atol=1e-10)
    assert model._pending == 0


@pytest.mark.parametrize("alpha", [0.1, 0.001])
def test_pending_queries_match_their_folded_values(alpha):
    # centered_quadratic, S phi and m = S t read through the pending
    # terms agree with the same queries on the folded matrix.
    Phi = agent_scale_rows(3 * FOLD_EVERY + 5)
    model = BayesianLinearModel(300, alpha=alpha, beta=1.0, n_heads=2)
    rng = np.random.default_rng(13)
    for phi in Phi:
        model.observe(phi, rng.standard_normal(2))
    assert model._pending == 5
    batch = agent_scale_rows(7)
    pending = (model.centered_quadratic(batch), model._times_S(batch[0]),
               model.m.copy())
    S = model.S
    assert model._pending == 0
    folded = (model.centered_quadratic(batch), S @ batch[0], S @ model.t)
    for got, want in zip(pending, folded):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_assigning_and_symmetrizing_leave_nothing_pending():
    rng = np.random.default_rng(14)
    model = BayesianLinearModel(6, alpha=0.5, beta=1.0)
    for _ in range(3):
        model.observe(rng.standard_normal(6), rng.standard_normal())
    model.symmetrize()
    assert model._pending == 0
    npt.assert_array_equal(model.S, model.S.T)
    model.observe(rng.standard_normal(6), rng.standard_normal())
    assert model._pending == 1
    model.S = np.eye(6)
    assert model._pending == 0
    npt.assert_array_equal(model.S, np.eye(6))
