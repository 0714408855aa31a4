"""Checks of the reference solutions in oracles.py themselves: the
closed-form posterior against a ridge solve, and the chain's
absorption-time solve against seeded rollouts of ChainEnv."""

import numpy as np
import numpy.testing as npt
import pytest

from exval.envs import ChainEnv
from oracles import exact_posterior, expected_steps_to_goal_always_right


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



def test_chain_absorption_time_oracle():
    # n = 2 collapses to a geometric success with p = 1/2, mean 2.
    assert expected_steps_to_goal_always_right(2) == pytest.approx(2.0)

    env = ChainEnv(6)
    rng = np.random.default_rng(5)
    steps = []
    for _ in range(4000):
        s, t = 0, 0
        while True:
            out = env.step(s, 1, rng)
            t += 1
            if out.goal:
                break
            s = out.next_state
        steps.append(t)
    want = expected_steps_to_goal_always_right(6)
    assert abs(np.mean(steps) - want) / want < 0.05
