"""Closed-form reference solutions that the tests check the package
against.  They are computed by routes independent of the code under
test, and nothing in the package calls them."""

import numpy as np


def exact_posterior(Phi, y, alpha: float, beta: float):
    """Closed-form posterior (S, m) from a full design matrix.

    Direct linear solve, O(M^3).  The incremental model must agree with
    this to numerical precision.
    """
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    M = Phi.shape[1]
    precision = alpha * np.eye(M) + beta * (Phi.T @ Phi)
    S = np.linalg.solve(precision, np.eye(M))
    S = (S + S.T) / 2.0
    m = beta * (S @ (Phi.T @ y))
    return S, m


def expected_steps_to_goal_always_right(n: int) -> float:
    """Absorption-time oracle for the always-right policy on an n-state
    chain.

    Solves the linear system E[T_i] = 1 + (1-1/N) E[T_{i+1}] + (1/N) E[T_{max(i-1,0)}]
    for the expected first-hitting time of state N-1 from state 0.
    """
    p = 1.0 - 1.0 / n
    q = 1.0 / n
    # Unknowns T_0 .. T_{n-2}; T_{n-1} = 0.
    A = np.zeros((n - 1, n - 1))
    b = np.ones(n - 1)
    for i in range(n - 1):
        A[i, i] = 1.0
        down = max(i - 1, 0)
        A[i, down] -= q
        if i + 1 <= n - 2:
            A[i, i + 1] -= p
    return float(np.linalg.solve(A, b)[0])
