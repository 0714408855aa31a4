"""Bayesian linear regression with incremental rank-1 posterior updates.

Model: y = phi(x)^T w + noise, w ~ N(0, alpha^{-1} I), noise precision
beta.  After N observations with design matrix Phi and targets y the
posterior is

    S = (alpha I + beta Phi^T Phi)^{-1}        (covariance)
    m = beta S Phi^T y                         (mean)

``BayesianLinearModel`` maintains S incrementally via the Sherman-Morrison
identity (one O(M^2) update per observation, no matrix inversions after
construction) together with the running precision-weighted target vector
t = beta Phi^T y, from which m = S t.

Several regression heads can share one covariance: heads differ only in
their targets, so S is head-independent as long as every head observes
every row of Phi.  Targets and means are stored as (M, n_heads) columns.
"""

from __future__ import annotations

import numpy as np


def exact_posterior(Phi, y, alpha: float, beta: float):
    """Closed-form posterior (S, m) from a full design matrix.

    Direct linear solve, O(M^3).  Test oracle and refit path; the
    incremental model must agree with this to numerical precision.
    """
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    M = Phi.shape[1]
    precision = alpha * np.eye(M) + beta * (Phi.T @ Phi)
    S = np.linalg.solve(precision, np.eye(M))
    S = (S + S.T) / 2.0
    m = beta * (S @ (Phi.T @ y))
    return S, m


class BayesianLinearModel:
    """Incremental Bayesian linear regression with shared covariance heads.

    Parameters
    ----------
    n_features : feature-vector length M.
    alpha : prior precision on the weights.
    beta : observation noise precision.
    n_heads : number of target columns sharing the covariance.
    """

    def __init__(self, n_features: int, alpha: float = 1.0, beta: float = 1.0,
                 n_heads: int = 1):
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        self.n_features = int(n_features)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.n_heads = int(n_heads)
        self.S = np.eye(self.n_features) / self.alpha
        self.t = np.zeros((self.n_features, self.n_heads))
        self.m = np.zeros((self.n_features, self.n_heads))
        self.n_observed = 0

    def observe(self, phi, y) -> None:
        """Fold in one observation row for every head.

        Sherman-Morrison update of the covariance,

            S' = S - beta (S phi)(phi^T S) / (1 + beta phi^T S phi),

        then t += beta * phi * y per head and m = S' t.
        """
        phi = np.asarray(phi, dtype=float)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        u = self.S @ phi
        denom = 1.0 + self.beta * float(phi @ u)
        self.S -= (self.beta / denom) * np.outer(u, u)
        self.t += self.beta * np.outer(phi, y)
        self.m = self.S @ self.t
        self.n_observed += 1

    def set_targets(self, t_new) -> None:
        """Install a full replacement running-target matrix; m = S t."""
        t_new = np.asarray(t_new, dtype=float).reshape(self.n_features,
                                                       self.n_heads)
        self.t = t_new.copy()
        self.m = self.S @ self.t

    def symmetrize(self) -> None:
        """Remove accumulated asymmetry drift in S (exact S is symmetric)."""
        self.S = (self.S + self.S.T) / 2.0

    def centered_quadratic(self, phi):
        """phi^T (S - alpha^{-1} I) phi, row-wise for batches.

        Equals phi^T S phi - ||phi||^2 / alpha but evaluates to an exact
        0.0 on a fresh posterior, where S - alpha^{-1} I is the zero
        matrix; the subtraction-of-nearly-equal-floats route does not.
        """
        phi = np.asarray(phi, dtype=float)
        centered = self.S.copy()
        centered[np.diag_indices_from(centered)] -= 1.0 / self.alpha
        if phi.ndim == 1:
            return float(phi @ centered @ phi)
        return np.einsum("ij,ij->i", phi @ centered, phi)
