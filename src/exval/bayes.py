"""Bayesian linear regression with incremental rank-1 posterior updates.

Model: y = phi(x)^T w + noise, w ~ N(0, alpha^{-1} I), noise precision
beta.  After N observations with design matrix Phi and targets y the
posterior is

    S = (alpha I + beta Phi^T Phi)^{-1}        (covariance)
    m = beta S Phi^T y                         (mean)

``BayesianLinearModel`` maintains S incrementally via the Sherman-Morrison
identity (one O(M^2) rank-1 update per observation, no matrix inversions
after construction) together with the running precision-weighted target
vector t = beta Phi^T y, from which m = S t.  The rank-1 terms are kept
pending as a low-rank sum and folded into the covariance matrix by one
matrix product every FOLD_EVERY observations, so the M x M matrix is
rewritten once per batch rather than once per observation.

Several regression heads can share one covariance: heads differ only in
their targets, so S is head-independent as long as every head observes
every row of Phi.  Targets and means are stored as (M, n_heads) columns.
"""

from __future__ import annotations

import numpy as np

# Rank-1 covariance updates kept pending before one matrix product folds
# them in.  With M = 300 on one BLAS thread, a step of observe plus a
# 5-row centered_quadratic took 81 us at 16, 81-83 us from 12 to 32, 89
# at 4 and 94 at 64 (one rank-1 update per step took 133 us).
FOLD_EVERY = 16


class BayesianLinearModel:
    """Incremental Bayesian linear regression with shared covariance heads.

    Parameters
    ----------
    n_features : feature-vector length M.
    alpha : prior precision on the weights.
    beta : observation noise precision.
    n_heads : number of target columns sharing the covariance.

    The covariance is S = S_0 + U^T diag(c) U: a folded matrix S_0 plus
    the k < FOLD_EVERY rank-1 terms c_j u_j u_j^T observed since the last
    fold, kept as the rows of U and of diag(c) U.  Reading ``S`` folds
    them first; the queries (``observe``'s S phi, ``centered_quadratic``
    and m = S t) go through the pending terms without folding.
    """

    def __init__(self, n_features: int, alpha: float = 1.0, beta: float = 1.0,
                 n_heads: int = 1):
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        self.n_features = int(n_features)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.n_heads = int(n_heads)
        self._folded = np.eye(self.n_features) / self.alpha
        self._u = np.empty((FOLD_EVERY, self.n_features))
        self._cu = np.empty((FOLD_EVERY, self.n_features))
        self._pending = 0
        self.t = np.zeros((self.n_features, self.n_heads))
        self.m = np.zeros((self.n_features, self.n_heads))

    @property
    def S(self) -> np.ndarray:
        """The covariance, with every pending rank-1 term folded in."""
        self._fold()
        return self._folded

    @S.setter
    def S(self, value) -> None:
        self._folded = value
        self._pending = 0

    def _fold(self) -> None:
        k = self._pending
        if k:
            self._folded = self._folded + self._u[:k].T @ self._cu[:k]
            self._pending = 0

    def _times_S(self, x) -> np.ndarray:
        """S x for a vector or a matrix of columns x, through the pending
        terms: S_0 x + U^T (diag(c) U x)."""
        k = self._pending
        out = self._folded @ x
        if k:
            out += self._u[:k].T @ (self._cu[:k] @ x)
        return out

    def observe(self, phi, y) -> None:
        """Fold in one observation row for every head.

        Sherman-Morrison update of the covariance,

            S' = S - beta (S phi)(phi^T S) / (1 + beta phi^T S phi),

        then t += beta * phi * y per head and m = S' t.

        The rank-1 term joins the pending ones; the FOLD_EVERY-th folds
        them all into the covariance matrix in one product, whose two
        triangles round independently, so S drifts from symmetry by
        rounding until ``symmetrize``.
        """
        phi = np.asarray(phi, dtype=float)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        u = self._times_S(phi)
        coef = -self.beta / (1.0 + self.beta * float(phi @ u))
        k = self._pending
        self._u[k] = u
        self._cu[k] = coef * u
        self._pending = k + 1
        if self._pending == FOLD_EVERY:
            self._fold()
        self.t += self.beta * np.outer(phi, y)
        self.m = self._times_S(self.t)

    def set_targets(self, t_new) -> None:
        """Install a full replacement running-target matrix; m = S t."""
        t_new = np.asarray(t_new, dtype=float).reshape(self.n_features,
                                                       self.n_heads)
        self.t = t_new.copy()
        self.m = self._times_S(self.t)

    def symmetrize(self) -> None:
        """Remove accumulated asymmetry drift in S (exact S is symmetric)."""
        S = self.S
        self.S = (S + S.T) / 2.0

    def centered_quadratic(self, phi):
        """phi^T (S - alpha^{-1} I) phi for each row of a 2-D batch.

        Equals phi^T S phi - ||phi||^2 / alpha but evaluates to an exact
        0.0 on a fresh posterior, where S - alpha^{-1} I is the zero
        matrix; the subtraction-of-nearly-equal-floats route does not.
        Here phi S_0 - phi / alpha is that zero row exactly, because a
        fresh S_0 is diagonal with entries 1 / alpha, and no M x M copy
        is made.  Pending rank-1 terms add sum_j c_j (phi . u_j)^2.
        """
        phi = np.asarray(phi, dtype=float)
        centered_phi = phi @ self._folded - phi * (1.0 / self.alpha)
        quad = np.einsum("ij,ij->i", centered_phi, phi)
        k = self._pending
        if k:
            quad += np.einsum("ij,ij->i", phi @ self._u[:k].T,
                              phi @ self._cu[:k].T)
        return quad
