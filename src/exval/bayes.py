"""Bayesian linear regression with incremental rank-1 posterior updates.

Model: y = phi(x)^T w + noise, w ~ N(0, alpha^{-1} I), noise precision
beta.  After N observations with design matrix Phi and targets y the
posterior is

    S = (alpha I + beta Phi^T Phi)^{-1}        (covariance)
    m = beta S Phi^T y                         (mean)

``BayesianLinearModel`` maintains S incrementally via the Sherman-Morrison
identity (one O(M^2) in-place BLAS rank-1 update per observation, no
matrix inversions after construction) together with the running
precision-weighted target vector t = beta Phi^T y, from which m = S t.

Several regression heads can share one covariance: heads differ only in
their targets, so S is head-independent as long as every head observes
every row of Phi.  Targets and means are stored as (M, n_heads) columns.
"""

from __future__ import annotations

import numpy as np

# Largest rank-1 update, in matrix entries, that OpenBLAS runs on the
# calling thread (2048 * GEMM_MULTITHREAD_THRESHOLD in its default build).
GER_BLOCK = 8192


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

    def observe(self, phi, y) -> None:
        """Fold in one observation row for every head.

        Sherman-Morrison update of the covariance,

            S' = S - beta (S phi)(phi^T S) / (1 + beta phi^T S phi),

        then t += beta * phi * y per head and m = S' t.

        The covariance takes the update in place from the BLAS rank-1
        routine dger, with no M x M temporary.  Its two triangles round
        independently, so S drifts from symmetry by rounding until
        ``symmetrize``.  dger runs on column blocks of at most GER_BLOCK
        entries, which OpenBLAS updates on the calling thread: scipy links
        an OpenBLAS of its own beside numpy's, and worker threads of the
        two compete for the same cores (with whole-matrix calls the
        acceptance suite's chain runs took up to 3x as long on two
        cores).  scipy.linalg is imported here, on first use, so
        importing the package or running agents without this model does
        not pay for it.
        """
        from scipy.linalg.blas import dger
        phi = np.asarray(phi, dtype=float)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        u = self.S @ phi
        coef = -self.beta / (1.0 + self.beta * float(phi @ u))
        # dger silently updates a copy of a block that is not
        # Fortran-contiguous, so S is made a writable C-ordered float
        # array (a copy, once, of a Fortran-ordered checkpoint's); then
        # each column block of S.T is a Fortran-ordered view of S
        S = self.S = np.require(self.S, float, "CAW")
        step = max(1, GER_BLOCK // len(u))
        for j in range(0, len(u), step):
            dger(coef, u, u[j:j + step], a=S.T[:, j:j + step],
                 overwrite_a=True)
        self.t += self.beta * np.outer(phi, y)
        self.m = self.S @ self.t

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
        """phi^T (S - alpha^{-1} I) phi for each row of a 2-D batch.

        Equals phi^T S phi - ||phi||^2 / alpha but evaluates to an exact
        0.0 on a fresh posterior, where S - alpha^{-1} I is the zero
        matrix; the subtraction-of-nearly-equal-floats route does not.
        Here phi S - phi / alpha is that zero row exactly, because a fresh
        S is diagonal with entries 1 / alpha, and no M x M copy is made.
        """
        phi = np.asarray(phi, dtype=float)
        centered_phi = phi @ self.S - phi * (1.0 / self.alpha)
        return np.einsum("ij,ij->i", centered_phi, phi)
