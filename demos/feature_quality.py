#!/usr/bin/env python3
"""How good are the random Fourier features, and against what baseline?

Part one measures kernel fidelity directly: embed random point pairs,
take inner products, compare with the exact RBF kernel.  Doubling the
feature count should shrink the error, and the quasi-random frequency
scheme should beat plain Monte Carlo sampling at the same size.

Part two compares feature families on a regression task shaped like
the value functions this library learns: mostly flat, with sharp
structure near a goal region.  Random Fourier features model a
stationary RBF kernel with a tunable lengthscale, so they spend
capacity locally.  The classic Fourier value-function basis
(Konidaris et al. 2011: cosines of integer frequency combinations,
built here) is global; at the same feature budget it has to ring
everywhere to carve out one bump.

Runs in a few seconds.
"""

import itertools

import numpy as np

from exval.bayes import BayesianLinearModel
from exval.features import (MONTE_CARLO, QUASI_RANDOM, kernel_exact,
                            rff_embed, sample_rff)


def kernel_error_table():
    d, ls = 3, 0.3
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, size=(200, d))
    Y = rng.uniform(-1, 1, size=(200, d))
    k_true = np.array([kernel_exact(x, y, ls) for x, y in zip(X, Y)])

    print("mean |approx - exact| RBF kernel error, 200 point pairs,")
    print("averaged over 5 frequency seeds")
    print(f"{'features':>10} {'monte-carlo':>13} {'quasi-random':>13}")
    for n_feat in (100, 400, 2000):
        cols = []
        for scheme in (MONTE_CARLO, QUASI_RANDOM):
            errs = []
            for seed in range(5):
                fmap = sample_rff(np.full(d, ls), n_feat // 2, scheme, seed)
                k_hat = np.einsum("ij,ij->i", rff_embed(X, fmap),
                                  rff_embed(Y, fmap))
                errs.append(np.mean(np.abs(k_hat - k_true)))
            cols.append(np.mean(errs))
        print(f"{n_feat:>10} {cols[0]:>13.4f} {cols[1]:>13.4f}")
    print()


def bump_target(X):
    # flat plain, narrow payoff bump at (0.8, 0.2): value-function shaped
    d2 = np.sum((X - np.array([0.8, 0.2])) ** 2, axis=1)
    return np.exp(-d2 / (2 * 0.1 ** 2))


def fourier_basis(X, order):
    """Order-n Fourier basis on [0, 1]^d: cos(pi * x^T c) for every
    coefficient vector c in {0..n}^d, (n+1)^d features per row."""
    C = np.array(list(itertools.product(range(order + 1),
                                        repeat=X.shape[1])), dtype=float).T
    return np.cos(np.pi * (X @ C))


def fit_rmse(Phi_train, y, Phi_test, y_test):
    model = BayesianLinearModel(Phi_train.shape[1], alpha=1e-3, beta=100.0)
    for phi, target in zip(Phi_train, y):
        model.observe(phi, target)
    err = (Phi_test @ model.m)[:, 0] - y_test
    return float(np.sqrt(np.mean(err ** 2)))


def regression_comparison():
    rng = np.random.default_rng(0)
    X_train = rng.uniform(0, 1, size=(400, 2))
    X_test = rng.uniform(0, 1, size=(2000, 2))
    y_train = bump_target(X_train)
    y_test = bump_target(X_test)

    order = 7                                   # (7+1)^2 = 64 features
    Phi_train = fourier_basis(X_train, order)
    n_features = Phi_train.shape[1]
    rmse_fb = fit_rmse(Phi_train, y_train, fourier_basis(X_test, order),
                       y_test)

    rff = sample_rff(np.full(2, 0.1), n_features // 2, QUASI_RANDOM, seed=0)
    rmse_rff = fit_rmse(rff_embed(X_train, rff), y_train,
                        rff_embed(X_test, rff), y_test)

    print(f"regression on a goal-bump target, {n_features} features each")
    print(f"  Fourier basis, order {order}:        rmse {rmse_fb:.4f}")
    print(f"  random Fourier features, ls 0.1:  rmse {rmse_rff:.4f}")
    print()
    print("The stationary-kernel features resolve the bump with a")
    print("lengthscale chosen to match it; the global basis spreads the")
    print("same budget over the whole square.")


def main():
    kernel_error_table()
    regression_comparison()


if __name__ == "__main__":
    main()
