"""Random Fourier features for linear value models.

A randomized cos/sin embedding whose inner products approximate an
anisotropic RBF kernel.  Frequencies are drawn from the kernel's
spectral density, either by Monte-Carlo sampling or from a scrambled
Halton sequence pushed through the inverse normal CDF (lower
approximation error at equal feature count).  The scrambled Halton
points are Owen's randomized Halton sequence (Owen 2017, "A randomized
Halton algorithm in R", arXiv:1706.02808), built here in numpy to the
bit of scipy's ``qmc.Halton``, and the inverse CDF is a port of Cephes
``ndtri`` equal to ``scipy.special.ndtri`` bit for bit, so drawing a
map loads no scipy.

All embeddings are pure functions of their inputs and the (immutable)
feature map, so maps can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MONTE_CARLO = "monte-carlo"
QUASI_RANDOM = "quasi-random"


def kernel_exact(x, x2, lengthscales) -> float:
    """Anisotropic RBF kernel exp(-1/2 * sum_i ((x_i - x2_i)/l_i)^2).

    Reference implementation used as a test oracle for the feature
    approximations; not on any hot path.
    """
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != x2.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x2.shape}")
    ls = np.broadcast_to(np.asarray(lengthscales, dtype=float), x.shape)
    return float(np.exp(-0.5 * np.sum(((x - x2) / ls) ** 2)))


@dataclass(frozen=True)
class RffMap:
    """Frozen random-Fourier-feature map.

    ``frequencies`` has shape (input_dim, n_spectral); each output feature
    vector is [cos(x^T w_1) .. cos(x^T w_m), sin(x^T w_1) .. sin(x^T w_m)]
    scaled by 1/sqrt(n_spectral), so every embedded vector has unit
    Euclidean norm and <phi(x), phi(x')> estimates the RBF kernel value.
    """

    frequencies: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.frequencies.shape[0]

    @property
    def n_spectral(self) -> int:
        return self.frequencies.shape[1]


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _scrambled_halton(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of scipy's ``qmc.Halton(d, scramble=True,
    seed=seed)``, bit for bit, as a C-ordered (n, d) array in [0, 1).

    Dimension i writes the point index in the i-th prime base b, radix-
    reversed, and passes each digit through its own random permutation
    of 0..b-1 (Owen 2017).  Permutations are drawn for every digit
    position that can still move a double, ceil(54 / log2 b) - 1 of them,
    from one generator shared by the dimensions in order.  The digit sum
    runs in scipy's order, so the points round as scipy's do.
    """
    rng = np.random.default_rng(seed)
    points = np.empty((n, d))
    for i, base in enumerate(_first_primes(d)):
        perms = np.repeat(np.arange(base)[None],
                          math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        quotient = np.arange(n)
        acc = np.zeros(n)
        b2r = 1.0 / base
        for perm in perms:
            acc += perm[quotient % base] * b2r
            quotient //= base
            b2r /= base
        points[:, i] = acc
    return points


# Cephes ndtri (Moshier) coefficients, highest power first; the Q
# polynomials have an implied leading 1.  P0/Q0 serve exp(-2) < y <
# 1 - exp(-2); in the tails P1/Q1 serve z = sqrt(-2 log y) < 8, P2/Q2
# larger z.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189           # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _polevl(x, coefs, leading_one=False):
    """Horner's rule in Cephes' order (polevl, or p1evl with an implied
    leading coefficient 1)."""
    acc = x + coefs[0] if leading_one else coefs[0]
    for coef in coefs[1:]:
        acc = acc * x + coef
    return acc


def ndtri(y) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise: Cephes ``ndtri``
    (Moshier), equal bit for bit to ``scipy.special.ndtri`` on [0, 1].

    Points more than exp(-2) from both 0 and 1 take the rational
    approximation in y - 1/2, in numpy arithmetic.  The tails take one
    in 1/z, z = sqrt(-2 log y) for the smaller of y and 1 - y; their
    logarithms come from ``math.log`` (the C library's, which Cephes
    calls), because numpy's own log differs from it in the last bit for
    some inputs.  0 and 1 map to -inf and +inf; values outside [0, 1]
    are NaN.
    """
    y0 = np.asarray(y, dtype=float)
    out = np.full(y0.shape, np.nan)
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0)
                               / _polevl(y2, _NDTRI_Q0, True))) * _SQRT_2PI
    tail = (y > 0.0) & (y <= _EXP_M2)
    x = np.array([math.sqrt(-2.0 * math.log(v)) for v in y[tail].tolist()])
    x0 = x - np.array([math.log(v) for v in x.tolist()]) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0,
                  z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1, True),
                  z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2, True))
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def sample_rff(lengthscales, n_spectral: int, scheme: str = MONTE_CARLO,
               seed: int = 0) -> RffMap:
    """Draw a frequency matrix for the anisotropic RBF kernel.

    The spectral density of exp(-1/2 ||tau/l||^2) is a zero-mean Gaussian
    with per-dimension standard deviation 1/l_i.  The quasi-random scheme
    replaces i.i.d. normal draws with a scrambled Halton sequence (distinct
    prime base per dimension; Owen 2017, arXiv:1706.02808) mapped through
    the inverse normal CDF, which reduces kernel approximation error at
    equal n_spectral.  The points are built in numpy, equal bit for bit
    to scipy's ``qmc.Halton(d, scramble=True, seed=seed)``, and mapped by
    ``ndtri``, equal bit for bit to ``scipy.special.ndtri`` (which is
    ``norm.ppf``); neither scheme loads scipy.

    An output feature vector has length 2 * n_spectral (cos block then sin
    block), so ask for n_spectral = M/2 to get M features.
    """
    ls = np.atleast_1d(np.asarray(lengthscales, dtype=float))
    if np.any(ls <= 0):
        raise ValueError("lengthscales must be positive")
    if n_spectral < 1:
        raise ValueError("n_spectral must be >= 1")
    d = ls.shape[0]
    if scheme == MONTE_CARLO:
        rng = np.random.default_rng(seed)
        unit = rng.standard_normal((d, n_spectral))
    elif scheme == QUASI_RANDOM:
        # ndtri of the C-ordered (n_spectral, d) points, transposed,
        # leaves the frequencies Fortran-ordered; the projection
        # products round by that layout.
        unit = ndtri(_scrambled_halton(d, n_spectral, seed)).T
    else:
        raise ValueError(f"unknown sampling scheme: {scheme!r}")
    freqs = unit / ls[:, None]
    freqs.setflags(write=False)
    return RffMap(frequencies=freqs)


def rff_embed(x, fmap: RffMap) -> np.ndarray:
    """Embed a single input (or a batch, rows-as-inputs) with an RffMap."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != fmap.input_dim:
        raise ValueError(
            f"input dim {x.shape[-1]} != map dim {fmap.input_dim}")
    proj = x @ fmap.frequencies
    scale = 1.0 / np.sqrt(fmap.n_spectral)
    return np.concatenate([np.cos(proj), np.sin(proj)], axis=-1) * scale


@dataclass(frozen=True)
class JointRffMap:
    """RFF map over concatenated (state, action) inputs.

    States arrive normalized to [0, 1]^state_dim.  Continuous actions are
    min-max normalized to [0, 1]^action_dim from the given box before
    embedding; discrete actions are one-hot encoded.  State dimensions use
    the state lengthscale, action (or one-hot) dimensions the action
    lengthscale.

    The frequency matrix splits into a state block and an action block, so
    projections of states and actions can be computed separately and
    combined per pair; the batched policy/variance helpers rely on this.
    """

    rff: RffMap
    state_dim: int
    action_low: np.ndarray | None = None    # None for one-hot discrete
    action_high: np.ndarray | None = None
    n_actions: int | None = None            # set for discrete actions

    @classmethod
    def for_spec(cls, spec, rff: RffMap) -> "JointRffMap":
        """The map of ``rff``'s frequencies, which have spec.state_dim +
        spec.action_dim input rows, over an EnvSpec's (state, action)
        inputs."""
        return cls(rff=rff, state_dim=spec.state_dim,
                   action_low=spec.action_low, action_high=spec.action_high,
                   n_actions=spec.n_actions)

    @property
    def n_spectral(self) -> int:
        return self.rff.n_spectral

    @property
    def discrete(self) -> bool:
        return self.n_actions is not None

    def encode_actions(self, actions) -> np.ndarray:
        """Map raw actions to the normalized/one-hot embedding input block."""
        if self.discrete:
            idx = np.atleast_1d(np.asarray(actions, dtype=int))
            return np.eye(self.n_actions)[idx]
        a = np.atleast_2d(np.asarray(actions, dtype=float))
        return (a - self.action_low) / (self.action_high - self.action_low)

    def state_projection(self, states) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        return states @ self.rff.frequencies[: self.state_dim]

    def action_projection(self, actions) -> np.ndarray:
        return self.encode_actions(actions) @ self.rff.frequencies[self.state_dim:]

    def embed_pairs(self, states, actions) -> np.ndarray:
        """Row-wise features for paired states[i], actions[i]."""
        proj = self.state_projection(states) + self.action_projection(actions)
        scale = 1.0 / np.sqrt(self.n_spectral)
        return np.concatenate([np.cos(proj), np.sin(proj)], axis=1) * scale


def make_joint_map(spec, lengthscale_state, lengthscale_action=1.0, *,
                   n_features: int, seed: int = 0) -> JointRffMap:
    """Sample a JointRffMap for an EnvSpec's state and action spaces.

    ``n_features`` is the output feature-vector length, an even count
    (EmuqConfig checks it); n_features/2 spectral samples are drawn by the
    quasi-random scheme.
    """
    ls = np.concatenate([
        np.full(spec.state_dim, float(lengthscale_state)),
        np.full(spec.action_dim, float(lengthscale_action)),
    ])
    rff = sample_rff(ls, n_features // 2, scheme=QUASI_RANDOM, seed=seed)
    return JointRffMap.for_spec(spec, rff)
