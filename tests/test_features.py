"""Feature-map tests: RFF kernel approximation and the joint map."""

from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from exval.core import EnvSpec
from exval.features import (MONTE_CARLO, QUASI_RANDOM, _scrambled_halton,
                            kernel_exact, make_joint_map, ndtri, rff_embed,
                            sample_rff)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def emuq_map_shapes():
    """(input dims, spectral samples) of every checked-in EmuQ config's
    feature map."""
    from exval.bench import load_config
    from exval.envs import make_env

    shapes = set()
    for path in sorted(CONFIG_DIR.glob("*.json")):
        config = load_config(path)
        if config.agent_kind == "emuq":
            spec = make_env(config.env_name, **config.env_params).spec
            shapes.add((spec.state_dim + spec.action_dim,
                        config.agent_params["n_features"] // 2))
    return sorted(shapes)


def discrete_spec(state_dim, n_actions):
    return EnvSpec(state_dim=state_dim, max_episode_steps=1,
                   n_actions=n_actions)


def box_spec(state_dim, low, high):
    return EnvSpec(state_dim=state_dim, max_episode_steps=1,
                   action_low=np.array(low), action_high=np.array(high))


def test_kernel_exact_basic_identities():
    x = np.array([0.2, -0.4, 1.0])
    ls = np.array([0.5, 1.0, 2.0])
    assert kernel_exact(x, x, ls) == 1.0
    y = np.array([0.0, 0.0, 0.0])
    assert kernel_exact(x, y, ls) == kernel_exact(y, x, ls)
    # hand value: exp(-0.5 * ((0.3/0.5)^2 + (0.4/1)^2))
    got = kernel_exact([0.0, 0.0], [0.3, 0.4], [0.5, 1.0])
    assert abs(got - np.exp(-0.5 * (0.36 + 0.16))) < 1e-15


def test_kernel_exact_shape_mismatch():
    with pytest.raises(ValueError):
        kernel_exact([0.0, 1.0], [0.0], 1.0)


def test_sample_rff_shapes_and_validation():
    fmap = sample_rff([0.5, 2.0], 8, MONTE_CARLO, seed=0)
    assert fmap.frequencies.shape == (2, 8)
    assert fmap.input_dim == 2
    assert fmap.n_spectral == 8
    assert not fmap.frequencies.flags.writeable
    with pytest.raises(ValueError):
        sample_rff([0.5, -1.0], 8)
    with pytest.raises(ValueError):
        sample_rff([0.5], 0)
    with pytest.raises(ValueError):
        sample_rff([0.5], 8, scheme="bogus")


@pytest.mark.parametrize("scheme", [MONTE_CARLO, QUASI_RANDOM])
def test_frequency_spread_matches_inverse_lengthscale(scheme):
    # Spectral samples for lengthscale l must have standard deviation 1/l
    # per dimension.
    ls = np.array([0.25, 1.0, 4.0])
    fmap = sample_rff(ls, 20000, scheme, seed=3)
    stds = fmap.frequencies.std(axis=1)
    npt.assert_allclose(stds, 1.0 / ls, rtol=0.03)
    npt.assert_allclose(fmap.frequencies.mean(axis=1), 0.0,
                        atol=4.0 / ls.min() / np.sqrt(20000) * 4)


def test_sampling_is_seed_deterministic():
    a = sample_rff([0.3], 64, QUASI_RANDOM, seed=11)
    b = sample_rff([0.3], 64, QUASI_RANDOM, seed=11)
    c = sample_rff([0.3], 64, QUASI_RANDOM, seed=12)
    npt.assert_array_equal(a.frequencies, b.frequencies)
    assert np.any(a.frequencies != c.frequencies)


@pytest.mark.parametrize("seed", [0, 11, 2 ** 63 - 1])
@pytest.mark.parametrize("n", [1, 7, 150, 20000])
def test_scrambled_halton_is_scipys_bit_for_bit(n, seed):
    from scipy.stats import qmc

    for d in range(1, 7):
        points = _scrambled_halton(d, n, seed)
        expected = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
        assert points.shape == expected.shape == (n, d)
        npt.assert_array_equal(points.view(np.uint64),
                               expected.view(np.uint64))


def assert_same_bits(got, want):
    assert got.shape == want.shape
    npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("shape", emuq_map_shapes())
def test_ndtri_is_scipys_bit_for_bit_on_emuq_maps(shape):
    # The Halton points of every checked-in EmuQ map's shape: a last-bit
    # difference would change the frequencies, and so every EmuQ result.
    from scipy.special import ndtri as scipy_ndtri

    d, n = shape
    for seed in [0, 1, 7, 12345, 2 ** 63 - 1, *range(100, 120)]:
        points = _scrambled_halton(d, n, seed)
        assert_same_bits(ndtri(points), scipy_ndtri(points))


def test_ndtri_is_scipys_bit_for_bit_in_the_tails_and_at_the_ends():
    from scipy.special import ndtri as scipy_ndtri

    u = np.random.default_rng(3).uniform(size=20000)
    exp_m2 = 0.13533528323661269189
    edges = np.array([exp_m2, np.nextafter(exp_m2, 0.0),
                      np.nextafter(exp_m2, 1.0), 1.0 - exp_m2,
                      np.nextafter(1.0 - exp_m2, 1.0), 0.5,
                      np.nextafter(1.0, 0.0), 5e-324, 1e-300, 1e-15])
    # u^20 reaches past exp(-32), where the far-tail polynomial takes over
    for y in (u, u ** 20, 1.0 - u ** 20, u ** 400, edges):
        assert_same_bits(ndtri(y), scipy_ndtri(y))
    assert_same_bits(ndtri(np.array([0.0, 1.0])), np.array([-np.inf, np.inf]))
    assert np.isnan(ndtri(np.array([-0.5, 1.5, np.nan]))).all()


def test_quasi_random_frequencies_are_fortran_ordered_and_read_only():
    # The projection products round by the matrix's layout: a C-ordered
    # matrix of equal values changes EmuQ results.
    from scipy.stats import norm, qmc

    ls = np.array([0.3, 0.3, 10.0])
    freqs = sample_rff(ls, 150, QUASI_RANDOM, seed=7).frequencies
    expected = norm.ppf(qmc.Halton(d=3, scramble=True, seed=7)
                        .random(150)).T / ls[:, None]
    npt.assert_array_equal(freqs, expected)
    assert freqs.strides == expected.strides
    assert freqs.flags.f_contiguous and not freqs.flags.c_contiguous
    assert not freqs.flags.writeable


def test_rff_embedding_has_unit_norm():
    fmap = sample_rff([0.4, 0.9], 32, MONTE_CARLO, seed=5)
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(50, 2))
    phi = rff_embed(X, fmap)
    assert phi.shape == (50, 64)
    # cos^2 + sin^2 sums to n_spectral, so each row has norm exactly 1.
    npt.assert_allclose(np.einsum("ij,ij->i", phi, phi), 1.0, atol=1e-12)


def test_rff_embedding_dimension_check():
    fmap = sample_rff([0.4, 0.9], 8)
    with pytest.raises(ValueError):
        rff_embed(np.zeros(3), fmap)


@pytest.mark.parametrize("scheme", [MONTE_CARLO, QUASI_RANDOM])
def test_rff_inner_products_approximate_kernel(scheme):
    d = 2
    ls = np.full(d, 0.6)
    fmap = sample_rff(ls, 1000, scheme, seed=9)
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(80, d))
    Y = rng.uniform(-1, 1, size=(80, d))
    k_hat = np.einsum("ij,ij->i", rff_embed(X, fmap), rff_embed(Y, fmap))
    k_true = np.array([kernel_exact(x, y, ls) for x, y in zip(X, Y)])
    assert np.mean(np.abs(k_hat - k_true)) < 0.03


def test_rff_error_shrinks_with_more_features():
    ls = np.full(3, 0.5)
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, size=(100, 3))
    Y = rng.uniform(-1, 1, size=(100, 3))
    k_true = np.array([kernel_exact(x, y, ls) for x, y in zip(X, Y)])

    def mean_err(n_spectral):
        errs = []
        for seed in range(6):
            fmap = sample_rff(ls, n_spectral, MONTE_CARLO, seed=seed)
            k_hat = np.einsum("ij,ij->i", rff_embed(X, fmap),
                              rff_embed(Y, fmap))
            errs.append(np.mean(np.abs(k_hat - k_true)))
        return np.mean(errs)

    e_small, e_mid, e_big = mean_err(50), mean_err(200), mean_err(1000)
    assert e_small > e_mid > e_big


def test_joint_map_discrete_one_hot():
    fmap = make_joint_map(discrete_spec(1, 3), 0.5, 1.0, n_features=16,
                          seed=0)
    assert fmap.discrete
    assert fmap.rff.frequencies.shape == (1 + 3, 8)
    enc = fmap.encode_actions([0, 2])
    npt.assert_array_equal(enc, [[1, 0, 0], [0, 0, 1]])


def test_joint_map_box_normalization():
    fmap = make_joint_map(box_spec(2, [-2.0], [2.0]), 0.5, n_features=16,
                          seed=0)
    assert not fmap.discrete
    enc = fmap.encode_actions([[-2.0], [0.0], [2.0]])
    npt.assert_allclose(enc, [[0.0], [0.5], [1.0]])


def test_joint_map_lengthscale_blocks():
    # State rows use the state lengthscale, action rows the action one.
    fmap = make_joint_map(discrete_spec(2, 2), 0.1, 5.0, n_features=40000,
                          seed=4)
    freqs = fmap.rff.frequencies
    npt.assert_allclose(freqs[:2].std(axis=1), 10.0, rtol=0.05)
    npt.assert_allclose(freqs[2:].std(axis=1), 0.2, rtol=0.05)


def joint_reference(fmap, state, action):
    """One (state, action) feature row from rff_embed on the stacked,
    encoded input."""
    return rff_embed(np.concatenate([state, fmap.encode_actions(action)[0]]),
                     fmap.rff)


def test_embed_pairs_matches_single_embeds():
    rng = np.random.default_rng(7)
    for discrete in (True, False):
        if discrete:
            fmap = make_joint_map(discrete_spec(2, 4), 0.3, 0.8,
                                  n_features=24, seed=1)
            actions = rng.integers(4, size=10)
        else:
            fmap = make_joint_map(box_spec(2, [-1.0, 0.0], [1.0, 3.0]), 0.3,
                                  0.8, n_features=24, seed=1)
            actions = rng.uniform([-1, 0], [1, 3], size=(10, 2))
        states = rng.uniform(0, 1, size=(10, 2))
        batch = fmap.embed_pairs(states, actions)
        singles = np.array([joint_reference(fmap, s, a)
                            for s, a in zip(states, actions)])
        npt.assert_allclose(batch, singles, atol=1e-13)


def test_joint_embedding_approximates_product_kernel():
    # <phi(s,a), phi(s',a')> estimates the RBF kernel over the stacked
    # normalized (state, action) input.
    fmap = make_joint_map(box_spec(1, [0.0], [1.0]), 0.5, 0.5,
                          n_features=4000, seed=2)
    s1, a1 = np.array([0.2]), np.array([0.9])
    s2, a2 = np.array([0.5]), np.array([0.4])
    k_hat = joint_reference(fmap, s1, a1) @ joint_reference(fmap, s2, a2)
    k_true = kernel_exact([0.2, 0.9], [0.5, 0.4], 0.5)
    assert abs(k_hat - k_true) < 0.05

