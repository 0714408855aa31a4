"""Environment dynamics tests.

Each domain is checked against independently computed quantities:
hand-stepped Euler updates, scripted optimal rollouts, and empirical
frequencies from seeded rollouts (the chain's absorption time is checked
in test_oracles.py).
"""

import numpy as np
import numpy.testing as npt
import pytest

from exval.envs import (ChainEnv, CliffEnv, MountainCarEnv, PendulumEnv,
                        TaxiEnv, env_names, make_env)
from exval.envs.gridworld import DOWN, LEFT, RIGHT, UP
from exval.envs.taxi import (DROPOFF, EAST, IN_TAXI, NORTH, PICKUP, SOUTH,
                             SPECIAL_CELLS, WEST, decode, encode)


def test_registry_names_and_construction():
    assert env_names() == ["chain", "cliff", "mountaincar", "pendulum",
                           "taxi"]
    env = make_env("chain", n_states=5)
    assert isinstance(env, ChainEnv)
    assert env.n == 5
    with pytest.raises(ValueError):
        make_env("gridworld")


# ---------------------------------------------------------------- chain


def test_chain_validation():
    with pytest.raises(ValueError):
        ChainEnv(1)
    with pytest.raises(ValueError):
        ChainEnv(5, semi_sparse_p=1.5)


def test_chain_observations():
    tab = ChainEnv(5)
    assert tab.observe(3) == 3
    vec = ChainEnv(5, vector_obs=True)
    npt.assert_allclose(vec.observe(0), [0.0])
    npt.assert_allclose(vec.observe(2), [0.5])
    npt.assert_allclose(vec.observe(4), [1.0])


def test_chain_left_is_deterministic():
    env = ChainEnv(6)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    out = env.step(3, 0, rng)
    assert out.next_state == 2
    assert out.reward == 0.0 and not out.goal
    # left moves must not consume randomness
    assert rng.bit_generator.state == before
    assert env.step(0, 0, rng).next_state == 0


def test_chain_right_success_probability():
    env = ChainEnv(8)
    rng = np.random.default_rng(1)
    wins = sum(env.step(2, 1, rng).next_state == 3 for _ in range(20000))
    # success probability is 1 - 1/8; failures fall back to state 1
    assert abs(wins / 20000 - 7 / 8) < 0.01


def test_chain_failed_right_at_left_edge_self_loops():
    env = ChainEnv(4)
    rng = np.random.default_rng(2)
    seen = {env.step(0, 1, rng).next_state for _ in range(200)}
    assert seen == {0, 1}


def test_chain_goal_absorbs_with_unit_reward():
    env = ChainEnv(3)
    rng = np.random.default_rng(3)
    for _ in range(100):
        out = env.step(1, 1, rng)
        if out.next_state == 2:
            assert out.reward == 1.0 and out.goal
        else:
            assert out.reward == 0.0 and not out.goal
    with pytest.raises(ValueError):
        env.step(2, 1, rng)     # goal state is absorbing, no stepping out


def test_chain_semi_sparse_penalties():
    rng = np.random.default_rng(4)
    always = ChainEnv(6, semi_sparse_p=0.0)
    never = ChainEnv(6, semi_sparse_p=1.0)
    # LEFT isolates the reward draw from the movement draw
    assert all(always.step(3, 0, rng).reward == -1.0 for _ in range(50))
    assert all(never.step(3, 0, rng).reward == 0.0 for _ in range(50))
    half = ChainEnv(6, semi_sparse_p=0.5)
    hits = sum(half.step(3, 0, rng).reward == -1.0 for _ in range(20000))
    assert abs(hits / 20000 - 0.5) < 0.02


# ---------------------------------------------------------------- cliff


def test_cliff_layout():
    env = CliffEnv()
    assert env.spec.n_states == 48 and env.spec.n_actions == 4
    rng = np.random.default_rng(0)
    assert env.reset(rng) == 36                 # bottom-left corner
    assert env._index(env.goal) == 47
    assert {env._index(c) for c in env.cliff} == set(range(37, 47))
    with pytest.raises(ValueError):
        CliffEnv(slip_prob=2.0)


def test_cliff_moves_and_boundaries():
    env = CliffEnv(slip_prob=0.0)
    rng = np.random.default_rng(0)
    assert env.step(36, UP, rng).next_state == 24
    assert env.step(36, LEFT, rng).next_state == 36     # wall
    assert env.step(0, UP, rng).next_state == 0         # wall
    assert env.step(14, RIGHT, rng).next_state == 15
    assert env.step(14, DOWN, rng).next_state == 26


def test_cliff_fall_resets_without_terminating():
    env = CliffEnv(slip_prob=0.0)
    rng = np.random.default_rng(0)
    out = env.step(36, RIGHT, rng)     # steps onto the first cliff cell
    assert out.next_state == 36
    assert out.reward == -1.0
    assert not out.goal


def test_cliff_goal_pays_one():
    env = CliffEnv(slip_prob=0.0)
    rng = np.random.default_rng(0)
    out = env.step(35, DOWN, rng)      # from directly above the goal
    assert out.next_state == 47
    assert out.reward == 1.0 and out.goal


def test_cliff_reward_scale():
    env = CliffEnv(slip_prob=0.0, reward_scale=100.0)
    rng = np.random.default_rng(0)
    assert env.step(36, RIGHT, rng).reward == -100.0
    assert env.step(35, DOWN, rng).reward == 100.0


def test_cliff_full_slip_randomizes_action():
    env = CliffEnv(slip_prob=1.0)
    rng = np.random.default_rng(6)
    counts = {5: 0, 29: 0, 16: 0, 18: 0}
    start = 17                         # cell (1, 5), neighbors all safe
    for _ in range(8000):
        counts[env.step(start, UP, rng).next_state] += 1
    # executed action is uniform over the four directions
    for n in counts.values():
        assert abs(n / 8000 - 0.25) < 0.02


def test_cliff_small_slip_frequency():
    env = CliffEnv(slip_prob=0.1)
    rng = np.random.default_rng(7)
    # from (1, 5), intended UP; any outcome other than (0, 5) means a slip
    # landed elsewhere (slipped UP still looks intended, p = 0.1 * 3/4)
    other = sum(env.step(17, UP, rng).next_state != 5 for _ in range(20000))
    assert abs(other / 20000 - 0.075) < 0.01


# ----------------------------------------------------------------- taxi


def test_taxi_encode_decode_roundtrip():
    for s in range(500):
        assert encode(*decode(s)) == s


def test_taxi_reset_distribution():
    env = TaxiEnv()
    rng = np.random.default_rng(8)
    pass_locs, dests = set(), set()
    for _ in range(2000):
        row, col, pass_loc, dest = decode(env.reset(rng))
        assert 0 <= row < 5 and 0 <= col < 5
        assert 0 <= pass_loc < 4 and 0 <= dest < 4
        assert dest != pass_loc
        pass_locs.add(pass_loc)
        dests.add(dest)
    assert pass_locs == {0, 1, 2, 3}
    assert dests == {0, 1, 2, 3}


def test_taxi_scripted_delivery():
    # Passenger at R = (0, 0), destination G = (0, 4); the two top walls
    # force the detour through row 2.
    env = TaxiEnv()
    rng = np.random.default_rng(0)
    s = encode(0, 0, 0, 1)
    total = 0.0
    script = [PICKUP, EAST, SOUTH, SOUTH, EAST, EAST, NORTH, NORTH, EAST,
              DROPOFF]
    for i, a in enumerate(script):
        out = env.step(s, a, rng)
        total += out.reward
        if i < len(script) - 1:
            assert not out.goal
            s = out.next_state
    assert out.goal
    assert out.reward == 1.0
    assert total == 1.0                      # no penalties on the way
    assert decode(out.next_state)[:2] == (0, 4)
    assert decode(out.next_state)[2] == 1    # passenger deposited at G


def test_taxi_walls_block_east_west():
    env = TaxiEnv()
    rng = np.random.default_rng(0)
    for (r1, c1), (r2, c2) in [((0, 1), (0, 2)), ((1, 1), (1, 2)),
                               ((3, 0), (3, 1)), ((4, 0), (4, 1)),
                               ((3, 2), (3, 3)), ((4, 2), (4, 3))]:
        s = encode(r1, c1, 0, 1)
        assert env.step(s, EAST, rng).next_state == s
        s2 = encode(r2, c2, 0, 1)
        assert env.step(s2, WEST, rng).next_state == s2


def test_taxi_grid_boundaries():
    env = TaxiEnv()
    rng = np.random.default_rng(0)
    assert env.step(encode(0, 3, 0, 1), NORTH, rng).next_state == \
        encode(0, 3, 0, 1)
    assert env.step(encode(4, 3, 0, 1), SOUTH, rng).next_state == \
        encode(4, 3, 0, 1)
    assert env.step(encode(2, 4, 0, 1), EAST, rng).next_state == \
        encode(2, 4, 0, 1)
    assert env.step(encode(2, 0, 0, 1), WEST, rng).next_state == \
        encode(2, 0, 0, 1)


def test_taxi_pickup_semantics():
    env = TaxiEnv()
    rng = np.random.default_rng(0)
    # correct pickup: at the passenger's cell
    out = env.step(encode(0, 0, 0, 1), PICKUP, rng)
    assert decode(out.next_state)[2] == IN_TAXI
    assert out.reward == 0.0
    # wrong cell
    out = env.step(encode(2, 2, 0, 1), PICKUP, rng)
    assert out.reward == -0.1
    assert decode(out.next_state)[2] == 0
    # passenger already aboard
    out = env.step(encode(0, 0, IN_TAXI, 1), PICKUP, rng)
    assert out.reward == -0.1


def test_taxi_dropoff_semantics():
    env = TaxiEnv()
    rng = np.random.default_rng(0)
    # wrong special cell: passenger gets out there, penalty, not the goal
    r, c = SPECIAL_CELLS[2]
    out = env.step(encode(r, c, IN_TAXI, 1), DROPOFF, rng)
    assert out.reward == -0.1 and not out.goal
    assert decode(out.next_state)[2] == 2
    # non-special cell: penalty, passenger stays aboard
    out = env.step(encode(2, 2, IN_TAXI, 1), DROPOFF, rng)
    assert out.reward == -0.1
    assert decode(out.next_state)[2] == IN_TAXI
    # not carrying anyone
    out = env.step(encode(0, 4, 0, 1), DROPOFF, rng)
    assert out.reward == -0.1


def test_taxi_moves_never_pay():
    env = TaxiEnv()
    assert np.all(env.reward[:, :4] == 0.0)
    assert not env.terminal[:, :4].any()


def test_taxi_tables_are_shared_and_read_only():
    first, second = TaxiEnv(), TaxiEnv(max_episode_steps=50)
    for mine, theirs in zip(first.transition_tables(),
                            second.transition_tables()):
        assert mine is theirs
        with pytest.raises(ValueError, match="read-only"):
            mine[0, 0] = mine[0, 1]


def test_taxi_step_returns_plain_table_entries():
    env = TaxiEnv()
    for s in range(500):
        for a in range(6):
            out = env.step(s, a, None)
            assert type(out.next_state) is int
            assert type(out.reward) is float
            assert type(out.goal) is bool
            assert out == (env.next_state[s, a], env.reward[s, a],
                           env.terminal[s, a])


@pytest.mark.parametrize("action", [-1, 6])
def test_taxi_step_rejects_actions_out_of_range(action):
    # the tables' views would wrap -1 around to the last action
    with pytest.raises(ValueError, match="invalid taxi action"):
        TaxiEnv().step(0, action, None)


# ---------------------------------------------------- continuous control


def hand_mc_step(x, v, a):
    v2 = np.clip(v + 0.0015 * a - 0.0025 * np.cos(3 * x), -0.07, 0.07)
    x2 = np.clip(x + v2, -1.2, 1.0)
    return x2, v2


def test_mountaincar_euler_step():
    env = MountainCarEnv()
    rng = np.random.default_rng(0)
    out = env.step(np.array([-0.5, 0.01]), 1.0, rng)
    x2, v2 = hand_mc_step(-0.5, 0.01, 1.0)
    npt.assert_allclose(out.next_state, [x2, v2], atol=1e-15)
    assert out.reward == 0.0 and not out.goal


def test_mountaincar_clipping():
    env = MountainCarEnv()
    rng = np.random.default_rng(0)
    out = env.step(np.array([-1.2, -0.07]), -1.0, rng)
    assert out.next_state[0] == -1.2
    assert out.next_state[1] >= -0.07
    # near x = -pi/3 gravity pushes right too, so speed hits the cap
    out = env.step(np.array([-np.pi / 3, 0.069]), 1.0, rng)
    assert out.next_state[1] == 0.07


def test_mountaincar_goal_and_validation():
    env = MountainCarEnv()
    rng = np.random.default_rng(0)
    out = env.step(np.array([0.89, 0.07]), 1.0, rng)
    assert out.next_state[0] > 0.9
    assert out.reward == 1.0 and out.goal
    with pytest.raises(ValueError):
        env.step(np.array([0.0, 0.0]), 1.5, rng)


def test_mountaincar_observation_normalization():
    env = MountainCarEnv()
    npt.assert_allclose(env.observe(np.array([-1.2, 0.0])), [0.0, 0.5])
    npt.assert_allclose(env.observe(np.array([1.0, 0.07])), [1.0, 1.0])
    npt.assert_allclose(env.observe(np.array([-0.1, -0.07])), [0.5, 0.0])


def test_mountaincar_reset_range():
    env = MountainCarEnv()
    rng = np.random.default_rng(9)
    for _ in range(100):
        x, v = env.reset(rng)
        assert -0.6 <= x <= -0.4
        assert v == 0.0


def test_mountaincar_underactuated_but_solvable():
    env = MountainCarEnv()
    rng = np.random.default_rng(0)

    def rollout(policy):
        state = np.array([-0.5, 0.0])
        best_x = state[0]
        for t in range(500):
            out = env.step(state, policy(state), rng)
            state = out.next_state
            best_x = max(best_x, state[0])
            if out.goal:
                return t, best_x
        return None, best_x

    # full throttle from rest stalls far below the goal
    t, best = rollout(lambda s: 1.0)
    assert t is None and best < 0.0
    # pushing with the velocity sign pumps energy and succeeds
    t, _ = rollout(lambda s: 1.0 if s[1] >= 0 else -1.0)
    assert t is not None


def hand_pend_step(theta, theta_dot, a):
    acc = 15.0 * np.sin(theta) + 3.0 * a
    td2 = np.clip(theta_dot + 0.05 * acc, -8.0, 8.0)
    th2 = theta + 0.05 * td2
    th2 = (th2 + np.pi) % (2 * np.pi) - np.pi
    return th2, td2


def test_pendulum_euler_step():
    env = PendulumEnv()
    rng = np.random.default_rng(0)
    out = env.step(np.array([0.3, 0.5]), 1.0, rng)
    th2, td2 = hand_pend_step(0.3, 0.5, 1.0)
    npt.assert_allclose(out.next_state, [th2, td2], atol=1e-15)
    assert out.reward == 0.0 and not out.goal


def test_pendulum_angle_wraps():
    env = PendulumEnv()
    rng = np.random.default_rng(0)
    out = env.step(np.array([3.1, 2.0]), 0.0, rng)
    assert -np.pi < out.next_state[0] <= np.pi
    assert out.next_state[0] < 0       # crossed pi, came out negative


def test_pendulum_speed_clip():
    env = PendulumEnv()
    rng = np.random.default_rng(0)
    out = env.step(np.array([np.pi / 2, 7.9]), 2.0, rng)
    assert out.next_state[1] == 8.0


def test_pendulum_goal_and_validation():
    env = PendulumEnv()
    rng = np.random.default_rng(0)
    th2, td2 = hand_pend_step(0.2, -4.0, 0.0)
    assert abs(th2) < 0.05            # the hand step lands inside the goal
    out = env.step(np.array([0.2, -4.0]), 0.0, rng)
    assert out.reward == 1.0 and out.goal
    with pytest.raises(ValueError):
        env.step(np.array([0.0, 0.0]), 2.5, rng)


def test_pendulum_observation_normalization():
    env = PendulumEnv()
    npt.assert_allclose(env.observe(np.array([0.0, 0.0])), [1.0, 0.5, 0.5])
    npt.assert_allclose(env.observe(np.array([np.pi, 8.0])),
                        [0.0, 0.5, 1.0], atol=1e-15)
    npt.assert_allclose(env.observe(np.array([-np.pi / 2, -8.0])),
                        [0.5, 0.0, 0.0], atol=1e-15)


def test_pendulum_reset_range():
    env = PendulumEnv()
    rng = np.random.default_rng(10)
    for _ in range(100):
        theta, theta_dot = env.reset(rng)
        assert -np.pi <= theta <= np.pi
        assert -1.0 <= theta_dot <= 1.0


def np_clip_mc_step(env, state, a):
    """MountainCarEnv's next state by its formula with np.clip."""
    x, v = state
    v = np.clip(v + env.POWER * a - env.GRAVITY * np.cos(3 * x),
                -env.V_MAX, env.V_MAX)
    x = np.clip(x + v, env.X_MIN, env.X_MAX)
    return np.array([x, v])


def np_clip_pend_step(env, state, a):
    """PendulumEnv's next state by its formula with np.clip."""
    theta, theta_dot = state
    acc = (3 * env.G / (2 * env.LENGTH)) * np.sin(theta) \
        + 3 * a / (env.MASS * env.LENGTH ** 2)
    theta_dot = np.clip(theta_dot + acc * env.DT,
                        -env.MAX_SPEED, env.MAX_SPEED)
    theta = theta + theta_dot * env.DT
    theta = (theta + np.pi) % (2 * np.pi) - np.pi
    return np.array([theta, theta_dot])


@pytest.mark.parametrize("env, formula, corners", [
    (MountainCarEnv(), np_clip_mc_step, ([-1.2, 1.0], [-0.07, 0.07])),
    (PendulumEnv(), np_clip_pend_step, ([-np.pi, np.pi], [-8.0, 8.0])),
], ids=["mountaincar", "pendulum"])
def test_control_steps_clip_to_the_np_clip_bits(env, formula, corners):
    # Steps clip their 0-d values with min/max; the next state must hold
    # the bits of the np.clip formula, at the bounds and inside them.
    rng = np.random.default_rng(11)
    (lo0, hi0), (lo1, hi1) = corners
    states = [[s0, s1] for s0 in (lo0, lo0 + 1e-3, 0.0, hi0 - 1e-3, hi0)
              for s1 in (lo1, lo1 * 0.99, 0.0, hi1 * 0.99, hi1)]
    states += rng.uniform([lo0, lo1], [hi0, hi1], size=(200, 2)).tolist()
    high = float(env.spec.action_high[0])
    clipped = set()
    for state in map(np.array, states):
        for a in (-high, -0.3 * high, 0.0, 0.7 * high, high):
            got = env.step(state, np.array([a]), rng).next_state
            want = formula(env, state, a)
            assert got.tobytes() == want.tobytes(), (state, a)
            clipped.update(i for i, bound in enumerate(
                (lo0, hi0, lo1, hi1)) if bound in want)
    # both speed bounds saturate, and mountain car's position bounds too
    assert {2, 3} <= clipped and (formula is np_clip_pend_step
                                  or {0, 1} <= clipped)


def test_goal_only_reward_support():
    # Random rollouts: every reward must come from the tiny documented set.
    rng = np.random.default_rng(11)
    cases = [
        (ChainEnv(8), lambda: int(rng.integers(2)), {0.0, 1.0}),
        (CliffEnv(), lambda: int(rng.integers(4)), {-1.0, 0.0, 1.0}),
        (TaxiEnv(), lambda: int(rng.integers(6)), {-0.1, 0.0, 1.0}),
        (MountainCarEnv(), lambda: rng.uniform(-1, 1), {0.0, 1.0}),
        (PendulumEnv(), lambda: rng.uniform(-2, 2), {0.0, 1.0}),
    ]
    for env, pick, allowed in cases:
        state = env.reset(rng)
        for _ in range(400):
            out = env.step(state, pick(), rng)
            assert out.reward in allowed
            if out.goal:
                state = env.reset(rng)
            else:
                state = out.next_state
