"""Value-learning agent with separate exploitation and exploration heads
over random Fourier features.

Two linear regression heads share one Bayesian posterior covariance:
Q is trained on environment rewards, U on exploration rewards derived
from the posterior's own predictive variance,

    r_e(s') = mean_a V[Q(s', a)] - V_max,

which is 0 where the model knows nothing and approaches -V_max where it
is saturated, so U accumulates "how much is left to learn downstream".
The average runs over a fixed expectation set built once per agent (all
actions when discrete, stratified midpoints of a 1-D action box when
continuous).  Its action cos/sin enter the average only through their
second-moment matrix, so the agent caches that matrix's principal
directions and sums the variance over them instead of averaging it over
the set: 5 rows in place of the 64 actions on the mountain-car configs,
12 on pendulum, at most one per action when discrete.  Actions maximize
Q + kappa * U over a candidate set: at learning steps a fixed grid built
with the expectation set (all actions when discrete, stratified box
midpoints plus both endpoints when continuous), whose action cos/sin
are cached so that its values at s' take two small products from one
state projection; in ``act`` a set drawn per call (all actions, or
uniform box samples plus endpoints).  The cos/sin of the two latest
state projections are cached too, so a learning step, whose s is the
step before's s' and whose a is the grid row chosen there, projects
only s' for its stored row, r_e(s') and its choice at s'.

Per step the posterior absorbs the transition through a rank-1 update
with bootstrapped targets.  The bootstrap is taken at the action chosen
for s', and ``observe`` returns that action so the episode runner plays
it next, as on-policy SARSA does: one action choice per state.  At each
episode end the weight means are re-solved to the fixed point of the
bootstrapped regression over the whole transition store, with
exploration rewards recomputed under the current covariance first, so
stale per-step targets get corrected.  The re-solve reads no rng: its
policy candidates are a fixed subset of the grid (all actions when
discrete, 20 stratified box midpoints plus both endpoints when
continuous), and one loop solves both heads, which differ only in
targets, weights and bootstrap bounds.  It takes exact Newton (LSTD)
steps, each one linear solve with the greedy action and clipping of
every stored row held fixed, as in least-squares policy iteration; if
the greedy pattern keeps cycling it goes on with plain fixed-point
steps, and takes a Newton step again whenever two plain steps in a row
see the same pattern.  Each head keeps one ``NewtonMatrix`` for the
agent's life: it carries A = Phi^T Psi and its pattern from one
re-solve to the next, updates A by the new and flipped stored rows
(incremental LSTD), and rebuilds it only when so many rows flipped that
a full build costs less.  After
the re-solve the covariance's eigenvalues are checked: the largest
bounds every unit-norm feature's predictive variance by V_max, and the
smallest must stay positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .bayes import BayesianLinearModel
from .core import (CheckpointError, EnvSpec, Transition, checked_array,
                   real_number, unit_interval, whole_number)
from .features import JointRffMap, RffMap, make_joint_map

# Rank-1 posterior updates between re-symmetrizations of the covariance.
SYMMETRIZE_EVERY = 1000
# Episode-end re-solve: at most NEWTON_STEPS exact Newton steps, then
# plain fixed-point steps, each followed by one Newton step when its
# pattern repeats the step before; stop once no weight moves by more
# than SWEEP_TOL, or after SWEEP_MAX_ITERS iterations of any kind.
SWEEP_TOL = 1e-6
SWEEP_MAX_ITERS = 200
NEWTON_STEPS = 10
# Principal directions of the expectation set kept for r_e: those whose
# second-moment eigenvalue exceeds this fraction of the largest.
EXPECTATION_RTOL = 1e-16
# Stored rows per block when the re-solve sums a product over the store,
# so its scratch memory does not grow with the store.
ROW_BLOCK = 256


def pair_value_matrix(Cs, Ss, Ca, Sa, m, scale):
    """Linear-model values for every (state, candidate action) pair.

    With phi(s, a) = scale * [cos(ps + pa), sin(ps + pa)] built from
    separate state and action projections, the angle-sum identities give
    phi(s, a)^T m from the per-state and per-action cos/sin blocks alone,
    so an (N states) x (K actions) value matrix costs two matrix products
    instead of N*K embeddings.  Cs/Ss are cos/sin of the state
    projections (N x M/2), Ca/Sa of the action projections (K x M/2),
    m a weight vector of length M, scale the embedding's 1/sqrt(M/2).
    """
    n_spectral = Ca.shape[1]
    mc, ms = m[:n_spectral], m[n_spectral:]
    Ac = (Ca * mc + Sa * ms).T * scale
    As = (Ca * ms - Sa * mc).T * scale
    return Cs @ Ac + Ss @ As


def angle_sum_rows(cs, ss, ca, sa):
    """Unscaled rows [cos(ps + pa), sin(ps + pa)] from the cos/sin of state
    (cs, ss) and action (ca, sa) projections, which broadcast together."""
    return np.hstack([cs * ca - ss * sa, ss * ca + cs * sa])


class NewtonMatrix:
    """One head's A = Phi^T Psi, carried from one episode-end re-solve to
    the next, and the re-solve's held-pattern Newton steps that use it.

    Row i of Psi is the unscaled next-state feature row of stored
    transition i at sweep candidate ``pattern[i]``, or zero where
    ``pattern[i]`` is -1: its bootstrap is clipped or absorbing, or A
    has not yet taken the row in.  The sweep candidates are fixed per
    agent and stored rows never change, so A depends only on the pattern
    and stays valid between re-solves.

    A re-solve binds its covariance, stored rows and next-state cos/sin
    with ``start``.  Each Newton step needs S A at its own (argmax, clip)
    pattern, which differs from the one before only in the rows F that
    flipped, new rows included, leaving out rows whose Psi row is zero
    in both.  The first step updates A by Phi_F^T (Psi_F,new -
    Psi_F,old) at 2|F|M^2 flops and forms S A at 2M^3; later steps
    update S A in place by (Phi_F S)^T dPsi_F, S being symmetric, at
    4|F|M^2.  A step with 2|F| >= N + M (N stored rows, M features)
    rebuilds A instead, at 2NM^2.  ``finish`` brings A to the last
    step's pattern by one row update and drops the re-solve's arrays, so
    between re-solves only A and its pattern are held.  Products over
    stored rows run in blocks of ROW_BLOCK rows.  ``traffic`` counts the
    re-solve's full builds, row updates and the rows those applied.  The
    sweep candidates' cos/sin ``ca``/``sa`` are fixed at construction;
    the discount ``gamma`` and noise precision ``beta`` enter only
    ``solve``.
    """

    def __init__(self, ca, sa, gamma, beta):
        self.Ca, self.Sa = ca, sa
        self.gamma, self.beta = gamma, beta
        n_features = 2 * ca.shape[1]
        self.a = np.zeros((n_features, n_features))
        self.pattern = np.empty(0, dtype=np.intp)
        self.S = self.Phi = self.Cs = self.Ss = None
        self.matrix = self._pattern = None    # S A at the last step's pattern
        self.traffic = {}

    def start(self, S, Phi, Cs, Ss) -> None:
        """Bind a re-solve's covariance, stored feature rows and next-state
        cos/sin (N x M/2 each), and zero its traffic counts."""
        self.S, self.Phi, self.Cs, self.Ss = S, Phi, Cs, Ss
        self.traffic = {"newton_full": 0, "newton_by_rows": 0,
                        "flipped_rows": 0}

    def finish(self) -> None:
        """Bring A to the last Newton step's pattern, and drop the
        re-solve's arrays."""
        if self._pattern is not None:
            self._add_rows(self.a, np.flatnonzero(self._pattern
                                                  != self.pattern),
                           self._pattern, self.pattern)
            self.pattern = self._pattern
        self.S = self.Phi = self.Cs = self.Ss = None
        self.matrix = self._pattern = None

    def _add_rows(self, out, rows, new, old=None, through_s=False) -> None:
        """out += Phi_R^T (Psi_R at ``new`` - Psi_R at ``old``), times S on
        the left when ``through_s``, over the stored rows R, in blocks."""
        for start in range(0, len(rows), ROW_BLOCK):
            block = rows[start:start + ROW_BLOCK]
            d_psi = self._psi(block, new)
            if old is not None:
                d_psi -= self._psi(block, old)
            left = self.Phi[block]
            if through_s:
                left = left @ self.S
            out += left.T @ d_psi

    def _psi(self, rows, pattern):
        k = pattern[rows]
        psi = angle_sum_rows(self.Cs[rows], self.Ss[rows], self.Ca[k],
                             self.Sa[k])
        psi[k < 0] = 0.0
        return psi

    def update(self, k_star, free) -> np.ndarray:
        """S A for the pattern (``k_star``, ``free``), updated by the rows
        that flipped since the last step (or since A's carried pattern,
        at a re-solve's first step), or built in full."""
        pattern = np.where(free, k_star, -1)
        n, n_features = len(pattern), len(self.a)
        old = self._pattern
        if old is None:                 # new rows are not in A yet
            old = np.full(n, -1, dtype=np.intp)
            old[:len(self.pattern)] = self.pattern
        flipped = np.flatnonzero(pattern != old)
        if 2 * len(flipped) >= n + n_features:
            self.matrix = None      # freed before its replacement is built
            self.a = np.zeros((n_features, n_features))
            self._add_rows(self.a, np.flatnonzero(pattern >= 0), pattern)
            self.pattern = pattern
            self.matrix = self.S @ self.a
            self.traffic["newton_full"] += 1
        else:
            if self._pattern is None:
                self._add_rows(self.a, flipped, pattern, old)
                self.pattern = pattern
                self.matrix = self.S @ self.a
            else:
                self._add_rows(self.matrix, flipped, pattern, old,
                               through_s=True)
            self.traffic["newton_by_rows"] += 1
            self.traffic["flipped_rows"] += len(flipped)
        self._pattern = pattern
        return self.matrix

    def solve(self, targets, k_star, boot, free):
        """One Newton (LSTD) step: the exact fixed point of the re-solve's
        map with its pattern held.  Rows where ``free`` is False keep
        their bootstrap ``boot`` (``held`` is boot there, 0 elsewhere),
        the rest bootstrap linearly through their Psi row at ``k_star``,
        so m solves

            (I - gamma beta S Phi^T Psi / sqrt(M/2)) m
                = beta S Phi^T (targets + gamma held).

        None if that system is singular or its solution is not finite.
        """
        g, b = self.gamma, self.beta
        scale = 1.0 / np.sqrt(self.Ca.shape[1])
        held = np.where(free, 0.0, boot)
        lhs = np.eye(len(self.S)) - (g * b * scale) * self.update(k_star, free)
        rhs = self.S @ (b * (self.Phi.T @ (targets + g * held)))
        try:
            m = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            return None
        return m if np.isfinite(m).all() else None


@dataclass
class EmuqConfig:
    gamma: float = 0.99
    alpha: float = 0.1
    beta: float = 1.0
    n_features: int = 300
    lengthscale_state: float = 0.3
    lengthscale_action: float = 1.0
    # Sampling sizes, the same for every agent (not config keys).
    n_action_candidates: ClassVar[int] = 100    # K, continuous action search
    n_expectation_samples: ClassVar[int] = 64   # K_e, fixed variance set
    n_sweep_candidates: ClassVar[int] = 20      # policy candidates in sweeps

    def __post_init__(self):
        self.gamma = unit_interval("gamma", self.gamma)
        # All checked here: an agent built without an rng draws no map.
        for name in ("alpha", "beta", "lengthscale_state",
                     "lengthscale_action"):
            value = real_number(name, getattr(self, name))
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
            setattr(self, name, value)
        self.n_features = whole_number("n_features", self.n_features)
        if self.n_features < 2 or self.n_features % 2:
            raise ValueError("n_features must be even and >= 2 (paired "
                             f"cos/sin blocks), got {self.n_features}")


class EmuQ:
    """Exploration-values agent for discrete actions or a 1-D action box.

    Parameters
    ----------
    env_spec : the environment's EnvSpec (dimensions and action kind).
    config : EmuqConfig.
    rng : generator used once here to seed the frozen feature map, or
        None to leave the map unset, for ``load_state_arrays`` to install
        a saved one or for a build that only checks the params.
    """

    def __init__(self, env_spec: EnvSpec, config: EmuqConfig, rng):
        if env_spec.action_low is not None and len(env_spec.action_low) != 1:
            raise ValueError("continuous actions need a 1-D action box "
                             f"(got {len(env_spec.action_low)} dimensions)")
        self.spec = env_spec
        self.config = config
        self.model = BayesianLinearModel(config.n_features, config.alpha,
                                         config.beta, n_heads=2)
        # Supremum of the predictive variance beta^{-1} phi^T S phi over
        # unit-norm features, reached everywhere on a fresh posterior
        # (S's eigenvalues never exceed 1/alpha); r_e lies in [-V_max, 0].
        self.v_max = 1.0 / (config.alpha * config.beta)
        # Transition store, keyed as state_arrays saves it: the first _n
        # rows of each array are live, and every array doubles when full.
        self._n = 0
        self._store = {"phi_rows": np.empty((0, config.n_features)),
                       "rewards": np.empty(0),
                       "next_obs": np.empty((0, env_spec.state_dim)),
                       "absorbing": np.empty(0, dtype=bool)}
        # Largest reward magnitude seen; floors the Q bootstrap range at
        # unit scale before any reward has arrived.
        self._r_abs_max = 1.0
        self.sweep_history: list[dict] = []
        # Invariant monitors: over every emitted r_e, and over the
        # covariance's eigenvalues at every episode end.
        self.re_count = 0
        self.re_min = 0.0
        self.re_max = -np.inf
        self.re_range_violations = 0
        self.var_max_seen = 0.0
        self.var_violations = 0
        self.posterior_violations = 0
        # cos/sin of recent state projections, keyed by the state's bytes
        self._cos_sin: dict[bytes, tuple] = {}
        # (action, grid row) that observe returned last, or None
        self._chosen = None
        if rng is None:
            return
        self.fmap = make_joint_map(
            env_spec, config.lengthscale_state, config.lengthscale_action,
            n_features=config.n_features, seed=int(rng.integers(2 ** 63)))
        self._build_expectation_set()

    # -- feature helpers -------------------------------------------------

    def _actions(self, n: int, rng=None) -> np.ndarray:
        """Every discrete action; for a 1-D action box, n uniform draws
        from ``rng`` with the box's two endpoints appended, or without an
        rng n stratified midpoints of the box."""
        if self.spec.discrete_actions:
            return np.arange(self.spec.n_actions)
        low, high = self.spec.action_low, self.spec.action_high
        if rng is None:
            return low + (high - low) * ((np.arange(n) + 0.5) / n)[:, None]
        cands = rng.uniform(low, high, size=(n, 1))
        return np.vstack([cands, low[None, :], high[None, :]])

    def _build_expectation_set(self) -> None:
        """Fix the actions r_e averages over and the learning steps'
        candidate grid, and cache what uses them.

        The expectation set is ``_actions`` without an rng: every
        discrete action, or n_expectation_samples stratified midpoints of
        the 1-D action box.  With Psi the K rows [ca, sa] of their action
        projections' cos/sin, r_e reads the set only through
        G = Psi^T Psi / K, because phi(s, a) = R(s) psi_a for a rotation
        R(s) that is linear in psi_a, so the mean over a of
        phi_a^T C phi_a is trace(C R G R^T).  Caches the principal
        directions sqrt(lambda_i) w_i of G (from the SVD of
        Psi / sqrt(K)) whose eigenvalues lambda_i exceed EXPECTATION_RTOL
        times the largest, split into cos and sin halves: the per-step
        r_e sums over those few rows, and the episode-end recompute
        rebuilds G's blocks from them.

        The grid is every discrete action, or n_action_candidates
        stratified midpoints of the box plus both endpoints; its action
        cos/sin are cached with it for ``_choose``.  The re-solve's
        candidates are a fixed subset of its rows: every discrete action,
        or every fifth midpoint (rows 2, 7, ..., 97, which equal the
        n_sweep_candidates stratified midpoints bit for bit) plus both
        endpoints.  Each head's ``NewtonMatrix`` is built over them here,
        empty, as A depends on the map.
        """
        actions = self._actions(self.config.n_expectation_samples)
        proj_a = self.fmap.action_projection(actions)
        psi = np.hstack([np.cos(proj_a), np.sin(proj_a)])
        _, sigma, vt = np.linalg.svd(psi / np.sqrt(len(actions)),
                                     full_matrices=False)
        keep = sigma ** 2 > EXPECTATION_RTOL * sigma[0] ** 2
        rows = sigma[keep, None] * vt[keep]
        self._expect_rows = np.hsplit(rows, 2)

        self._cos_sin = {}      # cached under the map this replaces
        self._chosen = None

        c = self.config
        grid = self._actions(c.n_action_candidates)
        sweep = slice(None)
        if not self.spec.discrete_actions:
            grid = np.vstack([grid, self.spec.action_low,
                              self.spec.action_high])
            k = c.n_action_candidates
            stride = k // c.n_sweep_candidates
            sweep = np.r_[stride // 2:k:stride, k, k + 1]
        proj_g = self.fmap.action_projection(grid)
        self._grid = grid, np.cos(proj_g), np.sin(proj_g)
        self._sweep_grid = tuple(part[sweep] for part in self._grid)
        self._newton = [NewtonMatrix(*self._sweep_grid[1:], c.gamma, c.beta)
                        for _ in "qu"]

    def _state_cos_sin(self, obs):
        """cos and sin (1 x M/2 each) of ``obs``'s state projection.

        The two most recent states' are cached, keyed by the state's
        bytes: a learning step's s is the step before's s', so its stored
        row, r_e(s') and the choice at s' take one projection, of s'.
        """
        key = np.asarray(obs, dtype=float).tobytes()
        cos_sin = self._cos_sin.get(key)
        if cos_sin is None:
            proj_s = self.fmap.state_projection(obs)
            cos_sin = np.cos(proj_s), np.sin(proj_s)
            if len(self._cos_sin) == 2:
                del self._cos_sin[next(iter(self._cos_sin))]
            self._cos_sin[key] = cos_sin
        return cos_sin

    # -- acting ----------------------------------------------------------

    def _choose(self, obs, kappa: float, ca, sa):
        """(index, (Q, U) means) of the candidate maximizing Q + kappa U
        among those whose action projections have cos ``ca`` and sin
        ``sa`` (K x M/2); ties go to the first candidate.

        By the angle-sum identities both heads' values at every candidate
        come from obs's one (cached) state projection (cs, ss) in two
        products:
        phi(s, a)^T m = (ca . (cs m_c + ss m_s) + sa . (cs m_s - ss m_c))
        / sqrt(M/2), with m_c, m_s the cos and sin halves of m.
        """
        h = self.fmap.n_spectral
        cs, ss = (half.reshape(-1, 1) for half in self._state_cos_sin(obs))
        mc, ms = self.model.m[:h], self.model.m[h:]
        means = (ca @ (cs * mc + ss * ms) + sa @ (cs * ms - ss * mc)) \
            / np.sqrt(h)                              # (K, 2)
        balanced = means[:, 0] + kappa * means[:, 1]
        idx = int(np.argmax(balanced))                # ties: first candidate
        return idx, means[idx]

    def act(self, obs, kappa: float, rng):
        """The action maximizing Q + kappa U at ``obs`` over a candidate
        set drawn here from ``rng``: every discrete action, or
        n_action_candidates uniform box samples plus both endpoints.
        Learning steps choose over the fixed grid instead (``observe``);
        this runs at an episode's first step and in evaluation."""
        actions = self._actions(self.config.n_action_candidates, rng)
        proj_a = self.fmap.action_projection(actions)
        idx, _ = self._choose(obs, kappa, np.cos(proj_a), np.sin(proj_a))
        return actions[idx]

    # -- exploration reward ----------------------------------------------

    def exploration_reward(self, obs_next, rng) -> float:
        """Average posterior Q-variance over the expectation set at s',
        minus V_max.

        The average is exact without embedding the set: it is a sum over
        the cached principal directions of the set's second moments, each
        rotated to s' by the angle-sum identity from s''s one (cached)
        state projection (see ``_build_expectation_set``).  ``rng`` is
        unused, as the set is fixed per agent; the parameter stays because
        hooks around this method (perfbench's recording wrapper) pass the
        agent stream through it.
        """
        c = self.config
        rows = angle_sum_rows(*self._state_cos_sin(obs_next),
                              *self._expect_rows)
        rows *= 1.0 / np.sqrt(self.fmap.n_spectral)
        # r_e is the set's mean of the centered form phi^T (S - I/alpha)
        # phi / beta, summed here over the principal rows: an exact 0.0
        # on a fresh posterior (the centered matrix is zero), falling
        # toward -V_max as data accumulates.  Clipping guards the bounds
        # against rounding drift.
        raw = float(np.sum(self.model.centered_quadratic(rows))) / c.beta
        if raw > 1e-9 or raw < -self.v_max - 1e-9:
            self.re_range_violations += 1
        r_e = min(max(raw, -self.v_max), 0.0)
        self.re_count += 1
        self.re_min = min(self.re_min, r_e)
        self.re_max = max(self.re_max, r_e)
        return r_e

    # -- learning --------------------------------------------------------

    def _boot_bounds(self):
        """Attainable (lo, hi) value ranges for the Q and U heads.

        A discounted sum of per-step quantities in [lo, hi] lies in
        [lo, hi] / (1 - gamma); at gamma = 1 the spans are infinite,
        though U, a sum of non-positive rewards, stays capped at 0.
        Projecting bootstraps there discards only impossible values, and
        it breaks the runaway feedback that bootstrapped regression
        develops under a weak prior (small alpha), where one reward can
        amplify through S by up to 1/alpha per step.
        """
        denom = 1.0 - self.config.gamma
        if denom <= 0.0:
            q_span = u_span = np.inf
        else:
            q_span = self._r_abs_max / denom
            u_span = self.v_max / denom
        return (-q_span, q_span), (-u_span, 0.0)

    def observe(self, tr: Transition, kappa: float, rng):
        """Fold one transition into the posterior and the store.

        Returns the action chosen at ``tr.next_state`` from the fixed
        candidate grid, whose values gave the bootstrap, for the runner to
        play next; None when the transition absorbs.  The stored row
        phi(s, a) comes from s's (cached) state projection and a's action
        projection by the angle-sum identities; when a is the grid row
        returned one step earlier, its cached cos/sin are that
        projection's (the same bits), else a is projected here.
        """
        c = self.config
        self._r_abs_max = max(self._r_abs_max, abs(float(tr.reward)))
        if self._chosen is not None and tr.action is self._chosen[0]:
            row = self._chosen[1]
            ca, sa = (half[row:row + 1] for half in self._grid[1:])
        else:
            proj_a = self.fmap.action_projection([tr.action])
            ca, sa = np.cos(proj_a), np.sin(proj_a)
        phi = angle_sum_rows(*self._state_cos_sin(tr.state), ca, sa)[0]
        phi *= 1.0 / np.sqrt(self.fmap.n_spectral)
        r_e = self.exploration_reward(tr.next_state, rng)
        a_next = self._chosen = None
        if tr.absorbing:
            boot_q = boot_u = 0.0
        else:
            row, (boot_q, boot_u) = self._choose(tr.next_state, kappa,
                                                 *self._grid[1:])
            a_next = self._grid[0][row]
            self._chosen = a_next, row
            (q_lo, q_hi), (u_lo, u_hi) = self._boot_bounds()
            boot_q = float(min(max(boot_q, q_lo), q_hi))
            boot_u = float(min(max(boot_u, u_lo), u_hi))
        self.model.observe(phi, [tr.reward + c.gamma * boot_q,
                                 r_e + c.gamma * boot_u])
        n = self._n
        if n == len(self._store["rewards"]):
            self._store = {name: np.resize(rows, (2 * n + 1,) + rows.shape[1:])
                           for name, rows in self._store.items()}
        store = self._store
        store["phi_rows"][n] = phi
        store["rewards"][n] = tr.reward
        store["next_obs"][n] = tr.next_state
        store["absorbing"][n] = tr.absorbing
        self._n = n + 1
        if self._n % SYMMETRIZE_EVERY == 0:
            self.model.symmetrize()
        return a_next

    def end_episode(self, kappa: float, rng) -> None:
        """Re-solve both heads over the store, then check the covariance.
        ``rng`` is unused: the re-solve's candidates are fixed per agent.

        The largest eigenvalue of S over beta is the largest predictive
        variance of any unit-norm feature, so it must not exceed V_max;
        the smallest eigenvalue must stay positive, and S finite.
        """
        if self._n:
            self._sweep(kappa)
        eig = np.linalg.eigvalsh(self.model.S)
        var_max = float(eig[-1]) / self.config.beta
        self.var_max_seen = max(self.var_max_seen, var_max)
        if not var_max <= self.v_max + 1e-9:
            self.var_violations += 1
        # eigvalsh can return finite values for a matrix holding NaN
        if not (eig[0] > 0.0 and np.isfinite(self.model.S).all()):
            self.posterior_violations += 1

    # -- episode sweep ---------------------------------------------------

    def _sweep(self, kappa: float) -> None:
        """Re-solve both weight means over the full store, with the fixed
        policy candidates ``_sweep_grid``.

        Exploration rewards are recomputed under the current S first.
        Then one loop solves Q and then U, each for the fixed point of
        m <- T(m) = beta S Phi^T (targets + gamma boot(m)), the bootstrap
        taken at the candidate maximizing the head's weights on the (Q, U)
        values, (1, kappa) or (kappa, 1), with the other head's means held
        (U sees Q's new ones), and projected to the head's attainable
        range.  All (stored state, candidate) values come from two matrix
        products per iteration (``pair_value_matrix``).

        Up to NEWTON_STEPS Newton steps (``NewtonMatrix.solve``, through
        the head's carried A) come first; once the argmax and clip
        pattern repeats, T(m) = m to rounding.  The pattern can cycle, so
        if they run out the loop goes on with plain steps m <- T(m) from
        the lowest-residual point seen, and takes one Newton step in
        place of a plain step whose pattern equals the step before's
        (unless that system is singular).  A head converges once no
        weight moves by more than SWEEP_TOL; a plain step then installs
        the point whose move was measured, not one step past it, where
        the map need not contract.
        The plain phase stays because stopping at the Newton cap instead
        left most heads of the 40-state chain unconverged and slowed its
        learning (figures in CHANGES.md).  A head whose values leave the
        finite range keeps its incremental per-step fit.  The loop writes
        the re-solve's ``sweep_history`` entry: the store size, and per
        head its iterations, convergence and NewtonMatrix traffic.  The
        next states' cos/sin are the re-solve's only N x M scratch, as
        its other products over the store run in row blocks.
        """
        c = self.config
        self.model.symmetrize()
        S = self.model.S
        n = self._n
        Phi, absorbing = (self._store[name][:n]
                          for name in ("phi_rows", "absorbing"))
        rows = np.arange(n)
        scale = 1.0 / np.sqrt(self.fmap.n_spectral)
        Ss = self.fmap.state_projection(self._store["next_obs"][:n])
        Cs = np.cos(Ss)
        np.sin(Ss, out=Ss)
        _, Ca, Sa = self._sweep_grid
        r_e = self._recompute_exploration_rewards(Cs, Ss)

        m_heads, t_heads = [self.model.m[:, 0], self.model.m[:, 1]], []
        history = {"n": n}
        heads = zip((self._store["rewards"][:n], r_e),
                    ((1.0, kappa), (kappa, 1.0)), self._boot_bounds())
        for i, (targets, (w_self, w_other), (lo, hi)) in enumerate(heads):
            values_other = pair_value_matrix(Cs, Ss, Ca, Sa, m_heads[1 - i],
                                             scale)
            newton = self._newton[i]
            newton.start(S, Phi, Cs, Ss)
            m, t_m = m_heads[i], None     # t_m: targets of m, once m = S t_m
            newton_phase = True
            best_delta, best_next = np.inf, None
            pattern = None                # the plain step before's
            with np.errstate(over="ignore", invalid="ignore"):
                for it in range(SWEEP_MAX_ITERS):
                    values = pair_value_matrix(Cs, Ss, Ca, Sa, m, scale)
                    balanced = w_self * values + w_other * values_other
                    k_star = np.argmax(balanced, axis=1)
                    raw = values[rows, k_star]
                    boot = np.clip(raw, lo, hi)
                    boot[absorbing] = 0.0
                    t = c.beta * (Phi.T @ (targets + c.gamma * boot))
                    m_new = S @ t
                    delta = float(np.max(np.abs(m_new - m)))
                    if not np.isfinite(delta):      # keep the per-step fit
                        m_new, t = m_heads[i], self.model.t[:, i]
                        break
                    if delta < SWEEP_TOL:
                        if t_m is not None:
                            m_new, t = m, t_m
                        break
                    if newton_phase:
                        if delta < best_delta:
                            best_delta, best_next = delta, (m_new, t)
                        take_newton = it < NEWTON_STEPS
                    else:
                        seen, pattern = pattern, np.append(k_star, boot == raw)
                        take_newton = (seen is not None
                                       and np.array_equal(seen, pattern))
                    free = (boot == raw) & ~absorbing
                    m_newton = (newton.solve(targets, k_star, boot, free)
                                if take_newton else None)
                    if m_newton is not None:
                        m, t_m = m_newton, None
                    elif newton_phase:
                        newton_phase = False
                        m, t_m = best_next
                    else:
                        m, t_m = m_new, t
            newton.finish()
            m_heads[i] = m_new
            t_heads.append(t)
            head = "qu"[i]
            history.update({f"iters_{head}": it + 1,
                            f"converged_{head}": delta < SWEEP_TOL})
            history.update({f"{name}_{head}": count
                            for name, count in newton.traffic.items()})
        self.model.set_targets(np.column_stack(t_heads))
        self.sweep_history.append(history)

    def _recompute_exploration_rewards(self, Cs, Ss):
        """Exploration rewards for all stored next states under current S.

        Uses the exact average over the fixed expectation set, the one
        the per-step rewards average over: with the cos/sin blocks of its
        second-moment matrix, rebuilt from the cached principal
        directions, the action average of phi^T C phi collapses into one
        quadratic form per state (brute-force-checked in the test suite),
        summed over the states in blocks of ROW_BLOCK rows.
        """
        c = self.config
        n_spectral = self.fmap.n_spectral
        wc, ws = self._expect_rows
        g_cc, g_cs, g_ss = wc.T @ wc, wc.T @ ws, ws.T @ ws
        g_sc = g_cs.T

        C = self.model.S - np.eye(self.model.n_features) / c.alpha
        c_cc = C[:n_spectral, :n_spectral]
        c_cs = C[:n_spectral, n_spectral:]
        c_sc = C[n_spectral:, :n_spectral]
        c_ss = C[n_spectral:, n_spectral:]

        e_uu = c_cc * g_cc + c_cs * g_cs + c_sc * g_sc + c_ss * g_ss
        e_uv = -c_cc * g_cs + c_cs * g_cc - c_sc * g_ss + c_ss * g_sc
        e_vu = -c_cc * g_sc - c_cs * g_ss + c_sc * g_cc + c_ss * g_cs
        e_vv = c_cc * g_ss - c_cs * g_sc - c_sc * g_cs + c_ss * g_cc
        blocks = np.block([[e_uu, e_uv], [e_vu, e_vv]])

        quad = np.empty(len(Cs))
        for start in range(0, len(Cs), ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            F = np.concatenate([Cs[rows], Ss[rows]], axis=1)
            quad[rows] = np.einsum("ij,ij->i", F @ blocks, F)
        return np.clip(quad / n_spectral / c.beta, -self.v_max, 0.0)

    # -- run statistics and checkpointing --------------------------------

    def run_stats(self) -> dict:
        """Invariant monitors and re-solve counts of the run so far.

        ``re_*`` summarize every emitted r_e, and ``re_range_violations``
        counts those outside [-V_max, 0] before clipping.  The rest come
        from the covariance's eigenvalues at each episode end:
        ``var_max_seen`` is the largest of lambda_max(S) / beta, the
        predictive-variance bound over unit-norm features;
        ``var_violations`` counts episode ends where it exceeded V_max,
        and ``posterior_violations`` those where S's smallest eigenvalue
        was not positive or S held a non-finite entry.
        """
        capped = sum(not h[f"converged_{head}"]
                     and h[f"iters_{head}"] == SWEEP_MAX_ITERS
                     for h in self.sweep_history for head in ("q", "u"))
        seen = self.re_count > 0
        return {
            "re_count": self.re_count,
            "re_min": self.re_min if seen else None,
            "re_max": self.re_max if seen else None,
            "re_range_violations": self.re_range_violations,
            "var_max_seen": self.var_max_seen,
            "var_violations": self.var_violations,
            "posterior_violations": self.posterior_violations,
            "resolves": 2 * len(self.sweep_history),
            "resolves_capped": capped,
        }

    def state_arrays(self) -> dict:
        """Posterior, feature map, transition store and each head's
        carried re-solve matrix for checkpointing.  The store arrays are
        the live rows the re-solve reads, not copies.  ``newton_a`` stacks
        the (Q, U) heads' A = Phi^T Psi and ``newton_pattern`` their
        patterns, one row per head over the whole store: the sweep
        candidate behind each Psi row, -1 where that row is zero."""
        n = self._n
        patterns = np.full((2, n), -1, dtype=np.intp)
        for row, newton in zip(patterns, self._newton):
            row[:len(newton.pattern)] = newton.pattern
        return {
            "S": self.model.S, "m": self.model.m, "t": self.model.t,
            "frequencies": self.fmap.rff.frequencies,
            **{name: rows[:n] for name, rows in self._store.items()},
            "newton_a": np.stack([newton.a for newton in self._newton]),
            "newton_pattern": patterns,
        }

    def load_state_arrays(self, arrays) -> None:
        """Restore everything state_arrays saved, exactly as saved, so
        training continues as if it had never stopped.  Every array must
        have the shape and dtype kind that this agent's config and env
        spec give it; CheckpointError names the first that does not.
        The checked store arrays become the store as they are, the largest
        reward magnitude is recomputed from the stored rewards, each
        head's re-solve matrix and pattern are installed as saved (a
        pattern entry must name a sweep candidate or be -1), and arrays
        other than state_arrays' own are ignored."""
        spec = self.spec
        n_features = self.config.n_features
        n = np.size(arrays["rewards"])
        shapes = {"S": (n_features, n_features), "m": (n_features, 2),
                  "t": (n_features, 2),
                  "frequencies": (spec.state_dim + spec.action_dim,
                                  n_features // 2),
                  "phi_rows": (n, n_features), "rewards": (n,),
                  "next_obs": (n, spec.state_dim), "absorbing": (n,),
                  "newton_a": (2, n_features, n_features),
                  "newton_pattern": (2, n)}
        kinds = {"absorbing": "b", "newton_pattern": "i"}
        saved = {name: checked_array(arrays, name, shape,
                                     kinds.get(name, "f"))
                 for name, shape in shapes.items()}
        freqs = saved["frequencies"]
        freqs.setflags(write=False)
        self.fmap = JointRffMap.for_spec(spec, RffMap(freqs))
        self._build_expectation_set()
        patterns = saved["newton_pattern"]
        n_sweep = len(self._sweep_grid[0])
        if patterns.size and not (-1 <= patterns.min()
                                  and patterns.max() < n_sweep):
            raise CheckpointError(
                f"array 'newton_pattern' holds {patterns.min()} to "
                f"{patterns.max()}; this agent needs -1 to {n_sweep - 1}")
        for newton, a, pattern in zip(self._newton, saved["newton_a"],
                                      patterns):
            newton.a, newton.pattern = a, pattern
        self.model.S = saved["S"]
        self.model.t = saved["t"]
        self.model.m = saved["m"]
        self._store = {name: saved[name] for name in self._store}
        self._n = n
        self._r_abs_max = float(np.abs(saved["rewards"]).max(initial=1.0))
