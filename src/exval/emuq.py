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
step before's s', projects only s' for its stored row, r_e(s') and its
choice at s'.

Per step the posterior absorbs the transition through a rank-1 update
with bootstrapped targets.  The bootstrap is taken at the action chosen
for s', and ``observe`` returns that action so the episode runner plays
it next, as on-policy SARSA does: one action choice per state.  At each
episode end the weight means are re-solved to the fixed point of the
bootstrapped regression over the whole transition store, with
exploration rewards recomputed under the current covariance first, so
stale per-step targets get corrected.  The re-solve reads no rng
(``end_episode`` draws its candidate actions), and one loop solves both
heads, which differ only in targets, weights and bootstrap bounds.  It
takes exact Newton (LSTD) steps, each one linear solve with the greedy
action and clipping of every stored row held fixed, as in least-squares
policy iteration; if the greedy pattern keeps cycling it goes on with
plain fixed-point steps, and takes a Newton step again whenever two
plain steps in a row see the same pattern.  A head's Newton steps go
through one ``NewtonMatrix``, whose matrix S Phi^T Psi is updated by the
stored rows whose pattern flipped since its last Newton step, and
rebuilt only when so many flipped that a full build costs less.  After
the re-solve the covariance's eigenvalues are checked: the largest
bounds every unit-norm feature's predictive variance by V_max, and the
smallest must stay positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .bayes import BayesianLinearModel
from .core import (EnvSpec, Transition, checked_array, real_number,
                   unit_interval, whole_number)
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
    """S Phi^T Psi for one head's episode-end re-solve, kept across its
    Newton steps, and the held-pattern solve that uses it.

    Row i of Psi is the unscaled next-state feature row of stored
    transition i at its chosen sweep candidate ``k_star[i]``, or zero
    where ``free[i]`` is False (its bootstrap is clipped or absorbing).
    S and Phi stay fixed for the whole re-solve, so between two (argmax,
    clip) patterns the matrix changes only by the rows F whose pattern
    flipped, leaving out rows whose Psi row is zero in both patterns:
    S Phi_F^T (Psi_F,new - Psi_F,old) = (Phi_F S)^T dPsi_F, S being
    symmetric.  That costs 4|F|M^2 flops against 2NM^2 + 2M^3 for a full
    build (N stored rows, M features), so the first pattern, and any
    pattern with 2|F| >= N + M, is built in full.  ``traffic`` counts
    the full builds, the row updates and the rows those applied.  The
    discount ``gamma`` and noise precision ``beta`` enter only ``solve``.
    """

    def __init__(self, S, Phi, Cs, Ss, Ca, Sa, gamma, beta):
        self.S, self.Phi = S, Phi
        self.Cs, self.Ss, self.Ca, self.Sa = Cs, Ss, Ca, Sa
        self.gamma, self.beta = gamma, beta
        self.k_star = self.free = self.matrix = None
        self.traffic = {"newton_full": 0, "newton_by_rows": 0,
                        "flipped_rows": 0}

    def _psi(self, rows, k_star, free):
        k = k_star[rows]
        psi = angle_sum_rows(self.Cs[rows], self.Ss[rows], self.Ca[k],
                             self.Sa[k])
        psi[~free[rows]] = 0.0
        return psi

    def update(self, k_star, free) -> np.ndarray:
        """The matrix for the pattern (``k_star``, ``free``), updated in
        place by the rows that flipped since the last call, or built in
        full."""
        if self.k_star is not None:
            # a row clipped or absorbing in both patterns has zero psi in
            # both, whatever its argmax did
            flipped = np.flatnonzero(((k_star != self.k_star)
                                      | (free != self.free))
                                     & (free | self.free))
            if 2 * len(flipped) < len(k_star) + len(self.S):
                d_psi = (self._psi(flipped, k_star, free)
                         - self._psi(flipped, self.k_star, self.free))
                self.matrix += (self.Phi[flipped] @ self.S).T @ d_psi
                self.k_star, self.free = k_star, free
                self.traffic["newton_by_rows"] += 1
                self.traffic["flipped_rows"] += len(flipped)
                return self.matrix
        self.matrix = None          # freed before its replacement is built
        psi = self._psi(slice(None), k_star, free)
        n_spectral = self.Ca.shape[1]
        # full builds take two products: one Phi.T @ psi rounds differently
        self.matrix = self.S @ np.hstack([self.Phi.T @ psi[:, :n_spectral],
                                          self.Phi.T @ psi[:, n_spectral:]])
        self.k_star, self.free = k_star, free
        self.traffic["newton_full"] += 1
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
        cos/sin are cached with it for ``_choose``.
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

        grid = self._actions(self.config.n_action_candidates)
        if not self.spec.discrete_actions:
            grid = np.vstack([grid, self.spec.action_low,
                              self.spec.action_high])
        proj_g = self.fmap.action_projection(grid)
        self._grid = grid, np.cos(proj_g), np.sin(proj_g)

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

    def _choose(self, obs, kappa: float, actions, ca, sa):
        """(action, its (Q, U) means) maximizing Q + kappa U over the
        candidate ``actions``, whose action projections have cos ``ca``
        and sin ``sa`` (K x M/2); ties go to the first candidate.

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
        return actions[idx], means[idx]

    def act(self, obs, kappa: float, rng):
        """The action maximizing Q + kappa U at ``obs`` over a candidate
        set drawn here from ``rng``: every discrete action, or
        n_action_candidates uniform box samples plus both endpoints.
        Learning steps choose over the fixed grid instead (``observe``);
        this runs at an episode's first step and in evaluation."""
        actions = self._actions(self.config.n_action_candidates, rng)
        proj_a = self.fmap.action_projection(actions)
        return self._choose(obs, kappa, actions, np.cos(proj_a),
                            np.sin(proj_a))[0]

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
        projection by the angle-sum identities.
        """
        c = self.config
        self._r_abs_max = max(self._r_abs_max, abs(float(tr.reward)))
        proj_a = self.fmap.action_projection([tr.action])
        phi = angle_sum_rows(*self._state_cos_sin(tr.state),
                             np.cos(proj_a), np.sin(proj_a))[0]
        phi *= 1.0 / np.sqrt(self.fmap.n_spectral)
        r_e = self.exploration_reward(tr.next_state, rng)
        a_next = None
        if tr.absorbing:
            boot_q = boot_u = 0.0
        else:
            a_next, (boot_q, boot_u) = self._choose(tr.next_state, kappa,
                                                    *self._grid)
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
        """Re-solve both heads over the store, with candidate actions
        drawn here from ``rng``, then check the covariance.

        The largest eigenvalue of S over beta is the largest predictive
        variance of any unit-norm feature, so it must not exceed V_max;
        the smallest eigenvalue must stay positive, and S finite.
        """
        if self._n:
            self._sweep(kappa,
                        self._actions(self.config.n_sweep_candidates, rng))
        eig = np.linalg.eigvalsh(self.model.S)
        var_max = float(eig[-1]) / self.config.beta
        self.var_max_seen = max(self.var_max_seen, var_max)
        if not var_max <= self.v_max + 1e-9:
            self.var_violations += 1
        # eigvalsh can return finite values for a matrix holding NaN
        if not (eig[0] > 0.0 and np.isfinite(self.model.S).all()):
            self.posterior_violations += 1

    # -- episode sweep ---------------------------------------------------

    def _sweep(self, kappa: float, actions) -> None:
        """Re-solve both weight means over the full store, with policy
        candidates ``actions``.

        Exploration rewards are recomputed under the current S first.
        Then one loop solves Q and then U, each for the fixed point of
        m <- T(m) = beta S Phi^T (targets + gamma boot(m)), the bootstrap
        taken at the candidate maximizing the head's weights on the (Q, U)
        values, (1, kappa) or (kappa, 1), with the other head's means held
        (U sees Q's new ones), and projected to the head's attainable
        range.  All (stored state, candidate) values come from two matrix
        products per iteration (``pair_value_matrix``).

        Up to NEWTON_STEPS Newton steps (``NewtonMatrix.solve``) come
        first; once the argmax and clip pattern repeats, T(m) = m to
        rounding.  The pattern can cycle, so if they run out the loop
        goes on with plain steps m <- T(m) from the lowest-residual point
        seen, and takes one Newton step in place of a plain step whose
        pattern equals the step before's (unless that system is
        singular).  A head converges once no weight moves by more than
        SWEEP_TOL; a plain step then installs the point whose move was
        measured, not one step past it, where the map need not contract.
        The plain phase stays because stopping at the Newton cap instead
        left most heads of the 40-state chain unconverged and slowed its
        learning (figures in CHANGES.md).  A head whose values leave the
        finite range keeps its incremental per-step fit.  The loop writes
        the re-solve's ``sweep_history`` entry: the store size, and per
        head its iterations, convergence and NewtonMatrix traffic.
        """
        c = self.config
        self.model.symmetrize()
        S = self.model.S
        store = self.state_arrays()
        Phi, absorbing = store["phi_rows"], store["absorbing"]
        rows = np.arange(len(absorbing))
        scale = 1.0 / np.sqrt(self.fmap.n_spectral)
        proj_s = self.fmap.state_projection(store["next_obs"])
        Cs, Ss = np.cos(proj_s), np.sin(proj_s)
        proj_a = self.fmap.action_projection(actions)
        Ca, Sa = np.cos(proj_a), np.sin(proj_a)
        r_e = self._recompute_exploration_rewards(Cs, Ss)

        m_heads, t_heads = [self.model.m[:, 0], self.model.m[:, 1]], []
        history = {"n": len(rows)}
        heads = zip((store["rewards"], r_e), ((1.0, kappa), (kappa, 1.0)),
                    self._boot_bounds())
        for i, (targets, (w_self, w_other), (lo, hi)) in enumerate(heads):
            values_other = pair_value_matrix(Cs, Ss, Ca, Sa, m_heads[1 - i],
                                             scale)
            newton = NewtonMatrix(S, Phi, Cs, Ss, Ca, Sa, c.gamma, c.beta)
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
        quadratic form per state (brute-force-checked in the test suite).
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

        F = np.concatenate([Cs, Ss], axis=1)
        mean_centered = np.einsum("ij,ij->i", F @ blocks, F) / n_spectral
        return np.clip(mean_centered / c.beta, -self.v_max, 0.0)

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
        """Posterior, feature map and transition store for checkpointing;
        the store arrays are the live rows the re-solve reads, not copies."""
        n = self._n
        return {
            "S": self.model.S, "m": self.model.m, "t": self.model.t,
            "frequencies": self.fmap.rff.frequencies,
            **{name: rows[:n] for name, rows in self._store.items()},
        }

    def load_state_arrays(self, arrays) -> None:
        """Restore everything state_arrays saved, exactly as saved, so
        training continues as if it had never stopped.  Every array must
        have the shape and dtype kind that this agent's config and env
        spec give it; CheckpointError names the first that does not.
        The checked store arrays become the store as they are, the largest
        reward magnitude is recomputed from the stored rewards, and
        arrays other than state_arrays' own are ignored."""
        spec = self.spec
        n_features = self.config.n_features
        n = np.size(arrays["rewards"])
        shapes = {"S": (n_features, n_features), "m": (n_features, 2),
                  "t": (n_features, 2),
                  "frequencies": (spec.state_dim + spec.action_dim,
                                  n_features // 2),
                  "phi_rows": (n, n_features), "rewards": (n,),
                  "next_obs": (n, spec.state_dim), "absorbing": (n,)}
        saved = {name: checked_array(arrays, name, shape,
                                     "b" if name == "absorbing" else "f")
                 for name, shape in shapes.items()}
        freqs = saved["frequencies"]
        freqs.setflags(write=False)
        self.fmap = JointRffMap.for_spec(spec, RffMap(freqs))
        self._build_expectation_set()
        self.model.S = saved["S"]
        self.model.t = saved["t"]
        self.model.m = saved["m"]
        self._store = {name: saved[name] for name in self._store}
        self._n = n
        self._r_abs_max = float(np.abs(saved["rewards"]).max(initial=1.0))
