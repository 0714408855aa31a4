"""Value-learning agent with separate exploitation and exploration heads
over random Fourier features.

Two linear regression heads share one Bayesian posterior covariance:
Q is trained on environment rewards, U on exploration rewards derived
from the posterior's own predictive variance,

    r_e(s') = mean_a V[Q(s', a)] - V_max,

which is 0 where the model knows nothing and approaches -V_max where it
is saturated, so U accumulates "how much is left to learn downstream".
Actions maximize Q + kappa * U over a candidate set (all actions when
discrete, uniform box samples plus endpoints when continuous).

Per step the posterior absorbs the transition through a rank-1 update
with bootstrapped targets; at each episode end the weight means are
re-solved to the fixed point of the bootstrapped regression over the
whole transition store, with exploration rewards recomputed under the
current covariance first, so stale per-step targets get corrected.  The
re-solve takes exact Newton (LSTD) steps, each one linear solve with the
greedy action and clipping of every stored row held fixed, as in
least-squares policy iteration; if the greedy pattern keeps cycling it
goes on with plain fixed-point steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bayes import BayesianLinearModel
from .core import EnvSpec, Transition
from .features import QUASI_RANDOM, JointRffMap, RffMap, make_joint_map

# Rank-1 posterior updates between re-symmetrizations of the covariance.
SYMMETRIZE_EVERY = 1000
# Episode-end re-solve: at most NEWTON_STEPS exact Newton steps, then
# plain fixed-point steps; stop once no weight moves by more than
# SWEEP_TOL, or after SWEEP_MAX_ITERS iterations of either kind.
SWEEP_TOL = 1e-6
SWEEP_MAX_ITERS = 200
NEWTON_STEPS = 10


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


def v_max(alpha: float, beta: float) -> float:
    """Supremum of the predictive variance beta^{-1} phi^T S phi over
    unit-norm features.

    The posterior covariance's eigenvalues never exceed 1/alpha, so for
    unit-norm phi the epistemic term phi^T S phi is at most 1/alpha,
    attained everywhere on a fresh posterior.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    return 1.0 / (alpha * beta)


@dataclass
class EmuqConfig:
    gamma: float = 0.99
    alpha: float = 0.1
    beta: float = 1.0
    n_features: int = 300
    lengthscale_state: float = 0.3
    lengthscale_action: float = 1.0
    n_action_candidates: int = 100      # K, continuous action search
    n_expectation_samples: int = 64     # K_e, variance average samples
    n_sweep_candidates: int = 20        # policy candidates inside sweeps

    @property
    def v_max(self) -> float:
        return v_max(self.alpha, self.beta)


class EmuQ:
    """Exploration-values agent for continuous or discrete action spaces.

    Parameters
    ----------
    env_spec : the environment's EnvSpec (dimensions and action kind).
    config : EmuqConfig.
    rng : generator used once here to seed the frozen feature map.
    """

    def __init__(self, env_spec: EnvSpec, config: EmuqConfig, rng):
        self._init_learner(env_spec, config)
        feature_seed = int(rng.integers(2 ** 63))
        self.fmap = make_joint_map(
            env_spec.state_dim, config.lengthscale_state,
            n_features=config.n_features, scheme=QUASI_RANDOM,
            seed=feature_seed, n_actions=env_spec.n_actions,
            action_low=env_spec.action_low, action_high=env_spec.action_high,
            lengthscale_action=config.lengthscale_action)

    @classmethod
    def from_state_arrays(cls, env_spec: EnvSpec, config: EmuqConfig,
                          arrays) -> "EmuQ":
        """Agent restored from ``state_arrays`` on its saved feature map,
        without first drawing a fresh map (the quasi-random scheme
        imports scipy.stats, most of a second) only to replace it."""
        agent = cls.__new__(cls)
        agent._init_learner(env_spec, config)
        agent.load_state_arrays(arrays)
        return agent

    def _init_learner(self, env_spec: EnvSpec, config: EmuqConfig) -> None:
        """Everything but the feature map, at its fresh-agent value."""
        self.spec = env_spec
        self.config = config
        self.model = BayesianLinearModel(config.n_features, config.alpha,
                                         config.beta, n_heads=2)
        self._phi_rows: list[np.ndarray] = []
        self._rewards: list[float] = []
        self._next_obs: list[np.ndarray] = []
        self._absorbing: list[bool] = []
        # Largest reward magnitude seen; floors the Q bootstrap range at
        # unit scale before any reward has arrived.
        self._r_abs_max = 1.0
        self.sweep_history: list[dict] = []
        # Running invariant monitors over every emitted r_e / variance.
        self.re_count = 0
        self.re_min = 0.0
        self.re_max = -np.inf
        self.re_range_violations = 0
        self.var_max_seen = 0.0
        self.var_violations = 0

    # -- feature helpers -------------------------------------------------

    @property
    def v_max(self) -> float:
        return self.config.v_max

    def _as_state(self, obs) -> np.ndarray:
        return np.atleast_1d(np.asarray(obs, dtype=float))

    def _candidates(self, rng, n: int, endpoints: bool) -> np.ndarray:
        """Every discrete action, or n uniform box samples with the box
        endpoints appended for 1-D actions when ``endpoints`` is set."""
        if self.spec.discrete_actions:
            return np.arange(self.spec.n_actions)
        low, high = self.spec.action_low, self.spec.action_high
        cands = rng.uniform(low, high, size=(n, low.shape[0]))
        if endpoints and low.shape[0] == 1:
            cands = np.vstack([cands, low[None, :], high[None, :]])
        return cands

    def _pair_features(self, obs, actions) -> np.ndarray:
        """Feature rows of one state paired with each action in turn."""
        state = self._as_state(obs)
        states = np.broadcast_to(state, (len(actions), state.shape[0]))
        return self.fmap.embed_pairs(states, actions)

    def _row(self, obs, action) -> np.ndarray:
        """Feature row of one (state, action) pair."""
        return self._pair_features(obs, [action])[0]

    # -- acting ----------------------------------------------------------

    def act(self, obs, kappa: float, rng):
        actions = self._candidates(rng, self.config.n_action_candidates,
                                   endpoints=True)
        phi = self._pair_features(obs, actions)
        means = phi @ self.model.m                    # (K, 2)
        balanced = means[:, 0] + kappa * means[:, 1]
        idx = int(np.argmax(balanced))                # ties: first candidate
        if self.spec.discrete_actions:
            return int(actions[idx])
        return actions[idx].copy()

    # -- exploration reward ----------------------------------------------

    def _re_from_centered(self, centered: np.ndarray) -> float:
        """Map mean centered quadratic form phi^T (S - I/alpha) phi to r_e.

        On a fresh posterior the centered matrix is exactly zero, so the
        result is an exact 0.0; as data accumulates it falls toward
        -V_max.  Clipping guards the bounds against rounding drift.
        """
        raw = float(np.mean(centered)) / self.config.beta
        if raw > 1e-9 or raw < -self.v_max - 1e-9:
            self.re_range_violations += 1
        return float(np.clip(raw, -self.v_max, 0.0))

    def exploration_reward(self, obs_next, rng) -> float:
        """Average posterior Q-variance over actions at s', minus V_max."""
        c = self.config
        actions = self._candidates(rng, c.n_expectation_samples,
                                   endpoints=False)
        phi = self._pair_features(obs_next, actions)
        centered = self.model.centered_quadratic(phi)
        norms = np.einsum("ij,ij->i", phi, phi)
        epistemic = centered + norms / c.alpha        # phi^T S phi rows
        variances = epistemic / c.beta
        self.var_max_seen = max(self.var_max_seen, float(variances.max()))
        if np.any(variances > self.v_max + 1e-9):
            self.var_violations += 1
        r_e = self._re_from_centered(centered)
        self._note_re(r_e)
        return r_e

    def _note_re(self, r_e: float) -> None:
        self.re_count += 1
        self.re_min = min(self.re_min, r_e)
        self.re_max = max(self.re_max, r_e)

    # -- learning --------------------------------------------------------

    def _boot_bounds(self):
        """Attainable (lo, hi) value ranges for the Q and U heads.

        A discounted sum of per-step quantities in [lo, hi] lies in
        [lo, hi] / (1 - gamma); at gamma >= 1 the spans are infinite,
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

    def observe(self, tr: Transition, kappa: float, rng) -> None:
        c = self.config
        self._r_abs_max = max(self._r_abs_max, abs(float(tr.reward)))
        phi = self._row(tr.state, tr.action)
        r_e = self.exploration_reward(tr.next_state, rng)
        if tr.absorbing:
            boot_q = boot_u = 0.0
        else:
            a_next = self.act(tr.next_state, kappa, rng)
            boot_q, boot_u = self._row(tr.next_state, a_next) @ self.model.m
            (q_lo, q_hi), (u_lo, u_hi) = self._boot_bounds()
            boot_q = float(np.clip(boot_q, q_lo, q_hi))
            boot_u = float(np.clip(boot_u, u_lo, u_hi))
        self.model.observe(phi, [tr.reward + c.gamma * boot_q,
                                 r_e + c.gamma * boot_u])
        if self.model.n_observed % SYMMETRIZE_EVERY == 0:
            self.model.symmetrize()
        self._phi_rows.append(phi)
        self._rewards.append(float(tr.reward))
        self._next_obs.append(self._as_state(tr.next_state))
        self._absorbing.append(bool(tr.absorbing))

    def end_episode(self, kappa: float, rng) -> None:
        if self._phi_rows:
            self._sweep(kappa, rng)

    # -- episode sweep ---------------------------------------------------

    def _sweep(self, kappa: float, rng) -> None:
        """Fixed-point re-solve of both weight means over the full store.

        Policy evaluation inside the sweep maximizes Q + kappa U over a
        shared candidate action set; the trigonometric split of the
        feature map lets all (stored state, candidate) values come from
        two matrix products per iteration, and the next-state feature
        rows of the chosen actions from elementwise products.
        """
        c = self.config
        self.model.symmetrize()
        S = self.model.S
        Phi = np.vstack(self._phi_rows)
        r = np.asarray(self._rewards)
        absorbing = np.asarray(self._absorbing, dtype=bool)
        next_states = np.vstack(self._next_obs)
        rows = np.arange(len(r))
        n_spectral = self.fmap.n_spectral
        scale = 1.0 / np.sqrt(n_spectral)

        proj_s = self.fmap.state_projection(next_states)
        Cs, Ss = np.cos(proj_s), np.sin(proj_s)

        actions = self._candidates(rng, c.n_sweep_candidates, endpoints=True)
        proj_a = self.fmap.action_projection(actions)
        Ca, Sa = np.cos(proj_a), np.sin(proj_a)

        def pair_values(m):
            return pair_value_matrix(Cs, Ss, Ca, Sa, m, scale)

        (q_lo, q_hi), (u_lo, u_hi) = self._boot_bounds()

        def newton_step(targets, k_star, raw, boot):
            """Exact fixed point of the map with its pattern held: rows
            whose bootstrap is clipped or absorbing keep their constant
            value, the rest bootstrap linearly through the next-state
            features Psi of their chosen action, so m solves

                (I - gamma beta S Phi^T Psi) m
                    = beta S Phi^T (targets + gamma const).

            Returns None if that system is singular or its solution is
            not finite.
            """
            free = (boot == raw) & ~absorbing
            const = np.where(free, 0.0, boot)
            ca, sa = Ca[k_star], Sa[k_star]
            psi_c = Cs * ca
            psi_c -= Ss * sa
            psi_s = Ss * ca
            psi_s += Cs * sa
            psi_c[~free] = 0.0
            psi_s[~free] = 0.0
            phi_psi = np.hstack([Phi.T @ psi_c, Phi.T @ psi_s])
            lhs = np.eye(len(S)) - (c.gamma * c.beta * scale) * (S @ phi_psi)
            rhs = S @ (c.beta * (Phi.T @ (targets + c.gamma * const)))
            try:
                m = np.linalg.solve(lhs, rhs)
            except np.linalg.LinAlgError:
                return None
            return m if np.isfinite(m).all() else None

        def solve_head(targets, m0, t0, values_other, weight_self,
                       weight_other, boot_lo, boot_hi):
            """Find the fixed point of m <- T(m) = beta S Phi^T (targets +
            gamma boot(m)), the bootstrap taken at the balanced argmax
            action and projected to the head's attainable value range.

            Up to NEWTON_STEPS exact Newton (LSTD) steps come first, each
            solving for the fixed point under the current argmax and clip
            pattern; once the pattern repeats, T(m) = m to rounding.  The
            pattern can cycle, so if they run out the loop continues with
            plain steps m <- T(m) from the lowest-residual point seen.  The
            head converges once no weight moves by more than SWEEP_TOL.

            If values leave the finite range the head falls back to its
            incremental per-step fit (m0, t0) rather than installing
            diverged values.
            """
            m = m0.copy()
            newton = True
            best_delta, best_next = np.inf, None
            with np.errstate(over="ignore", invalid="ignore"):
                for it in range(SWEEP_MAX_ITERS):
                    values = pair_values(m)
                    balanced = (weight_self * values
                                + weight_other * values_other)
                    k_star = np.argmax(balanced, axis=1)
                    raw = values[rows, k_star]
                    boot = np.clip(raw, boot_lo, boot_hi)
                    boot[absorbing] = 0.0
                    t = c.beta * (Phi.T @ (targets + c.gamma * boot))
                    m_new = S @ t
                    delta = float(np.max(np.abs(m_new - m)))
                    if not np.isfinite(delta):
                        return m0.copy(), t0.copy(), it + 1, False
                    if delta < SWEEP_TOL:
                        return m_new, t, it + 1, True
                    if not newton:
                        m = m_new
                        continue
                    if delta < best_delta:
                        best_delta, best_next = delta, m_new
                    m = (newton_step(targets, k_star, raw, boot)
                         if it < NEWTON_STEPS else None)
                    if m is None:
                        newton = False
                        m = best_next
            return m_new, t, SWEEP_MAX_ITERS, False

        m_q0 = self.model.m[:, 0]
        m_u0 = self.model.m[:, 1]

        values_u_fixed = pair_values(m_u0)
        m_q, t_q, iters_q, ok_q = solve_head(r, m_q0, self.model.t[:, 0],
                                             values_u_fixed, 1.0, kappa,
                                             q_lo, q_hi)

        r_e = self._recompute_exploration_rewards(Cs, Ss, rng)

        values_q_fixed = pair_values(m_q)
        m_u, t_u, iters_u, ok_u = solve_head(r_e, m_u0, self.model.t[:, 1],
                                             values_q_fixed, kappa, 1.0,
                                             u_lo, u_hi)

        self.model.set_targets(np.column_stack([t_q, t_u]))
        self.sweep_history.append({
            "n": len(r), "iters_q": iters_q, "converged_q": ok_q,
            "iters_u": iters_u, "converged_u": ok_u,
        })

    def _recompute_exploration_rewards(self, Cs, Ss, rng):
        """Exploration rewards for all stored next states under current S.

        Uses the exact average over the candidate action set: with
        second-moment matrices of the candidate cos/sin projections, the
        action average of phi^T C phi collapses into one quadratic form
        per state (brute-force-checked in the test suite).
        """
        c = self.config
        n_spectral = self.fmap.n_spectral
        actions = self._candidates(rng, c.n_expectation_samples,
                                   endpoints=False)
        proj_a = self.fmap.action_projection(actions)
        Ca, Sa = np.cos(proj_a), np.sin(proj_a)
        k = actions.shape[0]
        g_cc = Ca.T @ Ca / k
        g_cs = Ca.T @ Sa / k
        g_sc = g_cs.T
        g_ss = Sa.T @ Sa / k

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
        """Invariant monitors and re-solve counts of the run so far."""
        capped = sum(not h[f"converged_{head}"]
                     and h[f"iters_{head}"] == SWEEP_MAX_ITERS
                     for h in self.sweep_history for head in ("q", "u"))
        return {
            "re_count": self.re_count, "re_min": self.re_min,
            "re_max": self.re_max,
            "re_range_violations": self.re_range_violations,
            "var_max_seen": self.var_max_seen,
            "var_violations": self.var_violations,
            "resolves": 2 * len(self.sweep_history),
            "resolves_capped": capped,
        }

    def state_arrays(self) -> dict:
        """Posterior, feature map and transition store for checkpointing."""
        return {
            "S": self.model.S, "m": self.model.m, "t": self.model.t,
            "n_observed": np.asarray(self.model.n_observed),
            "frequencies": self.fmap.rff.frequencies,
            "lengthscales": self.fmap.rff.lengthscales,
            "feature_scheme": np.asarray(self.fmap.rff.scheme),
            "feature_seed": np.asarray(self.fmap.rff.seed),
            "phi_rows": np.reshape(self._phi_rows, (-1, self.fmap.n_features)),
            "rewards": np.asarray(self._rewards, dtype=float),
            "next_obs": np.reshape(self._next_obs, (-1, self.fmap.state_dim)),
            "absorbing": np.asarray(self._absorbing, dtype=bool),
            "r_abs_max": np.asarray(self._r_abs_max),
        }

    def load_state_arrays(self, arrays) -> None:
        """Restore everything state_arrays saved, exactly as saved, so
        training continues as if it had never stopped."""
        freqs = np.array(arrays["frequencies"])
        freqs.setflags(write=False)
        rff = RffMap(frequencies=freqs,
                     lengthscales=np.array(arrays["lengthscales"]),
                     scheme=str(arrays["feature_scheme"]),
                     seed=int(arrays["feature_seed"]))
        spec = self.spec
        self.fmap = JointRffMap(
            rff=rff, state_dim=spec.state_dim,
            action_dim=(spec.n_actions if spec.discrete_actions
                        else len(spec.action_low)),
            action_low=spec.action_low, action_high=spec.action_high,
            n_actions=spec.n_actions)
        self.model.S = np.array(arrays["S"])
        self.model.t = np.array(arrays["t"])
        self.model.m = np.array(arrays["m"])
        self.model.n_observed = int(arrays["n_observed"])
        self._phi_rows = list(np.array(arrays["phi_rows"]))
        self._rewards = [float(r) for r in arrays["rewards"]]
        self._next_obs = list(np.array(arrays["next_obs"]))
        self._absorbing = [bool(a) for a in arrays["absorbing"]]
        self._r_abs_max = float(arrays["r_abs_max"])
