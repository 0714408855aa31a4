"""Correctness checks made apart from the program.

Every check compares the program's output with a computation done here
(numpy or plain Python, not the program's own helpers) or with a
property the method must have. Each returns a list of failure messages;
an empty list means the check passed.
"""

from __future__ import annotations

import csv
import math
import statistics
from pathlib import Path

import numpy as np

HEADER = ["run_id", "seed", "episode", "steps", "return", "kappa",
          "reached_goal", "first_goal_flag"]
GOAL_ONLY_ENVS = ("chain", "mountaincar")   # return is 1 at the goal, else 0


def read_runs(out_dir: Path, n_seeds: int):
    """{seed: [(episode, steps, return, kappa, reached, first), ...]}."""
    runs = {}
    for seed in range(n_seeds):
        with open(out_dir / f"run_s{seed:03d}.csv", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader) != HEADER:
                raise ValueError(f"bad header in run_s{seed:03d}.csv")
            runs[seed] = [(int(e), int(s), float(r), float(k), int(g),
                           int(f)) for _, _, e, s, r, k, g, f in reader]
    return runs


def check_run_rows(runs, config, cap: int):
    """Row count, step range, return/goal relation and first-goal flag."""
    bad = []
    for seed, rows in runs.items():
        where = f"{config.experiment} seed {seed}"
        if [row[0] for row in rows] != list(range(config.n_episodes)):
            bad.append(f"{where}: episodes are not 0..{config.n_episodes - 1}")
        goals = [row[0] for row in rows if row[4]]
        flagged = [row[0] for row in rows if row[5]]
        if flagged != goals[:1]:
            bad.append(f"{where}: first_goal_flag on {flagged}, "
                       f"first goal row {goals[:1]}")
        for episode, steps, ret, _, reached, _ in rows:
            if not 1 <= steps <= cap:
                bad.append(f"{where} ep {episode}: steps {steps} "
                           f"outside [1, {cap}]")
            excess = ret - reached
            if config.env_name in GOAL_ONLY_ENVS:
                ok = excess == 0.0
            else:   # taxi: goal +1, illegal pickup/drop-off -0.1 each
                ok = excess <= 1e-9 and abs(excess / 0.1
                                            - round(excess / 0.1)) < 1e-6
            if not ok:
                bad.append(f"{where} ep {episode}: return {ret!r} with "
                           f"reached_goal {reached}")
    return bad


def recompute_aggregates(runs, target_stop: bool):
    """Per-episode (mean/std return, mean/std steps, n) and the summary,
    recomputed in plain Python from the run rows."""
    seeds = sorted(runs)
    per_episode = []
    for ep in range(max(len(runs[s]) for s in seeds)):
        rows = [runs[s][ep] for s in seeds if ep < len(runs[s])]
        rets = [r[2] for r in rows]
        steps = [float(r[1]) for r in rows]
        per_episode.append([ep, statistics.fmean(rets),
                            statistics.pstdev(rets),
                            statistics.fmean(steps),
                            statistics.pstdev(steps), len(rows)])

    def mean_std(values):
        if not values:
            return None, None
        return statistics.fmean(values), statistics.pstdev(values)

    firsts = [next((r[0] for r in runs[s] if r[4]), None) for s in seeds]
    hits = [f for f in firsts if f is not None]
    mean, std = mean_std(hits)
    summary = {"n_runs": len(seeds), "success_rate": len(hits) / len(seeds),
               "episodes_to_first_goal_mean": mean,
               "episodes_to_first_goal_std": std}
    if target_stop:
        latched = {s: next((r[0] for r in runs[s] if r[3] == 0.0), None)
                   for s in seeds}
        reached = [s for s in seeds if latched[s] is not None]
        post = [statistics.fmean(r[2] for r in runs[s] if r[0] >= latched[s])
                for s in reached]
        post_mean, post_std = mean_std(post)
        summary.update({
            "times_target_reached": len(reached),
            "episodes_to_target_mean":
                mean_std([latched[s] for s in reached])[0],
            "post_target_return_mean": post_mean,
            "post_target_return_std": post_std})
    return per_episode, summary


def _same(expected, text: str) -> bool:
    if expected is None:
        return text == "--"
    return math.isclose(float(text), expected, rel_tol=1e-12, abs_tol=1e-12)


def check_aggregate_files(out_dir: Path, runs, target_stop: bool):
    """aggregate.csv and summary.csv against the recomputation."""
    per_episode, summary = recompute_aggregates(runs, target_stop)
    bad = []
    with open(out_dir / "aggregate.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != len(per_episode):
        bad.append(f"aggregate.csv has {len(rows)} rows, "
                   f"expected {len(per_episode)}")
    for got, want in zip(rows, per_episode):
        if not all(_same(w, g) for w, g in zip(want, got)):
            bad.append(f"aggregate.csv row {got} != recomputed {want}")
    with open(out_dir / "summary.csv", newline="") as fh:
        keys, values = list(csv.reader(fh))
    if keys != list(summary):
        bad.append(f"summary.csv keys {keys} != {list(summary)}")
    for key, text in zip(keys, values):
        if key in summary and not _same(summary[key], text):
            bad.append(f"summary.csv {key}={text}, recomputed "
                       f"{summary[key]!r}")
    return bad


def check_posterior(S, rows, alpha: float, beta: float, where: str):
    """S against inv(alpha I + beta Phi^T Phi) over the rows observed;
    also symmetric positive definite."""
    Phi = np.asarray(rows, dtype=float)
    m = S.shape[0]
    direct = np.linalg.inv(alpha * np.eye(m) + beta * (Phi.T @ Phi))
    bad = []
    err = float(np.max(np.abs(S - direct)))
    if err > 1e-8 / alpha:
        bad.append(f"{where}: |S - inv(alpha I + beta Phi^T Phi)| = {err:.3g}")
    asym = float(np.max(np.abs(S - S.T)))
    if asym > 1e-12 / alpha:
        bad.append(f"{where}: S asymmetric by {asym:.3g}")
    low = float(np.linalg.eigvalsh((S + S.T) / 2.0).min())
    if not low > 0.0:
        bad.append(f"{where}: S not positive definite (min eig {low:.3g})")
    return bad


def check_exploration_rewards(values, alpha: float, beta: float, where: str):
    """Every r_e lies in [-1/(alpha beta), 0]."""
    values = np.asarray(values, dtype=float)
    lo = -1.0 / (alpha * beta)
    if values.size == 0:
        return [f"{where}: no exploration rewards emitted"]
    outside = int(np.count_nonzero((values < lo) | (values > 0.0)))
    if outside:
        return [f"{where}: {outside} r_e outside [{lo}, 0] "
                f"(min {values.min()!r}, max {values.max()!r})"]
    return []


def check_tabular(agent, train_steps: int, gamma: float, where: str):
    """Visit counts add up to the training steps; U within its range."""
    bad = []
    if int(agent.counts.sum()) != train_steps:
        bad.append(f"{where}: counts sum {int(agent.counts.sum())} != "
                   f"{train_steps} training steps")
    u = getattr(agent, "u", None)
    if u is not None:
        lo = -1.0 / (1.0 - gamma)
        if u.min() < lo - 1e-9 or u.max() > 0.0:
            bad.append(f"{where}: U in [{u.min()!r}, {u.max()!r}], "
                       f"outside [{lo}, 0]")
    return bad


def check_emuq_act(agent, probes, kappa: float, seed: int, where: str):
    """The agent's action maximizes Q + kappa U over its candidates, with
    features rebuilt here from the map's frequency matrix."""
    fmap = agent.fmap
    freqs = np.asarray(fmap.rff.frequencies)
    half = freqs.shape[1]
    bad = []
    for i, state in enumerate(probes):
        action = agent.act(state, kappa, np.random.default_rng([seed, i]))
        draw = np.random.default_rng([seed, i])
        if fmap.discrete:
            cands = np.arange(fmap.n_actions)
            coded = np.eye(fmap.n_actions)
        else:
            low, high = fmap.action_low, fmap.action_high
            cands = draw.uniform(low, high, size=(
                agent.config.n_action_candidates, low.shape[0]))
            if low.shape[0] == 1:
                cands = np.vstack([cands, low, high])
            coded = (cands - low) / (high - low)
        x = np.hstack([np.tile(state, (len(cands), 1)), coded])
        proj = x @ freqs
        phi = np.hstack([np.cos(proj), np.sin(proj)]) / math.sqrt(half)
        values = phi @ agent.model.m
        balanced = values[:, 0] + kappa * values[:, 1]
        picked = [k for k in range(len(cands))
                  if np.array_equal(np.atleast_1d(cands[k]),
                                    np.atleast_1d(action))]
        best = float(balanced.max())
        if not picked or balanced[picked[0]] < best - 1e-9 * (1 + abs(best)):
            bad.append(f"{where}: act({state}) = {action} is not a "
                       f"maximizer of Q + kappa U")
    return bad


def check_tabular_act(agent, probes, kappa: float, where: str):
    """Greedy tabular agents pick the lowest-index maximizer."""
    bad = []
    for s in probes:
        row = agent.q[s] + (kappa * agent.u[s] if hasattr(agent, "u") else 0)
        want = int(np.flatnonzero(row == row.max())[0])
        got = agent.act(int(s), kappa, np.random.default_rng(0))
        if got != want:
            bad.append(f"{where}: act({s}) = {got}, expected {want}")
    return bad


def first_goal(rows):
    """(1-based episode, kappa) of the first goal row, or None."""
    for episode, _, _, kappa, reached, _ in rows:
        if reached:
            return episode + 1, kappa
    return None


def check_emuq_guarantees(runs, config):
    """Acceptance guarantee a07, scaled to the workload's seeds: at least
    80% of seeds reach the goal while exploring (kappa > 0), with a
    median first-goal episode of at most 6."""
    n = len(runs)
    need = math.ceil(0.8 * n)
    firsts = [first_goal(rows) for rows in runs.values()]
    hits = [episode for episode, kappa in filter(None, firsts) if kappa > 0.0]
    if len(hits) < need:
        return [f"{config.experiment}: {len(hits)} of {n} seeds reach the "
                f"goal with kappa > 0, need {need}"]
    if statistics.median(hits) > 6:
        return [f"{config.experiment}: median first-goal episode "
                f"{statistics.median(hits)} > 6"]
    return []


def check_target_stop_contrast(expl_runs, add_runs):
    """Acceptance guarantee a05, scaled: explvalues latches and keeps a
    non-negative post-latch return; additive scores lower per seed."""
    def post_mean(rows):
        post = [r[2] for r in rows if r[3] == 0.0]
        return statistics.fmean(post) if post else -math.inf

    n = len(expl_runs)
    need = math.ceil(0.8 * n)
    expl = {s: post_mean(rows) for s, rows in expl_runs.items()}
    add = {s: post_mean(rows) for s, rows in add_runs.items()}
    latched = [v for v in expl.values() if v != -math.inf]
    bad = []
    if len(latched) < need:
        bad.append(f"taxi: explvalues latched on {len(latched)} of {n}")
    elif statistics.fmean(latched) < 0.0:
        bad.append(f"taxi: explvalues post-latch return "
                   f"{statistics.fmean(latched)} < 0")
    lower = sum(add[s] < expl[s] for s in expl)
    if lower < need:
        bad.append(f"taxi: additive lower on {lower} of {n} seeds")
    return bad
