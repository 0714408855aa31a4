"""Fast self-tests of the benchmark's own arithmetic.

Not part of the repository's test suite (pytest collects ``tests/``
only). Run with ``PYTHONPATH=src python3 -m pytest perfbench`` or
``PYTHONPATH=src python3 perfbench/test_selftest.py``.
"""

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 7]; c holds d [5.5, 6]
    names = ["a", "b", "c", "d"]
    per_name, covered = layer_totals(
        names, name_id=[0, 1, 2, 3], parent=[-1, 0, 0, 2],
        start=[0.0, 1.0, 5.0, 5.5], end=[10.0, 4.0, 7.0, 6.0])
    assert {k: v["self_s"] for k, v in per_name.items()} == {
        "a": 5.0, "b": 3.0, "c": 1.5, "d": 0.5}
    assert per_name["c"]["total_s"] == 2.0
    assert covered == 10.0


def test_self_time_sums_repeated_names():
    per_name, covered = layer_totals(
        ["x", "y"], name_id=[0, 1, 0, 1], parent=[-1, 0, -1, 2],
        start=[0.0, 1.0, 3.0, 3.5], end=[2.0, 1.5, 4.0, 3.75])
    assert per_name["x"] == {"calls": 2, "total_s": 3.0, "self_s": 2.25}
    assert per_name["y"] == {"calls": 2, "total_s": 0.75, "self_s": 0.75}
    assert covered == 3.0


class _Target:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_tracer_records_parents_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    original = _Target.__dict__["outer"]
    tracer.wrap(_Target, "outer", "t.outer",
                lambda args, kwargs, result, counts:
                counts.__setitem__("out", counts["out"] + result))
    tracer.wrap(_Target, "inner", "t.inner")
    assert _Target().outer(3) == 7
    tracer.close()
    assert _Target.__dict__["outer"] is original
    per_name, covered = layer_totals(tracer.names, *tracer.arrays())
    # outer starts at tick 0, inner spans ticks 1..2, outer ends at 3
    assert per_name["t.outer"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert per_name["t.inner"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert covered == 3.0 and tracer.counts["out"] == 7


RUNS = {0: [(0, 10, 0.0, 1.0, 0, 0), (1, 4, 1.0, 0.0, 1, 1)],
        1: [(0, 6, 1.0, 1.0, 1, 1), (1, 8, 0.5, 0.0, 1, 0)]}


def test_recompute_by_hand():
    per_episode, summary = checks.recompute_aggregates(RUNS, True)
    assert per_episode == [[0, 0.5, 0.5, 8.0, 2.0, 2],
                           [1, 0.75, 0.25, 6.0, 2.0, 2]]
    assert summary == {
        "n_runs": 2, "success_rate": 1.0,
        "episodes_to_first_goal_mean": 0.5,
        "episodes_to_first_goal_std": 0.5,
        "times_target_reached": 2, "episodes_to_target_mean": 1.0,
        "post_target_return_mean": 0.75, "post_target_return_std": 0.25}


def _write_program_aggregates(out: Path, target_stop: bool):
    from exval.bench import ExperimentConfig, RunResult, write_aggregates

    config = ExperimentConfig(
        experiment="t", env_name="chain", env_params={},
        agent_kind="explvalues", agent_params={},
        schedule_variant="target_stop" if target_stop else "constant",
        schedule_params={}, n_episodes=2, n_seeds=2)
    write_aggregates(out, config,
                     [RunResult(seed=s, rows=RUNS[s]) for s in RUNS])


def test_recompute_agrees_with_program_and_catches_tampering():
    for target_stop in (False, True):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            _write_program_aggregates(out, target_stop)
            assert checks.check_aggregate_files(out, RUNS, target_stop) == []
            text = (out / "aggregate.csv").read_text()
            (out / "aggregate.csv").write_text(text.replace("0.75", "0.7"))
            assert checks.check_aggregate_files(out, RUNS, target_stop)


def test_posterior_check_accepts_exact_and_rejects_perturbed():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((40, 6))
    S = np.linalg.inv(0.1 * np.eye(6) + rows.T @ rows)
    S = (S + S.T) / 2.0
    assert checks.check_posterior(S, rows, 0.1, 1.0, "t") == []
    assert checks.check_posterior(S + 1e-6, rows, 0.1, 1.0, "t")


def test_rescale_takes_ticks_out_and_scales_by_the_median_slice():
    ref_s, slice_s = speed.rescale(10.012, 0.012, [0.002, 0.001, 0.003])
    assert slice_s == 0.002
    assert abs(ref_s - 10.0 * speed.REF_SLICE_S / 0.002) < 1e-9


def test_probe_runs_slices_while_active_and_stops():
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 3.5 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    n = len(probe.slices)
    assert 2 <= n <= 4 and all(s > 0 for s in probe.slices)
    assert probe.spent > sum(probe.slices)
    time.sleep(2 * speed.PERIOD_S)
    assert len(probe.slices) == n


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
