"""exval benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a fresh worker process with BLAS pinned to one
thread, rescales its round times to a reference machine speed
(speed.py), measures set-up time in fresh processes, prints each metric
by name and unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
A full report is written to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 10
# One BLAS thread: with OpenBLAS's default threads, four runs of
# mountain-car seed 0 ranged from 7.2 to 9.7 s; pinned, 9.8 to 10.2 s.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = REPO / "src"
    if not (src / "exval" / "__init__.py").is_file():
        return fail(f"no exval package under {src}; run from a checkout")
    try:
        declared = json.loads((REPO / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(HERE))
    from workloads import CONFIG_DIR, WORKLOADS
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; known: "
                    f"{', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    first_config = CONFIG_DIR / f"{workload.configs[0]}.json"
    if not first_config.is_file():
        return fail(f"config {first_config} missing")

    out = HERE / "out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **PINNED, PYTHONPATH=str(src))
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", str(args.trace), "--out", str(out)],
        env=env, cwd=REPO, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S)
    if worker.returncode != 0:
        return fail(f"worker exited with {worker.returncode}")
    result = json.loads(worker.stdout.strip().splitlines()[-1])

    probes = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(first_config)],
            env=env, cwd=REPO, stdout=subprocess.PIPE, text=True,
            timeout=PROBE_TIMEOUT_S, check=True)
        probes.append(json.loads(probe.stdout.strip().splitlines()[-1]))

    if args.trace:
        values = dict(result["layers"])
        values["exval.import_s"] = statistics.median(
            p["import_s"] for p in probes)
    else:
        wall = statistics.median(result["ref_walls"])
        values = {"setup_s": statistics.median(p["setup_s"] for p in probes),
                  "wall_ref_s": wall,
                  "train_steps_per_ref_s": result["train_steps"] / wall,
                  "peak_rss_mb": result["peak_rss_mb"]}
    if set(values) != set(units):
        return fail(f"measured {sorted(set(values) ^ set(units))} "
                    "differ from BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    report = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, setup_probes=probes, metrics=metrics)
    name = "trace_report.json" if args.trace else "report.json"
    (out / name).write_text(json.dumps(report, indent=2) + "\n")

    for key, metric in metrics.items():
        print(f"{args.workload} {key} {metric['value']!r} {metric['unit']}")
    if not args.trace:
        # The raw round time and the reference slice it was rescaled by;
        # reported, not gated (see speed.py).
        print(f"{args.workload} raw wall (median round) "
              f"{statistics.median(result['walls'])!r} s, reference slice "
              f"{statistics.median(result['slice_s'])!r} s")
    print(f"{args.workload} operations attempted {result['attempted']} "
          f"failed {result['failed']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
