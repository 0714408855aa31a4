"""Print a SHA-256 digest of every result file of every checked-in config.

Each config runs 2 seeds, serially, with checkpoints off. Tabular
configs keep their own episode count; EmuQ configs are trimmed to 40
episodes on the chain, 6 on mountain car and 8 on pendulum. BLAS runs
on one thread, so EmuQ results do not depend on the thread count.
EmuQ bytes follow floating-point rounding, and ``pendulum_emuq`` is the
most rounding-sensitive config: reordering its arithmetic (building
feature rows by the angle-sum identity, say) changes both its run CSVs.

The output has one ``<config> <file> <sha256>`` line per result file
(two run CSVs, aggregate.csv and summary.csv), 108 lines in all. Two
checkouts print the same lines exactly when their runs write the same
bytes, so compare them with ``diff``:

    python tools/result_digests.py > after.txt

Runs the ``exval`` package of the checkout that holds this script, and
takes about a minute on one core.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
N_SEEDS = 2
EMUQ_EPISODES = {"chain": 40, "mountaincar": 6, "pendulum": 8}
RESULT_FILES = ("run_s000.csv", "run_s001.csv", "aggregate.csv",
                "summary.csv")


def trimmed(config):
    n_episodes = (EMUQ_EPISODES[config.env_name]
                  if config.agent_kind == "emuq" else config.n_episodes)
    return dataclasses.replace(config, n_seeds=N_SEEDS,
                               n_episodes=n_episodes)


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"    # before numpy loads BLAS
    sys.path.insert(0, str(REPO / "src"))
    from exval.bench import load_config, run_experiment

    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted((REPO / "configs").glob("*.json")):
            out = Path(tmp) / path.stem
            run_experiment(trimmed(load_config(path)), out_dir=out,
                           save_checkpoints=False)
            for name in RESULT_FILES:
                digest = hashlib.sha256((out / name).read_bytes())
                print(path.stem, name, digest.hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
