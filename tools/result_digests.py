"""Print a SHA-256 digest of every result file and every checkpoint of
every checked-in config.

Each config runs 2 seeds, serially. Tabular configs keep their own
episode count; EmuQ configs are trimmed to 40 episodes on the chain, 6
on mountain car and 8 on pendulum. BLAS runs on one thread, so EmuQ
results do not depend on the thread count.
EmuQ bytes follow floating-point rounding, and ``pendulum_emuq`` is the
most rounding-sensitive config: reordering its arithmetic (building
feature rows by the angle-sum identity, say) changes both its run CSVs.

The output has one ``<config> <file> <sha256>`` line per result file
(two run CSVs, aggregate.csv and summary.csv) and per seed checkpoint
(``checkpoint_s000.npz``, ``checkpoint_s001.npz``), 162 lines in all. A
result file's digest covers its bytes. A checkpoint's covers the arrays
it holds: their sorted names, dtypes, shapes and bytes, not the zip
container, whose bytes carry file dates. Two checkouts print the same
lines exactly when their runs write the same results and save the same
agent state, so compare them with ``diff``:

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
CHECKPOINTS = tuple(f"checkpoint_s{seed:03d}.npz" for seed in range(N_SEEDS))


def trimmed(config):
    n_episodes = (EMUQ_EPISODES[config.env_name]
                  if config.agent_kind == "emuq" else config.n_episodes)
    return dataclasses.replace(config, n_seeds=N_SEEDS,
                               n_episodes=n_episodes)


def checkpoint_digest(path) -> str:
    """SHA-256 over a checkpoint's arrays: for each in name order, its
    name, dtype and shape, then its bytes in C order."""
    import numpy as np

    digest = hashlib.sha256()
    with np.load(path, allow_pickle=False) as arrays:
        for name in sorted(arrays.files):
            array = arrays[name]
            digest.update(f"{name} {array.dtype.str} {array.shape}\n"
                          .encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"    # before numpy loads BLAS
    sys.path.insert(0, str(REPO / "src"))
    from exval.bench import load_config, run_experiment

    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted((REPO / "configs").glob("*.json")):
            out = Path(tmp) / path.stem
            run_experiment(trimmed(load_config(path)), out_dir=out)
            for name in RESULT_FILES:
                digest = hashlib.sha256((out / name).read_bytes())
                print(path.stem, name, digest.hexdigest(), flush=True)
            for name in CHECKPOINTS:
                print(path.stem, name, checkpoint_digest(out / name),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
