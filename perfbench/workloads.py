"""The benchmark's workloads: trimmed seed and episode sets of checked-in
configs. Why each was chosen is in BENCHMARK.json and README.md.

Training seeds are pinned (seeds 0..n_seeds-1 of each config, as
``run_experiment`` runs them). The cost of a run and the number of
episode-end re-solves that stop at their iteration cap both depend on
the training seed, so pinning them keeps every run of a workload the
same work with the same failure count. Episodes are trimmed so that one
round takes a few seconds and a run measures several rounds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple          # config file stems under configs/
    n_seeds: int
    n_episodes: int


WORKLOADS = {w.name: w for w in (
    Workload("mountaincar_emuq", ("mountaincar_emuq",), n_seeds=1,
             n_episodes=4),
    Workload("taxi_target_stop", ("taxi_explvalues_target_stop",
                                  "taxi_additive_target_stop"),
             n_seeds=1, n_episodes=130),
)}


def workload_configs(workload: Workload):
    """The workload's ExperimentConfigs, trimmed to its seeds and episodes."""
    from exval.bench import load_config

    return [dataclasses.replace(load_config(CONFIG_DIR / f"{stem}.json"),
                                n_seeds=workload.n_seeds,
                                n_episodes=workload.n_episodes)
            for stem in workload.configs]
