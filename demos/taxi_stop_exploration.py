#!/usr/bin/env python3
"""Why keeping exploration out of the value function pays off.

Two tabular agents learn goal-only Taxi, where the only rewards are a
small penalty for bad pickup/dropoff attempts and +1 for delivering
the passenger.  Both get the same count-based novelty signal:

  additive     folds the novelty bonus into its single Q table
  explvalues   learns Q from env reward and a separate novelty value
               table U, acting on Q + kappa * U

A target-stop schedule watches greedy evaluation returns and cuts
kappa to zero once the policy clears the bar five evaluations in a
row.  After the cut, explvalues acts on a Q table that only ever saw
real reward.  The additive agent has no such clean table to fall back
on: its Q still carries stale bonus mass, so the greedy policy chases
old novelty instead of passengers.

Runs two 250-episode experiments (a few seconds each).
"""

from pathlib import Path

import numpy as np

from exval.bench import load_config, run_single

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = {
    "explvalues": CONFIG_DIR / "taxi_explvalues_target_stop.json",
    "additive": CONFIG_DIR / "taxi_additive_target_stop.json",
}
SEED = 3


def describe(name, path):
    config = load_config(path)
    result, _ = run_single(config, SEED)
    print(f"{name} agent, seed {SEED}")
    if result.latched_at is None:
        print("  target never reached; exploration stayed on for all "
              f"{config.n_episodes} episodes")
    else:
        print(f"  exploration switched off after episode {result.latched_at}")
        post = [row[2] for row in result.rows if row[3] == 0.0]
        print(f"  mean return over the {len(post)} exploit-only episodes: "
              f"{np.mean(post):+.3f}")
    tail = [row[2] for row in result.rows[-20:]]
    print(f"  mean return over the final 20 episodes: {np.mean(tail):+.3f}")
    print()


def main():
    for name, path in CONFIGS.items():
        describe(name, path)
    print("Separate exploration values let the stop decision actually")
    print("stop: the exploit policy is already sitting in the Q table.")


if __name__ == "__main__":
    main()
