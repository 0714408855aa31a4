#!/usr/bin/env python3
"""Finding the mountain-car goal without any shaped reward.

Goal-only mountain car pays +1 at the flag and nothing anywhere else,
so there is no gradient to climb until the flag has been touched at
least once.  The variance-driven agent treats its own predictive
uncertainty as the thing to optimize instead: regions the posterior
has not pinned down yet look valuable, and the car learns to pump up
the slope because that is where uncertainty lives.

Prints the first-goal episode for a handful of seeds, then repeats the
experiment with exploration weight kappa = 0 to show that the model
alone, without the uncertainty drive, does nothing useful.  Envs and
agents come from the checked-in configs ``mountaincar_emuq`` and
``mountaincar_emuq_kappa0``.

Takes a minute or two.
"""

from pathlib import Path

from exval.bench import build_run, load_config, pin_blas_threads
from exval.core import run_episode, seed_streams

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SEEDS = range(5)


def first_goal_episode(config, seed):
    """1-based episode of the first goal of ``config`` on ``seed``, or
    None if none of its episodes reaches the goal."""
    env_rng, agent_rng, _ = seed_streams(config.base_seed, seed)
    env, agent, schedule = build_run(config, agent_rng)
    for ep in range(config.n_episodes):
        log = run_episode(env, agent, env_rng, agent_rng,
                          kappa=schedule.kappa_at(ep))
        if log.reached_goal:
            return ep + 1
    return None


def show(label, name):
    config = load_config(CONFIG_DIR / f"{name}.json")
    print(f"{label} (kappa = {config.schedule_params['kappa0']})")
    for seed in SEEDS:
        ep = first_goal_episode(config, seed)
        note = (f"goal in episode {ep}" if ep else
                f"no goal in {config.n_episodes} episodes")
        print(f"  seed {seed}: {note}")
    print()


def main():
    pin_blas_threads()     # EmuQ's results depend on the thread count
    show("uncertainty-driven", "mountaincar_emuq")
    show("ablation, exploitation only", "mountaincar_emuq_kappa0")
    print("Every reward before the first flag touch is zero, so the")
    print("ablated agent has nothing to maximize and never leaves the")
    print("valley floor on purpose.")


if __name__ == "__main__":
    main()
