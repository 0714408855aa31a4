"""Golden outputs: the result files of every checked-in tabular config,
trimmed to 2 seeds and 30 episodes, must keep their exact bytes, and so
must the two taxi target-stop configs at their full 250 episodes, the
only runs here that reach the target-stop latch.

Tabular runs do no BLAS work, so these digests are the same on every
machine.  EmuQ configs are left out: their matrix products may round
differently from one CPU to another.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from exval.bench import load_config, run_experiment

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
N_SEEDS = 2
N_EPISODES = 30
RESULT_FILES = ("run_s000.csv", "run_s001.csv", "aggregate.csv",
                "summary.csv")

# SHA-256 over RESULT_FILES in order, each as "<name>\n<bytes>".
GOLDEN = {
    "chain_epsilon_greedy_n40":
        "742fdffe5c267e98c4dc23398d99bf49fca46b76558a2a0a20ccc236d8622698",
    "cliff_additive_rewards_x100":
        "72d6eac197296be61f82975944fe316ba9aaac050aa6d017625ea6ce091dc28d",
    "cliff_explvalues_budget30":
        "bc957a5a7cb70e8d81bfa5cd8548df6a723a99ce9570d680ed34b5fa24dd07c2",
    "cliff_explvalues_decay_fast":
        "fb41ab839a780672da6064d50f82e9c7877671d1ad71712dc455f8c4a89f9c6a",
    "cliff_explvalues_decay_mid":
        "9f7e22f0636a9ac5a6725fccae74840fbe671bb38aeb997256d1016486e9642b",
    "cliff_explvalues_decay_slow":
        "35a414a0516c32963c6cbfd17fde7847b0fbc7df6575b66af933948fa71a5f03",
    "cliff_explvalues_rewards_x100":
        "3bd68f56b2f5af6c6988175eb8369d2d1a58d2dcd31229eca1ffd1e37630854e",
    "cliff_explvalues_slip10":
        "979219a1c845abf3eeee2fd2ef3cbcbd15a62a90a57ee8f77b03036249cf221b",
    "cliff_explvalues_stop20_resume30":
        "b6c11016e9e193dffa11a8e7970a67adacf3361a5cda357eb93b9ae7c3a42860",
    "taxi_additive_target_stop":
        "f888199699fc99ec39b69b27e16c15233b504f5f7cfa36e0549fbdad8dc5094f",
    "taxi_epsilon_greedy":
        "fd2aef5792bea336688b4c9cc1c58cde2476ead36f7c23f5cc16f4ecfbd9d8fa",
    "taxi_explvalues_budget100":
        "fb6a0be2e2bffa533d0cf1e1bbd8f83712698a7d146d02cc9ed1f9045ebd6f56",
    "taxi_explvalues_budget300":
        "7745aaea53e1fc75b88cf7142b78331779ffabec0cd6a726643aabe73a61315f",
    "taxi_explvalues_budget500":
        "f2fd5bdf7619c5b6a93c3d52750412abf22abb00fac0c8bfcfb697b9ef93a067",
    "taxi_explvalues_decay_fast":
        "82f36d53e565fee9d36a6dbffe535a3e2e4ccf61f06c413d52290c28137a5979",
    "taxi_explvalues_decay_mid":
        "bf733679d024b1ead7a5664f7f1fd7974d6661689fc3184b386c6a822a33f3d8",
    "taxi_explvalues_decay_slow":
        "8e16ab9305a72e9f2079a7296d3578617f537669bd3b45c9762bd1d40a2cd600",
    "taxi_explvalues_target_stop":
        "81dd311d89c2603c779d3a04c78f8a668940d25ec79a7404ab6ab95f177556b0",
}

# Full-length runs, 2 seeds.  The explvalues seeds latch kappa to 0 at
# episodes 117 and 109; the additive ones never do.  No 30-episode run
# above gets that far.
GOLDEN_FULL = {
    "taxi_additive_target_stop":
        "b28e46edb02e1632f23888e1dfb116c4a919914934fca8d51b09dcac146013db",
    "taxi_explvalues_target_stop":
        "b19955ba04d3e7107745455de3b7b1df42814032f2ab19b681b0ce613719f218",
}


def result_digest(config_path: Path, out_dir: Path,
                  n_episodes: int | None = N_EPISODES) -> str:
    """Digest of a 2-seed run, trimmed to ``n_episodes`` unless None."""
    config = load_config(config_path)
    config = dataclasses.replace(
        config, n_seeds=N_SEEDS,
        n_episodes=config.n_episodes if n_episodes is None else n_episodes)
    run_experiment(config, out_dir=out_dir, save_checkpoints=False)
    digest = hashlib.sha256()
    for name in RESULT_FILES:
        digest.update(name.encode() + b"\n")
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


def test_golden_covers_every_tabular_config():
    tabular = sorted(p.stem for p in CONFIG_DIR.glob("*.json")
                     if load_config(p).agent_kind != "emuq")
    assert sorted(GOLDEN) == tabular


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_result_bytes(name, tmp_path):
    assert result_digest(CONFIG_DIR / f"{name}.json", tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_FULL))
def test_golden_full_length_target_stop_bytes(name, tmp_path):
    assert (result_digest(CONFIG_DIR / f"{name}.json", tmp_path, None)
            == GOLDEN_FULL[name])
