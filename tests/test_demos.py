"""The demo scripts run against the current API: the three quick ones
end to end, and the two EmuQ ones (mountain car takes about a minute)
as far as their imports."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_feature_quality_demo_runs():
    out = run_demo("feature_quality.py")
    assert "regression on a goal-bump target, 64 features each" in out
    assert "random Fourier features, ls 0.1:  rmse" in out


def test_taxi_stop_exploration_demo_runs():
    out = run_demo("taxi_stop_exploration.py")
    assert "explvalues agent, seed 3" in out
    assert "additive agent, seed 3" in out
    assert out.count("mean return over the final 20 episodes") == 2


def test_chain_scaling_demo_runs():
    out = run_demo("chain_scaling.py")
    assert "steps to first goal, variance-driven agent" in out
    assert "epsilon-greedy on the length-40 chain, 30000-step budget" in out
    assert out.count("  seed ") == 5


@pytest.mark.parametrize("name", ["chain_scaling.py",
                                  "mountaincar_discovery.py"])
def test_long_demos_import(name):
    spec = importlib.util.spec_from_file_location(name[:-3], DEMOS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
