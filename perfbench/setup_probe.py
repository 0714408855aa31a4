"""Set-up time in a fresh process: import exval, then build the first
environment and agent of a config, as run_single does for seed 0.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG_JSON
Prints {"setup_s": ..., "import_s": ...}; interpreter start-up is not
included.
"""

import json
import sys
import time

t0 = time.perf_counter()
import exval  # noqa: E402  (timed import)
t1 = time.perf_counter()
from exval.bench import load_config, make_agent  # noqa: E402
from exval.core import seed_streams  # noqa: E402
from exval.envs import make_env  # noqa: E402

config = load_config(sys.argv[1])
env_rng, agent_rng, _ = seed_streams(config.base_seed, 0)
env = make_env(config.env_name, **config.env_params)
agent = make_agent(config, env, agent_rng)
t2 = time.perf_counter()
print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0}))
