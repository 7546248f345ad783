"""Set-up probe: one fresh process that gets a workload ready for its first trial.

Run as ``python3 probe.py <repo root> <config> <experiment> <seed>``. It
imports eigennet from ``<repo root>/src``, validates the config, builds the
topology with the same public functions the experiment calls, prints
``ready`` and exits. The benchmark times it from process start to that line.
"""

import sys
from pathlib import Path

root, config, experiment, seed = sys.argv[1:5]
sys.path.insert(0, str(Path(root) / "src"))

import dataclasses  # noqa: E402

from eigennet import (  # noqa: E402
    generate_random_geometric,
    metropolis_weights,
    spectral_bounds,
    validate_config,
)

cfg = validate_config(Path(config).read_text(), experiment)
cfg = dataclasses.replace(cfg, seed=int(seed))
weights = metropolis_weights(generate_random_geometric(cfg.k, cfg.radius, cfg.topology_seed))
spectral_bounds(weights)
print("ready", flush=True)
