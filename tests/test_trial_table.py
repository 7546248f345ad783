"""Stage 1 of every Monte-Carlo runner can cross a process boundary.

A worker process can only receive what pickles: the stage-1 function, its
extra arguments, the config and the weights. Each test records what one
runner hands to ``experiments._trial_table``, round-trips it through
pickle, and requires the round-tripped stage 1 to give the direct call's
keys and arrays on the first and last blocks.
"""

import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest

from eigennet import experiments
from eigennet.harness import validate_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

RUNNERS = {
    "ac-compare": (experiments.run_ac_compare, 2),
    "eig-converge": (experiments.run_eig_converge, 2),
    "multi-eig": (experiments.run_multi_eig, 2),
    # threshold calibration needs 200 noise-only trials at alpha 0.05
    "roc": (experiments.run_roc, 200),
}


def recorded_call(experiment, monkeypatch):
    """The arguments the runner passes to ``_trial_table``, from one run."""
    runner, trials = RUNNERS[experiment]
    text = (CONFIGS / f"{experiment.replace('-', '_')}.cfg").read_text()
    cfg = dataclasses.replace(validate_config(text, experiment), trials=trials)
    calls = []
    table = experiments._trial_table

    def recording(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(experiments, "_trial_table", recording)
    runner(cfg)
    (call,) = calls
    return call


@pytest.mark.parametrize("experiment", RUNNERS)
def test_stage_one_survives_pickle(experiment, monkeypatch):
    cfg, weights, blocks, stage1, *args = recorded_call(experiment, monkeypatch)
    c_cfg, c_weights, c_stage1, c_args = pickle.loads(pickle.dumps((cfg, weights, stage1, args)))
    for hypothesis, seeds in (blocks[0], blocks[-1]):
        direct = list(stage1(cfg, weights, hypothesis, seeds, *args))
        again = list(c_stage1(c_cfg, c_weights, hypothesis, seeds, *c_args))
        assert [key for key, _ in again] == [key for key, _ in direct]
        for (_, got), (_, want) in zip(again, direct):
            np.testing.assert_array_equal(got, want)
