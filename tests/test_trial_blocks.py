"""Experiment outputs do not depend on how the trials are blocked.

Trials run in blocks of ``experiments.TRIAL_BLOCK``; each test patches the
block to sizes that split the trials differently (one trial per block, and
sizes that do not divide the trial count) and requires the rows to equal
those of the default block bit for bit.
"""

import dataclasses
from functools import lru_cache
from pathlib import Path

import pytest

from eigennet import experiments
from eigennet.harness import validate_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

RUNNERS = {
    "roc": experiments.run_roc,
    "eig-converge": experiments.run_eig_converge,
    "multi-eig": experiments.run_multi_eig,
    "ac-compare": experiments.run_ac_compare,
}


def shipped(experiment, trials, **keys):
    text = (CONFIGS / f"{experiment.replace('-', '_')}.cfg").read_text()
    return dataclasses.replace(validate_config(text, experiment), trials=trials, **keys)


def rows(experiment, trials, **keys):
    return RUNNERS[experiment](shipped(experiment, trials, **keys)).rows


@lru_cache(maxsize=None)
def default_rows(experiment, trials, **keys):
    return rows(experiment, trials, **keys)


@pytest.mark.parametrize("block", [1, 3])
def test_roc(block, monkeypatch):
    expected = default_rows("roc", 200)
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", block)
    assert rows("roc", 200) == expected


@pytest.mark.parametrize("block", [1, 3])
def test_roc_with_every_detector(block, monkeypatch):
    # JT also reads the exact-trace pipelines and the DLA's trace consensus,
    # and ST reads none of them; alpha 0.2 calibrates on 50 noise-only trials
    keys = {"detectors": ("JT", "RT", "ST", "GT"), "alphas": (0.2, 0.5)}
    expected = default_rows("roc", 50, **keys)
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", block)
    assert rows("roc", 50, **keys) == expected


@pytest.mark.parametrize("experiment", ["eig-converge", "multi-eig"])
@pytest.mark.parametrize("block", [1, 3])
def test_mse_experiments(experiment, block, monkeypatch):
    expected = default_rows(experiment, 7)
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", block)
    assert rows(experiment, 7) == expected


@pytest.mark.parametrize("block", [1, 2])
def test_link_failure_streams_stay_per_trial(block, monkeypatch):
    # every trial draws its failures from its own generator; a stream shared
    # or reordered across trials would move the MSE by O(1), not by rounding
    expected = default_rows("ac-compare", 3)
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", block)
    got = rows("ac-compare", 3)
    assert any(r["engine"] == "chebyshev+failures" for r in got)
    assert got == expected
