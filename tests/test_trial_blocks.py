"""Experiment outputs do not depend on how the trials are blocked.

Trials run in blocks of ``experiments.TRIAL_BLOCK``; each test patches the
block to sizes that split the trials differently (one trial per block, and
sizes that do not divide the trial count) and compares the rows with those
of the default block.
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


def shipped(experiment, trials):
    text = (CONFIGS / f"{experiment.replace('-', '_')}.cfg").read_text()
    return dataclasses.replace(validate_config(text, experiment), trials=trials)


def rows(experiment, trials):
    return RUNNERS[experiment](shipped(experiment, trials)).rows


@lru_cache(maxsize=None)
def default_rows(experiment, trials):
    return rows(experiment, trials)


@pytest.mark.parametrize("block", [1, 3])
def test_roc(block, monkeypatch):
    expected = default_rows("roc", 200)
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", block)
    got = rows("roc", 200)
    assert len(got) == len(expected)
    for a, b in zip(expected, got):
        assert (b["detector"], b["pipeline"]) == (a["detector"], a["pipeline"])
        assert (b["pfa"], b["pd"]) == (a["pfa"], a["pd"])
        assert b["threshold"] == pytest.approx(a["threshold"], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("experiment", ["eig-converge", "multi-eig"])
@pytest.mark.parametrize("block", [1, 3])
def test_mse_experiments(experiment, block, monkeypatch):
    expected = default_rows(experiment, 7)
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", block)
    got = rows(experiment, 7)
    assert len(got) == len(expected)
    for a, b in zip(expected, got):
        assert {k: v for k, v in b.items() if k != "mse"} == {
            k: v for k, v in a.items() if k != "mse"
        }
        assert b["mse"] == pytest.approx(a["mse"], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("block", [1, 2])
def test_link_failure_streams_stay_per_trial(block, monkeypatch):
    # every trial draws its failures from its own generator; a stream shared
    # or reordered across trials would move the MSE by O(1), not by rounding
    expected = default_rows("ac-compare", 3)
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", block)
    got = rows("ac-compare", 3)
    assert [r["engine"] for r in got] == [r["engine"] for r in expected]
    assert any(r["engine"] == "chebyshev+failures" for r in got)
    for a, b in zip(expected, got):
        assert b["mse"] == pytest.approx(a["mse"], rel=1e-12, abs=0.0)
