import os
import subprocess
import sys
from pathlib import Path

import pytest

from eigennet.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


@pytest.mark.parametrize(
    "experiment",
    ["ac-compare", "eig-converge", "multi-eig", "roc", "audit-messages", "prop-check"],
)
def test_rerun_is_byte_identical(experiment, tmp_path, capsys):
    # roc's threshold calibration needs 10/alpha = 200 noise-only trials, and
    # its 400 trials span many trial blocks
    trials = "200" if experiment == "roc" else "1"
    # the two runs write to different directories, which must not show
    config = CONFIGS / f"{experiment.replace('-', '_')}.cfg"
    outputs = []
    for out in (tmp_path / "first", tmp_path / "second" / "nested"):
        argv = [experiment, "--config", str(config), "--out", str(out), "--trials", trials]
        assert cli_main(argv) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert f"{experiment}_report.json" in outputs[0]
    if experiment != "prop-check":
        assert f"{experiment}.csv" in outputs[0]
    assert outputs[0] == outputs[1]


def test_ac_compare_matches_recorded_output(tmp_path, capsys):
    # recorded with one link-failure redraw per consensus step; it pins every
    # trial's failure stream and the chebyshev+failures rows built on it
    argv = [
        "ac-compare", "--config", str(CONFIGS / "ac_compare.cfg"),
        "--out", str(tmp_path), "--trials", "3",
    ]
    assert cli_main(argv) == 0
    recorded = ROOT / "tests" / "data" / "ac-compare-trials3.csv"
    assert (tmp_path / "ac-compare.csv").read_bytes() == recorded.read_bytes()


def test_no_sources_is_a_config_error(tmp_path, capsys):
    # every experiment draws signal-present samples, so P = 0 cannot run
    config = tmp_path / "no_sources.cfg"
    config.write_text("K = 6\nN = 4\nM = 2\nI = 3\nP = 0\ntrials = 1\n")
    argv = ["eig-converge", "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "P must be at least 1" in err
    assert not (tmp_path / "out").exists()


def test_closed_stdout_exits_two_without_traceback(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [
        sys.executable, "-m", "eigennet.cli", "audit-messages",
        "--config", str(CONFIGS / "audit_messages.cfg"), "--out", str(tmp_path),
    ]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes away before anything is printed
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert b"Traceback" not in err
    assert b"BrokenPipeError" not in err
    assert (tmp_path / "audit-messages.csv").exists()
