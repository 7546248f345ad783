import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from eigennet.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


@pytest.mark.parametrize(
    "experiment", ["ac-compare", "eig-converge", "multi-eig", "audit-messages", "prop-check"]
)
def test_rerun_is_byte_identical(experiment, tmp_path, capsys):
    # roc is left out: its threshold calibration needs at least 200 trials
    # both runs write to the same directory, because the report echoes it
    config = CONFIGS / f"{experiment.replace('-', '_')}.cfg"
    out = tmp_path / "out"
    argv = [experiment, "--config", str(config), "--out", str(out), "--trials", "1"]
    outputs = []
    for _ in range(2):
        assert cli_main(argv) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        shutil.rmtree(out)
    assert f"{experiment}_report.json" in outputs[0]
    if experiment != "prop-check":
        assert f"{experiment}.csv" in outputs[0]
    assert outputs[0] == outputs[1]


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
