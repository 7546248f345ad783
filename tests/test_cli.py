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


@pytest.mark.parametrize("experiment, trials", [("roc", "200"), ("eig-converge", "8")])
def test_matches_recorded_output(experiment, trials, tmp_path, capsys):
    # pins the Monte-Carlo runners' estimates to the bit, whatever the trial
    # block size and whether their DPM/DLA runs keep error traces
    config = CONFIGS / f"{experiment.replace('-', '_')}.cfg"
    argv = [experiment, "--config", str(config), "--out", str(tmp_path), "--trials", trials]
    assert cli_main(argv) == 0
    recorded = ROOT / "tests" / "data" / f"{experiment}-trials{trials}.csv"
    assert (tmp_path / f"{experiment}.csv").read_bytes() == recorded.read_bytes()


def subprocess_env():
    """The environment of a CLI subprocess that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def config_with(experiment, key, value, tmp_path):
    """The shipped config of ``experiment`` with one key replaced."""
    name = experiment.replace("-", "_")
    lines = (CONFIGS / f"{name}.cfg").read_text().splitlines()
    assert any(line.startswith(f"{key} = ") for line in lines)
    config = tmp_path / f"{name}.cfg"
    config.write_text(
        "\n".join(f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in lines)
        + "\n"
    )
    return config


def run_with(experiment, key, value, trials, tmp_path, capsys):
    """Exit code and stderr of a shipped config run with one key replaced."""
    config = config_with(experiment, key, value, tmp_path)
    out = tmp_path / "out"
    argv = [experiment, "--config", str(config), "--out", str(out), "--trials", trials]
    code = cli_main(argv)
    assert not (out / f"{experiment}.csv").exists()
    return code, capsys.readouterr().err


@pytest.mark.parametrize("experiment, trials", [("roc", "200"), ("eig-converge", "3")])
def test_power_iterate_overflow_is_a_typed_error(experiment, trials, tmp_path, capsys):
    # at 400 dB the unnormalized DPM iterate outgrows floating point within a
    # few iterations; the run must stop, not write NaN rows or collapse
    code, err = run_with(experiment, "snr_db", "400", trials, tmp_path, capsys)
    assert code == 2
    assert "runtime error: DPM" in err
    assert "overflowed" in err
    assert "ValueError" not in err


@pytest.mark.parametrize("experiment", ["eig-converge", "multi-eig"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_huge_noise_variance_is_a_typed_error(experiment, tmp_path, capsys):
    # eig-converge stops in its first (DPM) run; multi-eig runs only DLA, so
    # its non-finite Lanczos coefficients reach the Ritz extraction
    code, err = run_with(experiment, "sigma2", "1e300", "3", tmp_path, capsys)
    assert code == 2
    assert err.startswith("runtime error: ")
    assert "LinAlgError" not in err
    assert "did not converge" not in err
    if experiment == "multi-eig":
        assert "Lanczos coefficients are not finite" in err


@pytest.mark.parametrize(
    "experiment, key, value, trials",
    [
        ("roc", "snr_db", "400", "200"),
        ("eig-converge", "snr_db", "400", "3"),
        ("eig-converge", "sigma2", "1e300", "3"),
    ],
)
def test_overflow_prints_only_its_typed_error(experiment, key, value, trials, tmp_path):
    # a process of its own, where numpy's floating-point warnings would reach
    # stderr ahead of the typed error
    config = config_with(experiment, key, value, tmp_path)
    argv = [
        sys.executable, "-m", "eigennet.cli", experiment, "--config", str(config),
        "--out", str(tmp_path / "out"), "--trials", trials,
    ]
    done = subprocess.run(
        argv, capture_output=True, text=True, env=subprocess_env(), timeout=300
    )
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("runtime error: ")


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
    env = subprocess_env()
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
