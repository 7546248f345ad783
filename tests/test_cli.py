import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eigennet.cli import main as cli_main
from eigennet.topology import dump_edge_list, generate_random_geometric

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


@pytest.mark.parametrize(
    "experiment",
    ["ac-compare", "eig-converge", "multi-eig", "roc", "audit-messages", "prop-check"],
)
def test_rerun_is_byte_identical(experiment, tmp_path, capsys):
    # roc's threshold calibration needs 10/alpha = 200 noise-only trials, and
    # its 400 trials span many trial blocks; audit-messages and prop-check
    # run no trials
    trials = {"roc": ["--trials", "200"], "audit-messages": [], "prop-check": []}
    # the two runs write to different directories, which must not show
    config = CONFIGS / f"{experiment.replace('-', '_')}.cfg"
    outputs = []
    for out in (tmp_path / "first", tmp_path / "second" / "nested"):
        argv = [experiment, "--config", str(config), "--out", str(out)]
        assert cli_main(argv + trials.get(experiment, ["--trials", "1"])) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert f"{experiment}_report.json" in outputs[0]
    if experiment != "prop-check":
        assert f"{experiment}.csv" in outputs[0]
    assert outputs[0] == outputs[1]


def test_ac_compare_matches_recorded_output(tmp_path, capsys):
    # recorded with one link-failure redraw per consensus step; it pins every
    # trial's failure stream and the chebyshev+failures rows built on it.
    # Re-recorded when the exact lambda_1 came to be solved from the N x N
    # Gram matrix and real weights began to multiply complex iterates as one
    # real product: rounding moved every MSE, by at most 8.2e-12 relative.
    # Re-recorded when the Chebyshev scalars came to be folded into each
    # step's weights, in the ratio form: MSEs moved by at most 4.8e-11
    # relative, on chebyshev DPM at I = 25. Re-recorded when each step's
    # matrix came to be written straight from the edge weights, its diagonal
    # 1 minus a pairwise sum of the node's edge weights: MSEs moved by at
    # most 7.4e-11 relative, on chebyshev+failures DPM at I = 30.
    # Re-recorded when the DPM's eigenvalue-stage numerator came to sum the
    # squared real and imaginary parts of its consensus output: MSEs moved
    # by at most 6.3e-13 relative, on chebyshev DPM at I = 15
    argv = [
        "ac-compare", "--config", str(CONFIGS / "ac_compare.cfg"),
        "--out", str(tmp_path), "--trials", "3",
    ]
    assert cli_main(argv) == 0
    recorded = ROOT / "tests" / "data" / "ac-compare-trials3.csv"
    assert (tmp_path / "ac-compare.csv").read_bytes() == recorded.read_bytes()


@pytest.mark.parametrize(
    "experiment, trials", [("roc", "200"), ("eig-converge", "8"), ("multi-eig", "8")]
)
def test_matches_recorded_output(experiment, trials, tmp_path, capsys):
    # pins the Monte-Carlo runners' estimates to the bit, whatever the trial
    # block size and whether their DPM/DLA runs keep error traces. roc and
    # eig-converge were re-recorded, and multi-eig first recorded, when the
    # exact spectra came to be solved from the N x N Gram matrix and real
    # weights began to multiply complex iterates as one real product. That
    # moved only rounding: roc thresholds by at most 1.5e-15 relative (no
    # pfa or pd), eig-converge MSEs by at most 6.8e-8 relative, on la-ideal
    # at M = 10, whose 4.4e-15 MSE squares a Lanczos error that a few ulps
    # of the exact lambda_1 move, and the ~1e-29 rows by ~1e-29. All three
    # were re-recorded when the Chebyshev scalars came to be folded into each
    # step's weights, in the ratio form; rounding moved roc thresholds by at
    # most 4.5e-15 relative (no pfa or pd), eig-converge MSEs by at most
    # 9.4e-11 (chebyshev DLA, I = 15) and multi-eig MSEs by at most 3.0e-10
    # (chebyshev DLA, I = 30, 5th eigenvalue). All three were re-recorded
    # when each step's matrix came to be written straight from the edge
    # weights, its diagonal 1 minus a pairwise sum of the node's edge
    # weights; rounding moved roc thresholds by at most 6.2e-15 relative (no
    # pfa or pd), eig-converge MSEs by at most 1.1e-10 (chebyshev DLA,
    # I = 15) and multi-eig MSEs by at most 5.1e-10 (chebyshev DLA, I = 30,
    # 5th eigenvalue). All three were re-recorded when the DPM numerator and
    # the DLA's alpha came to sum the squared real and imaginary parts of the
    # consensus output; rounding moved roc thresholds by at most 5.7e-16
    # relative (no pfa or pd), eig-converge MSEs by at most 7.1e-12 (chebyshev
    # DLA, I = 15) on rows above 1e-12, la-ideal at M = 10 (4.4e-15) by
    # 1.6e-8 and the ~1e-29 rows by ~2e-29, and multi-eig MSEs by at most
    # 9.4e-11 (chebyshev DLA, I = 30, 3rd eigenvalue)
    config = CONFIGS / f"{experiment.replace('-', '_')}.cfg"
    argv = [experiment, "--config", str(config), "--out", str(tmp_path), "--trials", trials]
    assert cli_main(argv) == 0
    recorded = ROOT / "tests" / "data" / f"{experiment}-trials{trials}.csv"
    assert (tmp_path / f"{experiment}.csv").read_bytes() == recorded.read_bytes()


@pytest.mark.parametrize("experiment, trials", [("ac-compare", "3"), ("eig-converge", "8")])
def test_recorded_output_does_not_depend_on_blas_threads(experiment, trials, tmp_path):
    # a process of its own, whose BLAS starts with one thread: the recorded
    # files came from the default thread count. ac-compare's
    # chebyshev+failures rows run the step-by-step link-failure kernel,
    # eig-converge's rows the fixed-weight operator
    config = CONFIGS / f"{experiment.replace('-', '_')}.cfg"
    argv = [
        sys.executable, "-m", "eigennet.cli", experiment, "--config", str(config),
        "--out", str(tmp_path), "--trials", trials,
    ]
    env = dict(subprocess_env(), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    recorded = ROOT / "tests" / "data" / f"{experiment}-trials{trials}.csv"
    assert (tmp_path / f"{experiment}.csv").read_bytes() == recorded.read_bytes()


def test_one_sample_per_node_keeps_the_exact_lambda1(tmp_path, capsys):
    # N = 1: Lanczos finds the whole spectrum by iteration N + 1 = 2, so the
    # rank test must not run there; run at j > N it dropped the exact
    # lambda_1 at M = 2 and the zero-filled estimate gave MSE 84.5
    config = shipped_config(
        "eig-converge", {"K": "6", "N": "1", "M": "2", "radius": "0.9", "trials": "20"},
        tmp_path,
    )
    out = tmp_path / "out"
    assert cli_main(["eig-converge", "--config", str(config), "--out", str(out)]) == 0
    rows = (out / "eig-converge.csv").read_text().splitlines()
    header = rows[0].split(",")
    mse = {}
    for row in rows[1:]:
        fields = dict(zip(header, row.split(",")))
        assert (fields["K"], fields["N"], fields["M"], fields["trials"]) == ("6", "1", "2", "20")
        mse[fields["algorithm"], fields["I"]] = float(fields["mse"])
    assert set(mse) == {
        ("dla", "10"), ("dla", "15"), ("dpm", "10"), ("dpm", "15"),
        ("la-ideal", "0"), ("pm-ideal", "0"),
    }
    assert all(value < 1e-27 for value in mse.values()), mse


def subprocess_env():
    """The environment of a CLI subprocess that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def shipped_config(experiment, replaced, tmp_path):
    """The shipped config of ``experiment`` with the keys of ``replaced`` replaced."""
    name = experiment.replace("-", "_")
    lines = (CONFIGS / f"{name}.cfg").read_text().splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    assert set(replaced) <= set(keys)
    config = tmp_path / f"{name}.cfg"
    config.write_text(
        "\n".join(
            f"{key} = {replaced[key]}" if key in replaced else line
            for key, line in zip(keys, lines)
        )
        + "\n"
    )
    return config


def config_with(experiment, key, value, tmp_path):
    """The shipped config of ``experiment`` with one key replaced."""
    return shipped_config(experiment, {key: value}, tmp_path)


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
        ("multi-eig", "sigma2", "1e300", "3"),
        # the other end: ||R||_F^2 underflows, and a vanishing Lanczos beta
        # must break down rather than divide by zero
        ("roc", "sigma2", "1e-200", "200"),
        # the centralized Lanczos overflows too, and must not warn first
        ("roc", "sigma2", "1e300", "200"),
    ],
)
def test_overflow_prints_only_its_typed_error(experiment, key, value, trials, tmp_path):
    done = run_in_process(experiment, key, value, trials, tmp_path)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("runtime error: ")


@pytest.mark.parametrize("experiment, trials", [("roc", "200"), ("eig-converge", "3")])
def test_overflowing_sample_covariance_is_a_typed_error(experiment, trials, tmp_path):
    # the covariance products overflow while the samples are still finite
    done = run_in_process(experiment, "sigma2", "1e307", trials, tmp_path)
    assert done.returncode == 2
    assert "RuntimeWarning" not in done.stderr
    assert done.stderr == (
        "runtime error: sample covariance overflowed: the samples are too large "
        "for floating point\n"
    )


@pytest.mark.parametrize(
    "experiment", ["eig-converge", "multi-eig", "ac-compare", "audit-messages", "prop-check"]
)
def test_overflowing_source_power_is_a_typed_error(experiment, tmp_path):
    # at 1e308 the noise is finite but the source power SNR x sigma2 is not;
    # every run that draws signal samples stops there, before numpy warns
    name = experiment.replace("-", "_")
    lines = (CONFIGS / f"{name}.cfg").read_text().splitlines()
    config = tmp_path / f"{name}.cfg"
    config.write_text(
        "\n".join([line for line in lines if not line.startswith("sigma2 ")] + ["sigma2 = 1e308"])
        + "\n"
    )
    trials = None if experiment in ("audit-messages", "prop-check") else "1"
    done = run_config_in_process(experiment, config, trials, tmp_path)
    assert done.returncode == 2
    assert "RuntimeWarning" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("runtime error: source power overflowed: ")


def run_in_process(experiment, key, value, trials, tmp_path):
    """A shipped config run with one key replaced, in a process of its own."""
    config = config_with(experiment, key, value, tmp_path)
    return run_config_in_process(experiment, config, trials, tmp_path)


def run_config_in_process(experiment, config, trials, tmp_path):
    """A run of ``config`` in a process of its own, where numpy's
    floating-point warnings would reach stderr; ``trials`` None passes no
    ``--trials``."""
    argv = [
        sys.executable, "-m", "eigennet.cli", experiment, "--config", str(config),
        "--out", str(tmp_path / "out"),
    ] + (["--trials", trials] if trials is not None else [])
    return subprocess.run(
        argv, capture_output=True, text=True, env=subprocess_env(), timeout=300
    )


def test_long_chebyshev_runs_finish(tmp_path, capsys):
    # at I >= 950 the Chebyshev scalars tau_I of the shipped network used to
    # overflow, and the NaN iterates stopped the run with exit code 2 as a
    # "DPM eigenvalue stage overflowed" error
    config = config_with("ac-compare", "I", "1000", tmp_path)
    out = tmp_path / "out"
    argv = ["ac-compare", "--config", str(config), "--out", str(out), "--trials", "1"]
    assert cli_main(argv) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "ac-compare.csv").read_text().splitlines()
    assert len(rows) > 1 and all("nan" not in row for row in rows)


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


@pytest.mark.parametrize(
    "line, problem",
    [
        ("sigma2 = nan", "sigma2 must be positive and finite"),
        ("sigma2 = inf", "sigma2 must be positive and finite"),
        ("spurious_tol = nan", "spurious_tol must be positive and finite"),
        ("spurious_tol = inf", "spurious_tol must be positive and finite"),
        ("snr_db = nan", "snr_db entries must be numbers below +inf"),
        ("snr_db = inf", "snr_db entries must be numbers below +inf"),
        ("radius = nan", "radius must be positive"),
        ("link_failure_prob = nan", "link_failure_prob must lie in [0, 1)"),
        ("alphas = 0.1 nan", "alphas must lie in (0, 1)"),
    ],
)
def test_non_finite_value_is_a_config_error(line, problem, tmp_path, capsys):
    # roc reads alphas, and eig-converge reads link_failure_prob only under
    # a +failures engine
    key = line.split(" =")[0]
    experiment = "roc" if key == "alphas" else "eig-converge"
    engine = "engine = chebyshev+failures\n" if key == "link_failure_prob" else ""
    config = tmp_path / "non_finite.cfg"
    config.write_text(f"K = 6\nN = 4\nM = 2\nI = 3\ntrials = 1\n{engine}{line}\n")
    argv = [experiment, "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli_main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error: ")
    assert problem in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["radius = inf", "snr_db = -inf"])
def test_infinite_radius_and_silent_source_run(line, tmp_path, capsys):
    # an infinite radius is the complete graph, -inf dB a source of no power
    config = tmp_path / "infinite.cfg"
    config.write_text(f"K = 6\nN = 4\nM = 2\nI = 3\ntrials = 1\n{line}\n")
    argv = ["eig-converge", "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli_main(argv) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "eig-converge.csv").exists()


def test_negative_topology_seed_is_a_config_error(tmp_path, capsys):
    # the graph generator's own check stopped the run with exit code 2, as a
    # runtime error naming numpy's "expected non-negative integer"
    code, err = run_with("eig-converge", "topology_seed", "-1", "1", tmp_path, capsys)
    assert code == 1
    assert err == "config error: topology_seed must be nonnegative\n"


@pytest.mark.parametrize(
    "experiment, replaced, trials",
    [
        # two nodes, the fewest a network has
        ("eig-converge", {"K": "2", "N": "4", "M": "2", "radius": "2"}, "3"),
        # M above min(K, N), the rank of the sample covariance
        ("eig-converge", {"K": "8", "N": "2", "M": "6", "radius": "0.9"}, "3"),
        ("roc", {"K": "8", "N": "2", "M": "6", "radius": "0.9", "alphas": "0.05"}, "200"),
    ],
    ids=["eig-converge-two-nodes", "eig-converge-M-above-rank", "roc-M-above-rank"],
)
def test_degenerate_shapes_run(experiment, replaced, trials, tmp_path, capsys):
    config = shipped_config(experiment, replaced, tmp_path)
    out = tmp_path / "out"
    argv = [experiment, "--config", str(config), "--out", str(out), "--trials", trials]
    assert cli_main(argv) == 0
    assert capsys.readouterr().err == ""
    header, *rows = (out / f"{experiment}.csv").read_text().splitlines()
    finite = {"mse", "pfa", "pd"} & set(header.split(","))
    assert rows and finite
    for row in rows:
        fields = dict(zip(header.split(","), row.split(",")))
        assert all(math.isfinite(float(fields[c])) for c in finite), row
        # each ROC curve runs from threshold -inf to +inf
        assert not math.isnan(float(fields.get("threshold", 0.0))), row


def test_trials_override_is_validated_as_the_file_is(tmp_path, capsys):
    argv = [
        "eig-converge", "--config", str(CONFIGS / "eig_converge.cfg"),
        "--out", str(tmp_path / "out"), "--trials", "0",
    ]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == "config error: trials must be at least 1\n"
    assert not (tmp_path / "out").exists()


def test_audit_at_one_sample_per_node(tmp_path, capsys):
    # at N = 1 a width-N round is a (B, K, 1) stack, which was counted as a
    # scalar round: the DPM audit measured 0 width-N calls against 6 and
    # the run exited 2
    config = config_with("audit-messages", "N", "1", tmp_path)
    out = tmp_path / "out"
    assert cli_main(["audit-messages", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "audit-messages.csv").read_text().splitlines()
    header = rows[0].split(",")
    # M = 5, I = 30: DPM runs M + 1 width-N rounds and one scalar round, DLA
    # M of each
    calls = {"dpm": (6, 1), "dla": (5, 5)}
    seen = set()
    for row in rows[1:]:
        fields = dict(zip(header, row.split(",")))
        n_calls, one_calls = calls[fields["algorithm"]]
        assert (int(fields["ac_n_calls"]), int(fields["ac_1_calls"])) == (n_calls, one_calls)
        assert int(fields["units"]) == 30 * int(fields["degree"]) * (n_calls * 1 + one_calls)
        seen.add(fields["algorithm"])
    assert seen == {"dpm", "dla"}


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


@pytest.mark.parametrize(
    "experiment, key, value, entry",
    [
        ("eig-converge", "engine", "chebyshev+failures", "engine"),
        ("ac-compare", "link_failure_prob", "0", "engines entry"),
    ],
)
def test_failures_engine_at_probability_zero_is_a_config_error(
    experiment, key, value, entry, tmp_path, capsys
):
    # a +failures engine at link_failure_prob = 0 used to pass validation and
    # stop the run with exit code 2
    config = config_with(experiment, key, value, tmp_path)
    argv = [experiment, "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli_main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error: ")
    assert f"link_failure_prob must be positive for a +failures {entry}" in lines[0]
    assert not (tmp_path / "out").exists()


def file_topology_config(tmp_path, k, graph_file):
    """An eig-converge config on K nodes whose graph is read from ``graph_file``."""
    config = tmp_path / "file_topology.cfg"
    config.write_text(
        f"K = {k}\nN = 4\nM = 2\nI = 3\ntrials = 1\n"
        f"topology = file\ngraph_file = {graph_file}\n"
    )
    return config


@pytest.mark.parametrize(
    "k, edges, problem, names_file",
    [
        (3, "4\n0 1\n1 2\n2 3\n", "topology has 4 nodes but K=3 was configured", False),
        (4, None, "No such file", True),
        (4, "4\n0 1\n2 3\n", "graph is not connected", True),
        (4, "4\n0 1 2\n", "bad edge line", True),
    ],
    ids=["node-count", "missing", "disconnected", "malformed"],
)
def test_bad_graph_file_is_a_config_error(k, edges, problem, names_file, tmp_path, capsys):
    # each used to exit with code 2, as a runtime error
    graph_file = tmp_path / "graph.txt"
    if edges is not None:
        graph_file.write_text(edges)
    config = file_topology_config(tmp_path, k, graph_file)
    argv = ["eig-converge", "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli_main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error: ")
    assert problem in lines[0]
    assert (str(graph_file) in lines[0]) == names_file
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, problem",
    [
        # no checkpoint reaches index 9: the run wrote rows for 1 and 3 only
        ("K = 12\nN = 10\nM = 4\neig_indices = 1 3 9\n", "exceed max(M)"),
        # lambda_4 of a rank-2 covariance is exactly 0, and so is the
        # zero-filled estimate: the row read MSE 0.0, as if exact
        ("K = 6\nN = 2\nM = 5\neig_indices = 1 4\n", "exceed min(K, N)"),
    ],
    ids=["above-max-M", "above-rank"],
)
def test_multi_eig_index_without_an_estimate_is_a_config_error(
    text, problem, tmp_path, capsys
):
    # both used to exit 0
    config = tmp_path / "multi_eig.cfg"
    config.write_text(text + "I = 3\ntrials = 1\n")
    argv = ["multi-eig", "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli_main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"config error: eig_indices cannot {problem} for multi-eig"]
    assert not (tmp_path / "out").exists()
    # the other experiments read no eig_indices, so they reject the key
    argv = ["eig-converge", "--config", str(config), "--out", str(tmp_path / "other")]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == (
        "config error: keys that eig-converge does not read: eig_indices\n"
    )
    assert not (tmp_path / "other").exists()


@pytest.mark.parametrize(
    "experiment, key, value",
    [
        ("roc", "I", "30 5"),
        ("audit-messages", "M", "5 9"),
        ("audit-messages", "I", "30 7"),
        ("ac-compare", "M", "5 20"),
        ("prop-check", "M", "6 4"),
    ],
)
def test_list_key_read_as_one_value_takes_one_entry(experiment, key, value, tmp_path, capsys):
    # each run read only one entry: the first, or max(M) for ac-compare, so
    # the others changed no output
    config = config_with(experiment, key, value, tmp_path)
    out = tmp_path / "out"
    assert cli_main([experiment, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {key} takes one entry for {experiment}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, m",
    # K = 8 and K = 12 in the shipped configs
    [("prop-check", "30"), ("audit-messages", "20")],
)
def test_m_above_k_is_a_config_error(experiment, m, tmp_path, capsys):
    # both used to exit 0 and echo the M given, while prop-check ran K
    # iterations and the audit's DLA K rounds of each width
    config = config_with(experiment, "M", m, tmp_path)
    out = tmp_path / "out"
    assert cli_main([experiment, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: M cannot exceed K for Lanczos-based experiments\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, extra, trials, unread",
    [
        ("eig-converge", "detectors = ST\n", [], "detectors"),
        ("prop-check", "", ["--trials", "1"], "trials"),
        # the shipped roc config sets the generated network's radius and seed
        ("roc", "topology = file\ngraph_file = {graph}\n", [], "radius, topology_seed"),
        # prop-check builds no network; it used to ask for the missing graph_file
        ("prop-check", "topology = file\n", [], "topology"),
    ],
    ids=["detectors", "trials", "radius-under-file", "topology"],
)
def test_key_the_run_does_not_read_is_a_config_error(
    experiment, extra, trials, unread, tmp_path, capsys
):
    # each used to exit 0, or to fail for another key
    graph = tmp_path / "graph.txt"
    graph.write_text(dump_edge_list(generate_random_geometric(40, 0.4, 3)))
    name = experiment.replace("-", "_")
    config = tmp_path / f"{name}.cfg"
    config.write_text((CONFIGS / f"{name}.cfg").read_text() + extra.format(graph=graph))
    out = tmp_path / "out"
    assert cli_main([experiment, "--config", str(config), "--out", str(out)] + trials) == 1
    assert capsys.readouterr().err == (
        f"config error: keys that {experiment} does not read: {unread}\n"
    )
    assert not out.exists()
