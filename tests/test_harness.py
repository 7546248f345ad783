import dataclasses
import json
import typing

import numpy as np
import pytest

from eigennet import experiments
from eigennet.cli import main as cli_main
from eigennet.detection import threshold_from_h0
from eigennet.errors import ConfigError, DetectionError
from eigennet.harness import (
    _KEY_TO_FIELD,
    ExperimentConfig,
    ExperimentReport,
    _convert,
    emit_csv,
    emit_report,
    parse_config_text,
    run,
    trial_seed,
    validate_config,
)
from eigennet.topology import dump_edge_list, generate_random_geometric


class TestConfigParsing:
    def test_minimal_roc_gets_defaults(self):
        cfg = validate_config("trials = 500\n", "roc")
        assert (cfg.k, cfg.n, cfg.sigma2) == (40, 10, 1.0)
        assert cfg.m == (20,)
        assert cfg.engine == "chebyshev"

    def test_comments_and_blank_lines(self):
        raw = parse_config_text("# header\n\nK = 7  # inline\n")
        assert raw == {"K": "7"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("K 7\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("K = 7\nK = 8\n")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as err:
            validate_config("K = 8\nbogus = 1\n", "roc")
        assert "bogus" in str(err.value)

    def test_missing_required_keys_listed_together(self):
        with pytest.raises(ConfigError) as err:
            validate_config("topology = file\n", None)
        msg = str(err.value)
        assert "experiment" in msg and "graph_file" in msg

    def test_experiment_mismatch(self):
        with pytest.raises(ConfigError):
            validate_config("experiment = roc\n", "ac-compare")

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError):
            validate_config("trials = 0\n", "roc")

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            validate_config("alphas = 0.1 1.5\n", "roc")

    def test_int_list_parsing(self):
        cfg = validate_config("I = 5, 10, 15\nM = 4\n", "ac-compare")
        assert cfg.ac_iters == (5, 10, 15)
        assert cfg.m == (4,)

    def test_every_field_has_one_key_whose_text_parses_to_its_type(self):
        fields = dataclasses.fields(ExperimentConfig)
        names = {f.name for f in fields}
        assert sorted(f.name for f in _KEY_TO_FIELD.values()) == sorted(names)
        assert set(_KEY_TO_FIELD) - names == {"K", "N", "P", "M", "I"}
        hints = typing.get_type_hints(ExperimentConfig)
        # the fields without a default value of their type
        samples = {"experiment": "roc", "graph_file": "graph.txt"}
        for key, f in _KEY_TO_FIELD.items():
            value = samples.get(f.name, f.default)
            text = " ".join(map(str, value)) if isinstance(value, tuple) else str(value)
            parsed = _convert(key, text)
            assert parsed == value, key
            hint = hints[f.name]
            if typing.get_origin(hint) is tuple:
                item = typing.get_args(hint)[0]
                assert type(parsed) is tuple and all(type(x) is item for x in parsed), key
            else:
                assert isinstance(parsed, hint), key

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            validate_config("K = forty\n", "roc")

    def test_failures_engine_needs_probability(self):
        with pytest.raises(ConfigError):
            cfg = validate_config(
                "engines = chebyshev+failures\nK = 8\ntrials = 2\nradius = 0.9\nM = 2\nI = 2\n",
                "ac-compare",
            )
            run(cfg)


class TestTrialSeeds:
    def test_deterministic_and_distinct(self):
        a = [trial_seed(42, i) for i in range(100)]
        b = [trial_seed(42, i) for i in range(100)]
        assert a == b
        assert len(set(a)) == 100
        assert a != [trial_seed(43, i) for i in range(100)]

    def test_documented_formula(self):
        # splitmix64(splitmix64(master) XOR (index + 1))
        def splitmix64(x):
            mask = (1 << 64) - 1
            x = (x + 0x9E3779B97F4A7C15) & mask
            z = x
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return (z ^ (z >> 31)) & mask

        assert trial_seed(7, 3) == splitmix64(splitmix64(7) ^ 4)


class TestEmission:
    def _report(self, rows, schema="roc"):
        cfg = validate_config("trials = 500\n", "roc")
        return ExperimentReport(
            config=cfg, rows=rows, schema=schema, trial_seeds=[1, 2], duration_s=0.1
        )

    def test_empty_report_header_only(self, tmp_path):
        path = emit_csv(self._report([]), tmp_path)
        assert path.read_text() == "detector,pipeline,threshold,pfa,pd\n"

    def test_single_row_two_lines(self, tmp_path):
        row = {"detector": "RT", "pipeline": "exact", "threshold": 0.1, "pfa": 0.5, "pd": 1.0}
        path = emit_csv(self._report([row]), tmp_path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "RT,exact,0.1,0.5,1.0"

    def test_floats_roundtrip(self, tmp_path):
        value = 0.1 + 0.2  # 0.30000000000000004
        row = {"detector": "RT", "pipeline": "exact", "threshold": value, "pfa": 0.0, "pd": 0.0}
        path = emit_csv(self._report([row]), tmp_path)
        text_value = path.read_text().splitlines()[1].split(",")[2]
        assert float(text_value) == value


class TestEndToEnd:
    SIGNAL = "K = 8\nN = 5\nseed = 13\n"
    BASE = SIGNAL + "radius = 0.9\ntopology_seed = 2\n"

    def run_experiment(self, experiment, extra, tmp_path, base=BASE):
        cfg = validate_config(base + extra, experiment)
        report = run(cfg)
        paths = emit_report(report, tmp_path)
        return report, paths

    def test_ac_compare(self, tmp_path):
        report, paths = self.run_experiment("ac-compare", "M = 3\nI = 2 4\ntrials = 4\n", tmp_path)
        csv = (tmp_path / "ac-compare.csv").read_text().splitlines()
        assert csv[0] == "experiment,engine,algorithm,K,N,M,I,trials,eig_index,mse"
        assert len(csv) == 1 + len(report.rows)
        engines = {line.split(",")[1] for line in csv[1:]}
        assert engines == {"ideal", "standard", "chebyshev"}

    def test_ac_compare_with_link_failures(self, tmp_path):
        report, _ = self.run_experiment(
            "ac-compare",
            "M = 3\nI = 3\ntrials = 3\nengines = chebyshev chebyshev+failures\n"
            "link_failure_prob = 0.2\n",
            tmp_path,
        )
        engines = {r["engine"] for r in report.rows}
        assert "chebyshev+failures" in engines
        failed = next(r for r in report.rows if r["engine"] == "chebyshev+failures")
        assert np.isfinite(failed["mse"]) and failed["mse"] >= 0.0

    def test_eig_converge(self, tmp_path):
        report, _ = self.run_experiment("eig-converge", "M = 2 4\nI = 3\ntrials = 4\n", tmp_path)
        algos = {r["algorithm"] for r in report.rows}
        assert algos == {"dpm", "dla", "pm-ideal", "la-ideal"}
        for r in report.rows:
            assert r["K"] == 8 and r["N"] == 5 and r["trials"] == 4

    def test_multi_eig(self, tmp_path):
        report, _ = self.run_experiment(
            "multi-eig", "M = 4\nI = 3 5\neig_indices = 1 3\ntrials = 4\n", tmp_path
        )
        assert {r["eig_index"] for r in report.rows} == {1, 3}
        assert {r["I"] for r in report.rows} == {3, 5}

    def test_roc(self, tmp_path):
        report, _ = self.run_experiment(
            "roc", "M = 2 3\nI = 4\ntrials = 60\nalphas = 0.2 0.5\nsnr_db = 10\n",
            tmp_path,
        )
        pipelines = {r["pipeline"] for r in report.rows}
        assert "exact" in pipelines and "dla-m3" in pipelines and "dpm-m2" in pipelines
        for r in report.rows:
            assert 0.0 <= r["pfa"] <= 1.0 and 0.0 <= r["pd"] <= 1.0
        # endpoints present
        rt_exact = [r for r in report.rows if r["detector"] == "RT" and r["pipeline"] == "exact"]
        assert any(r["pfa"] == 1.0 and r["pd"] == 1.0 for r in rt_exact)
        assert any(r["pfa"] == 0.0 and r["pd"] == 0.0 for r in rt_exact)
        # GT is not defined for power-method pipelines
        assert not any(
            r["detector"] == "GT" and r["pipeline"].startswith(("pm-", "dpm-"))
            for r in report.rows
        )
        # both Ritz-sum and exact-trace variants are reported for GT
        assert "dla-m3-tr" in pipelines and "la-m2-tr" in pipelines
        assert not any(
            r["detector"] == "RT" and r["pipeline"].endswith("-tr")
            for r in report.rows
        )

    def test_audit_messages(self, tmp_path):
        report, _ = self.run_experiment("audit-messages", "M = 3\nI = 5\n", tmp_path)
        csv = (tmp_path / "audit-messages.csv").read_text().splitlines()
        assert csv[0] == "algorithm,node,degree,ac_n_calls,ac_1_calls,units,time_periods"
        assert len(csv) == 1 + 2 * 8
        for r in report.rows:
            n, m, i = 5, 3, 5
            if r["algorithm"] == "dpm":
                assert r["units"] == i * (m * n + n + 1) * r["degree"]
            else:
                assert r["units"] == i * (m * n + m) * r["degree"]

    def test_prop_check(self, tmp_path):
        # prop-check builds no network
        report, paths = self.run_experiment("prop-check", "M = 4\n", tmp_path, self.SIGNAL)
        assert report.schema is None
        assert report.extra["dpm_vector_residual"] < 1e-10
        data = json.loads((tmp_path / "prop-check_report.json").read_text())
        assert "dla_w_second_order_ratio" in data["extra"]

    def test_csv_byte_identical_across_reruns(self, tmp_path):
        for sub in ("a", "b"):
            cfg = validate_config(self.BASE + "M = 3\nI = 2\ntrials = 4\n", "ac-compare")
            emit_report(run(cfg), tmp_path / sub)
        for name in ("ac-compare.csv", "ac-compare_report.json", "topology.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_topology_file_mode(self, tmp_path):
        g = generate_random_geometric(8, 0.9, 5)
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(dump_edge_list(g))
        cfg = validate_config(
            self.SIGNAL
            + f"M = 2\nI = 2\ntrials = 2\ntopology = file\ngraph_file = {graph_file}\n",
            "ac-compare",
        )
        report = run(cfg)
        assert report.topology_text == dump_edge_list(g)


class TestCli:
    def write_config(self, tmp_path, text):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        return str(path)

    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, "K = 6\nN = 4\nM = 2\nI = 2\ntrials = 2\nradius = 0.9\n"
        )
        code = cli_main(["ac-compare", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "ac-compare.csv").exists()
        assert "rows" in capsys.readouterr().out

    def test_validation_error_exit_one(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "trials = 0\n")
        assert cli_main(["roc", "--config", cfg]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exit_one(self, tmp_path):
        assert cli_main(["roc", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_runtime_error_exit_two(self, tmp_path, capsys):
        # samples too large for floating point show only when drawn
        cfg = self.write_config(
            tmp_path,
            "K = 6\nN = 4\nM = 2\nI = 2\ntrials = 200\nradius = 0.9\nsigma2 = 1e300\n",
        )
        assert cli_main(["roc", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "runtime error" in capsys.readouterr().err

    def test_too_few_calibration_trials_fail_before_sampling(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(experiments, "gen_h0", drawn.append)
        monkeypatch.setattr(experiments, "gen_h1", drawn.append)
        # 25 trials calibrate alpha = 0.5 but not 0.05
        with pytest.raises(ConfigError) as early:
            validate_config(
                "K = 6\nN = 4\nM = 2\nI = 2\ntrials = 25\nradius = 0.9\nalphas = 0.5 0.05\n",
                "roc",
            )
        assert drawn == []
        with pytest.raises(DetectionError) as late:
            threshold_from_h0(np.zeros(25), 0.05)
        assert str(early.value) == str(late.value)
        assert str(early.value) == "25 calibration trials are too few for alpha=0.05 (need at least 200)"

    @pytest.mark.parametrize(
        "experiment, text",
        [
            ("eig-converge", "I = 10 10\n"),
            ("multi-eig", "eig_indices = 1 1\n"),
            ("roc", "detectors = GT GT\nalphas = 0.5\n"),
            ("ac-compare", "I = 10 10\n"),
            ("ac-compare", "engines = standard chebyshev standard\n"),
        ],
    )
    def test_repeated_list_entries_exit_one(self, experiment, text, tmp_path, capsys):
        # each repeat would count its rows or MSE terms twice
        cfg = self.write_config(tmp_path, "K = 6\nN = 4\nM = 2\ntrials = 20\n" + text)
        out = tmp_path / "o"
        assert cli_main([experiment, "--config", cfg, "--out", str(out)]) == 1
        key = text.split(" =")[0]
        assert f"{key} entries must not repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_repeats_that_change_no_row_are_accepted(self):
        cfg = validate_config("M = 5 5\nalphas = 0.1 0.1\nP = 2\nsnr_db = 5 5\n", "roc")
        assert (cfg.m, cfg.alphas, cfg.snr_db) == ((5, 5), (0.1, 0.1), (5.0, 5.0))

    def test_cli_overrides(self, tmp_path):
        cfg = self.write_config(
            tmp_path, "K = 6\nN = 4\nM = 2\nI = 2\ntrials = 2\nradius = 0.9\nseed = 1\n"
        )
        out = tmp_path / "o"
        code = cli_main(
            ["ac-compare", "--config", cfg, "--out", str(out), "--seed", "9", "--trials", "3"]
        )
        assert code == 0
        data = json.loads((out / "ac-compare_report.json").read_text())
        assert data["config"]["seed"] == 9
        assert data["config"]["trials"] == 3
        assert len(data["trial_seeds"]) == 3
