"""Correctness checks on the files one experiment run emits.

Every run is checked for invariants that hold at any seed: the CSV schema,
the exact set of rows the config asks for, finite values, ``mse >= 0``,
``pfa`` and ``pd`` in [0, 1] and non-increasing in the threshold, and a JSON
report that echoes the seed, trial count and per-trial seeds. Rows with an
exact centralized counterpart are recomputed here from the public signal
and eigen functions, at any seed: the ideal-consensus DPM rows against the
centralized power method, and the roc ``exact`` pipeline against
eigenvalues of the sample covariance. At the shipped seed and the
benchmark's trial count the rows are also compared with the reference CSV
files recorded in ``reference/``. Tolerances are set below.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CONVERGENCE_COLUMNS = (
    "experiment", "engine", "algorithm", "K", "N", "M", "I", "trials", "eig_index", "mse",
)
ROC_COLUMNS = ("detector", "pipeline", "threshold", "pfa", "pd")

# Reference tolerances. They admit the rounding drift of a different BLAS or
# of an exact eigen-solver in place of Sturm bisection (whose eigenvalues are
# accurate to 1e-10 (1 + ||T||)), and reject any change of the simulated
# trials, which moves an MSE by percents.
MSE_RTOL, MSE_ATOL = 1e-4, 1e-10
THRESHOLD_RTOL, THRESHOLD_ATOL = 1e-6, 1e-9
# pfa and pd are fractions of trials; a statistic sitting on a threshold may
# flip under rounding drift, so one trial's worth of difference is allowed.
RATE_TRIALS_TOL = 1


class CheckFailed(Exception):
    """The emitted files are not what the experiment must produce."""


def output_files(out_dir: Path, experiment: str) -> dict[str, bytes]:
    """Bytes of the CSV and JSON report one run wrote."""
    return {
        name: (out_dir / name).read_bytes()
        for name in (f"{experiment}.csv", f"{experiment}_report.json")
    }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rows(text: str, columns: tuple[str, ...]) -> list[dict[str, str]]:
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader, ()))
    _require(header == columns, f"CSV header {header} differs from {columns}")
    rows = [dict(zip(columns, line)) for line in reader]
    _require(all(len(r) == len(columns) for r in rows), "CSV row with a wrong field count")
    return rows


def _close(got: float, want: float, rtol: float, atol: float) -> bool:
    if math.isinf(want):
        return got == want
    return abs(got - want) <= atol + rtol * abs(want)


def _roc_point_close(row: dict[str, str], threshold: float, pfa: float, pd: float, trials: int) -> bool:
    rate_tol = (RATE_TRIALS_TOL + 1e-9) / trials
    return (
        _close(float(row["threshold"]), threshold, THRESHOLD_RTOL, THRESHOLD_ATOL)
        and abs(float(row["pfa"]) - pfa) <= rate_tol
        and abs(float(row["pd"]) - pd) <= rate_tol
    )


def _expected_convergence_keys(cfg) -> set[tuple[str, str, int, int]]:
    if cfg.experiment == "ac-compare":
        keys = {("ideal", "dpm", 0, cfg.m_max)}
        keys |= {(e, "dpm", i, cfg.m_max) for e in cfg.engines for i in cfg.ac_iters}
        return keys
    keys = set()
    for j in set(cfg.m):
        keys |= {("ideal", "pm-ideal", 0, j), ("ideal", "la-ideal", 0, j)}
        for i in cfg.ac_iters:
            keys |= {(cfg.engine, "dpm", i, j), (cfg.engine, "dla", i, j)}
    return keys


def _check_convergence(rows, cfg) -> None:
    keys = []
    for r in rows:
        mse = float(r["mse"])
        _require(math.isfinite(mse) and mse >= 0.0, f"mse {r['mse']} is not finite and >= 0")
        _require(r["experiment"] == cfg.experiment, "row names another experiment")
        _require(
            (int(r["K"]), int(r["N"]), int(r["trials"]), int(r["eig_index"]))
            == (cfg.k, cfg.n, cfg.trials, 1),
            "row echoes the wrong K, N, trials or eig_index",
        )
        keys.append((r["engine"], r["algorithm"], int(r["I"]), int(r["M"])))
    _require(len(keys) == len(set(keys)), "duplicate rows")
    _require(set(keys) == _expected_convergence_keys(cfg), "rows differ from the configured sweep")


def _expected_roc_pairs(cfg) -> set[tuple[str, str]]:
    m_grid = sorted(set(cfg.m))
    pipelines = ["exact"]
    for m in m_grid:
        pipelines += [f"pm-m{m}", f"la-m{m}", f"dpm-m{m}", f"dla-m{m}"]
    if any(d != "RT" for d in cfg.detectors):
        pipelines += [f"la-m{m}-tr" for m in m_grid] + [f"dla-m{m}-tr" for m in m_grid]
    pairs = set()
    for d in cfg.detectors:
        for p in pipelines:
            if p.endswith("-tr"):
                ok = d != "RT"
            else:
                ok = d == "RT" or p == "exact" or p.startswith(("la-", "dla-"))
            if ok:
                pairs.add((d, p))
    return pairs


def _check_roc(rows, cfg) -> None:
    curves: dict[tuple[str, str], list[tuple[float, float, float]]] = {}
    for r in rows:
        point = (float(r["threshold"]), float(r["pfa"]), float(r["pd"]))
        curves.setdefault((r["detector"], r["pipeline"]), []).append(point)
    _require(set(curves) == _expected_roc_pairs(cfg), "ROC curves differ from the configured pipelines")
    for pair, points in curves.items():
        _require(
            3 <= len(points) <= len(cfg.alphas) + 2,
            f"{pair}: {len(points)} thresholds for {len(cfg.alphas)} alphas",
        )
        th = [p[0] for p in points]
        _require(th[0] == -math.inf and th[-1] == math.inf, f"{pair}: grid not bracketed by -inf, inf")
        _require(all(math.isfinite(t) for t in th[1:-1]), f"{pair}: non-finite interior threshold")
        _require(all(a < b for a, b in zip(th, th[1:])), f"{pair}: thresholds not increasing")
        for col in (1, 2):
            rates = [p[col] for p in points]
            _require(all(0.0 <= v <= 1.0 for v in rates), f"{pair}: rate outside [0, 1]")
            _require(all(a >= b for a, b in zip(rates, rates[1:])), f"{pair}: rate increases")
            _require(rates[0] == 1.0 and rates[-1] == 0.0, f"{pair}: rate not 1 at -inf and 0 at inf")
            _require(
                all(abs(v * cfg.trials - round(v * cfg.trials)) < 1e-6 for v in rates),
                f"{pair}: rate is not a fraction of {cfg.trials} trials",
            )
        # a threshold calibrated at alpha admits at most alpha false alarms
        _require(
            all(p[1] <= max(cfg.alphas) + 1e-12 for p in points[1:]),
            f"{pair}: false-alarm rate above every calibrated alpha",
        )


def _check_report(report: dict, rows: int, cfg, trial_seed) -> None:
    _require(report["experiment"] == cfg.experiment, "report names another experiment")
    _require(report["rows"] == rows, "report row count differs from the CSV")
    _require(
        (report["config"]["seed"], report["config"]["trials"]) == (cfg.seed, cfg.trials),
        "report does not echo the seed and trial count",
    )
    n = 2 * cfg.trials if cfg.experiment == "roc" else cfg.trials
    _require(
        report["trial_seeds"] == [trial_seed(cfg.seed, t) for t in range(n)],
        "report trial seeds differ from the documented derivation",
    )


def _compare_reference(rows, reference_rows, cfg) -> None:
    _require(len(rows) == len(reference_rows), "row count differs from the reference")
    numeric = ("mse", "threshold", "pfa", "pd")
    for got, want in zip(rows, reference_rows):
        labels_match = all(got[c] == want[c] for c in want if c not in numeric)
        if "mse" in want:
            ok = _close(float(got["mse"]), float(want["mse"]), MSE_RTOL, MSE_ATOL)
        else:
            ok = _roc_point_close(got, float(want["threshold"]), float(want["pfa"]), float(want["pd"]), cfg.trials)
        _require(labels_match and ok, f"row {got} differs from the reference row {want}")


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """The mixer behind eigennet's seeds; a trial's DPM start uses seed ^ 0xA5."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _samples(en, cfg, seed: int, hypothesis: int) -> np.ndarray:
    """The sample matrix an experiment draws for one trial seed."""
    if hypothesis == 0:
        return en.gen_h0(en.SignalConfig(k=cfg.k, n=cfg.n, sigma2=cfg.sigma2, seed=seed))
    snr = cfg.snr_db if len(cfg.snr_db) == cfg.p else cfg.snr_db * cfg.p
    sig = en.SignalConfig(k=cfg.k, n=cfg.n, sigma2=cfg.sigma2, p=cfg.p, snr_db=snr, seed=seed)
    return en.gen_h1(sig)[0]


def _check_power_method_rows(rows, cfg, en) -> None:
    """Ideal-consensus DPM equals the centralized power method (acceptance 1)."""
    if cfg.experiment == "ac-compare":
        wanted = {cfg.m_max: next(r for r in rows if r["engine"] == "ideal")}
    else:
        wanted = {int(r["M"]): r for r in rows if r["algorithm"] == "pm-ideal"}
    acc = dict.fromkeys(wanted, 0.0)
    for t in range(cfg.trials):
        s = en.trial_seed(cfg.seed, t)
        r = en.sample_covariance(_samples(en, cfg, s, 1))
        lam1 = float(np.linalg.eigvalsh(r)[-1])
        v0 = en.default_dpm_start(cfg.k, seed=_splitmix64(s ^ 0xA5))
        for j in acc:
            acc[j] += (en.power_method(r, v0, j).value - lam1) ** 2
    for j, row in wanted.items():
        want = acc[j] / cfg.trials
        _require(
            _close(float(row["mse"]), want, MSE_RTOL, MSE_ATOL),
            f"ideal DPM mse {row['mse']} at M={j} differs from the power method's {want}",
        )


# Statistics on a descending spectrum with negatives clamped to zero, as
# documented in eigennet.detection.
_STATISTICS = {
    "RT": lambda lam, sigma2: lam[0] / sigma2,
    "GT": lambda lam, sigma2: lam[0] / lam.sum(),
    "JT": lambda lam, sigma2: np.sum((lam / lam.sum()) ** 2),
    "ST": lambda lam, sigma2: np.prod(lam / (lam.sum() / len(lam))),
}


def _check_exact_roc_rows(rows, cfg, en) -> None:
    """The exact pipeline's ROC from eigenvalues of the sample covariance."""
    values = {(d, h): [] for d in cfg.detectors for h in (0, 1)}
    for h in (0, 1):
        for t in range(cfg.trials):
            seed = en.trial_seed(cfg.seed, h * cfg.trials + t)
            r = en.sample_covariance(_samples(en, cfg, seed, h))
            lam = np.maximum(np.linalg.eigvalsh(r)[::-1], 0.0)
            for d in cfg.detectors:
                values[(d, h)].append(float(_STATISTICS[d](lam, cfg.sigma2)))
    for d in cfg.detectors:
        h0, h1 = np.sort(values[(d, 0)]), np.asarray(values[(d, 1)])
        # nearest-rank-higher (1 - alpha) quantile of the noise-only values
        grid = {float(h0[min(max(math.ceil((1.0 - a) * len(h0)), 1), len(h0)) - 1]) for a in cfg.alphas}
        want = [(th, np.mean(h0 > th), np.mean(h1 > th)) for th in sorted(grid | {-math.inf, math.inf})]
        got = [r for r in rows if (r["detector"], r["pipeline"]) == (d, "exact")]
        _require(len(got) == len(want), f"{d} exact: {len(got)} thresholds, expected {len(want)}")
        for row, point in zip(got, want):
            _require(
                _roc_point_close(row, *point, cfg.trials),
                f"{d} exact row {row} differs from the recomputed {point}",
            )


def check_outputs(files: dict[str, bytes], cfg, en, reference: bytes | None) -> None:
    """Raise :class:`CheckFailed` unless the emitted files are correct.

    ``en`` is the eigennet package whose public functions recompute the rows
    that have an exact centralized counterpart.
    """
    columns = ROC_COLUMNS if cfg.experiment == "roc" else CONVERGENCE_COLUMNS
    rows = _rows(files[f"{cfg.experiment}.csv"].decode(), columns)
    if cfg.experiment == "roc":
        _check_roc(rows, cfg)
        _check_exact_roc_rows(rows, cfg, en)
    else:
        _check_convergence(rows, cfg)
        _check_power_method_rows(rows, cfg, en)
    report = json.loads(files[f"{cfg.experiment}_report.json"])
    _check_report(report, len(rows), cfg, en.trial_seed)
    if reference is not None:
        _compare_reference(rows, _rows(reference.decode(), columns), cfg)


def load_reference(experiment: str, seed: int, trials: int) -> bytes | None:
    """Reference CSV recorded at this seed and trial count, if any."""
    path = REFERENCE_DIR / f"{experiment}-seed{seed}-trials{trials}.csv"
    return path.read_bytes() if path.is_file() else None
