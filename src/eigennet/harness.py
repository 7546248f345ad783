"""Experiment configuration, orchestration and result emission.

Configs are flat ``key = value`` text ('#' starts a comment). An experiment
accepts only the keys it reads, which one table states, and its report
echoes only those; missing required keys are reported together. Every
experiment is driven by a master seed; trial t uses the documented per-trial
seed

    trial_seed(master, t) = splitmix64(splitmix64(master) XOR (t + 1))

so alternate implementations can match the trial partitioning even if their
raw random streams differ. Emitted CSV files are byte-identical across
reruns of the same config and seed; wall-clock duration is kept out of the
files and reported on the console.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from .detection import STATISTIC_KINDS, _check_calibration_size
from .errors import ConfigError, DetectionError

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "EXPERIMENTS",
    "trial_seed",
    "parse_config_text",
    "validate_config",
    "run",
    "emit_csv",
    "emit_report",
]

_SCHEMAS = {
    "convergence": (
        "experiment",
        "engine",
        "algorithm",
        "K",
        "N",
        "M",
        "I",
        "trials",
        "eig_index",
        "mse",
    ),
    "roc": ("detector", "pipeline", "threshold", "pfa", "pd"),
    "audit": (
        "algorithm",
        "node",
        "degree",
        "ac_n_calls",
        "ac_1_calls",
        "units",
        "time_periods",
    ),
}

_ENGINE_TOKENS = ("standard", "chebyshev", "standard+failures", "chebyshev+failures")

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Documented per-trial seed derivation (see module docstring)."""
    return _splitmix64(_splitmix64(master_seed & _MASK64) ^ ((trial_index + 1) & _MASK64))


@dataclass
class ExperimentConfig:
    experiment: str
    k: int = 40
    n: int = 10
    m: tuple[int, ...] = (20,)
    ac_iters: tuple[int, ...] = (30,)
    sigma2: float = 1.0
    p: int = 1
    snr_db: tuple[float, ...] = (5.0,)
    engine: str = "chebyshev"
    engines: tuple[str, ...] = ("standard", "chebyshev")
    link_failure_prob: float = 0.0
    trials: int = 500
    seed: int = 1
    topology: str = "generate"
    radius: float = 0.3
    topology_seed: int = 1
    graph_file: str | None = None
    detectors: tuple[str, ...] = ("RT", "GT")
    alphas: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(1, 20))
    eig_indices: tuple[int, ...] = (1, 3, 5, 9)
    report_node: int = 0
    out: str = "out"

    @property
    def m_max(self) -> int:
        return max(self.m)


@dataclass
class ExperimentReport:
    """In-memory result of one experiment run."""

    config: ExperimentConfig
    rows: list[dict]
    schema: str | None
    trial_seeds: list[int]
    duration_s: float = 0.0  # set by :func:`run`
    extra: dict = field(default_factory=dict)
    topology_text: str | None = None


# the fields whose config key is not their name
_ALIASES = {"k": "K", "n": "N", "p": "P", "m": "M", "ac_iters": "I"}

# every config key and the field it sets
_KEY_TO_FIELD = {
    _ALIASES.get(f.name, f.name): f for f in dataclasses.fields(ExperimentConfig)
}


def _m_within_k(cfg: ExperimentConfig) -> list[str]:
    if any(mi > cfg.k for mi in cfg.m):
        return ["M cannot exceed K for Lanczos-based experiments"]
    return []


def _multi_eig_checks(cfg: ExperimentConfig) -> list[str]:
    problems = _m_within_k(cfg)
    # multi-eig writes no row for an index above max(M), and scores a zero
    # estimate as exact for an index above the covariance's rank min(K, N)
    if cfg.m and cfg.eig_indices:
        if max(cfg.eig_indices) > max(cfg.m):
            problems.append("eig_indices cannot exceed max(M) for multi-eig")
        if max(cfg.eig_indices) > min(cfg.k, cfg.n):
            problems.append("eig_indices cannot exceed min(K, N) for multi-eig")
    return problems


def _roc_checks(cfg: ExperimentConfig) -> list[str]:
    problems = _m_within_k(cfg)
    # every pipeline calibrates each alpha's threshold on the noise-only
    # trials; the smallest alpha needs the most of them
    if cfg.trials >= 1 and cfg.alphas and all(0.0 < a < 1.0 for a in cfg.alphas):
        try:
            _check_calibration_size(cfg.trials, min(cfg.alphas))
        except DetectionError as exc:
            problems.append(str(exc))
    return problems


@dataclass(frozen=True)
class _Experiment:
    """What one experiment reads of its config, and the checks it adds."""

    runner: str  # its function in ``experiments``
    keys: tuple[str, ...]  # the keys it reads, besides the conditional ones
    single: tuple[str, ...] = ()  # the list keys it reads as one value
    check: Callable[[ExperimentConfig], list[str]] = lambda cfg: []  # its own problems


# every experiment draws signal-present samples from a master seed; a run
# over a network adds its topology, averaging time and engine
_SIGNAL = ("experiment", "K", "N", "M", "P", "sigma2", "snr_db", "seed")
_NETWORK = _SIGNAL + ("topology", "I")
_MONTE_CARLO = _NETWORK + ("engine", "trials")

_TABLE = {
    "ac-compare": _Experiment("run_ac_compare", _NETWORK + ("engines", "trials"), ("M",)),
    "eig-converge": _Experiment("run_eig_converge", _MONTE_CARLO, check=_m_within_k),
    "multi-eig": _Experiment(
        "run_multi_eig", _MONTE_CARLO + ("eig_indices",), check=_multi_eig_checks
    ),
    "roc": _Experiment(
        "run_roc",
        _MONTE_CARLO + ("detectors", "alphas", "report_node"),
        ("I",),
        _roc_checks,
    ),
    "audit-messages": _Experiment(
        "run_audit_messages", _NETWORK + ("engine",), ("M", "I"), _m_within_k
    ),
    "prop-check": _Experiment("run_prop_check", _SIGNAL, ("M",), _m_within_k),
}

EXPERIMENTS = tuple(_TABLE)


def _keys_read(cfg: ExperimentConfig) -> set[str]:
    """The config keys that ``cfg``'s experiment reads under ``cfg``'s settings.

    A run over a generated network reads ``radius`` and ``topology_seed``,
    one over a network file reads ``graph_file``, and one with a
    ``+failures`` engine reads ``link_failure_prob``.
    """
    keys = set(_TABLE[cfg.experiment].keys)
    if "topology" in keys:
        keys |= {"graph_file"} if cfg.topology == "file" else {"radius", "topology_seed"}
    tokens = (cfg.engine,) if "engine" in keys else cfg.engines if "engines" in keys else ()
    if any(t.endswith("+failures") for t in tokens):
        keys.add("link_failure_prob")
    return keys


def _listed(parse):
    """A parser of comma- or space-separated entries, each read by ``parse``."""
    return lambda value: tuple(parse(p) for p in value.replace(",", " ").split())


# a value's parser, by its field's annotation, and the kind of value an
# error names
_PARSERS = {
    "int": (int, "integer"),
    "float": (float, "number"),
    "str": (str, "text"),
    "str | None": (str, "text"),
    "tuple[int, ...]": (_listed(int), "integer list"),
    "tuple[float, ...]": (_listed(float), "number list"),
    "tuple[str, ...]": (_listed(str), "text list"),
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse 'key = value' lines into a string map, rejecting malformed lines."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _convert(key: str, value: str):
    """The text ``value`` of ``key`` as its field's type."""
    parse, kind = _PARSERS[_KEY_TO_FIELD[key].type]
    try:
        return parse(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as {kind}") from None


def validate_config(source: str | dict, experiment: str | None = None) -> ExperimentConfig:
    """Build a fully-defaulted, validated config from config text or a dict.

    ``experiment`` (normally the CLI subcommand) overrides a missing
    ``experiment`` key and must agree with one that is present.
    """
    raw = parse_config_text(source) if isinstance(source, str) else dict(source)
    unknown = sorted(set(raw) - _KEY_TO_FIELD.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values: dict[str, object] = {}
    for key, text_value in raw.items():
        converted = (
            _convert(key, text_value) if isinstance(text_value, str) else text_value
        )
        values[_KEY_TO_FIELD[key].name] = converted
    file_experiment = values.pop("experiment", None)
    if experiment is None:
        experiment = file_experiment
    elif file_experiment is not None and file_experiment != experiment:
        raise ConfigError(
            f"config names experiment {file_experiment!r} but {experiment!r} was requested"
        )
    if experiment is None:
        missing = ["experiment"]
        if values.get("topology") == "file" and not values.get("graph_file"):
            missing.append("graph_file")
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    if experiment not in _TABLE:
        raise ConfigError(f"experiment must be one of {', '.join(EXPERIMENTS)}")
    cfg = ExperimentConfig(experiment=experiment, **values)  # type: ignore[arg-type]
    # out is where the CLI writes: every experiment accepts it, no report echoes it
    unread = sorted(set(raw) - _keys_read(cfg) - {"out"})
    if unread:
        raise ConfigError(f"keys that {experiment} does not read: {', '.join(unread)}")
    if cfg.topology == "file" and not cfg.graph_file:
        raise ConfigError("missing required keys: graph_file")
    _check_config(cfg)
    return cfg


def _check_config(cfg: ExperimentConfig) -> None:
    spec = _TABLE[cfg.experiment]
    problems = [
        f"{key} takes one entry for {cfg.experiment}"
        for key in spec.single
        if len(getattr(cfg, _KEY_TO_FIELD[key].name)) > 1
    ]
    if cfg.k < 2:
        problems.append("K must be at least 2")
    if cfg.n < 1:
        problems.append("N must be at least 1")
    if not cfg.m or any(mi < 1 for mi in cfg.m):
        problems.append("M entries must be positive")
    if not cfg.ac_iters or any(i < 0 for i in cfg.ac_iters):
        problems.append("I entries must be nonnegative")
    # every float check is written so that NaN, which fails all comparisons,
    # fails it
    if not (0 < cfg.sigma2 < math.inf):
        problems.append("sigma2 must be positive and finite")
    if cfg.p < 1:
        # every experiment draws signal-present samples, which need a source
        problems.append("P must be at least 1")
    if cfg.p > 0 and len(cfg.snr_db) not in (1, cfg.p):
        problems.append("snr_db must have one entry or one per source")
    # -inf dB is a source of zero power
    if not all(s < math.inf for s in cfg.snr_db):
        problems.append("snr_db entries must be numbers below +inf")
    if cfg.engine not in ("ideal",) + _ENGINE_TOKENS:
        problems.append(f"engine must be one of ideal, {', '.join(_ENGINE_TOKENS)}")
    if any(e not in _ENGINE_TOKENS for e in cfg.engines):
        problems.append(f"engines entries must be among {', '.join(_ENGINE_TOKENS)}")
    if not (0.0 <= cfg.link_failure_prob < 1.0):
        problems.append("link_failure_prob must lie in [0, 1)")
    if not cfg.link_failure_prob > 0.0:
        if cfg.engine.endswith("+failures"):
            problems.append("link_failure_prob must be positive for a +failures engine")
        if any(e.endswith("+failures") for e in cfg.engines):
            problems.append("link_failure_prob must be positive for a +failures engines entry")
    if cfg.trials < 1:
        problems.append("trials must be at least 1")
    if cfg.topology not in ("generate", "file"):
        problems.append("topology must be 'generate' or 'file'")
    # an infinite radius gives the complete graph
    if not cfg.radius > 0:
        problems.append("radius must be positive")
    if any(d not in STATISTIC_KINDS for d in cfg.detectors):
        problems.append(f"detectors entries must be among {', '.join(STATISTIC_KINDS)}")
    if not cfg.alphas or any(not (0.0 < a < 1.0) for a in cfg.alphas):
        problems.append("alphas must lie in (0, 1)")
    if any(i < 1 for i in cfg.eig_indices):
        problems.append("eig_indices must be positive")
    if cfg.topology_seed < 0:
        problems.append("topology_seed must be nonnegative")
    if not (0 <= cfg.report_node < cfg.k):
        problems.append("report_node must be a valid node index")
    # a repeated entry would add its rows or MSE terms twice; repeats in M and
    # alphas collapse harmlessly, and two sources may share one snr_db
    for key, entries in (
        ("I", cfg.ac_iters),
        ("eig_indices", cfg.eig_indices),
        ("engines", cfg.engines),
        ("detectors", cfg.detectors),
    ):
        if len(set(entries)) < len(entries):
            problems.append(f"{key} entries must not repeat")
    problems += spec.check(cfg)
    if problems:
        raise ConfigError("; ".join(problems))


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute one experiment and return its report."""
    from . import experiments

    runner = getattr(experiments, _TABLE[cfg.experiment].runner)
    start = time.perf_counter()
    report = runner(cfg)
    report.duration_s = time.perf_counter() - start
    return report


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(report: ExperimentReport, out_dir: str | Path) -> Path | None:
    """Write the report rows as CSV with the schema's exact column order."""
    if report.schema is None:
        return None
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = _SCHEMAS[report.schema]
    path = out_dir / f"{report.config.experiment}.csv"
    lines = [",".join(columns)]
    for row in report.rows:
        lines.append(",".join(_format_value(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n")
    return path


def emit_report(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Write all result files: CSV rows, a JSON report, and the topology echo.

    The JSON report echoes the config keys the run read, the per-trial seeds
    and any experiment-specific summary values; it deliberately omits
    wall-clock duration and the output directory so reruns of one config and
    seed produce byte-identical files wherever they are written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    csv_path = emit_csv(report, out_dir)
    if csv_path is not None:
        paths.append(csv_path)
    read = _keys_read(report.config)
    config = {
        name: value
        for name, value in dataclasses.asdict(report.config).items()
        if _ALIASES.get(name, name) in read
    }
    payload = {
        "experiment": report.config.experiment,
        "config": config,
        "trial_seeds": report.trial_seeds,
        "rows": len(report.rows),
        "extra": report.extra,
    }
    json_path = out_dir / f"{report.config.experiment}_report.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    paths.append(json_path)
    if report.topology_text is not None:
        topo_path = out_dir / "topology.txt"
        topo_path.write_text(report.topology_text)
        paths.append(topo_path)
    return paths
