"""Experiment implementations behind the harness.

Each runner consumes a validated :class:`~eigennet.harness.ExperimentConfig`
and returns an :class:`~eigennet.harness.ExperimentReport`. Trials are
seeded through :func:`~eigennet.harness.trial_seed`; every pipeline inside
one trial sees the same sample matrix, so pipeline comparisons are paired.

Trials run in consecutive blocks of ``TRIAL_BLOCK``: samples and starting
values are still drawn per trial from the trial's seed, then the block's
DPM/DLA runs and centralized baselines each run once on the stacked trials,
and every result is read back per trial in trial order, so the block size
changes no output. An engine token gives one consensus config for the
whole block. Under ``+failures`` that config holds one failure generator
per trial, seeded from the trial's seed, and draws each trial's links from
the trial's own generator, so each trial's link failures do not depend on
the blocking.
The runners read only estimates, so their DPM/DLA runs keep no error trace.

Every Monte-Carlo runner builds one trial table, ``_trial_table``. Stage 1
is a module-level function of (cfg, weights, hypothesis, block seeds) that
runs one block and yields per-trial values by key; the table keeps a copy
of each, because a slice of a block's (B, M, K) history would keep all of
it alive, and concatenates each key's values in trial order. Stage 2
reduces the table once per run. Each trial's values depend on that trial
alone, so the blocking changes no output.

- ac-compare, eig-converge and multi-eig share ``_convergence_block``: it
  draws the signal-present samples and their exact spectrum, and yields
  each row's per-trial MSE over nodes, taken from the (B, K) estimates of
  the runner's row function. Stage 2 sums each row's errors in trial order.
  eig-converge and multi-eig score every node, so their DLA runs extract
  every node's Ritz values, block by block.
- roc's ``_roc_block`` yields the exact spectra, the power-method values,
  the centralized Lanczos coefficients and sizes, the report node's DLA
  coefficients, sizes and DPM checkpoints, and both traces, for both
  hypotheses' blocks, noise-only first. Stage 2 runs one Ritz extraction
  over every centralized and report-node DLA row, then one statistic call
  per (detector, pipeline) over all 2 x ``trials`` rows, which saves the
  fixed cost of per-block extraction and statistic calls.

The block is bounded because a block's working set (samples, covariances,
consensus outputs and Lanczos histories, and the Ritz stacks of every node
in eig-converge and multi-eig) grows with it and shows in the peak RSS.
Measured on roc at 200 trials (2-core Xeon, medians of three processes);
the first row keeps the error traces, as every run did before they became
opt-in:

    block           in-process loop     perfbench/run.py --workload roc
                    run      RSS        run_s    peak_rss_mb
    16, traced      0.25 s   42.9 MB    0.31 s   45.13 MB
    16              0.15 s   41.8 MB    0.15 s   44.17 MB
    32              0.13 s   42.2 MB    0.13 s   44.54 MB
    64              0.12 s   44.0 MB    0.14 s   46.45 MB

32 is the largest block whose peak RSS stays at or below that of traced
blocks of 16; blocks of 64 add about 1.9 MB and run no faster beyond the
run-to-run drift.
"""

from __future__ import annotations

import numpy as np

from .consensus import AcConfig, ErrorInjectingEngine
from .detection import STATISTICS, compute_statistic, threshold_from_h0, trace_consensus
from .distributed import (
    _extract_ritz,
    audit_messages,
    check_dpm_convergence_condition,
    default_dla_start,
    default_dpm_start,
    matrix_error_for_drift,
    run_dla,
    run_dpm,
    predict_dpm_vector_error,
    predict_lambda1_error,
)
from .eigencore import (
    EigenSolution,
    _lanczos_stack,
    covariance_eigenvalues,
    power_method,
    sample_covariance,
)
from .errors import ConfigError, TopologyError
from .harness import ExperimentConfig, ExperimentReport, _splitmix64, trial_seed
from .signals import SignalConfig, gen_h0, gen_h1, samples_with_spectrum
from .topology import (
    dump_edge_list,
    generate_random_geometric,
    load_edge_list,
    metropolis_weights,
    spectral_bounds,
)

__all__ = [
    "run_ac_compare",
    "run_eig_converge",
    "run_multi_eig",
    "run_roc",
    "run_audit_messages",
    "run_prop_check",
]


TRIAL_BLOCK = 32  # trials per block; the module docstring says why it is bounded


def _sub_seed(seed: int, tag: int) -> int:
    return _splitmix64(seed ^ tag)


def _topology(cfg: ExperimentConfig):
    """The configured network's weights and its edge-list text."""
    if cfg.topology == "generate":
        graph = generate_random_geometric(cfg.k, cfg.radius, cfg.topology_seed)
    else:
        from pathlib import Path

        # an unreadable, malformed or disconnected file is a configuration fault
        try:
            graph = load_edge_list(Path(cfg.graph_file).read_text())
            graph.require_connected()
        except (OSError, UnicodeDecodeError, TopologyError) as exc:
            raise ConfigError(f"graph_file {cfg.graph_file!r}: {exc}") from exc
    if graph.node_count != cfg.k:
        raise ConfigError(
            f"topology has {graph.node_count} nodes but K={cfg.k} was configured"
        )
    weights = metropolis_weights(graph)
    # fills the bounds cache: weights without the consensus eigenvalue fail here
    spectral_bounds(weights)
    return weights, dump_edge_list(graph)


def _make_ac(token: str, i_iters: int, cfg, weights, seeds: list[int], tag: int):
    """The consensus config of a block whose trials have seeds ``seeds``.

    Under a ``+failures`` token it holds one failure generator per trial,
    seeded from the trial's seed and ``tag``.
    """
    base = token.split("+", 1)[0]
    if not token.endswith("+failures"):
        return AcConfig(base, i_iters, weights=weights)
    return AcConfig(
        base,
        i_iters,
        weights=weights,
        link_failure_prob=cfg.link_failure_prob,
        failure_seed=[_sub_seed(s, tag) for s in seeds],
    )


def _signal_cfg(cfg: ExperimentConfig, seed: int, hypothesis: int) -> SignalConfig:
    if hypothesis == 0:
        return SignalConfig(k=cfg.k, n=cfg.n, sigma2=cfg.sigma2, seed=seed)
    snr = cfg.snr_db if len(cfg.snr_db) == cfg.p else cfg.snr_db * cfg.p
    return SignalConfig(
        k=cfg.k, n=cfg.n, sigma2=cfg.sigma2, p=cfg.p, snr_db=snr, seed=seed
    )


def _base_row(cfg: ExperimentConfig, **labels) -> dict:
    """A convergence row: the run's own fields, then the row's ``labels``."""
    return {"experiment": cfg.experiment, "K": cfg.k, "N": cfg.n, "trials": cfg.trials, **labels}


def _blocks(hypothesis: int, seeds: list[int]) -> list[tuple[int, list[int]]]:
    """Consecutive blocks of at most ``TRIAL_BLOCK`` seeds, each with its hypothesis."""
    starts = range(0, len(seeds), TRIAL_BLOCK)
    return [(hypothesis, seeds[i : i + TRIAL_BLOCK]) for i in starts]


def _draw(cfg: ExperimentConfig, hypothesis: int, seeds: list[int]) -> np.ndarray:
    """The (B, K, N) samples of one block under ``hypothesis``, one seed per trial."""
    sigs = [_signal_cfg(cfg, s, hypothesis) for s in seeds]
    return np.stack([gen_h0(sig) if hypothesis == 0 else gen_h1(sig)[0] for sig in sigs])


def _dpm_starts(k: int, seeds: list[int]) -> np.ndarray:
    return np.stack([default_dpm_start(k, seed=_sub_seed(s, 0xA5)) for s in seeds])


def _trial_table(cfg: ExperimentConfig, weights, blocks, stage1, *args) -> dict:
    """Stage 1 over every block in order: each key's values over all trials.

    ``stage1(cfg, weights, hypothesis, seeds, *args)`` runs one
    ``(hypothesis, seeds)`` block of ``blocks`` and yields ``(key, values)``
    pairs, one row of ``values`` per trial. Keys come out in the order the
    first block yields them.
    """
    parts: dict = {}
    for hypothesis, seeds in blocks:
        for key, values in stage1(cfg, weights, hypothesis, seeds, *args):
            # a copy: a slice of a block's (B, M, K) history keeps all of it alive
            parts.setdefault(key, []).append(np.array(values))
    return {key: np.concatenate(p) for key, p in parts.items()}


def _convergence_block(cfg: ExperimentConfig, weights, hypothesis, seeds, rows):
    """Stage 1 of a convergence experiment: each row's per-trial MSE over nodes.

    ``rows(cfg, weights, seeds, y)`` yields one triple per row: the row's
    engine, algorithm, I and M labels; the 1-based index of the eigenvalue
    the row estimates, which is also its ``eig_index`` label; and the
    block's (B, K) estimates of it, which are scored against that
    eigenvalue of each trial's sample covariance.
    """
    y = _draw(cfg, hypothesis, seeds)
    truth = covariance_eigenvalues(y)
    for label, index, est in rows(cfg, weights, seeds, y):
        key = tuple({**label, "eig_index": index}.items())
        yield key, np.mean((est - truth[:, index - 1, None]) ** 2, axis=1)


def _convergence_report(cfg: ExperimentConfig, rows) -> ExperimentReport:
    """The MSE rows of a convergence experiment, over every trial of the run.

    Rows come out in the order ``rows`` (see ``_convergence_block``) yields them.
    """
    weights, topo = _topology(cfg)
    seeds = [trial_seed(cfg.seed, t) for t in range(cfg.trials)]
    table = _trial_table(cfg, weights, _blocks(1, seeds), _convergence_block, rows)
    out = []
    for key, errors in table.items():
        total = 0.0
        for err in errors.tolist():  # in trial order: np.sum adds pairwise
            total += err
        out.append(_base_row(cfg, **dict(key), mse=total / cfg.trials))
    return ExperimentReport(
        config=cfg,
        rows=out,
        schema="convergence",
        trial_seeds=seeds,
        topology_text=topo,
    )


def _ac_compare_rows(cfg: ExperimentConfig, weights, seeds, y):
    """The exact-consensus DPM, then each engine at each averaging time.

    M is one entry, so each DPM run has the one checkpoint max(M).
    """
    v0 = _dpm_starts(cfg.k, seeds)
    runs = [("ideal", 0)] + [(token, i) for token in cfg.engines for i in cfg.ac_iters]
    for token, i_iters in runs:
        ac = _make_ac(token, i_iters, cfg, weights, seeds, 0xF0 + i_iters)
        yield from _dpm_rows(cfg, y, ac, v0, engine=token, algorithm="dpm", I=i_iters)


def run_ac_compare(cfg: ExperimentConfig) -> ExperimentReport:
    """Largest-eigenvalue MSE of the DPM under different consensus engines.

    All engines and averaging times see the same per-trial sample matrices
    and starting values; the exact-consensus run provides the floor.
    """
    return _convergence_report(cfg, _ac_compare_rows)


def _dla_lambda(filtered: np.ndarray, index: int) -> np.ndarray:
    """Per-node estimate of the index-th eigenvalue, zero when missing.

    ``filtered`` is a NaN-padded (..., nodes, j) stack of filtered Ritz
    lists, each row's kept values first.
    """
    if index > filtered.shape[-1]:
        return np.zeros(filtered.shape[:-1])
    est = filtered[..., index - 1]
    return np.where(np.isnan(est), 0.0, est)


def _dla_rows(cfg: ExperimentConfig, y, ac, indices, **label):
    """One DLA run's rows: each index's estimate at each checkpoint M.

    Rows run by index, then M, and skip an index above its M.
    """
    checkpoints = sorted(set(cfg.m))
    stacks = run_dla(
        y, ac, cfg.m_max, default_dla_start(cfg.k), ritz_iters=checkpoints
    ).eigenvalue_stacks
    for index in indices:
        for j in checkpoints:
            if index <= j:
                yield {**label, "M": j}, index, _dla_lambda(stacks[j], index)


def _dpm_rows(cfg: ExperimentConfig, y, ac, v0, **label):
    """One DPM run's rows: the largest eigenvalue's estimate at each checkpoint M."""
    checkpoints = tuple(sorted(set(cfg.m)))
    lams = run_dpm(y, ac, cfg.m_max, v0, checkpoints=checkpoints).checkpoints
    for j in checkpoints:
        yield {**label, "M": j}, 1, lams[j]


def _eig_converge_rows(cfg: ExperimentConfig, weights, seeds, y):
    """DLA, then DPM, at each averaging time; then both under exact consensus.

    The failure-stream tag of each row is I << 8 with its role in the low
    byte (0xE0 for the DLA, 0xD0 for the DPM), so no two rows share a stream.
    """
    v0 = _dpm_starts(cfg.k, seeds)
    i_grid = sorted(cfg.ac_iters)
    for i_iters in i_grid:
        ac = _make_ac(cfg.engine, i_iters, cfg, weights, seeds, i_iters << 8 | 0xE0)
        yield from _dla_rows(cfg, y, ac, [1], engine=cfg.engine, algorithm="dla", I=i_iters)
    for i_iters in i_grid:
        ac = _make_ac(cfg.engine, i_iters, cfg, weights, seeds, i_iters << 8 | 0xD0)
        yield from _dpm_rows(cfg, y, ac, v0, engine=cfg.engine, algorithm="dpm", I=i_iters)
    ideal = AcConfig("ideal", 0, weights=weights)
    yield from _dla_rows(cfg, y, ideal, [1], engine="ideal", algorithm="la-ideal", I=0)
    yield from _dpm_rows(cfg, y, ideal, v0, engine="ideal", algorithm="pm-ideal", I=0)


def run_eig_converge(cfg: ExperimentConfig) -> ExperimentReport:
    """Largest-eigenvalue MSE against the iteration count, per algorithm.

    The run always executes max(M) algorithm iterations; estimates are
    recorded at every iteration count listed in M.
    """
    return _convergence_report(cfg, _eig_converge_rows)


def _multi_eig_rows(cfg: ExperimentConfig, weights, seeds, y):
    """One DLA run per averaging time, every configured index scored, on the
    failure streams of eig-converge's DLA rows."""
    for i_iters in sorted(cfg.ac_iters):
        ac = _make_ac(cfg.engine, i_iters, cfg, weights, seeds, i_iters << 8 | 0xE0)
        yield from _dla_rows(
            cfg, y, ac, sorted(cfg.eig_indices), engine=cfg.engine, algorithm="dla", I=i_iters
        )


def run_multi_eig(cfg: ExperimentConfig) -> ExperimentReport:
    """Per-eigenvalue-index MSE of the decentralized Lanczos estimates.

    As in the convergence experiment, M lists the iteration counts at which
    estimates are recorded; the run executes max(M) iterations.
    """
    return _convergence_report(cfg, _multi_eig_rows)


def _roc_central(y: np.ndarray, v0: np.ndarray, v1: np.ndarray, m_grid: list[int]):
    """The exact and centralized rows of one roc block, and the exact traces.

    A generator of its own, so the block's covariance stack is freed before
    the decentralized runs.
    """
    r = sample_covariance(y)
    yield "exact", covariance_eigenvalues(y)
    yield from zip(("la-alpha", "la-beta", "la-sizes"), _lanczos_stack(r, v1, m_grid[-1]))
    # one power method to max(M), each checkpoint continuing the last
    v, done = v0, 0
    for m in m_grid:
        results = power_method(r, v, m - done)
        yield f"pm-m{m}", [[p.value] for p in results]
        v, done = np.stack([p.vector for p in results]), m
    yield "exact-trace", np.real(np.trace(r, axis1=1, axis2=2))


def _roc_block(cfg: ExperimentConfig, weights, hypothesis: int, seeds: list[int]):
    """Stage 1 of roc: one block's per-trial rows, decentralized ones at the report node."""
    m_grid = sorted(set(cfg.m))
    node = cfg.report_node
    y = _draw(cfg, hypothesis, seeds)
    v0 = _dpm_starts(cfg.k, seeds)
    v1 = default_dla_start(cfg.k)
    yield from _roc_central(y, v0, v1, m_grid)
    i_iters = cfg.ac_iters[0]
    ac = _make_ac(cfg.engine, i_iters, cfg, weights, seeds, 0xD0)
    dpm_lam = run_dpm(y, ac, m_grid[-1], v0, checkpoints=tuple(m_grid)).checkpoints
    for m in m_grid:
        yield f"dpm-m{m}", dpm_lam[m][:, node, None]
    # only the report node's matrices are solved; run_dla still checks every
    # node's coefficients
    ac = _make_ac(cfg.engine, i_iters, cfg, weights, seeds, 0xE0)
    dla = run_dla(y, ac, m_grid[-1], v1, ritz_iters=())
    yield "dla-alpha", dla.alpha_hist[:, :, node]
    yield "dla-beta", dla.beta_hist[:, :, node]
    yield "dla-sizes", dla.sizes[:, node]
    if any(STATISTICS[d].takes_trace for d in cfg.detectors):
        ac = _make_ac(cfg.engine, i_iters, cfg, weights, seeds, 0xF2)
        yield "dla-trace", trace_consensus(y, ac)[:, node]


def run_roc(cfg: ExperimentConfig) -> ExperimentReport:
    """ROC curves for each detector across eigenvalue pipelines.

    Per trial, the exact spectrum, the centralized power-method and Lanczos
    estimates at every configured M, and the decentralized runs all consume
    the same sample matrix. ``trials`` counts sensing periods per
    hypothesis; noise-only and signal trials use disjoint seed indices.
    Statistics of decentralized pipelines are read at ``report_node``, and
    the DLA's Ritz values are extracted at that node only. Every pipeline
    calibrates its thresholds on ``trials`` noise-only values; the config
    check rejects too few of them for the smallest alpha.
    """
    weights, topo = _topology(cfg)
    m_grid = sorted(set(cfg.m))
    total = 2 * cfg.trials
    seeds = [trial_seed(cfg.seed, t) for t in range(total)]
    blocks = _blocks(0, seeds[: cfg.trials]) + _blocks(1, seeds[cfg.trials :])
    table = _trial_table(cfg, weights, blocks, _roc_block)
    # stage 2: every row of the run at once, H0 trials first; each row's
    # results depend on that row alone. One Ritz extraction covers the
    # centralized Lanczos rows, then the report node's DLA rows.
    coefficients = (
        np.concatenate((table[f"la-{x}"], table[f"dla-{x}"]))
        for x in ("alpha", "beta", "sizes")
    )
    _, ritz = _extract_ritz(*coefficients, m_grid, cfg.k, cfg.n)
    la = {m: ritz[m][:total] for m in m_grid}
    dla = {m: ritz[m][total:] for m in m_grid}
    # (pipeline, its eigenvalue stacks, whether they are lists or lambda_1
    # alone, its trace); the exact-trace variants replace a partial list's sum
    # by the covariance trace (a scalar consensus for the decentralized one),
    # and run when stage 1 ran that consensus
    scored = [("exact", table["exact"], True, None)]
    for m in m_grid:
        scored += [
            (f"pm-m{m}", table[f"pm-m{m}"], False, None),
            (f"la-m{m}", la[m], True, None),
            (f"dpm-m{m}", table[f"dpm-m{m}"], False, None),
            (f"dla-m{m}", dla[m], True, None),
        ]
    if "dla-trace" in table:
        for name, lists, trace in (("la", la, "exact-trace"), ("dla", dla, "dla-trace")):
            scored += [(f"{name}-m{m}-tr", lists[m], True, table[trace]) for m in m_grid]
    rows = []
    for detector in cfg.detectors:
        for pipeline, lists, full, trace in scored:
            if not STATISTICS[detector].reads(full, trace is not None):
                continue
            stat = compute_statistic(detector, lists, cfg.sigma2, trace=trace)
            h0, h1 = stat[: cfg.trials], stat[cfg.trials :]
            grid = sorted(
                {threshold_from_h0(h0, a) for a in cfg.alphas} | {-np.inf, np.inf}
            )
            for th in grid:
                rows.append(
                    {
                        "detector": detector,
                        "pipeline": pipeline,
                        "threshold": float(th),
                        "pfa": float(np.mean(h0 > th)),
                        "pd": float(np.mean(h1 > th)),
                    }
                )
    return ExperimentReport(
        config=cfg,
        rows=rows,
        schema="roc",
        trial_seeds=seeds,
        topology_text=topo,
    )


def run_audit_messages(cfg: ExperimentConfig) -> ExperimentReport:
    """Run both algorithms once and assert the message-counter formulas."""
    weights, topo = _topology(cfg)
    m = cfg.m[0]
    i_iters = cfg.ac_iters[0]
    s = trial_seed(cfg.seed, 0)
    y, _ = gen_h1(_signal_cfg(cfg, s, hypothesis=1))
    deg = weights.graph.degrees()
    rows = []
    for algorithm in ("dpm", "dla"):
        ac = _make_ac(cfg.engine, i_iters, cfg, weights, [s], 0xF1)
        if algorithm == "dpm":
            result = run_dpm(y, ac, m, _dpm_starts(cfg.k, [s])[0])
        else:
            # the audit reads the counters alone: no Ritz values are extracted
            result = run_dla(y, ac, m, default_dla_start(cfg.k), ritz_iters=())
        audit = audit_messages(result, ac, cfg.n)
        for k in range(cfg.k):
            rows.append(
                {
                    "algorithm": algorithm,
                    "node": k,
                    "degree": int(deg[k]),
                    "ac_n_calls": audit.ac_n_calls,
                    "ac_1_calls": audit.ac_1_calls,
                    "units": audit.units_per_node[k],
                    "time_periods": audit.time_periods,
                }
            )
    return ExperimentReport(
        config=cfg,
        rows=rows,
        schema="audit",
        trial_seeds=[s],
        topology_text=topo,
    )


def _injected_dpm(y, m, v0, scale, seed):
    """DPM run with seeded synthetic consensus errors of the given scale."""
    k, n = y.shape
    rng = np.random.default_rng(seed)
    errors = [
        scale * (rng.standard_normal((1, k, n)) + 1j * rng.standard_normal((1, k, n)))
        for _ in range(m + 1)
    ]
    errors.append(scale * rng.standard_normal((1, k, 1)))
    return run_dpm(y, ErrorInjectingEngine(errors), m, v0, trace=True)


def _injected_dla(y, m, v1, scale, seed):
    k, n = y.shape
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(m):
        errors.append(
            scale * (rng.standard_normal((1, k, n)) + 1j * rng.standard_normal((1, k, n)))
        )
        errors.append(scale * rng.standard_normal((1, k, 1)))
    return run_dla(y, ErrorInjectingEngine(errors), m, v1, trace=True)


def _drift_driven_dpm(y, vectors, m, drift_of_j, v0):
    """DPM run whose per-iteration drift follows a prescribed magnitude law.

    ``vectors`` holds the eigenvectors of the sample covariance of ``y`` as
    columns; the drift points along the sum of all but the first. Rounds
    m and later, the eigenvalue stage, run without error.
    """
    direction = vectors[:, 1:].sum(axis=1)
    direction /= np.max(np.abs(direction))

    def errors(call_index, z0):
        if call_index >= m:
            return np.zeros_like(z0)
        return matrix_error_for_drift(y, drift_of_j(call_index + 1) * direction)[None]

    return run_dpm(y, ErrorInjectingEngine(errors), m, v0, trace=True)


def run_prop_check(cfg: ExperimentConfig) -> ExperimentReport:
    """Residuals of the closed-form error expressions, plus the drift-decay check.

    Reconstruction identities are exercised with synthetic consensus errors
    on the configured problem size; the convergence condition runs on a
    fixed 8-node instance with a controlled spectrum (top eigenvalue above
    1, as the condition requires). Results land in the JSON report.
    """
    s = trial_seed(cfg.seed, 0)
    y, _ = gen_h1(_signal_cfg(cfg, s, hypothesis=1))
    m = cfg.m_max
    v0 = _dpm_starts(cfg.k, [s])[0]
    v1 = default_dla_start(cfg.k)

    dpm_res = _injected_dpm(y, m, v0, 0.01, _sub_seed(s, 1))
    v_pred = predict_dpm_vector_error(dpm_res, sample_covariance(y))
    vec_resid = float(
        np.max(np.abs(v_pred - dpm_res.v_hist[m])) / np.max(np.abs(dpm_res.v_hist[m]))
    )
    lam_rec = predict_lambda1_error(dpm_res, y)
    lam_resid = float(
        np.max(np.abs(lam_rec - dpm_res.lambda1)) / np.max(np.abs(dpm_res.lambda1))
    )

    def dla_residual(scale):
        res = _injected_dla(y, m, v1, scale, _sub_seed(s, 2))
        resid = np.abs(res.trace.w_error_measured - res.trace.w_error_predicted)
        return float(np.max(resid))

    r_full = dla_residual(1e-3)
    r_half = dla_residual(5e-4)
    ratio = r_full / r_half if r_half > 0 else float("inf")

    m_conv = 60
    # Well-separated spectrum: drift at the admissible rate must still let
    # the iterate angle vanish.
    spectrum = np.array([2.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3])
    y8, (vals8, vecs8) = samples_with_spectrum(spectrum, _sub_seed(s, 3))
    oracle = EigenSolution(vals8, vecs8)
    rate = vals8[0] / max(vals8[1], 1.0)
    res_decay = _drift_driven_dpm(
        y8, vecs8, m_conv,
        lambda j: 0.05 * rate**j / (j + 1.0) ** 2,
        vecs8[:, 0].copy(),
    )
    verdict_decay = check_dpm_convergence_condition(res_decay, oracle)
    # Near-degenerate spectrum: constant drift keeps the angle away from
    # zero over the observation window.
    flat = np.array([1.05, 1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7])
    y_flat, (vals_f, vecs_f) = samples_with_spectrum(flat, _sub_seed(s, 4))
    oracle_f = EigenSolution(vals_f, vecs_f)
    res_const = _drift_driven_dpm(y_flat, vecs_f, m_conv, lambda j: 0.1, vecs_f[:, 0].copy())
    verdict_const = check_dpm_convergence_condition(res_const, oracle_f)

    extra = {
        "dpm_vector_residual": vec_resid,
        "lambda1_residual": lam_resid,
        "dla_w_residual": r_full,
        "dla_w_residual_half_scale": r_half,
        "dla_w_second_order_ratio": ratio,
        "drift_decay": {
            "satisfied": verdict_decay.condition_satisfied,
            "rate_margin": verdict_decay.rate_margin,
            "sin_theta_final": verdict_decay.sin_theta_final,
        },
        "drift_constant": {
            "satisfied": verdict_const.condition_satisfied,
            "rate_margin": verdict_const.rate_margin,
            "sin_theta_final": verdict_const.sin_theta_final,
        },
    }
    return ExperimentReport(
        config=cfg,
        rows=[],
        schema=None,
        trial_seeds=[s],
        extra=extra,
    )
