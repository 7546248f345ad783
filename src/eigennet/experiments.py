"""Experiment implementations behind the harness.

Each runner consumes a validated :class:`~eigennet.harness.ExperimentConfig`
and returns an :class:`~eigennet.harness.ExperimentReport`. Trials are
seeded through :func:`~eigennet.harness.trial_seed`; every pipeline inside
one trial sees the same sample matrix, so pipeline comparisons are paired.

Trials run in consecutive blocks of ``TRIAL_BLOCK``: samples and starting
values are still drawn per trial from the trial's seed, then the block's
DPM/DLA runs, centralized baselines and detection statistics each run once
on the stacked trials, and every result is read back per trial in trial
order, so the block size changes no output. A fixed-weight engine token
gives one consensus config that the whole block shares; a ``+failures``
token gives one config per trial, its failure generator seeded from the
trial's seed, so each trial's link failures do not depend on the blocking.
The runners read only estimates, so their DPM/DLA runs keep no error trace.
The block is bounded because a block's working set (samples, covariances,
consensus outputs, Lanczos histories and the Ritz stacks of every node)
grows with it and shows in the peak RSS. Measured on roc at 200 trials
(2-core Xeon, medians of three processes); the first row keeps the error
traces, as every run did before they became opt-in:

    block           in-process loop     perfbench/run.py --workload roc
                    run      RSS        run_s    peak_rss_mb
    16, traced      0.80 s   43.0 MB    0.84 s   45.05 MB
    16              0.66 s   41.5 MB    0.72 s   43.71 MB
    32              0.64 s   42.6 MB    0.62 s   44.77 MB
    64              0.60 s   45.0 MB    0.59 s   47.02 MB

32 is the largest block whose peak RSS stays at or below that of traced
blocks of 16.
"""

from __future__ import annotations

import numpy as np

from .consensus import AcConfig, ErrorInjectingEngine
from .detection import compute_statistic, threshold_from_h0, trace_consensus
from .distributed import (
    _extract_ritz,
    audit_messages,
    check_dpm_convergence_condition,
    default_dla_start,
    default_dpm_start,
    make_convergence_trace,
    matrix_error_for_drift,
    run_dla,
    run_dpm,
    predict_dpm_vector_error,
    predict_lambda1_error,
)
from .eigencore import EigenSolution, lanczos, power_method, sample_covariance

# Not called here: roc's centralized Ritz lists go through _extract_ritz like
# the decentralized ones. Kept importable from this module, where the
# per-layer tracer in perfbench/tracing.py looks them up.
from .eigencore import filter_spurious, tridiagonal_eigenvalues  # noqa: F401
from .errors import ConfigError
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
    if cfg.topology == "generate":
        graph = generate_random_geometric(cfg.k, cfg.radius, cfg.topology_seed)
    else:
        from pathlib import Path

        graph = load_edge_list(Path(cfg.graph_file).read_text())
        graph.require_connected()
    if graph.node_count != cfg.k:
        raise ConfigError(
            f"topology has {graph.node_count} nodes but K={cfg.k} was configured"
        )
    weights = metropolis_weights(graph)
    cheb = spectral_bounds(weights)
    return graph, weights, cheb, dump_edge_list(graph)


def _make_ac(token: str, i_iters: int, cfg, weights, cheb, seeds: list[int], tag: int):
    """The consensus of a block whose trials have seeds ``seeds``.

    A fixed-weight token gives one config that the block shares. A
    ``+failures`` token gives one config per trial, whose failure generator
    is seeded from the trial's seed and ``tag``.
    """
    base = token.split("+", 1)[0]
    failures = token.endswith("+failures")
    if failures and cfg.link_failure_prob <= 0:
        raise ConfigError(
            "link_failure_prob must be positive when a +failures engine is used"
        )
    if base == "ideal":
        return AcConfig("ideal", i_iters, weights=weights)
    cheb = cheb if base == "chebyshev" else None
    if not failures:
        return AcConfig(base, i_iters, weights=weights, cheb=cheb)
    return [
        AcConfig(
            base,
            i_iters,
            weights=weights,
            cheb=cheb,
            link_failure_prob=cfg.link_failure_prob,
            failure_seed=_sub_seed(s, tag),
        )
        for s in seeds
    ]


def _signal_cfg(cfg: ExperimentConfig, seed: int, hypothesis: int) -> SignalConfig:
    if hypothesis == 0:
        return SignalConfig(k=cfg.k, n=cfg.n, sigma2=cfg.sigma2, seed=seed)
    snr = cfg.snr_db if len(cfg.snr_db) == cfg.p else cfg.snr_db * cfg.p
    return SignalConfig(
        k=cfg.k, n=cfg.n, sigma2=cfg.sigma2, p=cfg.p, snr_db=snr, seed=seed
    )


def _base_row(cfg: ExperimentConfig, **overrides) -> dict:
    row = {
        "experiment": cfg.experiment,
        "engine": cfg.engine,
        "algorithm": "",
        "K": cfg.k,
        "N": cfg.n,
        "M": cfg.m_max,
        "I": cfg.ac_iters[0],
        "trials": cfg.trials,
        "eig_index": 1,
        "mse": 0.0,
    }
    row.update(overrides)
    return row


def _blocks(seeds: list[int]) -> list[list[int]]:
    """Consecutive blocks of at most ``TRIAL_BLOCK`` trial seeds."""
    return [seeds[i : i + TRIAL_BLOCK] for i in range(0, len(seeds), TRIAL_BLOCK)]


def _h1_block(cfg: ExperimentConfig, seeds: list[int]) -> np.ndarray:
    """The (B, K, N) signal-present samples of one block, one seed per trial."""
    return np.stack([gen_h1(_signal_cfg(cfg, s, hypothesis=1))[0] for s in seeds])


def _dpm_starts(k: int, seeds: list[int]) -> np.ndarray:
    return np.stack([default_dpm_start(k, seed=_sub_seed(s, 0xA5)) for s in seeds])


def _add_mse(total: float, estimates: np.ndarray, truth: np.ndarray) -> float:
    """Add each trial's mean squared error over its nodes, trial by trial.

    ``estimates`` is (B, K) and ``truth`` (B,); the sum runs in trial order,
    so blocking the trials does not change it.
    """
    for err in np.mean((estimates - truth[:, None]) ** 2, axis=1).tolist():
        total += err
    return total


def run_ac_compare(cfg: ExperimentConfig) -> ExperimentReport:
    """Largest-eigenvalue MSE of the DPM under different consensus engines.

    All engines and averaging times see the same per-trial sample matrices
    and starting values; the exact-consensus run provides the floor.
    """
    graph, weights, cheb, topo = _topology(cfg)
    m = cfg.m_max
    seeds = [trial_seed(cfg.seed, t) for t in range(cfg.trials)]
    blocks = []
    for block in _blocks(seeds):
        y = _h1_block(cfg, block)
        lam1 = np.linalg.eigvalsh(sample_covariance(y))[:, -1]
        blocks.append((block, y, _dpm_starts(cfg.k, block), lam1))

    def dpm_mse(make_ac) -> float:
        total = 0.0
        for block, y, v0, lam1 in blocks:
            res = run_dpm(y, make_ac(block), m, v0)
            total = _add_mse(total, res.lambda1, lam1)
        return total / cfg.trials

    rows = [
        _base_row(
            cfg,
            engine="ideal",
            algorithm="dpm",
            I=0,
            mse=dpm_mse(lambda block: AcConfig("ideal", 0, weights=weights)),
        )
    ]
    for token in cfg.engines:
        for i_iters in cfg.ac_iters:
            mse = dpm_mse(
                lambda block, tok=token, ii=i_iters: _make_ac(
                    tok, ii, cfg, weights, cheb, block, 0xF0 + ii
                )
            )
            rows.append(
                _base_row(cfg, engine=token, algorithm="dpm", I=i_iters, mse=mse)
            )
    return ExperimentReport(
        config=cfg,
        rows=rows,
        schema="convergence",
        trial_seeds=seeds,
        duration_s=0.0,
        topology_text=topo,
    )


def _dla_lambda(filtered: np.ndarray, index: int) -> np.ndarray:
    """Per-node estimate of the index-th eigenvalue, zero when missing.

    ``filtered`` is a NaN-padded (..., nodes, j) stack of filtered Ritz
    lists, each row's kept values first.
    """
    if index > filtered.shape[-1]:
        return np.zeros(filtered.shape[:-1])
    est = filtered[..., index - 1]
    return np.where(np.isnan(est), 0.0, est)


def run_eig_converge(cfg: ExperimentConfig) -> ExperimentReport:
    """Largest-eigenvalue MSE against the iteration count, per algorithm.

    The run always executes max(M) algorithm iterations; estimates are
    recorded at every iteration count listed in M.
    """
    graph, weights, cheb, topo = _topology(cfg)
    m = cfg.m_max
    seeds = [trial_seed(cfg.seed, t) for t in range(cfg.trials)]
    checkpoints = tuple(sorted(set(cfg.m)))
    acc: dict[tuple[str, int, int], float] = {}
    for block in _blocks(seeds):
        y = _h1_block(cfg, block)
        lam1 = np.linalg.eigvalsh(sample_covariance(y))[:, -1]
        v0 = _dpm_starts(cfg.k, block)
        v1 = default_dla_start(cfg.k)

        def add(key, estimates):
            acc[key] = _add_mse(acc.get(key, 0.0), estimates, lam1)

        def dpm(algorithm, i_iters, ac):
            lams = run_dpm(y, ac, m, v0, checkpoints=checkpoints).checkpoints
            for j, lam in lams.items():
                add((algorithm, i_iters, j), lam)

        def dla(algorithm, i_iters, ac):
            stacks = run_dla(
                y, ac, m, v1, ritz_iters=checkpoints, spurious_tol_rel=cfg.spurious_tol
            ).eigenvalue_stacks
            for j in checkpoints:
                add((algorithm, i_iters, j), _dla_lambda(stacks[j], 1))

        def engines(i_iters, tag):
            return _make_ac(cfg.engine, i_iters, cfg, weights, cheb, block, tag)

        ideal = AcConfig("ideal", 0, weights=weights)
        dpm("pm-ideal", 0, ideal)
        dla("la-ideal", 0, ideal)
        for i_iters in cfg.ac_iters:
            dpm("dpm", i_iters, engines(i_iters, 0xD0 + i_iters))
            dla("dla", i_iters, engines(i_iters, 0xE0 + i_iters))
    rows = []
    for (algorithm, i_iters, j), total in sorted(acc.items()):
        engine = "ideal" if algorithm.endswith("-ideal") else cfg.engine
        rows.append(
            _base_row(
                cfg,
                engine=engine,
                algorithm=algorithm,
                I=i_iters,
                M=j,
                mse=total / cfg.trials,
            )
        )
    return ExperimentReport(
        config=cfg,
        rows=rows,
        schema="convergence",
        trial_seeds=seeds,
        duration_s=0.0,
        topology_text=topo,
    )


def run_multi_eig(cfg: ExperimentConfig) -> ExperimentReport:
    """Per-eigenvalue-index MSE of the decentralized Lanczos estimates.

    As in the convergence experiment, M lists the iteration counts at which
    estimates are recorded; the run executes max(M) iterations.
    """
    graph, weights, cheb, topo = _topology(cfg)
    m = cfg.m_max
    seeds = [trial_seed(cfg.seed, t) for t in range(cfg.trials)]
    indices = [i for i in cfg.eig_indices if i <= m]
    checkpoints = tuple(sorted(set(cfg.m)))
    acc: dict[tuple[int, int, int], float] = {}
    for block in _blocks(seeds):
        y = _h1_block(cfg, block)
        lam_true = np.linalg.eigvalsh(sample_covariance(y))[:, ::-1]
        v1 = default_dla_start(cfg.k)
        for i_iters in cfg.ac_iters:
            ac = _make_ac(cfg.engine, i_iters, cfg, weights, cheb, block, 0xE0 + i_iters)
            stacks = run_dla(
                y, ac, m, v1,
                ritz_iters=checkpoints,
                spurious_tol_rel=cfg.spurious_tol,
            ).eigenvalue_stacks
            for j in checkpoints:
                for idx in indices:
                    if idx > j:
                        continue
                    est = _dla_lambda(stacks[j], idx)
                    key = (i_iters, idx, j)
                    acc[key] = _add_mse(acc.get(key, 0.0), est, lam_true[:, idx - 1])
    rows = []
    for (i_iters, idx, j), total in sorted(acc.items()):
        rows.append(
            _base_row(
                cfg,
                algorithm="dla",
                I=i_iters,
                M=j,
                eig_index=idx,
                mse=total / cfg.trials,
            )
        )
    return ExperimentReport(
        config=cfg,
        rows=rows,
        schema="convergence",
        trial_seeds=seeds,
        duration_s=0.0,
        topology_text=topo,
    )


def run_roc(cfg: ExperimentConfig) -> ExperimentReport:
    """ROC curves for each detector across eigenvalue pipelines.

    Per trial, the exact spectrum, the centralized power-method and Lanczos
    estimates at every configured M, and the decentralized runs all consume
    the same sample matrix. ``trials`` counts sensing periods per
    hypothesis; noise-only and signal trials use disjoint seed indices.
    Statistics of decentralized pipelines are read at ``report_node``.
    """
    graph, weights, cheb, topo = _topology(cfg)
    m_grid = sorted(set(cfg.m))
    m_max = m_grid[-1]
    node = cfg.report_node
    i_iters = cfg.ac_iters[0]
    seeds = [trial_seed(cfg.seed, t) for t in range(2 * cfg.trials)]
    pipelines = ["exact"]
    for m in m_grid:
        pipelines += [f"pm-m{m}", f"la-m{m}", f"dpm-m{m}", f"dla-m{m}"]
    ratio_kinds = [d for d in cfg.detectors if d != "RT"]
    if ratio_kinds:
        # exact-trace variants: the partial-spectrum sum is replaced by the
        # covariance trace (a scalar consensus for the decentralized one)
        pipelines += [f"la-m{m}-tr" for m in m_grid]
        pipelines += [f"dla-m{m}-tr" for m in m_grid]

    def applicable(detector: str, pipeline: str) -> bool:
        if pipeline.endswith("-tr"):
            return detector != "RT"
        if detector == "RT":
            return True
        return pipeline == "exact" or pipeline.startswith(("la-", "dla-"))

    def engines(block: list[int], tag: int):
        return _make_ac(cfg.engine, i_iters, cfg, weights, cheb, block, tag)

    values: dict[tuple[str, str, int], list[float]] = {
        (d, p, h): []
        for d in cfg.detectors
        for p in pipelines
        if applicable(d, p)
        for h in (0, 1)
    }

    def central_lists(y: np.ndarray, v0: np.ndarray, v1: np.ndarray):
        """The exact and centralized pipelines' lists, and the exact traces.

        Each list is one NaN-padded (trials, width) stack. A function of its
        own, so the block's covariance stack is freed before the
        decentralized runs.
        """
        r = sample_covariance(y)
        # centralized Lanczos: each trial is one row of the Ritz extraction
        t_central = lanczos(r, v1, m_max)
        alpha = np.zeros((len(y), m_max))
        beta = np.zeros((len(y), m_max))
        for row, t in enumerate(t_central):
            alpha[row, : t.size] = t.alpha
            beta[row, : t.size - 1] = t.beta
        _, la_stacks = _extract_ritz(
            alpha,
            beta,
            np.array([t.size for t in t_central]),
            m_grid,
            cfg.k,
            cfg.n,
            cfg.spurious_tol,
        )
        lists = {"exact": np.linalg.eigvalsh(r)[:, ::-1]}
        for m in m_grid:
            lists[f"pm-m{m}"] = np.array([[p.value] for p in power_method(r, v0, m)])
            lists[f"la-m{m}"] = la_stacks[m]
        return lists, np.real(np.trace(r, axis1=1, axis2=2))

    def add_block(hyp: int, block: list[int]) -> None:
        """Append one block's statistics to ``values``, trial by trial.

        A function of its own, so the block's runs are freed before the
        next block's start.
        """
        sigs = [_signal_cfg(cfg, s, hypothesis=hyp) for s in block]
        y = np.stack([gen_h0(sig) if hyp == 0 else gen_h1(sig)[0] for sig in sigs])
        v0 = _dpm_starts(cfg.k, block)
        v1 = default_dla_start(cfg.k)
        lists, exact_trace = central_lists(y, v0, v1)
        dpm_lam = run_dpm(
            y, engines(block, 0xD0), m_max, v0, checkpoints=tuple(m_grid)
        ).checkpoints
        dla_lam = run_dla(
            y, engines(block, 0xE0), m_max, v1,
            ritz_iters=m_grid,
            spurious_tol_rel=cfg.spurious_tol,
        ).eigenvalue_stacks
        traces: dict[str, np.ndarray] = {}
        for m in m_grid:
            lists[f"dpm-m{m}"] = dpm_lam[m][:, node, None]
            lists[f"dla-m{m}"] = dla_lam[m][:, node]
        if ratio_kinds:
            dec_trace = trace_consensus(y, engines(block, 0xF2))[:, node]
            for m in m_grid:
                lists[f"la-m{m}-tr"] = lists[f"la-m{m}"]
                traces[f"la-m{m}-tr"] = exact_trace
                lists[f"dla-m{m}-tr"] = lists[f"dla-m{m}"]
                traces[f"dla-m{m}-tr"] = dec_trace
        for detector in cfg.detectors:
            for pipeline in pipelines:
                if not applicable(detector, pipeline):
                    continue
                stat = compute_statistic(
                    detector,
                    lists[pipeline],
                    cfg.sigma2,
                    trace=traces.get(pipeline),
                )
                values[(detector, pipeline, hyp)].extend(stat.value.tolist())

    for hyp in (0, 1):
        for block in _blocks(seeds[hyp * cfg.trials : (hyp + 1) * cfg.trials]):
            add_block(hyp, block)
    rows = []
    for detector in cfg.detectors:
        for pipeline in pipelines:
            if not applicable(detector, pipeline):
                continue
            h0 = np.asarray(values[(detector, pipeline, 0)])
            h1 = np.asarray(values[(detector, pipeline, 1)])
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
        duration_s=0.0,
        topology_text=topo,
    )


def run_audit_messages(cfg: ExperimentConfig) -> ExperimentReport:
    """Run both algorithms once and assert the message-counter formulas."""
    graph, weights, cheb, topo = _topology(cfg)
    m = cfg.m[0]
    i_iters = cfg.ac_iters[0]
    s = trial_seed(cfg.seed, 0)
    y, _ = gen_h1(_signal_cfg(cfg, s, hypothesis=1))
    deg = graph.degrees()
    rows = []
    for algorithm in ("dpm", "dla"):
        ac = _make_ac(cfg.engine, i_iters, cfg, weights, cheb, [s], 0xF1)
        if algorithm == "dpm":
            result = run_dpm(y, ac, m, default_dpm_start(cfg.k, _sub_seed(s, 0xA5)))
        else:
            result = run_dla(y, ac, min(m, cfg.k), default_dla_start(cfg.k))
        audit = audit_messages(result)
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
        duration_s=0.0,
        topology_text=topo,
    )


def _injected_dpm(y, m, v0, scale, seed):
    """DPM run with seeded synthetic consensus errors of the given scale."""
    k, n = y.shape
    rng = np.random.default_rng(seed)
    errors = [
        scale * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
        for _ in range(m + 1)
    ]
    errors.append(scale * rng.standard_normal(k))
    return run_dpm(y, ErrorInjectingEngine(errors), m, v0, trace=True)


def _injected_dla(y, m, v1, scale, seed):
    k, n = y.shape
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(m):
        errors.append(
            scale * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
        )
        errors.append(scale * rng.standard_normal(k))
    return run_dla(y, ErrorInjectingEngine(errors), m, v1, trace=True)


def _drift_driven_dpm(y, eig, m, drift_of_j, v0):
    """DPM run whose per-iteration drift follows a prescribed magnitude law."""
    values, vectors = eig
    k = y.shape[0]
    direction = vectors[:, 1:].sum(axis=1)
    direction /= np.max(np.abs(direction))

    def errors(call_index, z0):
        if z0.ndim == 1:
            return np.zeros(k)
        j = call_index + 1
        if j > m:
            return np.zeros_like(z0)
        return matrix_error_for_drift(y, drift_of_j(j) * direction)

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
    m = min(cfg.m_max, cfg.k)
    v0 = default_dpm_start(cfg.k, seed=_sub_seed(s, 0xA5))
    v1 = default_dla_start(cfg.k)
    r = sample_covariance(y)

    dpm_res = _injected_dpm(y, m, v0, 0.01, _sub_seed(s, 1))
    v_pred = predict_dpm_vector_error(dpm_res.trace, r, v0, m)
    vec_resid = float(
        np.max(np.abs(v_pred - dpm_res.v_hist[m])) / np.max(np.abs(dpm_res.v_hist[m]))
    )
    _, _, lam_rec = predict_lambda1_error(dpm_res.trace, y, dpm_res.v_hist[m])
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
        y8, (vals8, vecs8), m_conv,
        lambda j: 0.05 * rate**j / (j + 1.0) ** 2,
        vecs8[:, 0].copy(),
    )
    verdict_decay = check_dpm_convergence_condition(
        make_convergence_trace(res_decay, oracle), oracle, m_conv
    )
    # Near-degenerate spectrum: constant drift keeps the angle away from
    # zero over the observation window.
    flat = np.array([1.05, 1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7])
    y_flat, (vals_f, vecs_f) = samples_with_spectrum(flat, _sub_seed(s, 4))
    oracle_f = EigenSolution(vals_f, vecs_f)
    res_const = _drift_driven_dpm(
        y_flat, (vals_f, vecs_f), m_conv, lambda j: 0.1, vecs_f[:, 0].copy()
    )
    verdict_const = check_dpm_convergence_condition(
        make_convergence_trace(res_const, oracle_f), oracle_f, m_conv
    )

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
        duration_s=0.0,
        extra=extra,
    )
