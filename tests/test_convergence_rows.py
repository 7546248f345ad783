"""Row order and values of the Monte-Carlo experiments on unshipped shapes.

The configs list ``I``, ``M``, ``engines`` and ``eig_indices`` out of order,
and 35 trials span two blocks of ``experiments.TRIAL_BLOCK``. ac-compare
keeps the config order of ``engines`` and ``I``; eig-converge and multi-eig
sort their labels. roc keeps the config order of ``detectors`` and runs
every detector, so its ratio detectors read the exact-trace pipelines.
"""

from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from eigennet import experiments
from eigennet.consensus import AcConfig
from eigennet.distributed import default_dla_start, run_dla
from eigennet.eigencore import covariance_eigenvalues
from eigennet.harness import parse_config_text, trial_seed, validate_config
from eigennet.signals import SignalConfig, gen_h1
from eigennet.topology import generate_random_geometric, metropolis_weights

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TRIALS = 35


def config(experiment, trials=TRIALS, **keys):
    """The shipped config with ``keys`` replaced, at ``trials`` trials."""
    raw = parse_config_text((CONFIGS / f"{experiment.replace('-', '_')}.cfg").read_text())
    raw.update(keys, trials=str(trials))
    return validate_config(raw, experiment)


def labels(report, *columns):
    return [tuple(row[c] for c in columns) for row in report.rows]


def test_spans_two_blocks():
    assert experiments.TRIAL_BLOCK < TRIALS <= 2 * experiments.TRIAL_BLOCK


def test_ac_compare_keeps_config_order():
    engines = ("chebyshev+failures", "standard", "chebyshev")
    cfg = config("ac-compare", I="15 5 10", engines=" ".join(engines))
    report = experiments.run_ac_compare(cfg)
    assert labels(report, "engine", "I") == [("ideal", 0)] + [
        (engine, i) for engine in engines for i in (15, 5, 10)
    ]


def test_eig_converge_sorts_by_algorithm_then_i_then_m():
    cfg = config("eig-converge", I="15 10", M="10 2 15 5")
    report = experiments.run_eig_converge(cfg)
    expected = [
        (engine, algorithm, i, m)
        for engine, algorithm, grid in (
            ("chebyshev", "dla", (10, 15)),
            ("chebyshev", "dpm", (10, 15)),
            ("ideal", "la-ideal", (0,)),
            ("ideal", "pm-ideal", (0,)),
        )
        for i in grid
        for m in (2, 5, 10, 15)
    ]
    assert labels(report, "engine", "algorithm", "I", "M") == expected


def test_multi_eig_sorts_by_i_then_index_then_m():
    cfg = config("multi-eig", I="30 20", M="12 6 20", eig_indices="9 1 5 3")
    report = experiments.run_multi_eig(cfg)
    expected = [
        (i, index, m)
        for i in (20, 30)
        for index in (1, 3, 5, 9)
        for m in (6, 12, 20)
        if index <= m
    ]
    labels_of = itemgetter("I", "eig_index", "M")
    assert [labels_of(row) for row in report.rows] == expected

    # one row away from every minimum, recomputed from one DLA run over all
    # trials at once
    i_iters, index, m = 30, 5, 12
    (row,) = [r for r in report.rows if labels_of(r) == (i_iters, index, m)]
    graph = generate_random_geometric(cfg.k, cfg.radius, cfg.topology_seed)
    weights = metropolis_weights(graph)
    y = np.stack(
        [
            gen_h1(
                SignalConfig(
                    k=cfg.k, n=cfg.n, sigma2=cfg.sigma2, p=1, snr_db=cfg.snr_db, seed=s
                )
            )[0]
            for s in (trial_seed(cfg.seed, t) for t in range(TRIALS))
        ]
    )
    ac = AcConfig(cfg.engine, i_iters, weights=weights)
    stack = run_dla(
        y,
        ac,
        cfg.m_max,
        default_dla_start(cfg.k),
        ritz_iters=(m,),
        spurious_tol_rel=cfg.spurious_tol,
    ).eigenvalue_stacks[m]
    truth = covariance_eigenvalues(y)[:, index - 1]
    # a node that kept fewer than ``index`` values estimates zero
    errors = [
        np.mean([((0.0 if np.isnan(v[index - 1]) else v[index - 1]) - lam) ** 2 for v in nodes])
        for nodes, lam in zip(stack, truth)
    ]
    assert row["mse"] == sum(errors) / TRIALS


def test_roc_keeps_detector_order_then_pipeline_order():
    # 50 trials per hypothesis, the fewest alpha 0.2 calibrates on, span two
    # blocks each
    cfg = config("roc", 50, detectors="JT RT ST GT", alphas="0.2 0.5", M="10 5")
    report = experiments.run_roc(cfg)
    ms = ("m5", "m10")
    rt = ["exact"] + [f"{a}-{m}" for m in ms for a in ("pm", "la", "dpm", "dla")]
    ratio = (
        ["exact"]
        + [f"{a}-{m}" for m in ms for a in ("la", "dla")]
        + [f"la-{m}-tr" for m in ms]
        + [f"dla-{m}-tr" for m in ms]
    )
    expected = [
        (detector, pipeline)
        for detector in ("JT", "RT", "ST", "GT")
        for pipeline in (rt if detector == "RT" else ratio)
    ]
    # each pair's rows are contiguous
    assert [pair for pair, _ in groupby(labels(report, "detector", "pipeline"))] == expected


def test_eig_converge_rows_draw_distinct_failure_streams(monkeypatch):
    # the DLA at I and the DPM at I + 16 used to share every trial's failure
    # generator: DLA(10) and DPM(26) drew the same links
    streams = {}
    for name in ("run_dla", "run_dpm"):
        run = getattr(experiments, name)

        def recording(y, ac, *args, _run=run, _name=name, **kwargs):
            if ac.link_failure_prob > 0.0:  # one failure seed per trial
                streams[_name, ac.iterations] = tuple(ac.failure_seed)
            return _run(y, ac, *args, **kwargs)

        monkeypatch.setattr(experiments, name, recording)
    cfg = config(
        "eig-converge", 3, engine="chebyshev+failures", link_failure_prob="0.03", I="10 26", M="2"
    )
    experiments.run_eig_converge(cfg)
    assert sorted(streams) == [("run_dla", 10), ("run_dla", 26), ("run_dpm", 10), ("run_dpm", 26)]
    seeds = [seed for trial_seeds in streams.values() for seed in trial_seeds]
    assert len(set(seeds)) == len(seeds) == 4 * 3
    assert streams["run_dla", 10] != streams["run_dpm", 26]
