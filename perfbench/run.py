#!/usr/bin/env python3
"""Benchmark of the eigennet experiments, end to end or traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload roc --seed 104 --seconds 30 --trace 0

Each workload is a shipped experiment config, unchanged except ``trials``.
The benchmark drives the public API as ``eigennet.cli.main`` does
(``validate_config``, then ``run`` and ``emit_report``), checks every run's
emitted files, and prints one JSON object as its last line of output.

With ``--trace 0`` it reports the end-to-end metrics: ``run_s`` (median wall
time of ``run`` plus ``emit_report``), ``setup_s`` (median time from process
start to the first trial ready, over fresh set-up processes) and
``peak_rss_mb``. With ``--trace 1`` it alternates untraced and traced runs
and reports the per-layer metrics of ``tracing.layer_metrics`` plus
``trace.overhead_ratio``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_out"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH))

from checks import CheckFailed, check_outputs, load_reference, output_files  # noqa: E402
from tracing import EXACT_COUNTERS, Tracer, install, layer_metrics, self_shares  # noqa: E402


@dataclasses.dataclass(frozen=True)
class Workload:
    config: str  # shipped config, relative to the repository root
    trials: int  # trials per timed run: enough work for a steady time
    why: str


# Why each workload: each stresses a different layer, and each planned
# optimisation has one workload that exercises it and one that bypasses it.
WORKLOADS = {
    "ac-compare": Workload(
        "configs/ac_compare.cfg",
        1,
        "DPM under standard, chebyshev and chebyshev+failures: the link-failure"
        " weight redraw dominates and eigencore is idle, so eigen-solver changes"
        " must leave it unchanged",
    ),
    "eig-converge": Workload(
        "configs/eig_converge.cfg",
        8,
        "DPM and DLA on fixed weights with five Ritz checkpoints: Sturm bisection"
        " and fixed-weight consensus dominate and no link fails, so failure-redraw"
        " changes must leave it unchanged",
    ),
    "roc": Workload(
        "configs/roc.cfg",
        200,  # threshold_from_h0 needs 10/alpha = 200 noise-only trials at alpha 0.05
        "exact, centralized and decentralized pipelines under H0 and H1: many"
        " single-matrix tridiagonal solves beside batched ones, width-1 trace"
        " consensus and detection, which runs only here",
    ),
}


def load_program():
    """Import eigennet from this checkout's ``src``, or exit without a result."""
    src = ROOT / "src"
    if not (src / "eigennet" / "__init__.py").is_file():
        sys.exit(f"error: no eigennet package under {src}")
    sys.path.insert(0, str(src))
    import eigennet

    if not Path(eigennet.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: eigennet was imported from {eigennet.__file__}, not {src}")
    return eigennet


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()})
    except OSError:
        libs = []
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
    }


def measure_setup(config: Path, experiment: str, seed: int) -> list[float]:
    """Seconds from starting a fresh process to its ``ready`` line, per repeat."""
    command = [sys.executable, str(BENCH / "probe.py"), str(ROOT), str(config), experiment, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


class Runner:
    """Runs one configured experiment repeatedly and checks each run's files."""

    def __init__(self, eigennet, cfg, reference):
        self.eigennet = eigennet
        self.cfg = cfg
        self.reference = reference
        self.out_dir = ROOT / cfg.out
        self.attempted = 0
        self.failed = 0
        self.first_files = None
        self.last_wall = 0.0

    def attempt(self, tracer: Tracer | None = None) -> float | None:
        """One ``run`` plus ``emit_report``; its seconds, or None if it failed."""
        en, cfg = self.eigennet, self.cfg
        self.attempted += 1
        wall = time.perf_counter()
        try:
            start = time.perf_counter()
            if tracer is None:
                en.emit_report(en.run(cfg), cfg.out)
            else:
                with tracer.span("experiments"):
                    report = en.run(cfg)
                with tracer.span("harness.emit"):
                    en.emit_report(report, cfg.out)
            seconds = time.perf_counter() - start
            files = output_files(self.out_dir, cfg.experiment)
            # Later runs must repeat the first checked run byte for byte.
            if self.first_files is None:
                check_outputs(files, cfg, en, self.reference)
                self.first_files = files
            elif files != self.first_files:
                raise CheckFailed("emitted files differ between runs of one seed")
        except Exception:  # a failed operation is counted and reported, not fatal
            self.failed += 1
            traceback.print_exc()
            seconds = None
        self.last_wall = time.perf_counter() - wall
        return seconds

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"check failed: {message}", file=sys.stderr)


def end_to_end(runner: Runner, shipped_trials: int, config: Path, seconds: float, record: dict) -> dict:
    cfg = runner.cfg
    setup = measure_setup(config, cfg.experiment, cfg.seed)
    samples = []
    start = time.perf_counter()
    while True:
        took = runner.attempt()
        if took is not None:
            samples.append(took)
        if time.perf_counter() - start + runner.last_wall > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = statistics.median(samples) if samples else 0.0
    record.update(run_s_samples=samples, setup_s_samples=setup)
    print(f"run_s: {run_s:.4f} s (median of {len(samples)} samples at {cfg.trials} trials)")
    print(f"setup_s: {statistics.median(setup):.4f} s (median of {len(setup)} fresh set-ups)")
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MB")
    per_trial = run_s / cfg.trials
    print(
        f"projection (informational): {cfg.experiment} at the shipped {shipped_trials} trials"
        f" ~ {per_trial * shipped_trials / 60.0:.1f} min ({per_trial:.4f} s per trial)"
    )
    return {
        "run_s": {"value": run_s, "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def _closed_form_units(eigennet, cfg) -> int:
    """Per-run consensus units of ac-compare from the paper's complexity table.

    Per node of degree d, a DPM run without checkpoints exchanges
    I (M N + N + 1) d units; summed over nodes, d becomes 2 |E|.
    """
    graph = eigennet.generate_random_geometric(cfg.k, cfg.radius, cfg.topology_seed)
    per_i = (cfg.m_max * cfg.n + cfg.n + 1) * 2 * len(graph.edges)
    return cfg.trials * sum(i * per_i for _ in cfg.engines for i in cfg.ac_iters)


def traced(runner: Runner, seconds: float, record: dict) -> dict:
    tracer = Tracer()
    plain, traced_s, runs = [], [], []

    def traced_attempt():
        tracer.new_run()
        install(tracer)
        try:
            took = runner.attempt(tracer)
        finally:
            tracer.uninstall()
        if took is not None:
            traced_s.append(took)
            runs.append((dict(tracer.stats), dict(tracer.counts), took))

    def plain_attempt():
        took = runner.attempt()
        if took is not None:
            plain.append(took)

    start = time.perf_counter()
    plain_attempt()
    traced_attempt()
    traced_attempt()
    while time.perf_counter() - start + 2 * runner.last_wall <= seconds:
        plain_attempt()
        traced_attempt()
    if tracer.missing:
        print(f"note: not traced, attribute missing: {', '.join(sorted(tracer.missing))}", file=sys.stderr)

    layers = [layer_metrics(stats, counts) for stats, counts, _ in runs]
    metrics = {}
    for name, (value, unit) in (layers[0] if layers else layer_metrics({}, {})).items():
        if unit == "count" or name in EXACT_COUNTERS:
            metrics[name] = {"value": value, "unit": unit}
        else:
            metrics[name] = {"value": statistics.median(m[name][0] for m in layers), "unit": unit}
    for other in layers[1:]:
        for name in EXACT_COUNTERS:
            if other[name][0] != layers[0][name][0]:
                runner.fail(f"{name} differs between traced runs: {layers[0][name][0]} vs {other[name][0]}")
    if runner.cfg.experiment == "ac-compare" and layers:
        want = _closed_form_units(runner.eigennet, runner.cfg)
        if layers[0]["consensus.units"][0] != want:
            runner.fail(f"consensus.units {layers[0]['consensus.units'][0]} differs from the closed form {want}")
    ratio = statistics.median(traced_s) / statistics.median(plain) if plain and traced_s else 0.0
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    if runs:
        stats, _, took = runs[0]
        shares = self_shares(stats, int(took * 1e9))
        print("self-time shares (informational): " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        record["self_time_shares"] = shares
    record.update(untraced_run_s=plain, traced_run_s=traced_s, trace=tracer.span_records())
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="master seed (default: the config's seed)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None, help="trials per run (default: the workload's)")
    parser.add_argument("--keep", default=None, help="copy the emitted CSV and JSON report to this directory")
    args = parser.parse_args(argv)
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be at least 1")

    workload = WORKLOADS[args.workload]
    config = ROOT / workload.config
    if not config.is_file():
        sys.exit(f"error: missing workload config {config}")
    eigennet = load_program()
    os.chdir(ROOT)
    shipped = eigennet.validate_config(config.read_text(), args.workload)
    trials = args.trials or workload.trials
    seed = shipped.seed if args.seed is None else args.seed
    cfg = dataclasses.replace(shipped, seed=seed, trials=trials, out=str(Path(".bench_out") / args.workload))
    reference = load_reference(args.workload, seed, trials)

    record = {
        "workload": args.workload,
        "seed": seed,
        "trials": trials,
        "trace": args.trace,
        "reference_checked": reference is not None,
        "machine": machine_record(),
    }
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    runner = Runner(eigennet, cfg, reference)
    try:
        if args.trace:
            metrics = traced(runner, args.seconds, record)
        else:
            metrics = end_to_end(runner, shipped.trials, config, args.seconds, record)
        if args.keep and runner.first_files is not None:
            Path(args.keep).mkdir(parents=True, exist_ok=True)
            for name, data in runner.first_files.items():
                (Path(args.keep) / name).write_bytes(data)
    finally:
        shutil.rmtree(runner.out_dir, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record["result"] = result
    WORK.mkdir(exist_ok=True)
    (WORK / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
