"""In-memory span tracer that wraps eigennet's public functions from outside.

The tracer replaces module attributes as their callers see them (for example
``eigennet.experiments.run_dla`` and ``eigennet.distributed.run_consensus``)
with thin wrappers that record a span per call: name, start, end, parent span
and run id. Spans stay in memory until the benchmark writes them out. Counts
taken from the wrapped calls' arguments and results are recorded at the same
boundaries, so ratios are measured where the work happens.

A span's self time is its duration minus the durations of its direct child
spans. No file of the program is changed; uninstalling restores every
original attribute.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Records spans and counters for one or more runs of an experiment."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name id, parent span index (-1 for a root), start ns, end ns, run id]
        self.spans: list[list[int]] = []
        self.run_id = 0
        self.stats: dict[str, list[int]] = {}  # name -> [calls, busy ns, self ns]
        self.counts: dict[str, int] = {}
        self.missing: set[str] = set()
        self._stack: list[list] = []  # [span index, name, child ns]
        self._patches: list[tuple[object, str, object]] = []

    def new_run(self) -> None:
        """Start a new run id with empty per-run statistics and counters."""
        if self.spans:
            self.run_id += 1
        self.stats = {}
        self.counts = {}

    def add(self, counter: str, value: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + int(value)

    def _enter(self, name: str) -> None:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), name, 0])
        self.spans.append([name_id, parent, time.perf_counter_ns(), 0, self.run_id])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        index, name, child_ns = self._stack.pop()
        span = self.spans[index]
        span[3] = end
        duration = end - span[2]
        if self._stack:
            self._stack[-1][2] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_ns

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        ``name`` is a span name or a callable mapping the call's arguments
        to one; ``count(tracer, result, *args, **kwargs)`` updates counters
        after the span closes. A missing attribute is recorded, not fatal, so
        the benchmark keeps running when a later version moves a function.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._enter(name(*args, **kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit()
            if count is not None:
                count(tracer, result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_records(self) -> dict:
        """Spans in a compact, JSON-ready form."""
        return {
            "fields": ["name", "parent", "start_ns", "end_ns", "run_id"],
            "names": self.names,
            "spans": self.spans,
        }


def _ac_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["cfg"]


def _consensus_span(*args, **kwargs) -> str:
    cfg = _ac_arg(args, kwargs)
    if cfg.engine == "ideal":
        return "consensus.ideal"
    return "consensus.fail" if cfg.link_failure_prob > 0.0 else "consensus.fixed"


def _count_consensus(tracer: Tracer, result, *args, **kwargs) -> None:
    cfg = _ac_arg(args, kwargs)
    tracer.add("consensus.units", np.sum(result.scalars_exchanged_per_node))
    if cfg.engine != "ideal":
        tracer.add("consensus.mix_steps", cfg.iterations)
        if cfg.link_failure_prob > 0.0:
            # every mixing step of a failure run redraws the surviving links
            tracer.add("consensus.fail.redraws", cfg.iterations)
            tracer.add("consensus.fail.steps", cfg.iterations)
        else:
            tracer.add("consensus.fixed.steps", cfg.iterations)


def _count_batch(tracer: Tracer, result, alpha, *args, **kwargs) -> None:
    tracer.add("eigencore.tridiag.matrices", np.atleast_2d(alpha).shape[0])


def _count_single(tracer: Tracer, result, *args, **kwargs) -> None:
    tracer.add("eigencore.tridiag.matrices", 1)


def _count_filter(tracer: Tracer, result, current, *args, **kwargs) -> None:
    tracer.add("eigencore.filter.offered", len(current))
    tracer.add("eigencore.filter.kept", len(result))


def _count_dla(tracer: Tracer, result, *args, **kwargs) -> None:
    tracer.add("distributed.dla.breakdowns", np.sum(result.sizes < result.m_iterations))
    tracer.add("distributed.dla.clamped", np.sum(result.clamped))


def install(tracer: Tracer) -> None:
    """Wrap every public call the experiments make, grouped by layer.

    Layers are the package's modules. Each function is wrapped where its
    caller looks it up, so a call is traced once however it is reached.
    """
    from eigennet import consensus, distributed, experiments, topology

    # consensus: run_consensus as distributed calls it, and as
    # detection.trace_consensus imports it from the consensus module
    for owner in (distributed, consensus):
        tracer.wrap(owner, "run_consensus", _consensus_span, _count_consensus)
    # topology
    tracer.wrap(experiments, "generate_random_geometric", "topology.build")
    tracer.wrap(experiments, "metropolis_weights", "topology.build")
    tracer.wrap(experiments, "spectral_bounds", "topology.spectral_bounds")
    tracer.wrap(topology.Graph, "degrees", "topology.degrees")
    # signals
    tracer.wrap(experiments, "gen_h0", "signals.gen")
    tracer.wrap(experiments, "gen_h1", "signals.gen")
    # eigencore
    tracer.wrap(distributed, "tridiagonal_eigenvalues_batch", "eigencore.tridiag", _count_batch)
    tracer.wrap(experiments, "tridiagonal_eigenvalues", "eigencore.tridiag", _count_single)
    for owner in (experiments, distributed):
        tracer.wrap(owner, "sample_covariance", "eigencore.central")
        tracer.wrap(owner, "filter_spurious", "eigencore.filter", _count_filter)
    tracer.wrap(experiments, "lanczos", "eigencore.central")
    tracer.wrap(experiments, "power_method", "eigencore.central")
    # distributed
    tracer.wrap(experiments, "run_dpm", "distributed.dpm")
    tracer.wrap(experiments, "run_dla", "distributed.dla", _count_dla)
    # detection
    for attr in ("compute_statistic", "threshold_from_h0", "trace_consensus"):
        tracer.wrap(experiments, attr, "detection")


# Counters that must repeat exactly between two traced runs of one input.
EXACT_COUNTERS = (
    "consensus.calls",
    "consensus.mix_steps",
    "consensus.units",
    "consensus.fail.redraws",
    "topology.degrees.calls",
    "signals.gen.calls",
    "eigencore.tridiag.calls",
    "eigencore.tridiag.matrices",
    "eigencore.filter.calls",
    "eigencore.filter.kept_ratio",
    "distributed.dpm.calls",
    "distributed.dla.calls",
    "distributed.dla.breakdowns",
    "distributed.dla.clamped",
    "detection.calls",
)


def layer_metrics(stats: dict[str, list[int]], counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""

    def calls(*names):
        return sum(stats.get(n, (0, 0, 0))[0] for n in names)

    def busy(*names):
        return sum(stats.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def self_s(*names):
        return sum(stats.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def per(total: float, n: int, scale: float) -> float:
        return total * scale / n if n else 0.0

    ac = ("consensus.ideal", "consensus.fixed", "consensus.fail")
    fixed_steps = counts.get("consensus.fixed.steps", 0)
    fail_steps = counts.get("consensus.fail.steps", 0)
    matrices = counts.get("eigencore.tridiag.matrices", 0)
    offered = counts.get("eigencore.filter.offered", 0)
    return {
        "consensus.calls": (calls(*ac), "count"),
        "consensus.mix_steps": (counts.get("consensus.mix_steps", 0), "count"),
        "consensus.units": (counts.get("consensus.units", 0), "count"),
        "consensus.fail.redraws": (counts.get("consensus.fail.redraws", 0), "count"),
        "consensus.fixed.busy_s": (busy("consensus.fixed"), "s"),
        "consensus.fail.busy_s": (busy("consensus.fail"), "s"),
        "consensus.fixed.us_per_step": (per(busy("consensus.fixed"), fixed_steps, 1e6), "us"),
        "consensus.fail.us_per_step": (per(busy("consensus.fail"), fail_steps, 1e6), "us"),
        "consensus.self_s": (self_s(*ac), "s"),
        "topology.build.busy_s": (busy("topology.build"), "s"),
        "topology.spectral_bounds.busy_s": (busy("topology.spectral_bounds"), "s"),
        "topology.degrees.calls": (calls("topology.degrees"), "count"),
        "topology.degrees.busy_s": (busy("topology.degrees"), "s"),
        "signals.gen.calls": (calls("signals.gen"), "count"),
        "signals.gen.busy_s": (busy("signals.gen"), "s"),
        "eigencore.tridiag.calls": (calls("eigencore.tridiag"), "count"),
        "eigencore.tridiag.matrices": (matrices, "count"),
        "eigencore.tridiag.busy_s": (busy("eigencore.tridiag"), "s"),
        "eigencore.tridiag.us_per_matrix": (per(busy("eigencore.tridiag"), matrices, 1e6), "us"),
        "eigencore.central.busy_s": (busy("eigencore.central"), "s"),
        "eigencore.filter.calls": (calls("eigencore.filter"), "count"),
        "eigencore.filter.busy_s": (busy("eigencore.filter"), "s"),
        "eigencore.filter.kept_ratio": (
            per(counts.get("eigencore.filter.kept", 0), offered, 1.0),
            "ratio",
        ),
        "distributed.dpm.calls": (calls("distributed.dpm"), "count"),
        "distributed.dpm.self_s": (self_s("distributed.dpm"), "s"),
        "distributed.dla.calls": (calls("distributed.dla"), "count"),
        "distributed.dla.self_s": (self_s("distributed.dla"), "s"),
        "distributed.dla.breakdowns": (counts.get("distributed.dla.breakdowns", 0), "count"),
        "distributed.dla.clamped": (counts.get("distributed.dla.clamped", 0), "count"),
        "detection.calls": (calls("detection"), "count"),
        "detection.busy_s": (busy("detection"), "s"),
        "experiments.self_s": (self_s("experiments"), "s"),
        "harness.emit.busy_s": (busy("harness.emit"), "s"),
    }


def self_shares(stats: dict[str, list[int]], total_ns: int) -> dict[str, float]:
    """Each span name's self time as a share of ``total_ns``, largest first."""
    shares = {name: s[2] / total_ns for name, s in stats.items()}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
