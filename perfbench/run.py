#!/usr/bin/env python3
"""Seeded benchmark for liftchroma.

Run from the repository root, for example:

    python3 perfbench/run.py --workload mc_cycles --seed 1 --seconds 30 --trace 0

A run imports the package from ./src and builds the workload's inputs,
seven times over (timed as set-up), then repeats the workload's fixed op list, one "pass"
at a time, while one more pass still fits in --seconds (at least one pass
always runs).  An op is one timed call; each ends ok, censored
(BudgetExhaustedError) or failed (any other exception), and a failed op
never stops the run.  After measuring, every output is checked against an
oracle that does not share the code path under test; any mismatch makes
the exit code 1.

With --trace 0 the last stdout line reports the end-to-end metrics named
in BENCHMARK.json; with --trace 1 the package's public functions are
wrapped in spans (see spans.py) and the per-layer metrics are reported
instead.  Earlier stdout lines print every metric with its unit, plus the
failed and censored shares.  A results file per run, and the spans of a
traced run, are written under perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from pathlib import Path
from types import SimpleNamespace

from spans import CENSORED, FAILED, OK, OP_SPAN, Tracer, span_cost_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
FACTS = json.loads((HERE / "facts.json").read_text())

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = (
    "base_graph",
    "errors",
    "lift",
    "coloring",
    "moments_exact",
    "lattice_tools",
    "stochastic_opt",
    "asymptotics",
    "experiments",
)
# Set-up runs this many times in the process, each time on a freshly
# imported package; setup_s is the median.
SETUP_REPEATS = 7
TAIL_BEYOND = 10
OUTCOME_NAMES = {OK: "ok", CENSORED: "censored", FAILED: "failed"}

# Spans installed in a traced run: (module, function, span name, count).
# The lru-cached proper_*matching_count functions are deliberately absent:
# their hits and misses come from cache_info().
LAYER_SPANS = (
    ("lift", "count_cycles_up_to", "lift.count_cycles_up_to", None),
    ("lift", "expand", "lift.expand", lambda args, lg: lg.num_edges),
    ("lift", "sample_lift", "lift.sample_lift", None),
    ("lift", "enumerate_lifts", "lift.enumerate_lifts", "iter"),
    ("coloring", "is_k_colorable", "coloring.is_k_colorable", None),
    ("coloring", "chromatic_number", "coloring.chromatic_number", None),
    ("coloring", "greedy_clique", "coloring.greedy_clique", None),
    ("coloring", "is_bipartite", "coloring.is_bipartite", None),
    ("coloring", "count_strongly_equitable", "coloring.count_strongly_equitable", None),
    ("moments_exact", "expected_Y2_exact", "moments_exact.expected_Y2_exact", None),
    ("moments_exact", "expected_X_exact", "moments_exact.expected_X_exact", None),
    ("moments_exact", "brute_force_moment", "moments_exact.brute_force_moment", None),
    ("lattice_tools", "laplace_estimate", "lattice_tools.laplace_estimate", None),
    (
        "lattice_tools",
        "det_restricted",
        "lattice_tools.det_restricted",
        lambda args, _: len(args[1][0]) if args[1] else 0,
    ),
    ("lattice_tools", "kernel_basis", "lattice_tools.kernel_basis", None),
    ("lattice_tools", "tau_maximal_forests", "lattice_tools.tau_maximal_forests", None),
    ("lattice_tools", "build_ey_problem", "lattice_tools.build_problem", None),
    ("lattice_tools", "build_ey2_problem", "lattice_tools.build_problem", None),
    ("stochastic_opt", "verify_max_uniform", "stochastic_opt.verify_max_uniform", None),
    ("stochastic_opt", "project_transportation", "stochastic_opt.project_transportation", None),
    ("stochastic_opt", "F_A", "stochastic_opt.F_A", None),
    ("asymptotics", "sscm_identity_check", "asymptotics.sscm_identity_check", None),
    ("asymptotics", "ey_asym", "asymptotics.closed_form", None),
    ("asymptotics", "ey2_asym", "asymptotics.closed_form", None),
    ("experiments", "sample_seed", "experiments.sample_seed", None),
)
STATISTIC_SPAN = "experiments.statistic"
SETUP_SPANS = ("lattice_tools.build_problem",)  # measured in set-up, once per run


@dataclass
class Record:
    cell: int
    index: int
    outcome: int
    error: str | None
    value: object
    seconds: float


# ---------------------------------------------------------------------------
# Workloads.  Each builds its inputs in setup(), lists one pass of ops in
# ops(p) as (cell, sample index, callable), and checks the recorded values.
# Ops look package functions up through their modules at call time, so the
# traced run's wrappers are the ones called.


class Workload:
    uses_budget = False  # whether LIFTCHROMA_BUDGET is set for this workload
    cache_stats: tuple | list = ()  # per pass: {cache name: (hits, misses)}

    def start_pass(self) -> None:
        pass

    def end_pass(self) -> None:
        pass

    def probe(self, censored_exc) -> list[Record]:
        """Untimed ops run after measuring; none by default."""
        return []


class MonteCarlo(Workload):
    """The per-sample loop of mc_expectation: sample_lift on a seed from
    sample_seed(seed, cell, i), then the make_statistic evaluator.

    CELLS holds (statistic, m of the base K_m, n, samples per pass); a
    cell's index is its position, as in run_campaign's (statistic, n) order.
    """

    CELLS: tuple[tuple[str, int, int, int], ...] = ()

    def label(self, cell: int) -> str:
        stat, m, n, _ = self.CELLS[cell]
        return f"{stat} K{m} n={n}"

    def setup(self, pkg, seed: int, stat_span) -> None:
        self.pkg, self.seed = pkg, seed
        make = pkg.base_graph.make_complete_graph
        self.graphs = {m: make(m) for _, m, _, _ in self.CELLS}
        self.stats = {
            s: stat_span(pkg.experiments.make_statistic(s, None)) for s, _, _, _ in self.CELLS
        }

    def lift(self, cell: int, i: int):
        _, m, n, _ = self.CELLS[cell]
        pkg = self.pkg
        return pkg.lift.sample_lift(
            self.graphs[m], n, pkg.experiments.sample_seed(self.seed, cell, i)
        )

    def sample(self, cell: int, i: int):
        return self.stats[self.CELLS[cell][0]](self.lift(cell, i))

    def ops(self, p: int):
        for cell, (_, _, _, reps) in enumerate(self.CELLS):
            for r in range(reps):
                i = p * reps + r
                yield cell, i, functools.partial(self.sample, cell, i)


class McCycles(MonteCarlo):
    """Z3 and Z4 on K4 lifts.  The Z4 n = 100 cell gets five samples per
    pass and the others one, so that the median op falls in the middle of
    the Z4 n = 100 samples: Z3 at n = 100 is about 20% faster, and the
    n = 1000 cells about ten times slower."""

    CELLS = (("Z3", 4, 100, 1), ("Z3", 4, 1000, 1), ("Z4", 4, 100, 5), ("Z4", 4, 1000, 1))
    CHECK_EVERY = 20  # Z3 samples with index % CHECK_EVERY == 0 are checked

    def check(self, records: list[Record]) -> list[str]:
        errors = []
        for rec in records:
            if self.CELLS[rec.cell][0] != "Z3" or rec.index % self.CHECK_EVERY:
                continue
            if rec.outcome != OK:
                errors.append(f"{self.label(rec.cell)} #{rec.index}: {rec.error or 'censored'}")
                continue
            want = Fraction(closed_three_walks(self.lift(rec.cell, rec.index)), 6)
            if rec.value != want:
                errors.append(
                    f"{self.label(rec.cell)} #{rec.index}: Z3 = {rec.value}, tr(A^3)/6 = {want}"
                )
        return errors


def closed_three_walks(lift) -> int:
    """tr(A^3) of a simple regular lift, built from its matchings alone."""
    import numpy as np

    g, n = lift.base, lift.n
    size = g.num_vertices * n
    idx = np.arange(n)
    tails = [t * n + idx for t, _ in g.edges]
    heads = [h * n + np.asarray(perm) for (_, h), perm in zip(g.edges, lift.matchings)]
    u = np.concatenate(tails + heads)
    w = np.concatenate(heads + tails)
    keys = u * size + w
    if np.unique(keys).size != keys.size:
        raise ValueError("lift is not a simple graph; tr(A^3)/6 is not Z3")
    nbr = w[np.argsort(u, kind="stable")].reshape(size, -1)
    two_steps = nbr[nbr]  # [u, v, w]: the walk u -> v -> w
    back = two_steps * size + np.arange(size)[:, None, None]  # key of edge w -> u
    return int(np.isin(back, keys).sum())


class McChromatic(MonteCarlo):
    """chi under LIFTCHROMA_BUDGET.  K6 at n = 20 mostly censors, so it
    measures the raw search rate.  K5 at n = 100 gets eight samples per pass
    so that the median op falls inside its uncensored samples rather than on
    a boundary between outcome modes.

    K5 at n = 200 reproduces the DSATUR RecursionError: the recursion is one
    frame per coloured vertex, and its lifts have 1000 vertices.  It has no
    samples in a pass, because timed ops must not fail: the number of
    failures would then follow the number of passes that fit in the run.
    Instead every run probes it with PROBE_SAMPLES samples after measuring,
    untimed, and reports their outcomes next to the result.
    """

    CELLS = (("chi", 5, 100, 8), ("chi", 6, 20, 1), ("chi", 5, 200, 0))
    PROBE_CELL, PROBE_SAMPLES = 2, 10
    BOUNDS_CHECKS_PER_CELL = 3
    CHECK_REFINE_BUDGET = 500  # below the recursion limit, so bounds never overflow
    uses_budget = True

    def probe(self, censored_exc) -> list[Record]:
        cell = self.PROBE_CELL
        return [
            run_op(cell, i, functools.partial(self.sample, cell, i), censored_exc)
            for i in range(self.PROBE_SAMPLES)
        ]

    def check(self, records: list[Record]) -> list[str]:
        """Every ok chi lies in the bracket of colour_bracket, which shares
        no code with the package.  The first BOUNDS_CHECKS_PER_CELL per cell
        are also <= the upper bound of chromatic_bounds with a small
        refinement budget, which costs 50-250 ms a lift, too much for all."""
        errors = []
        bounded = [0] * len(self.CELLS)
        for rec in records:
            if rec.outcome != OK:
                continue
            name = f"{self.label(rec.cell)} #{rec.index}"
            lg = self.pkg.lift.expand(self.lift(rec.cell, rec.index))
            chi = int(rec.value)
            lo, hi = colour_bracket(lg)
            if not lo <= chi <= hi:
                errors.append(f"{name}: chi {chi} outside the bracket [{lo}, {hi}]")
            if bounded[rec.cell] < self.BOUNDS_CHECKS_PER_CELL:
                bounded[rec.cell] += 1
                _, upper = self.pkg.coloring.chromatic_bounds(
                    lg, refine_budget=self.CHECK_REFINE_BUDGET
                )
                if chi > upper:
                    errors.append(f"{name}: chi {chi} > chromatic_bounds upper {upper}")
        return errors


def colour_bracket(lg) -> tuple[int, int]:
    """(lower, upper) for the chromatic number of a loopless graph with at
    least one edge.  Lower is 2 when a breadth-first 2-colouring succeeds,
    else 3 (an odd cycle).  Upper is the number of colours of a greedy
    DSATUR colouring, which is checked to be proper."""
    size = lg.num_vertices
    adj: list[set[int]] = [set() for _ in range(size)]
    for u, w in lg.edges:
        if u == w:
            raise ValueError("graph has a loop; it has no proper colouring")
        adj[u].add(w)
        adj[w].add(u)

    side = [-1] * size
    lower = 2
    for s in range(size):
        if side[s] >= 0:
            continue
        side[s], queue = 0, [s]
        for u in queue:
            for w in adj[u]:
                if side[w] < 0:
                    side[w] = side[u] ^ 1
                    queue.append(w)
                elif side[w] == side[u]:
                    lower = 3

    colour = [-1] * size
    seen: list[set[int]] = [set() for _ in range(size)]
    heap = [(0, -len(adj[v]), v) for v in range(size)]  # (-saturation, -degree, v)
    heapify(heap)
    while heap:
        _, _, v = heappop(heap)
        if colour[v] >= 0:
            continue  # a stale entry: v was pushed again with a higher saturation
        c = 0
        while c in seen[v]:
            c += 1
        colour[v] = c
        for w in adj[v]:
            if colour[w] < 0 and c not in seen[w]:
                seen[w].add(c)
                heappush(heap, (-len(seen[w]), -len(adj[w]), w))
    if any(colour[u] == colour[w] for u, w in lg.edges):
        raise AssertionError("greedy colouring is not proper")
    return lower, max(colour) + 1


class FixedCalls(Workload):
    """A workload whose pass is a fixed list of calls.  CELLS holds
    (label, calls per pass); a cell's calls run one after another."""

    CELLS: tuple[tuple[str, int], ...] = ()

    def label(self, cell: int) -> str:
        return self.CELLS[cell][0]

    def calls(self) -> tuple:
        """One callable per cell, in the order of CELLS."""
        raise NotImplementedError

    def ops(self, p: int):
        for cell, ((_, reps), call) in enumerate(zip(self.CELLS, self.calls())):
            for r in range(reps):
                yield cell, p * reps + r, call


class ExactMoments(FixedCalls):
    """Exact rational moment sums and full-enumeration oracles.

    Deterministic: the seed is ignored.  Both proper_*matching_count caches
    are cleared before every pass, so each pass starts cold; that is why
    the cached E[Y^2] and E[X] calls run once a pass.  The Y oracle, about
    35 ms, runs nine times, so that three quarters of the ops are of one
    kind and the median op falls among them.  It enumerates the 216
    3-lifts of K3, and the Z3 oracle the 64 2-lifts of K4 (E[Z3] = 4 at
    every n).  Over the 46,656 3-lifts of K4 each oracle is a 3-12 s call;
    with them a run held one to five passes, and its median pass moved by
    a fifth or more from run to run on a 2-core shared host.  A pass
    takes about 2 s, so a run holds more than 11: the 11th-largest op,
    latency_tail_ms, then always falls on E[Y^2] or E[X].
    """

    CELLS = (
        ("E[Y^2] K4 n=6 k=3", 1),
        ("E[X] K4 n=6 k=3", 1),
        ("Y oracle K3 n=3 k=3", 9),
        ("Z3 oracle K4 n=2", 1),
    )

    def setup(self, pkg, seed: int, stat_span) -> None:
        self.pkg = pkg
        self.k3 = pkg.base_graph.make_complete_graph(3)
        self.k4 = pkg.base_graph.make_complete_graph(4)
        self.y = stat_span(pkg.experiments.make_statistic("Y", 3))
        self.z3 = stat_span(pkg.experiments.make_statistic("Z3", None))
        self.caches = {
            name: getattr(pkg.moments_exact, name)
            for name in ("proper_matching_count", "proper_pair_matching_count")
        }
        self.cache_stats = []

    def calls(self) -> tuple:
        me, k3, k4 = self.pkg.moments_exact, self.k3, self.k4
        return (
            lambda: me.expected_Y2_exact(k4, 6, 3),
            lambda: me.expected_X_exact(k4, 6, 3),
            lambda: me.brute_force_moment(k3, 3, self.y),
            lambda: me.brute_force_moment(k4, 2, self.z3),
        )

    def start_pass(self) -> None:
        for cache in self.caches.values():
            cache.cache_clear()

    def end_pass(self) -> None:
        self.cache_stats.append(
            {name: cache.cache_info()[:2] for name, cache in self.caches.items()}
        )

    def check(self, records: list[Record]) -> list[str]:
        pkg = self.pkg
        expected = FACTS["expected"]
        want = (
            Fraction(expected["E_Y2_K4_n6_k3"]),
            Fraction(expected["E_X_K4_n6_k3"]),
            pkg.moments_exact.expected_Y_exact(self.k3, 3, 3),
            Fraction(pkg.asymptotics.walk_count_cj(self.k4, 3), 6),
        )
        errors = [] if want[3] == 4 else [f"walk_count_cj(K4,3)/6 = {want[3]}, not 4"]
        for rec in records:
            if rec.outcome != OK:
                errors.append(f"{self.label(rec.cell)}: {rec.error or 'censored'}")
            elif rec.value != want[rec.cell]:
                errors.append(f"{self.label(rec.cell)} = {rec.value}, want {want[rec.cell]}")
        return errors


class AsymptoticChecks(FixedCalls):
    """The Laplace path against the closed forms, the SSC identity, and the
    F-functional ascent.  No lift is sampled; the lattice problems are built
    in set-up.  The Laplace EY estimate on K4, about 60 ms, runs seven times
    a pass, so that more than half of the ops are of one kind and the
    median op falls among them.  Laplace EY on Petersen, about 0.7 s, is
    the slowest op; a pass takes about 2 s, so a run holds more than 11 and
    the 11th-largest op always falls among its calls.  Laplace EY2 on
    Petersen (2.5 s), Laplace on K5 with k=4 (6 s) and ascents of more than
    20 trials are left out for the same reason as the K4 oracles in
    ExactMoments."""

    LAPLACE_N = 60
    ASCENT_TRIALS = 20
    CELLS = (
        ("sscm K4 k=3", 1),
        ("sscm Petersen k=3", 1),
        ("laplace EY K4 k=3", 7),
        ("laplace EY2 K4 k=3", 1),
        ("ascent F K4 k=3", 1),
        ("laplace EY Petersen k=3", 1),
    )
    LAPLACE_CELLS = (2, 3, 5)
    SSC_CELLS = (0, 1)
    LAPLACE_REL_TOL = 1e-9
    SSC_GAP_TOL = 1e-8
    SSC_CLOSED_REL_TOL = 1e-10
    ASCENT_GAP_TOL = -1e-9

    def setup(self, pkg, seed: int, stat_span) -> None:
        self.pkg, self.seed = pkg, seed
        bg, lt = pkg.base_graph, pkg.lattice_tools
        self.k4 = bg.make_complete_graph(4)
        self.petersen = bg.make_petersen_graph()
        self.problems = {
            (name, which): (lt.build_ey_problem if which == "EY" else lt.build_ey2_problem)(g, 3)
            for name, g, which in (
                ("K4", self.k4, "EY"), ("K4", self.k4, "EY2"), ("Petersen", self.petersen, "EY")
            )
        }

    def laplace(self, name: str, which: str):
        asym = self.pkg.asymptotics
        g = self.k4 if name == "K4" else self.petersen
        closed_form = asym.ey_asym if which == "EY" else asym.ey2_asym
        lap = self.pkg.lattice_tools.laplace_estimate(self.problems[name, which], self.LAPLACE_N)
        return lap, closed_form(g, self.LAPLACE_N, 3)

    def calls(self) -> tuple:
        asym, so = self.pkg.asymptotics, self.pkg.stochastic_opt
        return (
            lambda: asym.sscm_identity_check(self.k4, 3),
            lambda: asym.sscm_identity_check(self.petersen, 3),
            lambda: self.laplace("K4", "EY"),
            lambda: self.laplace("K4", "EY2"),
            lambda: so.verify_max_uniform(
                "F", g=self.k4, k=3, trials=self.ASCENT_TRIALS, seed=self.seed
            ),
            lambda: self.laplace("Petersen", "EY"),
        )

    def check(self, records: list[Record]) -> list[str]:
        errors = []
        for rec in records:
            name = self.label(rec.cell)
            if rec.outcome != OK:
                errors.append(f"{name}: {rec.error or 'censored'}")
            elif rec.cell in self.LAPLACE_CELLS:
                lap, closed = rec.value
                rel = abs(math.exp(lap.log - closed.log) - 1.0)
                if not rel <= self.LAPLACE_REL_TOL:
                    errors.append(f"{name}: relative error {rel:.3g}")
            elif rec.cell in self.SSC_CELLS:
                chk = rec.value
                if not (
                    chk.gap < self.SSC_GAP_TOL
                    and abs(chk.lhs - chk.closed_form) <= self.SSC_CLOSED_REL_TOL * abs(chk.lhs)
                ):
                    errors.append(f"{name}: gap {chk.gap:.3g}, closed form {chk.closed_form}")
            elif not rec.value.gap_to_uniform >= self.ASCENT_GAP_TOL:
                errors.append(f"{name}: gap_to_uniform {rec.value.gap_to_uniform:.3g}")
        return errors


WORKLOADS = {
    "mc_cycles": McCycles,
    "mc_chromatic": McChromatic,
    "exact_moments": ExactMoments,
    "asymptotic_checks": AsymptoticChecks,
}


# ---------------------------------------------------------------------------
# Set-up, measurement and metrics


def import_package():
    """Import the package afresh from ./src.  Its modules are dropped from
    sys.modules first, so every set-up pays for the package's own import;
    third-party modules such as numpy stay loaded after the first."""
    src = ROOT / "src"
    if not (src / "liftchroma" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no liftchroma package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n.split(".")[0] == "liftchroma"]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"liftchroma.{m}") for m in MODULES})


def install_spans(pkg, tracer: Tracer) -> None:
    for module, attr, span, count in LAYER_SPANS:
        fn = getattr(getattr(pkg, module), attr)
        wrapper = tracer.span_iter(span, fn) if count == "iter" else tracer.span(span, fn, count)
        tracer.install("liftchroma", getattr(pkg, module), attr, wrapper)


def set_up(name: str, seed: int, traced: bool):
    """Import the package and build the inputs; the part charged to setup_s."""
    t0 = time.perf_counter()
    pkg = import_package()
    tracer = None
    stat_span = lambda fn: fn  # noqa: E731
    if traced:
        tracer = Tracer(pkg.errors.BudgetExhaustedError)
        install_spans(pkg, tracer)
        stat_span = functools.partial(tracer.span, STATISTIC_SPAN)
    workload = WORKLOADS[name]()
    workload.setup(pkg, seed, stat_span)
    return pkg, workload, tracer, time.perf_counter() - t0


def measure(
    workload, seconds: float, tracer: Tracer | None, censored_exc
) -> tuple[list[Record], list[tuple[float, int]], float]:
    """Run passes while one more still fits in ``seconds``; return the op
    records, (seconds, ok ops) of each pass and the seconds measured."""
    records: list[Record] = []
    passes: list[tuple[float, int]] = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) + passes[-1][0] <= seconds:
        pass_start = time.perf_counter()
        first = len(records)
        workload.start_pass()
        for cell, index, call in workload.ops(len(passes)):
            records.append(run_op(cell, index, call, censored_exc, tracer, len(records)))
        workload.end_pass()
        ok = sum(r.outcome == OK for r in records[first:])
        passes.append((time.perf_counter() - pass_start, ok))
    return records, passes, time.perf_counter() - start


def run_op(cell: int, index: int, call, censored_exc, tracer=None, op_id=-1) -> Record:
    """Time one call and record its outcome; an op that fails must not stop
    the run."""
    error, value = None, None
    t0 = time.perf_counter()
    try:
        value = call() if tracer is None else tracer.op(op_id, call)
        outcome = OK
    except censored_exc:
        outcome = CENSORED
    except Exception as exc:
        outcome, error = FAILED, type(exc).__name__
    return Record(cell, index, outcome, error, value, time.perf_counter() - t0)


def tail_latency(sorted_ms: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND ops
    beyond it: the (TAIL_BEYOND + 1)-th largest op time.  A run of at most
    TAIL_BEYOND ops, which only a very short --seconds gives, reports its
    maximum as percentile 100."""
    count = len(sorted_ms)
    if count <= TAIL_BEYOND:
        return 100.0, sorted_ms[-1]
    return 100.0 * (count - TAIL_BEYOND) / count, sorted_ms[-TAIL_BEYOND - 1]


def span_arrays(tracer: Tracer):
    import numpy as np

    cols = {c: np.asarray(tracer.cols[c]) for c in tracer.cols}
    dur = (cols["end"] - cols["start"]) / 1e9
    has_parent = cols["parent"] >= 0
    child = np.bincount(
        cols["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return cols, dur, dur - child


def layer_metrics(tracer: Tracer, workload, passes: int, wanted: list[dict]) -> dict:
    cols, dur, self_s = span_arrays(tracer)
    in_ops = cols["op"] >= 0
    top = in_ops & (cols["parent"] < 0)
    cache_stats = workload.cache_stats
    spans_per_pass = int(in_ops.sum()) / passes
    values = {
        "trace.wall_s": float(dur[top].sum()) / passes,
        "trace.spans": spans_per_pass,
        "trace.overhead_s": spans_per_pass * span_cost_s(),
    }
    for metric in wanted:
        name = metric["name"]
        if name in values:
            continue
        span, kind = name.rsplit(".", 1)
        if kind in ("hits", "misses"):
            cache = span.rsplit(".", 1)[1]
            pos = 0 if kind == "hits" else 1
            values[name] = (
                sum(s[cache][pos] for s in cache_stats) / passes if cache_stats else 0
            )
            continue
        span = OP_SPAN if span == "bench.residual" else span
        if span not in tracer.names:
            values[name] = 0
            continue
        scope = ~in_ops if span in SETUP_SPANS else in_ops
        per = 1 if span in SETUP_SPANS else passes
        sel = scope & (cols["name"] == tracer.name_id(span))
        if kind == "self_s":
            values[name] = float(self_s[sel].sum()) / per
        elif kind == "calls":
            values[name] = int(sel.sum()) / per
        elif kind == "censored":
            values[name] = int((sel & (cols["outcome"] == CENSORED)).sum()) / per
        elif kind == "failed":
            values[name] = int((sel & (cols["outcome"] == FAILED)).sum()) / per
        else:  # the span's own count: lifted edges, kernel dimension, lifts
            values[name] = int(cols["count"][sel].sum()) / per
    # A coverage check: self times telescope to the top-level spans, so the
    # sum falls short of trace.wall_s only when a wrapped span has no
    # self_s metric in BENCHMARK.json.
    op_self = sum(
        v for k, v in values.items()
        if k.endswith(".self_s") and k.rsplit(".", 1)[0] not in SETUP_SPANS
    )
    if not math.isclose(op_self, values["trace.wall_s"], rel_tol=1e-6, abs_tol=1e-9):
        raise RuntimeError(
            f"self times add up to {op_self} s, traced wall is {values['trace.wall_s']} s"
        )
    return {m["name"]: values[m["name"]] for m in wanted}


def outcome_counts(workload, records: list[Record]) -> dict[str, dict[str, int]]:
    """{cell label: {outcome or error type: ops}}"""
    by_cell: dict[str, dict[str, int]] = {}
    for r in records:
        counts = by_cell.setdefault(workload.label(r.cell), {})
        key = r.error or OUTCOME_NAMES[r.outcome]
        counts[key] = counts.get(key, 0) + 1
    return by_cell


def write_spans(tracer: Tracer, path: Path) -> None:
    import numpy as np

    cols, _, _ = span_arrays(tracer)
    np.savez_compressed(path, names=np.array(tracer.names), **cols)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    budget = FACTS["node_budget"]
    if WORKLOADS[args.workload].uses_budget:
        os.environ["LIFTCHROMA_BUDGET"] = str(budget)

    setup_samples = []
    for _ in range(SETUP_REPEATS):  # the last set-up is the one measured
        pkg, workload, tracer, seconds = set_up(args.workload, args.seed, bool(args.trace))
        setup_samples.append(seconds)
    traced = tracer is not None

    records, passes, elapsed = measure(
        workload, args.seconds, tracer, pkg.errors.BudgetExhaustedError
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced:
        tracer.uninstall()
    probed = workload.probe(pkg.errors.BudgetExhaustedError)
    check_errors = workload.check(records + probed)

    attempted = len(records)
    outcomes = [r.outcome for r in records]
    ok, censored, failed = (outcomes.count(o) for o in (OK, CENSORED, FAILED))
    latencies = sorted(r.seconds * 1e3 for r in records)
    tail_p, tail_ms = tail_latency(latencies)
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(sec for sec, _ in passes),
        "throughput_ops_s": statistics.median(n_ok / sec for sec, n_ok in passes),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb,
    }
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if traced else bench["end_to_end"]
    if traced:
        metrics = layer_metrics(tracer, workload, len(passes), wanted)
    else:
        metrics = {m["name"]: end_to_end[m["name"]] for m in wanted}

    by_cell = outcome_counts(workload, records)
    probe_by_cell = outcome_counts(workload, probed)
    probe_failed = sum(r.outcome == FAILED for r in probed)
    cell_ms: dict[str, list[float]] = {}
    for r in records:
        cell_ms.setdefault(workload.label(r.cell), []).append(r.seconds * 1e3)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "node_budget": budget if workload.uses_budget else None,
        "machine": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
        },
        "passes": len(passes),
        "measured_s": elapsed,
        "attempted": attempted,
        "ok": ok,
        "censored": censored,
        "failed": failed,
        "failed_share": failed / attempted,
        "censored_share": censored / attempted,
        "latency_tail_percentile": tail_p,
        "outcomes_by_cell": by_cell,
        "probe_outcomes_by_cell": probe_by_cell,
        "probe_failed_share": probe_failed / len(probed) if probed else None,
        "latency_p50_ms_by_cell": {c: statistics.median(v) for c, v in cell_ms.items()},
        "setup_samples_s": setup_samples,
        "end_to_end": end_to_end,
        "metrics": metrics,
        "check_errors": check_errors,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        write_spans(tracer, RESULTS / f"{stem}.spans.npz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  ops {attempted}  measured {elapsed:.3f} s")
    if workload.uses_budget:
        print(f"node_budget {budget} (LIFTCHROMA_BUDGET)")
    for name, value in end_to_end.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"latency_tail_percentile p{tail_p:.4g} of {attempted} ops")
    print(f"failed_share {failed / attempted:.6g} share")
    print(f"censored_share {censored / attempted:.6g} share")
    for cell, counts in by_cell.items():
        print(f"  {cell}: {json.dumps(counts, sort_keys=True)}")
    if probed:
        print(f"probe_failed_share {probe_failed / len(probed):.6g} share "
              f"({len(probed)} untimed samples after measuring)")
        for cell, counts in probe_by_cell.items():
            print(f"  probe {cell}: {json.dumps(counts, sort_keys=True)}")
    if traced:
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
    for err in check_errors:
        print(f"CHECK FAILED {err}")
    print(json.dumps({
        "correct": not check_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if check_errors else 0


if __name__ == "__main__":
    sys.exit(main())
