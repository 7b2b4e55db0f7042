"""Reproducible Monte Carlo campaigns over random lifts.

Seeding contract: a campaign's master seed expands to one seed per
(cell, sample) pair through numpy's SeedSequence spawn-key mechanism,

    SeedSequence(master_seed, spawn_key=(cell_index, sample_index)),

so campaigns can be sharded across processes without stream overlap and
replayed bit-identically.  Inside one sample the lift sampler splits again
into one stream per base edge.

Statistic names: "Zj" (j-cycle count for 2 <= j <= MAX_CYCLE_LENGTH, e.g.
"Z3"), "chi" (exact chromatic number), "X" (proper k-colouring count), "Y"
(strongly equitable count under the uniform quota; identically zero when k
does not divide n), and "Y*Zj".  "Y" deliberately uses the uniform (r = 0)
quota: campaigns probe the moment identities, which are stated for k | n.

Output files: a CSV with the fixed schema
statistic,n,k,mean,stderr,samples,censored,seconds and a JSONL file whose
first line embeds the full config and its sha256.  Wall-clock timings are
telemetry, not data; by default the seconds column is written as 0.0 so
replaying a config reproduces byte-identical files (set
``embed_timings=true`` to trade determinism for timings).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from .base_graph import BaseGraph, resolve_graph_arg
from .coloring import (
    COUNT_VERTEX_CAP,
    chromatic_number,
    count_proper_colorings,
    count_strongly_equitable,
    node_budget,
)
from .errors import BudgetExhaustedError, InvalidConfigError, UndefinedRatioError
from .lift import MAX_CYCLE_LENGTH, Lift, count_cycles_up_to, enumerate_lifts, expand, sample_lift

_STAT_RE = re.compile(r"^(?:Z(\d+)|Y\*Z(\d+)|X|Y|chi)$")


def make_statistic(
    name: str, k: int | None, budget: int | None = None
) -> Callable[[Lift], Fraction]:
    """Build the per-lift evaluator for a named statistic.

    ``budget`` is the budget of each exact solver call (chi, X, Y), one unit
    per search node (chi, Y) or kernel transition (X); None defers to
    LIFTCHROMA_BUDGET or the default (coloring.node_budget), read here, so
    that a campaign refuses a bad LIFTCHROMA_BUDGET before its first cell.
    """
    m = _STAT_RE.match(name)
    if not m:
        raise InvalidConfigError(f"unknown statistic {name!r}")
    j = int(m.group(1) or m.group(2) or 0)
    kind = "Z" if m.group(1) else "YZ" if m.group(2) else name
    if kind in ("X", "Y", "YZ") and not (isinstance(k, int) and k >= 1):
        raise InvalidConfigError(f"statistic {name!r} needs an integer k >= 1, got {k!r}")
    if kind in ("Z", "YZ") and not 2 <= j <= MAX_CYCLE_LENGTH:
        raise InvalidConfigError(f"{name!r}: cycle length not in 2..{MAX_CYCLE_LENGTH}")
    if kind != "Z":
        budget = node_budget(budget)

    def strict_equitable(lift: Lift) -> int:
        if lift.n % k != 0:
            return 0
        return count_strongly_equitable(lift, k, budget=budget)

    if kind == "Z":
        return lambda lift: Fraction(count_cycles_up_to(expand(lift), j)[j])
    if kind == "X":
        return lambda lift: Fraction(count_proper_colorings(expand(lift), k, budget=budget))
    if kind == "Y":
        return lambda lift: Fraction(strict_equitable(lift))
    if kind == "YZ":
        return lambda lift: Fraction(
            strict_equitable(lift) * count_cycles_up_to(expand(lift), j)[j]
        )
    return lambda lift: Fraction(chromatic_number(expand(lift), budget=budget))  # chi


@dataclass(frozen=True)
class EstimateRecord:
    statistic: str
    n: int
    k: int | None
    mean: float
    stderr: float
    samples: int
    censored: int
    seconds: float

    def row(self, embed_timings: bool) -> dict:
        """The record as written to the CSV and the JSONL: ``seconds`` is
        rounded to milliseconds, or 0.0 unless timings are embedded."""
        row = asdict(self)
        row["seconds"] = round(self.seconds, 3) if embed_timings else 0.0
        return row

    def csv_row(self, embed_timings: bool) -> list[str]:
        return ["" if v is None else str(v) for v in self.row(embed_timings).values()]


def sample_seed(master_seed: int, cell_index: int, sample_index: int) -> np.random.SeedSequence:
    """The documented counter scheme for per-sample streams."""
    return np.random.SeedSequence(master_seed, spawn_key=(cell_index, sample_index))


def mc_expectation(
    g: BaseGraph,
    n: int,
    k: int | None,
    statistic: str,
    samples: int,
    seed: int,
    cell_index: int = 0,
    budget: int | None = None,
) -> EstimateRecord:
    """Sample mean and standard error of a statistic over independent lifts.

    Budget-exhausted samples are excluded from the mean and reported as
    censored, never silently folded in.  ``budget`` is passed to
    make_statistic.
    """
    stat = make_statistic(statistic, k, budget)
    start = time.perf_counter()
    values: list[float] = []
    censored = 0
    for idx in range(samples):
        lift = sample_lift(g, n, sample_seed(seed, cell_index, idx))
        try:
            values.append(float(stat(lift)))
        except BudgetExhaustedError:
            censored += 1
    if not values:
        raise BudgetExhaustedError("all samples censored; nothing to average")
    arr = np.array(values)
    stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return EstimateRecord(
        statistic=statistic,
        n=n,
        k=k,
        mean=float(arr.mean()),
        stderr=stderr,
        samples=samples,
        censored=censored,
        seconds=time.perf_counter() - start,
    )


def joint_ratio_estimate(
    g: BaseGraph,
    n: int,
    k: int,
    j: int,
    samples: int | None = None,
    seed: int = 0,
) -> Fraction | float:
    """Ratio estimator (sum Y * Z_j) / (sum Y) over lifts.

    This targets E[Y Z_j] / E[Y] (a ratio of expectations, hence
    sum-over-sum rather than a mean of per-lift ratios).  With
    ``samples=None`` the full lift space is enumerated and the ratio is
    exact.  Y and Z_j are each counted once per lift.  Raises
    UndefinedRatioError when the denominator vanishes.
    """
    y_stat = make_statistic("Y", k)
    z_stat = make_statistic(f"Z{j}", None)
    if samples is None:
        lifts = enumerate_lifts(g, n)
    else:
        lifts = (sample_lift(g, n, sample_seed(seed, 0, idx)) for idx in range(samples))
    num = Fraction(0)
    den = Fraction(0)
    for lift in lifts:
        y = y_stat(lift)
        num += y * z_stat(lift)
        den += y
    if den == 0:
        where = "all lifts" if samples is None else "the sample"
        raise UndefinedRatioError(f"sum of Y over {where} is zero")
    return num / den if samples is None else float(num / den)


def _int_at_least(value, least: int) -> bool:
    """value is an int, never a bool, and value >= least."""
    return type(value) is int and value >= least


@dataclass
class CampaignConfig:
    """Everything needed to replay a campaign bit-for-bit."""

    graph: str  # "Km" shorthand or path to a graph text file
    n_values: list[int]
    k: int | None
    statistics: list[str]
    samples: int
    seed: int
    output_prefix: str
    budget: int | None = None
    embed_timings: bool = False

    def validate_config(self) -> None:
        """Raise InvalidConfigError unless every field has its type and range."""
        if not _int_at_least(self.samples, 1):
            raise InvalidConfigError(f"samples must be an integer >= 1, got {self.samples!r}")
        if not _int_at_least(self.seed, 0):
            raise InvalidConfigError(f"the master seed must be an integer >= 0, got {self.seed!r}")
        if not (self.budget is None or _int_at_least(self.budget, 1)):
            raise InvalidConfigError(f"budget must be null or an integer >= 1, got {self.budget!r}")
        if not self.n_values:
            raise InvalidConfigError("need at least one fiber size n")
        if not all(_int_at_least(n, 1) for n in self.n_values):
            raise InvalidConfigError("fiber sizes n must be integers >= 1")
        if not (self.k is None or type(self.k) is int):
            raise InvalidConfigError(f"k must be null or an integer, got {self.k!r}")
        if not self.statistics:
            raise InvalidConfigError("need at least one statistic")
        for s in self.statistics:
            make_statistic(s, self.k, self.budget)

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @staticmethod
    def from_json(text: str) -> "CampaignConfig":
        raw = json.loads(text)
        try:
            return CampaignConfig(**raw)
        except TypeError as exc:
            raise InvalidConfigError(str(exc)) from exc


CSV_HEADER = ["statistic", "n", "k", "mean", "stderr", "samples", "censored", "seconds"]


def run_campaign(config: CampaignConfig) -> list[EstimateRecord]:
    """Execute every (statistic, n) cell and write CSV + JSONL outputs.

    Cell indices are assigned in (statistic, n) iteration order; records
    are emitted in the same order, so identical configs produce identical
    bytes (timings suppressed unless embed_timings).
    """
    config.validate_config()
    g = resolve_graph_arg(config.graph)
    cells = [(statistic, n) for statistic in config.statistics for n in config.n_values]
    for statistic, n in cells:
        # Y is 0 without a count unless k | n; the count refuses larger lifts.
        m = g.num_vertices * n
        if statistic.startswith("Y") and n % config.k == 0 and m > COUNT_VERTEX_CAP:
            raise InvalidConfigError(
                f"{statistic} at n={n}: {m} vertices exceeds exact-count cap {COUNT_VERTEX_CAP}"
            )
    records = [
        mc_expectation(
            g, n, config.k, statistic, config.samples, config.seed,
            cell_index=cell_index, budget=config.budget,
        )
        for cell_index, (statistic, n) in enumerate(cells)
    ]

    prefix = Path(config.output_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = Path(f"{prefix}.csv")
    jsonl_path = Path(f"{prefix}.jsonl")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(rec.csv_row(config.embed_timings))
    csv_path.write_text(buf.getvalue())

    meta = {"config": json.loads(config.canonical_json()), "config_sha256": config.sha256()}
    rows = [meta] + [rec.row(config.embed_timings) for rec in records]
    lines = [json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows]
    jsonl_path.write_text("\n".join(lines) + "\n")
    return records
