"""Reproducible Monte Carlo campaigns over random lifts.

Seeding contract: a campaign's master seed expands to one seed per
(cell, sample) pair through numpy's SeedSequence spawn-key mechanism,

    SeedSequence(master_seed, spawn_key=(cell_index, sample_index)),

so campaigns can be sharded across processes without stream overlap and
replayed bit-identically.  Inside one sample the lift sampler splits again
into one stream per base edge.

Statistic names: "Zj" (j-cycle count, e.g. "Z3"), "chi" (exact chromatic
number), "X" (proper k-colouring count), "Y" (strongly equitable count
under the uniform quota; identically zero when k does not divide n), and
"Y*Zj".  "Y" deliberately uses the uniform (r = 0) quota: campaigns probe
the moment identities, which are stated for k | n.

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

from .base_graph import BaseGraph, resolve_graph_arg, validate
from .coloring import chromatic_number, count_proper_colorings, count_strongly_equitable
from .errors import BudgetExhaustedError, InvalidConfigError, UndefinedRatioError
from .lift import Lift, count_cycles_up_to, enumerate_lifts, expand, sample_lift

_STAT_RE = re.compile(r"^(?:Z(\d+)|Y\*Z(\d+)|X|Y|chi)$")


def _parse_statistic(name: str) -> tuple[str, int | None]:
    m = _STAT_RE.match(name)
    if not m:
        raise InvalidConfigError(f"unknown statistic {name!r}")
    if m.group(1):
        return "Z", int(m.group(1))
    if m.group(2):
        return "YZ", int(m.group(2))
    return name, None


def make_statistic(
    name: str, k: int | None, budget: int | None = None
) -> Callable[[Lift], Fraction]:
    """Build the per-lift evaluator for a named statistic.

    ``budget`` is the node budget of each exact solver call (chi, X, Y);
    None defers to LIFTCHROMA_BUDGET or the default (coloring.node_budget).
    """
    kind, j = _parse_statistic(name)
    if kind in ("X", "Y", "YZ") and k is None:
        raise InvalidConfigError(f"statistic {name!r} needs k")

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
    if kind == "chi":
        return lambda lift: Fraction(chromatic_number(expand(lift), budget=budget))
    raise InvalidConfigError(f"unknown statistic {name!r}")


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

    def csv_row(self, embed_timings: bool) -> list[str]:
        return [
            self.statistic,
            str(self.n),
            "" if self.k is None else str(self.k),
            repr(self.mean),
            repr(self.stderr),
            str(self.samples),
            str(self.censored),
            repr(round(self.seconds, 3)) if embed_timings else "0.0",
        ]


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
    validate(g)
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
    validate(g)
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
        if self.samples < 1:
            raise InvalidConfigError("samples must be >= 1")
        if self.seed is None:
            raise InvalidConfigError("a master seed is required (no ambient entropy)")
        if not self.n_values:
            raise InvalidConfigError("need at least one fiber size n")
        for s in self.statistics:
            kind, _ = _parse_statistic(s)
            if kind in ("X", "Y", "YZ") and self.k is None:
                raise InvalidConfigError(f"statistic {s!r} needs k")

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
    records: list[EstimateRecord] = []
    cell_index = 0
    for statistic in config.statistics:
        for n in config.n_values:
            records.append(
                mc_expectation(
                    g,
                    n,
                    config.k,
                    statistic,
                    config.samples,
                    config.seed,
                    cell_index=cell_index,
                    budget=config.budget,
                )
            )
            cell_index += 1

    prefix = Path(config.output_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.with_suffix(".csv")
    jsonl_path = prefix.with_suffix(".jsonl")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(rec.csv_row(config.embed_timings))
    csv_path.write_text(buf.getvalue())

    lines = [
        json.dumps(
            {"config": json.loads(config.canonical_json()), "config_sha256": config.sha256()},
            sort_keys=True,
            separators=(",", ":"),
        )
    ]
    for rec in records:
        row = asdict(rec)
        if not config.embed_timings:
            row["seconds"] = 0.0
        else:
            row["seconds"] = round(row["seconds"], 3)
        lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
    jsonl_path.write_text("\n".join(lines) + "\n")
    return records
