"""Sampling, enumeration and expansion of n-lifts of a base graph.

An n-lift replaces every base vertex v by a fiber of n vertices (v, i) and
every base edge e = (v, v') by a perfect matching between the two fibers,
encoded as a permutation pi_e of [0, n).

Permutation convention: pi_e maps the *tail*-fiber index to the *head*-fiber
index, so the lifted edges of e are ((v, i), (v', pi_e(i))).  The convention
is arbitrary but load-bearing: every (a, b)-indexed overlap quantity uses it.

Lifted vertex ids are flattened as id = v * n + i.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .base_graph import BaseGraph, validate
from .errors import TooLargeError

DEFAULT_ENUMERATION_CAP = 10**7
MAX_CYCLE_LENGTH = 12


@dataclass(frozen=True)
class Lift:
    """One permutation per base edge; immutable and safe to share."""

    base: BaseGraph
    n: int
    matchings: tuple[tuple[int, ...], ...]
    seed: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"fiber size must be >= 1, got {self.n}")
        if len(self.matchings) != self.base.num_edges:
            raise ValueError(
                f"need {self.base.num_edges} matchings, got {len(self.matchings)}"
            )
        for perm in self.matchings:
            if sorted(perm) != list(range(self.n)):
                raise ValueError("each matching must be a permutation of range(n)")

    def to_json(self) -> str:
        """Audit-trail record {n, seed?, matchings}."""
        return json.dumps(
            {
                "n": self.n,
                "seed": self.seed,
                "matchings": [list(p) for p in self.matchings],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(base: BaseGraph, text: str) -> "Lift":
        rec = json.loads(text)
        return Lift(
            base=base,
            n=int(rec["n"]),
            matchings=tuple(tuple(int(x) for x in p) for p in rec["matchings"]),
            seed=rec.get("seed"),
        )


@dataclass(frozen=True)
class LiftedGraph:
    """Explicit multigraph on the lifted vertex set.

    Also usable as a plain multigraph container (``base=None``) so the
    colouring solvers can run on arbitrary small graphs.  ``edges`` keeps
    one entry per lifted edge; repeats encode multi-edges.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    base: BaseGraph | None = None
    n: int = 1
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, w in self.edges:
            adj[u].append(w)
            adj[w].append(u)
        object.__setattr__(self, "adjacency", tuple(tuple(a) for a in adj))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def simple_adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted distinct neighbours of each vertex, loops dropped: the
        colouring solvers' view, in which parallel edges impose one
        constraint.  Built on first use and kept, as the graph is immutable."""
        adj = [set() for _ in range(self.num_vertices)]
        for u, w in self.edges:
            if u != w:
                adj[u].add(w)
                adj[w].add(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adjacency]


def sample_lift(g: BaseGraph, n: int, rng) -> Lift:
    """Draw a uniform lift: one independent uniform permutation per edge.

    ``rng`` may be an int seed, a numpy SeedSequence, or a Generator.  For
    int/SeedSequence input the sequence is split into one child stream per
    base edge, so sampling is reproducible and trivially parallelisable.
    """
    validate(g)
    if n < 1:
        raise ValueError(f"fiber size must be >= 1, got {n}")
    seed = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.SeedSequence(seed)
    if isinstance(rng, np.random.SeedSequence):
        streams = [np.random.default_rng(child) for child in rng.spawn(g.num_edges)]
    else:
        streams = [rng] * g.num_edges
    matchings = tuple(
        tuple(int(x) for x in stream.permutation(n)) for stream in streams
    )
    return Lift(base=g, n=n, matchings=matchings, seed=seed)


def enumerate_lifts(g: BaseGraph, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Lift]:
    """Yield all n!^{|E|} lifts of g exactly once.

    Raises TooLargeError up front when the count exceeds ``cap``.
    """
    validate(g)
    if n < 1:
        raise ValueError(f"fiber size must be >= 1, got {n}")
    total = math.factorial(n) ** g.num_edges
    if total > cap:
        raise TooLargeError(
            f"{math.factorial(n)}^{g.num_edges} = {total} lifts exceeds cap {cap}"
        )
    perms = list(itertools.permutations(range(n)))
    for combo in itertools.product(perms, repeat=g.num_edges):
        yield Lift(base=g, n=n, matchings=combo)


def expand(lift: Lift) -> LiftedGraph:
    """Explicit adjacency: edge ((v, i), (v', pi_e(i))) per base edge e."""
    g, n = lift.base, lift.n
    edges = []
    for (tail, head), perm in zip(g.edges, lift.matchings):
        base_t = tail * n
        base_h = head * n
        edges.extend((base_t + i, base_h + perm[i]) for i in range(n))
    return LiftedGraph(
        num_vertices=g.num_vertices * n, edges=tuple(edges), base=g, n=n
    )


def verify_covering(lg: LiftedGraph, g: BaseGraph) -> bool:
    """True iff projecting (v, i) -> v is a covering map onto g.

    Checks that every lifted edge projects to a base edge and that the
    neighbour multiset of each lifted vertex projects onto the neighbour
    multiset of its base vertex (local bijectivity on incident edges).
    """
    n = lg.n
    if n < 1 or lg.num_vertices != g.num_vertices * n:
        return False
    base_neighbors = [g.neighbor_multiset(v) for v in range(g.num_vertices)]
    for u in range(lg.num_vertices):
        v = u // n
        seen: dict[int, int] = {}
        for w in lg.adjacency[u]:
            seen[w // n] = seen.get(w // n, 0) + 1
        if seen != base_neighbors[v]:
            return False
    return True


def count_cycles(lg: LiftedGraph, j: int) -> int:
    """Number of unrooted, unoriented cycles of length exactly j.

    A j-cycle is a set of j distinct edges forming a closed walk through j
    distinct vertices; for j = 2 it is a pair of parallel edges (relevant
    when the base is a multigraph).  Counted combinatorially so overlapping
    and multi-edge-induced cycles are exact.
    """
    if j < 2:
        raise ValueError(f"cycle length must be >= 2, got {j}")
    return count_cycles_up_to(lg, j)[j]


def count_cycles_up_to(lg: LiftedGraph, jmax: int) -> dict[int, int]:
    """All cycle counts {j: Z_j} for 2 <= j <= jmax <= MAX_CYCLE_LENGTH in
    one DFS sweep.

    Each cycle is discovered from its minimum vertex id (only larger ids may
    appear inside a path) and in both directions, so closures are divided
    by 2.  Parallel edges are repeated neighbours, so each closes its own
    cycle.
    """
    if jmax > MAX_CYCLE_LENGTH:
        raise ValueError(f"cycle length {jmax} exceeds max {MAX_CYCLE_LENGTH}")
    counts = {j: 0 for j in range(2, jmax + 1)}
    if jmax < 2:
        return counts

    # Parallel pairs: each unordered pair of parallel edges is one 2-cycle.
    pair_mult: dict[tuple[int, int], int] = {}
    for u, w in lg.edges:
        key = (u, w) if u <= w else (w, u)
        pair_mult[key] = pair_mult.get(key, 0) + 1
    counts[2] = sum(m * (m - 1) // 2 for m in pair_mult.values())
    if jmax == 2:
        return counts

    adjacency = lg.adjacency
    closures = {j: 0 for j in range(3, jmax + 1)}
    in_path = [False] * lg.num_vertices

    def extend(anchor: int, vertex: int, length: int) -> None:
        # length = number of edges used so far to reach `vertex`.
        for w in adjacency[vertex]:
            if w == anchor:
                if length + 1 >= 3:
                    closures[length + 1] += 1
            elif w > anchor and not in_path[w] and length + 1 < jmax:
                in_path[w] = True
                extend(anchor, w, length + 1)
                in_path[w] = False

    for anchor in range(lg.num_vertices):
        for w in adjacency[anchor]:
            if w > anchor:
                in_path[w] = True
                extend(anchor, w, 1)
                in_path[w] = False

    for j in range(3, jmax + 1):
        assert closures[j] % 2 == 0
        counts[j] = closures[j] // 2
    return counts
