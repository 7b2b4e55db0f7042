"""Exact colourability decisions and exact colouring counts.

Counting conventions matter here: colour classes are *labelled* (no division
by k!), because every moment identity in :mod:`liftchroma.moments_exact`
is stated for labelled colourings.

A strongly equitable k-colouring of an n-lift assigns, inside every fiber,
exactly q+1 vertices to each of colours 0..r-1 and exactly q vertices to
each of colours r..k-1, where n = q*k + r.  For r = 0 this is the plain
"n/k of each colour per fiber" condition.  Which colours receive the larger
quota is part of the definition, so counts are not symmetric under colour
relabelling when 0 < r.

All searches honour a node budget; exhausting it raises
BudgetExhaustedError ("unknown"), never a wrong answer.  The default budget
is 10**8 nodes and can be overridden with the LIFTCHROMA_BUDGET env var.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from typing import Sequence

from .base_graph import connected_components
from .errors import BudgetExhaustedError, TooLargeError
from .lift import Lift, LiftedGraph, expand

DEFAULT_NODE_BUDGET = 10**8
COUNT_VERTEX_CAP = 40  # vertex limit of the two exact colouring counters


def node_budget(budget: int | None = None) -> int:
    """Resolve the search budget: explicit arg > env var > default."""
    if budget is not None:
        return budget
    env = os.environ.get("LIFTCHROMA_BUDGET")
    if env:
        return int(env)
    return DEFAULT_NODE_BUDGET


@dataclass(frozen=True)
class EquitableSpec:
    """Per-fiber colour quotas: colours 0..r-1 get q+1, colours r..k-1 get q."""

    k: int
    n: int

    @property
    def q(self) -> int:
        return self.n // self.k

    @property
    def r(self) -> int:
        return self.n % self.k

    def quotas(self) -> tuple[int, ...]:
        q, r = self.q, self.r
        return tuple(q + 1 if c < r else q for c in range(self.k))


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExhaustedError("search node budget exhausted")


def is_bipartite(lg: LiftedGraph) -> bool:
    return all(bipartite for _, bipartite in connected_components(lg.simple_adjacency))


def greedy_clique(lg: LiftedGraph) -> int:
    """Greedy clique lower bound for the chromatic number."""
    adj = [set(a) for a in lg.simple_adjacency]
    if lg.num_vertices == 0:
        return 0
    best = 1
    order = sorted(range(lg.num_vertices), key=lambda v: -len(adj[v]))
    for s in order[: min(len(order), 50)]:
        clique = {s}
        for w in sorted(adj[s], key=lambda v: -len(adj[v])):
            if all(w in adj[c] for c in clique):
                clique.add(w)
        best = max(best, len(clique))
    return best


def _dsatur_decide(
    adj: Sequence[Sequence[int]], vertices: list[int], k: int, budget: _Budget
) -> bool:
    """Backtracking 'does this connected component admit a k-colouring'.

    Saturation-degree vertex selection (lazy max-heap; stale entries are
    re-pushed on every saturation change and filtered at pop time) plus
    colour-symmetry breaking: a vertex may use at most one colour index
    beyond those already in use.  The search keeps one frame per coloured
    vertex on an explicit stack, so no component size can overflow the
    Python stack; each node visited costs one unit of ``budget``.
    """
    index = {v: i for i, v in enumerate(vertices)}
    local_adj = [[index[w] for w in adj[v] if w in index] for v in vertices]
    m = len(vertices)
    colors = [-1] * m
    neighbor_colors = [set() for _ in range(m)]
    degrees = [len(a) for a in local_adj]
    heap: list[tuple[int, int, int]] = [(0, -degrees[v], v) for v in range(m)]
    heapq.heapify(heap)
    uncolored = m

    def pick() -> int:
        while heap:
            neg_sat, _neg_deg, v = heap[0]
            if colors[v] >= 0 or -neg_sat != len(neighbor_colors[v]):
                heapq.heappop(heap)
                continue
            return v
        return -1

    # frame: [vertex, colours in use when it was picked, its colour (-1
    # before the first try), the neighbours whose saturation that colour raised]
    stack: list[list] = []
    used = 0
    while True:
        budget.spend()
        if uncolored == 0:
            return True
        stack.append([pick(), used, -1, []])
        while stack:
            frame = stack[-1]
            v, used, c, touched = frame
            if c >= 0:  # everything below colour c failed: take it back
                colors[v] = -1
                uncolored += 1
                for w in touched:
                    neighbor_colors[w].remove(c)
                    heapq.heappush(heap, (-len(neighbor_colors[w]), -degrees[w], w))
            limit = min(k, used + 1)
            c += 1
            while c < limit and c in neighbor_colors[v]:
                c += 1
            if c == limit:
                stack.pop()
                continue
            colors[v] = c
            uncolored -= 1
            touched = []
            dead_end = False
            for w in local_adj[v]:
                if colors[w] < 0 and c not in neighbor_colors[w]:
                    neighbor_colors[w].add(c)
                    touched.append(w)
                    sat = len(neighbor_colors[w])
                    heapq.heappush(heap, (-sat, -degrees[w], w))
                    if sat >= k:
                        dead_end = True
            frame[2], frame[3] = c, touched
            if not dead_end:
                used = max(used, c + 1)
                break
        else:
            return False


def _is_complete(adj: Sequence[Sequence[int]], comp: list[int]) -> bool:
    comp_set = set(comp)
    return all(
        sum(1 for w in adj[v] if w in comp_set) == len(comp) - 1 for v in comp
    )


def is_k_colorable(lg: LiftedGraph, k: int, budget: int | None = None) -> bool:
    """Exact decision, component by component.

    Components with maximum degree below k are colourable greedily; those
    with maximum degree exactly k are settled by the Brooks criterion
    (k-colourable unless the component is K_{k+1}, or an odd cycle when
    k = 2).  Only components with maximum degree above k go to the DSATUR
    backtracking search.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    adj = lg.simple_adjacency
    if k == 0:
        return lg.num_vertices == 0
    if k == 1:
        return all(len(a) == 0 for a in adj)
    b = _Budget(node_budget(budget))
    for comp, bipartite in connected_components(adj):
        if len(comp) <= k:
            continue
        comp_max_deg = max(len(adj[v]) for v in comp)
        if k > comp_max_deg:
            continue
        if k == comp_max_deg:
            if k >= 3:
                if len(comp) == k + 1 and _is_complete(adj, comp):
                    return False
                continue
            # k == 2: 2-colourable iff the component has no odd cycle.
            if not bipartite:
                return False
            continue
        if not _dsatur_decide(adj, comp, k, b):
            return False
    return True


def chromatic_number(lg: LiftedGraph, budget: int | None = None) -> int:
    """Smallest k admitting a proper k-colouring."""
    if lg.num_vertices == 0:
        return 0
    adj = lg.simple_adjacency
    if all(len(a) == 0 for a in adj):
        return 1
    if is_bipartite(lg):
        return 2
    lo = max(3, greedy_clique(lg))
    k = lo
    while not is_k_colorable(lg, k, budget=budget):
        k += 1
    return k


def chromatic_bounds(
    lg: LiftedGraph, refine_budget: int = 10**5
) -> tuple[int, int]:
    """Cheap bracket (lower, upper) for the chromatic number.

    Never raises: refinement attempts run under ``refine_budget`` nodes
    each, and exhaustion simply leaves the bracket loose.  Lower bound
    from bipartiteness and a greedy clique; upper bound from greedy
    colouring, improved by exact decisions while they stay cheap.
    """
    if lg.num_vertices == 0:
        return (0, 0)
    adj = lg.simple_adjacency
    if all(len(a) == 0 for a in adj):
        return (1, 1)
    lo = 2 if is_bipartite(lg) else 3
    lo = max(lo, greedy_clique(lg))
    hi = _greedy_upper(adj)
    while hi > lo:
        try:
            if is_k_colorable(lg, hi - 1, budget=refine_budget):
                hi -= 1
            else:
                lo = hi
        except BudgetExhaustedError:
            break
    return (lo, hi)


def _greedy_upper(adj: Sequence[Sequence[int]]) -> int:
    n = len(adj)
    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    used = 0
    for _ in range(n):
        v = max(
            (u for u in range(n) if colors[u] < 0),
            key=lambda u: (len(neighbor_colors[u]), len(adj[u])),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        used = max(used, c + 1)
        for w in adj[v]:
            if colors[w] < 0:
                neighbor_colors[w].add(c)
    return used


def _count_component(
    adj: Sequence[Sequence[int]], vertices: list[int], k: int, budget: _Budget
) -> int:
    """Labelled proper k-colouring count of one connected component.

    The first vertex is pinned to colour 0 and the result multiplied by k;
    valid because unconstrained proper colourings are colour-symmetric.
    """
    index = {v: i for i, v in enumerate(vertices)}
    local_adj = [[index[w] for w in adj[v] if w in index] for v in vertices]
    m = len(vertices)

    # BFS order: every vertex after the first has an earlier neighbour,
    # keeping the search tree tight.
    order = [0]
    seen = [False] * m
    seen[0] = True
    qi = 0
    while qi < len(order):
        for w in local_adj[order[qi]]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
        qi += 1
    assert len(order) == m, "component must be connected"

    colors = [-1] * m

    def count_from(pos: int) -> int:
        budget.spend()
        if pos == m:
            return 1
        v = order[pos]
        total = 0
        forbidden = {colors[w] for w in local_adj[v] if colors[w] >= 0}
        for c in range(k):
            if c in forbidden:
                continue
            colors[v] = c
            total += count_from(pos + 1)
            colors[v] = -1
        return total

    colors[order[0]] = 0
    result = k * count_from(1)
    colors[order[0]] = -1
    return result


def _check_count_size(lg: LiftedGraph) -> None:
    if lg.num_vertices > COUNT_VERTEX_CAP:
        raise TooLargeError(
            f"{lg.num_vertices} vertices exceeds exact-count cap {COUNT_VERTEX_CAP}"
        )


def count_proper_colorings(lg: LiftedGraph, k: int, budget: int | None = None) -> int:
    """Exact number of labelled proper k-colourings (all of them)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_count_size(lg)
    if k == 0:
        return 1 if lg.num_vertices == 0 else 0
    adj = lg.simple_adjacency
    b = _Budget(node_budget(budget))
    total = 1
    for comp, _ in connected_components(adj):
        if len(comp) == 1:
            total *= k
        else:
            total *= _count_component(adj, comp, k, b)
        if total == 0:
            return 0
    return total


def count_strongly_equitable(lift: Lift, k: int, budget: int | None = None) -> int:
    """Exact number of proper colourings meeting every fiber's quotas.

    Uses the extended quota rule (colours 0..r-1 get the larger class), so
    it is defined for every n; with k | n it reduces to exactly-n/k-each.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lg = expand(lift)
    _check_count_size(lg)
    spec = EquitableSpec(k=k, n=lift.n)
    quotas = spec.quotas()
    adj = lg.simple_adjacency
    n = lift.n
    num_fibers = lift.base.num_vertices

    # remaining[f][c]: how many vertices of fiber f may still take colour c.
    remaining = [list(quotas) for _ in range(num_fibers)]
    colors = [-1] * lg.num_vertices
    b = _Budget(node_budget(budget))

    # Fiber-major order prunes quota violations as early as possible.
    order = sorted(range(lg.num_vertices), key=lambda u: (u // n, -len(adj[u])))

    def count_from(pos: int) -> int:
        b.spend()
        if pos == lg.num_vertices:
            return 1
        v = order[pos]
        fiber = v // n
        rem = remaining[fiber]
        forbidden = {colors[w] for w in adj[v] if colors[w] >= 0}
        total = 0
        for c in range(k):
            if rem[c] == 0 or c in forbidden:
                continue
            colors[v] = c
            rem[c] -= 1
            total += count_from(pos + 1)
            rem[c] += 1
            colors[v] = -1
        return total

    return count_from(0)
