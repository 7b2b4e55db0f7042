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

chromatic_bounds is the one chromatic-number routine (chromatic_number
runs it at the full budget): k climbs from an exact clique floor, and once
a decision censors, the upper bound is greedy DSATUR, the first descent of
the backtracking DSATUR search that decides k-colourability.  That search
keeps each vertex's neighbour colours as an int bitmask and picks from one
lazy heap of int keys, each packing a (saturation, degree, vertex) triple
and pushed only if the heap does not hold it yet.  is_k_colorable gives a
component of m vertices three phases on one budget: DSATUR on a slice of
2m units; if that censors, a seeded tabu search from the greedy colouring,
at most m moves, whose colouring counts once checked proper; if none,
DSATUR from scratch on the rest.  Only DSATUR answers "not k-colourable".
The proper count runs the frontier programme that also sums E[X] and
E[Y^2] (moments_exact.frontier_sum); the strongly equitable count is a
search over canonical colourings.

Every solver honours a budget, one unit per search node, tabu move or
kernel transition; exhausting it raises BudgetExhaustedError ("unknown"),
never a wrong answer.  The default budget is 10**8 units and can be
overridden with the LIFTCHROMA_BUDGET env var.
"""

from __future__ import annotations

import heapq
import operator
import os
import random
from bisect import bisect_right
from contextlib import suppress
from functools import partial
from typing import Sequence

from .base_graph import connected_components
from .errors import BudgetExhaustedError, TooLargeError
from .lift import Lift, LiftedGraph, expand
from .moments_exact import EquitableSpec, frontier_sum

DEFAULT_NODE_BUDGET = 10**8
COUNT_VERTEX_CAP = 40  # vertex limit of the strongly equitable count


def node_budget(budget: int | None = None) -> int:
    """Resolve the budget, in search nodes or kernel transitions: explicit
    arg > env var > default.  The env var must be an integer >= 1."""
    if budget is not None:
        return budget
    env = os.environ.get("LIFTCHROMA_BUDGET")
    if not env:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"LIFTCHROMA_BUDGET must be an integer >= 1, got {env!r}")
    return value


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


def greedy_clique(lg: LiftedGraph, budget: int | None = None) -> int:
    """Clique number, a lower bound for the chromatic number: Carraghan &
    Pardalos (1990) on an explicit stack.  Cliques grow from each vertex
    through its higher-index neighbours; a branch is pruned once its size
    plus its candidates cannot beat the best.  One unit of ``budget`` per
    search node; out of budget, the largest clique found so far, still a
    lower bound.  The name is kept for the benchmark's span."""
    adj = lg.simple_adjacency
    nbrs = list(map(set, adj))
    left = node_budget(budget)
    best = min(1, len(adj))
    # nodes (clique size, candidates); low roots have the most candidates, so
    # vertex 0's goes on top and large cliques turn up first
    stack = [(1, a[bisect_right(a, v):]) for v, a in reversed(list(enumerate(adj)))]
    while stack and left:
        size, cand = stack.pop()
        if size + len(cand) <= best:
            continue
        left -= 1
        w, rest = cand[0], cand[1:]
        stack.append((size, rest))  # the siblings after w
        if size >= best:
            best = size + 1
        sub = [x for x in rest if x in nbrs[w]]
        if sub:
            stack.append((size + 1, sub))
    return best


def _local_adjacency(adj: Sequence[Sequence[int]], comp: Sequence[int]) -> list[list[int]]:
    """``adj`` on a union of components, each vertex renumbered by its
    position in ``comp``."""
    index = {v: i for i, v in enumerate(comp)}
    return [[index[w] for w in adj[v]] for v in comp]


def _dsatur_decide(
    local_adj: Sequence[Sequence[int]], k: int, budget: _Budget
) -> list[int] | None:
    """A k-colouring of the graph ``local_adj`` (vertices 0..m-1), or None
    if there is none: backtracking DSATUR on an explicit stack, so no size
    can overflow the Python stack; each node costs one unit of ``budget``.

    The next vertex is the uncoloured one with the most neighbour colours,
    then the highest degree, then the lowest index; it tries its free
    colours in turn, up to one past those in use.  Vertex v's neighbour
    colours are a bitmask, ``masks[v]``, with their number in ``sat[v]``.
    The picks come from a lazy heap of single integers: the ordered triple
    (-sat, -degree, v) packs into (k - sat) * step + (top - degree) * m + v,
    where top is the largest degree and step = (top + 1) * m, so v is the
    key mod m and the key is stale once it differs from v's current one.
    Each saturation change pushes v's new key unless the heap already holds
    it (``live``); equal keys would be popped or picked together, so this
    changes no pick.  A backtrack uncolours a vertex without a new key, so
    until its saturation changes or the heap runs dry a pick may pass it
    over for a vertex that is not that minimum.  With m = len(local_adj) =
    k no saturation reaches k: one descent, greedy DSATUR, spends m + 1.
    """
    m = len(local_adj)
    top = max(map(len, local_adj), default=0)
    step = (top + 1) * m
    base = [(top - len(a)) * m + v for v, a in enumerate(local_adj)]
    colors = [-1] * m
    masks = [0] * m
    sat = [0] * m
    heap = [k * step + b for b in base]
    heapq.heapify(heap)
    live = set(heap)
    push, pop = heapq.heappush, heapq.heappop
    uncolored = m

    def pick() -> int:
        while True:
            while heap:
                key = heap[0]
                v = key % m
                if colors[v] < 0 and key == (k - sat[v]) * step + base[v]:
                    return v
                live.remove(pop(heap))
            # A backtrack uncolours a vertex without re-pushing it, so the
            # heap can run dry while vertices are left: refill it from them.
            heap.extend((k - sat[v]) * step + base[v] for v in range(m) if colors[v] < 0)
            heapq.heapify(heap)
            live.update(heap)

    # frame: [vertex, colours in use when it was picked, its colour (-1
    # before the first try), the neighbours whose saturation that colour raised]
    stack: list[list] = []
    used = 0
    while True:
        budget.spend()
        if uncolored == 0:
            return colors
        stack.append([pick(), used, -1, []])
        while stack:
            frame = stack[-1]
            v, used, c, touched = frame
            if c >= 0:  # everything below colour c failed: take it back
                colors[v] = -1
                uncolored += 1
                bit = 1 << c
                for w in touched:
                    masks[w] ^= bit
                    s = sat[w] = sat[w] - 1
                    key = (k - s) * step + base[w]
                    if key not in live:
                        live.add(key)
                        push(heap, key)
            limit = min(k, used + 1)
            c += 1
            mask = masks[v]
            while c < limit and mask >> c & 1:
                c += 1
            if c == limit:
                stack.pop()
                continue
            colors[v] = c
            uncolored -= 1
            bit = 1 << c
            touched = []
            dead_end = False
            for w in local_adj[v]:
                if colors[w] < 0 and not masks[w] & bit:
                    masks[w] |= bit
                    touched.append(w)
                    s = sat[w] = sat[w] + 1
                    key = (k - s) * step + base[w]
                    if key not in live:
                        live.add(key)
                        push(heap, key)
                    if s >= k:
                        dead_end = True
            frame[2], frame[3] = c, touched
            if not dead_end:
                used = max(used, c + 1)
                break
        else:
            return None


def _tabucol(
    local_adj: Sequence[Sequence[int]], k: int, start: list[int], budget: _Budget,
    rng: random.Random,
) -> list[int] | None:
    """A k-colouring found by tabu search (Hertz & de Werra 1987), or None.

    Each vertex that ``start`` colours k or higher takes, in index order,
    the colour below k that the fewest neighbours have.  Then at most m =
    len(local_adj) moves, one unit of ``budget`` each, recolour a vertex
    with a conflict: the move that lowers the conflict count most, unless
    it is tabu and does not beat the best count yet seen; ties go to
    ``rng``.  A vertex that leaves colour c at move t may not take it back
    before move t + rand(10) + floor(0.6 * vertices then in conflict).
    """
    m = len(local_adj)
    colors = [c if c < k else -1 for c in start]
    seen = [[0] * k for _ in range(m)]  # seen[v][c]: neighbours of v coloured c
    for v in sorted(range(m), key=lambda v: colors[v] < 0):  # the uncoloured last
        if colors[v] < 0:
            colors[v] = seen[v].index(min(seen[v]))
        for w in local_adj[v]:
            seen[w][colors[v]] += 1
    conflicting = {v for v in range(m) if seen[v][colors[v]]}
    conflicts = best = sum(seen[v][colors[v]] for v in conflicting) // 2
    tabu = [[0] * k for _ in range(m)]
    it = 0
    while conflicts and it < m:
        budget.spend()
        delta, moves = m, []
        for v in conflicting:
            here, free = seen[v][colors[v]], tabu[v]
            for c, d in enumerate(seen[v]):
                d -= here
                if c != colors[v] and d <= delta and (free[c] <= it or conflicts + d < best):
                    if d < delta:
                        delta, moves = d, []
                    moves.append((v, c))
        if moves:
            v, c = moves[rng.randrange(len(moves))]
            old, colors[v] = colors[v], c
            conflicts += delta
            best = min(best, conflicts)
            for w in local_adj[v]:
                seen[w][old] -= 1
                seen[w][c] += 1
            for w in (v, *local_adj[v]):
                if seen[w][colors[w]]:
                    conflicting.add(w)
                else:
                    conflicting.discard(w)
            tabu[v][old] = it + rng.randrange(10) + int(0.6 * len(conflicting))
        it += 1
    return None if conflicts else colors


def is_k_colorable(lg: LiftedGraph, k: int, budget: int | None = None) -> bool:
    """Exact decision, component by component.

    k <= 2 needs no search: k = 2 is bipartiteness.  For k >= 3,
    components with maximum degree below k are colourable greedily; those
    with maximum degree exactly k are settled by the Brooks criterion
    (k-colourable unless the component is K_{k+1}).  Only components with
    maximum degree above k are searched, in three phases that all spend the
    one budget.  DSATUR runs on a slice of 2m units, m the component's
    size, which decides most easy components.
    If that censors, _tabucol starts from the greedy DSATUR colouring (m +
    1 units) with a Random seeded by m and the component's least vertex; a
    colouring it finds counts once checked proper.  If it finds none,
    DSATUR runs from scratch on the rest.  Only DSATUR answers False, and
    every way out of budget raises BudgetExhaustedError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    adj = lg.simple_adjacency
    if k == 0:
        return lg.num_vertices == 0
    if k == 1:
        return all(len(a) == 0 for a in adj)
    if k == 2:
        return is_bipartite(lg)
    b = _Budget(node_budget(budget))
    for comp, _ in connected_components(adj):
        if max(len(adj[v]) for v in comp) <= k:  # greedy, or Brooks
            if len(comp) == k + 1 and all(len(adj[v]) == k for v in comp):
                return False  # K_{k+1}
            continue
        local = _local_adjacency(adj, comp)
        m = len(local)
        rest = b.left - min(b.left, 2 * m)
        b.left -= rest
        try:  # DSATUR on a slice of 2m units
            found = _dsatur_decide(local, k, b)
            b.left += rest
        except BudgetExhaustedError:
            b.left = rest  # the slice is spent; tabu search from greedy DSATUR
            rng = random.Random(m << 32 | comp[0])
            found = _tabucol(local, k, _dsatur_decide(local, m, b), b, rng)
            if found is None:  # DSATUR from scratch on the rest
                found = _dsatur_decide(local, k, b)
            elif len(found) != m or not set(found) <= set(range(k)) or any(
                found[v] == found[w] for v, a in enumerate(local) for w in a
            ):
                raise AssertionError("tabu search returned an improper colouring")
        if found is None:
            return False
    return True


def chromatic_number(lg: LiftedGraph, budget: int | None = None) -> int:
    """Smallest k admitting a proper k-colouring: chromatic_bounds with the
    full budget for each decision.  A bracket left open raises
    BudgetExhaustedError, whose message names it."""
    lo, hi = chromatic_bounds(lg, node_budget(budget))
    if lo < hi:
        raise BudgetExhaustedError(f"search node budget exhausted; chromatic number in [{lo}, {hi}]")
    return lo


def chromatic_bounds(
    lg: LiftedGraph, refine_budget: int = 10**5
) -> tuple[int, int]:
    """Bracket (lower, upper) for the chromatic number, (chi, chi) once
    decided.  Never raises: each exact decision runs under ``refine_budget``
    units, and exhaustion leaves the bracket open.

    The lower bound starts at the clique number and climbs while
    is_k_colorable refutes it; k <= 2 needs no search, so the climb passes
    0 (no vertices), 1 (no edges) and 2 (bipartite) for free.  Once a
    decision censors, the upper bound is greedy DSATUR (the first descent
    of the DSATUR search over the whole graph), lowered while the next k
    down is colourable.
    """
    lo = greedy_clique(lg, refine_budget)
    with suppress(BudgetExhaustedError):
        while not is_k_colorable(lg, lo, refine_budget):
            lo += 1
        return (lo, lo)
    m = lg.num_vertices
    hi = 1 + max(_dsatur_decide(lg.simple_adjacency, m, _Budget(m + 1)))
    with suppress(BudgetExhaustedError):
        while hi - 1 > lo and is_k_colorable(lg, hi - 1, refine_budget):
            hi -= 1
        if hi - 1 > lo:  # refuted: chi = hi
            lo = hi
    return (lo, hi)


def _greedy_order(adj: Sequence[Sequence[int]]) -> list[int]:
    """The vertices in the order that next takes the one with the most placed
    neighbours (the lowest on a tie), which keeps the frontier small."""
    count = [0] * len(adj)  # placed neighbours; -1 once placed
    heap = [(0, v) for v in range(len(adj))]  # sorted, so a heap already
    order = []
    while heap:
        neg, v = heapq.heappop(heap)
        if -neg == count[v]:  # else placed, or a stale entry
            count[v] = -1
            order.append(v)
            for w in adj[v]:
                if count[w] >= 0:
                    count[w] += 1
                    heapq.heappush(heap, (-count[w], w))
    return order


def _first_appearance(k: int, kept: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    """frontier_sum's symmetry hook for every renaming of the k colours: a
    state's colours are named by first appearance, a new colour next."""
    names = dict.fromkeys(kept)  # in order of first appearance
    image = [len(names)] * k
    for name, c in enumerate(names):
        image[c] = name
    return tuple(map(image.__getitem__, kept)), image


def count_proper_colorings(lg: LiftedGraph, k: int, budget: int | None = None) -> int:
    """Exact number of labelled proper k-colourings (all of them).

    moments_exact.frontier_sum over ``lg`` in _greedy_order, with the k
    colours as keys, weight 1 and edge count [a != b].  States relabel the
    frontier's colours by first appearance: trying all k colours folds the
    k - b unused on a b-colour frontier into one state, whose value counts
    every labelled colouring with its pattern.  One budget unit is one
    transition; no vertex cap applies, but k^2 > LAYER_CAP is refused.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    adj = lg.simple_adjacency
    rank = {v: t for t, v in enumerate(_greedy_order(adj))}
    edges = tuple((rank[u], rank[w]) for u in range(len(adj)) for w in adj[u] if u < w)
    return frontier_sum(
        LiftedGraph(lg.num_vertices, edges), range(k), lambda c: 1, operator.ne,
        node_budget(budget), BudgetExhaustedError, lambda colours: partial(_first_appearance, k),
    )


def count_strongly_equitable(lift: Lift, k: int, budget: int | None = None) -> int:
    """Exact number of proper colourings meeting every fiber's quotas.

    Uses the extended quota rule (colours 0..r-1 get the larger class), so
    it is defined for every n; with k | n it reduces to exactly-n/k-each.

    Searches canonical colourings in fiber-major order, which prunes quota
    violations early.  Only relabellings inside colours 0..r-1 and inside
    r..k-1 keep the quotas; in each of these classes a vertex takes an open
    colour or the lowest unopened one.  Opening colour start + j of a class
    of s multiplies by s - j, so a canonical leaf counts its relabellings,
    the product over classes of s!/(s - opened)!.  One budget unit is one
    search node.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lg = expand(lift)
    if lg.num_vertices > COUNT_VERTEX_CAP:
        raise TooLargeError(
            f"{lg.num_vertices} vertices exceeds exact-count cap {COUNT_VERTEX_CAP}"
        )
    spec = EquitableSpec(k=k, n=lift.n)
    adj = lg.simple_adjacency
    n, m = lift.n, lg.num_vertices
    order = sorted(range(m), key=lambda u: (u // n, -len(adj[u])))
    remaining = [list(spec.quotas()) for _ in range(lift.base.num_vertices)]
    classes = [cls for cls in (range(spec.r), range(spec.r, k)) if cls]
    budget_left = _Budget(node_budget(budget))
    colors = [-1] * m
    opened = [0] * len(classes)

    def count_from(pos: int) -> int:
        budget_left.spend()
        if pos == m:
            return 1
        v = order[pos]
        rem = remaining[v // n]
        forbidden = {colors[w] for w in adj[v]}  # -1, uncoloured, is no colour
        total = 0
        for i, cls in enumerate(classes):
            fresh = cls.start + opened[i]
            for c in cls[: opened[i] + 1]:
                if rem[c] and c not in forbidden:
                    colors[v] = c
                    rem[c] -= 1
                    if c == fresh:
                        opened[i] += 1
                        total += (cls.stop - c) * count_from(pos + 1)
                        opened[i] -= 1
                    else:
                        total += count_from(pos + 1)
                    rem[c] += 1
                    colors[v] = -1
        return total

    try:
        return count_from(0)
    finally:
        # count_from refers to itself; break the cycle so that its lists are
        # freed now, also when the budget runs out mid-search.
        del count_from
