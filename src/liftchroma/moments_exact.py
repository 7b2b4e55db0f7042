"""Exact moment sums for colouring counts of random lifts.

Everything here is arbitrary-precision integer/rational arithmetic; no
floating point enters any value.  The central identity: the number of
(lift, colouring) pairs compatible with a fixed overlap profile factors as

    prod_v  multinomial(n; a_v * n)  *  prod_{e=vv'}  M(a_v * n, a_{v'} * n)

where M(x, y) is the number of proper perfect matchings between two fibers
whose colour histograms are x and y, i.e.

    M(x, y) = sum over zero-diagonal tables B with row sums x, column
              sums y of  x! * y! / B!          (vector factorials).

Dividing by the n!^{|E|} equally likely lifts turns pair counts into
expectations.  The same scheme with colour *pairs* (k^2 colours, tables
forbidding agreement in either coordinate) yields second moments.

E[X] and E[Y^2] sum that product over every assignment of one histogram
per base vertex, by one forward dynamic programme over the vertices in
index order (variable elimination along a path decomposition).  The state
after vertex t maps the histograms of the frontier (placed vertices with a
neighbour still to place) to the summed weight of every assignment of
vertices 0..t agreeing with them, up to renaming colours, which changes no
weight and no edge count: S_k on a colour histogram's coordinates, S_k x
S_k and the transpose on a pair histogram.  M is computed once per orbit
of histogram pairs (79 and 16 times, not h(h+1)/2 = 406 and 231, for E[X]
and E[Y^2] on K4 with n=6, k=3).  ``profile_cap`` bounds the work done,
counted as transitions (states entering a layer times h, summed over the
layers) and checked before each layer runs: 1.8e4 for E[X] and 4.2e3 for
E[Y^2] on K4 with n=6, k=3, 1.4e5 for E[Y^2] with n=9.  A refusal never
lists every histogram, and no layer makes more than LAYER_CAP transitions.
With the k colours as keys and every renaming of them as the symmetry,
frontier_sum is the proper colouring count of coloring.count_proper_colorings.

One kernel, margin_tables, enumerates every table here: the tables of M
and of its pair analogue, the colour histograms of E[X] and the pair
histograms of E[Y^2].  It walks the allowed cells in a fixed order, depth
first on an explicit stack, each cell taking its values in increasing
order; the last cell on a row or column takes what is left of that line's
margin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence

from .base_graph import BaseGraph
from .errors import TooLargeError
from .lift import Lift, LiftedGraph, enumerate_lifts

DEFAULT_PROFILE_CAP = 10**6
# Most transitions in one layer, whatever the cap: a state takes about 100 B.
LAYER_CAP = 3 * 10**6
_SWAP_ROTATE = (lambda line: line[1::-1] + line[2:], lambda line: line[1:] + line[:1])  # S_k


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


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order: the tables on `parts` parallel cells joining one
    row to one column, both with margin `total`."""
    return margin_tables((total, total), [(0, 1)] * parts)


def _vector_factorial(x: Sequence[int]) -> int:
    out = 1
    for v in x:
        out *= math.factorial(v)
    return out


def multinomial(n: int, x: Sequence[int]) -> int:
    assert sum(x) == n
    return math.factorial(n) // _vector_factorial(x)


def margin_tables(
    margins: Sequence[int], cells: Sequence[tuple[int, int]]
) -> Iterator[tuple[int, ...]]:
    """Every nonnegative integer vector x over ``cells`` whose sum over the
    cells of each line equals that line's margin.

    Each cell (a, b) lies on two lines; a table with rows 0..R-1 and
    columns R..R+C-1 lists its allowed cells as (i, R + j), and repeated
    cells are allowed.  Tables come in lexicographic order of x with cells
    in the given order: depth first, each cell taking its values in
    increasing order, on an explicit stack.  The last cell of a line takes
    whatever its line has left.
    """
    m = len(cells)
    rem = list(margins)
    lines: list[list[int]] = [[] for _ in rem]
    for p, (a, b) in enumerate(cells):
        lines[a].append(p)
        lines[b].append(p)
    if any(r and not on_line for r, on_line in zip(rem, lines)):
        return
    closes = [(lines[a][-1] == p, lines[b][-1] == p) for p, (a, b) in enumerate(cells)]
    x = [0] * m
    top = [0] * m
    p = 0
    while True:
        while p < m:
            a, b = cells[p]
            ra, rb = rem[a], rem[b]
            lo = 0
            hi = min(ra, rb)
            close_a, close_b = closes[p]
            if close_a and ra > lo:
                lo = ra
            if close_b and rb > lo:
                lo = rb
            if lo > hi:
                break
            x[p], top[p] = lo, hi
            rem[a] = ra - lo
            rem[b] = rb - lo
            p += 1
        else:
            yield tuple(x)
        p -= 1
        while p >= 0 and x[p] == top[p]:
            a, b = cells[p]
            rem[a] += x[p]
            rem[b] += x[p]
            p -= 1
        if p < 0:
            return
        a, b = cells[p]
        x[p] += 1
        rem[a] -= 1
        rem[b] -= 1
        p += 1


def _matching_weights(
    x: tuple[int, ...], y: tuple[int, ...], allowed: Callable[[int, int], bool]
) -> Iterator[int]:
    """x! * y! / B! for each table B on the allowed cells with row sums x
    and column sums y."""
    rows = len(x)
    cells = [(i, rows + j) for i in range(rows) for j in range(len(y)) if allowed(i, j)]
    base = _vector_factorial(x) * _vector_factorial(y)
    for table in margin_tables(x + y, cells):
        yield base // _vector_factorial(table)


@lru_cache(maxsize=None)
def proper_matching_count(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """M(x, y): perfect matchings between fibers with colour histograms x, y
    in which no edge joins equal colours."""
    assert sum(x) == sum(y)
    return sum(_matching_weights(x, y, lambda i, j: i != j))


@lru_cache(maxsize=None)
def proper_pair_matching_count(
    x: tuple[tuple[int, ...], ...], y: tuple[tuple[int, ...], ...]
) -> int:
    """Pair-colouring analogue of M: matchings proper in both colourings.

    Histograms are k x k (colour in first, colour in second colouring); a
    matched pair may not agree in either coordinate.
    """
    k = len(x)
    rows = tuple(x[i][j] for i in range(k) for j in range(k))
    cols = tuple(y[i][j] for i in range(k) for j in range(k))

    def allowed(r: int, c: int) -> bool:
        i, j = divmod(r, k)
        i2, j2 = divmod(c, k)
        return i != i2 and j != j2

    assert sum(rows) == sum(cols)
    return sum(_matching_weights(rows, cols, allowed))


def frontier_sum(
    g: BaseGraph | LiftedGraph,
    keys: Iterable,
    weight: Callable[[object], int],
    edge_count: Callable[[object, object], int],
    cap: int,
    refuse: type[Exception] = TooLargeError,
    symmetry: Callable[[list], Callable] | None = None,
) -> int:
    """Sum over every assignment of one of the ``keys`` per vertex of ``g``
    of the vertex weights weight(key) times edge_count(tail, head) over the
    edges, by the frontier programme of the module docstring: placing
    vertex t with index i multiplies a state's weight by weights[i] and by
    W[s_u][i] for each edge back to a frontier vertex u, W the h x h matrix
    of edge counts.  ``edge_count`` must be symmetric, as every caller's is
    (M(x, y) = M(y, x): transposing a table swaps its margins), so an
    edge's orientation does not matter.  Past ``cap`` transitions in all,
    or LAYER_CAP in one layer, it raises ``refuse``, the caller's error.
    ``symmetry(keys)`` gives a hook for key renamings that change no weight
    and no edge count: from a state's kept frontier, once per state, its
    orbit's representative and each key's index in the grown state's.  A
    state holds its orbit's summed weight, and ``edge_count`` sees one pair
    per orbit of unordered pairs, so a cached kernel runs once per orbit.
    """
    # h + h^2 is the first two layers if vertex 0 has a later neighbour, and
    # bounds the h x h matrix: list at most isqrt(first) + 1 keys, where h^2
    # alone passes the cap, and refuse before computing any edge count.
    first = min(cap, LAYER_CAP)
    keys = list(itertools.islice(keys, math.isqrt(first) + 1))
    h = len(keys)
    if h + h * h > first:
        raise refuse(f"{h + h * h} histogram transitions exceed cap {first}")
    canonical = (symmetry or partial(relabelling_group, 1, ()))(keys)
    weights = [weight(key) for key in keys]
    singles = [canonical((a,)) for a in range(h)]
    dense = [[0] * h for _ in range(h)]
    for a, ((rep_a,), image_a) in enumerate(singles):
        for b, ((rep_b,), image_b) in enumerate(singles[a:], a):
            x, y = min((rep_a, image_a[b]), (rep_b, image_b[a]))
            dense[a][b] = dense[b][a] = edge_count(keys[x], keys[y])
    # Per histogram of a frontier vertex u: the nonzero factors W[s_u][i],
    # already times weights[i].
    sparse = [[(i, w * weights[i]) for i, w in enumerate(line) if w] for line in dense]
    # A vertex with no edge back to the frontier may take any histogram.
    unconstrained = list(enumerate(weights))

    # last[u]: u's latest neighbour in the order (u itself if none is later);
    # back[t]: the earlier ends u of t's edges.
    last = list(range(g.num_vertices))
    back: list[list[int]] = [[] for _ in last]
    for tail, head in g.edges:
        u, t = min(tail, head), max(tail, head)
        last[u] = max(last[u], t)
        back[t].append(u)

    frontier: list[int] = []
    states: dict[tuple[int, ...], int] = {(): 1}
    work = 0
    for t in range(g.num_vertices):
        layer = len(states) * h
        work += layer
        if work > cap:
            raise refuse(f"{work} histogram transitions exceed cap {cap}")
        if layer > LAYER_CAP:
            raise refuse(f"{layer} histogram transitions in one layer exceed cap {LAYER_CAP}")
        pos = {u: p for p, u in enumerate(frontier)}
        edges = [pos[u] for u in back[t]]
        keep = [p for p, u in enumerate(frontier) if last[u] > t]
        frontier = [frontier[p] for p in keep]
        grows = last[t] > t
        if grows:
            frontier.append(t)
        nxt: dict[tuple[int, ...], int] = {}
        for s, value in states.items():
            candidates = sparse[s[edges[0]]] if edges else unconstrained
            factors = [dense[s[p]] for p in edges[1:]]
            kept, image = canonical(tuple(map(s.__getitem__, keep)))
            for i, f in candidates:
                for row in factors:
                    f *= row[i]
                    if not f:
                        break
                else:
                    key = kept + (image[i],) if grows else kept
                    nxt[key] = nxt.get(key, 0) + value * f
        states = nxt
    return sum(states.values())


def relabelling_group(order: int, generators: Sequence[Callable], keys: list) -> Callable:
    """frontier_sum's hook for the group of ``order`` maps of ``keys`` that
    ``generators`` generate, if order <= h^2 and order * h <= LAYER_CAP:
    a state's least image, and each key's least image under the maps to it."""
    h = len(keys)
    if not generators or order > h * h or order * h > LAYER_CAP:
        return lambda kept, identity=list(range(h)): (kept, identity)  # none, or too many to list
    index = {key: i for i, key in enumerate(keys)}
    steps = [[index[m(key)] for key in keys] for m in generators]
    perms = [tuple(range(h))]
    seen = set(perms)
    for p in perms:  # closed under the generators as it grows
        for q in (tuple(map(p.__getitem__, step)) for step in steps):
            if q not in seen:
                seen.add(q)
                perms.append(q)
    columns = list(zip(*perms))  # columns[x]: x's image under each map

    @lru_cache(maxsize=h)  # h images of h keys: the size of the edge matrix
    def canonical(kept: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
        images = list(zip(*map(columns.__getitem__, kept))) if kept else [()] * len(perms)
        rep = min(images)
        chosen = [p for p, image in zip(perms, images) if image == rep]
        return rep, chosen[0] if len(chosen) == 1 else [min(c) for c in zip(*chosen)]

    return canonical


def expected_X_exact(
    g: BaseGraph, n: int, k: int, profile_cap: int = DEFAULT_PROFILE_CAP
) -> Fraction:
    """E[X] where X counts proper k-colourings of a uniform n-lift.

    Sums the (lift, colouring) pair count of every per-vertex colour
    histogram (the module docstring's product) and divides by the n!^{|E|}
    lifts.  Valid for any regular base graph.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    total = frontier_sum(
        g, compositions(n, k), partial(multinomial, n), proper_matching_count, profile_cap,
        symmetry=partial(relabelling_group, math.factorial(k), _SWAP_ROTATE),
    )
    return Fraction(total, math.factorial(n) ** g.num_edges)


def expected_Y_exact(g: BaseGraph, n: int, k: int) -> Fraction:
    """E[Y] where Y counts strongly equitable k-colourings (k | n), which is
    E[Y] under the extended quotas, all n/k there."""
    if n >= 1 and k >= 1 and n % k:
        raise ValueError(f"strong equitability needs k | n; got n={n}, k={k}")
    return expected_Y_exact_extended(g, n, k)


def expected_Y_exact_extended(g: BaseGraph, n: int, k: int) -> Fraction:
    """E[Y] under the extended quotas (first n mod k colours get one extra):
    multinomial(n; t)^{|V|} * (M(t,t)/n!)^{|E|} with t the quota vector."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    t = EquitableSpec(k=k, n=n).quotas()
    return Fraction(
        multinomial(n, t) ** g.num_vertices * proper_matching_count(t, t) ** g.num_edges,
        math.factorial(n) ** g.num_edges,
    )


def _doubly_stochastic_tables(k: int, q: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All k x k nonnegative integer tables with every row and column sum q."""
    cells = [(i, k + j) for i in range(k) for j in range(k)]
    return (
        tuple(flat[i * k : (i + 1) * k] for i in range(k))
        for flat in margin_tables((q,) * (2 * k), cells)
    )


def expected_Y2_exact(
    g: BaseGraph, n: int, k: int, profile_cap: int = DEFAULT_PROFILE_CAP
) -> Fraction:
    """E[Y^2]: pairs of strongly equitable k-colourings of the same lift.

    Sums over per-vertex k x k pair-colour histograms A_v (all margins n/k)
    with the per-edge pair-matching counts factorised given the endpoint
    histograms.  Returns 0 when k does not divide n (no strongly equitable
    colourings exist under the uniform quota).
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if n % k != 0:
        return Fraction(0)
    tables = _doubly_stochastic_tables(k, n // k)
    # S_k on the rows and the transpose (which swaps the colourings) generate all 2 (k!)^2 maps
    generators = (*_SWAP_ROTATE, lambda t: tuple(zip(*t)))
    total = frontier_sum(
        g, tables, lambda t: multinomial(n, sum(t, ())), proper_pair_matching_count, profile_cap,
        symmetry=partial(relabelling_group, 2 * math.factorial(k) ** 2, generators),
    )
    return Fraction(total, math.factorial(n) ** g.num_edges)


def brute_force_moment(
    g: BaseGraph,
    n: int,
    statistic: Callable[[Lift], int | Fraction],
    cap: int = 10**7,
) -> Fraction:
    """Oracle: average a statistic over *all* lifts by full enumeration."""
    total = Fraction(0)
    count = 0
    for lift in enumerate_lifts(g, n, cap=cap):
        total += Fraction(statistic(lift))
        count += 1
    return total / count
