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

One kernel, margin_tables, enumerates every table here (the tables of M
and of its pair analogue, the per-edge tables of the factorized=False
E[Y] oracle, the pair histograms of E[Y^2]) and the lattice points of
lattice_tools.enumerate_lattice_points.  It walks the allowed cells in a
fixed order, depth first on an explicit stack, each cell taking its values
in increasing order; the last cell on a row or column takes what is left
of that line's margin.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .base_graph import BaseGraph, validate
from .coloring import EquitableSpec
from .errors import TooLargeError
from .lift import Lift, enumerate_lifts

DEFAULT_PROFILE_CAP = 10**6


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
    margins: Sequence[int],
    cells: Sequence[tuple[int, int]],
    bounds: Sequence[tuple[int, int]] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Every nonnegative integer vector x over ``cells`` whose sum over the
    cells of each line equals that line's margin.

    Each cell (a, b) lies on two lines; a table with rows 0..R-1 and
    columns R..R+C-1 lists its allowed cells as (i, R + j), and repeated
    cells are allowed.  ``bounds`` optionally gives each cell a closed
    interval (lo, hi) for its value.  Tables come in lexicographic order of
    x with cells in the given order: depth first, each cell taking its
    values in increasing order, on an explicit stack.  The last cell of a
    line takes whatever its line has left.
    """
    m = len(cells)
    rem = list(margins)
    lines: list[list[int]] = [[] for _ in rem]
    for p, (a, b) in enumerate(cells):
        lines[a].append(p)
        lines[b].append(p)
    if any(r and not on_line for r, on_line in zip(rem, lines)):
        return
    lows = [max(0, lo) for lo, _ in bounds] if bounds else [0] * m
    highs = [hi for _, hi in bounds] if bounds else [sum(rem)] * m
    closes = [(lines[a][-1] == p, lines[b][-1] == p) for p, (a, b) in enumerate(cells)]
    x = [0] * m
    top = [0] * m
    p = 0
    while True:
        while p < m:
            a, b = cells[p]
            ra, rb = rem[a], rem[b]
            lo = lows[p]
            hi = min(highs[p], ra, rb)
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


def histogram_pair_count(
    g: BaseGraph, n: int, a_counts: Sequence[tuple[int, ...]]
) -> int:
    """Number of (lift, colouring) pairs whose per-fiber colour histogram is
    exactly ``a_counts`` (integer counts per vertex)."""
    validate(g)
    weight = 1
    for counts in a_counts:
        weight *= multinomial(n, counts)
    for tail, head in g.edges:
        weight *= proper_matching_count(tuple(a_counts[tail]), tuple(a_counts[head]))
    return weight


def _histogram_sum(
    g: BaseGraph, n: int, multi: dict, edge_count: Callable[[object, object], int]
) -> Fraction:
    """Sum over every assignment of one histogram per vertex (the keys of
    ``multi``, which maps each to its multinomial) of the vertex
    multinomials times edge_count(tail, head) over the edges, divided by
    the n!^{|E|} lifts."""
    total = 0
    for assignment in itertools.product(multi, repeat=g.num_vertices):
        weight = 1
        for h in assignment:
            weight *= multi[h]
        for tail, head in g.edges:
            weight *= edge_count(assignment[tail], assignment[head])
            if weight == 0:
                break
        total += weight
    return Fraction(total, math.factorial(n) ** g.num_edges)


def expected_X_exact(
    g: BaseGraph, n: int, k: int, profile_cap: int = DEFAULT_PROFILE_CAP
) -> Fraction:
    """E[X] where X counts proper k-colourings of a uniform n-lift.

    Sums histogram_pair_count over all per-vertex colour histograms and
    divides by the n!^{|E|} lifts.  Valid for any regular base graph.
    """
    validate(g)
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    per_vertex = math.comb(n + k - 1, k - 1)
    if per_vertex ** g.num_vertices > profile_cap:
        raise TooLargeError(
            f"{per_vertex}^{g.num_vertices} colour histograms exceed cap {profile_cap}"
        )
    multi = {c: multinomial(n, c) for c in compositions(n, k)}
    return _histogram_sum(g, n, multi, proper_matching_count)


def expected_Y_exact(
    g: BaseGraph, n: int, k: int, factorized: bool = True
) -> Fraction:
    """E[Y] where Y counts strongly equitable k-colourings (k | n).

    Factorized form: multinomial(n; n/k, ..., n/k)^{|V|} * (M(t,t)/n!)^{|E|}
    with t the uniform quota vector.  ``factorized=False`` enumerates the
    joint per-edge table lattice instead; the two must agree exactly.
    """
    validate(g)
    if n % k != 0:
        raise ValueError(f"strong equitability needs k | n; got n={n}, k={k}")
    t = (n // k,) * k
    return _expected_Y_from_quotas(g, n, t, factorized)


def expected_Y_exact_extended(
    g: BaseGraph, n: int, k: int, factorized: bool = True
) -> Fraction:
    """E[Y] under the extended quotas (first n mod k colours get one extra)."""
    validate(g)
    t = EquitableSpec(k=k, n=n).quotas()
    return _expected_Y_from_quotas(g, n, t, factorized)


def _expected_Y_from_quotas(
    g: BaseGraph, n: int, t: tuple[int, ...], factorized: bool
) -> Fraction:
    vertex_factor = multinomial(n, t) ** g.num_vertices
    if factorized:
        m = proper_matching_count(t, t)
        return Fraction(vertex_factor * m**g.num_edges, math.factorial(n) ** g.num_edges)
    weights = list(_matching_weights(t, t, lambda i, j: i != j))
    total = 0
    for combo in itertools.product(weights, repeat=g.num_edges):
        w = 1
        for x in combo:
            w *= x
        total += w
    return Fraction(vertex_factor * total, math.factorial(n) ** g.num_edges)


def _doubly_stochastic_tables(k: int, q: int) -> list[tuple[tuple[int, ...], ...]]:
    """All k x k nonnegative integer tables with every row and column sum q."""
    cells = [(i, k + j) for i in range(k) for j in range(k)]
    return [
        tuple(flat[i * k : (i + 1) * k] for i in range(k))
        for flat in margin_tables((q,) * (2 * k), cells)
    ]


def expected_Y2_exact(
    g: BaseGraph, n: int, k: int, profile_cap: int = DEFAULT_PROFILE_CAP
) -> Fraction:
    """E[Y^2]: pairs of strongly equitable k-colourings of the same lift.

    Sums over per-vertex k x k pair-colour histograms A_v (all margins n/k)
    with the per-edge pair-matching counts factorised given the endpoint
    histograms.  Returns 0 when k does not divide n (no strongly equitable
    colourings exist under the uniform quota).
    """
    validate(g)
    if n % k != 0:
        return Fraction(0)
    q = n // k
    tables = _doubly_stochastic_tables(k, q)
    if len(tables) ** g.num_vertices > profile_cap:
        raise TooLargeError(
            f"{len(tables)}^{g.num_vertices} pair histograms exceed cap {profile_cap}"
        )
    multi = {tab: multinomial(n, [x for row in tab for x in row]) for tab in tables}
    return _histogram_sum(g, n, multi, proper_pair_matching_count)


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
