import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import enumerate_proper_colorings, identity_lift
from liftchroma import moments_exact
from liftchroma.base_graph import BaseGraph, make_cycle_graph
from liftchroma.coloring import count_proper_colorings, count_strongly_equitable
from liftchroma.errors import TooLargeError
from liftchroma.lift import enumerate_lifts, expand
from liftchroma.moments_exact import (
    _doubly_stochastic_tables,
    brute_force_moment,
    compositions,
    expected_X_exact,
    expected_Y2_exact,
    expected_Y_exact,
    expected_Y_exact_extended,
    margin_tables,
    multinomial,
    proper_matching_count,
    proper_pair_matching_count,
)


def _x_statistic(k):
    return lambda lift: count_proper_colorings(expand(lift), k)


def _y_statistic(k):
    return lambda lift: count_strongly_equitable(lift, k)


def test_expected_X_frozen_values(k3):
    assert expected_X_exact(k3, 2, 3) == 51
    assert expected_X_exact(k3, 1, 3) == 6
    assert expected_X_exact(k3, 2, 1) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_expected_X_oracle_k3(k3, n, k):
    assert expected_X_exact(k3, n, k) == brute_force_moment(k3, n, _x_statistic(k))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k", [2, 3])
def test_expected_X_oracle_k4(k4, n, k):
    assert expected_X_exact(k4, n, k) == brute_force_moment(k4, n, _x_statistic(k))


@pytest.mark.parametrize(
    "moment,n,k",
    [
        (expected_Y_exact, 2, 0),
        (expected_Y2_exact, 3, 0),
        (expected_Y_exact, 2, -1),
        (expected_Y_exact_extended, 2, -1),
        (expected_Y_exact_extended, 2, 0),
        (expected_Y2_exact, 3, -1),
        (expected_Y_exact, 0, 3),
    ],
)
def test_Y_moments_reject_n_or_k_below_one(k4, moment, n, k):
    # k = 0 divided by zero; k = -1 failed an assert, which python -O strips
    with pytest.raises(ValueError, match="need n >= 1 and k >= 1"):
        moment(k4, n, k)


def test_expected_Y_frozen_values(k3):
    assert expected_Y_exact(k3, 3, 3) == 8
    with pytest.raises(ValueError):
        expected_Y_exact(k3, 2, 3)


def test_expected_Y_oracle(k3, k4):
    assert expected_Y_exact(k3, 3, 3) == brute_force_moment(k3, 3, _y_statistic(3))
    assert expected_Y_exact(k3, 2, 2) == brute_force_moment(k3, 2, _y_statistic(2))
    assert expected_Y_exact(k4, 2, 2) == brute_force_moment(k4, 2, _y_statistic(2))


def test_expected_Y_rainbow_derangements(k3, k4):
    # at n = k every fiber is rainbow, so each edge contributes the
    # derangement count D_k of proper matchings
    d3 = 2  # derangements of 3 elements
    for g in (k3, k4):
        expected = Fraction(
            math.factorial(3) ** g.num_vertices * d3**g.num_edges,
            math.factorial(3) ** g.num_edges,
        )
        assert expected_Y_exact(g, 3, 3) == expected


@pytest.mark.slow
def test_expected_Y_oracle_k4_n3(k4):
    assert expected_Y_exact(k4, 3, 3) == Fraction(16, 9)
    assert brute_force_moment(k4, 3, _y_statistic(3)) == Fraction(16, 9)


def test_expected_Y_extended(k3):
    assert expected_Y_exact_extended(k3, 4, 3) == 8
    assert expected_Y_exact_extended(k3, 3, 3) == expected_Y_exact(k3, 3, 3)
    assert expected_Y_exact_extended(k3, 1, 3) == 0


def test_expected_Y_extended_oracle(k3, k4):
    assert expected_Y_exact_extended(k3, 4, 3) == brute_force_moment(
        k3, 4, _y_statistic(3)
    )
    assert expected_Y_exact_extended(k3, 2, 3) == brute_force_moment(
        k3, 2, _y_statistic(3)
    )
    assert expected_Y_exact_extended(k4, 2, 3) == brute_force_moment(
        k4, 2, _y_statistic(3)
    )


def test_expected_Y2_frozen_and_oracle(k3):
    assert expected_Y2_exact(k3, 3, 3) == 132
    assert expected_Y2_exact(k3, 3, 3) == brute_force_moment(
        k3, 3, lambda l: Fraction(count_strongly_equitable(l, 3)) ** 2
    )
    assert expected_Y2_exact(k3, 2, 2) == brute_force_moment(
        k3, 2, lambda l: Fraction(count_strongly_equitable(l, 2)) ** 2
    )


def test_expected_Y2_oracle_k4_n2(k4):
    assert expected_Y2_exact(k4, 2, 2) == brute_force_moment(
        k4, 2, lambda l: Fraction(count_strongly_equitable(l, 2)) ** 2
    )


def test_expected_Y2_zero_when_k_does_not_divide(k3):
    assert expected_Y2_exact(k3, 2, 3) == 0


def test_expected_Y2_at_least_Y(k3):
    # Y is integer-valued, so Y^2 >= Y pointwise
    assert expected_Y2_exact(k3, 3, 3) >= expected_Y_exact(k3, 3, 3)


@pytest.mark.slow
def test_expected_Y2_oracle_k4_n3(k4):
    assert expected_Y2_exact(k4, 3, 3) == Fraction(88, 3)
    assert brute_force_moment(
        k4, 3, lambda l: Fraction(count_strongly_equitable(l, 3)) ** 2
    ) == Fraction(88, 3)


def test_brute_force_z3(k3):
    from liftchroma.lift import count_cycles

    value = brute_force_moment(k3, 2, lambda l: count_cycles(expand(l), 3))
    assert value == 1


def test_profile_cap(k4):
    with pytest.raises(TooLargeError):
        expected_X_exact(k4, 3, 3, profile_cap=10)


# ---------------------------------------------------------------------------
# Oracles for the frontier dynamic programme


def _oracle_histogram_sum(g, n, multi, edge_count) -> Fraction:
    """The loop the frontier sum replaced: every one of the h^|V|
    assignments of a histogram (a key of ``multi``) to each vertex."""
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


def _oracle_X(g, n, k):
    multi = {c: multinomial(n, c) for c in compositions(n, k)}
    return _oracle_histogram_sum(g, n, multi, proper_matching_count)


def _oracle_Y2(g, n, k):
    tables = _doubly_stochastic_tables(k, n // k)
    multi = {t: multinomial(n, [x for row in t for x in row]) for t in tables}
    return _oracle_histogram_sum(g, n, multi, proper_pair_matching_count)


def _contracted_moment(g, n, fibre_states, clash) -> Fraction:
    """Average over all n-lifts of the number of fibre-state assignments
    whose every lifted edge is proper, by a numpy tensor contraction of the
    colouring-level network: one index per base vertex ranging over the
    colourings of its fibre, one matrix per edge counting the matchings
    with no clash."""
    states = list(fibre_states)
    perms = list(itertools.permutations(range(n)))
    edge = np.array(
        [
            [sum(not any(clash(a[i], b[p[i]]) for i in range(n)) for p in perms) for b in states]
            for a in states
        ],
        dtype=np.int64,
    )
    # no partial sum can pass this, so int64 stays exact
    assert int(edge.max()) ** g.num_edges * len(states) ** g.num_vertices < 2**63
    letters = "abcdefghijklmnopqrstuvwxyz"
    subscripts = ",".join(letters[t] + letters[h] for t, h in g.edges) + "->"
    # pairwise contractions with intermediates up to 10^6 entries
    total = np.einsum(subscripts, *[edge] * g.num_edges, optimize=("greedy", 10**6))
    return Fraction(int(total), math.factorial(n) ** g.num_edges)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frontier_sum_equals_oracle_loop_k3(k3, doubled_triangle, n):
    for g in (k3, doubled_triangle):
        for k in (2, 3):
            assert expected_X_exact(g, n, k) == _oracle_X(g, n, k)
        assert expected_Y2_exact(g, n, n) == _oracle_Y2(g, n, n)


@pytest.mark.parametrize("n", [2, 3])
def test_frontier_sum_equals_oracle_loop_k4(k4, n):
    for k in (2, 3):
        assert expected_X_exact(k4, n, k) == _oracle_X(k4, n, k)
    assert expected_Y2_exact(k4, n, n) == _oracle_Y2(k4, n, n)


@pytest.mark.parametrize("m", [3, 8, 13, 2000])
def test_expected_X_cycle_single_lift(m):
    # the one 1-lift of C_m is C_m, with chromatic polynomial
    # (k-1)^m + (-1)^m (k-1); m = 2000 would overflow a recursive walk
    assert expected_X_exact(make_cycle_graph(m), 1, 3) == 2**m + 2 * (-1) ** m


@pytest.mark.slow
def test_expected_X_cycle_2_lifts_oracle():
    # 6^8 histogram assignments, past the old per-assignment cap
    c8 = make_cycle_graph(8)
    assert expected_X_exact(c8, 2, 3) == brute_force_moment(c8, 2, _x_statistic(3))


def test_expected_X_petersen_single_lift(petersen):
    # brute force over all 3^10 assignments, not the kernel both counts share
    assert expected_X_exact(petersen, 1, 3) == enumerate_proper_colorings(
        expand(identity_lift(petersen, 1)), 3
    )


def test_petersen_moments_within_default_cap(petersen):
    # 6^10 histogram assignments each, refused before the frontier sum
    ex = expected_X_exact(petersen, 2, 3)
    assert ex == Fraction(454929, 32)
    assert ex == _contracted_moment(
        petersen, 2, itertools.product(range(3), repeat=2), lambda a, b: a == b
    )
    assert expected_Y2_exact(petersen, 3, 3) == Fraction(94846, 81)
    halves = list(itertools.permutations(range(2)))
    pairs = [tuple(zip(p, q)) for p in halves for q in halves]
    assert expected_Y2_exact(petersen, 2, 2) == _contracted_moment(
        petersen, 2, pairs, lambda a, b: a[0] == b[0] or a[1] == b[1]
    )


def test_profile_cap_bounds_the_transitions(petersen, k4):
    with pytest.raises(TooLargeError, match=r"^\d+ histogram transitions exceed cap 1000000$"):
        expected_X_exact(petersen, 4, 3)
    # h = C(109, 9) histograms: refused before any is listed
    with pytest.raises(TooLargeError, match=r"exceed cap 1000000$"):
        expected_X_exact(k4, 100, 10)
    with pytest.raises(TooLargeError, match=r"^\d+ histogram transitions exceed cap 100$"):
        expected_Y2_exact(k4, 6, 3, profile_cap=100)


def test_refused_moment_lists_at_most_isqrt_cap_plus_one_tables(k4, monkeypatch):
    # h histograms cost h + h^2 transitions in the first layer alone, so a
    # refusal must not list more than isqrt(cap) + 1 of them first
    listed = [0]

    def counting(*args, **kwargs):
        for table in margin_tables(*args, **kwargs):
            listed[0] += 1
            yield table

    monkeypatch.setattr(moments_exact, "margin_tables", counting)
    cases = [
        (expected_Y2_exact, (k4, 6, 3), 100),  # 21 pair tables
        (expected_Y2_exact, (k4, 30, 3), 10**6),  # 2211 pair tables
        (expected_X_exact, (k4, 100, 10), 10**6),  # C(109, 9) histograms
    ]
    for moment, args, cap in cases:
        listed[0] = 0
        with pytest.raises(TooLargeError, match=rf"^\d+ histogram transitions exceed cap {cap}$"):
            moment(*args, profile_cap=cap)
        assert listed[0] <= math.isqrt(cap) + 1


def _pair_orbits(keys, maps) -> int:
    """Orbits of unordered key pairs {a, b} (a = b allowed) under the group
    ``maps``, every element listed."""
    index = {key: i for i, key in enumerate(keys)}
    perms = [[index[m(key)] for key in keys] for m in maps]
    seen, orbits = set(), 0
    for a, b in itertools.combinations_with_replacement(range(len(keys)), 2):
        if (a, b) not in seen:
            orbits += 1
            seen.update((min(p[a], p[b]), max(p[a], p[b])) for p in perms)
    return orbits


def _colour_maps(k):
    return [lambda c, p=p: tuple(c[i] for i in p) for p in itertools.permutations(range(k))]


def _pair_table_maps(k):
    # rows by p, columns by q, and the transpose, which swaps the colourings
    return [
        lambda t, p=p, q=q, flip=flip: tuple(
            tuple((t[j][i] if flip else t[i][j]) for j in q) for i in p
        )
        for p in itertools.permutations(range(k))
        for q in itertools.permutations(range(k))
        for flip in (False, True)
    ]


def test_edge_counts_once_per_pair_orbit(k4):
    # colour relabellings change no edge count, so each orbit of key pairs
    # costs one kernel call: h(h+1)/2 = 231 and 406 calls before
    cases = [
        (expected_Y2_exact, proper_pair_matching_count, _doubly_stochastic_tables(3, 2), _pair_table_maps(3), 16),
        (expected_X_exact, proper_matching_count, compositions(6, 3), _colour_maps(3), 79),
    ]
    for moment, kernel, keys, maps, count in cases:
        assert _pair_orbits(list(keys), maps) == count
        kernel.cache_clear()
        moment(k4, 6, 3)
        assert kernel.cache_info().misses == count


def test_refusal_spends_at_most_one_edge_count_per_pair_orbit(k4):
    # h = 455 compositions: the refusal used to spend h(h+1)/2 kernel calls
    # and about 20 s before its first layer's check
    orbits = _pair_orbits(list(compositions(12, 4)), _colour_maps(4))
    proper_matching_count.cache_clear()
    with pytest.raises(TooLargeError, match=r"^\d+ histogram transitions exceed cap 1000000$"):
        expected_X_exact(k4, 12, 4)
    assert proper_matching_count.cache_info().misses <= orbits


def test_symmetry_larger_than_the_edge_matrix_is_not_used(k3, k4):
    # 12! maps against h = 12 keys, and 8! against h = 8: listing the group
    # would cost more than it saves, so the sums run without it
    assert expected_X_exact(k3, 1, 12) == 12 * 11 * 10
    assert expected_X_exact(k4, 1, 8) == 8 * 7 * 6 * 5


def test_symmetric_second_moment_equals_the_plain_frontier_sum(k4, monkeypatch):
    # K4, n = 9: 6.8e6 transitions without the colour symmetry, past the
    # default cap and LAYER_CAP; with it, within the default cap
    monkeypatch.setattr(moments_exact, "LAYER_CAP", 10**7)
    plain = moments_exact.frontier_sum(
        k4, _doubly_stochastic_tables(3, 3), lambda t: multinomial(9, sum(t, ())),
        proper_pair_matching_count, 10**7,
    )
    monkeypatch.undo()
    assert expected_Y2_exact(k4, 9, 3) == Fraction(plain, math.factorial(9) ** 6)


def _histogram_pair_count(g, n: int, a_counts) -> int:
    """(lift, colouring) pairs whose per-fiber colour histograms are
    a_counts: prod_v multinomial(n; a_v) * prod_e M(a_tail, a_head)."""
    weight = math.prod(multinomial(n, counts) for counts in a_counts)
    for tail, head in g.edges:
        weight *= proper_matching_count(tuple(a_counts[tail]), tuple(a_counts[head]))
    return weight


def test_histogram_pair_count_matches_filtered_enumeration(k3):
    # fix a colour histogram and count (lift, colouring) pairs directly
    n, k = 2, 3
    a_counts = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    expected = _histogram_pair_count(k3, n, a_counts)
    actual = 0
    for lift in enumerate_lifts(k3, n):
        lg = expand(lift)
        for assign in itertools.product(range(k), repeat=lg.num_vertices):
            if any(assign[u] == assign[w] for u, w in lg.edges):
                continue
            ok = True
            for v in range(3):
                usage = [0] * k
                for i in range(n):
                    usage[assign[v * n + i]] += 1
                if tuple(usage) != a_counts[v]:
                    ok = False
                    break
            if ok:
                actual += 1
    assert expected == actual


def test_histogram_sum_recovers_expected_X(k3):
    # summing pair counts over every histogram must reproduce E[X] * n!^{|E|}
    from liftchroma.moments_exact import compositions

    n, k = 2, 3
    total = 0
    comps = list(compositions(n, k))
    for assignment in itertools.product(comps, repeat=3):
        total += _histogram_pair_count(k3, n, assignment)
    assert Fraction(total, math.factorial(n) ** 3) == expected_X_exact(k3, n, k)


def test_proper_matching_count_small():
    # rainbow fibers at k = 3: derangements of 3
    assert proper_matching_count((1, 1, 1), (1, 1, 1)) == 2
    # all one colour: no proper matching
    assert proper_matching_count((2, 0, 0), (2, 0, 0)) == 0
    # complementary colours: unique block matching, 2! * 2! / ... = 4
    assert proper_matching_count((2, 0, 0), (0, 2, 0)) == math.factorial(2)


# ---------------------------------------------------------------------------
# Recursive DFS oracles for the table kernel


def _oracle_table_sum(row_margins, col_margins, allowed) -> int:
    """sum over allowed-support tables B of rows! * cols! / B!, by the
    row-by-row recursive DFS that margin_tables replaced."""
    nrows, ncols = len(row_margins), len(col_margins)
    col_rem = list(col_margins)
    base = math.prod(map(math.factorial, row_margins)) * math.prod(
        map(math.factorial, col_margins)
    )
    allowed_cols = [[j for j in range(ncols) if allowed(i, j)] for i in range(nrows)]
    total = 0

    def fill_row(i, denom):
        nonlocal total
        if i == nrows:
            total += base // denom
            return
        cols = allowed_cols[i]

        def place(ci, left, denom_row):
            if ci == len(cols):
                if left == 0:
                    fill_row(i + 1, denom_row)
                return
            j = cols[ci]
            tail_capacity = sum(col_rem[c] for c in cols[ci + 1 :])
            for bij in range(max(0, left - tail_capacity), min(left, col_rem[j]) + 1):
                col_rem[j] -= bij
                place(ci + 1, left - bij, denom_row * math.factorial(bij))
                col_rem[j] += bij

        place(0, row_margins[i], denom)

    fill_row(0, 1)
    return total


def _oracle_doubly_stochastic_tables(k, q):
    """k x k tables with all margins q, by the recursive DFS that
    margin_tables replaced."""
    tables = []
    col_rem = [q] * k
    rows = []

    def fill_row(i):
        if i == k:
            tables.append(tuple(rows))
            return

        def place(j, left, row):
            if j == k - 1:
                if left <= col_rem[j]:
                    col_rem[j] -= left
                    rows.append(tuple(row + [left]))
                    fill_row(i + 1)
                    rows.pop()
                    col_rem[j] += left
                return
            tail_capacity = sum(col_rem[c] for c in range(j + 1, k))
            for bij in range(max(0, left - tail_capacity), min(left, col_rem[j]) + 1):
                col_rem[j] -= bij
                place(j + 1, left - bij, row + [bij])
                col_rem[j] += bij

        place(0, q, [])

    fill_row(0)
    return tables


def _pair_cells_allowed(r, c):
    i, j = divmod(r, 3)
    i2, j2 = divmod(c, 3)
    return i != i2 and j != j2


def test_matching_counts_equal_recursive_oracle():
    comps = list(compositions(6, 3))
    assert len(comps) == 28
    for x in comps:
        for y in comps:
            assert proper_matching_count(x, y) == _oracle_table_sum(x, y, lambda i, j: i != j)
    tables = _oracle_doubly_stochastic_tables(3, 2)
    assert len(tables) == 21
    for x in tables:
        for y in tables:
            rows = tuple(v for row in x for v in row)
            cols = tuple(v for row in y for v in row)
            assert proper_pair_matching_count(x, y) == _oracle_table_sum(
                rows, cols, _pair_cells_allowed
            )


def test_matching_counts_symmetric():
    # frontier_sum fills its edge matrix from one triangle, which needs
    # M(x, y) = M(y, x) on every pair of keys
    for n, k in [(2, 3), (3, 3), (6, 3), (4, 4), (5, 2)]:
        for x, y in itertools.combinations(compositions(n, k), 2):
            assert proper_matching_count(x, y) == proper_matching_count(y, x)
    for k, q in [(2, 3), (3, 1), (3, 2), (4, 1)]:
        for x, y in itertools.combinations(_doubly_stochastic_tables(k, q), 2):
            assert proper_pair_matching_count(x, y) == proper_pair_matching_count(y, x)


@pytest.mark.parametrize("k,q", [(2, 4), (3, 2), (3, 3), (4, 2)])
def test_doubly_stochastic_tables_same_order_as_oracle(k, q):
    assert list(_doubly_stochastic_tables(k, q)) == _oracle_doubly_stochastic_tables(k, q)


@pytest.mark.parametrize(
    "margins,cells",
    [
        # a 2 x 3 table with one forbidden cell
        ((3, 2, 1, 2, 2), [(0, 2), (0, 3), (0, 4), (1, 2), (1, 4)]),
        # repeated cells
        ((3, 4, 2, 5), [(0, 2), (0, 3), (0, 3), (1, 2), (1, 3)]),
        # a line with no cells: margin 0 is fine, margin 1 leaves no table
        ((1, 0, 1), [(0, 2)]),
        ((1, 1, 1), [(0, 2)]),
        ((), []),
    ],
)
def test_margin_tables_equal_filtered_product(margins, cells):
    top = max(margins, default=0)
    want = [
        x
        for x in itertools.product(range(top + 1), repeat=len(cells))
        if all(
            sum(v for v, (a, b) in zip(x, cells) if line in (a, b)) == margin
            for line, margin in enumerate(margins)
        )
    ]
    assert list(margin_tables(margins, cells)) == want
