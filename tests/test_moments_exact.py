import itertools
import math
from fractions import Fraction

import pytest

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
    histogram_pair_count,
    margin_tables,
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


def test_histogram_pair_count_matches_filtered_enumeration(k3):
    # fix a colour histogram and count (lift, colouring) pairs directly
    n, k = 2, 3
    a_counts = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    expected = histogram_pair_count(k3, n, a_counts)
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
        total += histogram_pair_count(k3, n, assignment)
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


@pytest.mark.parametrize("k,q", [(2, 4), (3, 2), (3, 3), (4, 2)])
def test_doubly_stochastic_tables_same_order_as_oracle(k, q):
    assert _doubly_stochastic_tables(k, q) == _oracle_doubly_stochastic_tables(k, q)


@pytest.mark.parametrize(
    "margins,cells,bounds",
    [
        # a 2 x 3 table with one forbidden cell
        ((3, 2, 1, 2, 2), [(0, 2), (0, 3), (0, 4), (1, 2), (1, 4)], None),
        # repeated cells and per-cell bounds that bind
        ((3, 4, 2, 5), [(0, 2), (0, 3), (0, 3), (1, 2), (1, 3)], [(1, 2), (0, 1), (0, 3), (0, 3), (2, 9)]),
        # a line with no cells: margin 0 is fine, margin 1 leaves no table
        ((1, 0, 1), [(0, 2)], None),
        ((1, 1, 1), [(0, 2)], None),
        ((), [], None),
    ],
)
def test_margin_tables_equal_filtered_product(margins, cells, bounds):
    top = max(margins, default=0)
    ranges = [range(lo, hi + 1) for lo, hi in bounds] if bounds else [range(top + 1)] * len(cells)
    want = [
        x
        for x in itertools.product(*ranges)
        if all(
            sum(v for v, (a, b) in zip(x, cells) if line in (a, b)) == margin
            for line, margin in enumerate(margins)
        )
    ]
    assert list(margin_tables(margins, cells, bounds)) == want
