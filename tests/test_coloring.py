import heapq

import pytest

from conftest import (
    cycle_lifted_graph,
    empty_lifted_graph,
    enumerate_equitable_colorings,
    enumerate_proper_colorings,
    identity_lift,
    six_cycle_lift,
)
from liftchroma.base_graph import connected_components, make_complete_graph
from liftchroma.coloring import (
    EquitableSpec,
    _Budget,
    _dsatur_decide,
    chromatic_bounds,
    chromatic_number,
    count_proper_colorings,
    count_strongly_equitable,
    is_bipartite,
    is_k_colorable,
    node_budget,
)
from liftchroma.errors import BudgetExhaustedError, TooLargeError
from liftchroma.lift import enumerate_lifts, expand, sample_lift


def test_equitable_spec_quotas():
    spec = EquitableSpec(k=3, n=7)
    assert (spec.q, spec.r) == (2, 1)
    assert spec.quotas() == (3, 2, 2)
    assert sum(spec.quotas()) == 7
    assert EquitableSpec(k=3, n=6).quotas() == (2, 2, 2)


def test_is_k_colorable_base_cases(k4):
    base_as_lift = expand(sample_lift(k4, 1, 0))
    assert not is_k_colorable(base_as_lift, 3)
    assert is_k_colorable(base_as_lift, 4)
    assert is_k_colorable(cycle_lifted_graph(6), 2)
    assert not is_k_colorable(cycle_lifted_graph(5), 2)


def test_lifts_of_k4_decision_matches_brute_force(k4):
    # n = 3 lifts occasionally contain a K_4 component and are then genuinely
    # not 3-colourable; the decision must track the exhaustive oracle either way
    for seed in range(5):
        lg = expand(sample_lift(k4, 3, seed))
        assert is_k_colorable(lg, 3) == (enumerate_proper_colorings(lg, 3) > 0)


def test_larger_lifts_of_k4_are_3_colorable(k4):
    for seed in range(5):
        assert is_k_colorable(expand(sample_lift(k4, 25, seed)), 3)


def test_chromatic_number_small(k3, k4):
    assert chromatic_number(expand(identity_lift(k3, 2))) == 3
    assert chromatic_number(cycle_lifted_graph(6)) == 2
    assert chromatic_number(cycle_lifted_graph(5)) == 3
    assert chromatic_number(expand(sample_lift(k4, 1, 0))) == 4
    assert chromatic_number(empty_lifted_graph(4)) == 1


def test_count_proper_cycle():
    c6 = cycle_lifted_graph(6)
    # chromatic polynomial of a cycle: (k-1)^m + (k-1)(-1)^m
    assert count_proper_colorings(c6, 3) == 66
    assert enumerate_proper_colorings(c6, 3) == 66


def test_count_proper_disjoint_triangles(k3):
    lg = expand(identity_lift(k3, 2))
    assert count_proper_colorings(lg, 3) == 36
    assert enumerate_proper_colorings(lg, 3) == 36


def test_count_proper_empty_graph():
    assert count_proper_colorings(empty_lifted_graph(5), 3) == 243


def test_count_proper_matches_decision(k3, k4):
    for g, n in [(k3, 2), (k4, 2)]:
        for seed in range(3):
            lg = expand(sample_lift(g, n, seed))
            for k in (2, 3, 4):
                assert (count_proper_colorings(lg, k) > 0) == is_k_colorable(lg, k)


def test_count_proper_cap():
    with pytest.raises(TooLargeError):
        count_proper_colorings(empty_lifted_graph(50), 3)


def test_strongly_equitable_latin_squares(k3):
    assert count_strongly_equitable(identity_lift(k3, 3), 3) == 12


def test_strongly_equitable_six_cycle(k3):
    lift = six_cycle_lift(k3)
    assert count_strongly_equitable(lift, 3) == 2
    assert enumerate_equitable_colorings(lift, 3) == 2


def test_strongly_equitable_enumeration_oracle(k3):
    for seed in range(4):
        lift = sample_lift(k3, 3, seed)
        assert count_strongly_equitable(lift, 3) == enumerate_equitable_colorings(lift, 3)


def test_strongly_equitable_one_color(k3):
    assert count_strongly_equitable(sample_lift(k3, 2, 0), 1) == 0


def test_equitable_below_proper(k3, k4):
    for g, n in [(k3, 3), (k4, 2)]:
        for seed in range(3):
            lift = sample_lift(g, n, seed)
            assert count_strongly_equitable(lift, 3) <= count_proper_colorings(
                expand(lift), 3
            )


def test_chi_lift_at_most_chi_base(k4, k5):
    # a base colouring lifts fiber-wise, so chi(lift) <= chi(base) = m
    for g, m in [(k4, 4), (k5, 5)]:
        for seed in range(3):
            assert chromatic_number(expand(sample_lift(g, 4, seed))) <= m


def test_budget_env_override(monkeypatch, k5):
    assert node_budget(17) == 17
    monkeypatch.setenv("LIFTCHROMA_BUDGET", "123")
    assert node_budget() == 123


def test_budget_exhaustion_signals_unknown(k5):
    lg = expand(sample_lift(k5, 4, 0))  # 4-regular, so k=3 needs real search
    with pytest.raises(BudgetExhaustedError):
        is_k_colorable(lg, 3, budget=2)


def _oracle_dsatur_decide(adj, vertices, k, budget) -> bool:
    """The recursive DSATUR that the explicit-stack search replaced: one
    Python frame per coloured vertex."""
    index = {v: i for i, v in enumerate(vertices)}
    local_adj = [[index[w] for w in adj[v] if w in index] for v in vertices]
    m = len(vertices)
    colors = [-1] * m
    neighbor_colors = [set() for _ in range(m)]
    degrees = [len(a) for a in local_adj]
    heap = [(0, -degrees[v], v) for v in range(m)]
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

    def solve(used: int) -> bool:
        nonlocal uncolored
        budget.spend()
        if uncolored == 0:
            return True
        v = pick()
        limit = min(k, used + 1)
        for c in range(limit):
            if c in neighbor_colors[v]:
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
            if not dead_end and solve(max(used, c + 1)):
                return True
            colors[v] = -1
            uncolored += 1
            for w in touched:
                neighbor_colors[w].remove(c)
                heapq.heappush(heap, (-len(neighbor_colors[w]), -degrees[w], w))
        return False

    return solve(0)


def _dsatur_outcome(decide, adj, comp, k, limit):
    budget = _Budget(limit)
    try:
        answer = decide(adj, comp, k, budget)
    except BudgetExhaustedError:
        answer = None
    return answer, budget.left


def test_dsatur_equals_recursive_oracle():
    # same answer and the same nodes left in the budget, censored searches
    # included, on every component of seeded K5 and K6 lifts for each k
    # below the degree; n = 4 gives the exhausted (False) searches
    outcomes = set()
    for m, n, seeds in [(5, 100, range(6)), (6, 20, range(3)), (6, 4, range(6))]:
        for seed in seeds:
            adj = expand(sample_lift(make_complete_graph(m), n, seed)).simple_adjacency
            for k in range(3, m - 1):
                for comp, _ in connected_components(adj):
                    want = _dsatur_outcome(_oracle_dsatur_decide, adj, comp, k, 20_000)
                    assert _dsatur_outcome(_dsatur_decide, adj, comp, k, 20_000) == want
                    outcomes.add(want[0])
    assert outcomes == {True, False, None}


def test_chromatic_bounds_bracket(k4):
    lg = expand(sample_lift(k4, 30, 1))
    lo, hi = chromatic_bounds(lg)
    assert lo <= chromatic_number(lg) <= hi
    assert (lo, hi) == (3, 3)


# ---------------------------------------------------------------------------
# Stack-DFS oracles for the shared graph traversal


def _oracle_components(adj):
    """The component walk that connected_components replaced."""
    n = len(adj)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(comp)
    return comps


def _oracle_component_bipartite(adj, comp):
    side = {comp[0]: 0}
    stack = [comp[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in side:
                side[w] = side[u] ^ 1
                stack.append(w)
            elif side[w] == side[u]:
                return False
    return True


@pytest.mark.parametrize("m", [5, 6])
@pytest.mark.parametrize("n", [2, 3, 40])
def test_components_same_order_as_oracle(m, n):
    for seed in range(4):
        adj = expand(sample_lift(make_complete_graph(m), n, seed)).simple_adjacency
        comps = connected_components(adj)
        assert [comp for comp, _ in comps] == _oracle_components(adj)
        assert [bipartite for _, bipartite in comps] == [
            _oracle_component_bipartite(adj, comp) for comp, _ in comps
        ]


def test_bipartite_flags_match_oracle(k3, k4):
    flags = set()
    for g in (k3, k4):
        for lift in enumerate_lifts(g, 2):
            lg = expand(lift)
            adj = lg.simple_adjacency
            comps = connected_components(adj)
            want = [_oracle_component_bipartite(adj, comp) for comp in _oracle_components(adj)]
            assert [bipartite for _, bipartite in comps] == want
            assert is_bipartite(lg) == all(want)
            flags.add(is_bipartite(lg))
    assert flags == {True, False}
