import gc
import heapq
import itertools
import os
import random
import subprocess
import sys

import pytest

from conftest import (
    cycle_lifted_graph,
    empty_lifted_graph,
    enumerate_equitable_colorings,
    enumerate_proper_colorings,
    identity_lift,
    six_cycle_lift,
)
from liftchroma import coloring, moments_exact
from liftchroma.base_graph import (
    BaseGraph,
    connected_components,
    make_complete_graph,
    make_cycle_graph,
)
from liftchroma.coloring import (
    EquitableSpec,
    _Budget,
    _dsatur_decide,
    _local_adjacency,
    _tabucol,
    chromatic_bounds,
    chromatic_number,
    count_proper_colorings,
    count_strongly_equitable,
    greedy_clique,
    is_bipartite,
    is_k_colorable,
    node_budget,
)
from liftchroma.errors import BudgetExhaustedError, TooLargeError
from liftchroma.lift import LiftedGraph, enumerate_lifts, expand, sample_lift


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


def test_count_proper_has_no_vertex_cap(k4):
    assert count_proper_colorings(empty_lifted_graph(50), 3) == 3**50
    # the strongly equitable count keeps its 40-vertex cap
    with pytest.raises(TooLargeError, match="^44 vertices exceeds exact-count cap 40$"):
        count_strongly_equitable(sample_lift(k4, 11, 0), 3)


def test_count_proper_found_case_within_small_budget(k4, monkeypatch):
    # 24 vertices: the node search spent its whole 10^8 budget on this count
    monkeypatch.setenv("LIFTCHROMA_BUDGET", "1000000")
    lg = expand(sample_lift(k4, 6, 2))
    assert count_proper_colorings(lg, 4) == 6102566736


def test_count_proper_refuses_a_colour_matrix_past_the_layer_cap():
    # the k x k edge matrix counts as a layer: 9000 colours would need
    # gigabytes under the default budget before the first layer ran
    with pytest.raises(BudgetExhaustedError, match=r"exceed cap 3000000$"):
        count_proper_colorings(cycle_lifted_graph(3), 9000)


def test_count_proper_layer_cap_bounds_memory(tmp_path):
    # Petersen n=4, k=4 builds a layer of about 8.6e7 transitions under the
    # default budget; the layer cap must refuse it with the budget error
    # inside a 1 GB address space, not a MemoryError or a kill
    script = tmp_path / "count.py"
    script.write_text(
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from liftchroma.base_graph import make_petersen_graph\n"
        "from liftchroma.coloring import count_proper_colorings\n"
        "from liftchroma.errors import BudgetExhaustedError\n"
        "from liftchroma.lift import expand, sample_lift\n"
        "lg = expand(sample_lift(make_petersen_graph(), 4, 0))\n"
        "try:\n"
        "    count_proper_colorings(lg, 4)\n"
        "except BudgetExhaustedError as exc:\n"
        "    print('refused:', exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("LIFTCHROMA_BUDGET", None)
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("refused: ")
    assert done.stdout.endswith(f"exceed cap {moments_exact.LAYER_CAP}\n")


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


def test_counters_leave_no_reference_cycle(k4):
    # The recursive counter refers to itself; it must not leave that cycle
    # (and the colour and quota lists it holds) to the cyclic collector,
    # whether the search ends or runs out of budget.
    lift = sample_lift(k4, 3, 0)
    gc.collect()
    gc.disable()
    try:
        assert count_strongly_equitable(lift, 3) > 0
        assert gc.collect() == 0
        with pytest.raises(BudgetExhaustedError):
            count_proper_colorings(expand(lift), 3, budget=3)
        assert gc.collect() == 0
    finally:
        gc.enable()


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


@pytest.mark.parametrize("value", ["0", "-3", "1e4", "abc"])
def test_budget_env_must_be_a_positive_integer(monkeypatch, value):
    # 0 and -3 used to censor every search; 1e4 and abc failed with int()'s
    # message, which does not name the variable
    monkeypatch.setenv("LIFTCHROMA_BUDGET", value)
    with pytest.raises(ValueError, match=f"LIFTCHROMA_BUDGET must be an integer >= 1, got '{value}'"):
        node_budget()


def test_budget_exhaustion_signals_unknown(k5):
    lg = expand(sample_lift(k5, 4, 0))  # 4-regular, so k=3 needs real search
    with pytest.raises(BudgetExhaustedError):
        is_k_colorable(lg, 3, budget=2)


def _oracle_dsatur_decide(local_adj, k, budget):
    """The recursive DSATUR that the explicit-stack search replaced: one
    Python frame per coloured vertex, tuple heap entries and colour sets,
    with the search's refill of a dry heap.  Returns its colouring or None."""
    m = len(local_adj)
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
        # dry: refill from the uncoloured vertices, as the search does; a -1
        # here would recolour the last vertex and return improper colourings
        heap.extend((-len(neighbor_colors[v]), -degrees[v], v) for v in range(m) if colors[v] < 0)
        heapq.heapify(heap)
        return pick()

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

    return colors if solve(0) else None


def _dsatur_search(decide, adj, comp, k, limit):
    """(the colouring found, as a tuple, False if there is none or None if
    the budget ran out; the budget left)."""
    budget = _Budget(limit)
    try:
        answer = decide(_local_adjacency(adj, comp), k, budget)
    except BudgetExhaustedError:
        return None, budget.left
    if answer is None:
        return False, budget.left
    # a colouring counts only once it is checked: proper on the component,
    # in at most k colours
    colour = dict(zip(comp, answer))
    assert len(answer) == len(comp) and set(answer) <= set(range(k))
    assert all(colour[v] != colour[w] for v in comp for w in adj[v])
    return tuple(answer), budget.left


def _dsatur_outcome(decide, adj, comp, k, limit):
    """_dsatur_search with True for a colouring."""
    answer, left = _dsatur_search(decide, adj, comp, k, limit)
    return answer and True, left


def _matching_union(p: int, d: int, seed: int) -> BaseGraph:
    """d seeded perfect matchings on 2p vertices: a d-regular multigraph."""
    rng = random.Random(seed)
    edges = []
    for _ in range(d):
        vs = rng.sample(range(2 * p), 2 * p)
        edges += zip(vs[::2], vs[1::2])
    return BaseGraph(2 * p, tuple(edges))


def test_dsatur_equals_recursive_oracle(doubled_triangle):
    # the same colouring (or none) and the same nodes left in the budget,
    # censored searches included, on every component of seeded lifts for
    # each k from 3 to below the degree; n = 4 gives the exhausted (False)
    # searches.  K5 and K6 lifts are regular.  Lifts of multigraphs are not
    # always: parallel edges can lift onto one edge, so only these test the
    # degree tie-break of the pick.
    cases = [(make_complete_graph(5), 100, range(6)), (make_complete_graph(6), 20, range(3)),
             (make_complete_graph(6), 4, range(6)), (doubled_triangle, 30, range(6))]
    cases += [(_matching_union(p, d, seed), n, range(3))
              for seed, (p, d, n) in enumerate([(2, 5, 20), (3, 5, 20), (3, 6, 10), (4, 5, 10)])]
    outcomes, irregular = set(), 0
    for base, n, seeds in cases:
        for seed in seeds:
            adj = expand(sample_lift(base, n, seed)).simple_adjacency
            irregular += len({len(a) for a in adj}) > 1
            for k in range(3, base.degree):
                for comp, _ in connected_components(adj):
                    want = _dsatur_search(_oracle_dsatur_decide, adj, comp, k, 20_000)
                    assert _dsatur_search(_dsatur_decide, adj, comp, k, 20_000) == want
                    outcomes.add(want[0] and True)
            # the k = m first descent that chromatic_bounds takes its bound from
            m = len(adj)
            want = _dsatur_search(_oracle_dsatur_decide, adj, range(m), m, m + 1)
            assert want[1] == 0
            assert _dsatur_search(_dsatur_decide, adj, range(m), m, m + 1) == want
    assert outcomes == {True, False, None}
    assert irregular >= 15


def test_dsatur_refills_a_dry_heap():
    # On this 150-vertex component at k=3 a backtrack uncolours a vertex
    # without re-pushing it, and the heap runs out of live entries while
    # that vertex is still uncoloured.  Every pick must name an uncoloured
    # vertex; a dry heap once made pick() return -1, which indexes the
    # last vertex.  The picks are watched through the profiler hook.
    adj = expand(sample_lift(make_complete_graph(5), 30, 7)).simple_adjacency
    [(comp, _)] = connected_components(adj)
    pick_code = next(
        c for c in _dsatur_decide.__code__.co_consts if getattr(c, "co_name", "") == "pick"
    )
    dry_calls, picks = [], []

    def watch(frame, event, arg):
        if frame.f_code is not pick_code:
            return
        state = frame.f_locals
        colors = state["colors"]
        if event == "call":
            k, m, step, sat, base = (state[x] for x in ("k", "m", "step", "sat", "base"))

            def is_live(key):  # v's key while v is uncoloured, at its saturation
                v = key % m
                return colors[v] < 0 and key == (k - sat[v]) * step + base[v]

            dry_calls.append(not any(map(is_live, state["heap"])))
        elif event == "return":
            picks.append(0 <= arg < len(colors) and colors[arg] < 0)

    previous = sys.getprofile()
    sys.setprofile(watch)
    try:
        outcome = _dsatur_outcome(_dsatur_decide, adj, comp, 3, 20_000)
    finally:
        sys.setprofile(previous)
    assert any(dry_calls)
    assert picks and all(picks)
    assert outcome == (True, 20_000 - 265)


def _certificate_lifts(doubled_triangle):
    """Seeded lifts on which DSATUR alone often needs more than 2m nodes at
    k = 3; the K6 lifts with n = 4 and 8 are mostly not 3-colourable, and
    DSATUR after the tabu search decides several."""
    k5, k6 = make_complete_graph(5), make_complete_graph(6)
    cases = [(k6, 4, range(4)), (k6, 8, range(2)), (k5, 30, range(8)), (k5, 100, range(8)),
             (k6, 20, range(4)), (doubled_triangle, 30, range(6))]
    return [expand(sample_lift(base, n, seed)) for base, n, seeds in cases for seed in seeds]


def test_tabu_certificates_are_proper_and_agree_with_the_oracle(doubled_triangle):
    # every colouring the tabu phase returns is a proper k-colouring, and
    # is_k_colorable gives the recursive oracle's answer wherever both decide
    found, agreed = 0, []
    for lg in _certificate_lifts(doubled_triangle):
        adj = lg.simple_adjacency
        oracle = True
        for comp, _ in connected_components(adj):
            local = _local_adjacency(adj, comp)
            m = len(local)
            start = _dsatur_decide(local, m, _Budget(m + 1))
            colors = _tabucol(local, 3, start, _Budget(m), random.Random(m))
            if colors is not None:
                found += 1
                assert len(colors) == m and set(colors) <= {0, 1, 2}
                assert all(colors[v] != colors[w] for v in range(m) for w in local[v])
            answer, _ = _dsatur_outcome(_oracle_dsatur_decide, adj, comp, 3, 20_000)
            oracle = None if answer is None or oracle is None else oracle and answer
        try:
            decided = is_k_colorable(lg, 3, budget=20_000)
        except BudgetExhaustedError:
            continue
        if oracle is not None:
            assert decided == oracle
            agreed.append(decided)
    assert found >= 20 and agreed.count(True) >= 15 and agreed.count(False) >= 4


def _tabu_coloured_lift():
    """A K5 lift (m = 500) that DSATUR alone does not decide at k = 3 in
    10**6 nodes, and the tabu search 3-colours in 71 moves."""
    return expand(sample_lift(make_complete_graph(5), 100, 4))


@pytest.mark.parametrize(
    "bad", [lambda m: [0] * m, lambda m: list(range(m)), lambda m: [0, 1, 2] * m]
)
def test_an_improper_certificate_raises(monkeypatch, bad):
    # a tabu search that returns a colouring with a monochromatic edge, one
    # with a colour >= k, or one of the wrong length is refused, by a check
    # that python -O keeps
    monkeypatch.setattr(coloring, "_tabucol", lambda local_adj, *rest: bad(len(local_adj)))
    with pytest.raises(AssertionError, match="improper colouring"):
        is_k_colorable(_tabu_coloured_lift(), 3, budget=10_000)


def _counting_budgets(monkeypatch):
    """The budgets is_k_colorable builds, each counting the units it gave."""
    budgets = []

    class CountingBudget(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            self.limit, self.spent = limit, 0
            budgets.append(self)

        def spend(self):
            super().spend()
            self.spent += 1

    monkeypatch.setattr(coloring, "_Budget", CountingBudget)
    return budgets


def _tabu_calls(monkeypatch):
    """A list that gets one entry per call of the tabu search."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return tabu(*args)

    tabu = coloring._tabucol
    monkeypatch.setattr(coloring, "_tabucol", recorded)
    return calls


def test_phases_spend_at_most_the_budget(monkeypatch, doubled_triangle):
    # the greedy start, the moves and DSATUR after them all come out of
    # the one budget: a censored call spent all of it, a decided one no
    # more, and budget.left is what it did not spend
    budgets, calls = _counting_budgets(monkeypatch), _tabu_calls(monkeypatch)
    outcomes = set()
    for lg in [_tabu_coloured_lift(), *_certificate_lifts(doubled_triangle)[:12]]:
        m = lg.num_vertices
        limits = (1, m, m + 1, 2 * m, 2 * m + 1, 2 * m + 2, 3 * m + 1, 3 * m + 5, 4 * m)
        for limit in (*limits, 10_000):
            try:
                is_k_colorable(lg, 3, budget=limit)
                decided = True
            except BudgetExhaustedError:
                decided = False
            b = budgets[-1]
            assert b.limit == limit and b.spent <= limit
            if decided:
                assert b.left == limit - b.spent
            else:
                assert b.spent == limit
            outcomes.add(decided)
    assert outcomes == {True, False} and calls


def test_no_tabu_move_below_the_greedy_start(monkeypatch):
    # the greedy start costs m + 1 units, so a budget of at most m censors
    # before the tabu search is called
    calls = _tabu_calls(monkeypatch)
    lg = _tabu_coloured_lift()
    m = lg.num_vertices
    for limit in (1, 250, m - 1, m):
        with pytest.raises(BudgetExhaustedError):
            is_k_colorable(lg, 3, budget=limit)
    assert not calls
    assert is_k_colorable(lg, 3, budget=10_000) and calls


@pytest.mark.parametrize("n,seed", [(4, 0), (4, 1), (4, 15), (8, 0), (8, 1)])
def test_dsatur_runs_once_after_a_failed_tabu_search(monkeypatch, n, seed):
    # K6 lifts of one component, on which the tabu search spends its m moves
    # and fails and DSATUR needs more than 2m nodes: the call spends the
    # greedy start, the m moves and the nodes of one DSATUR search, no more
    lg = expand(sample_lift(make_complete_graph(6), n, seed))
    adj = lg.simple_adjacency
    ((comp, _),) = connected_components(adj)
    local = _local_adjacency(adj, comp)
    m = len(local)
    alone = _Budget(10**7)
    answer = _dsatur_decide(local, 3, alone) is not None
    nodes = 10**7 - alone.left
    assert nodes > 2 * m
    budgets, calls = _counting_budgets(monkeypatch), _tabu_calls(monkeypatch)
    assert is_k_colorable(lg, 3, budget=10_000) == answer
    assert len(calls) == 1
    assert 10_000 - budgets[-1].left == (m + 1) + m + nodes


def test_a_loop_has_no_proper_colouring():
    # a loop has no proper colouring, so every solver refuses the graph
    lg = LiftedGraph(2, ((0, 0), (0, 1)))
    for solve in (
        lambda: is_k_colorable(lg, 3),
        lambda: count_proper_colorings(lg, 3),
        lambda: chromatic_number(lg),
        lambda: is_bipartite(lg),
    ):
        with pytest.raises(ValueError, match="^loop at vertex 0"):
            solve()


def test_certified_answers_are_deterministic(monkeypatch, doubled_triangle):
    # the same lift twice gives the same answer and the same budget left
    budgets = _counting_budgets(monkeypatch)
    for lg in [_tabu_coloured_lift(), *_certificate_lifts(doubled_triangle)]:
        runs = []
        for _ in range(2):
            try:
                answer = is_k_colorable(lg, 3, budget=5_000)
            except BudgetExhaustedError:
                answer = None
            runs.append((answer, budgets[-1].left))
        assert runs[0] == runs[1]


def test_chromatic_bounds_bracket(k4):
    lg = expand(sample_lift(k4, 30, 1))
    lo, hi = chromatic_bounds(lg)
    assert lo <= chromatic_number(lg) <= hi
    assert (lo, hi) == (3, 3)


def _oracle_clique_number(adj):
    """Clique number by listing, for each vertex v, every subset of its
    higher-index neighbours, smallest first."""
    nbrs = [set(a) for a in adj]
    best = min(1, len(adj))
    for v, a in enumerate(adj):
        later = [w for w in a if w > v]
        for size in range(best, len(later) + 1):
            if any(
                all(y in nbrs[x] for x, y in itertools.combinations(sub, 2))
                for sub in itertools.combinations(later, size)
            ):
                best = size + 1
    return best


def _random_graph(m, p, seed):
    rng = random.Random(seed)
    pairs = itertools.combinations(range(m), 2)
    return LiftedGraph(m, tuple(e for e in pairs if rng.random() < p))


def test_clique_search_equals_oracle(k4, k5):
    graphs = [
        expand(sample_lift(g, n, seed))
        for g, n in [(k4, 3), (k4, 30), (k5, 4), (k5, 100), (make_complete_graph(6), 5)]
        for seed in range(6)
    ]
    graphs += [_random_graph(m, p, seed) for m in (0, 1, 5, 12) for p in (0.3, 0.7) for seed in range(5)]
    found = set()
    for lg in graphs:
        omega = _oracle_clique_number(lg.simple_adjacency)
        assert greedy_clique(lg) == omega
        found.add(omega)
    assert found >= {0, 1, 2, 3, 4, 5}


def test_clique_search_on_a_large_complete_graph():
    m = 1200
    lg = LiftedGraph(m, tuple(itertools.combinations(range(m), 2)))
    assert greedy_clique(lg) == m  # one level of an explicit stack per vertex


def test_clique_search_out_of_budget_keeps_a_lower_bound():
    # a dense graph: each budget returns the size of a clique that exists,
    # never more than the clique number, and never raises
    for seed in range(3):
        lg = _random_graph(20, 0.8, seed)
        omega = _oracle_clique_number(lg.simple_adjacency)
        sizes = [greedy_clique(lg, budget) for budget in (1, 2, 3, 5, 10, 100)]
        assert 2 <= sizes[0] and sizes == sorted(sizes) and sizes[-1] <= omega


def test_k4_in_a_lift_decides_chi_without_dsatur(monkeypatch, k5):
    # the first-50-starts greedy clique said 2 on this lift, so chi spent its
    # whole budget refuting k = 3; the exact clique gives 4 and Brooks does
    # the rest.  1000 units let the clique search finish (at 1 it stops
    # after one edge, and chi censors at [3, 4]).
    lg = expand(sample_lift(k5, 100, 25))
    assert greedy_clique(lg) == 4

    def no_dsatur(*args):
        raise AssertionError("DSATUR ran")

    monkeypatch.setattr(coloring, "_dsatur_decide", no_dsatur)
    assert chromatic_number(lg, budget=1000) == 4
    assert chromatic_bounds(lg, refine_budget=1000) == (4, 4)


def test_two_colourability_never_searches(k4):
    # a component of maximum degree >= 3 went to DSATUR at k = 2 and spent
    # the budget; the bipartite flag decides it
    cube = LiftedGraph(8, tuple((u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b))
    assert is_k_colorable(cube, 2, budget=1)
    assert not is_k_colorable(expand(sample_lift(k4, 50, 0)), 2, budget=1)


def test_censored_chi_names_its_bracket():
    lg = expand(sample_lift(make_complete_graph(6), 20, 0))
    assert chromatic_bounds(lg, refine_budget=10) == (3, 4)
    with pytest.raises(BudgetExhaustedError, match=r"chromatic number in \[3, 4\]$"):
        chromatic_number(lg, budget=10)


def _oracle_greedy_upper(adj):
    """Greedy DSATUR as a quadratic scan: the bound that the search's first
    descent must give."""
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


def test_greedy_upper_equals_scan_oracle(k4, petersen):
    # two disjoint K4s, and cycles, whose lifts always split into components
    two_k4 = BaseGraph(8, k4.edges + tuple((u + 4, v + 4) for u, v in k4.edges))
    bases = (two_k4, make_cycle_graph(5), petersen, make_complete_graph(6))
    components = 0
    for b, base in enumerate(bases):
        for n in (1, 2, 3, 7, 20, 40):
            adj = expand(sample_lift(base, n, 100 * b + n)).simple_adjacency
            components += len(connected_components(adj)) > 1
            m = len(adj)
            budget = _Budget(m + 1)
            first_descent = _dsatur_decide(adj, m, budget)
            assert 1 + max(first_descent) == _oracle_greedy_upper(adj)
            assert budget.left == 0  # one descent, no backtrack
    assert components >= 6  # at least every lift of the two K4s


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


# ---------------------------------------------------------------------------
# Oracles for the two colouring counts: the unbroken search, which tries
# every colour at every vertex (per component in BFS order for the proper
# count, in the equitable count's own order for the equitable one)


def _oracle_count_extensions(adj, order, k, fiber, remaining, budget) -> int:
    colors = [-1] * len(adj)

    def count_from(pos: int) -> int:
        budget.spend()
        if pos == len(order):
            return 1
        v = order[pos]
        rem = remaining[fiber[v]]
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


def _oracle_count_proper(lg, k, budget) -> int:
    adj = lg.simple_adjacency
    fiber = [0] * lg.num_vertices
    remaining = [[lg.num_vertices] * k]
    total = 1
    for comp, _ in connected_components(adj):
        if len(comp) == 1:
            total *= k
        else:
            order = [comp[0]]
            for u in order:
                order += [w for w in adj[u] if w not in order]
            total *= _oracle_count_extensions(adj, order, k, fiber, remaining, budget)
        if total == 0:
            return 0
    return total


def _oracle_count_equitable(lift, k, budget) -> int:
    lg = expand(lift)
    quotas = EquitableSpec(k=k, n=lift.n).quotas()
    adj = lg.simple_adjacency
    n = lift.n
    remaining = [list(quotas) for _ in range(lift.base.num_vertices)]
    order = sorted(range(lg.num_vertices), key=lambda u: (u // n, -len(adj[u])))
    fiber = [u // n for u in range(lg.num_vertices)]
    return _oracle_count_extensions(adj, order, k, fiber, remaining, budget)


def _count_outcome(monkeypatch, count, limit):
    """(value, or None if censored; nodes used, or None if it built no
    search budget) of one count.  ``count`` takes the limit; the budget it
    builds is recorded."""
    budgets = []

    class RecordingBudget(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(coloring, "_Budget", RecordingBudget)
    try:
        value = count(limit)
    except BudgetExhaustedError:
        value = None
    return value, limit - budgets[-1].left if budgets else None


def test_shared_counter_equals_both_oracles(k3, k4, monkeypatch):
    # Under a 400-unit cap each count never censors where its unbroken
    # oracle finished, and finds the oracle's value wherever the oracle
    # finished.  The canonical equitable search is a subtree of its oracle,
    # so it also uses no more nodes; the proper count spends frontier
    # transitions, not search nodes, so its units are not compared.
    lifts = [*enumerate_lifts(k3, 2), *enumerate_lifts(k3, 3), *enumerate_lifts(k4, 2)]
    lifts += [sample_lift(k4, 3, seed) for seed in range(30)]
    outcomes = set()
    for lift in lifts:
        lg = expand(lift)
        for k in (2, 3, 4):
            pairs = [
                (
                    lambda limit: count_proper_colorings(lg, k, budget=limit),
                    lambda limit: _oracle_count_proper(lg, k, coloring._Budget(limit)),
                    False,
                ),
                (
                    lambda limit: count_strongly_equitable(lift, k, budget=limit),
                    lambda limit: _oracle_count_equitable(lift, k, coloring._Budget(limit)),
                    True,
                ),
            ]
            for public, oracle, same_units in pairs:
                want, oracle_nodes = _count_outcome(monkeypatch, oracle, 400)
                got, nodes = _count_outcome(monkeypatch, public, 400)
                if same_units:
                    assert nodes <= oracle_nodes
                if want is not None:
                    assert got == want
                outcomes.add((want is None, got is None))
    # the oracle censors somewhere the canonical search finishes
    assert {(False, False), (True, False)} <= outcomes


def test_canonical_counts_equal_unbroken_oracle(k3, k4):
    cases = [(lift, k) for n in (2, 3) for lift in enumerate_lifts(k3, n) for k in (2, 3)]
    cases += [(lift, k) for lift in enumerate_lifts(k4, 2) for k in (2, 3, 4)]
    cases += [(sample_lift(k4, 3, seed), k) for seed in range(30) for k in (2, 3, 4)]
    unlimited = 10**9
    for lift, k in cases:
        lg = expand(lift)
        assert count_proper_colorings(lg, k) == _oracle_count_proper(lg, k, _Budget(unlimited))
    # the equitable count also on extended quotas (0 < r) and q = 0 (n < k)
    cases += [(sample_lift(k3, n, seed), 3) for n in (4, 5) for seed in range(10)]
    cases += [(sample_lift(k4, n, seed), k) for n, k in [(2, 3), (3, 4)] for seed in range(5)]
    nonzero = set()
    for lift, k in cases:
        want = _oracle_count_equitable(lift, k, _Budget(unlimited))
        assert count_strongly_equitable(lift, k) == want
        q, r = divmod(lift.n, k)
        if want:
            nonzero.add((q > 0, r > 0))
    # each quota shape is met by a lift with equitable colourings
    assert nonzero == {(True, False), (True, True), (False, True)}
