import itertools

import pytest

from liftchroma.base_graph import (
    BaseGraph,
    make_complete_graph,
    make_cycle_graph,
    make_petersen_graph,
)
from liftchroma.lift import Lift, LiftedGraph, expand


@pytest.fixture(scope="session")
def k3():
    return make_complete_graph(3)


@pytest.fixture(scope="session")
def k4():
    return make_complete_graph(4)


@pytest.fixture(scope="session")
def k5():
    return make_complete_graph(5)


@pytest.fixture(scope="session")
def petersen():
    return make_petersen_graph()


@pytest.fixture(scope="session")
def doubled_triangle():
    return BaseGraph(3, ((0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)))


def cycle_lifted_graph(m: int) -> LiftedGraph:
    """C_m as a plain multigraph container."""
    return LiftedGraph(
        num_vertices=m, edges=tuple((i, (i + 1) % m) for i in range(m))
    )


def empty_lifted_graph(m: int) -> LiftedGraph:
    return LiftedGraph(num_vertices=m, edges=())


def identity_lift(base: BaseGraph, n: int) -> Lift:
    return Lift(base=base, n=n, matchings=(tuple(range(n)),) * base.num_edges)


def six_cycle_lift(k3_graph: BaseGraph) -> Lift:
    """2-lift of K_3 whose expansion is a single 6-cycle."""
    return Lift(base=k3_graph, n=2, matchings=((0, 1), (0, 1), (1, 0)))


def enumerate_proper_colorings(lg: LiftedGraph, k: int) -> int:
    """Oracle: count proper colourings by trying every assignment."""
    count = 0
    for assign in itertools.product(range(k), repeat=lg.num_vertices):
        if all(assign[u] != assign[w] for u, w in lg.edges):
            count += 1
    return count


def enumerate_equitable_colorings(lift: Lift, k: int) -> int:
    """Oracle: quota-filtered exhaustive count of proper colourings."""
    lg = expand(lift)
    n = lift.n
    q, r = divmod(n, k)
    quotas = [q + 1 if c < r else q for c in range(k)]
    count = 0
    for assign in itertools.product(range(k), repeat=lg.num_vertices):
        if any(assign[u] == assign[w] for u, w in lg.edges):
            continue
        ok = True
        for v in range(lift.base.num_vertices):
            usage = [0] * k
            for i in range(n):
                usage[assign[v * n + i]] += 1
            if usage != quotas:
                ok = False
                break
        if ok:
            count += 1
    return count


def random_unimodular(size: int, rng) -> list[list[int]]:
    """Product of a unit lower- and unit upper-triangular +-1 matrix: a
    random integer change of basis."""
    lower = [[0] * size for _ in range(size)]
    upper = [[0] * size for _ in range(size)]
    for i in range(size):
        lower[i][i] = 1
        upper[i][i] = int(rng.choice([-1, 1]))
        for j in range(i):
            lower[i][j] = int(rng.integers(-2, 3))
            upper[j][i] = int(rng.integers(-2, 3))
    return [
        [sum(lower[i][t] * upper[t][j] for t in range(size)) for j in range(size)]
        for i in range(size)
    ]
