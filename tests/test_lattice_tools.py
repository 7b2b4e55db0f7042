import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_unimodular
from liftchroma.asymptotics import ey2_asym, ey_asym, h_dk
from liftchroma.base_graph import make_complete_graph
from liftchroma.errors import DomainError, SingularHessianError
from liftchroma.lattice_tools import (
    ConstraintGraph,
    LatticeProblem,
    bareiss_det,
    build_ey2_problem,
    build_ey_problem,
    build_gamma_a,
    build_gamma_b,
    det_restricted,
    gamma_b_component,
    kernel_basis,
    laplace_estimate,
    tau_maximal_forests,
)
from liftchroma.moments_exact import margin_tables, proper_matching_count


def _incidence(gamma: ConstraintGraph) -> np.ndarray:
    """|V| x |E| unsigned incidence matrix D, straight from the edge list."""
    d = np.zeros((gamma.num_vertices, gamma.num_edges), dtype=np.int64)
    for e, (u, v) in enumerate(gamma.edges):
        d[u, e] = d[v, e] = 1
    return d


def test_incidence_single_edge():
    gamma = ConstraintGraph(2, ((0, 1),))
    assert _incidence(gamma).tolist() == [[1], [1]]
    assert kernel_basis(gamma) == [[]]


def test_incidence_rank(k3):
    gamma = build_gamma_b(k3, 3)
    d = _incidence(gamma)
    assert d.shape == (18, 18)
    # nullity = |E_Gamma| - rank = 18 - (|V_Gamma| - #components) = 18 - 15
    assert np.linalg.matrix_rank(d) == 15
    assert len(kernel_basis(gamma)[0]) == 3


def test_kernel_dimensions(k3, k4):
    assert len(kernel_basis(build_gamma_b(k3, 3))[0]) == 3
    assert len(kernel_basis(build_gamma_a(k4, 3))[0]) == 16
    # a tree has trivial kernel
    tree = ConstraintGraph(3, ((0, 1), (1, 2)))
    basis = kernel_basis(tree)
    assert all(len(row) == 0 for row in basis)


def _identity(size: int) -> list[list[int]]:
    return [[int(i == j) for j in range(size)] for i in range(size)]


def test_bareiss_and_fraction_det():
    assert bareiss_det([[2, 1], [1, 2]]) == 3
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    # a rational determinant is H restricted to the whole space: U = I
    rational = [[Fraction(1, 2), 0], [0, Fraction(4, 3)]]
    assert det_restricted(rational, _identity(2)) == Fraction(2, 3)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_tau_closed_forms(k):
    minus_matching = gamma_b_component(k)
    assert tau_maximal_forests(minus_matching) == (k - 1) * k ** (k - 2) * (k - 2) ** (
        k - 1
    )
    complete_bip = ConstraintGraph(
        2 * k, tuple((i, k + j) for i in range(k) for j in range(k))
    )
    assert tau_maximal_forests(complete_bip) == k ** (2 * k - 2)


def test_tau_gamma_b(k3):
    assert tau_maximal_forests(build_gamma_b(k3, 3)) == 6**3


def _brute_force_maximal_forests(gamma: ConstraintGraph) -> int:
    target = gamma.num_vertices - len(gamma.components())
    count = 0
    for subset in itertools.combinations(range(gamma.num_edges), target):
        parent = list(range(gamma.num_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for e in subset:
            u, v = gamma.edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            count += 1
    return count


def test_tau_against_enumeration_random_bipartite():
    rng = np.random.default_rng(99)
    for _ in range(100):
        left = int(rng.integers(2, 5))
        right = int(rng.integers(2, 5))
        n_edges = int(rng.integers(left + right - 1, 11))
        edges = tuple(
            (int(rng.integers(0, left)), left + int(rng.integers(0, right)))
            for _ in range(n_edges)
        )
        gamma = ConstraintGraph(left + right, edges)
        assert tau_maximal_forests(gamma) == _brute_force_maximal_forests(gamma)


def test_det_restricted_identity():
    rng = np.random.default_rng(1)
    u = rng.integers(-3, 4, size=(6, 3)).tolist()
    assert det_restricted(_identity(6), u) == 1


def test_det_restricted_scaled_identity_exact(k3, k4):
    for g, k in [(k3, 3), (k4, 3)]:
        gamma = build_gamma_b(g, k)
        u = kernel_basis(gamma)
        r = len(u[0])
        scale = k * (k - 1)
        h = [
            [scale if i == j else 0 for j in range(gamma.num_edges)]
            for i in range(gamma.num_edges)
        ]
        val = det_restricted(h, u)
        assert val == Fraction(scale) ** r


def test_det_restricted_basis_invariance(k3):
    gamma = build_gamma_b(k3, 3)
    u = kernel_basis(gamma)
    rng = np.random.default_rng(5)
    t = random_unimodular(len(u[0]), rng)
    u2 = [
        [sum(row[a] * t[a][b] for a in range(len(t))) for b in range(len(t))]
        for row in u
    ]
    h = np.diag(np.arange(1, gamma.num_edges + 1))
    assert det_restricted(h, u) == det_restricted(h, u2)


def test_det_restricted_rank_deficient():
    u = [[0, 0]] * 4
    with pytest.raises(ValueError, match="rank-deficient"):
        det_restricted(np.eye(4, dtype=int), u)


def test_det_restricted_refuses_float_entries():
    with pytest.raises(TypeError):
        det_restricted([[1.0, 0], [0, 1]], [[1], [1]])
    with pytest.raises(TypeError):
        det_restricted(np.eye(2), [[1], [1]])


def test_gamma_builders_counts(k3, k4):
    gb = build_gamma_b(k3, 3)
    assert (gb.num_vertices, gb.num_edges, len(gb.components())) == (18, 18, 3)
    ga = build_gamma_a(k4, 3)
    assert (ga.num_vertices, ga.num_edges, len(ga.components())) == (24, 36, 4)
    assert gb.is_bipartite() and ga.is_bipartite()
    assert not ConstraintGraph(3, ((0, 1), (1, 2), (2, 0))).is_bipartite()


def test_gamma_b_cyclic_solution_consistent(k3):
    # x with mass 1/k on the colour cycle (i -> i+1) solves D x = (1/k, ...)
    k = 3
    gamma = build_gamma_b(k3, k)
    d = _incidence(gamma)
    x = np.zeros(gamma.num_edges)
    for idx, (tail, head) in enumerate(gamma.edges):
        # block e has tail-colour vertices 2ke + i and head-colour 2ke + k + i2
        i, i2 = tail % (2 * k), head % (2 * k) - k
        if i2 == (i + 1) % k:
            x[idx] = 1 / k
    assert np.allclose(d @ x, 1 / k)


def test_laplace_matches_closed_forms(k3, k4):
    for g in (k3, k4):
        ey_problem = build_ey_problem(g, 3)
        ey2_problem = build_ey2_problem(g, 3)
        for n in (30, 60):
            lap = laplace_estimate(ey_problem, n)
            assert abs(math.exp(lap.log - ey_asym(g, n, 3).log) - 1) < 1e-9
            lap2 = laplace_estimate(ey2_problem, n)
            assert abs(math.exp(lap2.log - ey2_asym(g, n, 3).log) - 1) < 1e-9


def test_restricted_hessian_reproduces_h_factor(k3, k4):
    for g in (k3, k4):
        problem = build_ey2_problem(g, 3)
        u = kernel_basis(problem.gamma)
        neg_h = [[-x for x in row] for row in problem.hessian_at_xhat]
        val = det_restricted(neg_h, u)
        assert float(val) == pytest.approx(h_dk(g, 3) ** 4, rel=1e-9)


def test_laplace_refuses_missing_or_float_hessian(k3):
    problem = build_ey_problem(k3, 3)
    size = problem.gamma.num_edges
    # every field is required: a problem without its Hessian cannot be built
    with pytest.raises(TypeError, match="hessian_at_xhat"):
        LatticeProblem(
            problem.gamma, problem.y, problem.box, problem.xhat,
            problem.phi, problem.log_psi, problem.log_c_n,
        )
    floats = [[-6.0 if i == j else 0.0 for j in range(size)] for i in range(size)]
    with pytest.raises(TypeError):
        laplace_estimate(dataclasses.replace(problem, hessian_at_xhat=floats), 30)


def test_laplace_refuses_non_bipartite_gamma():
    # a triangle: three variables, each vertex on two of them
    problem = LatticeProblem(
        gamma=ConstraintGraph(3, ((0, 1), (1, 2), (2, 0))),
        y=(Fraction(1, 2),) * 3,
        box=((Fraction(0), Fraction(1, 2)),) * 3,
        xhat=(Fraction(1, 4),) * 3,
        phi=lambda x: 0.0,
        log_psi=lambda x: 0.0,
        log_c_n=lambda n: 0.0,
        hessian_at_xhat=[[-int(i == j) for j in range(3)] for i in range(3)],
    )
    with pytest.raises(DomainError, match="bipartite"):
        laplace_estimate(problem, 30)


def test_laplace_zero_psi(k3):
    problem = build_ey_problem(k3, 3)
    problem.log_psi = lambda x: float("-inf")  # psi = 0
    out = laplace_estimate(problem, 30)
    assert out.sign == 0


def test_laplace_psi_far_below_float_range(k3, petersen):
    # psi * e^-800 underflows as a float; in log space it only shifts the
    # estimate.  Petersen EY2 at k = 5 has psi(xhat) = e^-805.
    problem = build_ey_problem(k3, 3)
    base = laplace_estimate(problem, 30)
    log_psi = problem.log_psi
    problem.log_psi = lambda x: log_psi(x) - 800.0
    shifted = laplace_estimate(problem, 30)
    assert shifted.sign == 1
    assert shifted.log - base.log == pytest.approx(-800.0, abs=1e-9)
    lap = laplace_estimate(build_ey2_problem(petersen, 5), 60)
    assert lap.sign == 1
    assert abs(math.exp(lap.log - ey2_asym(petersen, 60, 5).log) - 1) < 1e-9


def test_laplace_det_beyond_float_range(k3):
    # det(-H|_V) = (10^400)^3 overflows a float; its log does not
    problem = build_ey_problem(k3, 3)
    base = laplace_estimate(problem, 30)
    size = problem.gamma.num_edges
    big = -(10**400)
    problem.hessian_at_xhat = [[big if i == j else 0 for j in range(size)] for i in range(size)]
    out = laplace_estimate(problem, 30)
    # the exact Hessian is -6 I, so det(-H|_V) grows by (10^400 / 6)^3
    assert out.log - base.log == pytest.approx(-1.5 * (400 * math.log(10) - math.log(6)))


@pytest.mark.parametrize("name", ["petersen", "k5", "k6"])
@pytest.mark.parametrize("which", ["EY", "EY2"])
def test_laplace_matches_closed_forms_k4(name, which, request):
    g = make_complete_graph(6) if name == "k6" else request.getfixturevalue(name)
    build, closed = (
        (build_ey_problem, ey_asym) if which == "EY" else (build_ey2_problem, ey2_asym)
    )
    diagnostics = {}
    lap = laplace_estimate(build(g, 4), 60, diagnostics)
    assert abs(math.exp(lap.log - closed(g, 60, 4).log) - 1) < 1e-9
    # r = (k^2 - 3k + 1)|E| for EY and (k - 1)^2 |V| for EY2
    r = 5 * g.num_edges if which == "EY" else 9 * g.num_vertices
    assert diagnostics == {"kernel_dim": r, "det_path": "exact"}


def test_laplace_boundary_maximiser_rejected(k3):
    problem = build_ey_problem(k3, 3)
    problem.xhat = (Fraction(0),) + problem.xhat[1:]
    with pytest.raises(DomainError):
        laplace_estimate(problem, 30)


def test_laplace_singular_hessian(k3):
    problem = build_ey_problem(k3, 3)
    size = problem.gamma.num_edges
    problem.hessian_at_xhat = [[Fraction(0)] * size for _ in range(size)]
    with pytest.raises(SingularHessianError):
        laplace_estimate(problem, 30)


def _lattice_points(gamma: ConstraintGraph, n: int, k: int):
    """Every x in (1/n)Z^E with D x = (1/k, ..., 1/k), from the integer
    tables n x with every line sum n/k; the box [0, 1/k] follows from them."""
    for table in margin_tables([n // k] * gamma.num_vertices, gamma.edges):
        yield tuple(Fraction(m, n) for m in table)


def _matching_term(n: int, k: int):
    quota_fact = math.factorial(n // k) ** (2 * k)

    def term(point):
        denom = 1
        for x in point:
            denom *= math.factorial(int(x * n))
        return Fraction(quota_fact, denom)

    return term


def _window_ratio(n: int, k: int, gamma_window: float) -> Fraction:
    """Share of one base edge's matching sum at scale n from the window
    ||x - xhat||_inf < gamma_window log(n)/sqrt(n), xhat = 1/(k(k-1))."""
    radius = gamma_window * math.log(n) / math.sqrt(n)
    xhat = Fraction(1, k * (k - 1))
    term = _matching_term(n, k)
    window = full = Fraction(0)
    for point in _lattice_points(gamma_b_component(k), n, k):
        full += term(point)
        if all(abs(float(x - xhat)) < radius for x in point):
            window += term(point)
    return window / full


def test_windowed_sum_full_equals_matching_count():
    k = 3
    for n in (6, 30, 60):
        full = sum(map(_matching_term(n, k), _lattice_points(gamma_b_component(k), n, k)))
        assert full == proper_matching_count((n // k,) * k, (n // k,) * k)


def test_windowed_sum_ratios():
    assert _window_ratio(60, 3, 1.0) > 0.99
    assert _window_ratio(60, 3, 0.0) < 1.0
    assert _window_ratio(6, 3, 1.0) == 1


def test_full_lattice_sum_reproduces_exact_moment(k3):
    # summing the per-edge matching weights over the whole joint lattice of
    # the E[Y] problem reproduces expected_Y_exact after normalisation
    from liftchroma.moments_exact import expected_Y_exact, multinomial

    k, n = 3, 9
    problem = build_ey_problem(k3, k)
    # one ((n/k)!)^{2k} block per base edge, over the joint variable vector
    quota_fact = math.factorial(n // k) ** (2 * k * k3.num_edges)

    def term(point):
        denom = 1
        for x in point:
            denom *= math.factorial(int(x * n))
        return Fraction(quota_fact, denom)

    full = sum(map(term, _lattice_points(problem.gamma, n, k)))
    vertex_factor = multinomial(n, (n // k,) * k) ** k3.num_vertices
    assert (
        Fraction(vertex_factor) * full / math.factorial(n) ** k3.num_edges
        == expected_Y_exact(k3, n, k)
    )


def test_lattice_enumeration_counts():
    # the zero-diagonal 3x3 tables with all margins q form a 1-parameter family
    gamma = gamma_b_component(3)
    points = list(_lattice_points(gamma, 30, 3))
    assert len(points) == 11  # q + 1 with q = 10
    d = _incidence(gamma)
    for p in points:
        assert all(
            sum(Fraction(int(c)) * x for c, x in zip(row, p)) == Fraction(1, 3)
            for row in d
        )


# ---------------------------------------------------------------------------
# Per-entry Fraction oracles for the integer exact path


def _oracle_det(mat) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def _oracle_det_restricted(h_matrix, u_basis) -> Fraction:
    """det(U^T H U) / det(U^T U) with a Fraction product per entry."""
    rows, r = len(u_basis), len(u_basis[0])
    h = [[Fraction(x) for x in row] for row in h_matrix]
    u = [[Fraction(x) for x in row] for row in u_basis]
    hu = [[sum(h[i][j] * u[j][b] for j in range(rows)) for b in range(r)] for i in range(rows)]
    uthu = [[sum(u[i][a] * hu[i][b] for i in range(rows)) for b in range(r)] for a in range(r)]
    utu = [[sum(u[i][a] * u[i][b] for i in range(rows)) for b in range(r)] for a in range(r)]
    return _oracle_det(uthu) / _oracle_det(utu)


def _oracle_kernel_basis(d_matrix) -> list[list[int]]:
    """Rational RREF; each free-column vector cleared of denominators and
    divided by its gcd; returned with the basis vectors as columns."""
    rows, cols = d_matrix.shape
    m = [[Fraction(int(d_matrix[i, j])) for j in range(cols)] for i in range(rows)]
    pivots = []
    for col in range(cols):
        piv = next((r for r in range(len(pivots), rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        rank = len(pivots)
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][free]
        lcm = math.lcm(*(x.denominator for x in vec))
        ints = [int(x * lcm) for x in vec]
        g = math.gcd(*ints)
        basis.append([x // g for x in ints])
    return [[vec[i] for vec in basis] for i in range(cols)]


def _transformed(u, rng):
    """U T for a random unimodular T: another basis of the same span."""
    t = random_unimodular(len(u[0]), rng)
    return [[sum(row[a] * t[a][b] for a in range(len(t))) for b in range(len(t))] for row in u]


def _criterion_5_cases(k3, k4):
    """The (H, U) pairs of acceptance criterion 5, same seed and order."""
    rng = np.random.default_rng(17)
    for g in (k3, k4):
        gamma_b = build_ey_problem(g, 3).gamma
        u1 = kernel_basis(gamma_b)
        u2 = _transformed(u1, rng)
        size = gamma_b.num_edges
        scaled_identity = [[6 if i == j else 0 for j in range(size)] for i in range(size)]
        problem = build_ey2_problem(g, 3)
        ua = kernel_basis(problem.gamma)
        ua2 = _transformed(ua, rng)
        neg_h = [[-x for x in row] for row in problem.hessian_at_xhat]
        yield from ((scaled_identity, u1), (scaled_identity, u2), (neg_h, ua), (neg_h, ua2))


def test_det_restricted_equals_fraction_oracle_criterion_5(k3, k4):
    for h, u in _criterion_5_cases(k3, k4):
        val = det_restricted(h, u)
        assert isinstance(val, Fraction)
        assert val == _oracle_det_restricted(h, u)


@pytest.mark.parametrize("name", ["k4", "petersen"])
@pytest.mark.parametrize("which", ["EY", "EY2"])
def test_exact_path_equals_fraction_oracles(name, which, request):
    g = request.getfixturevalue(name)
    problem = (build_ey_problem if which == "EY" else build_ey2_problem)(g, 3)
    u = kernel_basis(problem.gamma)
    _assert_cycle_space_basis(problem.gamma, u)
    h = problem.hessian_at_xhat
    assert det_restricted(h, u) == _oracle_det_restricted(h, u)


def _assert_cycle_space_basis(gamma: ConstraintGraph, u) -> None:
    """U has r = |E| - |V| + c columns with entries in {-1, 0, 1}, D U = 0,
    det(U^T U) != 0, and U spans the same space as the oracle's basis."""
    d = _incidence(gamma)
    r = gamma.num_edges - gamma.num_vertices + len(gamma.components())
    assert len(u) == gamma.num_edges and all(len(row) == r for row in u)
    uu = np.array(u, dtype=np.int64).reshape(gamma.num_edges, r)
    assert set(uu.flat) <= {-1, 0, 1}
    assert not (d @ uu).any()
    assert bareiss_det((uu.T @ uu).tolist()) != 0
    oracle = _oracle_kernel_basis(d)
    assert all(len(row) == r for row in oracle)
    oracle = np.array(oracle, dtype=np.int64).reshape(gamma.num_edges, r)
    # An oracle vector's last nonzero sits on its free column, where every
    # other oracle vector is 0; so U lies in the oracle's span iff U = O C
    # with C read off those rows.  Scaled by L to stay in integers.
    free = [int(np.flatnonzero(oracle[:, b])[-1]) for b in range(r)]
    pivots = [int(oracle[f, b]) for b, f in enumerate(free)]
    scale = math.lcm(*pivots)
    coeffs = uu[free] * np.array([scale // p for p in pivots], dtype=np.int64)[:, None]
    assert (oracle @ coeffs == scale * uu).all()


@pytest.mark.parametrize("name", ["k3", "k4", "k5", "petersen"])
def test_kernel_basis_moment_constraint_graphs(name, request):
    g = request.getfixturevalue(name)
    for k in (3, 4, 5):
        for build in (build_gamma_b, build_gamma_a):
            gamma = build(g, k)
            _assert_cycle_space_basis(gamma, kernel_basis(gamma))


def test_kernel_basis_random_bipartite_multigraphs():
    # random sides, shuffled labels, parallel edges, forests and isolated
    # vertices; the counters check that each kind came up
    rng = np.random.default_rng(3)
    seen = {"parallel": 0, "forest": 0, "isolated": 0}
    for _ in range(200):
        left, right = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        size = left + right + int(rng.integers(0, 3))
        label = rng.permutation(size).tolist()
        edges = tuple(
            (label[int(rng.integers(0, left))], label[left + int(rng.integers(0, right))])
            for _ in range(int(rng.integers(1, 10)))
        )
        gamma = ConstraintGraph(size, edges)
        u = kernel_basis(gamma)
        _assert_cycle_space_basis(gamma, u)
        seen["parallel"] += len(set(edges)) < len(edges)
        seen["forest"] += len(u[0]) == 0
        seen["isolated"] += len({v for e in edges for v in e}) < size
    assert all(seen.values()), seen


def test_kernel_basis_refuses_odd_cycle():
    triangle = ConstraintGraph(3, ((0, 1), (1, 2), (2, 0)))
    # a double edge beside a 5-cycle whose closing edge comes last
    pentagon = ConstraintGraph(7, ((0, 1), (0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (6, 2)))
    for gamma in (triangle, pentagon):
        with pytest.raises(DomainError, match="odd cycle"):
            kernel_basis(gamma)


def test_restricted_hessian_determinants_pinned(k4, petersen):
    # det(-H|_V) at k = 3 is basis-independent: every kernel basis gives these
    pinned = {
        ("k4", "EY"): Fraction(46656),
        ("k4", "EY2"): Fraction(717161962380101833793273856, 152587890625),
        ("petersen", "EY"): Fraction(470184984576),
        ("petersen", "EY2"): Fraction(
            57489624421544871763796867609944842574904022075621255617882615709696,
            9094947017729282379150390625,
        ),
    }
    for (name, which), want in pinned.items():
        g = k4 if name == "k4" else petersen
        problem = (build_ey_problem if which == "EY" else build_ey2_problem)(g, 3)
        u = kernel_basis(problem.gamma)
        neg_h = [[-x for x in row] for row in problem.hessian_at_xhat]
        assert det_restricted(neg_h, u) == want


def test_determinants_equal_oracle_random_matrices():
    rng = np.random.default_rng(4)
    for _ in range(200):
        size = int(rng.integers(1, 7))
        ints = rng.integers(-4, 5, size=(size, size)).tolist()
        if rng.random() < 0.2:
            ints[-1] = list(ints[0])  # singular
        assert bareiss_det(ints) == _oracle_det(ints)
        rational = [[Fraction(x, int(rng.integers(1, 7))) for x in row] for row in ints]
        assert det_restricted(rational, _identity(size)) == _oracle_det(rational)
