"""Constraint graphs, maximal-forest counts, restricted Hessian
determinants, and the Laplace lattice-summation estimator.

A sum of the shape  sum_{x in K cap (1/n)Z^E, Dx = y} T_n(x)  with D the
(unsigned, for bipartite Gamma) incidence matrix of a constraint graph is
asymptotically

    psi(xhat) / (tau(Gamma)^(1/2) det(-H|_V)^(1/2)) * (2 pi n)^(r/2)
        * c_n * e^(n phi(xhat)),

where V = ker D has dimension r, tau counts maximal forests (one spanning
tree per component; Kirchhoff), H is the Hessian of phi at the interior
maximiser xhat, and det(H|_V) = det(U^T H U) / det(U^T U) for any basis
matrix U of V (basis-independent).

The exact path never does per-entry Fraction arithmetic.  kernel_basis
row-reduces D in integers (each row divided by its gcd) and returns
primitive integer kernel vectors; det_restricted scales a rational H by the
lcm L of its denominators, forms U^T (L H) U and U^T U over the nonzero
entries in Python ints and finishes both with fraction-free Bareiss
elimination, as do tau (reduced Laplacians) and fraction_det.  The results
are exact rationals; float determinants lose integrality already around
k = 5.  Only a Hessian given as floats (or left to finite differences)
takes the float path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .asymptotics import LogValue, lambdas, log_gamma_nk
from .base_graph import BaseGraph, connected_components, validate
from .errors import DomainError, SingularHessianError, TooLargeError
from .moments_exact import margin_tables

DEFAULT_LATTICE_CAP = 10**7


@dataclass(frozen=True)
class ConstraintGraph:
    """Multigraph whose vertices are equation labels and edges variables."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError("constraint graphs must be loopless")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError("edge endpoint out of range")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def _components(self) -> list[tuple[list[int], bool]]:
        adj = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return connected_components(adj)

    def components(self) -> list[list[int]]:
        """Vertex sets of the connected components, each sorted."""
        return [sorted(comp) for comp, _ in self._components()]

    def is_bipartite(self) -> bool:
        return all(bipartite for _, bipartite in self._components())


def incidence_unsigned(gamma: ConstraintGraph) -> np.ndarray:
    """|V| x |E| 0/1 incidence matrix (orientation-free)."""
    d = np.zeros((gamma.num_vertices, gamma.num_edges), dtype=np.int64)
    for e, (u, v) in enumerate(gamma.edges):
        d[u, e] = 1
        d[v, e] = 1
    return d


def incidence_signed(gamma: ConstraintGraph) -> np.ndarray:
    """|V| x |E| signed incidence matrix: +1 at the tail, -1 at the head of
    each stored edge (tail, head)."""
    d = np.zeros((gamma.num_vertices, gamma.num_edges), dtype=np.int64)
    for e, (u, v) in enumerate(gamma.edges):
        d[u, e] = 1
        d[v, e] = -1
    return d


# ---------------------------------------------------------------------------
# Exact linear algebra


def bareiss_det(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Each step eliminates the leading column and keeps only the trailing
    submatrix; every division by the previous pivot is exact (Bareiss).
    """
    m = [[int(x) for x in row] for row in mat]
    if not m:
        return 1
    sign, prev = 1, 1
    while len(m) > 1:
        k = next((i for i, row in enumerate(m) if row[0]), None)
        if k is None:
            return 0
        if k:
            m[0], m[k] = m[k], m[0]
            sign = -sign
        pivot, tail = m[0][0], m[0][1:]
        m = [
            [(x * pivot - row[0] * y) // prev for x, y in zip(row[1:], tail)]
            if row[0]
            else [x * pivot // prev for x in row[1:]]
            for row in m[1:]
        ]
        prev = pivot
    return sign * m[0][0]


def _clear_denominators(mat: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(L*M as integer rows, L) for a matrix of ints and Fractions, with L
    the lcm of all its denominators."""
    if isinstance(mat, np.ndarray):
        mat = mat.tolist()
    scale = math.lcm(*{x.denominator for row in mat for x in row})
    return [[x.numerator * (scale // x.denominator) for x in row] for row in mat], scale


def fraction_det(mat: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a rational matrix: det(M) = det(L M) / L^n."""
    ints, scale = _clear_denominators([[Fraction(x) for x in row] for row in mat])
    return Fraction(bareiss_det(ints), scale ** len(ints))


def _nonzeros(mat: Sequence[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """Per row, the (column, value) pairs of its nonzero entries."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in mat]


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """prow[col] * row - row[col] * prow, zeros dropped, divided by its gcd."""
    f, pv = row[col], prow[col]
    out = {j: x * pv for j, x in row.items()}
    for j, y in prow.items():
        out[j] = out.get(j, 0) - f * y
    out = {j: x for j, x in out.items() if x}
    g = math.gcd(*out.values())
    return {j: x // g for j, x in out.items()} if g > 1 else out


def kernel_basis(d_matrix: np.ndarray) -> list[list[int]]:
    """Integer basis of ker(D) as a matrix whose *columns* are the basis.

    Fraction-free Gauss-Jordan elimination on sparse integer rows, each
    divided by its gcd, with positive pivots.  A reduced row with pivot p at
    column c is p times the matching row of the rational RREF, so each
    free column f gives the kernel vector x_f = 1, x_c = -row[f] / p; it
    is returned as the primitive integer vector in that direction.
    Returned as a list of rows (length = #columns of D), each row a list of
    ints, with r columns.
    """
    cols = d_matrix.shape[1]
    todo = [{j: int(x) for j, x in enumerate(row) if x} for row in d_matrix.tolist()]
    reduced: list[tuple[int, dict[int, int]]] = []
    for col in range(cols):
        k = next((i for i, row in enumerate(todo) if col in row), None)
        if k is None:
            continue
        prow = todo.pop(k)
        if prow[col] < 0:
            prow = {j: -x for j, x in prow.items()}
        reduced = [(c, _eliminate(row, prow, col) if col in row else row) for c, row in reduced]
        todo = [_eliminate(row, prow, col) if col in row else row for row in todo]
        reduced.append((col, prow))
    pivot_cols = {c for c, _ in reduced}
    free_entries: dict[int, list[tuple[int, int, int]]] = {
        f: [] for f in range(cols) if f not in pivot_cols
    }
    for c, row in reduced:
        for j, x in row.items():
            if j != c:
                free_entries[j].append((c, x, row[c]))
    basis = []
    for f, entries in free_entries.items():
        scale = math.lcm(*(p for _, _, p in entries))
        vec = {f: scale}
        for c, x, p in entries:
            vec[c] = -x * (scale // p)
        g = math.gcd(*vec.values())
        basis.append({j: x // g for j, x in vec.items()})
    out = [[0] * len(basis) for _ in range(cols)]
    for b, vec in enumerate(basis):
        for j, x in vec.items():
            out[j][b] = x
    return out


def tau_maximal_forests(gamma: ConstraintGraph) -> int:
    """Number of maximal forests: product over components of spanning-tree
    counts, each an exact reduced-Laplacian determinant (multi-edges count)."""
    total = 1
    for comp in gamma.components():
        if len(comp) == 1:
            continue
        index = {v: i for i, v in enumerate(comp)}
        size = len(comp)
        lap = [[0] * size for _ in range(size)]
        for u, v in gamma.edges:
            if u in index and v in index:
                iu, iv = index[u], index[v]
                lap[iu][iu] += 1
                lap[iv][iv] += 1
                lap[iu][iv] -= 1
                lap[iv][iu] -= 1
        minor = [row[1:] for row in lap[1:]]
        total *= bareiss_det(minor)
    return total


def _is_exact_matrix(mat) -> bool:
    if isinstance(mat, np.ndarray):
        return np.issubdtype(mat.dtype, np.integer)
    return all(isinstance(x, (int, Fraction)) for row in mat for x in row)


def det_restricted(h_matrix, u_basis) -> Fraction | float:
    """det(U^T H U) / det(U^T U): the determinant of H restricted to the
    column span of U.  Exact (Fraction) when both inputs are rational,
    float otherwise.  Basis-independent; raises on rank-deficient U.

    The exact branch clears H's denominators into one L, forms U^T (L H) U
    and U^T U over the nonzero entries in Python ints, and returns
    det(U^T (L H) U) / (det(U^T U) L^r) with both determinants by Bareiss.
    """
    if _is_exact_matrix(h_matrix) and _is_exact_matrix(u_basis):
        h_int, scale = _clear_denominators(h_matrix)
        # a common scale on U cancels between the two determinants
        u_nz = _nonzeros(_clear_denominators(u_basis)[0])
        r = len(u_basis[0]) if len(u_basis) else 0
        uthu = [[0] * r for _ in range(r)]
        utu = [[0] * r for _ in range(r)]
        for h_row, u_row in zip(_nonzeros(h_int), u_nz):
            hu = [0] * r
            for j, h in h_row:
                for b, x in u_nz[j]:
                    hu[b] += h * x
            hu_nz = [(b, y) for b, y in enumerate(hu) if y]
            for a, x in u_row:
                for b, y in hu_nz:
                    uthu[a][b] += x * y
                for b, y in u_row:
                    utu[a][b] += x * y
        gram = bareiss_det(utu)
        if gram == 0:
            raise ValueError("basis matrix U is rank-deficient")
        return Fraction(bareiss_det(uthu), gram * scale**r)
    h = np.asarray(h_matrix, dtype=float)
    u = np.asarray(u_basis, dtype=float)
    gram = np.linalg.det(u.T @ u)
    if abs(gram) < 1e-12:
        raise ValueError("basis matrix U is rank-deficient")
    return float(np.linalg.det(u.T @ h @ u) / gram)


def random_unimodular(size: int, rng) -> list[list[int]]:
    """Product of a unit lower- and unit upper-triangular +-1 matrix."""
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


# ---------------------------------------------------------------------------
# Constraint graphs for the moment sums


def _bipartite_blocks(k: int, count: int, minus_matching: bool) -> ConstraintGraph:
    """``count`` disjoint copies of K_{k,k}, each minus its perfect matching
    when ``minus_matching``.

    Block b has left vertices 2kb + i (first-coordinate equations) and right
    vertices 2kb + k + i2 (second-coordinate equations); its edges (i, i2),
    one per variable, come in lexicographic order, blocks in order of b.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    edges = tuple(
        (2 * k * b + i, 2 * k * b + k + i2)
        for b in range(count)
        for i in range(k)
        for i2 in range(k)
        if not (minus_matching and i == i2)
    )
    gamma = ConstraintGraph(num_vertices=2 * k * count, edges=edges)
    degree = k - 1 if minus_matching else k
    deg = [0] * gamma.num_vertices
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    comps = gamma.components()
    assert all(len(c) == 2 * k for c in comps)
    assert all(x == degree for x in deg)
    assert gamma.is_bipartite()
    assert len(comps) * k * degree == gamma.num_edges
    return gamma


def gamma_b_component(k: int) -> ConstraintGraph:
    """One per-edge block: K_{k,k} minus a perfect matching.

    Left vertices are tail-colour equations, right vertices head-colour
    equations; edge (i, i2) (i != i2) is the overlap variable b_{i,i2}.
    """
    return _bipartite_blocks(k, 1, minus_matching=True)


def build_gamma_b(g: BaseGraph, k: int) -> ConstraintGraph:
    """Constraint graph of the per-edge overlap marginals.

    2k|E| vertices (one per marginal equation), k(k-1)|E| edges (one per
    overlap variable), |E| components each K_{k,k} minus a perfect
    matching.  Variable order: edges grouped by base edge, then (i, i2)
    lexicographic with i != i2.
    """
    validate(g)
    return _bipartite_blocks(k, g.num_edges, minus_matching=True)


def build_gamma_a(g: BaseGraph, k: int) -> ConstraintGraph:
    """Constraint graph of the per-vertex pair-histogram marginals.

    2k|V| vertices, k^2|V| edges, |V| components each K_{k,k}.  Variable
    order: grouped by base vertex, then (i, j) lexicographic.
    """
    validate(g)
    return _bipartite_blocks(k, g.num_vertices, minus_matching=False)


# ---------------------------------------------------------------------------
# The Laplace estimator


@dataclass
class LatticeProblem:
    """One application of the lattice-summation estimator.

    ``y`` is the right-hand side of D x = y over gamma's vertices; ``box``
    the per-variable closed interval; ``xhat`` the (interior) maximiser of
    phi subject to the constraints.  ``log_psi`` returns log psi, with -inf
    for psi = 0, so that psi(xhat) far outside the float range neither
    underflows to a zero estimate nor overflows.  ``hessian_at_xhat`` may be
    a rational matrix for an exact restricted determinant; when None it is
    taken by central finite differences of phi.  Hypotheses on phi/psi
    regularity are the caller's responsibility.
    """

    gamma: ConstraintGraph
    y: tuple[Fraction, ...]
    box: tuple[tuple[Fraction, Fraction], ...]
    xhat: tuple[Fraction, ...]
    phi: Callable[[np.ndarray], float] | None = None
    log_psi: Callable[[np.ndarray], float] | None = None
    log_c_n: Callable[[int], float] | None = None
    hessian_at_xhat: object | None = None


def _finite_difference_hessian(phi, xhat: np.ndarray, step: float = 1e-5) -> np.ndarray:
    n = len(xhat)
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = step
            ej[j] = step
            val = (
                phi(xhat + ei + ej)
                - phi(xhat + ei - ej)
                - phi(xhat - ei + ej)
                + phi(xhat - ei - ej)
            ) / (4 * step * step)
            h[i, j] = h[j, i] = val
    return h


def _log_positive(x: Fraction | float) -> float:
    """log x for x > 0; a Fraction goes through its (unbounded) numerator
    and denominator, so no float overflow."""
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def laplace_estimate(
    problem: LatticeProblem, n: int, diagnostics: dict | None = None
) -> LogValue:
    """Evaluate the estimator at lattice scale n, in log-space with sign.

    Requires det(-H|_V) > 0 and an interior maximiser; log psi(xhat) = -inf
    yields the zero estimate (sign 0).  When ``diagnostics`` is a dict it
    receives ``kernel_dim`` (r) and ``det_path`` ("exact" for a rational
    Hessian, "float" otherwise).
    """
    gamma = problem.gamma
    if problem.phi is None or problem.log_psi is None or problem.log_c_n is None:
        raise ValueError("laplace_estimate needs phi, log_psi and log_c_n callbacks")
    for (lo, hi), x in zip(problem.box, problem.xhat):
        if not lo < x < hi:
            raise DomainError(
                "maximiser must lie strictly inside the box; boundary maximisers "
                "are unsupported"
            )
    bipartite = gamma.is_bipartite()
    # Constraint consistency at the maximiser, in integers over one common
    # denominator.  Column e of D is +1 at its tail and +1 (bipartite) or
    # -1 (signed) at its head.
    xhat = [Fraction(x) for x in problem.xhat]
    y = [Fraction(v) for v in problem.y]
    scale = math.lcm(*(x.denominator for x in xhat + y))
    head_sign = 1 if bipartite else -1
    lhs = [0] * gamma.num_vertices
    for (tail, head), x in zip(gamma.edges, xhat):
        m = x.numerator * (scale // x.denominator)
        lhs[tail] += m
        lhs[head] += head_sign * m
    if lhs != [v.numerator * (scale // v.denominator) for v in y]:
        raise DomainError("xhat does not satisfy D x = y")

    u = kernel_basis(incidence_unsigned(gamma) if bipartite else incidence_signed(gamma))
    r = len(u[0]) if u else 0
    if r == 0:
        raise DomainError("constraint kernel is trivial; no lattice to sum over")
    xhat_float = np.array([float(x) for x in xhat])
    hess = problem.hessian_at_xhat
    if hess is None:
        hess = _finite_difference_hessian(problem.phi, xhat_float)
    elif isinstance(hess, np.ndarray) and hess.dtype == object:
        hess = hess.tolist()
    det_val = (-1) ** r * det_restricted(hess, u)  # det(-H|_V)
    if diagnostics is not None:
        diagnostics["kernel_dim"] = r
        diagnostics["det_path"] = "exact" if isinstance(det_val, Fraction) else "float"
    if det_val <= 0:
        raise SingularHessianError(f"det(-H|_V) = {det_val} must be positive")

    tau = tau_maximal_forests(gamma)
    log_psi = problem.log_psi(xhat_float)
    if math.isnan(log_psi):
        raise DomainError("log psi(xhat) is NaN; psi must be nonnegative")
    if log_psi == -math.inf:
        return LogValue(float("-inf"), 0)
    log_val = (
        log_psi
        - 0.5 * math.log(tau)
        - 0.5 * _log_positive(det_val)
        + (r / 2) * math.log(2 * math.pi * n)
        + problem.log_c_n(n)
        + n * problem.phi(xhat_float)
    )
    return LogValue(log=log_val, sign=1)


# ---------------------------------------------------------------------------
# Exact windowed sums


def enumerate_lattice_points(
    problem: LatticeProblem, n: int, cap: int = DEFAULT_LATTICE_CAP
) -> Iterator[tuple[Fraction, ...]]:
    """All x in box with n*x integral and D x = y, for bipartite gamma.

    The points n*x are the integer tables on gamma's edges with line sums
    n*y and cell bounds n*box, from moments_exact.margin_tables, with the
    variables ordered by their lower endpoint so that each vertex's edges
    come together.  Points are returned in gamma.edges order.
    """
    gamma = problem.gamma
    if not gamma.is_bipartite():
        raise DomainError("lattice enumeration implemented for bipartite gamma only")
    ny = []
    for rhs in problem.y:
        val = Fraction(rhs) * n
        if val.denominator != 1:
            return  # no lattice points at this n
        ny.append(int(val))
    bounds = [
        (math.ceil(Fraction(lo) * n), math.floor(Fraction(hi) * n)) for lo, hi in problem.box
    ]
    order = sorted(range(gamma.num_edges), key=lambda e: min(gamma.edges[e]))
    cells = [gamma.edges[e] for e in order]
    point: list[Fraction] = [Fraction(0)] * gamma.num_edges
    for emitted, table in enumerate(margin_tables(ny, cells, [bounds[e] for e in order]), 1):
        if emitted > cap:
            raise TooLargeError(f"lattice enumeration exceeded cap {cap}")
        for e, m in zip(order, table):
            point[e] = Fraction(m, n)
        yield tuple(point)


@dataclass(frozen=True)
class WindowedSum:
    window_sum: Fraction
    full_sum: Fraction
    window_points: int
    total_points: int
    ratio: float


def windowed_sum(
    problem: LatticeProblem,
    n: int,
    gamma_window: float,
    term: Callable[[tuple[Fraction, ...]], Fraction],
    cap: int = DEFAULT_LATTICE_CAP,
) -> WindowedSum:
    """Sum `term` over all lattice points, and over the window of points
    with ||x - xhat||_inf < gamma_window * log(n)/sqrt(n)."""
    radius = gamma_window * math.log(n) / math.sqrt(n)
    xhat = [Fraction(x) for x in problem.xhat]
    full = Fraction(0)
    window = Fraction(0)
    total_points = 0
    window_points = 0
    for point in enumerate_lattice_points(problem, n, cap=cap):
        val = Fraction(term(point))
        full += val
        total_points += 1
        if all(abs(float(x - x0)) < radius for x, x0 in zip(point, xhat)):
            window += val
            window_points += 1
    ratio = float(window / full) if full != 0 else float("nan")
    return WindowedSum(
        window_sum=window,
        full_sum=full,
        window_points=window_points,
        total_points=total_points,
        ratio=ratio,
    )


# ---------------------------------------------------------------------------
# The two standing applications: E[Y] and E[Y^2]


def build_ey_problem(g: BaseGraph, k: int) -> LatticeProblem:
    """Lattice problem whose estimate is the asymptotic E[Y].

    Summand: the per-edge overlap form of the strongly-equitable count.
    The Hessian at the uniform maximiser is -k(k-1) I exactly.
    """
    validate(g)
    gamma = build_gamma_b(g, k)
    ne_vars = gamma.num_edges
    nv, ne = g.num_vertices, g.num_edges
    r = (k * k - 3 * k + 1) * ne

    def phi(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        safe = x[x > 0]
        return (
            nv * math.log(k)
            - 2 * ne * math.log(k)
            - float(np.sum(safe * np.log(safe)))
        )

    def log_psi(x: np.ndarray) -> float:
        return -0.5 * float(np.sum(np.log(x)))

    def log_c_n(n: int) -> float:
        return (k * nv / 2 - k * ne) * math.log(k) + (
            -(k - 1) * nv / 2 - r / 2
        ) * math.log(2 * math.pi * n)

    hess = [
        [Fraction(-k * (k - 1)) if i == j else Fraction(0) for j in range(ne_vars)]
        for i in range(ne_vars)
    ]
    return LatticeProblem(
        gamma=gamma,
        y=tuple(Fraction(1, k) for _ in range(gamma.num_vertices)),
        box=tuple((Fraction(0), Fraction(1, k)) for _ in range(ne_vars)),
        xhat=tuple(Fraction(1, k * (k - 1)) for _ in range(ne_vars)),
        phi=phi,
        log_psi=log_psi,
        log_c_n=log_c_n,
        hessian_at_xhat=hess,
    )


def build_ey2_problem(g: BaseGraph, k: int) -> LatticeProblem:
    """Lattice problem whose estimate is the asymptotic E[Y^2].

    Variables are the per-vertex pair histograms; phi is the outer-sum
    objective after the per-edge sums were integrated out, and the scale
    c_n carries the saddle-point constant gamma(n, k).
    """
    from .stochastic_opt import F_A

    d = validate(g)
    gamma = build_gamma_a(g, k)
    nv, ne = g.num_vertices, g.num_edges
    k2 = k * k
    lam, lamp = lambdas(k)

    def phi(x: np.ndarray) -> float:
        return F_A(g, np.asarray(x, dtype=float).reshape(nv, k, k))

    def log_psi(x: np.ndarray) -> float:
        return 0.5 * (d - 1) * float(np.sum(np.log(x)))

    def log_c_n(n: int) -> float:
        return (ne / 2) * log_gamma_nk(n, k) + (
            -(k2 - 1) * nv / 2 + (2 * k2 - 1) * ne / 2
        ) * math.log(2 * math.pi * n)

    diag = Fraction((d - 1) * k2) - Fraction(d * k2 * (k - 1) ** 4, lam * lamp)
    off = Fraction(k2 * (k - 1) ** 2, lam * lamp)
    mult = {}
    for tail, head in g.edges:
        key = (tail, head) if tail < head else (head, tail)
        mult[key] = mult.get(key, 0) + 1
    size = nv * k2
    hess = [[Fraction(0)] * size for _ in range(size)]
    for v in range(nv):
        for cell in range(k2):
            hess[v * k2 + cell][v * k2 + cell] = diag
    for (u, v), m in mult.items():
        for cell in range(k2):
            hess[u * k2 + cell][v * k2 + cell] = m * off
            hess[v * k2 + cell][u * k2 + cell] = m * off
    return LatticeProblem(
        gamma=gamma,
        y=tuple(Fraction(1, k) for _ in range(gamma.num_vertices)),
        box=tuple((Fraction(0), Fraction(1, k)) for _ in range(nv * k2)),
        xhat=tuple(Fraction(1, k2) for _ in range(nv * k2)),
        phi=phi,
        log_psi=log_psi,
        log_c_n=log_c_n,
        hessian_at_xhat=hess,
    )
