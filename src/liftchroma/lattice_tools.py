"""Constraint graphs, maximal-forest counts, restricted Hessian
determinants, and the Laplace lattice-summation estimator.

A sum of the shape  sum_{x in K cap (1/n)Z^E, Dx = y} T_n(x)  with D the
unsigned incidence matrix of a bipartite constraint graph Gamma is
asymptotically

    psi(xhat) / (tau(Gamma)^(1/2) det(-H|_V)^(1/2)) * (2 pi n)^(r/2)
        * c_n * e^(n phi(xhat)),

where V = ker D has dimension r, tau counts maximal forests (one spanning
tree per component; Kirchhoff), H is the Hessian of phi at the interior
maximiser xhat, and det(H|_V) = det(U^T H U) / det(U^T U) for any basis
matrix U of V (basis-independent).

The determinants are exact, and never take per-entry Fraction arithmetic.
kernel_basis needs no elimination: for a bipartite gamma, ker D is the
even-cycle space, spanned by the +-1 fundamental cycles of a spanning
forest of gamma.  det_restricted scales a rational H by the lcm L of its
denominators, forms U^T (L H) U and U^T U over the nonzero entries in
Python ints and finishes both with fraction-free Bareiss elimination, as
does tau (reduced Laplacians).  The results are exact rationals (float
determinants lose integrality already around k = 5), so the estimator
takes only a rational Hessian and refuses a float one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .asymptotics import LogValue, lambdas, log_gamma_nk
from .base_graph import BaseGraph, connected_components
from .errors import DomainError, SingularHessianError
from .stochastic_opt import F_A


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
    the lcm of all its denominators; any other entry raises TypeError."""
    if isinstance(mat, np.ndarray):
        mat = mat.tolist()
    try:
        scale = math.lcm(*{x.denominator for row in mat for x in row})
    except AttributeError:
        raise TypeError("exact determinants need int or Fraction entries") from None
    return [[x.numerator * (scale // x.denominator) for x in row] for row in mat], scale


def _nonzeros(mat: Sequence[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """Per row, the (column, value) pairs of its nonzero entries."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in mat]


def kernel_basis(gamma: ConstraintGraph) -> list[list[int]]:
    """Basis of ker(D), D the unsigned incidence matrix of a bipartite
    gamma, as a list of |E| rows of r ints whose *columns* are the basis.

    ker(D) is the even-cycle space.  A breadth-first spanning forest leaves
    r = |E| - |V| + #components edges out, and each of them gives one
    vector: +1 on that edge, then -1, +1, ... along the tree path that
    closes its cycle, so every vertex on the cycle sees one +1 and one -1.
    An edge outside the forest whose ends lie at depths of equal parity
    closes an odd cycle and raises DomainError.
    """
    size = gamma.num_vertices
    adj: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for e, (u, v) in enumerate(gamma.edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    depth = [-1] * size
    up = [(-1, -1)] * size  # (parent, edge to it) in the forest
    for root in range(size):
        if depth[root] < 0:
            depth[root] = 0
            queue = [root]
            for u in queue:
                for v, e in adj[u]:
                    if depth[v] < 0:
                        depth[v], up[v] = depth[u] + 1, (u, e)
                        queue.append(v)
    tree = {e for _, e in up}
    outside = [e for e in range(gamma.num_edges) if e not in tree]
    out = [[0] * len(outside) for _ in gamma.edges]
    for b, e in enumerate(outside):
        u, v = gamma.edges[e]
        if depth[u] % 2 == depth[v] % 2:
            raise DomainError("constraint graph has an odd cycle; gamma must be bipartite")
        # Climb from both ends to their lowest common ancestor; on each side
        # the edge at the end takes -1 and the signs alternate upwards.
        out[e][b] = 1
        (x, sx), (y, sy) = (u, -1), (v, -1)
        while x != y:
            if depth[x] < depth[y]:
                (x, sx), (y, sy) = (y, sy), (x, sx)
            x, e_up = up[x]
            out[e_up][b] = sx
            sx = -sx
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


def det_restricted(h_matrix, u_basis) -> Fraction:
    """det(U^T H U) / det(U^T U): the determinant of H restricted to the
    column span of U, as an exact Fraction.  H and U hold ints or
    Fractions; any other entry raises TypeError, and a rank-deficient U
    raises ValueError.  Basis-independent.

    Clears H's denominators into one L, forms U^T (L H) U and U^T U over
    the nonzero entries in Python ints, and returns
    det(U^T (L H) U) / (det(U^T U) L^r) with both determinants by Bareiss.
    """
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
    return _bipartite_blocks(k, g.num_edges, minus_matching=True)


def build_gamma_a(g: BaseGraph, k: int) -> ConstraintGraph:
    """Constraint graph of the per-vertex pair-histogram marginals.

    2k|V| vertices, k^2|V| edges, |V| components each K_{k,k}.  Variable
    order: grouped by base vertex, then (i, j) lexicographic.
    """
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
    underflows to a zero estimate nor overflows.  ``hessian_at_xhat`` is the
    Hessian of phi at xhat as a matrix of ints or Fractions.  Hypotheses on
    phi/psi regularity are the caller's responsibility.
    """

    gamma: ConstraintGraph
    y: tuple[Fraction, ...]
    box: tuple[tuple[Fraction, Fraction], ...]
    xhat: tuple[Fraction, ...]
    phi: Callable[[np.ndarray], float]
    log_psi: Callable[[np.ndarray], float]
    log_c_n: Callable[[int], float]
    hessian_at_xhat: Sequence[Sequence[int | Fraction]]


def laplace_estimate(
    problem: LatticeProblem, n: int, diagnostics: dict | None = None
) -> LogValue:
    """Evaluate the estimator at lattice scale n, in log-space with sign.

    Requires a bipartite gamma, a rational Hessian, det(-H|_V) > 0 and an
    interior maximiser; log psi(xhat) = -inf yields the zero estimate
    (sign 0).  When ``diagnostics`` is a dict it receives ``kernel_dim`` (r)
    and ``det_path``, always "exact".
    """
    gamma = problem.gamma
    for (lo, hi), x in zip(problem.box, problem.xhat):
        if not lo < x < hi:
            raise DomainError(
                "maximiser must lie strictly inside the box; boundary maximisers "
                "are unsupported"
            )
    # Constraint consistency at the maximiser, in integers over one common
    # denominator.  Column e of D is +1 at both ends of edge e.
    xhat = [Fraction(x) for x in problem.xhat]
    y = [Fraction(v) for v in problem.y]
    scale = math.lcm(*(x.denominator for x in xhat + y))
    lhs = [0] * gamma.num_vertices
    for (tail, head), x in zip(gamma.edges, xhat):
        m = x.numerator * (scale // x.denominator)
        lhs[tail] += m
        lhs[head] += m
    if lhs != [v.numerator * (scale // v.denominator) for v in y]:
        raise DomainError("xhat does not satisfy D x = y")

    u = kernel_basis(gamma)
    r = len(u[0]) if u else 0
    if r == 0:
        raise DomainError("constraint kernel is trivial; no lattice to sum over")
    det_val = (-1) ** r * det_restricted(problem.hessian_at_xhat, u)  # det(-H|_V)
    if diagnostics is not None:
        diagnostics["kernel_dim"] = r
        diagnostics["det_path"] = "exact"
    if det_val <= 0:
        raise SingularHessianError(f"det(-H|_V) = {det_val} must be positive")

    xhat_float = np.array([float(x) for x in xhat])
    tau = tau_maximal_forests(gamma)
    log_psi = problem.log_psi(xhat_float)
    if math.isnan(log_psi):
        raise DomainError("log psi(xhat) is NaN; psi must be nonnegative")
    if log_psi == -math.inf:
        return LogValue(float("-inf"), 0)
    log_val = (
        log_psi
        - 0.5 * math.log(tau)
        # log det(-H|_V) from its numerator and denominator: no float overflow
        - 0.5 * (math.log(det_val.numerator) - math.log(det_val.denominator))
        + (r / 2) * math.log(2 * math.pi * n)
        + problem.log_c_n(n)
        + n * problem.phi(xhat_float)
    )
    return LogValue(log=log_val, sign=1)


# ---------------------------------------------------------------------------
# The two standing applications: E[Y] and E[Y^2]


def build_ey_problem(g: BaseGraph, k: int) -> LatticeProblem:
    """Lattice problem whose estimate is the asymptotic E[Y].

    Summand: the per-edge overlap form of the strongly-equitable count.
    The Hessian at the uniform maximiser is -k(k-1) I exactly.
    """
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
    d = g.degree
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
