"""Entropy/overlap functionals over stochastic matrices and their maxima.

The central inequality family, with h(M) = -sum m log m (0 log 0 = 0) and
rho(M) = sum m^2 over a row-stochastic matrix M:

    square case (q x q, q >= 3, c < c_q):
        h(M)/q + c log(q^2 - 2q + rho(M)) <= log q + c log((q-1)^2)

    rectangular case (q x k, k <= q, c < (k-1)/(q-1) * c_q):
        h(M)/q + c log(kq - k - q + (k/q) rho(M))
            <= log k + c log((q-1)(k-1))

with equality exactly at the uniform matrix.  ``square_gap``/``rect_gap``
return RHS - LHS, which is nonnegative under the stated hypotheses.  Both
take one matrix or a (..., q, k) stack and then return one gap per matrix;
``project_transportation`` likewise runs Sinkhorn scaling on a whole stack
at once, each matrix until its own margins converge.

The overlap functionals f, F evaluated here drive the moment sums: their
maxima over the feasible overlap polytopes sit at the uniform profiles, and
``verify_max_uniform`` corroborates that numerically with multi-start
projected gradient ascent on f or F.  The analytic theorems supply the
guarantee; the search only looks for counterexamples.  The two matrix
inequalities are probed through their gaps on sampled matrices instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import lambdas
from .base_graph import BaseGraph
from .errors import DegenerateEdgeError, DomainError
from .thresholds import c_q, ell_threshold

PROJECTION_TOL = 1e-10
PROJECTION_MAX_ITERS = 10**3
STOCHASTIC_TOL = 1e-9  # how far an entry may fall below 0, or a row sum miss 1


def xlogx(x: np.ndarray) -> np.ndarray:
    """x log x with the 0 log 0 = 0 convention."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mask = x > 0
    out[mask] = x[mask] * np.log(x[mask])
    return out


def rho(M):
    """Sum of squared entries of a matrix, or one sum per matrix of a
    (..., q, k) stack."""
    M = np.asarray(M, dtype=float)
    return np.sum(M * M, axis=(-2, -1))


def entropy_h(M):
    """-sum m log m with 0 log 0 = 0, per matrix like rho."""
    return -np.sum(xlogx(M), axis=(-2, -1))


def square_gap(M, c: float):
    """RHS - LHS of the square-matrix inequality; >= 0 when c < c_q.

    The square inequality is the rectangular one at k = q, so this is
    rect_gap on a q x q matrix or a (..., q, q) stack.
    """
    q, cols = np.shape(M)[-2:]
    if cols != q:
        raise ValueError(f"square_gap needs a square matrix, got {q} x {cols}")
    return rect_gap(M, c)


def rect_coefficient_bound(q: int, k: int) -> float:
    """Largest admissible coefficient for the rectangular inequality."""
    return (k - 1) / (q - 1) * c_q(q)


def rect_gap(M, c: float):
    """RHS - LHS of the rectangular inequality; >= 0 when c is admissible.

    M is one q x k row-stochastic matrix (a float is returned) or a
    (..., q, k) stack of them (an array of gaps with the stack's shape is
    returned).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2:
        raise ValueError("expected a matrix or a stack of matrices")
    if np.any(M < -STOCHASTIC_TOL):
        raise ValueError("negative entry in stochastic matrix")
    if np.max(np.abs(M.sum(axis=-1) - 1.0)) > STOCHASTIC_TOL:
        raise ValueError("row sums must equal 1")
    q, k = M.shape[-2:]
    if q < 3 or k > q:
        raise ValueError(f"need q >= 3 and k <= q, got {q} x {k}")
    if not c < rect_coefficient_bound(q, k):
        raise DomainError(
            f"coefficient c = {c} is not below (k-1)/(q-1) c_q = "
            f"{rect_coefficient_bound(q, k)}"
        )
    lhs = entropy_h(M) / q + c * np.log(k * q - k - q + (k / q) * rho(M))
    return math.log(k) + c * math.log((q - 1) * (k - 1)) - lhs


# ---------------------------------------------------------------------------
# Overlap functionals


def _edge_z(g: BaseGraph, a: np.ndarray, check: bool = True) -> list[float]:
    """z_e = 1 - <a_v, a_v'> for every edge e = vv', in edge order; with
    ``check``, a z_e <= 0 (f and b* undefined) raises DegenerateEdgeError."""
    zs = []
    for e, (tail, head) in enumerate(g.edges):
        z = 1.0 - float(np.dot(a[tail], a[head]))
        if check and z <= 0:
            raise DegenerateEdgeError(f"edge {e}: fully correlated endpoint rows (z_e = {z})")
        zs.append(z)
    return zs


def f_at_b_star(g: BaseGraph, a: np.ndarray) -> float:
    """f(a, b*(a)) = h(a) + sum_e log(1 - <a_v, a_v'>): the first-moment
    functional at its per-edge maximiser b*_{e,i,i'} = a_{v,i} a_{v',i'} / z_e."""
    a = np.asarray(a, dtype=float)
    total = -float(np.sum(xlogx(a)))
    for z in _edge_z(g, a):
        total += math.log(z)
    return total


def _f_grad(g: BaseGraph, a: np.ndarray) -> np.ndarray:
    """Gradient of f(a, b*(a)) in a; z_e is floored at 1e-300."""
    grad = -(np.log(np.maximum(a, 1e-300)) + 1.0)
    for (tail, head), z in zip(g.edges, _edge_z(g, a, check=False)):
        z = max(z, 1e-300)
        grad[tail] -= a[head] / z
        grad[head] -= a[tail] / z
    return grad


def F_A(g: BaseGraph, A: np.ndarray) -> float:
    """Outer-sum objective after the inner pair sums are integrated out:

    F(A) = (d-1) sum_v sum_{i,j} a log a
           - (k^2 (k-1)^2 / 2) sum_{e=vv'} [ (1/(2 lam)) sum (a_v + a_v' - 2/k^2)^2
             + (1/(2 lam')) sum (a_v - a_v')^2
             + (2/(k^2 (k-1)^2)) log(1/(k^2 (k-1)^2)) ].
    """
    A = np.asarray(A, dtype=float)
    k = A.shape[1]
    lam, lamp = lambdas(k)
    scale = k * k * (k - 1) ** 2
    plus, minus = _pair_edge_terms(g, A)
    const = (2.0 / scale) * math.log(1.0 / scale)
    terms = (
        np.sum(plus * plus, axis=(1, 2)) / (2 * lam)
        + np.sum(minus * minus, axis=(1, 2)) / (2 * lamp)
        + const
    )
    acc = float(np.cumsum(terms)[-1])  # added edge by edge, in edge order
    return (g.degree - 1) * float(np.sum(xlogx(A))) - (scale / 2.0) * acc


def _pair_edge_terms(g: BaseGraph, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a_v + a_v' - 2/k^2 and a_v - a_v' for the edges vv' of g in edge
    order, as two (|E|, k, k) arrays."""
    tails, heads = np.array(g.edges).T
    k = A.shape[1]
    return A[tails] + A[heads] - 2.0 / (k * k), A[tails] - A[heads]


def _F_A_grad(g: BaseGraph, A: np.ndarray) -> np.ndarray:
    """Gradient of F_A in A."""
    k = A.shape[1]
    lam, lamp = lambdas(k)
    scale = k * k * (k - 1) ** 2
    plus, minus = _pair_edge_terms(g, A)
    grad = (g.degree - 1) * (np.log(np.maximum(A, 1e-300)) + 1.0)
    # Updates go in tail, head order edge by edge, as a per-edge loop would
    # apply them: a vertex's updates are floats, so their order matters.
    steps = (scale / 2.0) * np.stack([plus / lam + minus / lamp, plus / lam - minus / lamp], axis=1)
    np.subtract.at(grad, np.ravel(g.edges), steps.reshape(-1, k, k))
    return grad


def uniform_pair_profile(g: BaseGraph, k: int) -> np.ndarray:
    return np.full((g.num_vertices, k, k), 1.0 / (k * k))


def uniform_profile(g: BaseGraph, k: int) -> np.ndarray:
    return np.full((g.num_vertices, k), 1.0 / k)


# ---------------------------------------------------------------------------
# Multi-start ascent


def project_rows_to_simplex(M: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the simplex {x >= 0, sum x = 1}."""
    M = np.asarray(M, dtype=float)
    out = np.empty_like(M)
    for i, row in enumerate(M):
        u = np.sort(row)[::-1]
        css = np.cumsum(u) - 1.0
        idx = np.arange(1, len(row) + 1)
        cond = u - css / idx > 0
        r = idx[cond][-1]
        theta = css[r - 1] / r
        out[i] = np.maximum(row - theta, 0.0)
    return out


def project_transportation(M: np.ndarray, margin: float) -> np.ndarray:
    """Approximate projection onto {M >= 0, all row and column sums = margin}
    by alternating row/column rescaling with nonnegativity clipping.

    M is one k x k matrix or a (..., k, k) stack.  Each matrix is rescaled
    until its own row and column sums are within PROJECTION_TOL of margin
    (or PROJECTION_MAX_ITERS rounds pass) and is left alone from then on.
    """
    M = np.maximum(np.asarray(M, dtype=float), 0.0)
    M[M.sum(axis=(-2, -1)) == 0] = margin  # degenerate all-zero inputs
    flat = M.reshape(-1, *M.shape[-2:])
    todo = np.arange(len(flat))
    for _ in range(PROJECTION_MAX_ITERS):
        work = flat[todo]
        rs = work.sum(axis=-1, keepdims=True)
        rs[rs == 0] = 1.0
        work = work * (margin / rs)
        cs = work.sum(axis=-2, keepdims=True)
        cs[cs == 0] = 1.0
        work = work * (margin / cs)
        flat[todo] = work
        err = np.maximum(
            np.max(np.abs(work.sum(axis=-1) - margin), axis=-1),
            np.max(np.abs(work.sum(axis=-2) - margin), axis=-1),
        )
        todo = todo[err >= PROJECTION_TOL]
        if not len(todo):
            break
    return M


@dataclass
class AscentReport:
    objective: str
    best_point: np.ndarray
    best_value: float
    uniform_value: float
    gap_to_uniform: float
    grad_norm_at_uniform: float
    trials: int


def _ascend(x0, value_fn, grad_fn, project_fn, max_iters=400, floor=1e-12):
    x = project_fn(x0)
    x = np.maximum(x, floor)
    x = project_fn(x)
    val = value_fn(x)
    step = 0.5
    for _ in range(max_iters):
        grad = grad_fn(x)
        improved = False
        while step > 1e-14:
            cand = project_fn(np.maximum(x + step * grad, floor))
            cand_val = value_fn(cand)
            if cand_val > val + 1e-15:
                x, val = cand, cand_val
                improved = True
                step *= 1.5
                break
            step *= 0.5
        if not improved:
            break
    return x, val


def _projected_grad_norm(grad: np.ndarray, kind: str) -> float:
    """Norm of the gradient projected on the constraint tangent space."""
    if kind == "rows":
        centered = grad - grad.mean(axis=-1, keepdims=True)
    else:  # doubly stochastic: double centering per matrix
        centered = grad - grad.mean(axis=-1, keepdims=True)
        centered = centered - centered.mean(axis=-2, keepdims=True)
    return float(np.sqrt(np.sum(centered * centered)))


def verify_max_uniform(
    objective: str, *, g: BaseGraph, k: int, trials: int = 200, seed: int = 0
) -> AscentReport:
    """Search for profiles beating the uniform one; report the best found.

    objective: "f" (first-moment functional f(a, b*(a)) over per-vertex
    colour fractions of a complete base) or "F" (second-moment outer
    functional over doubly-stochastic pair profiles), both on the base
    graph g.  A positive gap_to_uniform means the optimum is at the uniform
    point, as the corresponding theorem guarantees under its hypotheses; a
    gap below -1e-9 is a reported finding.
    """
    rng = np.random.default_rng(seed)

    if objective == "f":
        d = g.degree
        if not (d * d - 1) / (d * math.log(d)) < 2 * (k - 1):
            raise DomainError("hypothesis (d^2-1)/(d log d) < 2(k-1) fails")
        uniform = uniform_profile(g, k)

        def value_fn(a):
            try:
                return f_at_b_star(g, a)
            except DegenerateEdgeError:
                return -math.inf  # boundary point; reject in line search

        def grad_fn(a):
            return _f_grad(g, a)

        project_fn = project_rows_to_simplex

        def sample():
            return rng.dirichlet(np.ones(k), size=g.num_vertices)

        grad_kind = "rows"

    elif objective == "F":
        if not g.degree < ell_threshold(k):
            raise DomainError("objective 'F' needs d < ell_k")
        uniform = uniform_pair_profile(g, k)

        def value_fn(A):
            return F_A(g, A)

        def grad_fn(A):
            return _F_A_grad(g, A)

        def project_fn(A):
            return project_transportation(A, 1.0 / k)

        def sample():
            raw = rng.gamma(1.0, size=(g.num_vertices, k, k))
            return project_fn(raw / raw.sum(axis=(1, 2), keepdims=True))

        grad_kind = "doubly"

    else:
        raise ValueError(f"unknown objective {objective!r}")

    uniform_value = value_fn(uniform)
    grad_norm_unif = _projected_grad_norm(grad_fn(uniform), grad_kind)

    best_point, best_value = uniform, uniform_value
    for _ in range(trials):
        x0 = sample()
        x, val = _ascend(x0, value_fn, grad_fn, project_fn)
        if val > best_value:
            best_point, best_value = x, val

    return AscentReport(
        objective=objective,
        best_point=best_point,
        best_value=best_value,
        uniform_value=uniform_value,
        gap_to_uniform=uniform_value - best_value,
        grad_norm_at_uniform=grad_norm_unif,
        trials=trials,
    )
