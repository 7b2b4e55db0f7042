"""Closed-form asymptotic constants for colouring counts of random lifts.

Conventions, with G a d-regular loopless multigraph on |V| vertices with
|E| = d|V|/2 edges, adjacency eigenvalues alpha_1 >= ... >= alpha_|V|, and
k >= 3 colours:

    lam  = (k-1)^2 + 1,   lam' = (k-1)^2 - 1          (so lam*lam' = (k-1)^4 - 1)

    c_j  = (|E|-|V|)(1+(-1)^j) + sum_i ((beta_i^+)^j + (beta_i^-)^j)
           where beta_i^+- are the roots of x^2 - alpha_i x + (d-1) = 0;
           c_j counts the closed non-backtracking j-walks of G (cyclically
           non-backtracking: the wrap-around step may not reverse either).

    lambda_j = c_j / (2j),   delta_j = (-1)^j / (k-1)^{j-1}

    C1   = k^{k|V|/2} ((k-1)^2 / (k(k-2)))^{(k-1)|E|/2}
    h    = (k^2/(lam lam'))^{|V|} prod_i (lam lam' + d - alpha_i (k-1)^2)
    C2   = k^{(k^2-k+1)|V|} (k-1)^{(2k^2-2k)|E|}
           / (lam^{(k-1)^2|E|/2} lam'^{(k^2-1)|E|/2} h^{(k-1)^2/2})

E[Y] ~ C1 (2 pi n)^{-(k-1)|V|/2} (k^{|V|} ((k-1)/k)^{|E|})^n and E[Y^2] has
the C2 analogue with both exponents doubled; exponential-in-n quantities
are therefore returned in log-space with an explicit sign.

lambda_j and delta_j are defined by the same formulas for all j >= 1 (not
just j >= 3): the variance identity sums from j = 1, and c_1 = c_2 = 0 for
simple loopless bases makes the extension harmless, while multigraph bases
genuinely need c_2 > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_graph import BaseGraph, adjacency_spectrum, validate
from .errors import DivergentSeriesError, DomainError


@dataclass(frozen=True)
class LogValue:
    """A real number stored as (log|x|, sign)."""

    log: float
    sign: int


@dataclass(frozen=True)
class SscmConstants:
    """Small-subgraph-conditioning constants lambda_j, delta_j up to order J."""

    lam: tuple[float, ...]
    delta: tuple[float, ...]
    J: int
    convergence_ratio: float  # sqrt(d-1)/(k-1)^2; lambda_j delta_j^2 decays like its square


def lambdas(k: int) -> tuple[int, int]:
    """(lam, lam') = ((k-1)^2 + 1, (k-1)^2 - 1)."""
    return (k - 1) ** 2 + 1, (k - 1) ** 2 - 1


def walk_count_cj(g: BaseGraph, j: int) -> int:
    """c_j, the closed non-backtracking j-walk count, as an exact integer.

    c_j = (|E|-|V|)(1+(-1)^j) + tr P_j(A) in Python ints, where P_0 = 2I,
    P_1 = A and P_j = A P_{j-1} - (d-1) P_{j-2}; tr P_j(A) is the sum over
    the adjacency eigenvalues of (beta^+)^j + (beta^-)^j.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    d = validate(g)
    a = g.adjacency_matrix().astype(object)
    prev, cur = 2 * np.identity(g.num_vertices, dtype=object), a
    for _ in range(j - 1):
        prev, cur = cur, a @ cur - (d - 1) * prev
    return (g.num_edges - g.num_vertices) * (1 + (-1) ** j) + int(np.trace(cur))


def brute_force_walk_count(g: BaseGraph, j: int) -> int:
    """Oracle: enumerate closed non-backtracking j-walks directly.

    Directed edge ids 2e (tail->head) and 2e+1 (head->tail); a sequence
    e_1..e_j counts when consecutive steps (including e_j -> e_1) follow
    head-to-tail and never use the reverse of the previous edge.
    """
    validate(g)
    if j < 1:
        raise ValueError("j must be >= 1")
    heads = []
    tails = []
    for t, h in g.edges:
        tails.extend([t, h])
        heads.extend([h, t])
    m = len(heads)
    out_edges = [[] for _ in range(g.num_vertices)]
    for de in range(m):
        out_edges[tails[de]].append(de)

    total = 0

    def walk(first: int, current: int, steps_left: int) -> int:
        if steps_left == 0:
            return 1 if heads[current] == tails[first] and (current ^ 1) != first else 0
        count = 0
        for nxt in out_edges[heads[current]]:
            if nxt != (current ^ 1):
                count += walk(first, nxt, steps_left - 1)
        return count

    for first in range(m):
        total += walk(first, first, j - 1)
    return total


def sscm_constants(g: BaseGraph, k: int, J: int) -> SscmConstants:
    """lambda_j = c_j/(2j) and delta_j = (-1)^j/(k-1)^{j-1} for j = 1..J."""
    if J < 3:
        raise ValueError("J must be >= 3")
    d = validate(g)
    lam = tuple(walk_count_cj(g, j) / (2 * j) for j in range(1, J + 1))
    delta = tuple((-1) ** j / (k - 1) ** (j - 1) for j in range(1, J + 1))
    return SscmConstants(
        lam=lam,
        delta=delta,
        J=J,
        convergence_ratio=math.sqrt(d - 1) / (k - 1) ** 2,
    )


def log_c1(g: BaseGraph, k: int) -> float:
    d = validate(g)
    if k < 3:
        raise ValueError("k must be >= 3")
    if d < 2:
        raise ValueError("d must be >= 2")
    nv, ne = g.num_vertices, g.num_edges
    return (k * nv / 2) * math.log(k) + ((k - 1) * ne / 2) * math.log(
        (k - 1) ** 2 / (k * (k - 2))
    )


def c1(g: BaseGraph, k: int) -> float:
    """First-moment prefactor C1."""
    return math.exp(log_c1(g, k))


def log_h_dk(g: BaseGraph, k: int) -> float:
    d = validate(g)
    if k < 3:
        raise ValueError("k must be >= 3")
    lam, lamp = lambdas(k)
    spec = adjacency_spectrum(g)
    out = g.num_vertices * math.log(k**2 / (lam * lamp))
    for alpha in spec.eigenvalues:
        factor = lam * lamp + d - alpha * (k - 1) ** 2
        if factor <= 0:
            raise DomainError(
                f"nonpositive factor lam*lam' + d - alpha (k-1)^2 = {factor}"
            )
        out += math.log(factor)
    return out


def h_dk(g: BaseGraph, k: int) -> float:
    """Restricted-Hessian determinant factor h(d, k)."""
    return math.exp(log_h_dk(g, k))


def log_c2(g: BaseGraph, k: int) -> float:
    validate(g)
    if k < 3:
        raise ValueError("k must be >= 3")
    lam, lamp = lambdas(k)
    nv, ne = g.num_vertices, g.num_edges
    return (
        (k * k - k + 1) * nv * math.log(k)
        + (2 * k * k - 2 * k) * ne * math.log(k - 1)
        - ((k - 1) ** 2 * ne / 2) * math.log(lam)
        - ((k * k - 1) * ne / 2) * math.log(lamp)
        - ((k - 1) ** 2 / 2) * log_h_dk(g, k)
    )


def c2(g: BaseGraph, k: int) -> float:
    """Second-moment prefactor C2.

    Computed whenever the h-factors are positive; its role as the E[Y^2]
    prefactor additionally needs d < ell_k, which ey2_asym enforces.
    """
    return math.exp(log_c2(g, k))


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of the variance identity log(C2/C1^2) = sum lambda_j delta_j^2."""

    lhs: float
    partial: float
    gap: float
    closed_form: float
    J: int


def variance_series_terms(g: BaseGraph, k: int, J: int) -> list[float]:
    """lambda_j * delta_j^2 for j = 1..J, via overflow-free scaled recurrences.

    Works with u_j = s_j/(k-1)^{2j} so that no intermediate grows like
    (d-1)^j; requires d - 1 < (k-1)^2 for the series to converge.
    """
    d = validate(g)
    if d - 1 >= (k - 1) ** 2:
        raise DivergentSeriesError(
            f"series diverges: d-1 = {d - 1} >= (k-1)^2 = {(k - 1) ** 2}"
        )
    spec = adjacency_spectrum(g)
    w = (k - 1) ** 2
    ev = list(spec.eigenvalues)
    u_prev2 = [2.0 for _ in ev]  # u_0 = s_0 / w^0
    u_prev1 = [alpha / w for alpha in ev]  # u_1
    edge_excess = g.num_edges - g.num_vertices
    terms = []
    for j in range(1, J + 1):
        if j == 1:
            u = u_prev1
        else:
            u = [
                (alpha / w) * u1 - ((d - 1) / (w * w)) * u2
                for alpha, u1, u2 in zip(ev, u_prev1, u_prev2)
            ]
            u_prev2, u_prev1 = u_prev1, u
        sj_scaled = sum(u)  # sum_i s_j(alpha_i) / w^j
        cj_scaled = edge_excess * (1 + (-1) ** j) / w**j + sj_scaled
        # lambda_j delta_j^2 = c_j / (2j (k-1)^{2j-2}) = w * cj_scaled / (2j)
        terms.append(w * cj_scaled / (2 * j))
    return terms


def _series_tail_bound(g: BaseGraph, k: int, J: int) -> float:
    d = g.degree
    rho = (d - 1) / (k - 1) ** 2
    return (k - 1) ** 2 * g.num_edges * rho ** (J + 1) / ((J + 1) * (1 - rho))


def sscm_identity_check(
    g: BaseGraph, k: int, J: int | None = None, tol: float = 1e-10
) -> IdentityCheck:
    """Compare log(C2/C1^2) with the truncated series sum lambda_j delta_j^2.

    With J=None the truncation starts at 200 and extends until the
    geometric tail bound drops below ``tol``.  Also evaluates the closed
    product form of the left-hand side,

        ((k-1)^{4|E|} / ((lam lam')^{|E|-|V|} prod_i (lam lam' + d - alpha_i (k-1)^2)))^{(k-1)^2/2},

    in log-space, for an independent cross-check.
    """
    d = validate(g)
    if d - 1 >= (k - 1) ** 2:
        raise DivergentSeriesError(
            f"series diverges: d-1 = {d - 1} >= (k-1)^2 = {(k - 1) ** 2}"
        )
    lhs = log_c2(g, k) - 2 * log_c1(g, k)
    if J is None:
        J = 200
        while _series_tail_bound(g, k, J) > tol:
            J += 100
    terms = variance_series_terms(g, k, J)
    partial = math.fsum(terms)

    lam, lamp = lambdas(k)
    spec = adjacency_spectrum(g)
    log_prod = math.fsum(
        math.log(lam * lamp + d - alpha * (k - 1) ** 2) for alpha in spec.eigenvalues
    )
    closed = ((k - 1) ** 2 / 2) * (
        4 * g.num_edges * math.log(k - 1)
        - (g.num_edges - g.num_vertices) * math.log(lam * lamp)
        - log_prod
    )
    return IdentityCheck(
        lhs=lhs, partial=partial, gap=abs(lhs - partial), closed_form=closed, J=J
    )


def cycle_colorings(j: int, k: int) -> int:
    """Proper k-colourings of a rooted, directed j-cycle: (k-1)^j + (k-1)(-1)^j."""
    if j < 3 or k < 2:
        raise ValueError("need j >= 3 and k >= 2")
    return (k - 1) ** j + (k - 1) * (-1) ** j


def log_rate(g: BaseGraph, k: int) -> float:
    """log of the per-n growth base k^{|V|} ((k-1)/k)^{|E|}."""
    return g.num_vertices * math.log(k) + g.num_edges * math.log((k - 1) / k)


def ey_asym(g: BaseGraph, n: int, k: int) -> LogValue:
    """Asymptotic E[Y]: C1 (2 pi n)^{-(k-1)|V|/2} (k^{|V|}((k-1)/k)^{|E|})^n."""
    if n % k != 0:
        raise ValueError(f"strong equitability needs k | n; got n={n}, k={k}")
    log_val = (
        log_c1(g, k)
        - ((k - 1) * g.num_vertices / 2) * math.log(2 * math.pi * n)
        + n * log_rate(g, k)
    )
    return LogValue(log=log_val, sign=1)


def ey2_asym(g: BaseGraph, n: int, k: int) -> LogValue:
    """Asymptotic E[Y^2]: C2 (2 pi n)^{-(k-1)|V|} (k^{|V|}((k-1)/k)^{|E|})^{2n}."""
    from .thresholds import ell_threshold

    d = validate(g)
    if n % k != 0:
        raise ValueError(f"strong equitability needs k | n; got n={n}, k={k}")
    if not d < ell_threshold(k):
        raise DomainError(f"E[Y^2] asymptotics need d < ell_k; d={d}, k={k}")
    log_val = (
        log_c2(g, k)
        - (k - 1) * g.num_vertices * math.log(2 * math.pi * n)
        + 2 * n * log_rate(g, k)
    )
    return LogValue(log=log_val, sign=1)


def joint_moment_prediction(g: BaseGraph, k: int, j: int) -> float:
    """Limit of E[Y Z_j]/E[Y]: lambda_j (1 + delta_j)."""
    if j < 3:
        raise ValueError("j must be >= 3")
    lam_j = walk_count_cj(g, j) / (2 * j)
    delta_j = (-1) ** j / (k - 1) ** (j - 1)
    return lam_j * (1 + delta_j)


def log_gamma_nk(n: int, k: int) -> float:
    """log of the inner-sum constant gamma(n, k).

    gamma(n,k) = k^{3k^2+1} (k-1)^{4k(k-1)}
                 / ((2 pi n)^{2k^2-1} lam^{(k-1)^2} (k-2)^{k^2-1}).
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    lam, _ = lambdas(k)
    return (
        (3 * k * k + 1) * math.log(k)
        + 4 * k * (k - 1) * math.log(k - 1)
        - (2 * k * k - 1) * math.log(2 * math.pi * n)
        - (k - 1) ** 2 * math.log(lam)
        - (k * k - 1) * math.log(k - 2)
    )


def build_B(k: int) -> np.ndarray:
    """Quadratic-form matrix B = (k-1)^2 I_{2k^2} + [[0,1],[1,0]] (x) (J_k - I_k)^(x2)."""
    if k < 3:
        raise ValueError("k must be >= 3")
    jk_ik = np.ones((k, k)) - np.eye(k)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    return (k - 1) ** 2 * np.eye(2 * k * k) + np.kron(swap, np.kron(jk_ik, jk_ik))


def expected_B_spectrum(k: int) -> list[float]:
    """Eigenvalue multiset of B: {2(k-1)^2, 0, ((k-1)(k-2))_{2k-2},
    (k(k-1))_{2k-2}, ((k-1)^2+1)_{(k-1)^2}, ((k-1)^2-1)_{(k-1)^2}}."""
    lam, lamp = lambdas(k)
    out = [2 * (k - 1) ** 2, 0.0]
    out += [(k - 1) * (k - 2)] * (2 * k - 2)
    out += [k * (k - 1)] * (2 * k - 2)
    out += [float(lam)] * (k - 1) ** 2
    out += [float(lamp)] * (k - 1) ** 2
    return sorted(out)


def B_spectrum_check(k: int, tol: float = 1e-8) -> bool:
    """Numerically diagonalise B and compare with the listed multiset."""
    eig = np.sort(np.linalg.eigvalsh(build_B(k)))
    expected = np.array(expected_B_spectrum(k))
    return bool(np.max(np.abs(eig - expected)) < tol)
