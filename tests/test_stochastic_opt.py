import math

import numpy as np
import pytest

from liftchroma import stochastic_opt
from liftchroma.asymptotics import log_rate
from liftchroma.errors import DegenerateEdgeError, DomainError
from liftchroma.stochastic_opt import (
    PROJECTION_MAX_ITERS,
    PROJECTION_TOL,
    F_A,
    entropy_h,
    f_at_b_star,
    project_rows_to_simplex,
    project_transportation,
    rect_coefficient_bound,
    rect_gap,
    rho,
    square_gap,
    uniform_pair_profile,
    uniform_profile,
    verify_max_uniform,
    xlogx,
)
from liftchroma.thresholds import c_q


def test_rho_entropy_examples():
    uniform = np.full((4, 3), 1 / 3)
    assert rho(uniform) == pytest.approx(4 / 3)
    assert entropy_h(uniform) == pytest.approx(4 * math.log(3))
    eye = np.eye(3)
    assert rho(eye) == pytest.approx(3.0)
    assert entropy_h(eye) == pytest.approx(0.0)
    row = np.array([[0.5, 0.5, 0.0]])
    assert rho(row) == pytest.approx(0.5)
    assert entropy_h(row) == pytest.approx(math.log(2))
    # a stack gives one value per matrix
    stack = np.stack([np.full((3, 3), 1 / 3), eye])
    assert rho(stack) == pytest.approx([1.0, 3.0])
    assert entropy_h(stack) == pytest.approx([3 * math.log(3), 0.0])


def test_square_gap_examples():
    uniform = np.full((3, 3), 1 / 3)
    assert square_gap(uniform, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert square_gap(np.eye(3), 1.0) == pytest.approx(math.log(2), abs=1e-12)
    with pytest.raises(DomainError):
        square_gap(uniform, 2.0)  # c_3 ~ 1.848
    with pytest.raises(ValueError):
        square_gap(np.full((4, 3), 1 / 3), 1.0)


def _extend(M: np.ndarray) -> np.ndarray:
    """A q x k row-stochastic M extended to q x q: its k columns scaled by
    k/q, the other q - k columns filled with 1/q."""
    q, k = M.shape
    ext = np.full((q, q), 1.0 / q)
    ext[:, :k] = M * (k / q)
    return ext


def test_extend_matrix():
    uniform43 = np.full((4, 3), 1 / 3)
    assert np.allclose(_extend(uniform43), 0.25)
    square = np.full((3, 3), 1 / 3)
    assert np.allclose(_extend(square), square)
    rng = np.random.default_rng(3)
    skewed = rng.dirichlet(np.ones(3), size=4)
    ext = _extend(skewed)
    assert ext.shape == (4, 4)
    assert np.allclose(ext.sum(axis=1), 1.0)
    # the transform identities that reduce the rectangular case to the square one
    q, k = skewed.shape
    assert rho(ext) == pytest.approx((k / q) * ((k / q) * rho(skewed) - 1) + 1, abs=1e-10)
    assert math.log(k) - entropy_h(skewed) / q == pytest.approx(
        (q / k) * (math.log(q) - entropy_h(ext) / q), abs=1e-10
    )


def test_rect_gap_examples():
    uniform43 = np.full((4, 3), 1 / 3)
    c = 0.9 * rect_coefficient_bound(4, 3)
    assert rect_gap(uniform43, c) == pytest.approx(0.0, abs=1e-12)
    hard_rows = np.zeros((5, 4))
    hard_rows[:, 0] = 1.0
    assert rect_gap(hard_rows, 0.5) > 0
    with pytest.raises(DomainError):
        rect_gap(uniform43, rect_coefficient_bound(4, 3) + 0.01)


def test_rect_gap_square_reduction():
    # at q = k the rectangular inequality is the square one
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.dirichlet(np.ones(3), size=3)
        assert rect_gap(m, 1.0) == pytest.approx(square_gap(m, 1.0), abs=1e-12)


def test_rect_gap_two_display_forms_agree():
    # the logarithm-ratio form: log k - h(M)/q - c log1p(((k/q) rho(M) - 1) / ((q-1)(k-1)))
    rng = np.random.default_rng(11)
    q, k = 5, 3
    c = 0.8 * rect_coefficient_bound(q, k)
    for _ in range(50):
        m = rng.dirichlet(np.ones(k), size=q)
        second = (
            math.log(k)
            - entropy_h(m) / q
            - c * math.log1p(((k / q) * rho(m) - 1.0) / ((q - 1) * (k - 1)))
        )
        assert rect_gap(m, c) == pytest.approx(second, abs=1e-12)


@pytest.mark.parametrize("q,c", [(3, 1.8), (4, 3.7), (5, 5.9)])
def test_square_gap_nonnegative_random(q, c):
    assert c < c_q(q)
    rng = np.random.default_rng(q * 1000)
    mats = rng.dirichlet(np.ones(q), size=(100_000, q))
    assert square_gap(mats, c).min() >= -1e-10


@pytest.mark.parametrize("q,k", [(4, 3), (5, 3), (5, 4)])
def test_rect_gap_nonnegative_random(q, k):
    c = 0.99 * rect_coefficient_bound(q, k)
    rng = np.random.default_rng(q * 100 + k)
    mats = rng.dirichlet(np.ones(k), size=(100_000, q))
    assert rect_gap(mats, c).min() >= -1e-10


def _f(edges, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First-moment overlap functional, one value per profile of a stack:
    f(a, b) = h(a) + sum_e sum_{i != i'} b log(a_{v,i} a_{v',i'} / b) with
    0 log 0 = 0, for a of shape (S, |V|, k) and b of shape (S, |E|, k, k)."""
    vals = -np.sum(xlogx(a), axis=(1, 2))
    for e, (tail, head) in enumerate(edges):
        b_e = b[:, e]
        outer = a[:, tail, :, None] * a[:, head, None, :]
        mask = b_e > 0
        vals += np.sum(
            np.where(mask, b_e * np.log(np.where(mask, outer / np.maximum(b_e, 1e-300), 1.0)), 0.0),
            axis=(1, 2),
        )
    return vals


def _b_star(edges, a: np.ndarray) -> np.ndarray:
    """Per-edge maximiser of f in b for fixed a, per profile of a stack:
    b*_{e,i,i'} = a_{v,i} a_{v',i'} / z_e off the diagonal, z_e = 1 - <a_v, a_v'>."""
    off = ~np.eye(a.shape[-1], dtype=bool)
    out = []
    for tail, head in edges:
        z = 1 - np.sum(a[:, tail] * a[:, head], axis=1)
        out.append(a[:, tail, :, None] * a[:, head, None, :] * off / z[:, None, None])
    return np.stack(out, axis=1)


def _g(a: np.ndarray, d: int, k: int) -> float:
    """Upper envelope of f(a, b*(a)) for complete bases:
    g(a) = h(a) + C(d+1, 2) log(1 - (d+1)/(dk) + rho(a)/(d(d+1)))."""
    return entropy_h(a) + math.comb(d + 1, 2) * math.log(
        1.0 - (d + 1) / (d * k) + rho(a) / (d * (d + 1))
    )


def test_f_ab_uniform_value(k4):
    d, k = 3, 3
    a = uniform_profile(k4, k)[None]
    b = _b_star(k4.edges, a)
    target = (d + 1) / 2 * math.log((k - 1) ** d / k ** (d - 2))
    assert _f(k4.edges, a, b)[0] == pytest.approx(target, abs=1e-12)
    assert f_at_b_star(k4, a[0]) == pytest.approx(target, abs=1e-12)
    assert np.allclose(b[0][:, ~np.eye(k, dtype=bool)], 1 / (k * (k - 1)))


def _random_couplings(rng, a: np.ndarray, edges, iters: int = 200) -> np.ndarray:
    """Random feasible overlap tables: zero-diagonal couplings with the
    prescribed endpoint marginals, built by alternating marginal rescaling
    of a random positive start (a vectorised Sinkhorn pass per edge)."""
    n_samples, _, k = a.shape
    out = np.zeros((n_samples, len(edges), k, k))
    off_diag = ~np.eye(k, dtype=bool)
    for e, (tail, head) in enumerate(edges):
        b = rng.gamma(1.0, size=(n_samples, k, k)) * off_diag
        row_target = a[:, tail, :]
        col_target = a[:, head, :]
        for _ in range(iters):
            rows = b.sum(axis=2, keepdims=True)
            b = b * (row_target[:, :, None] / np.maximum(rows, 1e-300))
            cols = b.sum(axis=1, keepdims=True)
            b = b * (col_target[:, None, :] / np.maximum(cols, 1e-300))
        out[:, e] = b
    return out


def test_f_gibbs_bound(k4):
    # f(a, b) <= f(a, b*(a)) for 10^4 random feasible (a, b) profiles
    rng = np.random.default_rng(2)
    k = 3
    n_samples = 10_000
    a = rng.dirichlet(np.ones(k), size=(n_samples, 4))
    couplings = _random_couplings(rng, a, k4.edges)
    # per-edge optimum h(a) + sum log z_e
    best = -np.sum(xlogx(a), axis=(1, 2))
    for tail, head in k4.edges:
        best += np.log(1 - np.sum(a[:, tail, :] * a[:, head, :], axis=1))
    f_vals = _f(k4.edges, a, couplings)
    assert np.max(f_vals - best) <= 1e-7  # marginal rescaling is approximate

    # the optimum is attained at b*(a), and f_at_b_star evaluates it
    assert np.allclose(_f(k4.edges, a, _b_star(k4.edges, a)), best, rtol=0, atol=1e-10)
    idx = 17
    assert f_at_b_star(k4, a[idx]) == pytest.approx(best[idx], abs=1e-10)


def test_b_star_degenerate_edge(k3):
    a = np.zeros((3, 3))
    a[:, 0] = 1.0  # every fiber fully colour 0: z_e = 0 on every edge
    with pytest.raises(DegenerateEdgeError):
        f_at_b_star(k3, a)


def test_g_of_a_uniform_matches_f(k4):
    d, k = 3, 3
    a = uniform_profile(k4, k)
    target = (d + 1) / 2 * math.log((k - 1) ** d / k ** (d - 2))
    assert _g(a, d, k) == pytest.approx(target, abs=1e-12)


def test_g_of_a_dominates_f(k4):
    rng = np.random.default_rng(8)
    d, k = 3, 3
    for _ in range(500):
        a = rng.dirichlet(np.ones(k), size=d + 1)
        assert f_at_b_star(k4, a) <= _g(a, d, k) + 1e-10


def test_am_gm_edge_inequality(k4):
    # sum_e log(1 - <a_v, a_v'>) <= C(d+1,2) log(1 - (d+1)/(dk) + rho/(d(d+1)))
    rng = np.random.default_rng(10)
    d, k = 3, 3
    a = rng.dirichlet(np.ones(k), size=(100000, d + 1))
    lhs = np.zeros(len(a))
    for t, h in k4.edges:
        lhs += np.log(1 - np.sum(a[:, t, :] * a[:, h, :], axis=1))
    rho_a = np.sum(a * a, axis=(1, 2))
    rhs = math.comb(d + 1, 2) * np.log(1 - (d + 1) / (d * k) + rho_a / (d * (d + 1)))
    assert (rhs - lhs).min() >= -1e-10


def test_F_A_uniform_value(k4):
    assert F_A(k4, uniform_pair_profile(k4, 3)) == pytest.approx(
        2 * log_rate(k4, 3), abs=1e-12
    )


def test_F_A_below_uniform_random(k4):
    # 10^4 random doubly-stochastic pair profiles never beat the uniform one
    rng = np.random.default_rng(12)
    uniform_val = F_A(k4, uniform_pair_profile(k4, 3))
    profiles = project_transportation(rng.gamma(1.0, size=(10_000, 4, 3, 3)), 1 / 3)
    for a in profiles:
        assert F_A(k4, a) < uniform_val + 1e-9


def test_projections():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(5, 3))
    p = project_rows_to_simplex(m)
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1), 1.0)
    t = project_transportation(rng.gamma(1.0, size=(3, 3)), 1 / 3)
    assert np.allclose(t.sum(axis=0), 1 / 3, atol=1e-9)
    assert np.allclose(t.sum(axis=1), 1 / 3, atol=1e-9)


def test_verify_max_uniform_small(k4):
    rep = verify_max_uniform("F", g=k4, k=3, trials=10, seed=1)
    assert rep.gap_to_uniform >= -1e-9
    assert rep.grad_norm_at_uniform < 1e-8
    rep_f = verify_max_uniform("f", g=k4, k=3, trials=10, seed=2)
    assert rep_f.gap_to_uniform >= -1e-9
    with pytest.raises(ValueError):
        verify_max_uniform("nope", g=k4, k=3)


# ---------------------------------------------------------------------------
# Per-matrix oracles for the stack-aware functions


def _oracle_project_transportation(M, margin):
    """The per-matrix Sinkhorn loop that project_transportation replaced."""
    M = np.maximum(np.asarray(M, dtype=float), 0.0)
    M[M.sum() == 0] = margin
    for _ in range(PROJECTION_MAX_ITERS):
        rs = M.sum(axis=1, keepdims=True)
        rs[rs == 0] = 1.0
        M = M * (margin / rs)
        cs = M.sum(axis=0, keepdims=True)
        cs[cs == 0] = 1.0
        M = M * (margin / cs)
        err = max(
            float(np.max(np.abs(M.sum(axis=1) - margin))),
            float(np.max(np.abs(M.sum(axis=0) - margin))),
        )
        if err < PROJECTION_TOL:
            break
    return M


def test_batched_sinkhorn_equals_per_matrix_loop():
    rng = np.random.default_rng(2024)
    raw = rng.gamma(0.3, size=(100, 4, 3, 3))
    raw[7, 2] = 0.0  # an all-zero matrix
    raw[11, 0, 1] = 0.0  # a zero row
    raw[13] = rng.normal(size=(4, 3, 3))  # negative entries are clipped
    batched = project_transportation(raw, 1 / 3)
    assert batched.shape == raw.shape
    oracle = np.array([[_oracle_project_transportation(m, 1 / 3) for m in p] for p in raw])
    assert np.array_equal(batched, oracle)
    assert np.allclose(batched[7, 2], 1 / 9)
    single = project_transportation(raw[3, 1], 1 / 3)
    assert np.array_equal(single, oracle[3, 1])


def test_F_ascent_equals_per_matrix_projection(k4, monkeypatch):
    # every trial's end point, not only the best one (which stays uniform)
    runs = []
    ascend = stochastic_opt._ascend

    def recording_ascend(*args, **kwargs):
        x, val = ascend(*args, **kwargs)
        runs[-1].append((x, val))
        return x, val

    def per_matrix(A, margin):
        return np.stack([_oracle_project_transportation(m, margin) for m in A])

    monkeypatch.setattr(stochastic_opt, "_ascend", recording_ascend)
    for project in (project_transportation, per_matrix):
        monkeypatch.setattr(stochastic_opt, "project_transportation", project)
        runs.append([])
        verify_max_uniform("F", g=k4, k=3, trials=5, seed=7)
    assert len(runs[0]) == len(runs[1]) == 5
    for (x, val), (x_old, val_old) in zip(*runs):
        assert val == val_old
        assert np.array_equal(x, x_old)


def test_gaps_on_stacks_equal_single_matrices():
    rng = np.random.default_rng(5)
    sq = rng.dirichlet(np.ones(4), size=(3, 5, 4))
    gaps = square_gap(sq, 3.0)
    assert gaps.shape == (3, 5)
    assert all(gaps[i, j] == square_gap(sq[i, j], 3.0) for i in range(3) for j in range(5))
    rect = rng.dirichlet(np.ones(3), size=(6, 5))
    c = 0.9 * rect_coefficient_bound(5, 3)
    assert rect_gap(rect, c).shape == (6,)
    assert all(rect_gap(rect, c)[i] == rect_gap(rect[i], c) for i in range(6))
    bad = sq.copy()
    bad[1, 2, 0, 0] += 0.5
    with pytest.raises(ValueError):
        square_gap(bad, 3.0)
    with pytest.raises(ValueError):
        rect_gap(rng.dirichlet(np.ones(3), size=(4, 2)), 0.1)  # q < 3
    with pytest.raises(DomainError):
        square_gap(sq, c_q(4))


# ---------------------------------------------------------------------------
# Per-edge oracles for F_A and the ascent gradients, which now share their
# per-edge terms


def _oracle_F_A(g, A):
    """The per-edge F_A loop, with lambda and lambda' written out."""
    d = g.degree
    k = A.shape[1]
    lam = (k - 1) ** 2 + 1
    lamp = (k - 1) ** 2 - 1
    scale = k * k * (k - 1) ** 2
    total = (d - 1) * float(np.sum(xlogx(A)))
    const = (2.0 / scale) * math.log(1.0 / scale)
    acc = 0.0
    for tail, head in g.edges:
        plus = A[tail] + A[head] - 2.0 / (k * k)
        minus = A[tail] - A[head]
        acc += (
            float(np.sum(plus * plus)) / (2 * lam)
            + float(np.sum(minus * minus)) / (2 * lamp)
            + const
        )
    return total - (scale / 2.0) * acc


def _oracle_F_grad(g, A):
    k = A.shape[1]
    lam = (k - 1) ** 2 + 1
    lamp = (k - 1) ** 2 - 1
    scale = k * k * (k - 1) ** 2
    grad = (g.degree - 1) * (np.log(np.maximum(A, 1e-300)) + 1.0)
    for tail, head in g.edges:
        plus = A[tail] + A[head] - 2.0 / (k * k)
        minus = A[tail] - A[head]
        grad[tail] -= (scale / 2.0) * (plus / lam + minus / lamp)
        grad[head] -= (scale / 2.0) * (plus / lam - minus / lamp)
    return grad


def _oracle_f_grad(g, a):
    grad = -(np.log(np.maximum(a, 1e-300)) + 1.0)
    for tail, head in g.edges:
        z = max(1.0 - float(np.dot(a[tail], a[head])), 1e-300)
        grad[tail] -= a[head] / z
        grad[head] -= a[tail] / z
    return grad


@pytest.mark.parametrize(
    "graph, k", [("k4", 3), ("k4", 4), ("k5", 4), ("petersen", 4), ("doubled_triangle", 3)]
)
def test_F_A_and_gradients_equal_per_edge_loops(graph, k, request):
    g = request.getfixturevalue(graph)
    rng = np.random.default_rng(31)
    profiles = project_transportation(rng.gamma(0.5, size=(300, g.num_vertices, k, k)), 1 / k)
    profiles[0, 0, 0] = 0.0  # a zero entry takes the log floor
    for A in profiles:
        assert F_A(g, A) == _oracle_F_A(g, A)
        assert np.array_equal(stochastic_opt._F_A_grad(g, A), _oracle_F_grad(g, A))
    rows = rng.dirichlet(np.full(k, 0.5), size=(300, g.num_vertices))
    rows[0, :2] = np.eye(k)[0]  # a fully correlated edge takes the z floor
    for a in rows:
        assert np.array_equal(stochastic_opt._f_grad(g, a), _oracle_f_grad(g, a))


def test_F_and_f_ascents_equal_per_edge_loops(k4, doubled_triangle, monkeypatch):
    # every trial's end point and value, not only the best one
    runs = []
    ascend = stochastic_opt._ascend

    def recording_ascend(*args, **kwargs):
        x, val = ascend(*args, **kwargs)
        runs[-1].append((x, val))
        return x, val

    monkeypatch.setattr(stochastic_opt, "_ascend", recording_ascend)
    for oracle in (False, True):
        if oracle:
            monkeypatch.setattr(stochastic_opt, "F_A", _oracle_F_A)
            monkeypatch.setattr(stochastic_opt, "_F_A_grad", _oracle_F_grad)
            monkeypatch.setattr(stochastic_opt, "_f_grad", _oracle_f_grad)
        runs.append([])
        verify_max_uniform("F", g=k4, k=3, trials=5, seed=314)
        verify_max_uniform("F", g=doubled_triangle, k=4, trials=3, seed=1)
        verify_max_uniform("f", g=k4, k=3, trials=5, seed=2)
    assert len(runs[0]) == len(runs[1]) == 13
    for (x, val), (x_old, val_old) in zip(*runs):
        assert val == val_old
        assert np.array_equal(x, x_old)
