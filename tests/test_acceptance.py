"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s); the
assertions carry the same conditions, so a red test is a failed criterion.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_unimodular
from liftchroma.asymptotics import (
    B_spectrum_check,
    brute_force_walk_count,
    ey2_asym,
    ey_asym,
    h_dk,
    sscm_identity_check,
    walk_count_cj,
)
from liftchroma.base_graph import make_complete_graph
from liftchroma.coloring import (
    chromatic_bounds,
    chromatic_number,
    count_proper_colorings,
    count_strongly_equitable,
)
from liftchroma.experiments import joint_ratio_estimate, mc_expectation, sample_seed
from liftchroma.lattice_tools import (
    ConstraintGraph,
    build_ey2_problem,
    build_ey_problem,
    det_restricted,
    gamma_b_component,
    kernel_basis,
    laplace_estimate,
    tau_maximal_forests,
)
from liftchroma.lift import count_cycles, expand, sample_lift
from liftchroma.moments_exact import (
    brute_force_moment,
    expected_X_exact,
    expected_Y2_exact,
    expected_Y_exact,
)
from liftchroma.stochastic_opt import (
    rect_coefficient_bound,
    rect_gap,
    square_gap,
    verify_max_uniform,
)
from liftchroma.thresholds import c_q, ell_threshold, k_d, u_threshold


def report(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_01_exact_oracle_equality(k3):
    ex = expected_X_exact(k3, 2, 3)
    bx = brute_force_moment(k3, 2, lambda l: count_proper_colorings(expand(l), 3))
    ey = expected_Y_exact(k3, 3, 3)
    by = brute_force_moment(k3, 3, lambda l: count_strongly_equitable(l, 3))
    ey2 = expected_Y2_exact(k3, 3, 3)
    by2 = brute_force_moment(
        k3, 3, lambda l: Fraction(count_strongly_equitable(l, 3)) ** 2
    )
    ratio = joint_ratio_estimate(k3, 3, 3, 3)
    brute_ratio = brute_force_moment(
        k3,
        3,
        lambda l: Fraction(count_strongly_equitable(l, 3) * count_cycles(expand(l), 3)),
    ) / by
    ok = (
        ex == bx == 51
        and ey == by == 8
        and ey2 == by2
        and ratio == brute_ratio
    )
    report(
        "1: exact oracle equality (E[X]=51, E[Y]=8, E[Y^2], joint ratio; all exact)",
        ok,
    )


def test_criterion_02_matrix_tree_closed_forms():
    ok = True
    for k in range(3, 7):
        minus = tau_maximal_forests(gamma_b_component(k))
        ok &= minus == (k - 1) * k ** (k - 2) * (k - 2) ** (k - 1)
        complete = tau_maximal_forests(
            ConstraintGraph(2 * k, tuple((i, k + j) for i in range(k) for j in range(k)))
        )
        ok &= complete == k ** (2 * k - 2)
    report("2: matrix-tree closed forms tau(K_kk - M), tau(K_kk), k = 3..6", ok)


def test_criterion_03_walk_counts(k3, k4, k5, petersen):
    ok = True
    for g in (k3, k4, k5, petersen):
        for j in range(1, 9):
            ok &= walk_count_cj(g, j) == brute_force_walk_count(g, j)
    report("3: closed non-backtracking walk counts vs enumeration, j = 1..8", ok)


def test_criterion_04_sscm_identity(k4, k5):
    chk4 = sscm_identity_check(k4, 3, 200)
    chk5 = sscm_identity_check(k5, 3, 400)
    ok = (
        chk4.gap < 1e-8
        and chk5.gap < 1e-8
        and abs(chk4.lhs - chk4.closed_form) <= 1e-10 * abs(chk4.lhs)
        and abs(chk5.lhs - chk5.closed_form) <= 1e-10 * abs(chk5.lhs)
    )
    report("4: variance identity |log(C2/C1^2) - sum lambda_j delta_j^2| < 1e-8", ok)


def test_criterion_05_restricted_hessian(k3, k4):
    rng = np.random.default_rng(17)
    ok = True
    for g in (k3, k4):
        gamma_b = build_ey_problem(g, 3).gamma
        u1 = kernel_basis(gamma_b)
        r = len(u1[0])
        t = random_unimodular(r, rng)
        u2 = [[sum(row[a] * t[a][b] for a in range(r)) for b in range(r)] for row in u1]
        scaled_identity = [
            [6 if i == j else 0 for j in range(gamma_b.num_edges)]
            for i in range(gamma_b.num_edges)
        ]
        for u in (u1, u2):
            ok &= det_restricted(scaled_identity, u) == Fraction(6) ** r

        problem = build_ey2_problem(g, 3)
        ua = kernel_basis(problem.gamma)
        ra = len(ua[0])
        ta = random_unimodular(ra, rng)
        ua2 = [
            [sum(row[a] * ta[a][b] for a in range(ra)) for b in range(ra)] for row in ua
        ]
        neg_h = [[-x for x in row] for row in problem.hessian_at_xhat]
        target = h_dk(g, 3) ** 4
        for u in (ua, ua2):
            val = float(det_restricted(neg_h, u))
            ok &= abs(val / target - 1) < 1e-9
    report("5: restricted Hessians: (k(k-1))^r exact, h(d,k)^{(k-1)^2} to 1e-9", ok)


def test_criterion_06_laplace_consistency(k3, k4):
    ok = True
    for g in (k3, k4):
        pey = build_ey_problem(g, 3)
        pey2 = build_ey2_problem(g, 3)
        for n in (30, 60):
            ok &= abs(math.exp(laplace_estimate(pey, n).log - ey_asym(g, n, 3).log) - 1) < 1e-9
            ok &= (
                abs(math.exp(laplace_estimate(pey2, n).log - ey2_asym(g, n, 3).log) - 1)
                < 1e-9
            )
    report("6: Laplace estimates match E[Y], E[Y^2] closed forms to 1e-9", ok)


def test_criterion_07_asymptotic_trend(k3):
    ratios = {}
    for n in (30, 60, 120):
        exact = expected_Y_exact(k3, n, 3)
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        ratios[n] = math.exp(log_exact - ey_asym(k3, n, 3).log)
    ok = (
        0.95 <= ratios[120] <= 1.05
        and abs(ratios[120] - 1) < abs(ratios[60] - 1)
        and abs(ratios[60] - 1) < abs(ratios[30] - 1)
    )
    report(
        "7: exact/asymptotic E[Y] ratio in [0.95, 1.05] at n=120 and improving "
        f"(got {ratios[30]:.4f} -> {ratios[60]:.4f} -> {ratios[120]:.4f})",
        ok,
    )


def test_exact_second_moment_ratio_trend(k4):
    # the second-moment analogue of criterion 7: small subgraph conditioning
    # needs E[Y^2]/E[Y]^2 -> exp(sum lambda_j delta_j^2), which is
    # ey2_asym/ey_asym^2 at every n; under the default cap the exact sum on
    # K4 now reaches n = 9.  The approach need not be from above: n = 12
    # (past the default cap) already lies below the constant.
    constant = math.exp(ey2_asym(k4, 9, 3).log - 2 * ey_asym(k4, 9, 3).log)
    ratios = {n: expected_Y2_exact(k4, n, 3) / expected_Y_exact(k4, n, 3) ** 2 for n in (3, 6, 9)}
    assert ratios == {
        3: Fraction(297, 32),
        6: Fraction(906268743, 625000000),
        9: Fraction(8178483745215325, 5997984525582336),
    }
    gaps = [abs(float(ratios[n]) - constant) for n in (3, 6, 9)]
    report(
        f"exact E[Y^2]/E[Y]^2 on K4 (k=3) nears {constant:.5f} at each step "
        f"(got {float(ratios[3]):.5f} -> {float(ratios[6]):.5f} -> {float(ratios[9]):.5f})",
        gaps[0] > gaps[1] > gaps[2] and constant == pytest.approx(1.36219, abs=5e-6),
    )


def test_criterion_08_optimization_inequalities(k4):
    rng = np.random.default_rng(271828)
    ok = True
    for q, c in ((3, 1.8), (4, 3.7)):
        assert c < c_q(q)
        mats = rng.dirichlet(np.ones(q), size=(100_000, q))
        ok &= float(square_gap(mats, c).min()) >= -1e-10
    for q, k in ((4, 3), (5, 4)):
        c = 0.99 * rect_coefficient_bound(q, k)
        mats = rng.dirichlet(np.ones(k), size=(100_000, q))
        ok &= float(rect_gap(mats, c).min()) >= -1e-10
    ascent = verify_max_uniform("F", g=k4, k=3, trials=200, seed=314)
    ok &= ascent.gap_to_uniform >= -1e-9
    report("8: zero inequality violations over 10^5 trials; ascent stays at uniform", ok)


def test_criterion_09_B_spectrum():
    ok = B_spectrum_check(3, tol=1e-8) and B_spectrum_check(4, tol=1e-8)
    report("9: quadratic-form matrix spectrum matches listed multiset (k = 3, 4)", ok)


def test_criterion_10_monte_carlo_cycle_means(k4):
    rec3 = mc_expectation(k4, 100, None, "Z3", samples=2000, seed=2024, cell_index=0)
    rec4 = mc_expectation(k4, 100, None, "Z4", samples=2000, seed=2024, cell_index=1)
    lam3 = walk_count_cj(k4, 3) / 6  # 4
    lam4 = walk_count_cj(k4, 4) / 8  # 3
    ok = (
        abs(rec3.mean - lam3) <= 3 * rec3.stderr
        and abs(rec4.mean - lam4) <= 3 * rec4.stderr
    )
    report(
        f"10: MC cycle means Z3 = {rec3.mean:.3f} (lambda 4), Z4 = {rec4.mean:.3f} "
        "(lambda 3) within 3 stderr over 2000 lifts",
        ok,
    )


@pytest.mark.slow
def test_criterion_11_chromatic_window(k4):
    k6 = make_complete_graph(6)
    chis = []
    for i in range(100):
        lg = expand(sample_lift(k4, 200, sample_seed(777, 0, i)))
        chis.append(chromatic_number(lg))
    one_point_ok = all(c == 3 for c in chis)

    bracketed = 0
    censored = 0
    for i in range(30):
        lg = expand(sample_lift(k6, 50, sample_seed(778, 0, i)))
        lo, hi = chromatic_bounds(lg, refine_budget=10**5)
        if 3 <= lo and hi <= 4:
            bracketed += 1
        else:
            censored += 1
    two_point_ok = censored < 0.10 * 30 and bracketed + censored == 30
    report(
        f"11: chromatic window: d=3 all chi=3 ({one_point_ok}); d=5 chi in {{3,4}} "
        f"with {censored} censored of 30",
        one_point_ok and two_point_ok,
    )


def test_criterion_12_threshold_table():
    ok = True
    for k in range(3, 51):
        ok &= u_threshold(k - 1) < ell_threshold(k) - 1e-9
        ok &= ell_threshold(k) < u_threshold(k) - 1e-9
        ok &= u_threshold(k) < (2 * k - 1) * math.log(k)
        ok &= ell_threshold(k) > 2 * (k - 1) * math.log(k - 1)
    ok &= k_d(3) == 3 and k_d(7) == 4
    report("12: threshold table interleaving and k_d values", ok)
