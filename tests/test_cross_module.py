"""Trend and consistency checks that span several modules."""

import math
from fractions import Fraction

import numpy as np
import pytest

from liftchroma.asymptotics import joint_moment_prediction, log_rate
from liftchroma.experiments import joint_ratio_estimate, mc_expectation
from liftchroma.moments_exact import (
    expected_Y_exact,
    expected_Y_exact_extended,
)
from liftchroma.stochastic_opt import F_A, uniform_pair_profile, xlogx


def test_quota_increment_ratio_approaches_rate(k3):
    # adding one vertex per fiber multiplies E[Y] by k^{|V|}((k-1)/k)^{|E|}
    # in the limit; the exact ratio should approach that rate monotonically
    rate = math.exp(log_rate(k3, 3))
    assert rate == pytest.approx(8.0, rel=1e-12)
    ratios = []
    for n in (30, 60, 120):
        ratios.append(
            float(expected_Y_exact_extended(k3, n + 1, 3) / expected_Y_exact(k3, n, 3))
        )
    assert abs(ratios[2] - rate) < abs(ratios[1] - rate) < abs(ratios[0] - rate)


def _f_AB(g, A, B) -> float:
    """Second-moment overlap functional over pair profiles A (|V|, k, k) and
    B (|E|, k, k, k, k) indexed [e, i, j, i', j'], B supported on i != i',
    j != j': -sum A log A + sum_e sum B log(A_v[i, j] A_v'[i', j'] / B)."""
    total = -float(np.sum(xlogx(A)))
    for (tail, head), b in zip(g.edges, B):
        outer = np.multiply.outer(A[tail], A[head])
        total += float(np.sum(b[b > 0] * np.log(outer[b > 0] / b[b > 0])))
    return total


def test_f_AB_uniform_matches_F(k4):
    k = 3
    a_hat = uniform_pair_profile(k4, k)
    b_hat = np.zeros((k4.num_edges, k, k, k, k))
    for i in range(k):
        for j in range(k):
            for i2 in range(k):
                for j2 in range(k):
                    if i != i2 and j != j2:
                        b_hat[:, i, j, i2, j2] = 1 / (k * (k - 1)) ** 2
    val = _f_AB(k4, a_hat, b_hat)
    assert val == pytest.approx(2 * log_rate(k4, 3), abs=1e-12)
    assert val == pytest.approx(F_A(k4, a_hat), abs=1e-12)


def test_chi_concentrates_in_one_point_regime(k4):
    # d = 3 < ell_3: every sampled lift at moderate n is exactly 3-chromatic
    rec = mc_expectation(k4, 50, 3, "chi", samples=100, seed=31)
    assert rec.mean == 3.0
    assert rec.stderr == 0.0
    assert rec.censored == 0


def test_joint_ratio_trend_diagnostic(k4):
    # sampled ratio at small n, compared against the limit prediction 3;
    # diagnostic only, so the band is wide
    value = joint_ratio_estimate(k4, 6, 3, 3, samples=300, seed=8)
    prediction = joint_moment_prediction(k4, 3, 3)
    assert prediction == pytest.approx(3.0)
    assert 0.5 * prediction <= value <= 2.0 * prediction


def test_two_cycle_mean_matches_lambda2(doubled_triangle):
    # multigraph bases lift to graphs with parallel edges; the mean number
    # of 2-cycles over all lifts equals lambda_2 = c_2/4 exactly
    from liftchroma.asymptotics import walk_count_cj
    from liftchroma.lift import count_cycles, expand
    from liftchroma.moments_exact import brute_force_moment

    lam2 = Fraction(walk_count_cj(doubled_triangle, 2), 4)
    assert lam2 == 3
    mean = brute_force_moment(
        doubled_triangle, 2, lambda l: count_cycles(expand(l), 2)
    )
    assert mean == lam2


def test_multigraph_triangle_multiplicity(doubled_triangle):
    # every 3-cycle of the doubled triangle picks one of two parallel edges
    # per side: 2^3 = 8 triangles, matching lambda_3 = c_3/6 exactly
    from liftchroma.asymptotics import walk_count_cj
    from liftchroma.lift import count_cycles, expand, sample_lift

    base_as_lift = expand(sample_lift(doubled_triangle, 1, 0))
    assert count_cycles(base_as_lift, 3) == 8
    assert count_cycles(base_as_lift, 2) == 3
    assert Fraction(walk_count_cj(doubled_triangle, 3), 6) == 8


def test_rho_bounds_random():
    # q/k <= rho(M) <= q for row-stochastic matrices, with the extremes at
    # the uniform matrix and at 0/1 matrices
    from liftchroma.stochastic_opt import rho

    rng = np.random.default_rng(23)
    for _ in range(500):
        q, k = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        m = rng.dirichlet(np.ones(k), size=q)
        assert q / k - 1e-12 <= rho(m) <= q + 1e-12
    assert rho(np.full((4, 4), 0.25)) == pytest.approx(1.0)
    assert rho(np.eye(5)) == pytest.approx(5.0)


@pytest.mark.slow
def test_mc_mean_z3_large_sample(k3):
    # E[Z_3] over (K_3, n=2) is exactly 1
    rec = mc_expectation(k3, 2, None, "Z3", samples=100_000, seed=11)
    assert abs(rec.mean - 1.0) <= 3 * rec.stderr
