import math

import numpy as np
import pytest

from conftest import cycle_lifted_graph
from liftchroma.asymptotics import (
    B_spectrum_check,
    brute_force_walk_count,
    build_B,
    c1,
    c2,
    cycle_colorings,
    ey2_asym,
    ey_asym,
    expected_B_spectrum,
    h_dk,
    joint_moment_prediction,
    lambdas,
    sscm_constants,
    sscm_identity_check,
    variance_series_terms,
    walk_count_cj,
)
from liftchroma.base_graph import make_complete_graph
from liftchroma.coloring import count_proper_colorings
from liftchroma.errors import DivergentSeriesError, DomainError
from liftchroma.moments_exact import expected_Y_exact


def test_walk_counts_frozen(k3, k4):
    assert walk_count_cj(k4, 3) == 24
    assert walk_count_cj(k3, 3) == 6
    assert walk_count_cj(k4, 1) == 0
    assert walk_count_cj(k4, 2) == 0


def test_walk_counts_match_enumeration(k3, k4, petersen):
    for g in (k3, k4, petersen):
        for j in range(1, 7):
            assert walk_count_cj(g, j) == brute_force_walk_count(g, j)


def _hashimoto_trace(g, j: int) -> int:
    """Oracle: tr(B^j) in integers, B the non-backtracking matrix on
    directed edges (2e is tail->head, 2e+1 the reverse)."""
    tails, heads = [], []
    for t, h in g.edges:
        tails += [t, h]
        heads += [h, t]
    m = len(tails)
    b = [[int(heads[e] == tails[f] and f != e ^ 1) for f in range(m)] for e in range(m)]
    power = b
    for _ in range(j - 1):
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in power]
    return sum(power[e][e] for e in range(m))


def test_walk_counts_exact_at_large_j(petersen, doubled_triangle):
    # the float-spectrum version raised for K6 at j = 18..25, returned
    # 1152921501705843456 at j = 30 and raised for Petersen from j = 30
    k6 = make_complete_graph(6)
    assert walk_count_cj(k6, 19) == 274872684600
    assert walk_count_cj(k6, 30) == 1152921501705873360
    assert walk_count_cj(petersen, 30) == 1073792280
    for g in (k6, petersen, doubled_triangle):
        for j in (1, 2, 7, 18, 25, 31):
            assert walk_count_cj(g, j) == _hashimoto_trace(g, j)


def test_walk_counts_multigraph(doubled_triangle):
    assert walk_count_cj(doubled_triangle, 2) == 12
    assert walk_count_cj(doubled_triangle, 2) == brute_force_walk_count(
        doubled_triangle, 2
    )


def test_sscm_constants(k3, k4):
    const = sscm_constants(k4, 3, 4)
    assert const.lam[0] == 0 and const.lam[1] == 0
    assert const.lam[2] == pytest.approx(4.0)
    assert const.delta[2] == pytest.approx(-0.25)
    assert const.lam[2] * (1 + const.delta[2]) == pytest.approx(3.0)
    assert sscm_constants(k3, 3, 3).lam[2] == pytest.approx(1.0)
    assert const.convergence_ratio == pytest.approx(math.sqrt(2) / 4)


def test_lambda12_vanish_for_simple_bases(k3, k4, k5, petersen):
    for g in (k3, k4, k5, petersen):
        assert walk_count_cj(g, 1) == 0
        assert walk_count_cj(g, 2) == 0


def test_c1_values(k3, k4):
    assert c1(k4, 3) == pytest.approx(4096.0, rel=1e-12)
    assert c1(k3, 3) == pytest.approx(3**4.5 * (4 / 3) ** 3, rel=1e-12)
    for k in range(3, 11):
        for m in range(4, 9):
            assert c1(make_complete_graph(m), k) > 0


def test_h_values(k3, k4):
    assert h_dk(k4, 3) == pytest.approx(0.6**4 * 6 * 22**3, rel=1e-12)
    assert h_dk(k3, 3) == pytest.approx(0.6**3 * 9 * 21**2, rel=1e-12)


def test_c2_positive(k3, k4):
    assert c2(k3, 3) > 0
    assert c2(k4, 3) > 0


def test_identity_check_gap(k4, k5):
    chk4 = sscm_identity_check(k4, 3, 200)
    assert chk4.gap < 1e-8
    assert chk4.lhs == pytest.approx(chk4.closed_form, rel=1e-10)
    chk5 = sscm_identity_check(k5, 3, 400)
    assert chk5.gap < 1e-8
    assert chk5.lhs == pytest.approx(chk5.closed_form, rel=1e-10)


def test_identity_check_auto_extension(k4):
    chk = sscm_identity_check(k4, 3)
    assert chk.J >= 200
    assert chk.gap < 1e-8


def test_identity_gap_monotone(k4):
    # once past the burn-in, longer truncations never increase the gap
    lhs = sscm_identity_check(k4, 3, 50).lhs
    gaps = []
    for J in (50, 100, 150, 200):
        partial = math.fsum(variance_series_terms(k4, 3, J))
        gaps.append(abs(lhs - partial))
    assert all(g2 <= g1 + 1e-15 for g1, g2 in zip(gaps, gaps[1:]))


def test_identity_divergent(k3):
    k12 = make_complete_graph(12)
    with pytest.raises(DivergentSeriesError):
        sscm_identity_check(k12, 3, 10)


def test_cycle_colorings_closed_form():
    assert cycle_colorings(3, 3) == 6
    assert cycle_colorings(4, 3) == 18
    assert cycle_colorings(3, 2) == 0


@pytest.mark.parametrize("j", range(3, 9))
@pytest.mark.parametrize("k", range(2, 6))
def test_cycle_colorings_vs_exact_count(j, k):
    assert cycle_colorings(j, k) == count_proper_colorings(cycle_lifted_graph(j), k)


def test_ey_asym_positive_and_ratio(k3):
    val = ey_asym(k3, 3, 3)
    assert val.sign == 1
    # E[Y^2]/E[Y]^2 ratio is n-free: C2/C1^2
    for n in (30, 60):
        ratio = ey2_asym(k3, n, 3).log - 2 * ey_asym(k3, n, 3).log
        assert ratio == pytest.approx(math.log(c2(k3, 3) / c1(k3, 3) ** 2), rel=1e-9)


def test_ey_asym_requires_divisibility(k3):
    with pytest.raises(ValueError):
        ey_asym(k3, 4, 3)


def test_ey2_asym_requires_subcritical_degree(k5):
    with pytest.raises(DomainError):
        ey2_asym(k5, 30, 3)  # d = 4 >= ell_3


def test_exact_to_asym_trend(k3):
    ratios = []
    for n in (30, 60):
        exact = expected_Y_exact(k3, n, 3)
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        ratios.append(math.exp(log_exact - ey_asym(k3, n, 3).log))
    assert abs(ratios[1] - 1) < abs(ratios[0] - 1)


def test_joint_moment_predictions(k3, k4):
    assert joint_moment_prediction(k4, 3, 3) == pytest.approx(3.0)
    assert joint_moment_prediction(k3, 3, 3) == pytest.approx(0.75)
    assert joint_moment_prediction(k4, 3, 4) == pytest.approx(3 * (1 + 1 / 8))


def test_B_matrix(k3):
    b = build_B(3)
    assert b.shape == (18, 18)
    assert np.trace(b) == pytest.approx(72)
    assert B_spectrum_check(3)
    assert B_spectrum_check(4)
    expected = expected_B_spectrum(3)
    assert sorted(expected, reverse=True)[:2] == [8, 6]
    assert len(expected) == 18
    for k in range(3, 7):
        lam, lamp = lambdas(k)
        assert lam * lamp == (k - 1) ** 4 - 1
