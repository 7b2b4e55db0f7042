import gc
import json
import math
from collections import Counter

import numpy as np
import pytest

from conftest import identity_lift, six_cycle_lift
from liftchroma.errors import TooLargeError
from liftchroma.lift import (
    Lift,
    LiftedGraph,
    count_cycles,
    count_cycles_up_to,
    enumerate_lifts,
    expand,
    sample_lift,
    verify_covering,
)


def test_sampling_deterministic(k4):
    a = sample_lift(k4, 100, 7)
    b = sample_lift(k4, 100, 7)
    assert a.matchings == b.matchings
    assert a.seed == 7


def test_one_lift_is_base(k3):
    lift = sample_lift(k3, 1, 123)
    lg = expand(lift)
    assert lg.num_vertices == 3
    assert sorted(tuple(sorted(e)) for e in lg.edges) == [(0, 1), (0, 2), (1, 2)]


def test_sample_rejects_zero_fiber(k3):
    with pytest.raises(ValueError):
        sample_lift(k3, 0, 1)


def test_sample_frequencies_uniform(k3):
    # all 8 lifts of (K_3, n=2) should appear with frequency 1/8
    draws = 100_000
    rng = np.random.default_rng(20240817)
    counts = Counter(sample_lift(k3, 2, rng).matchings for _ in range(draws))
    assert len(counts) == 8
    p = 1 / 8
    sigma = math.sqrt(p * (1 - p) / draws)
    for freq in counts.values():
        assert abs(freq / draws - p) < 3 * sigma


def test_enumerate_counts(k3, k4):
    assert sum(1 for _ in enumerate_lifts(k3, 2)) == 8
    assert sum(1 for _ in enumerate_lifts(k3, 3)) == 216
    with pytest.raises(TooLargeError):
        list(enumerate_lifts(k4, 3, cap=10**4))


def test_enumerate_unique(k3):
    seen = {lift.matchings for lift in enumerate_lifts(k3, 2)}
    assert len(seen) == 8


def test_expand_identity_is_disjoint_triangles(k3):
    lg = expand(identity_lift(k3, 3))
    assert lg.num_vertices == 9
    assert count_cycles(lg, 3) == 3
    # projection of each edge stays within matching fiber indices
    for u, w in lg.edges:
        assert u % 3 == w % 3


def test_expand_six_cycle(k3):
    lg = expand(six_cycle_lift(k3))
    assert count_cycles(lg, 3) == 0
    assert count_cycles(lg, 6) == 1
    assert all(len(a) == 2 for a in lg.adjacency)


def test_expand_regularity(k4):
    lg = expand(sample_lift(k4, 10, 3))
    assert lg.num_vertices == 40
    assert lg.num_edges == 60
    assert all(len(a) == 3 for a in lg.adjacency)


def test_verify_covering_sampled(k4):
    lg = expand(sample_lift(k4, 20, 99))
    assert verify_covering(lg, k4)


def test_verify_covering_detects_rewiring(k4):
    lg = expand(sample_lift(k4, 20, 99))
    edges = list(lg.edges)
    u, w = edges[0]
    edges[0] = (u, (w + 20) % 80)  # head moved into a different fiber
    broken = LiftedGraph(num_vertices=80, edges=tuple(edges), base=k4, n=20)
    assert not verify_covering(broken, k4)


def test_verify_covering_disjoint_union(k3):
    # two independent 2-lifts glued side by side form a valid 4-lift
    parts = [expand(sample_lift(k3, 2, seed)) for seed in (11, 22)]
    edges = []
    for offset, part in zip((0, 2), parts):
        edges.extend(
            (u // 2 * 4 + u % 2 + offset, w // 2 * 4 + w % 2 + offset)
            for u, w in part.edges
        )
    union = LiftedGraph(num_vertices=12, edges=tuple(edges), base=k3, n=4)
    assert verify_covering(union, k3)


def test_count_cycles_base_k4(k4):
    lg = expand(sample_lift(k4, 1, 0))
    assert count_cycles(lg, 3) == 4


def test_count_cycles_sum_over_enumeration(k3):
    # exhaustive count: 4 lifts are two disjoint triangles (Z_3 = 2 each),
    # the other 4 are 6-cycles (Z_3 = 0)
    z3 = [count_cycles(expand(lift), 3) for lift in enumerate_lifts(k3, 2)]
    assert sorted(z3) == [0, 0, 0, 0, 2, 2, 2, 2]
    assert sum(z3) == 8


def test_count_cycles_validation(k3):
    lg = expand(sample_lift(k3, 2, 0))
    with pytest.raises(ValueError):
        count_cycles(lg, 1)
    with pytest.raises(ValueError):
        count_cycles(lg, 13)


def test_cycle_count_leaves_no_reference_cycle(k4):
    # a leftover cycle would keep the lift's adjacency alive until the
    # cyclic collector ran, raising the peak memory of a sampling loop
    lg = expand(sample_lift(k4, 50, 3))
    gc.collect()
    assert count_cycles_up_to(lg, 6)[3] == count_cycles(lg, 3)
    assert gc.collect() == 0


def test_two_cycles_from_multigraph_base(doubled_triangle):
    # parallel base edges can lift to parallel lifted edges
    lift = identity_lift(doubled_triangle, 2)
    lg = expand(lift)
    counts = count_cycles_up_to(lg, 3)
    assert counts[2] == 6  # every parallel pair collapses onto the same matching
    assert verify_covering(lg, doubled_triangle)


def test_covering_property_random_samples(k3, k4, petersen):
    for g, n, seed in [(k3, 5, 1), (k4, 7, 2), (petersen, 4, 3)]:
        lift = sample_lift(g, n, seed)
        assert verify_covering(expand(lift), g)


def test_lift_json_roundtrip(k4):
    lift = sample_lift(k4, 6, 42)
    text = lift.to_json()
    rec = json.loads(text)
    assert rec["n"] == 6 and rec["seed"] == 42
    back = Lift.from_json(k4, text)
    assert back.matchings == lift.matchings


def test_lift_validation(k3):
    with pytest.raises(ValueError):
        Lift(base=k3, n=2, matchings=((0, 1), (0, 1)))  # wrong count
    with pytest.raises(ValueError):
        Lift(base=k3, n=2, matchings=((0, 0), (0, 1), (1, 0)))  # not a bijection
