import tracemalloc

import numpy as np
import pytest

from liftchroma.base_graph import (
    BaseGraph,
    adjacency_spectrum,
    make_complete_graph,
    make_cycle_graph,
    make_petersen_graph,
    parse_edge_list,
    resolve_graph_arg,
)
from liftchroma.errors import InvalidGraphError


def test_complete_graph_shapes():
    g = make_complete_graph(4)
    assert g.num_vertices == 4
    assert g.num_edges == 6
    assert g.degree == 3
    g3 = make_complete_graph(3)
    assert (g3.num_vertices, g3.num_edges, g3.degree) == (3, 3, 2)


def test_complete_graph_rejects_small():
    with pytest.raises(ValueError):
        make_complete_graph(2)


def test_complete_graph_orientation_lexicographic():
    g = make_complete_graph(4)
    assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_validate_loop():
    with pytest.raises(InvalidGraphError, match="^loop found at vertex 0$"):
        BaseGraph(2, ((0, 0), (0, 1), (1, 0), (1, 1)))


def test_validate_degree_mismatch():
    with pytest.raises(
        InvalidGraphError, match="^degree mismatch: vertex 1 has degree 2, vertex 0 has 1$"
    ):
        BaseGraph(3, ((0, 1), (1, 2)))


def test_validate_too_few_vertices():
    with pytest.raises(InvalidGraphError, match="^too few vertices: 1 < 2$"):
        BaseGraph(1, ())


def test_validate_degree_below_two():
    with pytest.raises(InvalidGraphError, match="^degree 1 < 2$"):
        BaseGraph(2, ((0, 1),))


def test_validate_names_the_first_violation():
    # vertex count first, then edge by edge (range before loop), then
    # regularity, then d >= 2
    with pytest.raises(InvalidGraphError, match="^too few"):
        BaseGraph(1, ((0, 0),))
    with pytest.raises(InvalidGraphError, match=r"^edge \(5, 5\) has endpoint out of range$"):
        BaseGraph(3, ((5, 5), (1, 1)))
    with pytest.raises(InvalidGraphError, match="^loop found at vertex 1$"):
        BaseGraph(3, ((1, 1), (0, 5)))
    with pytest.raises(InvalidGraphError, match="^degree mismatch"):
        BaseGraph(4, ((0, 1), (2, 3), (2, 3)))


@pytest.mark.parametrize(
    "num_vertices,edges,message",
    [
        (1, (), "too few vertices: 1 < 2"),
        (-3, ((0, 1),), "too few vertices: -3 < 2"),
        (3, ((0, 1), (1, 3)), "edge (1, 3) has endpoint out of range"),
        (3, ((-1, 0),), "edge (-1, 0) has endpoint out of range"),
        (3, ((0, 1), (2, 2)), "loop found at vertex 2"),
        (3, ((0, 1), (1, 2)), "degree mismatch: vertex 1 has degree 2, vertex 0 has 1"),
        # a vertex on no edge has degree 0, vertex 0 included
        (4, ((0, 1), (1, 2), (2, 0)), "degree mismatch: vertex 3 has degree 0, vertex 0 has 2"),
        (4, ((1, 2), (2, 3), (3, 1)), "degree mismatch: vertex 1 has degree 2, vertex 0 has 0"),
        (10**7, ((0, 1), (0, 1)), "degree mismatch: vertex 2 has degree 0, vertex 0 has 2"),
        (3, (), "degree 0 < 2"),
        (2, ((0, 1),), "degree 1 < 2"),
    ],
)
def test_invalid_graph_messages(num_vertices, edges, message):
    with pytest.raises(InvalidGraphError) as info:
        BaseGraph(num_vertices, edges)
    assert str(info.value) == message


def test_huge_vertex_count_is_refused_without_a_per_vertex_list():
    # the checks cost memory in the edges, not in the header's vertex count
    tracemalloc.start()
    try:
        with pytest.raises(InvalidGraphError, match="^degree 0 < 2$"):
            BaseGraph(10**7, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_degree_is_stored(k3, k4, k5, petersen, doubled_triangle):
    graphs = [k3, k4, k5, make_complete_graph(6), petersen, doubled_triangle]
    graphs += [make_cycle_graph(m) for m in range(3, 9)]
    assert [g.degree for g in graphs] == [2, 3, 4, 5, 3, 4] + [2] * 6


def test_degree_outside_equality_hash_and_repr(k4):
    twin = BaseGraph(k4.num_vertices, k4.edges)
    assert twin == k4 and hash(twin) == hash(k4)
    assert repr(k4) == f"BaseGraph(num_vertices=4, edges={k4.edges!r})"


def test_spectrum_complete_graphs(k3, k4):
    assert np.allclose(adjacency_spectrum(k4), [3, -1, -1, -1], atol=1e-9)
    assert np.allclose(adjacency_spectrum(k3), [2, -1, -1], atol=1e-9)


def test_spectrum_doubled_triangle(doubled_triangle):
    # adjacency is 2(J - I) on 3 vertices; analytic eigenvalues 4, -2, -2
    assert np.allclose(adjacency_spectrum(doubled_triangle), [4, -2, -2], atol=1e-9)


def test_spectrum_petersen(petersen):
    assert np.allclose(adjacency_spectrum(petersen), [3] + [1] * 5 + [-2] * 4, atol=1e-9)


@pytest.mark.parametrize("maker", [lambda: make_complete_graph(5), make_petersen_graph, lambda: make_cycle_graph(7)])
def test_spectrum_invariants(maker):
    g = maker()
    eigenvalues = adjacency_spectrum(g)
    assert abs(sum(eigenvalues)) < 1e-9
    assert abs(eigenvalues[0] - g.degree) < 1e-9


def test_spectrum_relabeling_invariance(petersen):
    rng = np.random.default_rng(5)
    base = adjacency_spectrum(petersen)
    for _ in range(5):
        perm = rng.permutation(petersen.num_vertices)
        relabeled = BaseGraph(
            petersen.num_vertices,
            tuple((int(perm[t]), int(perm[h])) for t, h in petersen.edges),
        )
        assert np.allclose(adjacency_spectrum(relabeled), base, atol=1e-9)


def _graph_text(g: BaseGraph) -> str:
    """Text format: first line "V E", then one "tail head" line per edge."""
    lines = [f"{g.num_vertices} {g.num_edges}"] + [f"{t} {h}" for t, h in g.edges]
    return "\n".join(lines) + "\n"


def test_text_format_roundtrip(k4):
    text = _graph_text(k4)
    assert text.splitlines()[0] == "4 6"
    parsed = BaseGraph(*parse_edge_list(text))
    assert parsed == k4


def test_resolve_graph_arg_shorthand_and_file(tmp_path, k5):
    assert resolve_graph_arg("K5") == k5
    path = tmp_path / "g.txt"
    path.write_text(_graph_text(k5))
    assert resolve_graph_arg(str(path)) == k5
    with pytest.raises(ValueError):
        resolve_graph_arg("no-such-thing")
