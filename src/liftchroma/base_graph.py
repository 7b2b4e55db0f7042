"""Loopless d-regular multigraphs with a fixed edge orientation.

These are the graphs that get lifted.  Edges are ordered (tail, head) pairs
and repeated pairs encode multi-edges; the stored edge order is frozen at
construction and every edge-indexed quantity downstream (matchings, overlap
vectors) refers to it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidGraphError


@dataclass(frozen=True)
class BaseGraph:
    """A loopless regular multigraph with an arbitrary but fixed orientation;
    :func:`validate` checks the invariants and returns the degree."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple((int(t), int(h)) for t, h in self.edges)
        object.__setattr__(self, "edges", edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency_matrix(self) -> np.ndarray:
        """Symmetric adjacency matrix; multi-edges add multiplicity."""
        a = np.zeros((self.num_vertices, self.num_vertices), dtype=np.int64)
        for t, h in self.edges:
            a[t, h] += 1
            a[h, t] += 1
        return a

    def neighbor_multiset(self, v: int) -> dict[int, int]:
        """Neighbours of v with edge multiplicities."""
        out: dict[int, int] = {}
        for t, h in self.edges:
            if t == v:
                out[h] = out.get(h, 0) + 1
            if h == v:
                out[t] = out.get(t, 0) + 1
        return out


@dataclass(frozen=True)
class SpectralSummary:
    """Adjacency eigenvalues sorted descending, with the regular degree."""

    eigenvalues: tuple[float, ...]
    degree: int


def make_complete_graph(m: int) -> BaseGraph:
    """K_m with its m(m-1)/2 edges oriented lexicographically; degree m-1."""
    if m < 3:
        raise ValueError(f"complete base graph needs m >= 3, got {m}")
    edges = tuple((i, j) for i in range(m) for j in range(i + 1, m))
    return BaseGraph(num_vertices=m, edges=edges)


def make_cycle_graph(m: int) -> BaseGraph:
    """The m-cycle (2-regular), edges (i, i+1 mod m) in index order."""
    if m < 3:
        raise ValueError(f"cycle needs m >= 3, got {m}")
    return BaseGraph(num_vertices=m, edges=tuple((i, (i + 1) % m) for i in range(m)))


def make_petersen_graph() -> BaseGraph:
    """The Petersen graph: outer 5-cycle, spokes, inner pentagram."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return BaseGraph(num_vertices=10, edges=tuple(outer + spokes + inner))


def validate(g: BaseGraph) -> int:
    """Check all BaseGraph invariants and return the degree d.

    Raises InvalidGraphError naming the violated invariant: loops, vertex
    indices out of range, irregular degrees, d < 2, or fewer than 2 vertices.
    """
    if g.num_vertices < 2:
        raise InvalidGraphError(f"too few vertices: {g.num_vertices} < 2")
    counts = [0] * g.num_vertices
    for t, h in g.edges:
        if not (0 <= t < g.num_vertices and 0 <= h < g.num_vertices):
            raise InvalidGraphError(f"edge ({t}, {h}) has endpoint out of range")
        if t == h:
            raise InvalidGraphError(f"loop found at vertex {t}")
        counts[t] += 1
        counts[h] += 1
    d = counts[0]
    for v, c in enumerate(counts):
        if c != d:
            raise InvalidGraphError(
                f"degree mismatch: vertex {v} has degree {c}, vertex 0 has {d}"
            )
    if d < 2:
        raise InvalidGraphError(f"degree {d} < 2")
    return d


def connected_components(adj: Sequence[Sequence[int]]) -> list[tuple[list[int], bool]]:
    """Connected components of an adjacency-list graph, each paired with
    whether it is bipartite (a loop makes its component non-bipartite).

    Components come in order of their smallest vertex.  Each lists its
    vertices in stack-DFS order: a vertex is pushed when first seen, its
    neighbours in adjacency order, and listed when popped.  The colouring
    solvers' tie-breaks depend on this order.
    """
    side = [-1] * len(adj)
    out = []
    for s in range(len(adj)):
        if side[s] >= 0:
            continue
        side[s] = 0
        stack, comp, bipartite = [s], [], True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if side[w] < 0:
                    side[w] = side[u] ^ 1
                    stack.append(w)
                elif side[w] == side[u]:
                    bipartite = False
        out.append((comp, bipartite))
    return out


def adjacency_spectrum(g: BaseGraph) -> SpectralSummary:
    """Eigenvalues of the adjacency matrix, sorted descending.

    Dense symmetric solve; base graphs are small (tens of vertices).
    """
    d = validate(g)
    eig = np.linalg.eigvalsh(g.adjacency_matrix().astype(float))
    eig_desc = tuple(float(x) for x in eig[::-1])
    assert abs(eig_desc[0] - d) < 1e-8, "top eigenvalue must equal the degree"
    assert abs(sum(eig_desc)) < 1e-8, "loopless trace forces eigenvalue sum 0"
    return SpectralSummary(eigenvalues=eig_desc, degree=d)


def format_graph_text(g: BaseGraph) -> str:
    """Text format: first line "V E", then one "tail head" line per edge."""
    lines = [f"{g.num_vertices} {g.num_edges}"]
    lines.extend(f"{t} {h}" for t, h in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> BaseGraph:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("graph text needs a 'V E' header line")
    nv, ne = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != 2 * ne:
        raise ValueError(f"expected {2 * ne} endpoint tokens, got {len(body)}")
    edges = tuple((int(body[2 * i]), int(body[2 * i + 1])) for i in range(ne))
    return BaseGraph(num_vertices=nv, edges=edges)


_COMPLETE_RE = re.compile(r"^K(\d+)$")


def resolve_graph_arg(spec: str) -> BaseGraph:
    """Accept the shorthand "Km" or a path to a graph text file."""
    m = _COMPLETE_RE.match(spec.strip())
    if m:
        return make_complete_graph(int(m.group(1)))
    path = Path(spec)
    if not path.exists():
        raise ValueError(f"graph spec {spec!r} is neither 'Km' nor an existing file")
    return parse_graph_text(path.read_text())
