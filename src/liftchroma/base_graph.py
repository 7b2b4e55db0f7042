"""Loopless d-regular multigraphs with a fixed edge orientation.

These are the graphs that get lifted.  Edges are ordered (tail, head) pairs
and repeated pairs encode multi-edges; the stored edge order is frozen at
construction and every edge-indexed quantity downstream (matchings, overlap
vectors) refers to it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidGraphError


@dataclass(frozen=True)
class BaseGraph:
    """A loopless regular multigraph with an arbitrary but fixed orientation.

    The invariants are checked once, here: construction raises
    InvalidGraphError naming the violated one (fewer than 2 vertices, an
    endpoint out of range, a loop, irregular degrees, or d < 2), so every
    BaseGraph in existence is valid and carries its degree d as ``degree``.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        edges = tuple((int(t), int(h)) for t, h in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.num_vertices < 2:
            raise InvalidGraphError(f"too few vertices: {self.num_vertices} < 2")
        for t, h in edges:
            if not (0 <= t < self.num_vertices and 0 <= h < self.num_vertices):
                raise InvalidGraphError(f"edge ({t}, {h}) has endpoint out of range")
            if t == h:
                raise InvalidGraphError(f"loop found at vertex {t}")
        # Degrees over the edge endpoints only, so the work follows the edge
        # list, never the vertex count; a vertex on no edge has degree 0.
        counts = Counter(v for edge in edges for v in edge)
        d = counts[0]
        bad = [v for v, c in counts.items() if c != d]
        if d and len(counts) < self.num_vertices:
            bad.append(next(v for v in range(self.num_vertices) if v not in counts))
        if bad:
            v = min(bad)
            raise InvalidGraphError(
                f"degree mismatch: vertex {v} has degree {counts[v]}, vertex 0 has {d}"
            )
        if d < 2:
            raise InvalidGraphError(f"degree {d} < 2")
        object.__setattr__(self, "degree", d)

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


def adjacency_spectrum(g: BaseGraph) -> tuple[float, ...]:
    """Eigenvalues of the adjacency matrix, sorted descending.

    Dense symmetric solve; base graphs are small (tens of vertices).
    """
    eig = np.linalg.eigvalsh(g.adjacency_matrix().astype(float))
    eig_desc = tuple(float(x) for x in eig[::-1])
    assert abs(eig_desc[0] - g.degree) < 1e-8, "top eigenvalue must equal the degree"
    assert abs(sum(eig_desc)) < 1e-8, "loopless trace forces eigenvalue sum 0"
    return eig_desc


def parse_edge_list(text: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The vertex count and edges written in the text format, unchecked."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("graph text needs a 'V E' header line")
    nv, ne = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != 2 * ne:
        raise ValueError(f"expected {2 * ne} endpoint tokens, got {len(body)}")
    return nv, tuple((int(body[2 * i]), int(body[2 * i + 1])) for i in range(ne))


_COMPLETE_RE = re.compile(r"^K(\d+)$")


def read_edge_list(spec: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The vertex count and edges named by the shorthand "Km" or by a path
    to a graph text file; a file's edges need not form a BaseGraph."""
    m = _COMPLETE_RE.match(spec.strip())
    if m:
        g = make_complete_graph(int(m.group(1)))
        return g.num_vertices, g.edges
    path = Path(spec)
    if not path.exists():
        raise ValueError(f"graph spec {spec!r} is neither 'Km' nor an existing file")
    return parse_edge_list(path.read_text())


def resolve_graph_arg(spec: str) -> BaseGraph:
    """Accept the shorthand "Km" or a path to a graph text file."""
    return BaseGraph(*read_edge_list(spec))
