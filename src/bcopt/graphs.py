"""Undirected multigraphs with integer edge ids, plus the deterministic
greedy matching used by the exchange-set construction.

Edges are identified by integer ids; masks over edge ids use bit position
= id, so masks stay comparable across restricted subgraphs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InputError


def _is_int(x: object) -> bool:
    """True for an int that is not a bool: True and False are ints to
    Python but serialize as JSON booleans, which do not load back."""
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


class Graph:
    """Undirected multigraph on vertices 0..num_vertices-1.

    Parameters
    ----------
    num_vertices : int
        Number of vertices; endpoints must lie in range.
    edges : mapping of edge id -> (u, v)
        Loops are rejected; parallel edges are allowed.  Endpoint pairs
        are normalized to (min, max).
    """

    __slots__ = ("num_vertices", "edge_ends", "_vmask", "_edge_ids")

    def __init__(self, num_vertices: int, edges: Mapping[int, tuple[int, int]]):
        if not _is_int(num_vertices) or num_vertices < 0:
            raise InputError(f"bad vertex count: {num_vertices!r}")
        ends: dict[int, tuple[int, int]] = {}
        vmask: dict[int, int] = {}
        for eid, (u, v) in edges.items():
            if not _is_int(eid) or eid < 0:
                raise InputError(f"bad edge id: {eid!r}")
            if not _is_int(u) or not _is_int(v):
                raise InputError(f"edge {eid}: endpoints must be integers: {(u, v)!r}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise InputError(f"edge {eid}: endpoint out of range: ({u}, {v})")
            if u == v:
                raise InputError(f"edge {eid}: loops not allowed")
            if u > v:
                u, v = v, u
            ends[eid] = (u, v)
            vmask[eid] = (1 << u) | (1 << v)
        self.num_vertices = num_vertices
        self.edge_ends = ends
        self._vmask = vmask
        self._edge_ids = tuple(sorted(ends))

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return self._edge_ids

    def is_matching(self, edge_ids: Iterable[int]) -> bool:
        """True iff the edge set covers no vertex twice."""
        used = 0
        for e in edge_ids:
            try:
                vm = self._vmask[e]
            except KeyError:
                raise InputError(f"unknown edge id: {e!r}") from None
            if used & vm:
                return False
            used |= vm
        return True

    def adjacent_edges(self, e: int) -> tuple[int, ...]:
        """Edge ids sharing at least one endpoint with e (excluding e).
        Parallel copies of e count as adjacent."""
        vm = self._vmask[e]
        return tuple(f for f in self._edge_ids if f != e and self._vmask[f] & vm)

    def restrict(self, keep: Iterable[int]) -> "Graph":
        keep = set(keep)
        unknown = keep - set(self.edge_ends)
        if unknown:
            raise InputError(f"unknown edge ids: {sorted(unknown)}")
        return Graph(self.num_vertices, {e: self.edge_ends[e] for e in keep})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self.edge_ends == other.edge_ends
        )

    def __repr__(self) -> str:
        return f"Graph({self.num_vertices}, {self.edge_ends!r})"


def greedy_matching(
    graph: Graph,
    size_cap: int,
    cost: Mapping[int, Fraction] | Sequence[int],
) -> list[int]:
    """Grow a matching by repeatedly taking the cheapest available edge.

    Edges are scanned in (cost, id) order; an edge is taken when it is
    vertex-disjoint from the matching built so far.  Stops when the
    matching reaches size_cap or no edge can be added.  Returns edge ids
    in the order taken.

    The output matching M is maximal among matchings of size ≤ size_cap
    in the following exact sense: every non-member edge a either
    (i) conflicts with some b in M of cost ≤ cost(a), or
    (ii) |M| = size_cap, every member costs ≤ cost(a), and M + a is
    still a matching.
    """
    if size_cap < 1:
        raise InputError(f"size cap must be at least 1, got {size_cap}")
    order = sorted(graph.edge_ids, key=lambda e: (cost[e], e))
    chosen: list[int] = []
    used = 0
    for e in order:
        if len(chosen) >= size_cap:
            break
        vm = graph._vmask[e]
        if not used & vm:
            chosen.append(e)
            used |= vm
    return chosen


def connected_components_edges(
    graph: Graph, edge_ids: Sequence[int]
) -> list[list[int]]:
    """Partition the given edges into connected components of the
    subgraph they induce.  Components are returned sorted by their
    minimum edge id; edges within a component are sorted by id."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edge_ids:
        u, v = graph.edge_ends[e]
        for w in (u, v):
            if w not in parent:
                parent[w] = w
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for e in sorted(edge_ids):
        root = find(graph.edge_ends[e][0])
        groups.setdefault(root, []).append(e)
    return sorted(groups.values(), key=lambda g: g[0])
