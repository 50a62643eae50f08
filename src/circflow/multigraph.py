"""Loopless undirected multigraphs with stable vertex and edge identities.

Every vertex and edge is addressed by a string id that survives subgraph
operations, matching duplication and vertex expansion.  Graphs are immutable
after construction; all operations return new graphs.  The module also holds
the one exact max-flow kernel, which flows and valuations share.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence


class GraphError(ValueError):
    """Structural error in a multigraph or a graph operation."""


class ParseError(GraphError):
    """Malformed textual graph input; carries a line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_token(kind: str, token: str) -> str:
    if not token or any(ch.isspace() for ch in token):
        raise GraphError(f"{kind} id {token!r} must be a nonempty token without whitespace")
    return token


@dataclass(frozen=True)
class Edge:
    eid: str
    u: str
    v: str

    def other(self, w: str) -> str:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise GraphError(f"vertex {w!r} is not an endpoint of edge {self.eid!r}")

    @property
    def ends(self) -> frozenset[str]:
        return frozenset((self.u, self.v))


class Multigraph:
    """Loopless multigraph.  Parallel edges are allowed, loops are not."""

    def __init__(self, vertices: Iterable[str] = (), edges: Iterable[tuple[str, str, str]] = ()):
        vs: dict[str, None] = {}
        for v in vertices:
            _check_token("vertex", v)
            if v in vs:
                raise GraphError(f"duplicate vertex id {v!r}")
            vs[v] = None
        es: dict[str, Edge] = {}
        incident: dict[str, list[str]] = {v: [] for v in vs}
        for eid, u, v in edges:
            _check_token("edge", eid)
            if eid in es:
                raise GraphError(f"duplicate edge id {eid!r}")
            if u == v:
                raise GraphError(f"edge {eid!r} is a loop at {u!r}")
            if u not in vs or v not in vs:
                raise GraphError(f"edge {eid!r} references unknown vertex")
            es[eid] = Edge(eid, u, v)
            incident[u].append(eid)
            incident[v].append(eid)
        self._vertices = tuple(vs)
        self._edges = es
        self._incident = {v: tuple(ids) for v, ids in incident.items()}

    # -- basic queries ---------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(self._edges)

    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._edges.values())

    def edge(self, eid: str) -> Edge:
        try:
            return self._edges[eid]
        except KeyError:
            raise GraphError(f"unknown edge id {eid!r}") from None

    def has_vertex(self, v: str) -> bool:
        return v in self._incident

    def has_edge(self, eid: str) -> bool:
        return eid in self._edges

    def num_vertices(self) -> int:
        return len(self._vertices)

    def num_edges(self) -> int:
        return len(self._edges)

    def degree(self, v: str) -> int:
        if v not in self._incident:
            raise GraphError(f"unknown vertex id {v!r}")
        return len(self._incident[v])

    def incident_edges(self, v: str) -> tuple[str, ...]:
        if v not in self._incident:
            raise GraphError(f"unknown vertex id {v!r}")
        return self._incident[v]

    def neighbors(self, v: str) -> tuple[str, ...]:
        """Neighbor list with multiplicity, in incidence order."""
        return tuple(self.edge(e).other(v) for e in self.incident_edges(v))

    def edges_between(self, u: str, v: str) -> tuple[str, ...]:
        pair = frozenset((u, v))
        return tuple(e for e in self.incident_edges(u) if self._edges[e].ends == pair)

    def max_degree(self) -> int:
        return max((self.degree(v) for v in self._vertices), default=0)

    def max_multiplicity(self) -> int:
        counts: dict[frozenset[str], int] = {}
        for e in self._edges.values():
            counts[e.ends] = counts.get(e.ends, 0) + 1
        return max(counts.values(), default=0)

    def is_regular(self, d: int | None = None) -> bool:
        degs = {self.degree(v) for v in self._vertices}
        if len(degs) > 1:
            return False
        if d is None:
            return True
        return degs == {d} if degs else d == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (
            set(self._vertices) == set(other._vertices)
            and self._edges.keys() == other._edges.keys()
            and all(self._edges[e].ends == other._edges[e].ends for e in self._edges)
        )

    def __repr__(self) -> str:
        return f"Multigraph(|V|={self.num_vertices()}, |E|={self.num_edges()})"

    # -- derived graphs ---------------------------------------------------

    def with_edges_removed(self, eids: Iterable[str]) -> Multigraph:
        gone = set(eids)
        for e in gone:
            self.edge(e)
        return Multigraph(
            self._vertices,
            [(e.eid, e.u, e.v) for e in self._edges.values() if e.eid not in gone],
        )

    def with_vertices_removed(self, vs: Iterable[str]) -> Multigraph:
        gone = set(vs)
        for v in gone:
            if v not in self._incident:
                raise GraphError(f"unknown vertex id {v!r}")
        return Multigraph(
            [v for v in self._vertices if v not in gone],
            [(e.eid, e.u, e.v) for e in self._edges.values() if not (e.u in gone or e.v in gone)],
        )

    def with_edges_added(self, edges: Iterable[tuple[str, str, str]],
                         new_vertices: Iterable[str] = ()) -> Multigraph:
        return Multigraph(
            list(self._vertices) + list(new_vertices),
            [(e.eid, e.u, e.v) for e in self._edges.values()] + list(edges),
        )

    def relabeled(self, vertex_map: Mapping[str, str], edge_map: Mapping[str, str] | None = None) -> Multigraph:
        """Rename vertices (and optionally edges) through total or partial maps."""
        vm = lambda v: vertex_map.get(v, v)
        em = (lambda e: edge_map.get(e, e)) if edge_map else (lambda e: e)
        return Multigraph(
            [vm(v) for v in self._vertices],
            [(em(e.eid), vm(e.u), vm(e.v)) for e in self._edges.values()],
        )


# -- cuts, matchings ------------------------------------------------------


@dataclass(frozen=True)
class EdgeCut:
    side: frozenset[str]
    edges: frozenset[str]


def edge_cut(g: Multigraph, x: Iterable[str]) -> EdgeCut:
    """The edge set with exactly one end in ``x``."""
    side = frozenset(x)
    if not side:
        raise GraphError("cut side must be nonempty")
    for v in side:
        if not g.has_vertex(v):
            raise GraphError(f"unknown vertex id {v!r}")
    if len(side) == g.num_vertices():
        raise GraphError("cut side must be a proper subset of the vertices")
    crossing = frozenset(e.eid for e in g.edges() if (e.u in side) != (e.v in side))
    return EdgeCut(side, crossing)


def is_matching(g: Multigraph, eids: Iterable[str]) -> bool:
    seen: set[str] = set()
    for eid in eids:
        e = g.edge(eid)
        if e.u in seen or e.v in seen:
            return False
        seen.add(e.u)
        seen.add(e.v)
    return True


def is_perfect_matching(g: Multigraph, eids: Iterable[str]) -> bool:
    ids = set(eids)
    if not is_matching(g, ids):
        return False
    covered = {w for eid in ids for w in g.edge(eid).ends}
    return covered == set(g.vertices)


def _matchings_of(inc: Sequence[Sequence[tuple[int, int]]], covered: int) -> Iterator[list[int]]:
    """Perfect matchings of the vertices outside the bitmask ``covered``.

    ``inc[v]`` lists the (edge index, other end) pairs at vertex ``v`` in
    incidence order.  The lowest uncovered vertex is always matched next, so
    the matchings come out in one fixed order; each is a list of edge indices.
    """
    full = (1 << len(inc)) - 1
    chosen: list[int] = []

    def rec(covered: int) -> Iterator[list[int]]:
        if covered == full:
            yield list(chosen)
            return
        v = (~covered & (covered + 1)).bit_length() - 1
        for e, w in inc[v]:
            if covered >> w & 1:
                continue
            chosen.append(e)
            yield from rec(covered | 1 << v | 1 << w)
            chosen.pop()

    return rec(covered)


def perfect_matchings(g: Multigraph, required_edge: str | None = None) -> list[frozenset[str]]:
    """All perfect matchings (as edge-id sets), optionally through one edge."""
    if g.num_vertices() % 2:
        return []
    pos = {v: i for i, v in enumerate(g.vertices)}
    eids = g.edge_ids
    index = {eid: i for i, eid in enumerate(eids)}
    inc = [[(index[eid], pos[g.edge(eid).other(v)]) for eid in g.incident_edges(v)]
           for v in g.vertices]
    covered, base = 0, []
    if required_edge is not None:
        e = g.edge(required_edge)
        covered, base = 1 << pos[e.u] | 1 << pos[e.v], [required_edge]
    return [frozenset(base + [eids[i] for i in pm]) for pm in _matchings_of(inc, covered)]


# -- maximum flow ------------------------------------------------------------


def _max_flow(nodes: list[str], arcs: list[tuple[str, str, Fraction]],
              source: str, sink: str) -> tuple[Fraction, list[Fraction], set[str]]:
    """Edmonds-Karp with exact capacities.

    Returns (value, per-arc flow, residual-reachable set from source).
    """
    adj: dict[str, list[int]] = {v: [] for v in nodes}
    cap: list[Fraction] = []
    to: list[str] = []
    frm: list[str] = []
    for u, v, c in arcs:
        for a, b, cc in ((u, v, c), (v, u, Fraction(0))):
            adj[a].append(len(cap))
            frm.append(a)
            to.append(b)
            cap.append(cc)
    flow = [Fraction(0)] * len(cap)
    total = Fraction(0)
    while True:
        prev: dict[str, int] = {source: -1}
        queue = deque([source])
        while queue and sink not in prev:
            u = queue.popleft()
            for idx in adj[u]:
                if to[idx] not in prev and cap[idx] - flow[idx] > 0:
                    prev[to[idx]] = idx
                    queue.append(to[idx])
        if sink not in prev:
            return total, [flow[2 * i] for i in range(len(arcs))], set(prev)
        bottleneck = None
        v = sink
        while v != source:
            idx = prev[v]
            avail = cap[idx] - flow[idx]
            bottleneck = avail if bottleneck is None or avail < bottleneck else bottleneck
            v = frm[idx]
        v = sink
        while v != source:
            idx = prev[v]
            flow[idx] += bottleneck
            flow[idx ^ 1] -= bottleneck
            v = frm[idx]
        total += bottleneck


# -- structural operations -------------------------------------------------


def add_matching_copies(g: Multigraph, matching: Iterable[str], k: int) -> Multigraph:
    """The multigraph g + k*M: k fresh parallel copies of every matching edge.

    The j-th copy of edge ``e`` gets the derived id ``e@c<j>``; copy numbering
    continues past copies already present so repeated application composes.
    """
    m = list(matching)
    if k < 0:
        raise GraphError("copy count must be nonnegative")
    if not is_matching(g, m):
        raise GraphError("edge set is not a matching of the graph")
    new_edges = []
    for eid in m:
        e = g.edge(eid)
        j = 1
        for _ in range(k):
            while g.has_edge(f"{eid}@c{j}") or any(x[0] == f"{eid}@c{j}" for x in new_edges):
                j += 1
            new_edges.append((f"{eid}@c{j}", e.u, e.v))
            j += 1
    return g.with_edges_added(new_edges)


def matching_copy_ids(g: Multigraph, matching: Iterable[str], copy: int) -> frozenset[str]:
    """Edge ids of the ``copy``-th duplicate of a matching inside g + kM."""
    ids = frozenset(f"{eid}@c{copy}" for eid in matching)
    for eid in ids:
        g.edge(eid)
    return ids


def expand_vertex(g: Multigraph, v: str, replacement: Multigraph,
                  attachment: Mapping[str, str]) -> Multigraph:
    """Replace vertex ``v`` by a graph, redistributing its edge stubs.

    ``attachment`` maps every edge id at ``v`` to a replacement vertex.
    """
    stubs = g.incident_edges(v)
    if set(attachment) != set(stubs):
        raise GraphError("attachment must cover exactly the edges at the expanded vertex")
    for w in replacement.vertices:
        if g.has_vertex(w) and w != v:
            raise GraphError(f"replacement vertex id {w!r} collides with the host graph")
    for eid, w in attachment.items():
        if not replacement.has_vertex(w):
            raise GraphError(f"attachment target {w!r} is not a replacement vertex")
    vertices = [w for w in g.vertices if w != v] + list(replacement.vertices)
    edges: list[tuple[str, str, str]] = []
    for e in g.edges():
        if v not in e.ends:
            edges.append((e.eid, e.u, e.v))
            continue
        anchor = attachment[e.eid]
        other = e.other(v)
        edges.append((e.eid, anchor, other))
    for e in replacement.edges():
        edges.append((e.eid, e.u, e.v))
    return Multigraph(vertices, edges)


def suppress_divalent(g: Multigraph) -> Multigraph:
    graph, _ = suppress_divalent_with_map(g)
    return graph


def suppress_divalent_with_map(g: Multigraph) -> tuple[Multigraph, dict[str, tuple[str, str]]]:
    """Smooth every degree-2 vertex into an edge joining its neighbors.

    Returns the new graph and a map from each created edge id to the pair of
    edge ids it replaced.  A component that is a pure cycle of divalent
    vertices has no smoothing and is an error, as is a divalent vertex with
    both edges to the same neighbor (smoothing would create a loop).
    """
    vertices = list(g.vertices)
    edges = {e.eid: (e.u, e.v) for e in g.edges()}
    merges: dict[str, tuple[str, str]] = {}

    def degree_of(v: str) -> int:
        return sum((u == v) + (w == v) for u, w in edges.values())

    changed = True
    while changed:
        changed = False
        for v in list(vertices):
            inc = [eid for eid, (u, w) in edges.items() if v in (u, w)]
            if len(inc) != 2:
                continue
            e1, e2 = sorted(inc)
            a = edges[e1][0] if edges[e1][1] == v else edges[e1][1]
            b = edges[e2][0] if edges[e2][1] == v else edges[e2][1]
            if a == v or b == v:
                raise GraphError("loop encountered during suppression")
            if a == b:
                raise GraphError(f"suppressing {v!r} would create a loop at {a!r}")
            new_id = f"{e1}&{e2}"
            while new_id in edges:
                new_id += "'"
            del edges[e1]
            del edges[e2]
            edges[new_id] = (a, b)
            merges[new_id] = (e1, e2)
            vertices.remove(v)
            changed = True
    for v in vertices:
        if degree_of(v) == 2:
            raise GraphError("divalent cycle component: suppression undefined")
    return Multigraph(vertices, [(eid, u, w) for eid, (u, w) in edges.items()]), merges


def connected_components(g: Multigraph) -> list[set[str]]:
    seen: set[str] = set()
    comps = []
    for v in g.vertices:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            w = stack.pop()
            for eid in g.incident_edges(w):
                u = g.edge(eid).other(w)
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(comp)
    return comps


def bridges(g: Multigraph) -> set[str]:
    """Bridge edge ids, by DFS lowpoints; parallel edges are never bridges."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    out: set[str] = set()
    counter = [0]

    def dfs(root: str) -> None:
        stack: list[tuple[str, str | None, int]] = [(root, None, 0)]
        order: list[tuple[str, str | None]] = []
        while stack:
            v, in_edge, _ = stack.pop()
            if v in index:
                continue
            index[v] = low[v] = counter[0]
            counter[0] += 1
            order.append((v, in_edge))
            for eid in g.incident_edges(v):
                w = g.edge(eid).other(v)
                if w not in index:
                    stack.append((w, eid, 0))
        for v, in_edge in reversed(order):
            for eid in g.incident_edges(v):
                if eid == in_edge:
                    continue
                w = g.edge(eid).other(v)
                low[v] = min(low[v], low[w] if index[w] > index[v] else index[w])
            if in_edge is not None and low[v] == index[v]:
                e = g.edge(in_edge)
                if len(g.edges_between(e.u, e.v)) == 1:
                    out.add(in_edge)

    for v in g.vertices:
        if v not in index:
            dfs(v)
    return out


def is_bridgeless(g: Multigraph) -> bool:
    return not bridges(g)


def girth(g: Multigraph) -> int | None:
    """Length of a shortest circuit; parallel edges give girth 2."""
    if g.max_multiplicity() >= 2:
        return 2
    best: int | None = None
    for src in g.vertices:
        dist = {src: 0}
        parent_edge: dict[str, str] = {}
        queue = [src]
        while queue:
            nxt: list[str] = []
            for v in queue:
                for eid in g.incident_edges(v):
                    w = g.edge(eid).other(v)
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        parent_edge[w] = eid
                        nxt.append(w)
                    elif parent_edge.get(v) != eid:
                        cycle = dist[v] + dist[w] + 1
                        if best is None or cycle < best:
                            best = cycle
            queue = nxt
    return best


# -- serialization ----------------------------------------------------------

FORMAT_HEADER = "circflow-graph v1"


def serialize(g: Multigraph) -> str:
    lines = [FORMAT_HEADER]
    for v in g.vertices:
        lines.append(f"vertex {v}")
    for e in g.edges():
        lines.append(f"edge {e.eid} {e.u} {e.v}")
    return "\n".join(lines) + "\n"


def canonical_serialize(g: Multigraph) -> str:
    """Order-independent serialization: ids sorted.  Used for content hashes."""
    lines = [FORMAT_HEADER]
    for v in sorted(g.vertices):
        lines.append(f"vertex {v}")
    for eid in sorted(g.edge_ids):
        e = g.edge(eid)
        u, v = sorted((e.u, e.v))
        lines.append(f"edge {eid} {u} {v}")
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> Multigraph:
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ParseError(f"expected header {FORMAT_HEADER!r}", 1)
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    for no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise ParseError("vertex line needs exactly one id", no)
            vertices.append(parts[1])
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise ParseError("edge line needs id and two endpoints", no)
            if parts[2] == parts[3]:
                raise ParseError(f"edge {parts[1]!r} is a loop", no)
            edges.append((parts[1], parts[2], parts[3]))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", no)
    try:
        return Multigraph(vertices, edges)
    except GraphError as exc:
        raise ParseError(str(exc), len(lines)) from exc


def from_graph6(text: str) -> Multigraph:
    """Import a simple graph from graph6.  Vertices are named 0..n-1."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise GraphError("invalid graph6 character")
    if data[0] <= 62:
        n, rest = data[0], data[1:]
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        rest = data[4:]
    else:
        raise GraphError("unsupported graph6 size encoding")
    bits: list[int] = []
    for b in rest:
        bits.extend((b >> k) & 1 for k in range(5, -1, -1))
    need = n * (n - 1) // 2
    if len(bits) < need:
        raise GraphError("graph6 body too short")
    vertices = [str(i) for i in range(n)]
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((f"{i}~{j}", str(i), str(j)))
            idx += 1
    return Multigraph(vertices, edges)
