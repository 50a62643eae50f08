"""Loopless undirected multigraphs with stable vertex and edge identities.

Every vertex and edge is addressed by a string id that survives subgraph
operations and matching duplication.  Graphs are immutable after
construction; all operations return new graphs, and the derived graphs
(subgraphs, relabelings, matching copies) are built in time linear in
|V| + |E|.  Each graph caches its content hash and the
integer-indexed view its solvers share.  The module also holds the one
max-flow kernel, a Dinic that augments along Edmonds-Karp's own paths, on
integer node ids and capacities: flows and valuations scale their rational
capacities by one common denominator.  And it holds ``_Deadline``, the one
wall-clock budget that bounds every search: the matching cover, the
backtracker and the circular-flow-number search.

``Multigraph.__init__`` is the one constructor, and ``_add_edges`` the one
place an edge is validated.  The constructor checks all vertex ids in one
pass, and ``_add_edges`` all edge ids in another, as
``" ".join(ids).split() == ids``: exactly the per-token test
``token.split() == [token]``, run at C speed.  Only when that fails are the
ids checked one by one, each in input order together with the checks that
follow it, so the first ``GraphError`` raised is the one the per-id test
would raise first.  Every edge is checked for a duplicate id, a loop and an
unknown endpoint.  Edges are immutable ``Edge`` named tuples ``(eid, u, v)``.
A graph with edges or vertices removed is filtered from its parent's
checked edges and incidence lists, and a graph with edges added checks only
the new edges against its parent's; a relabeling goes through the
constructor again.  Either way the result, its incidence order, its content
hash and its first error are those of the constructor on the same vertex
and edge lists.
"""

from __future__ import annotations

import hashlib
import time
from bisect import bisect_left
from functools import cached_property
from itertools import count, islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence


class GraphError(ValueError):
    """Structural error in a multigraph or a graph operation."""


class ParseError(GraphError):
    """Malformed textual graph input; carries a line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_token(kind: str, token: str) -> str:
    if token.split() != [token]:  # empty, or split at some whitespace character
        raise GraphError(f"{kind} id {token!r} must be a nonempty token without whitespace")
    return token


def _all_tokens(ids: list[str]) -> bool:
    """``token.split() == [token]`` for every id, in one C-speed pass: the
    split of the joined ids gives back the list exactly when no id is empty
    or holds whitespace."""
    return " ".join(ids).split() == ids


class Edge(NamedTuple):
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


class IndexedView(NamedTuple):
    """Vertices and edges numbered in graph order: ``ends[i]`` are the ends of
    edge i, ``incident[v]`` the edges at vertex v in incidence order."""

    vertices: tuple[str, ...]
    pos: dict[str, int]
    edge_ids: tuple[str, ...]
    ends: tuple[tuple[int, int], ...]
    incident: tuple[tuple[int, ...], ...]


def _add_edges(es: dict[str, Edge], incident: Mapping[str, list[str]],
               edges: Iterable[tuple[str, str, str]]) -> None:
    """Enter ``edges`` in ``es`` and in the incidence lists, each checked in
    order for its id token, a duplicate id, a loop and an unknown endpoint;
    ``incident`` has a list for every vertex.  The ids are token-checked in
    one pass first, and one by one only when that pass fails."""
    records = [e if type(e) is Edge else Edge._make(e) for e in edges]
    check_ids = not _all_tokens([e.eid for e in records])
    for e in records:
        eid, u, v = e
        if check_ids:
            _check_token("edge", eid)
        if eid in es:
            raise GraphError(f"duplicate edge id {eid!r}")
        if u == v:
            raise GraphError(f"edge {eid!r} is a loop at {u!r}")
        at_u, at_v = incident.get(u), incident.get(v)
        if at_u is None or at_v is None:
            raise GraphError(f"edge {eid!r} references unknown vertex")
        es[eid] = e
        at_u.append(eid)
        at_v.append(eid)


class Multigraph:
    """Loopless multigraph.  Parallel edges are allowed, loops are not."""

    def __init__(self, vertices: Iterable[str] = (), edges: Iterable[tuple[str, str, str]] = ()):
        vs = list(vertices)
        incident: dict[str, list[str]] = {v: [] for v in vs}
        if len(incident) != len(vs) or not _all_tokens(vs):
            seen: set[str] = set()
            for v in vs:
                _check_token("vertex", v)
                if v in seen:
                    raise GraphError(f"duplicate vertex id {v!r}")
                seen.add(v)
        self._vertices = tuple(vs)
        self._edges: dict[str, Edge] = {}
        _add_edges(self._edges, incident, edges)
        self._incident = {v: tuple(ids) for v, ids in incident.items()}

    @cached_property
    def indexed(self) -> IndexedView:
        """The integer-indexed view, built once per graph."""
        pos = {v: i for i, v in enumerate(self._vertices)}
        edge_ids = tuple(self._edges)
        index = {eid: i for i, eid in enumerate(edge_ids)}
        return IndexedView(
            self._vertices, pos, edge_ids,
            tuple((pos[e.u], pos[e.v]) for e in self._edges.values()),
            tuple(tuple(index[eid] for eid in self._incident[v]) for v in self._vertices))

    @cached_property
    def content_sha256(self) -> str:
        """SHA-256 of ``canonical_serialize``, computed once per graph."""
        return hashlib.sha256(canonical_serialize(self).encode()).hexdigest()

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
        """The edges joining u and v, in u's incidence order."""
        at_u, edges = self.incident_edges(u), self._edges
        return () if u == v else tuple(eid for eid in at_u if (e := edges[eid]).u == v or e.v == v)

    def max_degree(self) -> int:
        return max((self.degree(v) for v in self._vertices), default=0)

    def max_multiplicity(self) -> int:
        counts: dict[tuple[str, str], int] = {}
        for e in self._edges.values():
            pair = (e.u, e.v) if e.u < e.v else (e.v, e.u)
            counts[pair] = counts.get(pair, 0) + 1
        return max(counts.values(), default=0)

    def is_regular(self, d: int | None = None) -> bool:
        degs = set(map(len, self._incident.values()))
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

    @staticmethod
    def _from_parts(vertices: tuple[str, ...], edges: dict[str, Edge],
                    incident: dict[str, tuple[str, ...]]) -> Multigraph:
        """A graph from checked parts: no id, loop or endpoint is checked again."""
        g = Multigraph.__new__(Multigraph)
        g._vertices, g._edges, g._incident = vertices, edges, incident
        return g

    def with_edges_removed(self, eids: Iterable[str]) -> Multigraph:
        """The graph without ``eids``, filtered from this graph's own parts."""
        gone = set(eids)
        for e in gone:
            self.edge(e)
        return self._from_parts(
            self._vertices, {eid: e for eid, e in self._edges.items() if eid not in gone},
            {v: ids if gone.isdisjoint(ids) else tuple(e for e in ids if e not in gone)
             for v, ids in self._incident.items()})

    def with_vertices_removed(self, vs: Iterable[str]) -> Multigraph:
        """The graph without ``vs`` and their edges, filtered from this graph's own parts."""
        gone = set(vs)
        for v in gone:
            if v not in self._incident:
                raise GraphError(f"unknown vertex id {v!r}")
        dropped = {eid for v in gone for eid in self._incident[v]}
        return self._from_parts(
            tuple(v for v in self._vertices if v not in gone),
            {eid: e for eid, e in self._edges.items() if eid not in dropped},
            {v: ids if dropped.isdisjoint(ids) else tuple(e for e in ids if e not in dropped)
             for v, ids in self._incident.items() if v not in gone})

    def with_edges_added(self, edges: Iterable[tuple[str, str, str]]) -> Multigraph:
        """The graph with ``edges`` after its own; only the new edges are
        checked, against this graph's parts."""
        es, more = dict(self._edges), {v: [] for v in self._vertices}
        _add_edges(es, more, edges)
        return self._from_parts(self._vertices, es, {
            v: ids + tuple(extra) if extra else ids
            for (v, ids), extra in zip(self._incident.items(), more.values())})

    def relabeled(self, vertex_map: Mapping[str, str], edge_map: Mapping[str, str] | None = None) -> Multigraph:
        """Rename vertices (and optionally edges) through total or partial maps."""
        vm = lambda v: vertex_map.get(v, v)
        em = (lambda e: edge_map.get(e, e)) if edge_map else (lambda e: e)
        return Multigraph(
            [vm(v) for v in self._vertices],
            [(em(e.eid), vm(e.u), vm(e.v)) for e in self._edges.values()],
        )


# -- cuts, matchings ------------------------------------------------------


class EdgeCut(NamedTuple):
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
    return is_matching(g, ids) and 2 * len(ids) == g.num_vertices()


class SearchBudgetExceeded(RuntimeError):
    """A search ran past its wall-clock budget."""


class _Deadline:
    """A search's budget in wall-clock seconds from now, or None for no
    limit, and the count of its nodes.  ``tick`` counts one node and checks
    the clock every 512 nodes, so a search may run up to 511 nodes past the
    budget; one budget may span several searches."""

    def __init__(self, seconds: float | None):
        self.t_end = None if seconds is None else time.monotonic() + seconds
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes % 512 == 0:
            self.poll()

    def poll(self) -> None:
        """Raise ``SearchBudgetExceeded`` once the budget is spent; counts nothing."""
        if self.t_end is not None and time.monotonic() > self.t_end:
            raise SearchBudgetExceeded("search budget exhausted")


def _matchings_of(inc: Sequence[Sequence[tuple[int, int]]], covered: int,
                  poll: Callable[[], object] | None = None,
                  live: Sequence[int] | None = None) -> Iterator[list[int]]:
    """Perfect matchings of the vertices outside the bitmask ``covered``.

    ``inc[v]`` lists the (edge index, other end) pairs at vertex ``v`` in
    incidence order.  With ``live``, only the edges e with a nonzero
    ``live[e]`` are used, so a caller can keep one set of lists and vary
    the edges.  The lowest uncovered vertex is always matched next, so
    the matchings come out in one fixed order; each is a fresh list of edge
    indices, which the caller may keep or extend.  The search is depth-first
    on an explicit stack, one frame per matched vertex (its covered mask and
    its remaining options), and lazy: it stops wherever the caller stops.
    One search between two matchings can be exponential, so a budgeted
    caller passes ``poll``, which is called once every 4096 frames and may
    raise to stop the search.
    """
    full = (1 << len(inc)) - 1
    if covered == full:
        yield []
        return
    if live is None:
        live = [1] * (1 + max((e for at in inc for e, _ in at), default=-1))
    chosen: list[int] = []  # chosen[d]: the edge that matched frame d's vertex
    frames = 0
    v = (~covered & (covered + 1)).bit_length() - 1
    stack = [(covered | 1 << v, iter(inc[v]))]
    while stack:
        covered, options = stack[-1]
        for e, w in options:
            if not covered >> w & 1 and live[e]:
                break
        else:
            stack.pop()
            if stack:
                chosen.pop()
            continue
        chosen.append(e)
        covered |= 1 << w
        if covered == full:
            yield chosen.copy()
            chosen.pop()
        else:
            frames += 1
            if not frames & 4095 and poll is not None:
                poll()
            v = (~covered & (covered + 1)).bit_length() - 1
            stack.append((covered | 1 << v, iter(inc[v])))


def perfect_matchings(g: Multigraph) -> list[frozenset[str]]:
    """All perfect matchings, as edge-id sets."""
    if g.num_vertices() % 2:
        return []
    view = g.indexed
    inc = [[(e, sum(view.ends[e]) - v) for e in at] for v, at in enumerate(view.incident)]
    return [frozenset(view.edge_ids[i] for i in pm) for pm in _matchings_of(inc, 0)]


# -- maximum flow ------------------------------------------------------------

def _max_flow(n: int, arcs: list[tuple[int, int, int]]) -> tuple[int, list[int], set[int]]:
    """Maximum flow with integer capacities on nodes 0..n+1: the caller's n
    nodes, then the source n and the sink n+1.  Returns (value, per-arc flow,
    residual-reachable set from the source).

    Dinic's phases, taking Edmonds-Karp's own augmenting paths.  Edmonds-Karp
    augments along its BFS-tree path: the lexicographically first shortest
    path, with each node's arcs ranked by their order in ``arcs``.  A phase
    runs one BFS that keeps, at each node it expands, the arcs with residual
    capacity into the next level, in that order; it stops before expanding
    the sink's level, so the other nodes at that level keep no arcs and are
    dead ends.  A depth-first walk over the kept arcs with a current-arc
    pointer per node finds that same first path, and again after each
    augmentation: the reverse arcs an augmentation opens run one level down,
    so the shortest paths left are the kept ones it did not saturate, and
    every arc a pointer has passed is saturated or leads to a dead end.  The
    walk resumes at the tail of the first saturated arc.  The BFS that cannot
    reach the sink runs to the end and gives the reachable set, so values,
    per-arc flows and reachable sets are Edmonds-Karp's.
    """
    source, sink = n, n + 1
    out: list[list[int]] = [[] for _ in range(n + 2)]
    head: list[int] = []  # arc 2i is arcs[i], arc 2i+1 its reverse
    residual: list[int] = []
    for u, v, c in arcs:
        out[u].append(len(head))
        out[v].append(len(head) + 1)
        head += (v, u)
        residual += (c, 0)
    total = 0
    while True:
        level = [-1] * (n + 2)
        level[source] = 0
        level_arcs: list[Sequence[int]] = [()] * (n + 2)  # the kept arcs of each expanded node
        queue = [source]
        for u in queue:
            if level[u] == level[sink]:
                break
            up = level[u] + 1
            keep = level_arcs[u] = []
            for a in out[u]:
                if residual[a]:
                    v = head[a]
                    if level[v] < 0:
                        level[v] = up
                        queue.append(v)
                        keep.append(a)
                    elif level[v] == up:
                        keep.append(a)
        if level[sink] < 0:
            return total, residual[1::2], {v for v, lv in enumerate(level) if lv >= 0}
        current = [0] * (n + 2)
        path: list[int] = []
        u = source
        while True:
            kept, i, end = level_arcs[u], current[u], len(level_arcs[u])
            while i < end and not residual[kept[i]]:
                i += 1
            current[u] = i
            if i == end:  # a dead end: retreat and pass the arc that led here
                if not path:
                    break
                u = head[path.pop() ^ 1]
                current[u] += 1
                continue
            a = kept[i]
            path.append(a)
            u = head[a]
            if u == sink:
                bottleneck = min(residual[a] for a in path)
                cut = -1
                for j, a in enumerate(path):
                    residual[a] -= bottleneck
                    residual[a ^ 1] += bottleneck
                    if cut < 0 and not residual[a]:
                        cut = j
                total += bottleneck
                u = head[path[cut] ^ 1]  # resume at the tail of the first saturated arc
                del path[cut:]


# -- structural operations -------------------------------------------------


def matching_copy_ids(g: Multigraph, matching: Sequence[str], k: int) -> list[list[str]]:
    """The ids of the k copies of each edge of the matching, in matching order.

    The copies of edge ``e`` get the derived ids ``e@c<j>`` for the k least
    j >= 1 whose id g lacks, so repeated application composes: e@c1 .. e@ck
    unless g has one of those, when the least free j are probed for.  The
    copies of distinct edges cannot collide: ``e`` is the part before the
    last ``@c``.
    """
    if k < 0:
        raise GraphError("copy count must be nonnegative")
    if not is_matching(g, matching):
        raise GraphError("edge set is not a matching of the graph")
    edges, suffixes = g._edges.keys(), [f"@c{j}" for j in range(1, k + 1)]
    fresh = lambda eid: (c for j in count(1) if (c := f"{eid}@c{j}") not in edges)
    out = []
    for eid in matching:
        ids = [eid + suffix for suffix in suffixes]
        out.append(ids if edges.isdisjoint(ids) else list(islice(fresh(eid), k)))
    return out


def add_matching_copies(g: Multigraph, matching: Iterable[str], k: int) -> Multigraph:
    """The multigraph g + k*M: after g's edges, the k copies of each matching
    edge in matching order, with the ids of ``matching_copy_ids``."""
    m = list(matching)
    return _with_copies(g, m, matching_copy_ids(g, m, k))


def _with_copies(g: Multigraph, m: Sequence[str], copies: Sequence[Sequence[str]]) -> Multigraph:
    """g with ``copies[i]`` added as parallels of ``m[i]``, the ids from
    ``matching_copy_ids(g, m, k)``, which has checked them."""
    return g.with_edges_added([(c, e.u, e.v) for eid, ids in zip(m, copies)
                               for e in (g._edges[eid],) for c in ids])


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
    """Length of a shortest circuit; parallel edges give girth 2.

    Breadth-first search from every vertex, on the indexed view: a non-tree
    edge vw closes a circuit of at most dist(v) + dist(w) + 1 edges, and of
    exactly that many from a source on a shortest circuit."""
    if g.max_multiplicity() >= 2:
        return 2
    view = g.indexed
    ends, incident = view.ends, view.incident
    n = len(incident)
    best: int | None = None
    for src in range(n):
        dist = [-1] * n
        parent_edge = [-1] * n
        dist[src] = 0
        queue = [src]
        for v in queue:  # the queue grows while it is read: breadth-first
            dv = dist[v]
            for e in incident[v]:
                w = sum(ends[e]) - v
                if dist[w] < 0:
                    dist[w] = dv + 1
                    parent_edge[w] = e
                    queue.append(w)
                elif parent_edge[v] != e:
                    cycle = dv + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
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
    lines = [FORMAT_HEADER, *[f"vertex {v}" for v in sorted(g.vertices)]]
    lines += [f"edge {e.eid} {e.u} {e.v}" if e.u < e.v else f"edge {e.eid} {e.v} {e.u}"
              for e in sorted(g._edges.values(), key=attrgetter("eid"))]
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> Multigraph:
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ParseError(f"expected header {FORMAT_HEADER!r}", 1)
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    vertex_lines: list[int] = []
    edge_lines: list[int] = []
    for no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise ParseError("vertex line needs exactly one id", no)
            vertices.append(parts[1])
            vertex_lines.append(no)
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise ParseError("edge line needs id and two endpoints", no)
            if parts[2] == parts[3]:
                raise ParseError(f"edge {parts[1]!r} is a loop", no)
            edges.append((parts[1], parts[2], parts[3]))
            edge_lines.append(no)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", no)
    try:
        return Multigraph(vertices, edges)
    except GraphError as exc:
        line = _failing_line(vertices, edges, vertex_lines, edge_lines)
        raise ParseError(str(exc), line) from exc


def _failing_line(vertices: list[str], edges: list[tuple[str, str, str]],
                  vertex_lines: list[int], edge_lines: list[int]) -> int:
    """The line of the record on which ``Multigraph(vertices, edges)`` fails.

    The constructor checks the vertices and then the edges, each in order, so
    the first error it raises belongs to the last record of the shortest
    failing prefix, which a bisection over the prefixes finds.
    """
    def fails(vs: list[str], es: list[tuple[str, str, str]]) -> bool:
        try:
            Multigraph(vs, es)
        except GraphError:
            return True
        return False

    if fails(vertices, []):
        k = bisect_left(range(1, len(vertices) + 1), True, key=lambda n: fails(vertices[:n], []))
        return vertex_lines[k]
    k = bisect_left(range(1, len(edges) + 1), True, key=lambda n: fails(vertices, edges[:n]))
    return edge_lines[k]
