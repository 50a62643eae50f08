"""Reference versions kept only as oracles for the differential tests.

The certificate serializer re-wraps every value in ``Fraction`` and re-hashes
the graph on every call, as it once did.  The graph constructor makes a
frozen-dataclass edge per edge and checks every id token by token, and the
derived graphs rebuild every edge from plain tuples, as they once did.
M_p' is built from M_p, and M~_p from M_p' and its coloring, by vertex
expansion one vertex at a time and divalent suppression to a fixpoint, and
the 1-factors are enumerated by a recursive generator chain, as they once
were.
The 9-cycles are walked from every vertex in both directions and reduced to
their least rotation and direction, as they once were.  Flow is added along
checked forward circuits, or along signed circuits without any check, by two
separate routines, as it once was.
The phi_c search runs on vertex names and ``Fraction`` ratios, the matched
witness flow is found on the built graph H = g + (2t-2)M by
``circulation_feasible`` along a walk of the 2-factor g - M, the copy ids of
a matching are probed for one at a time, and the canonical serialization
looks up and sorts each edge's ends one edge at a time, as they once did.
Endpoint queries compare ``frozenset`` pairs of ends, and the girth is found
by breadth-first search on vertex names, as they once were.
The flow on a regular bipartite graph comes from a 1-factorization peeled by
Kuhn augmenting paths, as it once did.
The maximum flow is Edmonds-Karp, one full breadth-first search for every
augmenting path, as it once was.
A flow is checked on the graph's integer-indexed view, with every edge's
value scaled and its ends looked up one edge at a time; it is written, and
turned into a certificate witness, with one ``rat`` per edge, and a witness
is read back through a fresh ``functools.cache`` per call, as it once was.
A coloring is checked proper, or seeing odd, by a dict or a count list per
vertex over all vertices, as it once was.
A witness flow is re-checked by reading it into a ``RationalFlow`` with
``flow_from_witness``, checking it with ``flow_violation`` and counting its
out - in with a ``Counter``, as it once was.
A certificate file is written by a second, pure-Python encode with
``indent=2``, and the flow value granted to g + (2t-2)M is computed by six
``Fraction`` operations, as they once were.
"""

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from math import lcm

from circflow import families, mp_coloring
from circflow.colorings import PROPER, ColoringError, EdgeColoring
from circflow.certificates import rat, unrat
from circflow.flows import (
    FLOW_HEADER,
    INTEGER_ONE_ZERO,
    NOWHERE_ZERO,
    FlowError,
    RationalFlow,
    _arc,
    bipartite_sides,
    circulation_feasible,
    flow_from_witness,
    flow_violation,
)
from circflow.multigraph import (
    FORMAT_HEADER,
    GraphError,
    Multigraph,
    _check_token,
    _matchings_of,
    add_matching_copies,
    canonical_serialize,
)
from circflow.valuations import ValuationError, bound_formula, flow_to_bipartition


def _rat_oracle(x):
    """Rational rendering by re-wrapping in ``Fraction``: the oracle."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _jsonable_oracle(value):
    """Canonical JSON data, every dict sorted by ``str`` of its keys: the oracle."""
    if isinstance(value, Fraction):
        return _rat_oracle(value)
    if isinstance(value, dict):
        return {str(k): _jsonable_oracle(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable_oracle(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [_jsonable_oracle(v) for v in sorted(value, key=str)]
    return value


def _graph_hash_oracle(g):
    """The content hash recomputed from the serialization: the oracle."""
    return hashlib.sha256(canonical_serialize(g).encode()).hexdigest()


@dataclass(frozen=True)
class EdgeOracle:
    eid: str
    u: str
    v: str

    def other(self, w):
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise GraphError(f"vertex {w!r} is not an endpoint of edge {self.eid!r}")

    @property
    def ends(self):
        return frozenset((self.u, self.v))


class MultigraphOracle(Multigraph):
    """The graph constructor with per-token id checks and dataclass edges:
    the oracle.  Queries and views are inherited; every derived graph is
    rebuilt from plain ``(eid, u, v)`` tuples."""

    def __init__(self, vertices=(), edges=()):
        vs = {}
        for v in vertices:
            _check_token("vertex", v)
            if v in vs:
                raise GraphError(f"duplicate vertex id {v!r}")
            vs[v] = None
        es = {}
        incident = {v: [] for v in vs}
        for eid, u, v in edges:
            _check_token("edge", eid)
            if eid in es:
                raise GraphError(f"duplicate edge id {eid!r}")
            if u == v:
                raise GraphError(f"edge {eid!r} is a loop at {u!r}")
            if u not in vs or v not in vs:
                raise GraphError(f"edge {eid!r} references unknown vertex")
            es[eid] = EdgeOracle(eid, u, v)
            incident[u].append(eid)
            incident[v].append(eid)
        self._vertices = tuple(vs)
        self._edges = es
        self._incident = {v: tuple(ids) for v, ids in incident.items()}

    def with_edges_removed(self, eids):
        gone = set(eids)
        for e in gone:
            self.edge(e)
        return MultigraphOracle(
            self._vertices,
            [(e.eid, e.u, e.v) for e in self._edges.values() if e.eid not in gone],
        )

    def with_vertices_removed(self, vs):
        gone = set(vs)
        for v in gone:
            if v not in self._incident:
                raise GraphError(f"unknown vertex id {v!r}")
        return MultigraphOracle(
            [v for v in self._vertices if v not in gone],
            [(e.eid, e.u, e.v) for e in self._edges.values() if not (e.u in gone or e.v in gone)],
        )

    def with_edges_added(self, edges, new_vertices=()):
        return MultigraphOracle(
            list(self._vertices) + list(new_vertices),
            [(e.eid, e.u, e.v) for e in self._edges.values()] + list(edges),
        )

    def relabeled(self, vertex_map, edge_map=None):
        vm = lambda v: vertex_map.get(v, v)
        em = (lambda e: edge_map.get(e, e)) if edge_map else (lambda e: e)
        return MultigraphOracle(
            [vm(v) for v in self._vertices],
            [(em(e.eid), vm(e.u), vm(e.v)) for e in self._edges.values()],
        )


def _suppress_divalent_oracle(g):
    """Suppression one vertex at a time, always of the first divalent vertex
    in vertex order, with every incidence list rebuilt from the edges before
    each step: the oracle."""
    vertices = list(g.vertices)
    edges = {e.eid: (e.u, e.v) for e in g.edges()}
    merges = {}
    while True:
        incident = {v: [] for v in vertices}
        for eid, (u, w) in edges.items():
            incident[u].append(eid)
            incident[w].append(eid)
        v = next((v for v in vertices if len(incident[v]) == 2), None)
        if v is None:
            return type(g)(vertices, [(eid, u, w) for eid, (u, w) in edges.items()]), merges
        e1, e2 = sorted(incident[v])
        a = edges[e1][0] if edges[e1][1] == v else edges[e1][1]
        b = edges[e2][0] if edges[e2][1] == v else edges[e2][1]
        if a == b:
            raise GraphError(f"suppressing {v!r} would create a loop at {a!r}")
        new_id = f"{e1}&{e2}"
        while new_id in edges:
            new_id += "'"
        del edges[e1], edges[e2]
        edges[new_id] = (a, b)
        merges[new_id] = (e1, e2)
        vertices.remove(v)


def _expand_sequentially(g, expansions):
    """Each ``(v, names, attachment)`` in turn replaces v by the vertices
    ``names`` and rewrites every edge at v as (attachment, other end), with a
    full rebuild: the oracle."""
    for v, names, attachment in expansions:
        g = type(g)([w for w in g.vertices if w != v] + names,
                    [(e.eid, attachment[e.eid], e.other(v)) if v in e.ends else e
                     for e in g.edges()])
    return g


def mp_prime_by_expansion(p):
    """M_p' as expand -> suppress of M_p: the oracle.  Each v_{4p}@i becomes
    x@i, which takes the K-edges and the first pz-edge of each side, and
    y_k@i, which takes the (k+1)-th pz-edge of each side and is then
    suppressed."""
    base = families.mp_graph(p, families.MP_BASE).graph
    expansions = []
    for i in range(1, 4 * p + 2):
        v4p = families.mp_copy_vertex(p, i, 4 * p)
        names = [f"x@{i}"] + [f"y{k}@{i}" for k in range(1, p - 2)]
        attachment = {eid: f"x@{i}" for eid in base.incident_edges(v4p) if eid.startswith("K")}
        attachment[f"pz1{i}:1"] = attachment[f"pz2{i}:1"] = f"x@{i}"
        for k in range(2, p - 1):
            attachment[f"pz1{i}:{k}"] = attachment[f"pz2{i}:{k}"] = f"y{k - 1}@{i}"
        expansions.append((v4p, names, attachment))
    graph, _merges = _suppress_divalent_oracle(_expand_sequentially(base, expansions))
    return graph


def mp_tilde_by_expansion(t):
    """M~_p and its coloring as expand -> suppress of M_p': the oracle.  Each
    junction c_i becomes c~_i, which keeps the hub edge and every edge not of
    the triple color, and cdiv_i, which takes the other two triple-colored
    edges and is then suppressed."""
    data = mp_coloring.mp_prime_coloring(t)
    palette = 8 * t + 5
    g = data.family.graph
    colors = dict(data.coloring.colors)
    expansions = []
    for i in range(1, 4 * (2 * t + 1) + 2):
        v, triple = f"c{i}", (i + 4 * t + 7) % palette
        rerouted = [eid for eid in g.incident_edges(v) if colors[eid] == triple and eid != f"hub{i}"]
        attachment = {eid: f"cdiv{i}" if eid in rerouted else f"c~{i}" for eid in g.incident_edges(v)}
        expansions.append((v, [f"c~{i}", f"cdiv{i}"], attachment))
    g, merges = _suppress_divalent_oracle(_expand_sequentially(g, expansions))
    for new_eid, (e1, e2) in merges.items():
        c1, c2 = colors.pop(e1), colors.pop(e2)
        if c1 != c2:
            raise ColoringError("merged edges carry different colors")
        colors[new_eid] = c1
    return g, EdgeColoring(colors, palette, PROPER)


def matchings_of_oracle(inc, covered):
    """Perfect matchings by a recursive generator chain, one level per
    matched vertex: the oracle."""
    full = (1 << len(inc)) - 1
    chosen = []

    def rec(covered):
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


def nine_cycles_oracle(g):
    """All 9-cycles, each walked from all its vertices in both directions and
    reduced to its least rotation and direction: the oracle."""
    found = set()

    def canon(cycle):
        k = len(cycle)
        best = None
        for rot in range(k):
            for seq in (cycle[rot:] + cycle[:rot],
                        list(reversed(cycle[rot:] + cycle[:rot]))):
                tup = tuple(seq)
                if best is None or tup < best:
                    best = tup
        return best

    def dfs(start, path, seen):
        v = path[-1]
        for w in g.neighbors(v):
            if w == start and len(path) == 9:
                found.add(canon(path))
            elif w not in seen and len(path) < 9:
                path.append(w)
                seen.add(w)
                dfs(start, path, seen)
                seen.remove(w)
                path.pop()

    for start in g.vertices:
        dfs(start, [start], {start})
    return sorted(found)


@dataclass(frozen=True)
class DirectedCircuit:
    """Closed sequence of distinct edges, each traversed tail -> head."""

    edges: tuple
    start: str

    def vertices(self, orientation):
        seq = [self.start]
        for eid in self.edges:
            t, h = orientation[eid]
            if t != seq[-1]:
                raise FlowError(f"edge {eid!r} is not forward-directed at {seq[-1]!r}")
            seq.append(h)
        return tuple(seq)

    def validate(self, orientation):
        if len(set(self.edges)) != len(self.edges):
            raise FlowError("circuit repeats an edge")
        seq = self.vertices(orientation)
        if seq[-1] != self.start:
            raise FlowError("circuit is not closed")
        if len(set(seq[:-1])) != len(seq) - 1:
            raise FlowError("circuit repeats a vertex")


def add_circuit_flow(flow, circuit, amount):
    """Increase the flow by ``amount`` along a forward-directed circuit."""
    amount = Fraction(amount)
    if amount < 0:
        raise FlowError("amount must be nonnegative")
    circuit.validate(flow.orientation)
    values = dict(flow.values)
    for eid in circuit.edges:
        values[eid] = values[eid] + amount
    return replace(flow, values=values)


def sum_signed_circuits(flow, circuits, amount):
    """Add ``amount`` along circuits given as (edge id, +-1 direction) lists,
    unchecked; the result must stay positive on every edge."""
    amount = Fraction(amount)
    values = dict(flow.values)
    for circ in circuits:
        for eid, sign in circ:
            values[eid] = values[eid] + sign * amount
    if any(v <= 0 for v in values.values()):
        raise FlowError("signed circuit sum drove an edge to a nonpositive value")
    return replace(flow, values=values, mode=NOWHERE_ZERO, zero_edge=None)


def add_circuits_oracle(flow, circuits, amount, r):
    """Each signed walk validated as a ``DirectedCircuit`` on the directions
    its signs give, then summed by ``sum_signed_circuits`` at r: the oracle."""
    for circ in circuits:
        dirs = {}
        for eid, sign in circ:
            t, h = flow.orientation[eid]
            dirs[eid] = (t, h) if sign > 0 else (h, t)
        edges = tuple(eid for eid, _ in circ)
        DirectedCircuit(edges, dirs[edges[0]][0]).validate(dirs)
    return replace(sum_signed_circuits(flow, circuits, amount), r=Fraction(r))


def max_flow_oracle(n, arcs):
    """Edmonds-Karp with integer capacities on nodes 0..n+1: the caller's n
    nodes, then the source n and the sink n+1: the oracle.

    Each BFS scans a node's arcs in the order given, so the augmenting paths
    are fixed by the arc list.  Returns (value, per-arc flow,
    residual-reachable set from the source).
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
        prev: list[int | None] = [None] * (n + 2)  # the arc each node was reached by
        prev[source] = -1
        queue = [source]
        for u in queue:
            if prev[sink] is not None:
                break
            for a in out[u]:
                if prev[head[a]] is None and residual[a] > 0:
                    prev[head[a]] = a
                    queue.append(head[a])
        if prev[sink] is None:
            return total, residual[1::2], {v for v, a in enumerate(prev) if a is not None}
        path, v = [], sink
        while v != source:
            path.append(prev[v])
            v = head[prev[v] ^ 1]
        bottleneck = min(residual[a] for a in path)
        for a in path:
            residual[a] -= bottleneck
            residual[a ^ 1] += bottleneck
        total += bottleneck


def _violating_subset_oracle(g, k, unit):
    """A vertex set X with |k(X)| * unit > |cut(X)|, or None, by one minimum
    cut with the ``Fraction`` unit a/b cleared by b: the oracle."""
    view = g.indexed
    n = len(view.vertices)
    a, b = unit.numerator, unit.denominator
    arcs = [arc for x, y in view.ends for arc in ((x, y, b), (y, x, b))]
    positive = 0
    for v, name in enumerate(view.vertices):
        w = a * k[name]
        if w > 0:
            arcs.append((n, v, w))
            positive += w
        elif w < 0:
            arcs.append((v, n + 1, -w))
    value, _, reachable = max_flow_oracle(n, arcs)
    return sorted(view.vertices[v] for v in reachable if v < n) if positive > value else None


def min_ratio_oracle(g, k, floor):
    """Dinkelbach iteration on ``Fraction`` ratios over a name-keyed k: the oracle."""
    view = g.indexed
    q = min(Fraction(g.degree(v), abs(k[v])) for v in g.vertices if k[v])
    while q > floor and (x := _violating_subset_oracle(g, k, q)) is not None:
        side = {view.pos[v] for v in x}
        cut = sum((a in side) != (b in side) for a, b in view.ends)
        q = Fraction(cut, abs(sum(k[v] for v in x)))
    return q


def phi_c_valuation_oracle(g):
    """The depth-first search for the least balanced r over a name-keyed k,
    with the best q a ``Fraction``: the oracle."""
    order = list(g.vertices)
    odd = [v for v in order if g.degree(v) % 2]
    if not odd:
        return Fraction(2), {v: 0 for v in order}
    slack = [0] * (len(order) + 1)
    for i in reversed(range(len(order))):
        slack[i] = slack[i + 1] + max(g.degree(order[i]) - 2, 0)
    best_q, best_k = Fraction(1), None
    k = {}

    def search(i, total):
        nonlocal best_q, best_k
        if abs(total) > slack[i]:
            return
        if i == len(order):
            q = min_ratio_oracle(g, k, best_q)
            if q > best_q:
                best_q, best_k = q, dict(k)
            return
        v, d = order[i], g.degree(order[i])
        for kv in sorted(range(-d, d + 1, 2), key=abs):
            if (kv == 0 or abs(kv) * best_q < d) and (v != odd[0] or kv > 0):
                k[v] = kv
                search(i + 1, total + kv)

    search(0, 0)
    if best_k is None:
        raise ValuationError("no valuation is balanced at a finite r: the graph has a bridge")
    return 2 * best_q / (best_q - 1), best_k


def matched_flow_witness_oracle(g, flow, matching, t):
    """The matched witness flow found on the built H = g + (2t-2)M by
    ``circulation_feasible``, with the copies named e@c1 .. e@c(2t-2): the oracle."""
    m = list(matching)
    bip = flow_to_bipartition(g, flow)
    h = add_matching_copies(g, m, 2 * t - 2)
    dirs, m_set, seen = {}, set(m), set()
    for v in g.vertices:
        if v in seen:
            continue
        walk, prev_edge = v, None
        while True:
            seen.add(walk)
            nxt_edge = next(eid for eid in g.incident_edges(walk)
                            if eid != prev_edge and eid not in dirs and eid not in m_set)
            nxt = g.edge(nxt_edge).other(walk)
            dirs[nxt_edge] = (walk, nxt)
            prev_edge, walk = nxt_edge, nxt
            if walk == v:
                break
    for eid in m:
        e = g.edge(eid)
        white, black = (e.u, e.v) if e.u in bip.white else (e.v, e.u)
        for idx, ceid in enumerate([eid] + [f"{eid}@c{j}" for j in range(1, 2 * t - 1)]):
            dirs[ceid] = (white, black) if idx < t else (black, white)
    ok, witness = circulation_feasible(h, dirs, bound_formula(flow.r, t))
    if not ok:
        raise FlowError(f"balancedness violated at X={sorted(witness)!r}")
    return witness


def matching_copy_ids_oracle(g, matching, k):
    """The k least j >= 1 with e@cj not an edge of g, for each matching edge
    e, probed one j at a time: the oracle."""
    out = []
    for eid in matching:
        ids, j = [], 0
        while len(ids) < k:
            j += 1
            if not g.has_edge(f"{eid}@c{j}"):
                ids.append(f"{eid}@c{j}")
        out.append(ids)
    return out


def canonical_serialize_oracle(g):
    """Vertex and edge ids sorted, each edge looked up and its ends sorted: the oracle."""
    lines = [FORMAT_HEADER]
    for v in sorted(g.vertices):
        lines.append(f"vertex {v}")
    for eid in sorted(g.edge_ids):
        e = g.edge(eid)
        u, v = sorted((e.u, e.v))
        lines.append(f"edge {eid} {u} {v}")
    return "\n".join(lines) + "\n"


def matching_cover_oracle(h, deadline):
    """The matching cover with the demand copied at every node and no
    cut-off with two colors left: the oracle."""
    view = h.indexed
    copies = {}
    for e, pair in enumerate(view.ends):
        copies.setdefault(frozenset(pair), []).append(e)
    support = list(copies.values())
    ends = [view.ends[ids[0]] for ids in support]
    at = [[] for _ in view.vertices]
    for s, (a, b) in enumerate(ends):
        at[a].append((s, b))
        at[b].append((s, a))
    failed = set()

    def cover(need):
        deadline.tick()
        pivot = next((s for s, k in enumerate(need) if k), None)
        if pivot is None:
            return []
        if need in failed:
            return None
        a, b = ends[pivot]
        inc = [[(s, w) for s, w in at_v if need[s]] for at_v in at]
        for pm in _matchings_of(inc, 1 << a | 1 << b, deadline.poll):
            pm.append(pivot)
            rest = list(need)
            for s in pm:
                rest[s] -= 1
            found = cover(tuple(rest))
            if found is not None:
                return [pm] + found
        failed.add(need)
        return None

    if len(view.vertices) % 2 and support:
        return None
    factors = cover(tuple(len(ids) for ids in support))
    if factors is None:
        return None
    unused = [iter(ids) for ids in support]
    return {view.edge_ids[next(unused[s])]: c for c, pm in enumerate(factors) for s in pm}


def is_proper_oracle(g, coloring):
    """is_proper with a seen-color dict at every vertex: the oracle."""
    colors = coloring.colors
    if set(colors) != set(g.edge_ids):
        raise ColoringError("coloring does not cover exactly the edges of the graph")
    for v in g.vertices:
        seen = {}
        for eid in g.incident_edges(v):
            c = colors[eid]
            if c in seen:
                return False, (v, seen[c], eid)
            seen[c] = eid
    return True, None


def sees_odd_violation_oracle(g, coloring):
    """sees_odd_violation with a count list at every vertex: the oracle."""
    colors, palette = coloring.colors, coloring.palette
    if set(colors) != set(g.edge_ids):
        raise ColoringError("coloring does not cover exactly the edges of the graph")
    bad = next((e for e, c in colors.items() if not 0 <= c < palette), None)
    if bad is not None:
        raise ColoringError(f"edge {bad!r} has color {colors[bad]}, "
                            f"outside the palette 0..{palette - 1}")
    for v in g.vertices:
        counts = [0] * palette
        for eid in g.incident_edges(v):
            counts[colors[eid]] += 1
        for c, cnt in enumerate(counts):
            if cnt % 2 == 0:
                return (v, c, cnt)
    return None


def edges_between_oracle(g, u, v):
    """The edges at u whose ends are the pair {u, v}: the oracle."""
    pair = frozenset((u, v))
    return tuple(e for e in g.incident_edges(u) if g.edge(e).ends == pair)


def max_multiplicity_oracle(g):
    """The largest number of edges on one pair of ends: the oracle."""
    counts = {}
    for e in g.edges():
        counts[e.ends] = counts.get(e.ends, 0) + 1
    return max(counts.values(), default=0)


def girth_oracle(g):
    """Breadth-first search from every vertex on vertex names: the oracle."""
    if max_multiplicity_oracle(g) >= 2:
        return 2
    best = None
    for src in g.vertices:
        dist = {src: 0}
        parent_edge = {}
        queue = [src]
        while queue:
            nxt = []
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


def _bipartite_perfect_matching_oracle(g, edge_pool, left):
    """Kuhn augmenting paths over the surviving edge pool."""
    match_edge = {}

    def try_vertex(u, banned):
        for eid in g.incident_edges(u):
            if eid not in edge_pool:
                continue
            w = g.edge(eid).other(u)
            if w in banned:
                continue
            banned.add(w)
            if w not in match_edge or try_vertex(g.edge(match_edge[w]).other(w), banned):
                match_edge[w] = eid
                return True
        return False

    for u in left:
        if not try_vertex(u, set()):
            return None
    return list(match_edge.values())


def bipartite_regular_flow_oracle(g, t):
    """Peels a 1-factorization, orients t+1 factors A->B with value 1 and the
    remaining t factors B->A with value (t+1)/t: the oracle."""
    a_side, _ = bipartite_sides(g)
    pool = set(g.edge_ids)
    left = sorted(a_side)
    dirs, values = {}, {}
    for idx in range(2 * t + 1):
        factor = _bipartite_perfect_matching_oracle(g, pool, left)
        if factor is None:
            raise FlowError("regular bipartite graph failed to 1-factorize")
        pool -= set(factor)
        forward = idx <= t  # t+1 factors A->B
        for eid in factor:
            e = g.edge(eid)
            a, b = (e.u, e.v) if e.u in a_side else (e.v, e.u)
            dirs[eid] = (a, b) if forward else (b, a)
            values[eid] = Fraction(1) if forward else Fraction(t + 1, t)
    return RationalFlow(dirs, values, Fraction(2 * t + 1, t))


def flow_violation_oracle(g, flow):
    """The flow check on g's indexed view, each edge's value scaled and its
    ends looked up by ``_arc`` one edge at a time: the oracle."""
    view, dirs, values = g.indexed, flow.orientation, flow.values
    if not dirs.keys() == values.keys() == g._edges.keys():
        raise FlowError("flow does not cover exactly the edges of the graph")
    den = lcm(flow.r.denominator, *{x.denominator for x in values.values()})
    if flow.mode == INTEGER_ONE_ZERO:
        zero, hi, step = flow.zero_edge, 3 * den, den
    else:
        zero, hi, step = None, flow.r.numerator * (den // flow.r.denominator) - den, 1
    net = [0] * len(view.vertices)
    bad = None
    for eid, val in values.items():
        tail, head = _arc(g, eid, dirs[eid], "orientation endpoints disagree with the graph")
        x = val.numerator * (den // val.denominator)
        net[tail] -= x
        net[head] += x
        if bad is None and (x != 0 if eid == zero else not den <= x <= hi or x % step):
            bad = eid

    unbalanced = sorted(view.vertices[v] for v, x in enumerate(net) if x)
    if unbalanced:
        return {"conservation_at": unbalanced}
    if flow.mode == INTEGER_ONE_ZERO and zero not in g._edges:
        raise FlowError("integer mode requires a flagged zero edge")
    return None if bad is None else {"edge": bad, "value": rat(values[bad])}


def witness_excess_oracle(g, witness, r):
    """Out - in per vertex of a witness flow that is nowhere-zero on g at r,
    else None, through ``flow_from_witness``, ``flow_violation`` and a
    ``Counter``: the oracle."""
    flow = flow_from_witness(g, witness)
    if flow.r != r or flow.mode != NOWHERE_ZERO or flow.zero_edge is not None:
        return None
    if flow_violation(g, flow) is not None:
        return None
    out = Counter(tail for tail, _ in flow.orientation.values())
    out.subtract(head for _, head in flow.orientation.values())
    return {v: out[v] for v in g.vertices}


def flow_to_witness_oracle(flow):
    """The witness with one ``rat`` per edge: the oracle."""
    return {
        "r": rat(flow.r),
        "mode": flow.mode,
        "zero_edge": flow.zero_edge,
        "edges": {
            eid: {"tail": t, "head": h, "value": rat(flow.values[eid])}
            for eid, (t, h) in sorted(flow.orientation.items())
        },
    }


def flow_from_witness_oracle(g, witness):
    """The witness read through a fresh ``functools.cache`` of ``unrat``: the oracle."""
    dirs = {}
    values = {}
    parse = cache(unrat)
    for eid, rec in witness["edges"].items():
        g.edge(eid)
        dirs[eid] = (rec["tail"], rec["head"])
        values[eid] = parse(rec["value"])
    return RationalFlow(dirs, values, unrat(witness["r"]),
                        witness.get("mode", NOWHERE_ZERO), witness.get("zero_edge"))


def write_flow_oracle(flow):
    """The flow file with one ``rat`` per edge: the oracle."""
    lines = [FLOW_HEADER, f"r {rat(flow.r)}", f"mode {flow.mode}"]
    if flow.zero_edge is not None:
        lines.append(f"zero-edge {flow.zero_edge}")
    for eid, (tail, head) in sorted(flow.orientation.items()):
        lines.append(f"{eid} {tail} {head} {rat(flow.values[eid])}")
    return "\n".join(lines) + "\n"


def to_json_oracle(cert):
    """The certificate file encoded a second time with ``indent=2``: the oracle."""
    doc = {"certificate": cert.canonical_payload(), "meta": {"elapsed_s": cert.elapsed_s}}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def bound_formula_oracle(r, t):
    """2 + 2(r-2) / (r + (2t-3)(r-2)) in ``Fraction`` arithmetic: the oracle."""
    r = Fraction(r)
    if r <= 2:
        raise ValuationError("the bound formula requires r > 2")
    if t < 1:
        raise ValuationError("t must be a positive integer")
    return 2 + 2 * (r - 2) / (r + (2 * t - 3) * (r - 2))
