"""Orientations, exact rational flows, circulation feasibility and circular
flow numbers.

All verdict arithmetic is exact: values are ``fractions.Fraction`` and cut
counts are integers.  Floating point appears only inside the orientation
enumeration to preselect the extremal cut, and the selected optimum is then
re-proved with integer arithmetic before anything is reported.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import valuations
from .certificates import Certificate, make_certificate, rat, unrat
from .multigraph import (
    GraphError,
    Multigraph,
    _max_flow,
    add_matching_copies,
    bridges,
    connected_components,
    is_perfect_matching,
)

NOWHERE_ZERO = "nowhere-zero"
INTEGER_ONE_ZERO = "integer-4-flow-one-zero"

PHI_C_EDGE_CAP = 16


class FlowError(ValueError):
    pass


class BridgedGraphError(FlowError):
    """Bridged graphs admit no nowhere-zero flow at all."""


class SizeCapExceeded(FlowError):
    pass


class Orientation:
    """A direction (tail, head) for every edge of one graph."""

    def __init__(self, directions: Mapping[str, tuple[str, str]]):
        self._dir = dict(directions)

    def direction(self, eid: str) -> tuple[str, str]:
        return self._dir[eid]

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(self._dir)

    def items(self):
        return self._dir.items()

    def covers(self, g: Multigraph) -> bool:
        if set(self._dir) != set(g.edge_ids):
            return False
        return all(g.edge(eid).ends == frozenset(pair) for eid, pair in self._dir.items())

    def reversed(self) -> "Orientation":
        return Orientation({eid: (h, t) for eid, (t, h) in self._dir.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Orientation):
            return NotImplemented
        return self._dir == other._dir


@dataclass(frozen=True)
class RationalFlow:
    orientation: Orientation
    values: dict[str, Fraction]
    r: Fraction
    mode: str = NOWHERE_ZERO
    zero_edge: str | None = None

    def value(self, eid: str) -> Fraction:
        return self.values[eid]

    def with_r(self, r: Fraction) -> "RationalFlow":
        return replace(self, r=Fraction(r))


def flow_to_witness(flow: RationalFlow) -> dict:
    return {
        "r": rat(flow.r),
        "mode": flow.mode,
        "zero_edge": flow.zero_edge,
        "edges": {
            eid: {"tail": t, "head": h, "value": rat(flow.values[eid])}
            for eid, (t, h) in sorted(flow.orientation.items())
        },
    }


def flow_from_witness(g: Multigraph, witness: dict) -> RationalFlow:
    dirs = {}
    values = {}
    for eid, rec in witness["edges"].items():
        g.edge(eid)
        dirs[eid] = (rec["tail"], rec["head"])
        values[eid] = unrat(rec["value"])
    return RationalFlow(Orientation(dirs), values, unrat(witness["r"]),
                        witness.get("mode", NOWHERE_ZERO), witness.get("zero_edge"))


# -- verification ------------------------------------------------------------


def conservation_violations(g: Multigraph, flow: RationalFlow) -> list[str]:
    net: dict[str, Fraction] = {v: Fraction(0) for v in g.vertices}
    for eid in g.edge_ids:
        tail, head = flow.orientation.direction(eid)
        val = flow.values[eid]
        net[tail] -= val
        net[head] += val
    return [v for v, x in net.items() if x != 0]


def verify_flow(g: Multigraph, flow: RationalFlow) -> Certificate:
    """Exact validity check: conservation everywhere, values in [1, r-1].

    In the intermediate integer mode the flagged edge must carry exactly 0 and
    every other edge an integer in [1, 3].
    """
    if set(flow.orientation.edge_ids()) != set(g.edge_ids) or set(flow.values) != set(g.edge_ids):
        raise FlowError("flow does not cover exactly the edges of the graph")
    if not flow.orientation.covers(g):
        raise FlowError("orientation endpoints disagree with the graph")

    params = {"r": flow.r, "mode": flow.mode}
    bad = conservation_violations(g, flow)
    if bad:
        return make_certificate("flow-valid", g, params,
                                {"flow": flow_to_witness(flow), "violation": {"conservation_at": sorted(bad)}},
                                "refuted")
    if flow.mode == INTEGER_ONE_ZERO:
        if flow.zero_edge is None or not g.has_edge(flow.zero_edge):
            raise FlowError("integer mode requires a flagged zero edge")
        for eid, val in flow.values.items():
            ok = (val == 0) if eid == flow.zero_edge else (val.denominator == 1 and 1 <= val <= 3)
            if not ok:
                return make_certificate("flow-valid", g, params,
                                        {"flow": flow_to_witness(flow),
                                         "violation": {"edge": eid, "value": rat(val)}},
                                        "refuted")
    else:
        lo, hi = Fraction(1), flow.r - 1
        for eid, val in flow.values.items():
            if not lo <= val <= hi:
                return make_certificate("flow-valid", g, params,
                                        {"flow": flow_to_witness(flow),
                                         "violation": {"edge": eid, "value": rat(val)}},
                                        "refuted")
    return make_certificate("flow-valid", g, params, {"flow": flow_to_witness(flow)}, "verified")


# -- circuits ----------------------------------------------------------------


@dataclass(frozen=True)
class DirectedCircuit:
    """Closed sequence of distinct edges, each traversed tail -> head."""

    edges: tuple[str, ...]
    start: str

    def vertices(self, orientation: Orientation) -> tuple[str, ...]:
        seq = [self.start]
        for eid in self.edges:
            t, h = orientation.direction(eid)
            if t != seq[-1]:
                raise FlowError(f"edge {eid!r} is not forward-directed at {seq[-1]!r}")
            seq.append(h)
        return tuple(seq)

    def validate(self, orientation: Orientation) -> None:
        if len(set(self.edges)) != len(self.edges):
            raise FlowError("circuit repeats an edge")
        seq = self.vertices(orientation)
        if seq[-1] != self.start:
            raise FlowError("circuit is not closed")
        if len(set(seq[:-1])) != len(seq) - 1:
            raise FlowError("circuit repeats a vertex")


def add_circuit_flow(flow: RationalFlow, circuit: DirectedCircuit, amount: Fraction) -> RationalFlow:
    """Increase the flow by ``amount`` along a forward-directed circuit."""
    amount = Fraction(amount)
    if amount < 0:
        raise FlowError("amount must be nonnegative")
    circuit.validate(flow.orientation)
    values = dict(flow.values)
    for eid in circuit.edges:
        values[eid] = values[eid] + amount
    return replace(flow, values=values)


def sum_signed_circuits(flow: RationalFlow,
                        circuits: Sequence[Sequence[tuple[str, int]]],
                        amount: Fraction) -> RationalFlow:
    """Add ``amount`` along circuits given as (edge id, +-1 direction) lists.

    A -1 entry traverses the edge against the base orientation, so its value
    decreases; the result must stay positive on every edge.
    """
    amount = Fraction(amount)
    values = dict(flow.values)
    for circ in circuits:
        for eid, sign in circ:
            values[eid] = values[eid] + sign * amount
    if any(v <= 0 for v in values.values()):
        raise FlowError("signed circuit sum drove an edge to a nonpositive value")
    return replace(flow, values=values, mode=NOWHERE_ZERO, zero_edge=None)


# -- circulation feasibility --------------------------------------------------


def circulation_feasible(g: Multigraph, d: Orientation, r: Fraction):
    """Does ``d`` carry a flow with every value in [1, r-1]?

    Returns (True, RationalFlow) or (False, violating vertex set X with
    |out(X)| > (r-1)|in(X)|).  Exact rational max-flow underneath.
    """
    r = Fraction(r)
    if r < 2:
        raise FlowError("feasibility is defined for r >= 2")
    if not d.covers(g):
        raise FlowError("orientation does not cover the graph")
    lo, hi = Fraction(1), r - 1
    source, sink = "__source__", "__sink__"
    excess: dict[str, Fraction] = {v: Fraction(0) for v in g.vertices}
    arcs: list[tuple[str, str, Fraction]] = []
    arc_for_edge: dict[str, int] = {}
    for eid in g.edge_ids:
        tail, head = d.direction(eid)
        arc_for_edge[eid] = len(arcs)
        arcs.append((tail, head, hi - lo))
        excess[head] += lo
        excess[tail] -= lo
    need = Fraction(0)
    for v, x in excess.items():
        if x > 0:
            arcs.append((source, v, x))
            need += x
        elif x < 0:
            arcs.append((v, sink, -x))
    nodes = list(g.vertices) + [source, sink]
    total, arc_flow, reachable = _max_flow(nodes, arcs, source, sink)
    if total == need:
        values = {eid: lo + arc_flow[arc_for_edge[eid]] for eid in g.edge_ids}
        return True, RationalFlow(d, values, r)
    inside = frozenset(v for v in g.vertices if v in reachable)
    for candidate in (frozenset(g.vertices) - inside, inside):
        if not candidate or candidate == frozenset(g.vertices):
            continue
        out = sum(1 for eid in g.edge_ids if d.direction(eid)[0] in candidate
                  and d.direction(eid)[1] not in candidate)
        inn = sum(1 for eid in g.edge_ids if d.direction(eid)[1] in candidate
                  and d.direction(eid)[0] not in candidate)
        if out > (r - 1) * inn:
            return False, candidate
    raise FlowError("internal error: infeasible circulation without a violating cut")


# -- circular flow number ------------------------------------------------------


@dataclass(frozen=True)
class PhiCResult:
    value: Fraction
    orientation: Orientation
    flow: RationalFlow


def _phi_c_connected(g: Multigraph) -> tuple[Fraction, int]:
    """Exact min over orientations of the max cut ratio, as (value, best bits)."""
    verts = list(g.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    n, m = len(verts), g.num_edges()
    ui = np.array([pos[e.u] for e in g.edges()])
    vi = np.array([pos[e.v] for e in g.edges()])

    masks = np.arange(1, (1 << n) - 1, dtype=np.int64)
    X = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    u_in = X[:, ui]
    v_in = X[:, vi]
    A = (u_in & ~v_in).astype(np.int64)  # edge crosses out of X when oriented u->v
    B = (~u_in & v_in).astype(np.int64)
    S = A.shape[0]

    total_orients = 1 << max(m - 1, 0)  # first edge direction fixed (reversal symmetry)
    chunk = max(1, min(1 << 14, (1 << 24) // max(S, 1)))
    best_num, best_den, best_bits = None, None, None
    for start in range(0, total_orients, chunk):
        o = np.arange(start, min(start + chunk, total_orients), dtype=np.int64)
        beta = np.zeros((len(o), m), dtype=np.int64)
        if m > 1:
            beta[:, 1:] = (o[:, None] >> np.arange(m - 1)[None, :]) & 1
        plus = A @ (1 - beta).T + B @ beta.T  # (S, C)
        minus = A @ beta.T + B @ (1 - beta).T
        valid = (minus > 0).all(axis=0)
        if not valid.any():
            continue
        # Float ratios only preselect the extremal cut; the winning orientation
        # is re-proved with integer arithmetic below.
        ratios = plus / np.maximum(minus, 1)
        ratios[minus == 0] = np.inf
        rows = np.argmax(ratios, axis=0)
        cols = np.arange(len(o))
        num = plus[rows, cols]
        den = minus[rows, cols]
        for c in np.flatnonzero(valid):
            nc, dc = int(num[c]), int(den[c])
            if best_num is None or nc * best_den < best_num * dc:
                best_num, best_den, best_bits = nc, dc, (int(o[c]) << 1)
    if best_num is None:
        raise FlowError("no orientation admits a circulation (graph is bridged?)")

    # Integer re-proof: the reported max ratio for the winner must match an
    # exhaustive exact scan, which also certifies global optimality.
    bits = best_bits >> 1
    beta = np.zeros(m, dtype=np.int64)
    if m > 1:
        beta[1:] = (bits >> np.arange(m - 1)) & 1
    plus = A @ (1 - beta) + B @ beta
    minus = A @ beta + B @ (1 - beta)
    exact_num, exact_den = 0, 1
    for p, q in zip(plus.tolist(), minus.tolist()):
        if q == 0:
            raise FlowError("internal error: selected orientation has a sourceless cut")
        if p * exact_den > exact_num * q:
            exact_num, exact_den = p, q
    if Fraction(exact_num, exact_den) != Fraction(best_num, best_den):
        raise FlowError("internal error: float preselection disagreed with exact scan")
    return 1 + Fraction(best_num, best_den), best_bits


def circular_flow_number(g: Multigraph, cap: int = PHI_C_EDGE_CAP) -> PhiCResult:
    """Exact circular flow number with a verified optimal witness flow.

    Full orientation enumeration; errors on bridged graphs and on graphs
    above the edge cap.
    """
    if g.num_edges() == 0:
        empty = Orientation({})
        return PhiCResult(Fraction(2), empty, RationalFlow(empty, {}, Fraction(2)))
    bridge_ids = bridges(g)
    if bridge_ids:
        raise BridgedGraphError(f"graph has bridges {sorted(bridge_ids)!r}: no nowhere-zero flow exists")
    if g.num_edges() > cap:
        raise SizeCapExceeded(f"|E|={g.num_edges()} exceeds enumeration cap {cap}")

    comps = connected_components(g)
    value = Fraction(2)
    directions: dict[str, tuple[str, str]] = {}
    for comp in comps:
        sub = Multigraph(sorted(comp), [(e.eid, e.u, e.v) for e in g.edges() if e.u in comp])
        if sub.num_edges() == 0:
            continue
        comp_value, bits = _phi_c_connected(sub)
        value = max(value, comp_value)
        for i, e in enumerate(sub.edges()):
            directions[e.eid] = (e.v, e.u) if (bits >> i) & 1 else (e.u, e.v)
    orientation = Orientation(directions)
    ok, witness = circulation_feasible(g, orientation, value)
    if not ok:
        raise FlowError("internal error: optimal orientation rejected its own flow value")
    check = verify_flow(g, witness)
    if check.verdict != "verified":
        raise FlowError("internal error: witness flow failed verification")
    return PhiCResult(value, orientation, witness)


def phi_c_certificate(g: Multigraph, result: PhiCResult, elapsed_s: float = 0.0) -> Certificate:
    return make_certificate("phi-c-value", g, {"r": result.value},
                            {"flow": flow_to_witness(result.flow)}, "verified", elapsed_s)


# -- constructive flows --------------------------------------------------------


def bipartite_sides(g: Multigraph) -> tuple[set[str], set[str]] | None:
    color: dict[str, int] = {}
    for src in g.vertices:
        if src in color:
            continue
        color[src] = 0
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for eid in g.incident_edges(v):
                w = g.edge(eid).other(v)
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return ({v for v, c in color.items() if c == 0}, {v for v, c in color.items() if c == 1})


def _bipartite_perfect_matching(g: Multigraph, edge_pool: set[str],
                                left: Sequence[str]) -> list[str] | None:
    """Kuhn augmenting paths over the surviving edge pool."""
    match_edge: dict[str, str] = {}

    def try_vertex(u: str, banned: set[str]) -> bool:
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


def bipartite_regular_flow(g: Multigraph, t: int) -> RationalFlow:
    """A verified nowhere-zero (2+1/t)-flow on a bipartite (2t+1)-regular graph.

    Peels a 1-factorization, orients t+1 factors A->B with value 1 and the
    remaining t factors B->A with value (t+1)/t.
    """
    t = int(t)
    if t < 1:
        raise FlowError("t must be a positive integer")
    if not g.is_regular(2 * t + 1):
        raise FlowError(f"graph is not {2 * t + 1}-regular")
    sides = bipartite_sides(g)
    if sides is None:
        raise FlowError("graph is not bipartite")
    a_side, b_side = sides
    pool = set(g.edge_ids)
    left = sorted(a_side)
    factors: list[list[str]] = []
    for _ in range(2 * t + 1):
        factor = _bipartite_perfect_matching(g, pool, left)
        if factor is None:
            raise FlowError("internal error: regular bipartite graph failed to 1-factorize")
        factors.append(factor)
        pool -= set(factor)

    dirs: dict[str, tuple[str, str]] = {}
    values: dict[str, Fraction] = {}
    for idx, factor in enumerate(factors):
        forward = idx <= t  # t+1 factors A->B
        for eid in factor:
            e = g.edge(eid)
            a, b = (e.u, e.v) if e.u in a_side else (e.v, e.u)
            dirs[eid] = (a, b) if forward else (b, a)
            values[eid] = Fraction(1) if forward else Fraction(t + 1, t)
    flow = RationalFlow(Orientation(dirs), values, Fraction(2 * t + 1, t))
    if verify_flow(g, flow).verdict != "verified":
        raise FlowError("internal error: constructed bipartite flow failed verification")
    return flow


# -- the explicit Flower snark flow -------------------------------------------


@dataclass(frozen=True)
class FlowerFlowData:
    n: int
    graph: Multigraph
    flow: RationalFlow
    base_flow: RationalFlow
    circuits: tuple[tuple[tuple[str, int], ...], ...]
    matching: frozenset[str]
    bipartition: valuations.Bipartition


def build_flower_flow(n: int) -> FlowerFlowData:
    """The nowhere-zero (4+1/n)-flow on J_{2n+1} built from its proof recipe.

    Starts from the integer 4-flow with the single zero edge a0-b0 and adds
    value 1/n along n circuits; circuit j leaves the spoke layer at the
    3-valued edge d(2j-1)-b(2j-1), so those edges stay within the cap.
    """
    from .families import flower_snark  # deferred: families has no flow needs

    if n < 1:
        raise FlowError("n must be a positive integer")
    g = flower_snark(n).graph
    mod = 2 * n + 1

    dirs: dict[str, tuple[str, str]] = {}
    vals: dict[str, Fraction] = {}

    def put(eid: str, tail: str, head: str, value: int) -> None:
        dirs[eid] = (tail, head)
        vals[eid] = Fraction(value)

    put("ab0", "a0", "b0", 0)
    put("bc0", "b0", "c0", 2)
    put("bd0", "d0", "b0", 2)
    for i in range(1, 2 * n, 2):
        put(f"ab{i}", f"b{i}", f"a{i}", 1)
        put(f"ab{i + 1}", f"a{i + 1}", f"b{i + 1}", 1)
        put(f"bc{i}", f"b{i}", f"c{i}", 2)
        put(f"bc{i + 1}", f"b{i + 1}", f"c{i + 1}", 3)
        put(f"bd{i}", f"d{i}", f"b{i}", 3)
        put(f"bd{i + 1}", f"d{i + 1}", f"b{i + 1}", 2)
    for i in range(0, 2 * n + 1, 2):
        put(f"aa{i}", f"a{i}", f"a{(i + 1) % mod}", 1)
        put(f"dc{i}", f"c{(i + 1) % mod}", f"d{i}", 1)
    for i in range(1, 2 * n, 2):
        put(f"aa{i}", f"a{i}", f"a{i + 1}", 2)
        put(f"dc{i}", f"c{i + 1}", f"d{i}", 2)
    for i in range(mod):
        put(f"cd{i}", f"c{i}", f"d{(i + 1) % mod}", 1)

    base = RationalFlow(Orientation(dirs), vals, Fraction(4), INTEGER_ONE_ZERO, "ab0")
    check = verify_flow(g, base)
    if check.verdict != "verified":
        raise FlowError("internal error: transcribed 4-flow is invalid")

    circuits: list[tuple[tuple[str, int], ...]] = []
    for j in range(1, n + 1):
        circ: list[tuple[str, int]] = [("ab0", 1), ("bc0", 1), ("cd0", 1)]
        for k in range(1, j):
            circ.append((f"dc{2 * k - 1}", -1))  # d(2k-1) -> c(2k) against orientation
            circ.append((f"cd{2 * k}", 1))
        circ.append((f"bd{2 * j - 1}", 1))
        circ.append((f"ab{2 * j - 1}", 1))
        for i in range(2 * j - 1, mod):
            circ.append((f"aa{i}", 1))
        circuits.append(tuple(circ))

    final = sum_signed_circuits(base, circuits, Fraction(1, n)).with_r(Fraction(4 * n + 1, n))
    if verify_flow(g, final).verdict != "verified":
        raise FlowError("internal error: flower flow failed verification")

    matching = frozenset([f"ab{i}" for i in range(mod)] + [f"dc{i}" for i in range(mod)])
    if not is_perfect_matching(g, matching):
        raise FlowError("internal error: flower matching is not perfect")
    bip = valuations.flow_to_bipartition(g, final)
    for eid in matching:
        e = g.edge(eid)
        if bip.color(e.u) == bip.color(e.v):
            raise FlowError("internal error: flower matching does not pair black with white")
    return FlowerFlowData(n, g, final, base, tuple(circuits), matching, bip)


# -- flow witness for matched multigraphs --------------------------------------


def matched_flow_witness(g: Multigraph, flow: RationalFlow, matching: Sequence[str], t: int) -> RationalFlow:
    """A nowhere-zero flow on g + (2t-2)M at the asymptotic bound value.

    The 2-factor g - M is oriented cyclically and the 2t-1 parallel copies of
    each matching edge are split t from white to black, t-1 back; with that
    imbalance the circulation at the bound value is feasible whenever the
    bipartition valuation is balanced, which the verified flow guarantees.
    """
    t = int(t)
    m = list(matching)
    bip = valuations.flow_to_bipartition(g, flow)
    h = add_matching_copies(g, m, 2 * t - 2)
    r_target = valuations.bound_formula(flow.r, t)

    dirs: dict[str, tuple[str, str]] = {}
    m_set = set(m)
    rest = g.with_edges_removed(m_set)
    seen: set[str] = set()
    for v in rest.vertices:
        if v in seen or rest.degree(v) == 0:
            continue
        walk = v
        prev_edge: str | None = None
        while True:
            seen.add(walk)
            nxt_edge = next(eid for eid in rest.incident_edges(walk) if eid != prev_edge and eid not in dirs)
            nxt = rest.edge(nxt_edge).other(walk)
            dirs[nxt_edge] = (walk, nxt)
            prev_edge, walk = nxt_edge, nxt
            if walk == v:
                break
    for eid in m:
        e = g.edge(eid)
        white, black = (e.u, e.v) if e.u in bip.white else (e.v, e.u)
        copies = [eid] + [f"{eid}@c{j}" for j in range(1, 2 * t - 1)]
        for idx, ceid in enumerate(copies):
            dirs[ceid] = (white, black) if idx < t else (black, white)

    ok, witness = circulation_feasible(h, Orientation(dirs), r_target)
    if not ok:
        raise FlowError(f"balancedness violated at X={sorted(witness)!r}: no flow at the bound value")
    return witness


# -- flow file format -----------------------------------------------------------

FLOW_HEADER = "circflow-flow v1"


def write_flow(flow: RationalFlow) -> str:
    lines = [FLOW_HEADER, f"r {rat(flow.r)}", f"mode {flow.mode}"]
    if flow.zero_edge is not None:
        lines.append(f"zero-edge {flow.zero_edge}")
    for eid, (tail, head) in sorted(flow.orientation.items()):
        lines.append(f"{eid} {tail} {head} {rat(flow.values[eid])}")
    return "\n".join(lines) + "\n"


def read_flow(text: str) -> RationalFlow:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != FLOW_HEADER:
        raise FlowError(f"expected header {FLOW_HEADER!r}")
    r: Fraction | None = None
    mode = NOWHERE_ZERO
    zero_edge: str | None = None
    dirs: dict[str, tuple[str, str]] = {}
    values: dict[str, Fraction] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "r":
            r = unrat(parts[1])
        elif parts[0] == "mode":
            mode = parts[1]
        elif parts[0] == "zero-edge":
            zero_edge = parts[1]
        else:
            eid, tail, head, val = parts
            dirs[eid] = (tail, head)
            values[eid] = unrat(val)
    if r is None:
        raise FlowError("flow file missing its r header")
    return RationalFlow(Orientation(dirs), values, r, mode, zero_edge)
