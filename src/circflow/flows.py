"""Exact rational flows, circulation feasibility and circular flow numbers.

A flow is plain data: an orientation dict (edge id -> (tail, head)), a value
per edge and r.  The constructive flows of the flower snarks and the Blanusa
chain both follow one recipe, an integer 4-flow with one zero edge plus a
fraction along circuits, and both add that fraction with ``add_circuits``,
which checks every circuit it is given.

All arithmetic is exact: values are ``fractions.Fraction``, cut counts are
integers, and max-flows run on capacities scaled to integers.  A flow is
checked by ``flow_violation``: each distinct value object is scaled once to
an integer over the common denominator of r and the values, and conservation
is an integer sum per vertex id, with no indexed view of the graph.  A flow
has few distinct values, so the witness and the flow file likewise render
each value object once, and a witness is read back with one ``Fraction`` per
distinct string.  ``verify_flow`` runs the check at once and returns a
certificate whose witness, rendered from a snapshot of the flow, and graph
hash are made only when first read; checks that want only the verdict call
``flow_violation`` directly.  The circular flow number comes from the
balanced-valuation search in ``valuations``; its witness is an orientation
with the optimal out-minus-in degrees, found by one max-flow, and the flow
that ``circulation_feasible`` puts on it.  The witness of the matched bound
on g + (2t-2)M is no search: it is an affine image of g's own flow, with
fixed values on the copies of M.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import valuations
from .certificates import Certificate, make_certificate, rat, read_records, unrat
from .multigraph import (
    Multigraph,
    _max_flow,
    bridges,
    connected_components,
    is_perfect_matching,
    matching_copy_ids,
)

NOWHERE_ZERO = "nowhere-zero"
INTEGER_ONE_ZERO = "integer-4-flow-one-zero"

PHI_C_EDGE_CAP = 18


# The values 0..3 of an integer 4-flow, one object each, so that a base flow
# holds at most four distinct value objects.
_INTEGER_VALUES = {v: Fraction(v) for v in range(4)}


def _integer_value(v: int) -> Fraction:
    """``Fraction(v)``, the shared object when v is a value of an integer 4-flow."""
    x = _INTEGER_VALUES.get(v)
    return Fraction(v) if x is None else x


class FlowError(ValueError):
    pass


class BridgedGraphError(FlowError):
    """Bridged graphs admit no nowhere-zero flow at all."""


class SizeCapExceeded(FlowError):
    pass


@dataclass(frozen=True)
class RationalFlow:
    orientation: dict[str, tuple[str, str]]  # edge id -> (tail, head)
    values: dict[str, Fraction]
    r: Fraction
    mode: str = NOWHERE_ZERO
    zero_edge: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in (NOWHERE_ZERO, INTEGER_ONE_ZERO):
            raise FlowError(f"unknown flow mode {self.mode!r}")


def _rendered(flow: RationalFlow) -> Iterator[tuple[str, tuple[str, str], str]]:
    """Each edge id in order with its (tail, head) and its value as ``rat``
    text.  A flow has few distinct values, often shared by many edges, and
    hashing a ``Fraction`` is slow: the text is made once per value object,
    found by ``id``.  Equal values held as separate objects get equal text."""
    values, text = flow.values, {}
    for eid, pair in sorted(flow.orientation.items()):
        x = values[eid]
        s = text.get(id(x))
        if s is None:
            s = text[id(x)] = rat(x)
        yield eid, pair, s


def flow_to_witness(flow: RationalFlow) -> dict:
    return {
        "r": rat(flow.r),
        "mode": flow.mode,
        "zero_edge": flow.zero_edge,
        "edges": {eid: {"tail": t, "head": h, "value": x} for eid, (t, h), x in _rendered(flow)},
    }


def flow_from_witness(g: Multigraph, witness: dict) -> RationalFlow:
    dirs = {}
    values = {}
    parsed: dict[str, Fraction] = {}  # one Fraction per distinct string; Fraction is immutable
    for eid, rec in witness["edges"].items():
        g.edge(eid)
        dirs[eid] = (rec["tail"], rec["head"])
        x = parsed.get(rec["value"])
        if x is None:
            x = parsed[rec["value"]] = unrat(rec["value"])
        values[eid] = x
    return RationalFlow(dirs, values, unrat(witness["r"]),
                        witness.get("mode", NOWHERE_ZERO), witness.get("zero_edge"))


# -- verification ------------------------------------------------------------


def _arc(g: Multigraph, eid: str, pair: tuple[str, str], error: str) -> tuple[int, int]:
    """The (tail, head) vertex indices of ``pair``, which must hold the ends of edge ``eid``."""
    e, t, h = g._edges[eid], pair[0], pair[1]
    if not (t == e.u and h == e.v or t == e.v and h == e.u):
        raise FlowError(error)
    return g.indexed.pos[t], g.indexed.pos[h]


def flow_violation(g: Multigraph, flow: RationalFlow) -> dict | None:
    """Exact validity check, None or the violation: conservation everywhere,
    values in [1, r-1].  In the intermediate integer mode the flagged edge
    must carry exactly 0 and every other edge an integer in [1, 3].

    A flow has few distinct values, so each distinct value object, found
    by ``id``, is read and scaled once: with D the least common multiple of
    the denominators of r and the values, value x becomes the integer xD.
    Conservation is then an integer sum per vertex id, needing no indexed
    view of the graph, and the window is D <= xD <= (r-1)D.  This is exact
    whether or not equal values share one object, since equal values scale
    to equal integers: sharing only saves work.  A violation names every
    unbalanced vertex, or else the first edge out of the window in
    ``flow.values`` order, found after conservation by a scan for the
    out-of-window objects.
    """
    dirs, values, edges = flow.orientation, flow.values, g._edges
    if not dirs.keys() == values.keys() == edges.keys():
        raise FlowError("flow does not cover exactly the edges of the graph")
    vals = list(values.values())
    ids = list(map(id, vals))  # hashing a Fraction is slow: each value object is found by id
    distinct = dict(zip(ids, vals))
    den = lcm(flow.r.denominator, *{x.denominator for x in distinct.values()})
    scaled = {i: x.numerator * (den // x.denominator) for i, x in distinct.items()}
    net = dict.fromkeys(g._vertices, 0)
    for eid, i in zip(values, ids):
        pair, (_, u, v) = dirs[eid], edges[eid]
        tail, head = pair[0], pair[1]
        if not (tail == u and head == v or tail == v and head == u):
            raise FlowError("orientation endpoints disagree with the graph")
        x = scaled[i]
        net[tail] -= x
        net[head] += x

    unbalanced = sorted(v for v, x in net.items() if x)
    if unbalanced:
        return {"conservation_at": unbalanced}
    if flow.mode == INTEGER_ONE_ZERO:
        zero, hi, step = flow.zero_edge, 3 * den, den
        if zero not in edges:
            raise FlowError("integer mode requires a flagged zero edge")
    else:
        zero, hi, step = None, flow.r.numerator * (den // flow.r.denominator) - den, 1
    out = {i for i, x in scaled.items() if not den <= x <= hi or x % step}
    if out or zero is not None:  # the zero edge must carry 0, which is out of the window
        for eid, i in zip(values, ids):
            if scaled[i] if eid == zero else i in out:
                return {"edge": eid, "value": rat(values[eid])}
    return None


def verify_flow(g: Multigraph, flow: RationalFlow) -> Certificate:
    """``flow_violation`` as a ``flow-valid`` certificate carrying the flow.

    The check runs now and raises what it raises now.  The certificate's
    witness and graph hash are deferred (``make_certificate``): the witness
    renders a snapshot of the flow, with its own copies of the ``orientation``
    and ``values`` dicts, when ``witness`` is first read, as ``to_json`` and
    the hashes do.  So a caller that reads only the verdict renders nothing,
    and one that edits the flow afterwards does not change the certificate.
    The check reads only the first two items of each (tail, head), so each
    pair is unpacked here, as the render will, and one of the wrong length
    raises now.  Rendering then cannot fail: the edge ids are the graph's,
    each pair holds the ends of its edge, and ``rat`` takes every rational
    value that the check could scale.
    """
    violation = flow_violation(g, flow)
    for _tail, _head in flow.orientation.values():
        pass
    snapshot = RationalFlow(dict(flow.orientation), dict(flow.values), flow.r, flow.mode,
                            flow.zero_edge)

    def witness() -> dict:
        rendered = {"flow": flow_to_witness(snapshot)}
        if violation is not None:
            rendered["violation"] = violation
        return rendered

    return make_certificate("flow-valid", g, {"r": rat(flow.r), "mode": flow.mode}, witness,
                            "verified" if violation is None else "refuted")


# -- circuits ----------------------------------------------------------------


def add_circuits(flow: RationalFlow, circuits: Iterable[Sequence[tuple[str, int]]],
                 amount: Fraction, r: Fraction) -> RationalFlow:
    """Add ``amount`` along each circuit; the nowhere-zero flow at ``r``.

    A circuit is a closed walk of (edge id, +1 or -1) steps: +1 runs the edge
    tail -> head and raises its value, -1 runs it head -> tail and lowers it.
    Each walk must follow its signs, close up and repeat no edge or vertex,
    and every value of the result must be positive.  The walks only count
    the net sign per edge, and each new value x + net * amount is made once
    per distinct (x, net) from integer numerators and denominators.
    """
    amount = Fraction(amount)
    if amount <= 0:
        raise FlowError("amount must be positive")
    dirs = flow.orientation
    net: Counter[str] = Counter()
    for circuit in circuits:
        if len({eid for eid, _ in circuit}) != len(circuit):
            raise FlowError("circuit repeats an edge")
        start = at = None
        heads: set[str] = set()
        for eid, sign in circuit:
            if sign not in (1, -1):
                raise FlowError(f"step sign {sign!r} on edge {eid!r} is not +1 or -1")
            tail, head = dirs[eid] if sign == 1 else dirs[eid][::-1]
            if at is None:
                start = tail
            elif tail != at:
                raise FlowError(f"edge {eid!r} with sign {sign:+d} does not leave {at!r}")
            if head in heads:
                raise FlowError("circuit repeats a vertex")
            heads.add(head)
            at = head
            net[eid] += sign
        if at != start:
            raise FlowError("circuit is not closed")
    p, q = amount.numerator, amount.denominator
    values, moved = dict(flow.values), {}
    for eid, c in net.items():
        a, b = values[eid].as_integer_ratio()
        if (a, b, c) not in moved:
            moved[a, b, c] = Fraction(a * q + c * p * b, b * q)
        values[eid] = moved[a, b, c]
    if any(x.numerator <= 0 for x in values.values()):
        raise FlowError("adding the circuits drove an edge to a nonpositive value")
    return RationalFlow(dirs, values, Fraction(r))


# -- circulation feasibility --------------------------------------------------


def circulation_feasible(g: Multigraph, d: dict[str, tuple[str, str]], r: Fraction):
    """Does ``d`` carry a flow with every value in [1, r-1]?

    Returns (True, RationalFlow) or (False, violating vertex set X with
    |out(X)| > (r-1)|in(X)|).  One integer max-flow decides it: with D the
    denominator of r, an edge carries 1 + f/D with 0 <= f <= (r-2)D.
    """
    r = Fraction(r)
    if r < 2:
        raise FlowError("feasibility is defined for r >= 2")
    view = g.indexed
    if d.keys() != g._edges.keys():
        raise FlowError("orientation does not cover the graph")
    n, den = len(view.vertices), r.denominator
    excess = [0] * n
    arcs: list[tuple[int, int, int]] = []
    for eid in view.edge_ids:
        tail, head = _arc(g, eid, d[eid], "orientation does not cover the graph")
        arcs.append((tail, head, r.numerator - 2 * den))
        excess[head] += den
        excess[tail] -= den
    arcs += [(n, v, x) if x > 0 else (v, n + 1, -x) for v, x in enumerate(excess) if x]
    total, arc_flow, reachable = _max_flow(n, arcs)
    if total == sum(x for x in excess if x > 0):
        value_of = {f: Fraction(den + f, den) for f in set(arc_flow)}
        values = {eid: value_of[f] for eid, f in zip(view.edge_ids, arc_flow)}
        return True, RationalFlow(d, values, r)
    # The source side S of a minimum cut has in(S) > (r-1)out(S), since its
    # cut falls short of the excess; so V - S is the violating set.
    return False, frozenset(view.vertices[v] for v in range(n) if v not in reachable)


# -- circular flow number ------------------------------------------------------


class PhiCResult(NamedTuple):
    value: Fraction
    flow: RationalFlow


def _orientation_with_excess(g: Multigraph, k: Mapping[str, int]) -> dict[str, tuple[str, str]]:
    """An orientation with out-degree minus in-degree k[v] at every vertex v.

    From u -> v on every edge, one max-flow with unit capacities reverses
    the edges it uses, each moving 2 of out-minus-in from u to v; it
    saturates (Hakimi) when k has the parity of the degrees and
    |k(X)| <= |cut(X)| for every X."""
    view = g.indexed
    n = len(view.vertices)
    half = [(sum(1 if g.edge(eid).u == v else -1 for eid in g.incident_edges(v)) - k[v]) // 2
            for v in view.vertices]
    arcs = [(a, b, 1) for a, b in view.ends]
    arcs += [(n, v, x) for v, x in enumerate(half) if x > 0]
    arcs += [(v, n + 1, -x) for v, x in enumerate(half) if x < 0]
    total, arc_flow, _ = _max_flow(n, arcs)
    if total != sum(x for x in half if x > 0):
        raise FlowError("internal error: no orientation has the required degree excess")
    return {e.eid: (e.v, e.u) if arc_flow[i] else (e.u, e.v) for i, e in enumerate(g.edges())}


def circular_flow_number(g: Multigraph, cap: int = PHI_C_EDGE_CAP) -> PhiCResult:
    """Exact circular flow number with a verified optimal witness flow.

    Each component's value and out-minus-in degrees come from
    ``valuations._phi_c_valuation``; errors on bridged graphs and on graphs
    above the edge cap.
    """
    bridge_ids = bridges(g)
    if bridge_ids:
        raise BridgedGraphError(f"graph has bridges {sorted(bridge_ids)!r}: no nowhere-zero flow exists")
    if g.num_edges() > cap:
        raise SizeCapExceeded(f"|E|={g.num_edges()} exceeds the search cap {cap}")

    value = Fraction(2)
    k: dict[str, int] = {}
    for comp in connected_components(g):
        sub = Multigraph(sorted(comp), [e for e in g.edges() if e.u in comp])
        comp_value, comp_k = valuations._phi_c_valuation(sub)
        value = max(value, comp_value)
        k.update(comp_k)
    ok, witness = circulation_feasible(g, _orientation_with_excess(g, k), value)
    if not ok:
        raise FlowError("internal error: optimal orientation rejected its own flow value")
    if flow_violation(g, witness) is not None:
        raise FlowError("internal error: witness flow failed verification")
    return PhiCResult(value, witness)


def phi_c_certificate(g: Multigraph, result: PhiCResult, elapsed_s: float = 0.0) -> Certificate:
    return make_certificate("phi-c-value", g, {"r": rat(result.value)},
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


def bipartite_regular_flow(g: Multigraph, t: int) -> RationalFlow:
    """A verified nowhere-zero (2+1/t)-flow on a bipartite (2t+1)-regular graph.

    Orients the edges with out-degree minus in-degree +1 on side A and -1 on
    side B, which exists (Hakimi) as (2t+1)|a_X - b_X| <= |cut(X)| for every
    vertex set X with a_X, b_X vertices on each side.  Conservation then
    forces value 1 on every edge A->B and (t+1)/t on every edge B->A.
    """
    t = int(t)
    if t < 1:
        raise FlowError("t must be a positive integer")
    if not g.is_regular(2 * t + 1):
        raise FlowError(f"graph is not {2 * t + 1}-regular")
    sides = bipartite_sides(g)
    if sides is None:
        raise FlowError("graph is not bipartite")
    a_side = sides[0]
    dirs = _orientation_with_excess(g, {v: 1 if v in a_side else -1 for v in g.vertices})
    forward, backward = Fraction(1), Fraction(t + 1, t)
    values = {eid: forward if tail in a_side else backward for eid, (tail, _) in dirs.items()}
    flow = RationalFlow(dirs, values, Fraction(2 * t + 1, t))
    if flow_violation(g, flow) is not None:
        raise FlowError("internal error: constructed bipartite flow failed verification")
    return flow


# -- the explicit Flower snark flow -------------------------------------------


class FlowerFlowData(NamedTuple):
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
    value 1/n along n circuits with ``add_circuits``; circuit j leaves the
    spoke layer at the 3-valued edge d(2j-1)-b(2j-1), so those edges stay
    within the cap.
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
        vals[eid] = _INTEGER_VALUES[value]

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

    base = RationalFlow(dirs, vals, Fraction(4), INTEGER_ONE_ZERO, "ab0")
    if flow_violation(g, base) is not None:
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

    final = add_circuits(base, circuits, Fraction(1, n), Fraction(4 * n + 1, n))
    if flow_violation(g, final) is not None:
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
    """A nowhere-zero flow on H = g + (2t-2)M at r' = ``bound_formula(r, t)``,
    in closed form from the flow on the cubic graph g at r; no max-flow runs.

    The identity 1/(r'-2) = 1/(r-2) + (t-1) gives c = (r'-2)/(r-2) =
    1/(1 + (t-1)(r-2)).  Each edge of g keeps its orientation and carries
    1 + c(x-1), which lies in [1, r'-1] as x lies in [1, r-1].  A vertex is
    white with in-degree 1 and black with in-degree 2.  Of the 2t-2 copies of
    each matching edge, in ``matching_copy_ids`` order, the first t-1 run
    white -> black at 1 and the others black -> white at r'-1.  Conservation:
    g's edges send 1 - c more out of a white vertex than into it (and into a
    black one than out), and 1 - c = c(t-1)(r-2) = (t-1)(r'-2) is what its
    copies bring back.  Out - in stays +1 on white and -1 on black vertices.

    M must be a perfect matching of g pairing black with white, and ``flow``
    a valid nowhere-zero flow on g; anything else raises ``FlowError``.
    These checks come first; ``_matched_image`` is the closed form.
    """
    t = int(t)
    m = list(matching)
    copies = matching_copy_ids(g, m, 2 * t - 2)
    if not g.is_regular(3):
        raise FlowError("the matched witness is defined for cubic graphs only")
    if flow.mode != NOWHERE_ZERO or flow_violation(g, flow) is not None:
        raise FlowError("the matched witness needs a valid nowhere-zero flow on the graph")
    if 2 * len(m) != g.num_vertices():
        raise FlowError("orientation does not cover the graph")
    return _matched_image(g, flow, m, copies, t)


def _matched_image(g: Multigraph, flow: RationalFlow, m: Sequence[str],
                   copies: Sequence[Sequence[str]], t: int) -> RationalFlow:
    """``matched_flow_witness`` without its input checks: ``flow`` must be a
    valid nowhere-zero flow on the cubic graph g and M a perfect matching with
    the copy ids ``copies``; only a matching edge that does not pair black
    with white raises ``FlowError``."""
    dirs, edges = flow.orientation, g._edges
    indegree = Counter(head for _, head in dirs.values())  # 1 on white, 2 on black vertices
    r, r_target = flow.r, valuations.bound_formula(flow.r, t)
    num, den = ((r_target - 2) / (r - 2)).as_integer_ratio()  # c
    ratios = [(x.numerator, x.denominator) for x in flow.values.values()]  # hashing a Fraction is slow
    scaled = {(p, q): Fraction(q * den + (p - q) * num, q * den) for p, q in set(ratios)}  # 1 + c(p/q - 1)
    orientation = dict(dirs)
    values = dict(zip(flow.values, map(scaled.__getitem__, ratios)))
    low, high = Fraction(1), r_target - 1
    for eid, ids in zip(m, copies):
        _, u, v = edges[eid]
        if indegree[u] == indegree[v]:
            raise FlowError(f"matching edge {eid!r} does not pair black with white")
        forward = (u, v) if indegree[u] == 1 else (v, u)
        back = forward[::-1]
        for ceid in ids[:t - 1]:
            orientation[ceid], values[ceid] = forward, low
        for ceid in ids[t - 1:]:
            orientation[ceid], values[ceid] = back, high
    return RationalFlow(orientation, values, r_target)


# -- flow file format -----------------------------------------------------------

FLOW_HEADER = "circflow-flow v1"


def write_flow(flow: RationalFlow) -> str:
    lines = [FLOW_HEADER, f"r {rat(flow.r)}", f"mode {flow.mode}"]
    if flow.zero_edge is not None:
        lines.append(f"zero-edge {flow.zero_edge}")
    lines += [f"{eid} {tail} {head} {x}" for eid, (tail, head), x in _rendered(flow)]
    return "\n".join(lines) + "\n"


def read_flow(text: str) -> RationalFlow:
    header: dict[str, str | None] = {"r": None, "mode": None, "zero-edge": None}
    dirs: dict[str, tuple[str, str]] = {}
    values: dict[str, Fraction] = {}
    parse = cache(unrat)  # a flow has few distinct values; Fraction is immutable
    records = read_records(text, FLOW_HEADER, header, 4, FlowError, "flow", "edge")
    for eid, tail, head, value in records:
        dirs[eid], values[eid] = (tail, head), parse(value)
    if header["r"] is None:
        raise FlowError("flow file missing its r header")
    return RationalFlow(dirs, values, unrat(header["r"]), header["mode"] or NOWHERE_ZERO,
                        header["zero-edge"])
