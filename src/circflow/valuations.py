"""Balanced valuations, r-bipartitions and the quantitative matching bound.

A balanced valuation assigns each vertex a weight k_v * r/(r-2) with
k_v = deg(v) mod 2, subject to |sum over X| <= |cut(X)| for every vertex
subset.  For cubic graphs with an all-positive nowhere-zero flow the
natural valuation is +-r/(r-2) according to the in-degree bipartition.

A balanced inequality over all vertex subsets is decided exactly by one s-t
minimum cut through the one max-flow kernel, ``multigraph._max_flow``: the
largest excess of w(X) - |cut(X)| over all X; X and V - X have opposite
weights and the same cut, so weights that sum to zero need no second cut.
The least balancing r of a valuation follows by Dinkelbach iteration over
such cuts.  These searches run on vertex-index lists with every ratio a
lowest-terms integer pair p/q, and the kernel clears q by scaling every
capacity by it; a ``Fraction`` is made only for a result.

The matched inequality on H = g + (2t-2)M is proved by its witness flow, and
no cut is run.  By Jaeger's easy direction, a flow with every value in
[1, r'-1] on an orientation D gives |out_D(Y)| <= (r'-1)|in_D(Y)| for every
vertex set Y, that is |cut_H(Y)| >= r'/(r'-2) * |k_D(Y)| with k_D = out - in.
At r' = ``bound_formula(r, t)``, r'/(r'-2) = r/(r-2) + 2t-2, so a D with
k_D = +-1 on the two colour classes proves the inequality for every Y.  That
flow, ``flows.matched_flow_witness``, is the image of g's own flow under
x -> 1 + c(x-1) with c = (r'-2)/(r-2), plus 1 and r'-1 on the copies of M,
so neither producing nor checking it runs a max-flow.

The circular flow number is the least r at which some k is balanced
(Jaeger): by Hoffman, an orientation with out-minus-in degrees k carries a
flow in [1, r-1] exactly when |k(X)| * r/(r-2) <= |cut(X)| for every X, so
phi_c = 2q/(q-1) for the largest q(k) = min over X of |cut(X)| / |k(X)|,
searched over k with the parity of the degrees, |k_v| < deg(v) and sum 0.
The search keeps every set X its cuts find, as a bitmask with |cut(X)|,
and skips a prefix of k, running no max-flow, once some kept X lies inside
it with |cut(X)| / |k(X)| <= the best q so far: no completion of that
prefix does better, and the best q moves only on a strict increase, so the
value and the k found are unchanged.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .certificates import Certificate, make_certificate, rat, unrat
from .multigraph import (
    GraphError,
    IndexedView,
    Multigraph,
    _max_flow,
    _with_copies,
    edge_cut,
    is_perfect_matching,
    matching_copy_ids,
)


class ValuationError(ValueError):
    pass


class _NoFiniteR:
    """Sentinel: no finite flow value satisfies the bipartition inequality."""

    def __repr__(self) -> str:
        return "NO_FINITE_R"


NO_FINITE_R = _NoFiniteR()


class Bipartition(NamedTuple):
    black: frozenset[str]
    white: frozenset[str]

    def color(self, v: str) -> str:
        if v in self.black:
            return "black"
        if v in self.white:
            return "white"
        raise ValuationError(f"vertex {v!r} not covered by the bipartition")


@dataclass(frozen=True)
class BalancedValuation:
    """Weights k_v * r/(r-2) stored as the integer part k_v plus the ratio."""

    r: Fraction
    k: dict[str, int]

    def __post_init__(self):
        if self.r <= 2:
            raise ValuationError("a balanced valuation requires r > 2")

    @property
    def unit(self) -> Fraction:
        return self.r / (self.r - 2)


def flow_to_bipartition(g: Multigraph, flow) -> Bipartition:
    """Black vertices have two incoming edges under the all-positive orientation."""
    if not g.is_regular(3):
        raise ValuationError("bipartitions are defined for cubic graphs only")
    if any(val.numerator <= 0 for val in flow.values.values()):  # the sign of a Fraction
        raise ValuationError("flow must be all-positive; reorient before bipartitioning")
    indeg = Counter(flow.orientation[eid][1] for eid in g._edges)
    black = frozenset(v for v, d in indeg.items() if d == 2)
    white = frozenset(v for v, d in indeg.items() if d == 1)
    if black | white != set(g.vertices) or len(black) != len(white):
        raise ValuationError("flow does not induce a bipartition into equal halves")
    return Bipartition(black, white)


def valuation_from_bipartition(g: Multigraph, bip: Bipartition, r: Fraction) -> BalancedValuation:
    k = {v: (1 if v in bip.black else -1) for v in g.vertices}
    return BalancedValuation(Fraction(r), k)


def _violating_subset(view: IndexedView, k: Sequence[int], p: int, q: int) -> list[int] | None:
    """The vertex indices of a set X with |k(X)| * p/q > |cut(X)|, or None;
    k lists the vertices' integer parts and sums to zero, p/q > 0 in lowest terms.

    X and V - X have opposite weights and the same cut, so it suffices to
    maximize w(X) - |cut(X)| for w = k * p/q, which is one s-t minimum cut:
    the source feeds every positive weight, every negative weight drains to
    the sink, and each edge is a pair of unit arcs, so a cut with source side
    {s} + X costs sum(w+) - w(X) + |cut(X)|; scaled by q, edge arcs get q and
    weight arcs p * |k_v|.  X = {} gives 0, so a positive maximum comes with
    a nonempty X: the residual-reachable side, which is the least maximizer
    and so independent of vertex and edge order.
    """
    n = len(k)
    arcs = [arc for x, y in view.ends for arc in ((x, y, q), (y, x, q))]
    arcs += [(n, v, p * kv) if kv > 0 else (v, n + 1, -p * kv) for v, kv in enumerate(k) if kv]
    positive = p * sum(kv for kv in k if kv > 0)
    value, _, reachable = _max_flow(n, arcs)
    return sorted(v for v in reachable if v < n) if positive > value else None


def _min_ratio(view: IndexedView, k: Sequence[int], floor: tuple[int, int],
               start: tuple[int, int] | None = None,
               found: list[tuple[int, list[int]]] | None = None) -> tuple[int, int]:
    """min over X with k(X) != 0 of |cut(X)| / |k(X)| if it exceeds ``floor``,
    else some value <= floor; k sums to zero and is not all zero.  Ratios are
    lowest-terms pairs (p, q) for p/q.

    Dinkelbach iteration from ``start``, or else from the least ratio
    deg(v) / |k_v| of one vertex (picked in float order); any one X's ratio is
    a sound start.  While a minimum cut finds an X with p/q |k(X)| > |cut(X)|,
    p/q moves down to that X's ratio, so the last p/q is the exact minimum.
    Each X found is appended to ``found`` as (|cut(X)|, X)."""
    p, q = start or min(((len(at), abs(kv)) for at, kv in zip(view.incident, k) if kv),
                        key=lambda ratio: ratio[0] / ratio[1])
    while True:
        d = gcd(p, q)
        p, q = p // d, q // d
        if p * floor[1] <= floor[0] * q or (x := _violating_subset(view, k, p, q)) is None:
            return p, q
        side = set(x)
        p, q = sum((a in side) != (b in side) for a, b in view.ends), abs(sum(k[v] for v in x))
        if found is not None:
            found.append((p, x))


def _phi_c_valuation(g: Multigraph) -> tuple[Fraction, dict[str, int]]:
    """The least r at which some k gives a balanced valuation, with that k.

    Depth-first over k in vertex order.  k and -k give the same q, so k is
    positive on the first odd-degree vertex; a prefix whose sum can no longer
    reach 0 is pruned.  q is a lowest-terms integer pair p/q, made a
    ``Fraction`` once, in r.

    Every other prune rests on one fact: q(k) is the least |cut(X)| / |k(X)|
    over all X, so once every vertex of some X is assigned, a ratio
    |cut(X)| / |k(X)| <= the best q bounds every completion of the prefix.
    The best q changes only on a strict increase, so the value and the k
    returned are those of the search without these prunes.  The sets are:
    - single vertices: a k_v with deg(v) / |k_v| <= the best q is skipped;
    - each X a leaf's minimum cuts find, or its complement (the same cut)
      when X holds the last vertex, kept as (|cut(X)|, bitmask) under its
      highest vertex and checked, with no max-flow, when that vertex is
      assigned: k(X) = sum of c * |X & mask_c| over the masks of the
      vertices assigned each weight c;
    - the set that decides a leaf, whose ratio is now at most the best q:
      the search backs up to the assignment of its highest vertex.
    A leaf's Dinkelbach starts from the least ratio of the single vertices
    and the kept sets checked on its path."""
    view = g.indexed
    degree = [len(at) for at in view.incident]
    n = len(degree)
    odd = next((v for v in range(n) if degree[v] % 2), None)
    if odd is None:
        return Fraction(2), dict.fromkeys(view.vertices, 0)
    slack = [sum(max(d - 2, 0) for d in degree[i:]) for i in range(n + 1)]  # largest |k| sums
    best, best_k = (1, 1), None
    k = [0] * n
    pool: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    masks = dict.fromkeys({kv for d in degree for kv in range(2 - d, d - 1, 2) if kv}, 0)

    def search(i: int, total: int, least: tuple[int, int, int]) -> int:
        """Search below k[:i]; ``least`` is the least ratio p/q of a set
        checked on the path and that set's highest vertex h, as (p, q, h).
        Returns the vertex whose assignment to back up to, or n."""
        nonlocal best, best_k
        if abs(total) > slack[i]:
            return n
        if i == n:
            found: list[tuple[int, list[int]]] = []
            p, q = _min_ratio(view, k, best, least[:2], found)
            h = least[2]
            for cut, x in found:
                x = sum(1 << v for v in x)
                if x >> (n - 1):
                    x ^= (1 << n) - 1
                h = x.bit_length() - 1
                pool[h].append((cut, x))
            if p * best[1] > best[0] * q:
                best, best_k = (p, q), k.copy()
            return h
        d, bit = degree[i], 1 << i
        for kv in sorted(range(-d, d + 1, 2), key=abs):
            if (kv == 0 or abs(kv) * best[0] < d * best[1]) and (i != odd or kv > 0):
                k[i], here = kv, least
                if kv:
                    masks[kv] |= bit
                    if d * here[1] < here[0] * abs(kv):
                        here = (d, abs(kv), i)
                jump, weighted = n, masks.items()
                for cut, x in pool[i]:
                    kx = 0
                    for c, m in weighted:  # a plain loop: twice as fast as sum() here
                        kx += c * (x & m).bit_count()
                    kx = abs(kx)
                    if cut * best[1] <= best[0] * kx:
                        break
                    if kx and cut * here[1] < here[0] * kx:
                        here = (cut, kx, i)
                else:
                    jump = search(i + 1, total + kv, here)
                if kv:
                    masks[kv] ^= bit
                if jump < i:
                    return jump
        return n

    search(0, 0, (1, 0, n))  # 1/0: no ratio yet
    if best_k is None:
        raise ValuationError("no valuation is balanced at a finite r: the graph has a bridge")
    p, q = best
    return Fraction(2 * p, p - q), dict(zip(view.vertices, best_k))


def check_balanced(g: Multigraph, omega: BalancedValuation) -> Certificate:
    """Verify |sum over X of omega| <= |cut(X)| on every vertex subset X.

    X = V(G) needs the weights to sum to zero; every other X is covered by
    one minimum cut.  A verified certificate records the 2^n - 1 nonempty
    subsets the verdict covers; a refuted one names the least X of the
    largest excess of omega(X) - |cut(X)|.
    """
    for v in g.vertices:
        if v not in omega.k:
            raise ValuationError(f"valuation misses vertex {v!r}")
        if omega.k[v] % 2 != g.degree(v) % 2:
            raise ValuationError(f"k_{v!r} must have the parity of deg({v!r})")
    if len(omega.k) != g.num_vertices():
        stray = next(v for v in omega.k if not g.has_vertex(v))
        raise ValuationError(f"valuation weighs {stray!r}, which is not a vertex of the graph")
    order = g.vertices
    k = [omega.k[v] for v in order]
    params = {"r": rat(omega.r), "k": dict(zip(order, k))}
    if sum(k) != 0:
        # X = V(G): the cut is empty, so the weights must sum to zero.
        return make_certificate("balanced", g, params,
                                {"violating_subset": sorted(order), "total_k": sum(k)},
                                "refuted")
    subset = _violating_subset(g.indexed, k, *omega.unit.as_integer_ratio())
    if subset is None:
        return make_certificate("balanced", g, params, {"subsets_checked": (1 << len(order)) - 1},
                                "verified")
    return make_certificate("balanced", g, params,
                            {"violating_subset": sorted(order[v] for v in subset)}, "refuted")


def reverify_balanced(cert: Certificate, g: Multigraph) -> bool:
    """Re-run ``check_balanced``: it must reach the same verdict with the same
    witness, so a refuted certificate must name the least X of the largest
    excess.  A valuation that ``check_balanced`` rejects fails."""
    try:
        omega = BalancedValuation(unrat(cert.parameters["r"]),
                                  {v: int(k) for v, k in cert.parameters["k"].items()})
        fresh = check_balanced(g, omega)
    except ValuationError:
        return False
    return fresh.verdict == cert.verdict and fresh.witness == cert.witness


def bipartition_to_flow_bound(g: Multigraph, bip: Bipartition):
    """Least r making the +-r/(r-2) valuation balanced, or NO_FINITE_R.

    The minimum ratio q of |cut(X)| / |b_X - w_X| over vertex subsets X with
    b_X != w_X comes from ``_min_ratio``, starting at q = 3, the ratio of a
    single vertex.  Then r = 2q/(q-1) when q > 1.
    """
    if not g.is_regular(3):
        raise ValuationError("flow bounds from bipartitions are computed for cubic graphs")
    k = [1 if v in bip.black else -1 for v in g.vertices]
    if sum(k) != 0:  # X = V(G) has an empty cut
        return NO_FINITE_R
    p, q = _min_ratio(g.indexed, k, (1, 1))
    return Fraction(2 * p, p - q) if p > q else NO_FINITE_R


def bound_formula(r: Fraction, t: int) -> Fraction:
    """2 + 2(r-2) / (r + (2t-3)(r-2)), the flow value granted to g + (2t-2)M.

    Algebraically this is the r' with r'/(r'-2) = r/(r-2) + 2t - 2; it is
    meaningful for any r > 2 (and collapses to r itself at t = 1).  With
    r = a/b and d = a - 2b it is (2D + 2d)/D for D = a + (2t-3)d, one
    ``Fraction`` built from integers.
    """
    if type(r) is not Fraction:
        r = Fraction(r)
    a, b = r.numerator, r.denominator
    d = a - 2 * b  # r - 2 = d/b
    if d <= 0:
        raise ValuationError("the bound formula requires r > 2")
    if t < 1:
        raise ValuationError("t must be a positive integer")
    den = a + (2 * t - 3) * d  # r + (2t-3)(r-2) = den/b, and den >= 2b
    return Fraction(2 * den + 2 * d, den)


def asymptotic_bound(r: Fraction, t: int) -> Fraction:
    """The bound formula on its asymptotic-lemma domain 4 < r < 5."""
    r = Fraction(r)
    if not Fraction(4) < r < Fraction(5):
        raise ValuationError("the bound formula requires 4 < r < 5")
    return bound_formula(r, t)


def matched_bipartition_inequality_check(g: Multigraph, flow, matching: Iterable[str],
                                         t: int) -> Certificate:
    """Certify |cut_H(Y)| >= (r/(r-2) + 2t-2)|b_Y - w_Y| for H = g + (2t-2)M.

    The matching must pair black with white vertices of the flow bipartition.
    The certificate carries a nowhere-zero flow on H at the bound value
    whose orientation has out - in = +1 on white and -1 on black vertices,
    which proves the inequality for every Y.  The inequality always holds:
    Jaeger's easy direction on g's own flow gives
    |cut_g(Y)| >= r/(r-2)|b_Y - w_Y|, and as M pairs black with white, each
    of the 2t-2 copies of M puts at least |b_Y - w_Y| edges in the cut.  The
    witness is the closed form of ``flows.matched_flow_witness``, so a failed
    one is an internal error, never a refutation.
    """
    from . import flows  # deferred: flows imports this module

    t = int(t)
    if t < 1:
        raise ValuationError("t must be a positive integer")
    m = sorted(matching)
    if flows.flow_violation(g, flow) is not None:
        raise ValuationError("the supplied flow is not a valid nowhere-zero flow")
    r = flow.r
    if r <= 4:
        raise ValuationError("the matched bound requires a flow value above 4 "
                             "(r = 4 exactly is the degenerate limit and is rejected)")
    if not is_perfect_matching(g, m):
        raise ValuationError("matching is not a perfect matching")
    bip = flow_to_bipartition(g, flow)
    for eid in m:
        e = g.edge(eid)
        if bip.color(e.u) == bip.color(e.v):
            raise ValuationError(f"matching edge {eid!r} does not pair black with white")

    start = time.monotonic()
    copies = matching_copy_ids(g, m, 2 * t - 2)
    h = _with_copies(g, m, copies)
    params = {"t": t, "r": rat(r), "bound": rat(bound_formula(r, t)), "matching": m}
    try:  # the checks above cover every input check of flows.matched_flow_witness
        witness_flow = flows._matched_image(g, flow, m, copies, t)
    except flows.FlowError as exc:
        raise ValuationError(f"internal error: no matched flow witness ({exc})") from exc
    if flows.flow_violation(h, witness_flow) is not None:
        raise ValuationError("internal error: the matched flow witness failed verification")
    return make_certificate(
        "inequality-check", h, params,
        {"black": sorted(bip.black), "pairing": "black-white",
         "flow": flows.flow_to_witness(witness_flow)},
        "verified", time.monotonic() - start)


def reverify_inequality(cert: Certificate, h: Multigraph) -> bool:
    """Both verdicts need a black side that M pairs with the white side.  A
    refuted certificate must carry a subset Y that, with that black side,
    violates |cut_H(Y)| >= (r/(r-2) + 2t-2)|b_Y - w_Y|.  A verified one must
    carry the bound formula's value at (r, t) and a nowhere-zero flow on H
    at that value, whose orientation has out - in = +1 on one colour class
    and -1 on the other: that flow proves the inequality for every Y (see
    the module docstring), so no cut is run."""
    from . import flows  # deferred

    black = set(cert.witness.get("black", ()))
    m = set(cert.parameters["matching"])
    t, r = int(cert.parameters["t"]), unrat(cert.parameters["r"])
    if r <= 2 or t < 1:
        return False
    if 2 * len(black) != h.num_vertices() or not black <= set(h.vertices):
        return False
    if any(not h.has_edge(eid) or (h.edge(eid).u in black) == (h.edge(eid).v in black)
           for eid in m):
        return False
    if cert.verdict == "refuted":
        subset = set(cert.witness["violating_subset"])
        try:
            cut = edge_cut(h, subset).edges
        except GraphError:
            return False
        diff = abs(2 * len(subset & black) - len(subset))
        return len(cut) < (r / (r - 2) + 2 * t - 2) * diff
    bound = unrat(cert.parameters["bound"])
    if bound != bound_formula(r, t):
        return False
    try:
        flow = flows.flow_from_witness(h, cert.witness["flow"])
        if flow.r != bound or flow.mode != flows.NOWHERE_ZERO:
            return False
        if flows.flow_violation(h, flow) is not None:
            return False
    except (GraphError, flows.FlowError):
        return False  # the witness is not a flow on the edges of h
    excess = Counter(tail for tail, _ in flow.orientation.values())  # out - in
    excess.subtract(head for _, head in flow.orientation.values())
    return {excess[v] if v in black else -excess[v] for v in h.vertices} in ({1}, {-1})
