"""Balanced valuations, r-bipartitions and the quantitative matching bound.

A balanced valuation assigns each vertex a weight k_v * r/(r-2) with
k_v = deg(v) mod 2, subject to |sum over X| <= |cut(X)| for every vertex
subset.  For cubic graphs with an all-positive nowhere-zero flow the
natural valuation is +-r/(r-2) according to the in-degree bipartition.

Every inequality over all vertex subsets is decided exactly by s-t minimum
cuts through the one max-flow kernel, ``multigraph._max_flow``: the largest
excess of w(X) - |cut(X)| over all X is one minimum cut, so a balanced check
takes one cut, the least balancing r of a bipartition follows by Dinkelbach
iteration over such cuts, and the matched inequality on g + (2t-2)M takes
two.  Weights that sum to zero need no second cut for the opposite sign:
X and V - X have opposite weights and the same cut.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .certificates import Certificate, make_certificate, unrat
from .multigraph import (
    GraphError,
    Multigraph,
    _max_flow,
    add_matching_copies,
    edge_cut,
    is_perfect_matching,
)


class ValuationError(ValueError):
    pass


class _NoFiniteR:
    """Sentinel: no finite flow value satisfies the bipartition inequality."""

    def __repr__(self) -> str:
        return "NO_FINITE_R"


NO_FINITE_R = _NoFiniteR()


@dataclass(frozen=True)
class Bipartition:
    black: frozenset[str]
    white: frozenset[str]

    def color(self, v: str) -> str:
        if v in self.black:
            return "black"
        if v in self.white:
            return "white"
        raise ValuationError(f"vertex {v!r} not covered by the bipartition")

    def swapped(self) -> "Bipartition":
        return Bipartition(self.white, self.black)


@dataclass(frozen=True)
class BalancedValuation:
    """Weights k_v * r/(r-2) stored as the integer part k_v plus the ratio."""

    r: Fraction
    k: dict[str, int]

    @property
    def unit(self) -> Fraction:
        return self.r / (self.r - 2)

    def value(self, v: str) -> Fraction:
        return self.k[v] * self.unit


def flow_to_bipartition(g: Multigraph, flow) -> Bipartition:
    """Black vertices have two incoming edges under the all-positive orientation."""
    if not g.is_regular(3):
        raise ValuationError("bipartitions are defined for cubic graphs only")
    if any(val <= 0 for val in flow.values.values()):
        raise ValuationError("flow must be all-positive; reorient before bipartitioning")
    indeg = {v: 0 for v in g.vertices}
    for eid in g.edge_ids:
        _, head = flow.orientation.direction(eid)
        indeg[head] += 1
    black = frozenset(v for v, d in indeg.items() if d == 2)
    white = frozenset(v for v, d in indeg.items() if d == 1)
    if black | white != set(g.vertices) or len(black) != len(white):
        raise ValuationError("flow does not induce a bipartition into equal halves")
    return Bipartition(black, white)


def valuation_from_bipartition(g: Multigraph, bip: Bipartition, r: Fraction) -> BalancedValuation:
    k = {v: (1 if v in bip.black else -1) for v in g.vertices}
    return BalancedValuation(Fraction(r), k)


def _violating_subset(g: Multigraph, k: dict[str, int], unit: Fraction,
                      edges: Iterable[tuple[str, str]] | None = None) -> list[str] | None:
    """A vertex set X with |k(X)| * unit > |cut(X)|, or None; k sums to zero.

    The cut counts ``edges`` (default: all of g).  X and V - X have opposite
    weights and the same cut, so it suffices to maximize w(X) - |cut(X)| for
    w = unit * k, which is one s-t minimum cut: the source feeds every
    positive weight, every negative weight drains to the sink, and each edge
    is a pair of unit arcs, so a cut with source side {s} + X costs
    sum(w+) - w(X) + |cut(X)|.  X = {} gives 0, so a positive maximum comes
    with a nonempty X: the residual-reachable side, which is the least
    maximizer and so independent of vertex and edge order.
    """
    source, sink = "source node", "sink node"  # whitespace: never a vertex id
    edges = [(e.u, e.v) for e in g.edges()] if edges is None else edges
    arcs = [arc for u, v in edges for arc in ((u, v, Fraction(1)), (v, u, Fraction(1)))]
    positive = Fraction(0)
    for v in g.vertices:
        w = unit * k[v]
        if w > 0:
            arcs.append((source, v, w))
            positive += w
        elif w < 0:
            arcs.append((v, sink, -w))
    value, _, reachable = _max_flow(list(g.vertices) + [source, sink], arcs, source, sink)
    return sorted(reachable - {source}) if positive > value else None


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
    order = list(g.vertices)
    params = {"r": omega.r, "k": {v: omega.k[v] for v in order}}
    total_k = sum(omega.k[v] for v in order)
    if total_k != 0:
        # X = V(G): the cut is empty, so the weights must sum to zero.
        return make_certificate("balanced", g, params,
                                {"violating_subset": sorted(order), "total_k": total_k},
                                "refuted")
    subset = _violating_subset(g, omega.k, omega.unit)
    if subset is None:
        return make_certificate("balanced", g, params, {"subsets_checked": (1 << len(order)) - 1},
                                "verified")
    return make_certificate("balanced", g, params, {"violating_subset": subset}, "refuted")


def reverify_balanced(cert: Certificate, g: Multigraph) -> bool:
    omega = BalancedValuation(unrat(cert.parameters["r"]),
                              {v: int(k) for v, k in cert.parameters["k"].items()})
    if cert.verdict == "refuted":
        subset = cert.witness["violating_subset"]
        ksum = sum(omega.k[v] for v in subset)
        if set(subset) == set(g.vertices):
            return ksum != 0
        cut = edge_cut(g, subset)
        return abs(ksum) * omega.unit > len(cut.edges)
    fresh = check_balanced(g, omega)
    return fresh.verdict == cert.verdict


def bipartition_to_flow_bound(g: Multigraph, bip: Bipartition):
    """Least r making the +-r/(r-2) valuation balanced, or NO_FINITE_R.

    The minimum ratio q of |cut(X)| / |b_X - w_X| over vertex subsets X with
    b_X != w_X is found by Dinkelbach iteration: start at q = 3, the ratio of
    a single vertex, and while a minimum cut finds an X with
    q|b_X - w_X| > |cut(X)|, move q down to that X's ratio.  The ratios
    strictly decrease, and the last q is the exact minimum.  Then
    r = 2q/(q-1) when q > 1.
    """
    if not g.is_regular(3):
        raise ValuationError("flow bounds from bipartitions are computed for cubic graphs")
    k = {v: 1 if v in bip.black else -1 for v in g.vertices}
    if sum(k.values()) != 0:  # X = V(G) has an empty cut
        return NO_FINITE_R
    q = Fraction(3)
    while (x := _violating_subset(g, k, q)) is not None:
        q = Fraction(len(edge_cut(g, x).edges), abs(sum(k[v] for v in x)))
    if q <= 1:
        return NO_FINITE_R
    return 2 * q / (q - 1)


def bound_formula(r: Fraction, t: int) -> Fraction:
    """2 + 2(r-2) / (r + (2t-3)(r-2)), the flow value granted to g + (2t-2)M.

    Algebraically this is the r' with r'/(r'-2) = r/(r-2) + 2t - 2; it is
    meaningful for any r > 2 (and collapses to r itself at t = 1).
    """
    r = Fraction(r)
    if r <= 2:
        raise ValuationError("the bound formula requires r > 2")
    if t < 1:
        raise ValuationError("t must be a positive integer")
    return 2 + 2 * (r - 2) / (r + (2 * t - 3) * (r - 2))


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
    Every vertex set Y of H is covered, together with the intermediate bound
    |cut(Y) ∩ M| >= |b_Y - w_Y|, by two minimum cuts, one on M and one on H.
    Every instance additionally gets an explicit nowhere-zero flow
    witness on H at the asymptotic bound value.
    """
    from . import flows  # deferred: flows imports this module

    t = int(t)
    if t < 1:
        raise ValuationError("t must be a positive integer")
    m = sorted(matching)
    check = flows.verify_flow(g, flow)
    if check.verdict != "verified":
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
    h = add_matching_copies(g, m, 2 * t - 2)
    params = {"t": t, "r": r, "bound": bound_formula(r, t), "matching": m}
    black = sorted(bip.black)
    subset = _matched_violation(h, bip.black, m, r, t)
    if subset is not None:
        return make_certificate("inequality-check", h, params,
                                {"violating_subset": subset, "black": black},
                                "refuted", time.monotonic() - start)

    witness_flow = flows.matched_flow_witness(g, flow, m, t)
    witness_check = flows.verify_flow(h, witness_flow)
    if witness_check.verdict != "verified":
        return make_certificate(
            "inequality-check", h, params,
            {"witness_failure": witness_check.witness,
             "flow": flows.flow_to_witness(witness_flow)},
            "refuted", time.monotonic() - start)

    return make_certificate(
        "inequality-check", h, params,
        {"black": black, "pairing": "black-white", "flow": flows.flow_to_witness(witness_flow)},
        "verified", time.monotonic() - start)


def _matched_violation(h: Multigraph, black: set[str] | frozenset[str], m: Iterable[str],
                       r: Fraction, t: int) -> list[str] | None:
    """A vertex set Y of h with |cut(Y) ∩ M| < |b_Y - w_Y| or
    |cut_H(Y)| < (r/(r-2) + 2t-2)|b_Y - w_Y|, or None."""
    k = {v: 1 if v in black else -1 for v in h.vertices}
    m_edges = [(h.edge(eid).u, h.edge(eid).v) for eid in m]
    subset = _violating_subset(h, k, Fraction(1), m_edges)
    return subset if subset is not None else _violating_subset(h, k, r / (r - 2) + 2 * t - 2)


def reverify_inequality(cert: Certificate, h: Multigraph) -> bool:
    """A refuted certificate must carry a flow that fails, or a subset Y that,
    with the recorded black side, violates |cut(Y) ∩ M| >= |b_Y - w_Y| or
    |cut_H(Y)| >= (r/(r-2) + 2t-2)|b_Y - w_Y|.  A verified one must carry
    the bound formula's value at (r, t), a black side that M pairs with the
    white side, no Y violating either inequality (the two minimum cuts are
    re-run), and a valid flow at the bound value."""
    from . import flows  # deferred

    if cert.verdict == "refuted" and "witness_failure" in cert.witness:
        flow = flows.flow_from_witness(h, cert.witness["flow"])
        return flows.verify_flow(h, flow).verdict != "verified"
    black = set(cert.witness.get("black", ()))
    m = set(cert.parameters["matching"])
    t, r = int(cert.parameters["t"]), unrat(cert.parameters["r"])
    if r <= 2 or t < 1:
        return False
    if 2 * len(black) != h.num_vertices() or not black <= set(h.vertices):
        return False
    if any((h.edge(eid).u in black) == (h.edge(eid).v in black) for eid in m):
        return False
    if cert.verdict == "refuted":
        subset = set(cert.witness["violating_subset"])
        try:
            cut = edge_cut(h, subset).edges
        except GraphError:
            return False
        diff = abs(2 * len(subset & black) - len(subset))
        return len(cut & m) < diff or len(cut) < (r / (r - 2) + 2 * t - 2) * diff
    bound = unrat(cert.parameters["bound"])
    if bound != bound_formula(r, t) or _matched_violation(h, black, m, r, t) is not None:
        return False
    flow = flows.flow_from_witness(h, cert.witness["flow"])
    return flow.r == bound and flows.verify_flow(h, flow).verdict == "verified"
