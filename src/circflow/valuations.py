"""Balanced valuations, r-bipartitions and the quantitative matching bound.

A balanced valuation assigns each vertex a weight k_v * r/(r-2) with
k_v = deg(v) mod 2, subject to |sum over X| <= |cut(X)| for every vertex
subset.  For cubic graphs with an all-positive nowhere-zero flow the
natural valuation is +-r/(r-2) according to the in-degree bipartition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .certificates import Certificate, make_certificate, rat, unrat
from .multigraph import GraphError, Multigraph, add_matching_copies, edge_cut, is_perfect_matching

SUBSET_ENUMERATION_CAP = 22


class ValuationError(ValueError):
    pass


class SubsetCapExceeded(ValuationError):
    """Instance too large for exact subset enumeration."""


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


def _indexed(g: Multigraph) -> tuple[list[str], list[tuple[int, int]]]:
    order = list(g.vertices)
    pos = {v: i for i, v in enumerate(order)}
    return order, [(pos[e.u], pos[e.v]) for e in g.edges()]


def _gray_sweep(n: int, toggles):
    """Enumerate nonempty subsets of range(n) by gray code.

    ``toggles(j, now_in)`` is called per flipped element; after each call the
    current subset mask is yielded.
    """
    mask = 0
    for i in range(1, 1 << n):
        gray = i ^ (i >> 1)
        prev = (i - 1) ^ ((i - 1) >> 1)
        j = (gray ^ prev).bit_length() - 1
        mask ^= 1 << j
        toggles(j, bool(mask & (1 << j)))
        yield mask


def check_balanced(g: Multigraph, omega: BalancedValuation,
                   cap: int = SUBSET_ENUMERATION_CAP) -> Certificate:
    """Verify |sum over X of omega| <= |cut(X)| on every vertex subset."""
    n = g.num_vertices()
    if n > cap:
        raise SubsetCapExceeded(f"|V|={n} exceeds enumeration cap {cap}")
    for v in g.vertices:
        if v not in omega.k:
            raise ValuationError(f"valuation misses vertex {v!r}")
        if omega.k[v] % 2 != g.degree(v) % 2:
            raise ValuationError(f"k_{v!r} must have the parity of deg({v!r})")

    order, edges = _indexed(g)
    incident: list[list[int]] = [[] for _ in order]
    for idx, (a, b) in enumerate(edges):
        incident[a].append(idx)
        incident[b].append(idx)
    kvec = [omega.k[v] for v in order]
    unit = omega.unit

    in_x = [False] * n
    cut = 0
    ksum = 0
    worst: tuple[int, int] | None = None  # (popcount, mask) of a violating X

    def toggle(j: int, now_in: bool) -> None:
        nonlocal cut, ksum
        in_x[j] = now_in
        sign = 1 if now_in else -1
        ksum += sign * kvec[j]
        for idx in incident[j]:
            a, b = edges[idx]
            other = b if a == j else a
            if in_x[other]:
                cut -= sign
            else:
                cut += sign

    total_k = sum(kvec)
    for mask in _gray_sweep(n, toggle):
        if abs(ksum) * unit > cut:
            pc = bin(mask).count("1")
            if worst is None or (pc, mask) < worst:
                worst = (pc, mask)
    params = {"r": omega.r, "k": {v: omega.k[v] for v in order}}
    if total_k != 0:
        # X = V(G): the cut is empty, so the weights must sum to zero.
        return make_certificate("balanced", g, params,
                                {"violating_subset": sorted(order), "total_k": total_k},
                                "refuted")
    if worst is None:
        return make_certificate("balanced", g, params, {"subsets_checked": (1 << n) - 1}, "verified")
    subset = sorted(order[j] for j in range(n) if worst[1] & (1 << j))
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


def bipartition_to_flow_bound(g: Multigraph, bip: Bipartition,
                              cap: int = SUBSET_ENUMERATION_CAP):
    """Least r making the +-r/(r-2) valuation balanced, or NO_FINITE_R.

    Minimizes |cut(X)| / |b_X - w_X| over all subsets; r = 2q/(q-1) for the
    minimum ratio q when q > 1.
    """
    n = g.num_vertices()
    if n > cap:
        raise SubsetCapExceeded(f"|V|={n} exceeds enumeration cap {cap}")
    if not g.is_regular(3):
        raise ValuationError("flow bounds from bipartitions are computed for cubic graphs")
    if len(bip.black) != len(bip.white):
        return NO_FINITE_R

    order, edges = _indexed(g)
    incident: list[list[int]] = [[] for _ in order]
    for idx, (a, b) in enumerate(edges):
        incident[a].append(idx)
        incident[b].append(idx)
    kvec = [1 if v in bip.black else -1 for v in order]

    in_x = [False] * n
    cut = 0
    ksum = 0
    best: Fraction | None = None

    def toggle(j: int, now_in: bool) -> None:
        nonlocal cut, ksum
        in_x[j] = now_in
        sign = 1 if now_in else -1
        ksum += sign * kvec[j]
        for idx in incident[j]:
            a, b = edges[idx]
            other = b if a == j else a
            if in_x[other]:
                cut -= sign
            else:
                cut += sign

    for mask in _gray_sweep(n, toggle):
        if mask == (1 << n) - 1 or ksum == 0:
            continue
        q = Fraction(cut, abs(ksum))
        if best is None or q < best:
            best = q
    if best is None or best <= 1:
        return NO_FINITE_R
    return 2 * best / (best - 1)


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
                                         t: int, cap: int = SUBSET_ENUMERATION_CAP) -> Certificate:
    """Certify |cut_H(Y)| >= (r/(r-2) + 2t-2)|b_Y - w_Y| for H = g + (2t-2)M.

    The matching must pair black with white vertices of the flow bipartition.
    Small instances are checked by full subset enumeration (together with the
    intermediate bound d >= |b_Y - w_Y|); every instance additionally gets an
    explicit nowhere-zero flow witness on H at the asymptotic bound value.
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
    r_bound = bound_formula(r, t)
    q = r / (r - 2)

    enumerated = False
    n = g.num_vertices()
    if n <= cap:
        enumerated = True
        order, edges = _indexed(h)
        incident: list[list[int]] = [[] for _ in order]
        for idx, (a, b) in enumerate(edges):
            incident[a].append(idx)
            incident[b].append(idx)
        m_ids = set(m)
        edge_ids = [e.eid for e in h.edges()]
        is_m = [edge_ids[i] in m_ids for i in range(len(edge_ids))]
        kvec = [1 if v in bip.black else -1 for v in order]

        in_x = [False] * len(order)
        cut_h = 0
        cut_m = 0
        ksum = 0

        def toggle(j: int, now_in: bool) -> None:
            nonlocal cut_h, cut_m, ksum
            in_x[j] = now_in
            sign = 1 if now_in else -1
            ksum += sign * kvec[j]
            for idx in incident[j]:
                a, b = edges[idx]
                other = b if a == j else a
                delta = -sign if in_x[other] else sign
                cut_h += delta
                if is_m[idx]:
                    cut_m += delta

        for mask in _gray_sweep(len(order), toggle):
            if mask == (1 << len(order)) - 1:
                continue
            diff = abs(ksum)
            if cut_m < diff or cut_h < (q + 2 * t - 2) * diff:
                subset = sorted(order[j] for j in range(len(order)) if mask & (1 << j))
                return make_certificate(
                    "inequality-check", h,
                    {"t": t, "r": r, "bound": r_bound, "matching": m},
                    {"violating_subset": subset, "black": sorted(bip.black)},
                    "refuted", time.monotonic() - start)

    witness_flow = flows.matched_flow_witness(g, flow, m, t)
    witness_check = flows.verify_flow(h, witness_flow)
    if witness_check.verdict != "verified":
        return make_certificate(
            "inequality-check", h,
            {"t": t, "r": r, "bound": r_bound, "matching": m},
            {"witness_failure": witness_check.witness,
             "flow": flows.flow_to_witness(witness_flow)},
            "refuted", time.monotonic() - start)

    return make_certificate(
        "inequality-check", h,
        {"t": t, "r": r, "bound": r_bound, "matching": m},
        {
            "enumerated": enumerated,
            "pairing": "black-white",
            "flow": flows.flow_to_witness(witness_flow),
        },
        "verified", time.monotonic() - start)


def reverify_inequality(cert: Certificate, h: Multigraph) -> bool:
    """A verified certificate's flow must be valid at the bound value.  A
    refuted one must carry a flow that fails, or a subset Y that, with the
    recorded black side, violates |cut(Y) ∩ M| >= |b_Y - w_Y| or
    |cut_H(Y)| >= (r/(r-2) + 2t-2)|b_Y - w_Y|."""
    from . import flows  # deferred

    if cert.verdict == "refuted" and "witness_failure" in cert.witness:
        flow = flows.flow_from_witness(h, cert.witness["flow"])
        return flows.verify_flow(h, flow).verdict != "verified"
    if cert.verdict == "refuted":
        return _recorded_violation_holds(cert, h)
    flow = flows.flow_from_witness(h, cert.witness["flow"])
    if flow.r != unrat(cert.parameters["bound"]):
        return False
    return flows.verify_flow(h, flow).verdict == "verified"


def _recorded_violation_holds(cert: Certificate, h: Multigraph) -> bool:
    black = set(cert.witness.get("black", ()))
    m = set(cert.parameters["matching"])
    if 2 * len(black) != h.num_vertices() or not black <= set(h.vertices):
        return False
    if any((h.edge(eid).u in black) == (h.edge(eid).v in black) for eid in m):
        return False
    subset = set(cert.witness["violating_subset"])
    try:
        cut = edge_cut(h, subset).edges
    except GraphError:
        return False
    t, r = int(cert.parameters["t"]), unrat(cert.parameters["r"])
    diff = abs(2 * len(subset & black) - len(subset))
    return len(cut & m) < diff or len(cut) < (r / (r - 2) + 2 * t - 2) * diff
