"""Proper edge colorings, exact chromatic index and class certificates.

A Delta-regular multigraph is Delta-edge-colorable iff it 1-factorizes, and
parallel edges are interchangeable in a 1-factorization.  So class-1/class-2
decisions for regular graphs cover the edge multiplicities of the simple
support graph with Delta perfect matchings, memoizing failed multiplicity
vectors (the matching cover); everything else is exact backtracking.  The
cover keeps its demand in place and refutes a state with two colors left by
the parity of its cycles, which leaves its node count unchanged.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, NamedTuple, Sequence

from .certificates import Certificate, graph_hash, make_certificate, read_records
from .families import MDotProduct
from .multigraph import (
    EdgeCut,
    Multigraph,
    _matchings_of,
    add_matching_copies,
    edge_cut,
    is_perfect_matching,
)

PROPER = "proper"
SEES_ODD = "sees-odd"


class ColoringError(ValueError):
    pass


class SearchBudgetExceeded(ColoringError):
    pass


class EdgeColoring(NamedTuple):
    colors: dict[str, int]
    palette: int
    mode: str = PROPER


def is_proper(g: Multigraph, coloring: EdgeColoring):
    """(True, None) or (False, (vertex, edge1, edge2)) for the first clash."""
    colors = coloring.colors
    if set(colors) != set(g.edge_ids):
        raise ColoringError("coloring does not cover exactly the edges of the graph")
    for v in g.vertices:
        seen: dict[int, str] = {}
        for eid in g.incident_edges(v):
            c = colors[eid]
            if c in seen:
                return False, (v, seen[c], eid)
            seen[c] = eid
    return True, None


def _check_palette(colors: dict[str, int], palette: int) -> None:
    """Raise on the first edge whose color is outside 0..palette-1."""
    if colors and (min(colors.values()) < 0 or max(colors.values()) >= palette):
        eid = next(e for e, c in colors.items() if not 0 <= c < palette)
        raise ColoringError(f"edge {eid!r} has color {colors[eid]}, "
                            f"outside the palette 0..{palette - 1}")


def sees_odd_violation(g: Multigraph, coloring: EdgeColoring):
    """First (vertex, color, count) with an even count, or None."""
    colors, palette = coloring.colors, coloring.palette
    if set(colors) != set(g.edge_ids):
        raise ColoringError("coloring does not cover exactly the edges of the graph")
    _check_palette(colors, palette)
    for v in g.vertices:
        counts = [0] * palette
        for eid in g.incident_edges(v):
            counts[colors[eid]] += 1
        for c, cnt in enumerate(counts):
            if cnt % 2 == 0:
                return (v, c, cnt)
    return None


class _Deadline:
    def __init__(self, seconds: float | None):
        self.t_end = None if seconds is None else time.monotonic() + seconds
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes % 512 == 0:
            self.poll()

    def poll(self) -> None:
        """Raise once the budget is spent; counts nothing."""
        if self.t_end is not None and time.monotonic() > self.t_end:
            raise SearchBudgetExceeded("search budget exhausted")


def _matching_cover(h: Multigraph, deadline: _Deadline) -> dict[str, int] | None:
    """A proper d-edge-coloring of the d-regular multigraph h, or None.

    Such a coloring is a 1-factorization.  Parallel edges are interchangeable,
    so the search runs on h's simple support graph and covers the multiplicity
    of every support edge with d perfect matchings.  The state is the list of
    multiplicities still in demand, kept in place: a step subtracts its
    matching, recurses and adds the matching back.  Each step takes a perfect
    matching through the lowest-index support edge still in demand, and a
    state that failed once is not searched again.  With two colors left the
    demand graph is 2-regular, a demand of 2 being a 2-cycle, and it has a
    perfect matching exactly when every cycle is even; a state with an odd
    cycle fails at once, as the enumeration would have found no matching
    there, so the node count is the same.  Color c goes to the c-th matching
    and, within each support edge, to the parallel edges of h in their order.
    """
    view = h.indexed
    copies: dict[tuple[int, int], list[int]] = {}
    for e, (a, b) in enumerate(view.ends):
        copies.setdefault((a, b) if a < b else (b, a), []).append(e)
    support = list(copies.values())
    ends = list(copies)
    at: list[list[tuple[int, int]]] = [[] for _ in view.vertices]
    for s, (a, b) in enumerate(ends):
        at[a].append((s, b))
        at[b].append((s, a))
    need = [len(ids) for ids in support]
    failed: set[tuple[int, ...]] = set()

    def odd_cycle(inc: list[list[tuple[int, int]]]) -> bool:
        """Whether the 2-regular demand graph ``inc`` has an odd cycle."""
        seen = [False] * len(inc)
        for start in range(len(inc)):
            v, prev, length = start, -1, 0
            while not seen[v]:
                seen[v] = True
                length += 1
                w = inc[v][0][1]
                v, prev = (inc[v][-1][1] if w == prev else w), v
            if length % 2:
                return True
        return False

    def cover(left: int) -> list[list[int]] | None:
        deadline.tick()
        pivot = next((s for s, k in enumerate(need) if k), None)
        if pivot is None:
            return []
        key = tuple(need)
        if key in failed:
            return None
        inc = [[(s, w) for s, w in at_v if need[s]] for at_v in at]
        if left == 2 and odd_cycle(inc):
            failed.add(key)
            return None
        a, b = ends[pivot]
        for pm in _matchings_of(inc, 1 << a | 1 << b, deadline.poll):
            pm.append(pivot)
            for s in pm:
                need[s] -= 1
            found = cover(left - 1)
            for s in pm:
                need[s] += 1
            if found is not None:
                return [pm] + found
        failed.add(key)
        return None

    if len(view.vertices) % 2 and support:
        return None  # odd order: no perfect matching exists
    factors = cover(len(view.incident[0]) if support else 0)  # d colors to place
    if factors is None:
        return None
    unused = [iter(ids) for ids in support]
    return {view.edge_ids[next(unused[s])]: c for c, pm in enumerate(factors) for s in pm}


def _backtrack_coloring(g: Multigraph, k: int, deadline: _Deadline,
                        fixed: Mapping[str, int] | None = None) -> dict[str, int] | None:
    """Exact proper k-edge-coloring search (None = refuted by exhaustion)."""
    view = g.indexed
    ends = view.ends
    colors: dict[int, int] = {}
    used = [0] * len(view.vertices)  # bit c set: some edge at the vertex has color c
    fixed_idx = {view.edge_ids.index(eid): c for eid, c in (fixed or {}).items()}
    for e, c in fixed_idx.items():
        a, b = ends[e]
        if c >= k or (used[a] | used[b]) >> c & 1:
            return None
        colors[e] = c
        used[a] |= 1 << c
        used[b] |= 1 << c

    # The uncolored edges in index order: the search colors the chosen edge
    # and puts it back at its place when it backtracks.
    free = [e for e in range(len(view.edge_ids)) if e not in fixed_idx]
    symmetry_free = not fixed  # allow "first unseen color only" pruning

    def choose() -> int | None:
        """The position in ``free`` of the first edge with the fewest colors left."""
        best, best_n = None, k + 1
        for i, e in enumerate(free):
            a, b = ends[e]
            avail = k - (used[a] | used[b]).bit_count()
            if avail == 0:
                return i
            if avail < best_n:
                best, best_n = i, avail
        return best

    def rec(max_used: int) -> bool:
        deadline.tick()
        i = choose()
        if i is None:
            return True
        e = free.pop(i)
        a, b = ends[e]
        taken = used[a] | used[b]
        cap = min(k, (max_used + 1) if symmetry_free else k)
        for c in range(cap):
            if taken >> c & 1:
                continue
            colors[e] = c
            used[a] |= 1 << c
            used[b] |= 1 << c
            if rec(max(max_used, c + 1)):
                return True
            used[a] ^= 1 << c
            used[b] ^= 1 << c
            del colors[e]
        free.insert(i, e)
        return False

    start_max = max(fixed_idx.values(), default=-1) + 1
    if rec(start_max):
        return {view.edge_ids[e]: c for e, c in colors.items()}
    return None


def _k_coloring(g: Multigraph, k: int, deadline: _Deadline) -> tuple[dict[str, int] | None, str]:
    """A proper k-edge-coloring of g or None, and the method that decided it:
    the matching cover for a k-regular graph, backtracking otherwise."""
    if g.is_regular(k):
        return _matching_cover(g, deadline), "matching-cover"
    return _backtrack_coloring(g, k, deadline), "backtracking"


class ChromaticIndexResult(NamedTuple):
    exact: int | None
    coloring: EdgeColoring | None
    lower: int
    upper: int
    method: str
    refuted: tuple[int, ...]
    nodes: int

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


def chromatic_index(g: Multigraph, budget_s: float | None = None) -> ChromaticIndexResult:
    """Exact chromatic index with witness coloring and refuted palettes.

    A d-regular graph is d-colorable exactly when its edge multiplicities
    are covered by d perfect matchings, which the matching cover decides;
    other palette sizes use exhaustive backtracking.  ``method`` names the
    search that decided the last palette tried: ``"matching-cover"`` or
    ``"backtracking"`` (``"empty"`` for a graph without edges).  On budget
    exhaustion the result degrades to honest lower/upper bounds, with
    method ``"budget"``.
    """
    if g.num_edges() == 0:
        return ChromaticIndexResult(0, EdgeColoring({}, 0), 0, 0, "empty", (), 0)
    delta = g.max_degree()
    mu = g.max_multiplicity()
    deadline = _Deadline(budget_s)
    refuted: list[int] = []
    k = delta
    try:
        while True:
            best, method = _k_coloring(g, k, deadline)
            if best is not None:
                break
            refuted.append(k)
            k += 1
            if k > delta + mu:
                raise ColoringError("internal error: chromatic index above the Vizing window")
    except SearchBudgetExceeded:
        lower = max(refuted, default=delta - 1) + 1
        return ChromaticIndexResult(None, None, lower, delta + mu, "budget", tuple(refuted),
                                    deadline.nodes)
    coloring = EdgeColoring(best, k)
    ok, clash = is_proper(g, coloring)
    if not ok:
        raise ColoringError(f"internal error: solver emitted an improper coloring: {clash}")
    return ChromaticIndexResult(k, coloring, k, k, method, tuple(refuted), deadline.nodes)


def chromatic_index_certificate(g: Multigraph, result: ChromaticIndexResult,
                                elapsed_s: float = 0.0) -> Certificate:
    if result.is_exact:
        witness = {"value": result.exact, "coloring": result.coloring.colors,
                   "refuted_palettes": list(result.refuted), "method": result.method,
                   "nodes": result.nodes}
        return make_certificate("chromatic-index", g, {"kind": "exact"}, witness,
                                "verified", elapsed_s)
    return make_certificate("chromatic-index", g, {"kind": "bounds"},
                            {"lower": result.lower, "upper": result.upper,
                             "nodes": result.nodes},
                            "inconclusive", elapsed_s)


def reverify_chromatic_index(cert: Certificate, g: Multigraph) -> bool:
    """Re-check the witness coloring and, above the maximum degree, re-run
    the search one color short, which must find nothing.  Bounds must
    satisfy max degree <= lower <= upper, with upper at least Vizing's
    bound max degree + max multiplicity; a lower bound above the maximum
    degree is re-checked by the same one-color-short search."""
    if cert.verdict == "inconclusive":
        delta = g.max_degree()
        lower, upper = int(cert.witness["lower"]), int(cert.witness["upper"])
        if not delta <= lower <= upper or upper < delta + g.max_multiplicity():
            return False
        return lower == delta or _k_coloring(g, lower - 1, _Deadline(None))[0] is None
    value = int(cert.witness["value"])
    coloring = EdgeColoring({e: int(c) for e, c in cert.witness["coloring"].items()}, value)
    if coloring.colors.keys() != g._edges.keys() or not is_proper(g, coloring)[0] \
            or len(set(coloring.colors.values())) > value:
        return False
    if value != max(cert.witness["refuted_palettes"], default=value - 1) + 1:
        return False
    return value <= g.max_degree() or _k_coloring(g, value - 1, _Deadline(None))[0] is None


# -- Parity Lemma -----------------------------------------------------------------


def parity_lemma_check(g: Multigraph, coloring: EdgeColoring,
                       cuts: Sequence[EdgeCut]) -> Certificate:
    """|C ∩ c^{-1}(i)| = |C| (mod 2) for every listed cut and color.

    Requires a proper coloring of a regular graph using exactly its degree
    many colors; a violated congruence proves the coloring improper or
    short of the full palette and is reported that way.
    """
    if not g.is_regular():
        raise ColoringError("the parity congruence applies to regular graphs")
    delta = g.max_degree()
    if coloring.palette != delta:
        raise ColoringError("coloring must use exactly degree many colors")
    ok, clash = is_proper(g, coloring)
    if not ok:
        raise ColoringError(f"coloring is not proper: {clash}")
    used = set(coloring.colors.values())
    if len(used) != delta:
        raise ColoringError("coloring does not use the full palette")
    params = {"palette": delta, "cuts": [sorted(c.side) for c in cuts]}
    for cut in cuts:
        parity = len(cut.edges) % 2
        counts = [0] * delta
        for eid in cut.edges:
            counts[coloring.colors[eid]] += 1
        for color, cnt in enumerate(counts):
            if cnt % 2 != parity:
                return make_certificate(
                    "parity", g, params,
                    {"violation": {"cut_side": sorted(cut.side), "color": color,
                                   "count": cnt, "cut_size": len(cut.edges)},
                     "coloring": coloring.colors},
                    "refuted")
    return make_certificate("parity", g, params, {"coloring": coloring.colors}, "verified")


def reverify_parity(cert: Certificate, g: Multigraph) -> bool:
    palette = int(cert.parameters["palette"])
    coloring = EdgeColoring({e: int(c) for e, c in cert.witness["coloring"].items()}, palette)
    cuts = [edge_cut(g, side) for side in cert.parameters["cuts"]]
    try:
        fresh = parity_lemma_check(g, coloring, cuts)
    except ColoringError:
        return False  # the witness is not a proper full-palette coloring
    return fresh.verdict == cert.verdict


# -- class-i property over a tested range ------------------------------------------


def class_property(g: Multigraph, matching: Iterable[str], which: int,
                   t_range: Sequence[int], budget_s: float | None = None) -> Certificate:
    """Decide whether g + (2t-2)M is class ``which`` for each tested t.

    H = g + (2t-2)M is (2t+1)-regular, so it is class 1 exactly when the
    matching cover finds 2t+1 perfect matchings of g that use each edge of
    g - M once and each edge of M 2t-1 times.  Only the listed t are
    decided; the certificate records explicitly that the quantification
    over all t is out of reach of the test.
    """
    if which not in (1, 2):
        raise ColoringError("which must be 1 or 2")
    m = sorted(matching)
    if not is_perfect_matching(g, m):
        raise ColoringError("class properties need a perfect matching")
    if not g.is_regular(3):
        raise ColoringError("class properties are stated for cubic graphs")
    start = time.monotonic()
    t_range = [int(t) for t in t_range]
    per_t = []
    for t in t_range:
        if t < 1:
            raise ColoringError("t must be positive")
        h = add_matching_copies(g, m, 2 * t - 2)
        degree = 2 * t + 1
        deadline = _Deadline(budget_s)
        try:
            colors = _matching_cover(h, deadline)
        except SearchBudgetExceeded:
            per_t.append({"t": t, "status": "budget-exhausted"})
            continue
        entry = {"t": t, "class": 1 if colors is not None else 2, "nodes": deadline.nodes}
        if colors is not None:
            ok, clash = is_proper(h, EdgeColoring(colors, degree))
            if not ok:
                raise ColoringError(f"internal error: bad factorization: {clash}")
            entry["coloring"] = colors
        per_t.append(entry)
    return make_certificate(
        "class-property", g,
        {"which": which, "t_range": t_range, "matching": m, "scope": "tested-range-only"},
        {"per_t": per_t},
        _class_verdict(which, per_t), time.monotonic() - start)


def _class_verdict(which: int, per_t: Sequence[Mapping]) -> str:
    """Refuted when a decided t is not of class ``which``, else inconclusive
    when some t ran out of budget, else verified."""
    if any(entry.get("class", which) != which for entry in per_t):
        return "refuted"
    spent = any(entry.get("status") == "budget-exhausted" for entry in per_t)
    return "inconclusive" if spent else "verified"


def reverify_class_property(cert: Certificate, g: Multigraph) -> bool:
    """A declined prover run claims nothing, so its verdict must be
    inconclusive.  Otherwise the per-t entries must list exactly the tested
    range and give the recorded verdict; class-1 entries re-check the
    recorded coloring, and class-2 entries re-run the matching cover, which
    must find no coloring."""
    if "declined" in cert.witness:
        return cert.verdict == "inconclusive"
    params, per_t = cert.parameters, cert.witness["per_t"]
    if [entry["t"] for entry in per_t] != params["t_range"] \
            or cert.verdict != _class_verdict(params["which"], per_t):
        return False
    m = list(params["matching"])
    for entry in per_t:
        if entry.get("status") == "budget-exhausted":
            continue
        t = int(entry["t"])
        h = add_matching_copies(g, m, 2 * t - 2)
        if entry["class"] == 1:
            coloring = EdgeColoring({e: int(c) for e, c in entry["coloring"].items()},
                                    2 * t + 1)
            if coloring.colors.keys() != h._edges.keys() or not is_proper(h, coloring)[0] \
                    or len(set(coloring.colors.values())) > 2 * t + 1:
                return False
        elif entry["class"] != 2 or _matching_cover(h, _Deadline(None)) is not None:
            return False
    return True


# -- the dot-product class-2 prover --------------------------------------------------


def dot_product_class2_prover(product: MDotProduct, cert1: Certificate,
                              cert2: Certificate, t: int) -> Certificate:
    """Prove the M-class-2 property of a matched dot product at one t.

    Given class-2 certificates for both factors at t, a proper coloring of
    the product plus matching copies would split on the 4-edge cut by the
    parity congruence into "one color class" or "two classes twice each";
    either branch transplants the coloring onto a factor, contradicting its
    certificate.  Components not certified class 2 make the prover decline.
    """
    t = int(t)
    params = {"which": 2, "t_range": [t], "matching": sorted(product.matching),
              "scope": "tested-range-only", "prover": "dot-product-4-cut"}
    g1_hash = graph_hash(product.spec.g)
    g2_hash = graph_hash(product.spec.h)
    for cert, expect_hash, m in ((cert1, g1_hash, product.m1), (cert2, g2_hash, product.m2)):
        if cert.kind != "class-property":
            raise ColoringError("missing component certificates")
        if cert.graph_sha256 != expect_hash:
            raise ColoringError("component certificate does not describe this factor")
        if sorted(cert.parameters["matching"]) != sorted(m):
            raise ColoringError("component certificate uses a different matching")
        entry = next((e for e in cert.witness["per_t"] if e.get("t") == t), None)
        if entry is None:
            raise ColoringError(f"component certificate does not cover t={t}")
        if int(cert.parameters["which"]) != 2 or cert.verdict != "verified" \
                or entry.get("class") != 2:
            return make_certificate(
                "class-property", product.graph, params,
                {"declined": "a factor is not certified class 2 at this t"}, "inconclusive")

    h = add_matching_copies(product.graph, params["matching"], 2 * t - 2)
    cut = product.join_edges
    left = set(product.spec.g.vertices)
    for eid in cut:
        e = h.edge(eid)
        if (e.u in left) == (e.v in left):
            raise ColoringError("internal error: join edges do not cross the factor cut")
    witness = {
        "per_t": [{"t": t, "class": 2, "method": "parity-4-cut-reduction"}],
        "cut_edges": list(cut),
        "case_one_color": {"restored_matching_pair": [product.spec.e1, product.spec.e2]},
        "case_two_colors": {"restored_vertices": list(product.spec.removed_pair),
                            "parallel_multiplicity": 2 * t - 1},
        "component_certificates": [cert1.certificate_sha256(), cert2.certificate_sha256()],
    }
    return make_certificate("class-property", product.graph, params, witness, "verified")


# -- transition types (appendix claim) ------------------------------------------------

X1, X2, X3 = "x1", "x2", "x3"
_ALLOWED_NEXT = {X1: {X1, X3}, X2: {X2, X3}, X3: {X1, X2}}


def transition_claim_check(types: Sequence[str]) -> int | None:
    """First j with types[j] == types[j+2] on an admissible odd cycle.

    Validates the adjacency rules first; returns None only if the scan finds
    no repeat (which the parity count 2n+1 = 2m1 + 2m2 + m3 rules out, so a
    None is a refutation of the claim).
    """
    k = len(types)
    if k % 2 == 0 or k < 3:
        raise ColoringError("type sequences live on odd circuits")
    for t in types:
        if t not in (X1, X2, X3):
            raise ColoringError(f"unknown transition type {t!r}")
    for i in range(k):
        if types[(i + 1) % k] not in _ALLOWED_NEXT[types[i]]:
            raise ColoringError(f"adjacency rule violated at position {i}")
    for j in range(k):
        if types[j] == types[(j + 2) % k]:
            return j
    return None


# -- coloring file format ---------------------------------------------------------------

COLORING_HEADER = "circflow-coloring v1"


def write_coloring(coloring: EdgeColoring) -> str:
    lines = [COLORING_HEADER, f"palette {coloring.palette}", f"mode {coloring.mode}"]
    for eid, c in sorted(coloring.colors.items()):
        lines.append(f"{eid} {c}")
    return "\n".join(lines) + "\n"


def read_coloring(text: str) -> EdgeColoring:
    header: dict[str, str | None] = {"palette": None, "mode": None}
    colors: dict[str, int] = {}
    parsed: dict[str, int] = {}  # a coloring has few distinct colors, and int() is slow
    records = read_records(text, COLORING_HEADER, header, 2, ColoringError, "coloring", "edge")
    for eid, c in records:
        try:
            colors[eid] = parsed[c]
        except KeyError:
            colors[eid] = parsed[c] = int(c)
    if header["palette"] is None:
        raise ColoringError("coloring file missing its palette header")
    palette, mode = int(header["palette"]), header["mode"] or PROPER
    if mode not in (PROPER, SEES_ODD):
        raise ColoringError(f"unknown coloring mode {mode!r}")
    _check_palette(colors, palette)
    return EdgeColoring(colors, palette, mode)
