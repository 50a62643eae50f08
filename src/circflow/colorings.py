"""Proper edge colorings, exact chromatic index and class certificates.

A Delta-regular multigraph is Delta-edge-colorable iff it 1-factorizes, and
parallel edges are interchangeable in a 1-factorization.  So class-1/class-2
decisions for regular graphs cover the edge multiplicities of the simple
support graph with Delta perfect matchings, memoizing failed multiplicity
vectors (the matching cover); everything else is exact backtracking.  The
cover searches a support graph with multiplicities, so g + kM is searched
on g's own support, with k more on each edge of M, and H = g + kM is built
only where a coloring of it is returned or checked.  The cover reads its
demand in place, and with two colors left it settles the 2-regular demand
in closed form: odd cycles refute it, and even ones give the two factors
the enumeration would have found, with the same node count.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, NamedTuple, Sequence

from .certificates import (
    Certificate,
    graph_hash,
    is_integer_text,
    make_certificate,
    read_records,
)
from .families import MDotProduct
from .multigraph import (
    EdgeCut,
    Multigraph,
    SearchBudgetExceeded,
    _Deadline,
    _matchings_of,
    _with_copies,
    add_matching_copies,
    edge_cut,
    is_perfect_matching,
    matching_copy_ids,
)

PROPER = "proper"
SEES_ODD = "sees-odd"


class ColoringError(ValueError):
    pass


class EdgeColoring(NamedTuple):
    colors: dict[str, int]
    palette: int
    mode: str = PROPER


def is_proper(g: Multigraph, coloring: EdgeColoring):
    """(True, None) or (False, (vertex, edge1, edge2)) for the first clash.

    Each vertex ORs one bit per incident color, and only a vertex with fewer
    bits than edges is scanned for its clash; so is every vertex when a
    color outside 0..|E| would make the masks wide."""
    colors = coloring.colors
    if colors.keys() != g._edges.keys():
        raise ColoringError("coloring does not cover exactly the edges of the graph")
    narrow = not colors or 0 <= min(colors.values()) and max(colors.values()) <= len(colors)
    for v, ids in g._incident.items():
        if narrow:
            mask = 0
            for eid in ids:
                mask |= 1 << colors[eid]
            if mask.bit_count() == len(ids):
                continue
        seen: dict[int, str] = {}
        for eid in ids:
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
    """First (vertex, color, count) with an even count, or None.

    Each vertex XORs one bit per incident color, so its mask is the full
    palette exactly when every count is odd."""
    colors, palette = coloring.colors, coloring.palette
    if colors.keys() != g._edges.keys():
        raise ColoringError("coloring does not cover exactly the edges of the graph")
    _check_palette(colors, palette)
    full = (1 << palette) - 1
    for v, ids in g._incident.items():
        mask = 0
        for eid in ids:
            mask ^= 1 << colors[eid]
        if mask != full:
            c = (~mask & (mask + 1)).bit_length() - 1  # the lowest even count
            return (v, c, sum(colors[eid] == c for eid in ids))
    return None


def _matching_cover(g: Multigraph, deadline: _Deadline, m: Sequence[str] = (),
                    copies: Sequence[Sequence[str]] = ()) -> dict[str, int] | None:
    """A proper d-edge-coloring of the d-regular multigraph H = g + kM, or None.

    ``copies`` are ``matching_copy_ids(g, m, k)``; without them H is g.  The
    search runs on g's simple support graph: each class of parallel edges,
    in order of first appearance, is one support edge whose multiplicity is
    the size of the class, and the class of an edge of M gains its copies.
    Color c goes to the c-th factor and, within each class, to its ids in
    H's order: g's edges in g order, then e@c1 .. e@ck.
    """
    view = g.indexed
    classes: dict[tuple[int, int], list[str]] = {}
    for eid, (a, b) in zip(view.edge_ids, view.ends):
        classes.setdefault((a, b) if a < b else (b, a), []).append(eid)
    for eid, ids in zip(m, copies):
        e = g._edges[eid]
        a, b = view.pos[e.u], view.pos[e.v]
        classes[(a, b) if a < b else (b, a)].extend(ids)
    factors = _cover(len(view.vertices), list(classes),
                     [len(ids) for ids in classes.values()], deadline)
    if factors is None:
        return None
    unused = [iter(ids) for ids in classes.values()]
    return {next(unused[s]): c for c, pm in enumerate(factors) for s in pm}


def _cover(n: int, ends: Sequence[tuple[int, int]], need: list[int],
           deadline: _Deadline) -> list[list[int]] | None:
    """d perfect matchings of the simple graph on n vertices with the edges
    ``ends``, each (lower, higher), that use edge s ``need[s]`` times; or None.

    The demand is kept in place, and the enumeration reads it as its live-edge
    test.  Each step takes a perfect matching through the lowest-index edge
    still in demand, and a state that failed once is not searched again.
    With two colors left the demand graph is 2-regular, a demand of 2 being a
    2-cycle, and ``_two_factors`` settles it, counting the two nodes the
    recursion would have visited.  The memo is skipped there: such a state
    fails exactly when it has an odd cycle, which the walk finds as fast.
    """
    at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s, (a, b) in enumerate(ends):
        at[a].append((s, b))
        at[b].append((s, a))
    failed: set[tuple[int, ...]] = set()

    def cover(left: int) -> list[list[int]] | None:
        deadline.tick()
        pivot = next((s for s, k in enumerate(need) if k), None)
        if pivot is None:
            return []
        if left == 2:
            found = _two_factors(at, ends, need, pivot)
            if found is not None:
                deadline.tick()
                deadline.tick()
            return found
        key = tuple(need)
        if key in failed:
            return None
        a, b = ends[pivot]
        for pm in _matchings_of(at, 1 << a | 1 << b, deadline.poll, need):
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

    if n % 2 and ends:
        return None  # odd order: no perfect matching exists
    return cover(sum(need[s] for s, _ in at[0]) if ends else 0)  # d colors to place


def _two_factors(at: Sequence[Sequence[tuple[int, int]]], ends: Sequence[tuple[int, int]],
                 need: Sequence[int], pivot: int) -> list[list[int]] | None:
    """The last two factors of a 2-regular demand, or None if it has an odd
    cycle: what the enumeration through ``pivot``, and the one-color node
    after it, would return.

    The enumeration matches the lowest free vertex next, so each factor
    lists its edges by their lower ends, its own pivot last, and the first
    factor alternates from the pivot on the pivot's cycle, and from the
    first live option at the lowest vertex on every other cycle.  The walk
    goes round the cycles in that order, and an edge joins the factor of the
    parity of its step; the factors are built only once every cycle is even.
    """
    n = len(at)
    out = [-1] * n  # 2 * (the edge the walk leaves a vertex by) + the step's parity
    a, b = ends[pivot]
    out[a] = 2 * pivot
    v, came, length = b, pivot, 1
    for start in range(n + 1):  # the pivot's cycle, then each vertex in turn
        while out[v] < 0:
            for s, w in at[v]:
                if need[s] and s != came:
                    break
            else:  # a demand of 2: back along the same edge
                if came < 0:
                    return None  # no live edge at v: the graph was not regular
                s, w = came, sum(ends[came]) - v
            out[v] = 2 * s + (length & 1)
            length += 1
            v, came = w, s
        if length & 1:
            return None
        v, came, length = start, -1, 0
    factors = [[-1] * n, [-1] * n]  # the edge of each factor at its lower end
    for x in out:
        factors[x & 1][ends[x >> 1][0]] = x >> 1
    one, two = ([s for s in lower if s >= 0] for lower in factors)
    for pm, own in ((one, pivot), (two, min(two))):
        pm.remove(own)
        pm.append(own)
    return [one, two]


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
    g - M once and each edge of M 2t-1 times; the cover runs on g with
    those multiplicities, and H is built only to check a coloring it found.
    Only the listed t are decided; the certificate records explicitly that
    the quantification over all t is out of reach of the test.

    ``budget_s`` is wall-clock seconds for the whole call, over every t,
    checked every 512 search nodes.  Each t it leaves undecided reads
    ``budget-exhausted``, and each decided t records its own node count.
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
    deadline = _Deadline(budget_s)
    for t in t_range:
        if t < 1:
            raise ColoringError("t must be positive")
        copies = matching_copy_ids(g, m, 2 * t - 2)
        before = deadline.nodes
        try:
            deadline.poll()  # a t begun after the budget ran out is not searched
            colors = _matching_cover(g, deadline, m, copies)
        except SearchBudgetExceeded:
            per_t.append({"t": t, "status": "budget-exhausted"})
            continue
        entry = {"t": t, "class": 1 if colors is not None else 2, "nodes": deadline.nodes - before}
        if colors is not None:
            ok, clash = is_proper(_with_copies(g, m, copies), EdgeColoring(colors, 2 * t + 1))
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
    recorded coloring on H = g + (2t-2)M, and class-2 entries re-run the
    matching cover on g, which must find no coloring."""
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
        copies = matching_copy_ids(g, m, 2 * t - 2)
        if entry["class"] == 1:
            h = _with_copies(g, m, copies)
            coloring = EdgeColoring({e: int(c) for e, c in entry["coloring"].items()},
                                    2 * t + 1)
            if coloring.colors.keys() != h._edges.keys() or not is_proper(h, coloring)[0] \
                    or len(set(coloring.colors.values())) > 2 * t + 1:
                return False
        elif entry["class"] != 2 \
                or _matching_cover(g, _Deadline(None), m, copies) is not None:
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
            if not is_integer_text(c):
                raise ColoringError(f"edge {eid!r} has malformed color {c!r}") from None
            colors[eid] = parsed[c] = int(c)
    if header["palette"] is None:
        raise ColoringError("coloring file missing its palette header")
    if not is_integer_text(header["palette"]):
        raise ColoringError(f"malformed palette {header['palette']!r}")
    palette, mode = int(header["palette"]), header["mode"] or PROPER
    if mode not in (PROPER, SEES_ODD):
        raise ColoringError(f"unknown coloring mode {mode!r}")
    _check_palette(colors, palette)
    return EdgeColoring(colors, palette, mode)
