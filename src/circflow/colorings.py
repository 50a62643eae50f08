"""Proper edge colorings, exact chromatic index and class certificates.

A Delta-regular multigraph is Delta-edge-colorable iff it 1-factorizes, and
parallel edges are interchangeable in a 1-factorization.  So class-1/class-2
decisions for regular graphs cover the edge multiplicities of the simple
support graph with Delta perfect matchings, memoizing failed multiplicity
vectors (the matching cover); everything else is exact backtracking.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .certificates import Certificate, make_certificate
from .families import MDotProduct
from .multigraph import (
    EdgeCut,
    GraphError,
    Multigraph,
    _matchings_of,
    add_matching_copies,
    is_perfect_matching,
)

PROPER = "proper"
SEES_ODD = "sees-odd"


class ColoringError(ValueError):
    pass


class SearchBudgetExceeded(ColoringError):
    pass


@dataclass(frozen=True)
class EdgeColoring:
    colors: dict[str, int]
    palette: int
    mode: str = PROPER

    def color(self, eid: str) -> int:
        return self.colors[eid]


def is_proper(g: Multigraph, coloring: EdgeColoring):
    """(True, None) or (False, (vertex, edge1, edge2)) for the first clash."""
    if set(coloring.colors) != set(g.edge_ids):
        raise ColoringError("coloring does not cover exactly the edges of the graph")
    for v in g.vertices:
        seen: dict[int, str] = {}
        for eid in g.incident_edges(v):
            c = coloring.colors[eid]
            if c in seen:
                return False, (v, seen[c], eid)
            seen[c] = eid
    return True, None


def sees_odd_violation(g: Multigraph, coloring: EdgeColoring):
    """First (vertex, color, count) with an even count, or None."""
    if set(coloring.colors) != set(g.edge_ids):
        raise ColoringError("coloring does not cover exactly the edges of the graph")
    for v in g.vertices:
        counts = [0] * coloring.palette
        for eid in g.incident_edges(v):
            counts[coloring.colors[eid]] += 1
        for c, cnt in enumerate(counts):
            if cnt % 2 == 0:
                return (v, c, cnt)
    return None


# -- indexed view used by the solvers -------------------------------------------


class _Indexed:
    def __init__(self, g: Multigraph):
        self.g = g
        self.verts = list(g.vertices)
        self.pos = {v: i for i, v in enumerate(self.verts)}
        self.eids = list(g.edge_ids)
        self.ends = [(self.pos[g.edge(e).u], self.pos[g.edge(e).v]) for e in self.eids]
        self.inc: list[list[int]] = [[] for _ in self.verts]
        for idx, (a, b) in enumerate(self.ends):
            self.inc[a].append(idx)
            self.inc[b].append(idx)


class _Deadline:
    def __init__(self, seconds: float | None):
        self.t_end = None if seconds is None else time.monotonic() + seconds
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.t_end is not None and self.nodes % 512 == 0 and time.monotonic() > self.t_end:
            raise SearchBudgetExceeded("search budget exhausted")


def _matching_cover(h: Multigraph, deadline: _Deadline) -> dict[str, int] | None:
    """A proper d-edge-coloring of the d-regular multigraph h, or None.

    Such a coloring is a 1-factorization.  Parallel edges are interchangeable,
    so the search runs on h's simple support graph and covers the multiplicity
    of every support edge with d perfect matchings.  The state is the tuple of
    multiplicities still in demand; each step takes a perfect matching through
    the lowest-index support edge still in demand, and a state that failed
    once is not searched again.  Color c goes to the c-th matching and, within
    each support edge, to the parallel edges of h in their order.
    """
    pos = {v: i for i, v in enumerate(h.vertices)}
    copies: dict[frozenset[str], list[str]] = {}
    for e in h.edges():
        copies.setdefault(e.ends, []).append(e.eid)
    support = list(copies.values())
    ends = [(pos[h.edge(ids[0]).u], pos[h.edge(ids[0]).v]) for ids in support]
    at: list[list[tuple[int, int]]] = [[] for _ in pos]
    for s, (a, b) in enumerate(ends):
        at[a].append((s, b))
        at[b].append((s, a))
    failed: set[tuple[int, ...]] = set()

    def cover(need: tuple[int, ...]) -> list[list[int]] | None:
        deadline.tick()
        pivot = next((s for s, k in enumerate(need) if k), None)
        if pivot is None:
            return []
        if need in failed:
            return None
        a, b = ends[pivot]
        inc = [[(s, w) for s, w in at_v if need[s]] for at_v in at]
        for pm in _matchings_of(inc, 1 << a | 1 << b):
            pm.append(pivot)
            rest = list(need)
            for s in pm:
                rest[s] -= 1
            found = cover(tuple(rest))
            if found is not None:
                return [pm] + found
        failed.add(need)
        return None

    if len(pos) % 2 and support:
        return None  # odd order: no perfect matching exists
    factors = cover(tuple(len(ids) for ids in support))
    if factors is None:
        return None
    unused = [iter(ids) for ids in support]
    return {next(unused[s]): c for c, pm in enumerate(factors) for s in pm}


def _backtrack_coloring(g: Multigraph, k: int, deadline: _Deadline,
                        fixed: Mapping[str, int] | None = None) -> dict[str, int] | None:
    """Exact proper k-edge-coloring search (None = refuted by exhaustion)."""
    idx = _Indexed(g)
    colors: dict[int, int] = {}
    used: list[set[int]] = [set() for _ in idx.verts]
    fixed_idx: dict[int, int] = {}
    if fixed:
        for eid, c in fixed.items():
            e = idx.eids.index(eid)
            fixed_idx[e] = c
    for e, c in fixed_idx.items():
        a, b = idx.ends[e]
        if c in used[a] or c in used[b] or c >= k:
            return None
        colors[e] = c
        used[a].add(c)
        used[b].add(c)

    free = [e for e in range(len(idx.eids)) if e not in fixed_idx]
    symmetry_free = not fixed  # allow "first unseen color only" pruning

    def choose() -> int | None:
        best, best_n = None, None
        for e in free:
            if e in colors:
                continue
            a, b = idx.ends[e]
            avail = k - len(used[a] | used[b])
            if avail == 0:
                return e
            if best_n is None or avail < best_n:
                best, best_n = e, avail
        return best

    def rec(max_used: int) -> bool:
        deadline.tick()
        e = choose()
        if e is None:
            return True
        a, b = idx.ends[e]
        taken = used[a] | used[b]
        cap = min(k, (max_used + 1) if symmetry_free else k)
        for c in range(cap):
            if c in taken:
                continue
            colors[e] = c
            used[a].add(c)
            used[b].add(c)
            if rec(max(max_used, c + 1)):
                return True
            used[a].remove(c)
            used[b].remove(c)
            del colors[e]
        return False

    start_max = max(fixed_idx.values(), default=-1) + 1
    if rec(start_max):
        return {idx.eids[e]: c for e, c in colors.items()}
    return None


def _k_coloring(g: Multigraph, k: int, deadline: _Deadline) -> tuple[dict[str, int] | None, str]:
    """A proper k-edge-coloring of g or None, and the method that decided it:
    the matching cover for a k-regular graph, backtracking otherwise."""
    if g.is_regular(k):
        return _matching_cover(g, deadline), "one-factor-peeling"
    return _backtrack_coloring(g, k, deadline), "backtracking"


@dataclass(frozen=True)
class ChromaticIndexResult:
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
    other palette sizes use exhaustive backtracking.  On budget exhaustion
    the result degrades to honest lower/upper bounds.
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
    ok, _ = is_proper(g, coloring)
    if not ok or len(set(coloring.colors.values())) > value:
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
    from .multigraph import edge_cut

    cuts = [edge_cut(g, side) for side in cert.parameters["cuts"]]
    fresh = parity_lemma_check(g, coloring, cuts)
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
    per_t = []
    verdict = "verified"
    for t in t_range:
        t = int(t)
        if t < 1:
            raise ColoringError("t must be positive")
        h = add_matching_copies(g, m, 2 * t - 2)
        degree = 2 * t + 1
        deadline = _Deadline(budget_s)
        try:
            colors = _matching_cover(h, deadline)
        except SearchBudgetExceeded:
            per_t.append({"t": t, "status": "budget-exhausted"})
            if verdict == "verified":
                verdict = "inconclusive"
            continue
        observed = 1 if colors is not None else 2
        entry = {"t": t, "class": observed, "nodes": deadline.nodes}
        if colors is not None:
            ok, clash = is_proper(h, EdgeColoring(colors, degree))
            if not ok:
                raise ColoringError(f"internal error: bad factorization: {clash}")
            entry["coloring"] = colors
        per_t.append(entry)
        if observed != which:
            verdict = "refuted"
    return make_certificate(
        "class-property", g,
        {"which": which, "t_range": list(t_range), "matching": m,
         "scope": "tested-range-only"},
        {"per_t": per_t},
        verdict, time.monotonic() - start)


def reverify_class_property(cert: Certificate, g: Multigraph) -> bool:
    """Class-1 entries re-check the recorded coloring; class-2 entries re-run
    the matching cover, which must find no coloring."""
    m = list(cert.parameters["matching"])
    for entry in cert.witness["per_t"]:
        if entry.get("status") == "budget-exhausted":
            continue
        t = int(entry["t"])
        h = add_matching_copies(g, m, 2 * t - 2)
        if entry["class"] == 1:
            coloring = EdgeColoring({e: int(c) for e, c in entry["coloring"].items()},
                                    2 * t + 1)
            ok, _ = is_proper(h, coloring)
            if not ok or len(set(coloring.colors.values())) > 2 * t + 1:
                return False
        elif _matching_cover(h, _Deadline(None)) is not None:
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
    from .certificates import graph_hash

    t = int(t)
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
                "class-property", product.graph,
                {"which": 2, "t_range": [t], "matching": sorted(product.matching),
                 "scope": "tested-range-only", "prover": "dot-product-4-cut"},
                {"declined": "a factor is not certified class 2 at this t"},
                "inconclusive")

    h = add_matching_copies(product.graph, sorted(product.matching), 2 * t - 2)
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
    return make_certificate(
        "class-property", product.graph,
        {"which": 2, "t_range": [t], "matching": sorted(product.matching),
         "scope": "tested-range-only", "prover": "dot-product-4-cut"},
        witness, "verified")


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
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != COLORING_HEADER:
        raise ColoringError(f"expected header {COLORING_HEADER!r}")
    palette: int | None = None
    mode = PROPER
    colors: dict[str, int] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "palette":
            palette = int(parts[1])
        elif parts[0] == "mode":
            mode = parts[1]
        else:
            colors[parts[0]] = int(parts[1])
    if palette is None:
        raise ColoringError("coloring file missing its palette header")
    return EdgeColoring(colors, palette, mode)
