"""Reference computations that check circflow's outputs without using circflow.

Everything here works on plain data: a graph is a vertex list plus a list of
``(edge id, u, v)`` triples, and artefacts are read from the text the program
wrote.  A fault in the program therefore cannot hide by agreeing with one of
its own checkers.  Each check raises ``CheckFailed`` with a reason.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import networkx as nx


class CheckFailed(AssertionError):
    """A program output disagrees with the reference computation."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def parse_rat(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


# -- artefact parsing -------------------------------------------------------------


def parse_flow_text(text: str) -> tuple[Fraction, dict[str, tuple[str, str, Fraction]]]:
    """(r, {edge id: (tail, head, value)}) from a ``circflow-flow v1`` file."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    expect(bool(lines) and lines[0] == ["circflow-flow", "v1"], "not a flow file")
    r = None
    arcs: dict[str, tuple[str, str, Fraction]] = {}
    for parts in lines[1:]:
        if parts[0] == "r":
            r = parse_rat(parts[1])
        elif parts[0] in ("mode", "zero-edge"):
            continue
        else:
            eid, tail, head, value = parts
            expect(eid not in arcs, f"edge {eid} listed twice")
            arcs[eid] = (tail, head, parse_rat(value))
    expect(r is not None, "flow file has no r line")
    return r, arcs


def parse_flow_witness(witness: dict) -> tuple[Fraction, dict[str, tuple[str, str, Fraction]]]:
    """The same pair from a certificate's JSON flow witness."""
    arcs = {eid: (rec["tail"], rec["head"], parse_rat(rec["value"]))
            for eid, rec in witness["edges"].items()}
    return parse_rat(witness["r"]), arcs


def parse_coloring_text(text: str) -> tuple[int, str, dict[str, int]]:
    """(palette, mode, {edge id: color}) from a ``circflow-coloring v1`` file."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    expect(bool(lines) and lines[0] == ["circflow-coloring", "v1"], "not a coloring file")
    palette, mode, colors = None, "proper", {}
    for parts in lines[1:]:
        if parts[0] == "palette":
            palette = int(parts[1])
        elif parts[0] == "mode":
            mode = parts[1]
        else:
            colors[parts[0]] = int(parts[1])
    expect(palette is not None, "coloring file has no palette line")
    return palette, mode, colors


def read_certificate(text: str) -> dict:
    return json.loads(text)["certificate"]


# -- flows and colorings ---------------------------------------------------------


def check_flow(vertices, edges, r: Fraction, arcs: dict) -> None:
    """A nowhere-zero r-flow: every edge oriented along itself, conservation
    at every vertex, and 1 <= f(e) <= r - 1 on every edge, in Fractions."""
    expect(set(arcs) == {eid for eid, _, _ in edges}, "flow does not cover exactly the edges")
    net = {v: Fraction(0) for v in vertices}
    for eid, u, v in edges:
        tail, head, value = arcs[eid]
        expect({tail, head} == {u, v}, f"edge {eid} oriented between the wrong ends")
        expect(1 <= value <= r - 1, f"edge {eid} carries {value}, outside [1, {r - 1}]")
        net[tail] -= value
        net[head] += value
    bad = sorted(v for v, x in net.items() if x != 0)
    expect(not bad, f"conservation fails at {bad[:3]}")


def check_coloring(vertices, edges, colors: dict, palette: int, mode: str,
                   regular: int | None = None) -> None:
    """Proper or sees-odd, colors inside the palette, and the degree the
    construction claims when ``regular`` is given."""
    expect(set(colors) == {eid for eid, _, _ in edges}, "coloring does not cover exactly the edges")
    expect(all(0 <= c < palette for c in colors.values()), f"a color lies outside 0..{palette - 1}")
    seen: dict[str, Counter] = {v: Counter() for v in vertices}
    for eid, u, v in edges:
        seen[u][colors[eid]] += 1
        seen[v][colors[eid]] += 1
    for v, counts in seen.items():
        if regular is not None:
            expect(sum(counts.values()) == regular, f"vertex {v} has degree {sum(counts.values())}")
        if mode == "proper":
            expect(all(c == 1 for c in counts.values()), f"two edges at {v} share a color")
        else:
            expect(all(counts[c] % 2 == 1 for c in range(palette)),
                   f"vertex {v} sees some color an even number of times")


def check_matched_graph(g_edges, matching, copies: int, h_edges) -> None:
    """H = G + copies*M: G's edges under their ids, plus ``copies`` parallel
    copies of every matching edge and nothing else."""
    h_by_id = {eid: frozenset((u, v)) for eid, u, v in h_edges}
    for eid, u, v in g_edges:
        expect(h_by_id.get(eid) == frozenset((u, v)), f"H lost or moved edge {eid}")
    want = Counter(frozenset((u, v)) for _, u, v in g_edges)
    for eid, u, v in g_edges:
        if eid in matching:
            want[frozenset((u, v))] += copies
    expect(Counter(h_by_id.values()) == want, "H is not G plus the matching copies")


def bound_formula(r: Fraction, t: int) -> Fraction:
    """2 + 2(r-2)/(r + (2t-3)(r-2)): the flow value granted to G + (2t-2)M."""
    return 2 + 2 * (r - 2) / (r + (2 * t - 3) * (r - 2))


# -- matchings and the class decider ----------------------------------------------


def perfect_matchings(vertices, edges) -> list[frozenset[str]]:
    """Every perfect matching, as a set of edge ids."""
    pos = {v: i for i, v in enumerate(vertices)}
    inc: list[list[tuple[str, int]]] = [[] for _ in vertices]
    for eid, u, v in edges:
        inc[pos[u]].append((eid, pos[v]))
        inc[pos[v]].append((eid, pos[u]))
    full = (1 << len(vertices)) - 1
    out: list[frozenset[str]] = []
    chosen: list[str] = []

    def rec(covered: int) -> None:
        if covered == full:
            out.append(frozenset(chosen))
            return
        v = (~covered & (covered + 1)).bit_length() - 1
        for eid, w in inc[v]:
            if not covered >> w & 1:
                chosen.append(eid)
                rec(covered | 1 << v | 1 << w)
                chosen.pop()

    if len(vertices) % 2 == 0:
        rec(0)
    return out


def min_matching_cover(vertices, edges, matching, limit: int) -> int | None:
    """Least k <= limit such that the traces P - M of k perfect matchings P
    partition F = E - M, or None.

    G + jM is (j+3)-edge-colorable exactly when this k is at most j + 3: a
    color class of G + jM is a perfect matching of G, each F-edge lies in
    one class, and at every vertex the classes not using its two F-edges use
    its matching edge, so copies of M pad any cover up to j + 3 classes.
    With M empty the same search decides 3-edge-colorability of a cubic graph.
    """
    f_ids = [eid for eid, _, _ in edges if eid not in matching]
    bit = {eid: 1 << i for i, eid in enumerate(f_ids)}
    full = (1 << len(f_ids)) - 1
    traces = {sum(bit[e] for e in pm if e in bit) for pm in perfect_matchings(vertices, edges)}
    traces.discard(0)
    by_low: dict[int, list[int]] = {}
    for tr in traces:
        for i in range(len(f_ids)):
            if tr >> i & 1:
                by_low.setdefault(i, []).append(tr)
    memo: dict[tuple[int, int], bool] = {}

    def fits(covered: int, k: int) -> bool:
        if covered == full:
            return True
        if k == 0:
            return False
        key = (covered, k)
        if key not in memo:
            low = (~covered & (covered + 1)).bit_length() - 1
            memo[key] = any(fits(covered | tr, k - 1)
                            for tr in by_low.get(low, ()) if not tr & covered)
        return memo[key]

    for k in range(limit + 1):
        if fits(0, k):
            return k
    return None


def matched_class(vertices, edges, matching, t: int) -> int:
    """1 if G + (2t-2)M is (2t+1)-edge-colorable, else 2."""
    return 1 if min_matching_cover(vertices, edges, matching, 2 * t + 1) is not None else 2


def is_bipartite(vertices, edges) -> bool:
    side: dict[str, int] = {}
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for _, u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for root in vertices:
        if root in side:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in side:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


# -- circular flow numbers ---------------------------------------------------------

# Exact values with their sources; the benchmark compares against these and
# against the rules below, never against a stored copy of the program's output.
KNOWN_PHI_C = {
    "K4": (Fraction(4), "cubic, not bipartite, and K4 - M = C4 is bipartite: "
                        "phi_c in {3, 4} (Steffen's theorem cited by the paper) and != 3 (Tutte)"),
    "K5": (Fraction(2), "Eulerian, so a nowhere-zero 2-flow exists; phi_c >= 2 for every graph"),
    "K33": (Fraction(3), "(2t+1)-regular bipartite with t = 1: phi_c = 2 + 1/t"),
    "Petersen": (Fraction(5), "no nowhere-zero 4-flow (Tutte); 5 as listed by Goedgebeur, "
                              "Mattiolo and Mazzuoccolo, Discrete Math. 2020"),
}


def check_phi_value(name: str, vertices, edges, value: Fraction, memo: dict) -> None:
    """The program's phi_c against the known table or the rules that fix it."""
    if name in KNOWN_PHI_C:
        want, source = KNOWN_PHI_C[name]
        expect(value == want, f"phi_c({name}) = {value}, known {want} ({source})")
    elif name == "K6":
        # 5-regular: phi_c <= 2 + 2/3 only if some perfect matching leaves a bipartite graph
        if "K6-pm" not in memo:
            memo["K6-pm"] = any(is_bipartite(vertices, [e for e in edges if e[0] not in pm])
                                for pm in perfect_matchings(vertices, edges))
        expect(not memo["K6-pm"], "reference: a perfect matching of K6 leaves a bipartite graph")
        expect(value > Fraction(8, 3), f"phi_c(K6) = {value}, must exceed 8/3")
    else:
        # random cubic graphs: a 3-flow iff bipartite, a 4-flow iff 3-edge-colorable
        if name not in memo:
            memo[name] = (is_bipartite(vertices, edges),
                          min_matching_cover(vertices, edges, frozenset(), 3) is not None)
        bipartite, colorable = memo[name]
        expect((value == 3) == bipartite, f"phi_c({name}) = {value} but bipartite = {bipartite}")
        expect((value <= 4) == colorable, f"phi_c({name}) = {value} but 3-edge-colorable = {colorable}")


# -- balanced valuations by minimum cut ----------------------------------------------


def max_excess(vertices, edges, weight: dict, edge_cap: int) -> int:
    """max over X of (sum of weight over X) - edge_cap * |cut(X)|, X = {} included.

    One s-t minimum cut: s feeds every positive weight, every negative weight
    drains to t, and each edge is a pair of arcs of capacity ``edge_cap``.
    Integer capacities keep the answer exact.
    """
    net = nx.DiGraph()
    source, sink = ("source",), ("sink",)
    net.add_node(source)
    net.add_node(sink)
    for _, u, v in edges:
        for a, b in ((u, v), (v, u)):
            cap = net.edges[a, b]["capacity"] if net.has_edge(a, b) else 0
            net.add_edge(a, b, capacity=cap + edge_cap)
    positive = 0
    for v in vertices:
        w = weight[v]
        if w > 0:
            net.add_edge(source, v, capacity=w)
            positive += w
        elif w < 0:
            net.add_edge(v, sink, capacity=-w)
    cut_value, _ = nx.minimum_cut(net, source, sink)
    return positive - cut_value


def is_balanced(vertices, edges, k: dict, unit: Fraction) -> bool:
    """|sum over X of k_v * unit| <= |cut(X)| for every vertex set X."""
    unit = Fraction(unit)
    p, q = unit.numerator, unit.denominator
    return all(max_excess(vertices, edges, {v: sign * k[v] * p for v in vertices}, q) <= 0
               for sign in (1, -1))


def check_flow_bound(vertices, edges, k: dict, bound: Fraction) -> None:
    """``bound`` is the least r making the +-r/(r-2) valuation balanced.

    Balanced at q = r/(r-2), and unbalanced a little above q: two distinct
    ratios cut(X)/|k(X)| differ by at least 1/n^2, so q + 1/(n^2+1) exceeds
    only the ratios equal to q.
    """
    q = bound / (bound - 2)
    n = len(vertices)
    expect(is_balanced(vertices, edges, k, q), f"valuation at r = {bound} is not balanced")
    expect(not is_balanced(vertices, edges, k, q + Fraction(1, n * n + 1)),
           f"r = {bound} is not the least balancing value")
