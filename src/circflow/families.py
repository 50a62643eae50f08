"""Deterministic generators for the graph families under study.

Vertex and edge ids are structured names mirroring the construction indices
(`a3`, `v7@2`, `K2:v1v5`, ...) so that downstream flow and coloring builders
can address the exact edges the constructions talk about.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Sequence

from .multigraph import Edge, Multigraph, is_matching, is_perfect_matching


class FamilyError(ValueError):
    pass


# -- small fixed graphs ---------------------------------------------------


def petersen() -> Multigraph:
    """The Petersen graph: outer 5-cycle, inner pentagram, five spokes."""
    vertices = [f"u{i}" for i in range(5)] + [f"w{i}" for i in range(5)]
    edges = []
    for i in range(5):
        edges.append((f"uu{i}", f"u{i}", f"u{(i + 1) % 5}"))
        edges.append((f"ww{i}", f"w{i}", f"w{(i + 2) % 5}"))
        edges.append((f"uw{i}", f"u{i}", f"w{i}"))
    return Multigraph(vertices, edges)


def complete_graph(m: int) -> Multigraph:
    if m < 2:
        raise FamilyError("complete graphs need at least 2 vertices")
    vertices = [f"v{i}" for i in range(1, m + 1)]
    edges = [(f"v{i}v{j}", f"v{i}", f"v{j}")
             for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    return Multigraph(vertices, edges)


# -- Flower snarks ----------------------------------------------------------


class FlowerSnark(NamedTuple):
    n: int
    graph: Multigraph


@cache
def flower_snark(n: int) -> FlowerSnark:
    """J_{2n+1} on vertices {a_i, b_i, c_i, d_i : i in Z_{2n+1}}.

    Edge ids: ab/bc/bd{i} are the spokes at b_i, aa{i} joins a_i a_{i+1},
    cd{i} joins c_i d_{i+1} and dc{i} joins c_{i+1} d_i.  Built once per n:
    the result is immutable, so every caller shares one graph and its
    indexed view.
    """
    if n < 1:
        raise FamilyError("flower snarks are defined for n >= 1")
    mod = 2 * n + 1
    vertices = [f"{x}{i}" for i in range(mod) for x in "abcd"]
    edges = []
    for i in range(mod):
        j = (i + 1) % mod
        edges.append((f"ab{i}", f"b{i}", f"a{i}"))
        edges.append((f"bc{i}", f"b{i}", f"c{i}"))
        edges.append((f"bd{i}", f"b{i}", f"d{i}"))
        edges.append((f"aa{i}", f"a{i}", f"a{j}"))
        edges.append((f"cd{i}", f"c{i}", f"d{j}"))
        edges.append((f"dc{i}", f"c{j}", f"d{i}"))
    g = Multigraph(vertices, edges)
    assert g.num_vertices() == 4 * mod and g.num_edges() == 6 * mod
    return FlowerSnark(n, g)


# -- dot products -------------------------------------------------------------


class DotProductSpec(NamedTuple):
    g: Multigraph
    h: Multigraph
    e1: str
    e2: str
    e1_order: tuple[str, str]  # (v1, v2)
    e2_order: tuple[str, str]  # (v3, v4)
    removed_pair: tuple[str, str]  # adjacent u, w in h
    u_neighbors: tuple[str, str]  # u1, u2
    w_neighbors: tuple[str, str]  # w1, w2


def dot_product(spec: DotProductSpec) -> Multigraph:
    """Splice: drop {e1, e2} from g, drop {u, w} from h, add the four joins."""
    g, h = spec.g, spec.h
    if set(g.vertices) & set(h.vertices):
        raise FamilyError("dot product factors must have disjoint vertex ids")
    v1, v2 = spec.e1_order
    v3, v4 = spec.e2_order
    if g.edge(spec.e1).ends != frozenset((v1, v2)) or g.edge(spec.e2).ends != frozenset((v3, v4)):
        raise FamilyError("edge orders do not match the removed edges")
    if not is_matching(g, (spec.e1, spec.e2)) or spec.e1 == spec.e2:
        raise FamilyError("the two removed edges must form a 2-edge matching")
    u, w = spec.removed_pair
    if not h.edges_between(u, w):
        raise FamilyError("removed pair must be adjacent in h")
    u1, u2 = spec.u_neighbors
    w1, w2 = spec.w_neighbors
    for x, anchor in ((u1, u), (u2, u), (w1, w), (w2, w)):
        if x in (u, w):
            raise FamilyError("join neighbors must survive the vertex removal")
        if not h.edges_between(anchor, x):
            raise FamilyError(f"{x!r} is not adjacent to {anchor!r} in h")
    g_cut = g.with_edges_removed((spec.e1, spec.e2))
    h_cut = h.with_vertices_removed((u, w))
    joined = Multigraph(
        list(g_cut.vertices) + list(h_cut.vertices),
        [*g_cut.edges(), *h_cut.edges()]
        + [(f"dot:{a}~{b}", a, b) for a, b in ((v1, u1), (v2, u2), (v3, w1), (v4, w2))],
    )
    return joined


def dot_join_ids(spec: DotProductSpec) -> tuple[str, str, str, str]:
    v1, v2 = spec.e1_order
    v3, v4 = spec.e2_order
    u1, u2 = spec.u_neighbors
    w1, w2 = spec.w_neighbors
    return (f"dot:{v1}~{u1}", f"dot:{v2}~{u2}", f"dot:{v3}~{w1}", f"dot:{v4}~{w2}")


class MDotProduct(NamedTuple):
    """An (M1, M2)-dot-product together with its inherited perfect matching."""

    graph: Multigraph
    matching: frozenset[str]
    spec: DotProductSpec
    join_edges: tuple[str, str, str, str]
    m1: frozenset[str]
    m2: frozenset[str]
    removed_matching_edge: str


def m_dot_product(g1: Multigraph, m1: Sequence[str], g2: Multigraph, m2: Sequence[str],
                  e1: str, e2: str, xy: str,
                  e1_order: tuple[str, str] | None = None,
                  e2_order: tuple[str, str] | None = None,
                  u_neighbors: tuple[str, str] | None = None,
                  w_neighbors: tuple[str, str] | None = None) -> MDotProduct:
    """Dot product respecting perfect matchings m1 of g1 and m2 of g2.

    Removes non-adjacent e1, e2 from g1 - m1 and the endpoints of the
    m2-edge ``xy`` from g2; M = m1 + m2 - xy is verified perfect.
    """
    if not (g1.is_regular(3) and g2.is_regular(3)):
        raise FamilyError("matched dot products are defined for cubic factors")
    if not is_perfect_matching(g1, m1):
        raise FamilyError("m1 is not a perfect matching of g1")
    if not is_perfect_matching(g2, m2):
        raise FamilyError("m2 is not a perfect matching of g2")
    if e1 in set(m1) or e2 in set(m1):
        raise FamilyError("removed edges must avoid m1")
    if not is_matching(g1, (e1, e2)) or e1 == e2:
        raise FamilyError("removed edges must be non-adjacent")
    if xy not in set(m2):
        raise FamilyError("the removed pair must span an m2 edge")
    ex = g2.edge(xy)
    x, y = ex.u, ex.v
    ux = tuple(sorted(set(g2.neighbors(x)) - {y})) if u_neighbors is None else u_neighbors
    wx = tuple(sorted(set(g2.neighbors(y)) - {x})) if w_neighbors is None else w_neighbors
    if len(ux) != 2 or len(wx) != 2:
        raise FamilyError("removed pair must have two private neighbors each")
    spec = DotProductSpec(
        g=g1, h=g2, e1=e1, e2=e2,
        e1_order=e1_order or tuple(sorted(g1.edge(e1).ends)),
        e2_order=e2_order or tuple(sorted(g1.edge(e2).ends)),
        removed_pair=(x, y), u_neighbors=ux, w_neighbors=wx,
    )
    graph = dot_product(spec)
    matching = (frozenset(m1) | frozenset(m2)) - {xy}
    if not is_perfect_matching(graph, matching):
        raise FamilyError("internal error: inherited matching is not perfect")
    return MDotProduct(graph, matching, spec, dot_join_ids(spec), frozenset(m1),
                       frozenset(m2), xy)


# -- Blanusa chain (construction lives in blanusa.py) --------------------------


def blanusa_chain(n: int):
    from . import blanusa  # deferred: blanusa builds on flows

    return blanusa.build_chain(n).chain


# -- the M_p family -------------------------------------------------------------

MP_BASE = "base"
MP_PRIME = "prime"
MP_TILDE = "tilde"


class MpFamily(NamedTuple):
    p: int
    stage: str
    graph: Multigraph
    junctions: tuple[str, ...]
    hub: str


def _junction(p: int, i: int) -> str:
    return f"c{(i - 1) % (4 * p + 1) + 1}"


def mp_copy_vertex(p: int, copy: int, j: int, stage: str = MP_BASE) -> str:
    """Construction vertex v_j of copy ``copy``; in M_p' the 4p-th is x."""
    if stage != MP_BASE and j == 4 * p:
        return f"x@{copy}"
    return f"v{j}@{copy}"


def mp_triangles(p: int) -> list[tuple[int, int, int]]:
    """Construction triangle triples: consecutive thirds of v1..v_{3(p-1)}."""
    return [(3 * k + 1, 3 * k + 2, 3 * k + 3) for k in range(p - 1)]


def construction_to_lemma_label(p: int, j: int):
    """Bijection from construction index v_j to the K_{4p} labeling
    Z_{8t+3} + {inf} used by the edge-coloring lemma; triangles map onto the
    (t+2+j, t+3+j, t+4+j) triples and their negatives."""
    t = (p - 1) // 2
    mod = 8 * t + 3
    if j == 4 * p:
        return "inf"
    if j <= 3 * (p - 1):
        k, pos = divmod(j - 1, 3)
        if k < t:
            return (t + 2 + 3 * k + pos) % mod
        return (-(t + 2 + 3 * (k - t) + pos)) % mod
    if j <= 7 * t + 2:
        return j - (6 * t + 1)
    return (j - (8 * t + 4)) % mod


def lemma_to_construction_label(p: int):
    out = {}
    for j in range(1, 4 * p + 1):
        out[construction_to_lemma_label(p, j)] = j
    return out


@cache
def mp_graph(p: int, stage: str = MP_BASE) -> MpFamily:
    """The counterexample family: M_p, its expansion M_p' and the class-1
    refinement (the tilde stage delegates to the coloring pipeline).  Cached:
    calls with the same arguments share one immutable graph and its view.

    M_p' is M_p with each v_{4p}@i expanded into x@i, which keeps the K-edges
    and the first pz-edge of each side, and y_k@i, which takes the (k+1)-th
    pz-edge of each side, followed by the suppression of the divalent y's.
    It is written out here in one pass, exactly as that recipe leaves it:
    the vertices of M_p without the v_{4p}@i, then x@1, x@2, ...; each
    rewired edge starts at x@i; and the merged edges ``pz1{i}:{k}&pz2{i}:{k}``
    joining c_i and c_{i+1}, k >= 2, come last, in copy order.
    """
    if p < 3 or p % 2 == 0:
        raise FamilyError("p must be an odd integer >= 3")
    if stage not in (MP_BASE, MP_PRIME, MP_TILDE):
        raise FamilyError(f"unknown stage {stage!r}")
    if stage == MP_TILDE:
        from . import mp_coloring  # deferred: the tilde stage is coloring-guided

        graph, _coloring = mp_coloring.mp_tilde_coloring((p - 1) // 2)
        return MpFamily(p, MP_TILDE, graph,
                        tuple(f"c~{i}" for i in range(1, 4 * p + 2)), "w")

    prime = stage == MP_PRIME
    copies = 4 * p + 1
    top = 4 * p
    junctions = tuple(f"c{i}" for i in range(1, copies + 1))
    vertices: list[str] = [*junctions, "w"]
    edges: list[Edge] = []
    merged: list[Edge] = []
    for i in range(1, copies + 1):
        z1 = _junction(p, i)
        z2 = _junction(p, i + 1)
        kv = [mp_copy_vertex(p, i, j, stage) for j in range(1, top + 1)]
        x = kv[-1]
        vertices.extend(kv[:-1] if prime else kv)
        for a in range(1, top):
            va = kv[a - 1]
            edges.extend([Edge(f"K{i}:v{a}v{b}", va, kv[b - 1]) for b in range(a + 1, top)])
            edges.append(Edge(f"K{i}:v{a}v{top}", *((x, va) if prime else (va, x))))
        for (a, b, c) in mp_triangles(p):
            edges.append(Edge(f"T{i}:v{a}v{b}", kv[a - 1], kv[b - 1]))
            edges.append(Edge(f"T{i}:v{b}v{c}", kv[b - 1], kv[c - 1]))
            edges.append(Edge(f"T{i}:v{a}v{c}", kv[a - 1], kv[c - 1]))
        edges.append(Edge(f"zz{i}", z1, z2))
        for k in range(1, p - 1):
            if prime and k >= 2:
                merged.append(Edge(f"pz1{i}:{k}&pz2{i}:{k}", z1, z2))
            else:
                edges.append(Edge(f"pz1{i}:{k}", x, z1))
                edges.append(Edge(f"pz2{i}:{k}", x, z2))
        for j in range(3 * p - 2, top):
            edges.append(Edge(f"s1{i}:v{j}", kv[j - 1], z1))
            edges.append(Edge(f"s2{i}:v{j}", kv[j - 1], z2))
        edges.append(Edge(f"hub{i}", "w", z1))
    if prime:
        vertices.extend(mp_copy_vertex(p, i, top, stage) for i in range(1, copies + 1))
        edges.extend(merged)
    return MpFamily(p, stage, Multigraph(vertices, edges), junctions, "w")
