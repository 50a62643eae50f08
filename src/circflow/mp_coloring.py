"""Edge colorings of the expanded counterexample family.

M_p' gets a (4p+1)-coloring in which every vertex sees every color an odd
number of times, assembled per copy from the rotational 1-factorization of
K_{4p}, a triangle recoloring, a recoloring of the junction circuit, and a
per-copy palette rotation that gives junction i the odd color window
i + {1, 3, ..., 4t+7}.  Each junction sees its triple color on the hub edge
and on two more edges; merging those two into one edge between their far
ends (routing them through a divalent vertex and suppressing it) yields the
(4p+1)-regular class-1 refinement M~_p, which is written out directly.
"""

from __future__ import annotations

from typing import NamedTuple

from . import families
from .colorings import EdgeColoring, PROPER, SEES_ODD, ColoringError, is_proper
from .multigraph import Edge, Multigraph

INF = "inf"


def _half(t: int) -> int:
    # inverse of 2 modulo 8t+3
    return (8 * t + 4) // 2


def k4p_factorization_labels(t: int) -> list[list[tuple]]:
    """The rotational 1-factorization of K_{4p} on Z_{8t+3} + {inf}.

    Color class j is M_j = M_0 + j = {(j, inf)} + {(j-i, j+i)}; the 8t+3
    classes partition the edge set.
    """
    if t < 1:
        raise ColoringError("t must be a positive integer")
    mod = 8 * t + 3
    out = []
    for j in range(mod):
        matching = [(j % mod, INF)]
        for i in range(1, 4 * t + 2):
            matching.append(((j - i) % mod, (j + i) % mod))
        out.append(matching)
    return out


def factor_color_of_pair(t: int, a, b) -> int:
    """Factorization color of the K_{4p} edge between two labels."""
    mod = 8 * t + 3
    if a == INF:
        return b % mod
    if b == INF:
        return a % mod
    return ((a + b) * _half(t)) % mod


def junction_circuit_labels(t: int) -> list:
    """The even circuit 0, 1, .., t+1, inf, -(t+1), .., -1 of length 2t+4."""
    mod = 8 * t + 3
    seq: list = list(range(t + 2)) + [INF]
    seq.extend((-(t + 1) + k) % mod for k in range(t + 1))
    return seq


def triangle_circuit_labels(t: int, j: int) -> list[int]:
    """The 6-circuit pairing triangle j with its negative."""
    mod = 8 * t + 3
    return [(t + 2 + j) % mod, (-(t + 2 + j)) % mod, (t + 3 + j) % mod,
            (-(t + 4 + j)) % mod, (t + 4 + j) % mod, (-(t + 3 + j)) % mod]


def derive_triangle_pattern(t: int, j: int) -> dict[tuple, int]:
    """Triangle-edge colors forced by "every vertex sees each color once".

    Each triangle vertex misses exactly the two old colors of its circuit
    edges, so its two triangle edges must supply them; the resulting
    assignment is unique and comes out independent of j.
    """
    mod = 8 * t + 3
    circuit = triangle_circuit_labels(t, j)
    freed: dict[int, set[int]] = {}
    for k, v in enumerate(circuit):
        w = circuit[(k + 1) % 6]
        col = factor_color_of_pair(t, v, w)
        freed.setdefault(v, set()).add(col)
        freed.setdefault(w, set()).add(col)
    pos = [(t + 2 + j) % mod, (t + 3 + j) % mod, (t + 4 + j) % mod]
    neg = [(-(t + 2 + j)) % mod, (-(t + 3 + j)) % mod, (-(t + 4 + j)) % mod]
    out: dict[tuple, int] = {}
    for tri in (pos, neg):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
            common = freed[a] & freed[b]
            if len(common) != 1:
                raise ColoringError("triangle recoloring is not uniquely determined")
            out[(a, b)] = next(iter(common))
    return out


class MpPrimeColoringData(NamedTuple):
    t: int
    family: families.MpFamily
    coloring: EdgeColoring
    copy_permutations: tuple[dict[int, int], ...]  # raw color -> final color per copy


def _copy_pattern(t: int) -> tuple[dict[tuple[str, str], int], list[int]]:
    """Steps (a)-(c) of every copy of M_p', which differ between copies only
    in the copy index inside the edge ids.

    Returns the raw colors keyed by ``(head, tail)``, the id of the edge in
    copy i being ``f"{head}{i}{tail}"``, and the freed junction colors in
    circuit order.  The spokes keep their ids through the expansion: side 1
    joins c_i, side 2 joins c_{i+1}, and the expanded vertex keeps the first
    parallel edge of each bundle.
    """
    p = 2 * t + 1
    mod = 8 * t + 3
    to_j = families.lemma_to_construction_label(p)
    raw: dict[tuple[str, str], int] = {}

    def pair(head: str, a, b) -> tuple[str, str]:
        a, b = sorted((to_j[a], to_j[b]))
        return head, f":v{a}v{b}"

    def spoke(side: int, j: int) -> tuple[str, str]:
        return (f"pz{side}", ":1") if j == 4 * p else (f"s{side}", f":v{j}")

    # (a) factorization colors on all K-edges of the copy
    for j, matching in enumerate(k4p_factorization_labels(t)):
        for a, b in matching:
            raw[pair("K", a, b)] = j

    # (b) triangle circuits: new colors on the circuit, freed colors on
    # the triangle edges
    for jj in range(0, 3 * t, 3):
        tri_circuit = triangle_circuit_labels(t, jj)
        for k, v in enumerate(tri_circuit):
            w = tri_circuit[(k + 1) % 6]
            raw[pair("K", v, w)] = mod if k % 2 == 0 else mod + 1
        for (a, b), col in derive_triangle_pattern(t, jj).items():
            raw[pair("T", a, b)] = col

    # (c) junction circuit: remember the freed colors in circuit order,
    # recolor the circuit alternately, hand each vertex's forward color
    # to c_i and its backward color to c_{i+1}
    circuit = junction_circuit_labels(t)
    clen = len(circuit)
    freed: list[int] = []
    for k in range(clen):
        v, w = circuit[k], circuit[(k + 1) % clen]
        freed.append(factor_color_of_pair(t, v, w))
    if len(set(freed)) != clen:
        raise ColoringError("junction circuit colors are not pairwise distinct")
    for k in range(clen):
        v, w = circuit[k], circuit[(k + 1) % clen]
        raw[pair("K", v, w)] = mod if k % 2 == 0 else mod + 1
    for k, v in enumerate(circuit):
        raw[spoke(1, to_j[v])] = freed[k]
        raw[spoke(2, to_j[v])] = freed[(k - 1) % clen]
    return raw, freed


def mp_prime_coloring(t: int) -> MpPrimeColoringData:
    """The (4p+1)-coloring of M_p' with every vertex seeing every color an
    odd number of times.  Verified before returning by one exact check per
    vertex: the colors at a vertex are 0..4p each once, except that junction
    c_i sees its triple color (i + 4t + 7) mod (8t + 5) three times."""
    if t < 1:
        raise ColoringError("t must be a positive integer")
    p = 2 * t + 1
    family = families.mp_graph(p, families.MP_PRIME)
    g = family.graph
    palette = 8 * t + 5
    raw, freed = _copy_pattern(t)

    colors: dict[str, int] = {}
    permutations: list[dict[int, int]] = []
    for i in range(1, 4 * p + 2):
        # (d) per-copy palette rotation: freed set -> i + {1, 3, .., 4t+7},
        # the rest order-preserving
        window = sorted((i + 2 * s + 1) % palette for s in range(2 * t + 4))
        perm: dict[int, int] = {}
        for old, new in zip(sorted(freed), window):
            perm[old] = new
        rest_old = [c for c in range(palette) if c not in perm]
        rest_new = [c for c in range(palette) if c not in set(window)]
        perm.update(dict(zip(rest_old, rest_new)))
        permutations.append(perm)
        for (head, tail), c in raw.items():
            colors[f"{head}{i}{tail}"] = perm[c]

        # (e) the p-2 parallel junction edges get the even window
        bundle = sorted([f"zz{i}"] + [f"pz1{i}:{k}&pz2{i}:{k}" for k in range(2, p - 1)])
        even_window = sorted((i + 4 * t + 8 + 2 * s) % palette for s in range(2 * t - 1))
        for eid, c in zip(bundle, even_window):
            colors[eid] = c

        # (f) hub spoke
        colors[f"hub{i}"] = (i + 4 * t + 7) % palette

    if colors.keys() != g._edges.keys():
        raise ColoringError("internal error: the coloring does not cover exactly M_p'")
    every = list(range(palette))
    want = {v: sorted(every + [(i + 4 * t + 7) % palette] * 2)
            for i, v in enumerate(family.junctions, start=1)}
    for v in g.vertices:
        seen = sorted([colors[eid] for eid in g.incident_edges(v)])
        if seen != want.get(v, every):
            raise ColoringError(f"internal error: {v} sees the colors {seen}")
    coloring = EdgeColoring(colors, palette, SEES_ODD)
    return MpPrimeColoringData(t, family, coloring, tuple(permutations))


def mp_tilde_coloring(t: int) -> tuple[Multigraph, EdgeColoring]:
    """M~_p and its proper (4p+1)-coloring, written out from M_p' directly.

    Junction c_i sees its triple color (i + 4t + 7) mod (8t + 5) on the hub
    edge and on two more edges; routing those two through a divalent vertex
    and suppressing it joins their far ends by one edge ``e1&e2`` (e1 < e2)
    of that color.  So c_i becomes c~_i; every other edge keeps its place in
    M_p' and is written from its junction end, or from the later junction
    when both ends are junctions; the merged edges follow in junction order;
    and the vertices are M_p''s without the junctions, then c~_1, c~_2, ...
    """
    data = mp_prime_coloring(t)
    palette = 8 * t + 5
    g = data.family.graph
    colors = dict(data.coloring.colors)
    rank = {v: i for i, v in enumerate(data.family.junctions, start=1)}
    tilde = {v: f"c~{i}" for v, i in rank.items()}

    rerouted: dict[str, str] = {}  # edge id -> the junction that reroutes it
    for v, i in rank.items():
        triple = (i + 4 * t + 7) % palette
        carriers = [eid for eid in g.incident_edges(v) if colors[eid] == triple]
        if len(carriers) != 3:
            raise ColoringError("internal error: junction must see its triple color thrice")
        if f"hub{i}" not in carriers:
            raise ColoringError("internal error: the hub edge must carry the triple color")
        carriers.remove(f"hub{i}")
        for eid in carriers:
            if eid in rerouted:
                raise ColoringError(f"internal error: edge {eid} is rerouted at both ends")
            rerouted[eid] = v

    edges: list[Edge] = []
    far: dict[str, list[tuple[str, str]]] = {v: [] for v in rank}
    for e in g.edges():
        if e.eid in rerouted:
            v = rerouted[e.eid]
            w = e.other(v)
            far[v].append((e.eid, tilde.get(w, w)))
            continue
        a, b = (e.v, e.u) if rank.get(e.u, 0) < rank.get(e.v, 0) else (e.u, e.v)
        edges.append(Edge(e.eid, tilde[a], tilde.get(b, b)) if a in rank else e)
    for v in rank:
        (e1, a), (e2, b) = sorted(far[v])
        if a == b:
            raise ColoringError(f"internal error: merging at {v} would make a loop at {a}")
        c1, c2 = colors.pop(e1), colors.pop(e2)
        if c1 != c2:
            raise ColoringError("internal error: merged edges carry different colors")
        colors[f"{e1}&{e2}"] = c1
        edges.append(Edge(f"{e1}&{e2}", a, b))
    h = Multigraph([v for v in g.vertices if v not in rank] + list(tilde.values()), edges)

    coloring = EdgeColoring(colors, palette, PROPER)
    if not h.is_regular(palette):
        raise ColoringError("internal error: the refinement is not (4p+1)-regular")
    ok, clash = is_proper(h, coloring)
    if not ok:
        raise ColoringError(f"internal error: refinement coloring improper at {clash}")
    return h, coloring
