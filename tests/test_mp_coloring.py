import hashlib
import itertools

import pytest

from circflow import families, mp_coloring
from circflow.colorings import EdgeColoring, is_proper, sees_odd_violation, write_coloring
from circflow.mp_coloring import (
    INF,
    derive_triangle_pattern,
    factor_color_of_pair,
    k4p_factorization_labels,
    k4p_one_factorization,
    mp_prime_coloring,
    mp_tilde_coloring,
)
from circflow.multigraph import is_perfect_matching, serialize


def test_k4p_factorization_t1_first_matching():
    labels = k4p_factorization_labels(1)
    m0 = {frozenset(p) for p in labels[0]}
    expected = {frozenset((0, INF)), frozenset((1, 10)), frozenset((2, 9)),
                frozenset((3, 8)), frozenset((4, 7)), frozenset((5, 6))}
    assert m0 == expected


def test_k4p_factorization_t1_shift():
    labels = k4p_factorization_labels(1)
    m1 = {frozenset(p) for p in labels[1]}
    assert frozenset((1, INF)) in m1
    assert frozenset((2, 0)) in m1


@pytest.mark.parametrize("t", [1, 2])
def test_k4p_factorization_partitions_edges(t):
    p = 2 * t + 1
    k = families.complete_graph(4 * p)
    factors = k4p_one_factorization(t)
    assert len(factors) == 4 * p - 1
    for f in factors:
        assert is_perfect_matching(k, f)
    union = set().union(*factors)
    assert len(union) == sum(len(f) for f in factors)  # pairwise disjoint
    assert union == set(k.edge_ids)


def test_factor_color_is_consistent_with_matchings():
    t = 2
    for j, matching in enumerate(k4p_factorization_labels(t)):
        for a, b in matching:
            assert factor_color_of_pair(t, a, b) == j


@pytest.mark.parametrize("t", [1, 2])
def test_triangle_pattern_is_the_unique_search_solution(t):
    # regeneration check: exhaustive search over all color assignments of the
    # six triangle edges subject to "each vertex sees every color once"
    mod = 8 * t + 3
    for j in range(0, 3 * t, 3):
        derived = derive_triangle_pattern(t, j)
        circuit = mp_coloring.triangle_circuit_labels(t, j)
        freed: dict = {}
        for k, v in enumerate(circuit):
            w = circuit[(k + 1) % 6]
            col = factor_color_of_pair(t, v, w)
            freed.setdefault(v, set()).add(col)
            freed.setdefault(w, set()).add(col)
        keys = list(derived)
        solutions = []
        pool = sorted({factor_color_of_pair(t, circuit[k], circuit[(k + 1) % 6])
                       for k in range(6)})
        for combo in itertools.product(pool, repeat=len(keys)):
            assignment = dict(zip(keys, combo))
            ok = True
            for vertex in set(v for key in keys for v in key):
                got = {assignment[key] for key in keys if vertex in key}
                need = freed[vertex]
                counts = [assignment[key] for key in keys if vertex in key]
                if got != need or len(counts) != len(set(counts)):
                    ok = False
                    break
            if ok:
                solutions.append(assignment)
        assert solutions == [derived]


@pytest.mark.parametrize("t", [1, 2, 3])
def test_mp_prime_coloring_sees_odd(t):
    data = mp_prime_coloring(t)
    p = 2 * t + 1
    g = data.family.graph
    coloring = data.coloring
    assert coloring.palette == 4 * p + 1
    assert coloring.mode == "sees-odd"
    assert sees_odd_violation(g, coloring) is None


def test_mp_prime_junction_windows_t1():
    data = mp_prime_coloring(1)
    g = data.family.graph
    colors = data.coloring.colors
    palette = 13
    # hub sees every color exactly once
    hub_colors = sorted(colors[e] for e in g.incident_edges("w"))
    assert hub_colors == list(range(palette))
    # each junction sees its i+4t+7 color exactly three times, the rest once
    for i in range(1, 14):
        seen: dict = {}
        for e in g.incident_edges(f"c{i}"):
            seen[colors[e]] = seen.get(colors[e], 0) + 1
        triple = (i + 11) % palette
        assert seen[triple] == 3
        assert all(v == 1 for c, v in seen.items() if c != triple)
    # degree bookkeeping: 12 once-seen colors + one thrice = 15 edges
    assert g.degree("c1") == 15


def test_mp_prime_internal_vertices_see_all_once():
    data = mp_prime_coloring(1)
    g = data.family.graph
    colors = data.coloring.colors
    for v in ("v1@1", "v7@3", "x@5"):
        got = sorted(colors[e] for e in g.incident_edges(v))
        assert got == list(range(13))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("t,coloring_sha,permutations_sha", [
    (1, "37f3fa8279c9754556bf924a201df303d53c361b230eb7d5b1d9591aa2475128",
     "7bc3ccc49ac4a684ddd9509893d7c5159de9406bdd62390034a12dc97e12390f"),
    (2, "0d65585eb851fc043b25faf81ae3d1a9117de76703268790e7536b0d81dc4e80",
     "143fbb69ffd9c1f5119008d98164fc8427df7526a9e955b52e647c9bd3058d66"),
    (3, "d9b51646d634a95a4c81164087a3001807532980ab98c26c320c6359bd1de15a",
     "4c3a7dbebaa57d401cfa3673393a4fdfffcc608be54e38881a4e5a18d049f679"),
])
def test_mp_prime_coloring_is_pinned(t, coloring_sha, permutations_sha):
    # the coloring file and every copy's palette rotation (in insertion
    # order), as the copy-by-copy construction produced them
    data = mp_prime_coloring(t)
    assert _sha(write_coloring(data.coloring)) == coloring_sha
    assert _sha(repr(data.copy_permutations)) == permutations_sha


@pytest.mark.parametrize("t,coloring_sha,graph_sha", [
    (1, "92d56565dd323960d57a1f9f2b48c325662173b59bcf096af077b21ad0c8d7cf",
     "f46f870df7426b41cc0d6cec16a647a36af43f8cad1087973cb87359c9985d82"),
    (2, "030483ce70aeda3dd40accb6f2c9d7e945ad5487c5f260a78c5953a3f3dbeada",
     "da542002c88220c10472a80310327413d0e08cd920c5c1559bee03f87d73d0d2"),
    (3, "52bba0007f4f2c6b185d3a2acbaf50b92bdc9e98f11275af608b3b2059d44098",
     "9ddb0cf0dd39a0fe2100703f3c95642fc237986ebf8b5f037e5332a2b7ee9bde"),
])
def test_mp_tilde_coloring_is_pinned(t, coloring_sha, graph_sha):
    g, coloring = mp_tilde_coloring(t)
    assert _sha(write_coloring(coloring)) == coloring_sha
    assert _sha(serialize(g)) == graph_sha


@pytest.mark.parametrize("t", [1, 2, 3])
def test_mp_tilde_coloring(t):
    p = 2 * t + 1
    g, coloring = mp_tilde_coloring(t)
    assert g.is_regular(4 * p + 1)
    assert coloring.palette == 4 * p + 1
    ok, clash = is_proper(g, coloring)
    assert ok, clash
    assert len(set(coloring.colors.values())) == 4 * p + 1
    assert all(g.degree(v) != 2 for v in g.vertices)


@pytest.mark.parametrize("p,stage", [(3, families.MP_BASE), (5, families.MP_PRIME),
                                     (3, families.MP_TILDE)])
def test_mp_graph_is_built_once_per_stage(p, stage):
    assert families.mp_graph(p, stage) is families.mp_graph(p, stage)


def test_mp_tilde_after_mp_prime_builds_no_further_m3_prime(monkeypatch):
    from circflow.multigraph import Multigraph

    m3_prime_edges = list(families.mp_graph(3, families.MP_PRIME).graph.edge_ids)
    families.mp_graph.cache_clear()
    built = []
    init = Multigraph.__init__

    def counting(self, vertices=(), edges=()):
        edges = list(edges)
        if [e[0] for e in edges] == m3_prime_edges:
            built.append(self)
        init(self, vertices, edges)

    monkeypatch.setattr(Multigraph, "__init__", counting)
    prime = mp_prime_coloring(1)
    assert len(built) == 1
    mp_tilde_coloring(1)
    assert len(built) == 1 and mp_prime_coloring(1).family.graph is prime.family.graph


def test_mp_tilde_matches_family_stage():
    fam = families.mp_graph(3, families.MP_TILDE)
    g, _ = mp_tilde_coloring(1)
    assert fam.graph == g


@pytest.mark.parametrize("key,junction", [
    (("K", ":v1v2"), False),  # an edge between two vertices of a copy
    (("s1", ":v10"), True),  # a spoke into the junction c_i
])
def test_mp_prime_check_rejects_a_corrupted_color(monkeypatch, key, junction):
    pattern = mp_coloring._copy_pattern

    def corrupted(t):
        raw, freed = pattern(t)
        raw[key] = (raw[key] + 1) % (8 * t + 5)
        return raw, freed

    monkeypatch.setattr(mp_coloring, "_copy_pattern", corrupted)
    with pytest.raises(mp_coloring.ColoringError, match="internal error: ") as caught:
        mp_prime_coloring(1)
    vertex = str(caught.value).split()[2]
    assert (vertex in families.mp_graph(3, families.MP_PRIME).junctions) is junction
