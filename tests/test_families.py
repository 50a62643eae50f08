import hashlib

import pytest

from circflow import colorings, families
from circflow.families import (
    DotProductSpec,
    FamilyError,
    construction_to_lemma_label,
    dot_product,
    lemma_to_construction_label,
    m_dot_product,
    mp_graph,
    mp_triangles,
)
from circflow.multigraph import girth, is_bridgeless, is_perfect_matching, perfect_matchings, serialize


def test_petersen_shape():
    p = families.petersen()
    assert p.num_vertices() == 10 and p.num_edges() == 15
    assert p.is_regular(3)
    assert girth(p) == 5
    assert len(perfect_matchings(p)) == 6


def test_petersen_chromatic_index_is_four():
    assert colorings.chromatic_index(families.petersen()).exact == 4


def test_complete_graph_counts():
    assert families.complete_graph(4).num_edges() == 6
    assert families.complete_graph(6).num_edges() == 15
    k12 = families.complete_graph(12)
    assert k12.num_vertices() == 12 and k12.num_edges() == 66
    with pytest.raises(FamilyError):
        families.complete_graph(1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_flower_snark_counts(n):
    fs = families.flower_snark(n)
    assert fs.graph.num_vertices() == 4 * (2 * n + 1)
    assert fs.graph.num_edges() == 6 * (2 * n + 1)
    assert fs.graph.is_regular(3)


def test_flower_snark_j5_class2():
    assert colorings.chromatic_index(families.flower_snark(2).graph).exact == 4


def test_flower_snark_rejects_small_n():
    with pytest.raises(FamilyError):
        families.flower_snark(0)


def _two_petersens():
    p = families.petersen()
    g1 = p.relabeled({v: f"L{v}" for v in p.vertices}, {e: f"L{e}" for e in p.edge_ids})
    g2 = p.relabeled({v: f"R{v}" for v in p.vertices}, {e: f"R{e}" for e in p.edge_ids})
    return g1, g2


def test_dot_product_two_petersens():
    g1, g2 = _two_petersens()
    spec = DotProductSpec(
        g=g1, h=g2, e1="Luu0", e2="Lww1",
        e1_order=("Lu0", "Lu1"), e2_order=("Lw1", "Lw3"),
        removed_pair=("Ru0", "Ru1"),
        u_neighbors=("Ru4", "Rw0"), w_neighbors=("Ru2", "Rw1"),
    )
    g = dot_product(spec)
    assert g.num_vertices() == 18
    assert g.is_regular(3)
    assert is_bridgeless(g)


def test_dot_product_rejects_adjacent_removed_edges():
    g1, g2 = _two_petersens()
    spec = DotProductSpec(
        g=g1, h=g2, e1="Luu0", e2="Luu1",
        e1_order=("Lu0", "Lu1"), e2_order=("Lu1", "Lu2"),
        removed_pair=("Ru0", "Ru1"),
        u_neighbors=("Ru4", "Rw0"), w_neighbors=("Ru2", "Rw1"),
    )
    with pytest.raises(FamilyError):
        dot_product(spec)


def test_m_dot_product_matching_inherited():
    g1, g2 = _two_petersens()
    m1 = [f"L{e}" for e in ("uw0", "uw1", "uw2", "uw3", "uw4")]  # the spoke matching
    m2 = [f"R{e}" for e in ("uw0", "uw1", "uw2", "uw3", "uw4")]
    product = m_dot_product(g1, m1, g2, m2, "Luu0", "Lww1", "Ruw0")
    assert product.graph.num_vertices() == 18
    assert product.graph.is_regular(3)
    assert is_perfect_matching(product.graph, product.matching)
    assert len(product.matching) == 9


def test_m_dot_product_named_preconditions():
    g1, g2 = _two_petersens()
    m1 = [f"L{e}" for e in ("uw0", "uw1", "uw2", "uw3", "uw4")]
    m2 = [f"R{e}" for e in ("uw0", "uw1", "uw2", "uw3", "uw4")]
    with pytest.raises(FamilyError, match="avoid m1"):
        m_dot_product(g1, m1, g2, m2, "Luw0", "Lww1", "Ruw0")
    with pytest.raises(FamilyError, match="non-adjacent"):
        m_dot_product(g1, m1, g2, m2, "Luu0", "Luu1", "Ruw0")
    with pytest.raises(FamilyError, match="m2 edge"):
        m_dot_product(g1, m1, g2, m2, "Luu0", "Lww1", "Ruu0")


def test_mp_graph_p3_shape():
    fam = mp_graph(3)
    g = fam.graph
    assert g.num_vertices() == 170
    assert g.degree("w") == 13
    for c in fam.junctions:
        assert g.degree(c) == 4 * 3 + 3
    assert g.degree("v12@1") == 6 * 3 - 5
    assert g.degree("v1@1") == 4 * 3 + 1


def test_mp_graph_p5_degrees():
    fam = mp_graph(5)
    g = fam.graph
    assert g.degree("v20@3") == 6 * 5 - 5
    assert g.degree("c4") == 4 * 5 + 3
    assert g.degree("v7@2") == 4 * 5 + 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mp_prime_degrees(p):
    fam = mp_graph(p, families.MP_PRIME)
    g = fam.graph
    for v in g.vertices:
        want = 4 * p + 3 if v.startswith("c") else 4 * p + 1
        assert g.degree(v) == want
    assert is_bridgeless(g)


@pytest.mark.parametrize("p, stage, sha", [
    (3, families.MP_BASE, "d21635d907b4901d6f9027db001bae5649eca072eec332fdb93078a4b904f306"),
    (3, families.MP_PRIME, "4fd26a41874cd5acdc95285548a99eb374d436f4c19480966a81f3ffba39829a"),
    (5, families.MP_BASE, "82abbe411cde5ba20c7e3cd44fcc65a43eebe1c822322dccaa7bbd4f04462f3b"),
    (5, families.MP_PRIME, "3fab86235e0cea297d7d33caa68732fe895b8cbbe505ed146e8a141c54fc32fb"),
    (7, families.MP_BASE, "d0faf7ca329da23c0f28507c3db4768588f94e495ce45218c7c5b316144b14da"),
    (7, families.MP_PRIME, "59897f9d55a8803ca61fb2d6b4cf835ff1222410efc6eaa236d968bbdcaf36d2"),
])
def test_mp_graph_serialization_is_pinned(p, stage, sha):
    # vertex order, edge order and every edge's orientation, as the
    # expand -> suppress construction of M_p' left them
    assert hashlib.sha256(serialize(mp_graph(p, stage).graph).encode()).hexdigest() == sha


def test_mp_prime_junction_bundle():
    fam = mp_graph(5, families.MP_PRIME)
    assert len(fam.graph.edges_between("c1", "c2")) == 5 - 2


def test_mp_graph_rejects_bad_p():
    with pytest.raises(FamilyError):
        mp_graph(4)
    with pytest.raises(FamilyError):
        mp_graph(1)


def test_triangle_label_bijection():
    for p in (3, 5, 7):
        t = (p - 1) // 2
        mod = 8 * t + 3
        fwd = {j: construction_to_lemma_label(p, j) for j in range(1, 4 * p + 1)}
        assert sorted(map(str, fwd.values())) == sorted(map(str, list(range(mod)) + ["inf"]))
        back = lemma_to_construction_label(p)
        assert all(back[fwd[j]] == j for j in fwd)
        # construction triangles land on the lemma triples and their negatives
        lemma_triples = []
        for k in range(t):
            lemma_triples.append({(t + 2 + 3 * k) % mod, (t + 3 + 3 * k) % mod,
                                  (t + 4 + 3 * k) % mod})
            lemma_triples.append({(-(t + 2 + 3 * k)) % mod, (-(t + 3 + 3 * k)) % mod,
                                  (-(t + 4 + 3 * k)) % mod})
        got = [{fwd[a], fwd[b], fwd[c]} for a, b, c in mp_triangles(p)]
        assert all(tri in lemma_triples for tri in got)
        assert len(got) == len(lemma_triples)


def test_blanusa_chain_via_families():
    chain = families.blanusa_chain(1)
    assert chain.graph.num_vertices() == 18
    assert chain.graph.is_regular(3)
    chain2 = families.blanusa_chain(2)
    assert chain2.graph.num_vertices() == 34
