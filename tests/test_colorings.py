import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from circflow import blanusa, colorings, families
from circflow.colorings import (
    ColoringError,
    EdgeColoring,
    chromatic_index,
    chromatic_index_certificate,
    class_property,
    dot_product_class2_prover,
    is_proper,
    parity_lemma_check,
    read_coloring,
    transition_claim_check,
    write_coloring,
)
from circflow.certificates import make_certificate, reverify
from circflow.multigraph import Multigraph, add_matching_copies, edge_cut, perfect_matchings


def test_is_proper_basics():
    g = Multigraph(["a", "b"], [("e", "a", "b")])
    ok, _ = is_proper(g, EdgeColoring({"e": 0}, 1))
    assert ok
    gg = Multigraph(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])
    ok, clash = is_proper(gg, EdgeColoring({"e1": 0, "e2": 0}, 1))
    assert not ok and clash[1:] == ("e1", "e2")
    with pytest.raises(ColoringError):
        is_proper(gg, EdgeColoring({"e1": 0}, 1))


CHI_EXPECTED = [
    ("Petersen", lambda: families.petersen(), 4),
    ("J5", lambda: families.flower_snark(2).graph, 4),
    ("K33", lambda: Multigraph(
        [f"a{i}" for i in range(3)] + [f"b{i}" for i in range(3)],
        [(f"e{i}{j}", f"a{i}", f"b{j}") for i in range(3) for j in range(3)]), 3),
    ("K6", lambda: families.complete_graph(6), 5),
    ("K4", lambda: families.complete_graph(4), 3),
]


@pytest.mark.parametrize("name,make,expected", CHI_EXPECTED)
def test_chromatic_index_values(name, make, expected):
    g = make()
    result = chromatic_index(g)
    assert result.exact == expected
    assert result.coloring.palette == expected
    delta, mu = g.max_degree(), g.max_multiplicity()
    assert delta <= result.exact <= delta + mu


def test_chromatic_index_petersen_plus_matchings():
    p = families.petersen()
    m = sorted(perfect_matchings(p)[0])
    assert chromatic_index(add_matching_copies(p, m, 1)).exact == 5
    assert chromatic_index(add_matching_copies(p, m, 2)).exact == 6


def test_chromatic_index_reports_refutations():
    result = chromatic_index(families.petersen())
    assert result.refuted == (3,)
    assert result.method in ("backtracking", "one-factor-peeling")


def test_reverify_chromatic_index_re_runs_the_search():
    k4 = families.complete_graph(4)
    coloring = dict(chromatic_index(k4).coloring.colors)
    coloring[sorted(coloring)[0]] = 3  # a proper 4-coloring of the class-1 K4
    assert is_proper(k4, EdgeColoring(coloring, 4))[0]
    forged = make_certificate("chromatic-index", k4, {"kind": "exact"},
                              {"value": 4, "coloring": coloring, "refuted_palettes": [3],
                               "method": "backtracking", "nodes": 0}, "verified")
    assert not reverify(forged, k4)
    p = families.petersen()
    assert reverify(chromatic_index_certificate(p, chromatic_index(p)), p)


def test_reverify_chromatic_index_rechecks_bounds():
    k4 = families.complete_graph(4)

    def bounds(lower, upper):
        return make_certificate("chromatic-index", k4, {"kind": "bounds"},
                                {"lower": lower, "upper": upper, "nodes": 0}, "inconclusive")

    assert reverify(bounds(3, 4), k4)
    assert not reverify(bounds(9, 12), k4)  # K4 is 3-edge-colorable
    assert not reverify(bounds(4, 4), k4)
    assert not reverify(bounds(3, 3), k4)  # below Vizing's bound 3 + 1
    assert not reverify(bounds(2, 4), k4)


def test_chromatic_index_budget_bounds():
    g = blanusa.build_chain(1).chain.graph
    h = add_matching_copies(g, sorted(blanusa.build_chain(1).matching), 2)
    result = chromatic_index(h, budget_s=0.001)
    if not result.is_exact:
        assert result.lower <= result.upper
        assert result.lower >= 5
    assert reverify(chromatic_index_certificate(h, result), h)


def test_parity_lemma_vertex_and_four_cuts():
    k4 = families.complete_graph(4)
    result = chromatic_index(k4)
    cuts = [edge_cut(k4, ["v1"]), edge_cut(k4, ["v1", "v2"])]
    cert = parity_lemma_check(k4, result.coloring, cuts)
    assert cert.verdict == "verified"


def test_parity_lemma_on_k6_many_cuts():
    k6 = families.complete_graph(6)
    coloring = chromatic_index(k6).coloring
    verts = list(k6.vertices)
    cuts = []
    for mask in range(1, 2 ** 6 - 1):
        side = [verts[i] for i in range(6) if mask & (1 << i)]
        cuts.append(edge_cut(k6, side))
    assert parity_lemma_check(k6, coloring, cuts).verdict == "verified"


def test_parity_lemma_flags_bogus_coloring():
    k4 = families.complete_graph(4)
    coloring = chromatic_index(k4).coloring
    # break properness: parity check must refuse the input
    bad = dict(coloring.colors)
    e0, e1 = sorted(bad)[:2]
    bad[e0] = bad[e1]
    with pytest.raises(ColoringError):
        parity_lemma_check(k4, EdgeColoring(bad, 3), [edge_cut(k4, ["v1"])])


def test_parity_lemma_rejects_nonregular():
    g = Multigraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
    with pytest.raises(ColoringError):
        parity_lemma_check(g, EdgeColoring({"e1": 0, "e2": 1}, 2), [])


def test_class_property_flower_matching_is_class_1_from_t2():
    # at t=1 the family member is J5 itself, a snark (class 2); the class-1
    # property of the flower matching starts at t=2, where J5+2M 5-regular
    # inherits a 1-factorization from the 4-regular class-1 graph J5+M
    data = __import__("circflow.flows", fromlist=["build_flower_flow"]).build_flower_flow(2)
    cert = class_property(data.graph, sorted(data.matching), 1, [2, 3, 4])
    assert cert.verdict == "verified"
    assert [e["class"] for e in cert.witness["per_t"]] == [1, 1, 1]
    assert cert.parameters["scope"] == "tested-range-only"
    snark_cert = class_property(data.graph, sorted(data.matching), 2, [1])
    assert snark_cert.verdict == "verified"


def test_class_property_petersen_class_2():
    p = families.petersen()
    for pm in perfect_matchings(p):
        cert = class_property(p, sorted(pm), 2, [1, 2])
        assert cert.verdict == "verified"


@st.composite
def cubic_with_matching(draw):
    """A random loopless cubic multigraph on 4-10 vertices and one of its
    perfect matchings; parallel edges make class-2 cases common."""
    n = draw(st.sampled_from([4, 6, 8, 10]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    while True:  # configuration model, rejecting loops
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = [stubs[i:i + 2] for i in range(0, 3 * n, 2)]
        if all(u != v for u, v in pairs):
            break
    g = Multigraph([f"v{i}" for i in range(n)],
                   [(f"e{i}", f"v{u}", f"v{v}") for i, (u, v) in enumerate(pairs)])
    pms = perfect_matchings(g)
    assume(pms)
    return g, sorted(draw(st.sampled_from(pms)))


@given(cubic_with_matching(), st.sampled_from([1, 2]))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_matching_cover_agrees_with_backtracking(case, t):
    g, m = case
    h = add_matching_copies(g, m, 2 * t - 2)
    found = colorings._matching_cover(h, colorings._Deadline(None))
    expected = colorings._backtrack_coloring(h, 2 * t + 1, colorings._Deadline(None))
    assert (found is None) == (expected is None)
    if found is not None:
        assert is_proper(h, EdgeColoring(found, 2 * t + 1))[0]
        assert set(found.values()) <= set(range(2 * t + 1))


def test_class_property_refutes_wrong_class():
    p = families.petersen()
    pm = sorted(perfect_matchings(p)[0])
    cert = class_property(p, pm, 1, [1])
    assert cert.verdict == "refuted"


def _petersen_product(t=2):
    seed = blanusa.load_or_find_seed()
    dp = seed.dot_product
    g1 = blanusa._relabelled_petersen("L.")
    g2 = blanusa._relabelled_petersen("R.")
    product = families.m_dot_product(
        g1, dp["n1"], g2, dp["n2"], dp["e1"], dp["e2"], dp["xy"],
        e1_order=tuple(dp["e1_order"]), e2_order=tuple(dp["e2_order"]),
        u_neighbors=tuple(dp["u_neighbors"]), w_neighbors=tuple(dp["w_neighbors"]))
    c1 = class_property(g1, dp["n1"], 2, [t])
    c2 = class_property(g2, dp["n2"], 2, [t])
    return product, c1, c2


def test_dot_product_class2_prover():
    product, c1, c2 = _petersen_product()
    cert = dot_product_class2_prover(product, c1, c2, 2)
    assert cert.verdict == "verified"
    assert len(cert.witness["cut_edges"]) == 4
    assert cert.parameters["prover"] == "dot-product-4-cut"


def test_prover_declines_on_class1_components():
    from circflow import flows

    data = flows.build_flower_flow(1)  # J3 with its class-1 matching
    g1 = data.graph.relabeled({v: f"L{v}" for v in data.graph.vertices},
                              {e: f"L{e}" for e in data.graph.edge_ids})
    g2 = data.graph.relabeled({v: f"R{v}" for v in data.graph.vertices},
                              {e: f"R{e}" for e in data.graph.edge_ids})
    m1 = sorted(f"L{e}" for e in data.matching)
    m2 = sorted(f"R{e}" for e in data.matching)
    e1, e2 = "Laa0", "Laa1"  # non-adjacent? aa0 = a0a1, aa1 = a1a2 share a1
    e1, e2 = "Laa0", "Lcd1"
    product = families.m_dot_product(g1, m1, g2, m2, e1, e2, m2[0])
    c1 = class_property(g1, m1, 2, [2])
    c2 = class_property(g2, m2, 2, [2])
    assert c1.verdict == "refuted"  # the flower matching is class 1
    cert = dot_product_class2_prover(product, c1, c2, 2)
    assert cert.verdict == "inconclusive"
    assert "declined" in cert.witness


def test_prover_requires_component_certificates():
    product, c1, c2 = _petersen_product()
    wrong_graph_cert = class_property(families.petersen(),
                                      sorted(perfect_matchings(families.petersen())[0]), 2, [2])
    with pytest.raises(ColoringError):
        dot_product_class2_prover(product, wrong_graph_cert, c2, 2)
    with pytest.raises(ColoringError):
        dot_product_class2_prover(product, c1, c2, 3)  # t not covered


def test_transition_claim_examples():
    assert transition_claim_check(["x1", "x1", "x1"]) == 0
    assert transition_claim_check(["x1", "x3", "x2", "x3", "x1"]) == 1
    with pytest.raises(ColoringError):
        transition_claim_check(["x1", "x2", "x3"])  # x1 next to x2 is inadmissible
    with pytest.raises(ColoringError):
        transition_claim_check(["x1", "x1", "x1", "x1"])  # even length


def test_transition_claim_exhaustive_small():
    # all admissible sequences of length up to 11 have a repeat at distance 2
    from circflow.cli import _admissible_sequences

    for k in (3, 5, 7, 9, 11):
        count = 0
        for types in _admissible_sequences(k):
            assert transition_claim_check(list(types)) is not None
            count += 1
        assert count > 0


def test_coloring_file_round_trip():
    result = chromatic_index(families.petersen())
    text = write_coloring(result.coloring)
    back = read_coloring(text)
    assert back.colors == result.coloring.colors
    assert back.palette == result.coloring.palette
    assert back.mode == "proper"
