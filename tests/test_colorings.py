import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from circflow import blanusa, colorings, families, mp_coloring
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
from circflow.multigraph import (
    Multigraph,
    _matchings_of,
    add_matching_copies,
    edge_cut,
    perfect_matchings,
)

from _oracles import is_proper_oracle, matching_cover_oracle, sees_odd_violation_oracle


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
    assert result.method in ("backtracking", "matching-cover")


def test_chromatic_index_names_the_search_that_decided_it():
    # K4 is 3-colored by the matching cover of a 3-regular graph; Petersen's
    # 4 colors on a 3-regular graph come from backtracking
    assert chromatic_index(families.complete_graph(4)).method == "matching-cover"
    assert chromatic_index(families.petersen()).method == "backtracking"


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


def _random_cubic_double(seed, n):
    """G, a copy G', and the edges v-v': 4-regular, from a random simple cubic
    G on n vertices drawn by the pairing model."""
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) == 3 * n // 2 and all(a != b for a, b in pairs):
            break
    vertices = [f"x{i}{side}" for side in ("", "'") for i in range(n)]
    edges = [(f"x{a}x{b}{side}", f"x{a}{side}", f"x{b}{side}")
             for side in ("", "'") for a, b in sorted(pairs)]
    edges += [(f"m{i}", f"x{i}", f"x{i}'") for i in range(n)]
    return Multigraph(vertices, edges)


def test_chromatic_index_budget_stops_a_long_matching_enumeration():
    # the matching cover spends seconds inside one 1-factor enumeration of
    # this graph before its second node, so only a clock read inside the
    # enumeration can honour the budget
    d = _random_cubic_double(2, 100)
    assert d.is_regular(4)
    start = time.monotonic()
    result = chromatic_index(d, budget_s=0.5)
    assert result.method == "budget"
    assert (result.lower, result.upper) == (4, 5)
    assert time.monotonic() - start < 3


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


@given(cubic_with_matching(), st.sampled_from([0, 1, 2]))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_matching_cover_agrees_with_backtracking(case, c):
    """g + cM with palette 3 + c: c = 1 is the appendix shape g + M, and
    c = 0, 2 are g + (2t-2)M at t = 1, 2."""
    g, m = case
    h = add_matching_copies(g, m, c)
    found = colorings._matching_cover(h, colorings._Deadline(None))
    expected = colorings._backtrack_coloring(h, 3 + c, colorings._Deadline(None))
    assert (found is None) == (expected is None)
    if found is not None:
        assert is_proper(h, EdgeColoring(found, 3 + c))[0]
        assert set(found.values()) <= set(range(3 + c))


def test_class_property_refutes_wrong_class():
    p = families.petersen()
    pm = sorted(perfect_matchings(p)[0])
    cert = class_property(p, pm, 1, [1])
    assert cert.verdict == "refuted"


def _petersen_product(t=2):
    seed = blanusa.load_or_find_seed()
    dp = seed.dot_product
    product = seed.product()
    c1 = class_property(product.spec.g, dp["n1"], 2, [t])
    c2 = class_property(product.spec.h, dp["n2"], 2, [t])
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


def test_reverify_class_property_rechecks_the_verdict():
    # J5 + 2M is class 1 for the matching of its ab and dc edges, so the
    # class-2 claim at t = 2 is refuted
    j5 = families.flower_snark(2).graph
    m = sorted(e for e in j5.edge_ids if e.startswith(("ab", "dc")))
    honest = class_property(j5, m, 2, [2])
    assert honest.verdict == "refuted" and reverify(honest, j5)

    def forged(verdict=honest.verdict, t_range=(2,), per_t=None):
        return make_certificate(
            "class-property", j5, {**honest.parameters, "t_range": list(t_range)},
            {"per_t": honest.witness["per_t"] if per_t is None else per_t}, verdict)

    assert reverify(forged(), j5)
    assert not reverify(forged(verdict="verified"), j5)
    assert not reverify(forged(t_range=[2, 3]), j5)
    assert not reverify(forged(verdict="verified", per_t=[]), j5)


def test_reverify_of_a_declined_prover_certificate():
    product, _, c2 = _petersen_product()
    c1 = class_property(product.spec.g, sorted(product.m1), 1, [2])
    declined = dot_product_class2_prover(product, c1, c2, 2)
    assert declined.verdict == "inconclusive" and "declined" in declined.witness
    assert reverify(declined, product.graph) is True
    for verdict in ("verified", "refuted"):
        forged = make_certificate("class-property", product.graph, declined.parameters,
                                  declined.witness, verdict)
        assert reverify(forged, product.graph) is False


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


def test_colors_outside_the_palette_are_rejected():
    text = "circflow-coloring v1\npalette 3\nmode proper\ne1 0\ne2 1\n"
    for bad, color in (("e2 -1", -1), ("e2 3", 3)):
        with pytest.raises(ColoringError,
                           match=f"^edge 'e2' has color {color}, outside the palette 0..2$"):
            read_coloring(text.replace("e2 1", bad))


def test_sees_odd_violation_rejects_a_color_outside_the_palette():
    # M_3' with color 12 written as -1: counting -1 as color 12 would pass
    data = mp_coloring.mp_prime_coloring(1)
    g, coloring = data.family.graph, data.coloring
    assert coloring.palette == 13 and colorings.sees_odd_violation(g, coloring) is None
    wrapped = {e: -1 if c == 12 else c for e, c in coloring.colors.items()}
    with pytest.raises(ColoringError, match="outside the palette 0..12"):
        colorings.sees_odd_violation(g, EdgeColoring(wrapped, 13, coloring.mode))
    with pytest.raises(ColoringError, match="outside the palette 0..12"):
        read_coloring(write_coloring(EdgeColoring(wrapped, 13, coloring.mode)))


def test_coloring_file_round_trip():
    result = chromatic_index(families.petersen())
    text = write_coloring(result.coloring)
    back = read_coloring(text)
    assert back.colors == result.coloring.colors
    assert back.palette == result.coloring.palette
    assert back.mode == "proper"


@pytest.mark.parametrize("edit,message", [
    (("palette 3", "palette"), "malformed coloring line 'palette'"),
    (("mode proper", "mode"), "malformed coloring line 'mode'"),
    (("e2 1", "e2"), "malformed coloring line 'e2'"),
    (("e2 1", "e2 1 1"), "malformed coloring line 'e2 1 1'"),
    (("mode proper", "mode bogus"), "unknown coloring mode 'bogus'"),
    (("e1 0", "e1 2\ne1 0"), "edge 'e1' appears twice"),
    (("palette 3", "palette 5\npalette 3"), "header 'palette' appears twice"),
    (("mode proper", "mode proper\nmode sees-odd"), "header 'mode' appears twice"),
    # int() alone read the first three as color 1 and the fourth as palette 4
    (("e1 0", "e1 +1"), "edge 'e1' has malformed color '\\+1'"),
    (("e1 0", "e1 \u0661"), "edge 'e1' has malformed color '\u0661'"),
    (("e1 0", "e1 0_1"), "edge 'e1' has malformed color '0_1'"),
    (("palette 3", "palette +4"), "malformed palette '\\+4'"),
    (("e1 0", "e1 x"), "edge 'e1' has malformed color 'x'"),
    (("palette 3", "palette four"), "malformed palette 'four'"),
    (("e2 1", "e2 -"), "edge 'e2' has malformed color '-'"),
])
def test_malformed_coloring_files_are_rejected(edit, message):
    text = "circflow-coloring v1\npalette 3\nmode proper\ne1 0\ne2 1\n"
    assert read_coloring(text).colors == {"e1": 0, "e2": 1}
    assert read_coloring(text.replace("mode proper", "mode sees-odd")).mode == "sees-odd"
    with pytest.raises(ColoringError, match=f"^{message}$"):
        read_coloring(text.replace(*edit))


def _same_cover(h):
    """The matching cover and its oracle on h: the result or None, the
    coloring in its dict order, and the node count."""
    old, new = colorings._Deadline(None), colorings._Deadline(None)
    expected = matching_cover_oracle(h, old)
    found = colorings._matching_cover(h, new)
    assert (found is None) == (expected is None)
    if found is not None:
        assert list(found.items()) == list(expected.items())
    assert new.nodes == old.nodes
    return found


@given(cubic_with_matching(), st.sampled_from([1, 2, 3]))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_matching_cover_agrees_with_its_oracle(case, t):
    g, m = case
    _same_cover(add_matching_copies(g, m, 2 * t - 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matching_cover_agrees_with_its_oracle_on_flowers(n):
    g = families.flower_snark(n).graph
    found = [_same_cover(add_matching_copies(g, sorted(pm), 1)) for pm in perfect_matchings(g)]
    assert sum(f is None for f in found) == (6 if n == 1 else 0)


def _petersen_plus(k):
    p = families.petersen()
    return add_matching_copies(p, sorted(perfect_matchings(p)[0]), k)


def _j5_plus_m():
    j5 = families.flower_snark(2).graph
    return add_matching_copies(j5, sorted(perfect_matchings(j5)[0]), 1)


@pytest.mark.parametrize("make", [
    families.petersen, lambda: families.flower_snark(2).graph, _j5_plus_m,
    lambda: _petersen_plus(2)], ids=["Petersen", "J5", "J5+M", "Petersen+2M"])
def test_the_cover_never_enumerates_with_two_colors_left(monkeypatch, make):
    # every vertex of a state with c colors left has demand c, so the
    # demand at vertex 0 tells the colors left of each enumeration
    h = make()
    demands, closed = [], []
    two_factors = colorings._two_factors

    def counting(inc, covered, poll=None, live=None):
        demands.append(sum(1 if live is None else live[e] for e, _ in inc[0]))
        return _matchings_of(inc, covered, poll, live)

    def counted_closed_form(*args):
        closed.append(args)
        return two_factors(*args)

    monkeypatch.setattr(colorings, "_matchings_of", counting)
    monkeypatch.setattr(colorings, "_two_factors", counted_closed_form)
    _same_cover(h)
    assert demands and closed  # the cover enumerated, and reached two colors
    assert 2 not in demands


@st.composite
def two_regular_demand(draw):
    """A 2-regular multigraph as a list of (u, v) edges on vertices 0..n-1:
    disjoint cycles of the drawn lengths, a 2-cycle being a doubled edge,
    with the vertices and the edge order shuffled."""
    lengths = draw(st.lists(st.sampled_from([2, 2, 3, 4, 4, 5, 6, 8]), min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = sum(lengths)
    order = list(range(n))
    rng.shuffle(order)
    edges, i = [], 0
    for length in lengths:
        cycle = order[i:i + length]
        i += length
        edges += [(cycle[j], cycle[(j + 1) % length]) for j in range(length)]
    rng.shuffle(edges)
    return n, edges, lengths, rng


def _enumerated_two(n, ends, need, pivot):
    """The two factors the enumeration finds through ``pivot`` and then
    through the lowest edge still in demand, or None."""
    need = list(need)
    factors = []
    for own in (pivot, None):
        inc = [[] for _ in range(n)]
        for s, (a, b) in enumerate(ends):
            if need[s]:
                inc[a].append((s, b))
                inc[b].append((s, a))
        own = next(s for s, k in enumerate(need) if k) if own is None else own
        a, b = ends[own]
        pm = next(_matchings_of(inc, 1 << a | 1 << b), None)
        if pm is None:
            return None
        pm.append(own)
        for s in pm:
            need[s] -= 1
        factors.append(pm)
    return factors


@given(two_regular_demand())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_two_factors_equal_the_enumeration(case):
    n, edges, lengths, rng = case
    classes = Counter((min(u, v), max(u, v)) for u, v in edges)
    ends, need = list(classes), list(classes.values())
    at = [[] for _ in range(n)]
    for s, (a, b) in enumerate(ends):
        at[a].append((s, b))
        at[b].append((s, a))
    pivot = rng.randrange(len(ends))
    expected = _enumerated_two(n, ends, need, pivot)
    assert colorings._two_factors(at, ends, need, pivot) == expected
    assert (expected is None) == any(length % 2 for length in lengths)


@given(two_regular_demand())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_the_cover_of_a_two_regular_graph_agrees_with_its_oracle(case):
    # the root has two colors left: the closed form's factors, their order
    # and the two nodes it counts for the recursion
    n, edges, _, _ = case
    h = Multigraph([f"v{i}" for i in range(n)],
                   [(f"e{k}", f"v{u}", f"v{v}") for k, (u, v) in enumerate(edges)])
    _same_cover(h)


def test_the_cover_refutes_a_vertex_without_demand_at_two_colors():
    # not regular: a and b have a double edge, c and d nothing
    g = Multigraph(["a", "b", "c", "d"], [("e1", "a", "b"), ("e2", "a", "b")])
    assert colorings._matching_cover(g, colorings._Deadline(None)) is None


PINNED_CLASS = [
    ("Petersen", lambda: (families.petersen(), sorted(perfect_matchings(families.petersen())[0])),
     [1, 2, 3], "a5f6ca46cd5273a99c4e70bf90dbda7857b6039b52bdca1fae0cd5f8dc4af6bb"),
    ("J5", lambda: (families.flower_snark(2).graph,
                    [f"ab{i}" for i in range(5)] + [f"dc{i}" for i in range(5)]),
     [1, 2], "7321c6b588561be22f1919c2679f0f10d1bcb3413125e79acef073227765ee38"),
    ("G1", lambda: (lambda c: (c.chain.graph, sorted(c.matching)))(blanusa.build_chain(1)),
     [1], "98b69fecce08592047527496153fd74055bf56c6cc479d0d0f33bafe35e69b83"),
]


@pytest.mark.parametrize("name,make,ts,sha", PINNED_CLASS, ids=[c[0] for c in PINNED_CLASS])
def test_class_property_certificates_are_pinned(name, make, ts, sha):
    g, m = make()
    cert = class_property(g, m, 2, ts)
    assert cert.certificate_sha256() == sha
    assert reverify(cert, g)


def _outcome(check, g, coloring):
    try:
        return check(g, coloring)
    except ColoringError as exc:
        return str(exc)


@given(cubic_with_matching(), st.sampled_from([0, 1, 2]),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(-1, 9)), max_size=3))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_coloring_checks_agree_with_their_oracles(case, k, recolor):
    """Proper colorings of g + kM (or a round-robin one where none exists),
    with up to three edges recolored: clashes, even counts, colors outside
    the palette and, for is_proper, colors beyond the mask width."""
    g, m = case
    h = add_matching_copies(g, m, k)
    palette = 3 + k
    colors = colorings._matching_cover(h, colorings._Deadline(None)) \
        or {e: i % palette for i, e in enumerate(h.edge_ids)}
    ids = list(colors)
    for i, c in recolor:
        colors[ids[i % len(ids)]] = c if c < 9 else 10 ** 6
    coloring = EdgeColoring(colors, palette)
    assert _outcome(is_proper, h, coloring) == _outcome(is_proper_oracle, h, coloring)
    assert _outcome(colorings.sees_odd_violation, h, coloring) \
        == _outcome(sees_odd_violation_oracle, h, coloring)


@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 12)), max_size=3))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_sees_odd_violation_agrees_with_its_oracle_on_m3_prime(recolor):
    data = mp_coloring.mp_prime_coloring(1)
    g, colors = data.family.graph, dict(data.coloring.colors)
    ids = list(colors)
    for i, c in recolor:
        colors[ids[i % len(ids)]] = c
    coloring = EdgeColoring(colors, data.coloring.palette, data.coloring.mode)
    found = colorings.sees_odd_violation(g, coloring)
    assert found == sees_odd_violation_oracle(g, coloring)
    if colors == data.coloring.colors:
        assert found is None


def test_the_cover_still_stops_on_time_in_a_long_enumeration():
    d = _random_cubic_double(2, 100)
    start = time.monotonic()
    result = chromatic_index(d, budget_s=0.5)
    assert (result.method, result.lower, result.upper) == ("budget", 4, 5)
    assert time.monotonic() - start < 1.5
