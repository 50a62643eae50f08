from fractions import Fraction

import pytest
import sympy

from circflow import blanusa, families, flows, valuations
from circflow.multigraph import Multigraph, perfect_matchings
from circflow.valuations import (
    NO_FINITE_R,
    BalancedValuation,
    Bipartition,
    SubsetCapExceeded,
    ValuationError,
    asymptotic_bound,
    bipartition_to_flow_bound,
    check_balanced,
    flow_to_bipartition,
    matched_bipartition_inequality_check,
    valuation_from_bipartition,
)


def k33():
    return Multigraph([f"a{i}" for i in range(3)] + [f"b{i}" for i in range(3)],
                      [(f"e{i}{j}", f"a{i}", f"b{j}") for i in range(3) for j in range(3)])


def test_flow_to_bipartition_k4():
    k4 = families.complete_graph(4)
    result = flows.circular_flow_number(k4)
    bip = flow_to_bipartition(k4, result.flow)
    assert len(bip.black) == 2 and len(bip.white) == 2


def test_flow_to_bipartition_reversal_swaps_colors():
    k4 = families.complete_graph(4)
    flow = flows.circular_flow_number(k4).flow
    bip = flow_to_bipartition(k4, flow)
    rev = flows.RationalFlow(flow.orientation.reversed(), flow.values, flow.r)
    assert flow_to_bipartition(k4, rev) == bip.swapped()


def test_flower_bipartition_paired_by_matching():
    data = flows.build_flower_flow(2)
    bip = flow_to_bipartition(data.graph, data.flow)
    for eid in data.matching:
        e = data.graph.edge(eid)
        assert bip.color(e.u) != bip.color(e.v)


def test_flow_to_bipartition_rejects_noncubic():
    k6 = families.complete_graph(6)
    result = flows.circular_flow_number(k6)
    with pytest.raises(ValuationError):
        flow_to_bipartition(k6, result.flow)


def test_check_balanced_bipartite_cubic():
    g = k33()
    flow = flows.bipartite_regular_flow(g, 1)
    bip = flow_to_bipartition(g, flow)
    omega = valuation_from_bipartition(g, bip, Fraction(3))
    assert check_balanced(g, omega).verdict == "verified"


def test_check_balanced_petersen_five_thirds():
    p = families.petersen()
    flow = flows.circular_flow_number(p).flow
    bip = flow_to_bipartition(p, flow)
    omega = valuation_from_bipartition(p, bip, Fraction(5))
    assert omega.unit == Fraction(5, 3)
    assert check_balanced(p, omega).verdict == "verified"


def test_check_balanced_finds_minimal_violation():
    p = families.petersen()
    omega = BalancedValuation(Fraction(5), {v: 1 for v in p.vertices})
    cert = check_balanced(p, omega)
    assert cert.verdict == "refuted"
    # all-positive weights break at X = V first (weights cannot sum to zero),
    # reported with the full vertex set
    assert set(cert.witness["violating_subset"]) == set(p.vertices)


def test_check_balanced_minimal_proper_violation():
    # +-5 on a bipartition: single vertices already violate |omega| <= 3
    g = k33()
    omega = BalancedValuation(Fraction(5, 2),
                              {v: (1 if v.startswith("a") else -1) for v in g.vertices})
    assert omega.unit == Fraction(5)
    cert = check_balanced(g, omega)
    assert cert.verdict == "refuted"
    assert len(cert.witness["violating_subset"]) == 1


def test_check_balanced_cap():
    chain = blanusa.build_chain(2)
    omega = BalancedValuation(Fraction(5), {v: 1 for v in chain.chain.graph.vertices})
    with pytest.raises(SubsetCapExceeded):
        check_balanced(chain.chain.graph, omega)


def test_bipartition_to_flow_bound_k33():
    g = k33()
    bip = Bipartition(frozenset(f"a{i}" for i in range(3)),
                      frozenset(f"b{i}" for i in range(3)))
    assert bipartition_to_flow_bound(g, bip) == Fraction(3)


def test_bipartition_to_flow_bound_petersen():
    p = families.petersen()
    flow = flows.circular_flow_number(p).flow
    bip = flow_to_bipartition(p, flow)
    assert bipartition_to_flow_bound(p, bip) == Fraction(5)


def test_bipartition_to_flow_bound_upper_bounds_phi_c():
    # the bound from any single bipartition is an upper-bound witness
    for make in (k33, families.petersen):
        g = make()
        phi = flows.circular_flow_number(g).value
        flow = flows.circular_flow_number(g).flow
        bip = flow_to_bipartition(g, flow)
        assert phi <= bipartition_to_flow_bound(g, bip)


def test_bipartition_to_flow_bound_sentinel():
    # unbalanced halves admit no finite bound
    p = families.petersen()
    verts = list(p.vertices)
    bip = Bipartition(frozenset(verts[:4]), frozenset(verts[4:]))
    assert bipartition_to_flow_bound(p, bip) is NO_FINITE_R


def test_asymptotic_bound_examples():
    assert asymptotic_bound(Fraction(9, 2), 2) == 2 + Fraction(5, 7)
    # t = 1 collapses the formula to r itself
    assert asymptotic_bound(Fraction(9, 2), 1) == Fraction(9, 2)
    with pytest.raises(ValuationError):
        asymptotic_bound(Fraction(4), 1)
    with pytest.raises(ValuationError):
        asymptotic_bound(Fraction(5), 2)


def test_asymptotic_bound_against_sympy():
    r, t = sympy.symbols("r t", positive=True)
    expr = 2 + 2 * (r - 2) / (r + (2 * t - 3) * (r - 2))
    for tv in (1, 2, 3):
        for rv in (Fraction(9, 2), Fraction(13, 3), Fraction(17, 4)):
            want = expr.subs({r: sympy.Rational(rv.numerator, rv.denominator), t: tv})
            got = asymptotic_bound(rv, tv)
            assert sympy.Rational(got.numerator, got.denominator) == sympy.nsimplify(want)


def test_asymptotic_bound_limit_identity():
    r, t = sympy.symbols("r t", positive=True)
    expr = 2 + 2 * (r - 2) / (r + (2 * t - 3) * (r - 2))
    for tv in (1, 2, 3, 5):
        limit = sympy.limit(expr.subs(t, tv), r, 4, "+")
        assert limit == 2 + sympy.Rational(2, 2 * tv - 1)


def test_asymptotic_bound_decreasing_along_the_flow_sequence():
    # r_n = 4 + 1/n decreases to 4, and the bound decreases with it
    for t in (1, 2, 3):
        values = [asymptotic_bound(Fraction(4 * n + 1, n), t) for n in (2, 3, 4, 5)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 2 + Fraction(2, 2 * t - 1) for v in values)


@pytest.mark.parametrize("n,t", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_matched_inequality_flower(n, t):
    data = flows.build_flower_flow(n)
    cert = matched_bipartition_inequality_check(data.graph, data.flow,
                                                sorted(data.matching), t)
    assert cert.verdict == "verified"
    from circflow.certificates import unrat
    from circflow.valuations import bound_formula

    assert unrat(cert.parameters["bound"]) == bound_formula(data.flow.r, t)


def test_reverify_rechecks_refuted_inequality_certificates():
    import copy

    from circflow.certificates import make_certificate, reverify
    from circflow.multigraph import add_matching_copies

    data = flows.build_flower_flow(1)
    m = sorted(data.matching)
    h = add_matching_copies(data.graph, m, 2)
    honest = matched_bipartition_inequality_check(data.graph, data.flow, m, 2)
    assert reverify(honest, h)
    black = sorted(flow_to_bipartition(data.graph, data.flow).black)

    def refuted(witness, r=None):
        params = {**honest.parameters, "r": r or honest.parameters["r"]}
        return make_certificate("inequality-check", h, params, witness, "refuted")

    one_vertex = {"violating_subset": [black[0]], "black": black}
    # at r = 5 a single vertex has |cut_H| = 5 >= 11/3 and |cut ∩ M| = 1 = |b - w|
    assert not reverify(refuted(one_vertex), h)
    # at r = 9/4 the same subset violates 5 >= (9 + 2) * 1
    assert reverify(refuted(one_vertex, r="9/4"), h)
    assert not reverify(refuted({"violating_subset": [black[0]]}, r="9/4"), h)

    flow = honest.witness["flow"]
    assert not reverify(refuted({"witness_failure": {}, "flow": flow}), h)
    broken = copy.deepcopy(flow)
    broken["edges"][m[0]]["value"] = "7/1"
    assert reverify(refuted({"witness_failure": {}, "flow": broken}), h)


@pytest.mark.parametrize("n,t", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_matched_inequality_blanusa(n, t):
    data = blanusa.build_chain(n)
    cert = matched_bipartition_inequality_check(data.chain.graph, data.flow,
                                                sorted(data.matching), t)
    assert cert.verdict == "verified"
    # n = 2 is beyond the enumeration cap: the flow witness carries the claim
    assert cert.witness["enumerated"] == (n == 1)


def test_matched_inequality_rejects_bad_pairing():
    g = k33()
    # build a cubic graph flow outside (4,5): rejected before pairing checks
    flow = flows.bipartite_regular_flow(g, 1)
    with pytest.raises(ValuationError):
        matched_bipartition_inequality_check(g, flow, ["e00", "e11", "e22"], 2)


def test_matched_inequality_rejects_nonpairing_matching():
    data = flows.build_flower_flow(1)
    bip = flow_to_bipartition(data.graph, data.flow)
    # find a perfect matching with a same-color edge
    for pm in perfect_matchings(data.graph):
        if any(bip.color(data.graph.edge(e).u) == bip.color(data.graph.edge(e).v)
               for e in pm):
            with pytest.raises(ValuationError, match="pair black with white"):
                matched_bipartition_inequality_check(data.graph, data.flow, sorted(pm), 2)
            return
    pytest.skip("no non-pairing matching found")


def test_matched_flow_witness_flower():
    data = flows.build_flower_flow(2)
    witness = flows.matched_flow_witness(data.graph, data.flow, sorted(data.matching), 2)
    h = __import__("circflow.multigraph", fromlist=["add_matching_copies"]).add_matching_copies(
        data.graph, sorted(data.matching), 2)
    assert witness.r == 2 + Fraction(5, 7)
    assert flows.verify_flow(h, witness).verdict == "verified"


def test_round_trip_flows_to_balanced_valuations():
    # forward direction of the correspondence, exact, on the cubic corpus
    corpus = []
    for n in (1, 2):
        data = flows.build_flower_flow(n)
        corpus.append((data.graph, data.flow))
    chain = blanusa.build_chain(1)
    corpus.append((chain.chain.graph, chain.flow))
    corpus.append((k33(), flows.bipartite_regular_flow(k33(), 1)))
    p = families.petersen()
    corpus.append((p, flows.circular_flow_number(p).flow))
    k4 = families.complete_graph(4)
    corpus.append((k4, flows.circular_flow_number(k4).flow))
    for g, flow in corpus:
        if g.num_vertices() > valuations.SUBSET_ENUMERATION_CAP:
            continue
        bip = flow_to_bipartition(g, flow)
        omega = valuation_from_bipartition(g, bip, flow.r)
        assert check_balanced(g, omega).verdict == "verified"
