import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from circflow import blanusa, families, flows
from circflow.certificates import reverify
from circflow.multigraph import Multigraph, add_matching_copies, perfect_matchings
from circflow.valuations import (
    NO_FINITE_R,
    BalancedValuation,
    Bipartition,
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
    # the a side has the largest excess, 3 * 5 - 9 = 6; a single vertex has 2
    assert cert.witness["violating_subset"] == ["a0", "a1", "a2"]
    assert reverify(cert, g)


def test_check_balanced_blanusa_g2_at_its_least_value():
    # 34 vertices: 13/3 is the least r balancing G2's flow bipartition
    chain = blanusa.build_chain(2)
    g = chain.chain.graph
    bip = flow_to_bipartition(g, chain.flow)
    cert = check_balanced(g, valuation_from_bipartition(g, bip, Fraction(13, 3)))
    assert cert.verdict == "verified"
    assert cert.witness == {"subsets_checked": 2 ** 34 - 1}
    refuted = check_balanced(g, valuation_from_bipartition(g, bip, Fraction(43, 10)))
    assert refuted.verdict == "refuted"
    assert reverify(refuted, g)


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


def test_bipartition_to_flow_bound_beyond_subset_enumeration():
    # J7 and G2 have 28 and 34 vertices; their flow value 13/3 is the least
    # balancing one
    j7, g2 = flows.build_flower_flow(3), blanusa.build_chain(2)
    for g, flow in ((j7.graph, j7.flow), (g2.chain.graph, g2.flow)):
        assert flow.r == Fraction(13, 3)
        assert bipartition_to_flow_bound(g, flow_to_bipartition(g, flow)) == Fraction(13, 3)


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


def test_reverify_rechecks_verified_inequality_certificates():
    from circflow.certificates import make_certificate

    data = flows.build_flower_flow(1)
    m = sorted(data.matching)
    h = add_matching_copies(data.graph, m, 2)
    honest = matched_bipartition_inequality_check(data.graph, data.flow, m, 2)
    assert honest.verdict == "verified" and reverify(honest, h)

    def forged(witness=None, **params):
        return make_certificate("inequality-check", h, {**honest.parameters, **params},
                                {**honest.witness, **(witness or {})}, "verified")

    # at r = 9/4 one vertex has |cut_H| = 5 < (9 + 2) * 1, although the flow
    # and the recorded bound are unchanged
    assert not reverify(forged(r="9/4"), h)
    assert not reverify(forged(bound="3/1"), h)
    black = honest.witness["black"]
    assert not reverify(forged({"black": black[1:]}), h)
    # swapping the colors of one M edge keeps M pairing black with white, but
    # then Y = b0..d2 has |cut_H(Y)| < (5/3 + 2) * |b_Y - w_Y|
    e = h.edge("ab1")
    assert not reverify(forged({"black": sorted(set(black) ^ {e.u, e.v})}), h)


@pytest.mark.parametrize("n,t", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_matched_inequality_blanusa(n, t):
    data = blanusa.build_chain(n)
    cert = matched_bipartition_inequality_check(data.chain.graph, data.flow,
                                                sorted(data.matching), t)
    assert cert.verdict == "verified"
    assert cert.witness["black"] == sorted(flow_to_bipartition(data.chain.graph, data.flow).black)
    h = add_matching_copies(data.chain.graph, sorted(data.matching), 2 * t - 2)
    assert reverify(cert, h)


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
    for n in (1, 2, 3):
        data = flows.build_flower_flow(n)
        corpus.append((data.graph, data.flow))
    for n in (1, 2):
        chain = blanusa.build_chain(n)
        corpus.append((chain.chain.graph, chain.flow))
    corpus.append((k33(), flows.bipartite_regular_flow(k33(), 1)))
    p = families.petersen()
    corpus.append((p, flows.circular_flow_number(p).flow))
    k4 = families.complete_graph(4)
    corpus.append((k4, flows.circular_flow_number(k4).flow))
    for g, flow in corpus:
        bip = flow_to_bipartition(g, flow)
        omega = valuation_from_bipartition(g, bip, flow.r)
        assert check_balanced(g, omega).verdict == "verified"


def _dfs_orientation(g, rng):
    """Tree edges away from the root, every other edge back up: strongly
    connected on each bridgeless component."""
    dirs, seen = {}, set()

    def visit(v):
        seen.add(v)
        inc = list(g.incident_edges(v))
        rng.shuffle(inc)
        for eid in inc:
            if eid not in dirs:
                w = g.edge(eid).other(v)
                dirs[eid] = (v, w)
                if w not in seen:
                    visit(w)

    for v in g.vertices:
        if v not in seen:
            visit(v)
    return flows.Orientation(dirs)


@st.composite
def cubic_with_halves(draw):
    """A random loopless cubic multigraph on 4-10 vertices, a random split
    into equal black and white halves, a random DFS orientation and a
    random rational r > 2."""
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
    black = frozenset(rng.sample(list(g.vertices), n // 2))
    r = 2 + Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 8)))
    return g, Bipartition(black, frozenset(g.vertices) - black), _dfs_orientation(g, rng), r


def _proper_subsets(vertices):
    return itertools.chain.from_iterable(itertools.combinations(vertices, size)
                                         for size in range(1, len(vertices)))


def _cut_size(g, x, eids=None):
    return sum((e.u in x) != (e.v in x) for e in g.edges() if eids is None or e.eid in eids)


@given(cubic_with_halves(), st.sampled_from([1, 2, 3]))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_valuations_agree_with_subset_enumeration(case, t):
    g, bip, orientation, r = case
    k = {v: (1 if v in bip.black else -1) for v in g.vertices}
    ratios = {}
    for x in map(frozenset, _proper_subsets(g.vertices)):
        diff = abs(sum(k[v] for v in x))
        if diff:
            ratios[x] = Fraction(_cut_size(g, x), diff)

    omega = BalancedValuation(r, k)
    balanced = all(q >= omega.unit for q in ratios.values())
    cert = check_balanced(g, omega)
    assert cert.verdict == ("verified" if balanced else "refuted")
    assert reverify(cert, g)
    if balanced:
        assert cert.witness == {"subsets_checked": 2 ** g.num_vertices() - 1}

    least = min(ratios.values())
    assert bipartition_to_flow_bound(g, bip) == (2 * least / (least - 1) if least > 1 else NO_FINITE_R)

    # the matched inequality needs a nowhere-zero flow above 4 and a
    # perfect matching pairing its black and white vertices; such a flow
    # makes both inequalities hold, which the oracle re-checks on H
    feasible, flow = flows.circulation_feasible(g, orientation, r + 2)
    if not feasible:
        return
    black = flow_to_bipartition(g, flow).black
    pairing = [pm for pm in perfect_matchings(g)
               if all((g.edge(eid).u in black) != (g.edge(eid).v in black) for eid in pm)]
    if not pairing:
        return
    m = sorted(pairing[0])
    h = add_matching_copies(g, m, 2 * t - 2)
    unit = flow.r / (flow.r - 2) + 2 * t - 2
    holds = True
    for y in map(frozenset, _proper_subsets(h.vertices)):
        diff = abs(2 * len(y & black) - len(y))
        holds &= _cut_size(h, y, set(m)) >= diff and _cut_size(h, y) >= unit * diff
    cert = matched_bipartition_inequality_check(g, flow, m, t)
    assert cert.verdict == ("verified" if holds else "refuted")
    assert reverify(cert, h)
