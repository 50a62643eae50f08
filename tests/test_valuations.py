import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from circflow import blanusa, families, flows
from circflow.certificates import make_certificate, rat, reverify
from circflow.multigraph import Multigraph, add_matching_copies, perfect_matchings
from circflow.valuations import (
    NO_FINITE_R,
    BalancedValuation,
    Bipartition,
    ValuationError,
    asymptotic_bound,
    bipartition_to_flow_bound,
    bound_formula,
    check_balanced,
    flow_to_bipartition,
    matched_bipartition_inequality_check,
    valuation_from_bipartition,
)

from _oracles import (
    bound_formula_oracle,
    matched_flow_witness_oracle,
    min_ratio_oracle,
    phi_c_valuation_oracle,
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
    rev = flows.RationalFlow({eid: (h, t) for eid, (t, h) in flow.orientation.items()},
                             flow.values, flow.r)
    assert flow_to_bipartition(k4, rev) == Bipartition(bip.white, bip.black)


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


K4_K = {"v1": 1, "v2": 1, "v3": -1, "v4": -1}


@pytest.mark.parametrize("r", [Fraction(1), Fraction(3, 2), Fraction(2)])
def test_balanced_valuation_needs_r_above_two(r):
    k4 = families.complete_graph(4)
    with pytest.raises(ValuationError):
        check_balanced(k4, BalancedValuation(r, K4_K))


@pytest.mark.parametrize("r, witness, verdict", [
    (Fraction(1), {"subsets_checked": 15}, "verified"),
    (Fraction(3, 2), {"violating_subset": ["v3", "v4"]}, "refuted"),
    (Fraction(2), {"subsets_checked": 15}, "verified"),
])
def test_reverify_rejects_balanced_certificate_at_r_two_or_less(r, witness, verdict):
    k4 = families.complete_graph(4)
    cert = make_certificate("balanced", k4, {"r": rat(r), "k": K4_K}, witness, verdict)
    assert not reverify(cert, k4)


@pytest.mark.parametrize("subset", [[], ["v1", "nowhere"], ["v1", "v1", "v1", "v1"], ["v1"]])
def test_reverify_rejects_forged_violating_subset(subset):
    # at r = 3 the weights are +-3 and X = {v1, v2} breaks 6 <= |cut(X)| = 4;
    # an empty X, an unknown vertex, a repeated one and a set that does not
    # break the inequality are forgeries
    k4 = families.complete_graph(4)
    params = {"r": "3/1", "k": K4_K}
    cert = check_balanced(k4, BalancedValuation(Fraction(3), K4_K))
    assert cert.witness == {"violating_subset": ["v1", "v2"]} and reverify(cert, k4)
    forged = make_certificate("balanced", k4, params, {"violating_subset": subset}, "refuted")
    assert not reverify(forged, k4)


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


BOUND_GRID = [4 + Fraction(1, n) for n in range(1, 9)] + [Fraction(5, 2), Fraction(7, 3), Fraction(3)]


@pytest.mark.parametrize("r", BOUND_GRID, ids=str)
def test_bound_formula_matches_the_fraction_oracle_on_the_grid(r):
    for t in range(1, 6):
        got = bound_formula(r, t)
        assert type(got) is Fraction and got == bound_formula_oracle(r, t)
        if r.denominator == 1:  # an int r reads as the same Fraction
            assert bound_formula(int(r), t) == got


@settings(max_examples=300, deadline=None)
@given(st.integers(-40, 200), st.integers(1, 60), st.integers(-2, 40))
@example(2, 1, 1)
@example(4, 2, 3)
@example(3, 2, 2)
@example(9, 2, 0)
def test_bound_formula_matches_the_fraction_oracle(num, den, t):
    r = Fraction(num, den)
    try:
        want = bound_formula_oracle(r, t)
    except ValuationError as exc:
        with pytest.raises(ValuationError, match=f"^{exc}$"):
            bound_formula(r, t)
    else:
        got = bound_formula(r, t)
        assert type(got) is Fraction and got == want


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
    # a failing flow is no refutation of the inequality: only a violating
    # subset is, and this certificate names none
    assert not reverify(refuted({"witness_failure": {}, "flow": broken}), h)


def test_a_failing_matched_flow_witness_is_an_internal_error(monkeypatch):
    import dataclasses

    data = flows.build_flower_flow(1)
    m = sorted(data.matching)
    witness = flows._matched_image

    def broken_witness(g, flow, matching, copies, t):
        good = witness(g, flow, matching, copies, t)
        return dataclasses.replace(good, values={**good.values, m[0]: Fraction(7)})

    monkeypatch.setattr(flows, "_matched_image", broken_witness)
    with pytest.raises(ValuationError, match="internal error"):
        matched_bipartition_inequality_check(data.graph, data.flow, m, 2)


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


def test_reverify_needs_a_nowhere_zero_witness_on_every_edge():
    """An integer 4-flow with one zero edge on the honest orientation has the
    +-1 degree pattern and passes ``verify_flow`` in its own mode, but it
    proves no inequality: only the mode check rejects it."""
    data = flows.build_flower_flow(1)
    m = sorted(data.matching)
    h = add_matching_copies(data.graph, m, 2)
    honest = matched_bipartition_inequality_check(data.graph, data.flow, m, 2)
    edges = {eid: {**rec, "value": "1/1"} for eid, rec in honest.witness["flow"]["edges"].items()}
    for eid in m:  # copies white -> black, white -> black, black -> white
        values = ("0/1", "1/1", "1/1") if eid == m[0] else ("1/1", "1/1", "2/1")
        for copy, value in zip((eid, f"{eid}@c1", f"{eid}@c2"), values):
            edges[copy]["value"] = value
    flow = {**honest.witness["flow"], "mode": flows.INTEGER_ONE_ZERO, "zero_edge": m[0],
            "edges": edges}
    assert flows.verify_flow(h, flows.flow_from_witness(h, flow)).verdict == "verified"
    forged = make_certificate("inequality-check", h, honest.parameters,
                              {**honest.witness, "flow": flow}, "verified")
    assert not reverify(forged, h)
    # a witness that misses an edge of H is no flow on H
    short = {**honest.witness["flow"], "edges": dict(list(honest.witness["flow"]["edges"].items())[1:])}
    assert not reverify(make_certificate("inequality-check", h, honest.parameters,
                                         {**honest.witness, "flow": short}, "verified"), h)


def test_reverify_of_a_verified_inequality_runs_no_max_flow(monkeypatch):
    from circflow import valuations

    data = blanusa.build_chain(2)
    m = sorted(data.matching)
    cert = matched_bipartition_inequality_check(data.chain.graph, data.flow, m, 3)

    def no_max_flow(n, arcs):
        raise AssertionError("reverify ran a max-flow")

    monkeypatch.setattr(valuations, "_max_flow", no_max_flow)
    assert reverify(cert, add_matching_copies(data.chain.graph, m, 4))


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
    return dirs


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


# -- the integer phi_c search and the matched witness against their oracles ---


@st.composite
def phi_graphs(draw):
    """A random loopless multigraph, its vertices listed in a drawn order: a
    Hamiltonian cycle on 4-10 vertices plus a perfect matching (cubic), a
    cycle on 3-5 vertices plus 1-4 chords (bridgeless, any degrees), or 3-8
    random edges on 3-5 vertices (bridged and disconnected ones included)."""
    kind = draw(st.sampled_from(["cubic", "cubic", "chords", "any"]))
    n = draw(st.sampled_from([10, 8, 6, 4]) if kind == "cubic" else st.integers(3, 5))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    pairs = [] if kind == "any" else [(i, (i + 1) % n) for i in range(n)]
    if kind == "cubic":
        perm = draw(st.permutations(range(n)))
        pairs += [perm[i:i + 2] for i in range(0, n, 2)]
    else:
        pairs += draw(st.lists(pair, min_size=1 if kind == "chords" else 3,
                               max_size=4 if kind == "chords" else 8))
    edges = [(f"e{i}", f"v{a}", f"v{b}") for i, (a, b) in enumerate(pairs)]
    return Multigraph(draw(st.permutations([f"v{v}" for v in range(n)])), edges)


def _phi_outcome(search, g):
    try:
        value, k = search(g)
    except ValuationError as exc:
        return str(exc)
    return value, list(k.items())


def _plus_matching(g, matching, k):
    """g + kM: the weights of a degree 3 + k vertex run over the odd |k_v| < 3 + k."""
    return add_matching_copies(g, sorted(matching), k)


_PETERSEN_M = perfect_matchings(families.petersen())[0]
_J3 = flows.build_flower_flow(1)  # its matching, spokes and dc edges, avoids the triangle a0 a1 a2


@given(phi_graphs())
@example(families.petersen())
@example(families.flower_snark(1).graph)
@example(_plus_matching(families.petersen(), _PETERSEN_M, 2))
@example(_plus_matching(families.petersen(), _PETERSEN_M, 4))
@example(_plus_matching(_J3.graph, _J3.matching, 2))
@settings(max_examples=400, derandomize=True, deadline=None)
def test_phi_c_search_matches_the_fraction_oracle(g):
    from circflow.valuations import _phi_c_valuation

    assert _phi_outcome(_phi_c_valuation, g) == _phi_outcome(phi_c_valuation_oracle, g)


@pytest.mark.parametrize("g, unpooled", [(families.petersen(), 143), (families.flower_snark(1).graph, 554)],
                         ids=["petersen", "J3"])
def test_phi_c_search_reuses_the_sets_its_cuts_find(monkeypatch, g, unpooled):
    """Without the pool of violating sets the search runs 143 max-flows on
    Petersen and 554 on J3; with it, at most a third of that."""
    from circflow import valuations

    calls = Counter()
    max_flow = valuations._max_flow

    def counting(*args):
        calls["max_flow"] += 1
        return max_flow(*args)

    monkeypatch.setattr(valuations, "_max_flow", counting)
    assert valuations._phi_c_valuation(g)[0] == 5
    assert 0 < calls["max_flow"] <= unpooled // 3


@given(phi_graphs(), st.data())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_min_ratio_matches_the_fraction_oracle(g, data):
    from circflow.valuations import _min_ratio

    vs = g.vertices
    head = data.draw(st.lists(st.integers(-4, 4), min_size=len(vs) - 1, max_size=len(vs) - 1))
    k = [*head, -sum(head)]
    if not any(k):
        k[0], k[-1] = 1, -1
    floor = data.draw(st.fractions(0, 5, max_denominator=7))
    p, q = _min_ratio(g.indexed, k, floor.as_integer_ratio())
    assert q > 0 and gcd(p, q) == 1
    assert Fraction(p, q) == min_ratio_oracle(g, dict(zip(vs, k)), floor)


def _matched_inputs(family, n):
    if family == "J":
        data = flows.build_flower_flow(n)
        return data.graph, data.flow, sorted(data.matching)
    data = blanusa.build_chain(n)
    return data.chain.graph, data.flow, sorted(data.matching)


def _closed_form_witness(g, flow, matching, t):
    """The matched witness as stated: each edge of g keeps its orientation and
    carries 1 + (x-1)/(1 + (t-1)(r-2)); the copies e@c1 .. e@c(t-1) run white
    -> black at 1 and e@ct .. e@c(2t-2) black -> white at r'-1."""
    r, r_target = flow.r, bound_formula(flow.r, t)
    assert 1 / (r_target - 2) == 1 / (r - 2) + (t - 1)
    c = 1 / (1 + (t - 1) * (r - 2))
    dirs = dict(flow.orientation)
    values = {eid: 1 + c * (x - 1) for eid, x in flow.values.items()}
    white = flow_to_bipartition(g, flow).white
    for eid in matching:
        e = g.edge(eid)
        forward = (e.u, e.v) if e.u in white else (e.v, e.u)
        for j in range(1, 2 * t - 1):
            copy = f"{eid}@c{j}"
            dirs[copy], values[copy] = (forward, Fraction(1)) if j < t else (forward[::-1], r_target - 1)
    return flows.RationalFlow(dirs, values, r_target)


def _excess(flow):
    out = Counter(tail for tail, _ in flow.orientation.values())
    out.subtract(head for _, head in flow.orientation.values())
    return out


MATCHED_INPUTS = [("J", n) for n in range(1, 9)] + [("G", n) for n in range(1, 7)]
MATCHED_CASES = [(t, reverse) for t in (1, 2, 3, 4) for reverse in (False, True)]


@pytest.mark.parametrize("family,n", MATCHED_INPUTS)
def test_matched_flow_witness_matches_the_flow_found_on_h(family, n):
    """The witness is the closed form exactly, a valid flow on the built H,
    and agrees with the flow the circulation finds on H wherever that flow is
    determined: the same r', the same out - in at every vertex and the same
    copies, oriented alike.  At t = 1 it is the input flow itself."""
    g, flow, m = _matched_inputs(family, n)
    for t, reverse in MATCHED_CASES:
        matching = m[::-1] if reverse else m
        witness = flows.matched_flow_witness(g, flow, matching, t)
        assert witness == _closed_form_witness(g, flow, matching, t)
        h = add_matching_copies(g, matching, 2 * t - 2)
        assert flows.verify_flow(h, witness).verdict == "verified"
        found = matched_flow_witness_oracle(g, flow, matching, t)
        assert witness.r == found.r and _excess(witness) == _excess(found)
        copies = set(h.edge_ids) - set(g.edge_ids)
        assert {c: witness.orientation[c] for c in copies} == {c: found.orientation[c] for c in copies}
    assert flows.matched_flow_witness(g, flow, m, 1) == flow


def test_matched_flow_witness_runs_no_max_flow(monkeypatch):
    from circflow import multigraph, valuations

    inputs = [_matched_inputs(family, n) for family, n in MATCHED_INPUTS]

    def forbidden(*args, **kwargs):
        raise AssertionError("the matched witness ran a max-flow")

    for module in (multigraph, flows, valuations):
        monkeypatch.setattr(module, "_max_flow", forbidden)
    for g, flow, m in inputs:
        for t, reverse in MATCHED_CASES:
            matching = m[::-1] if reverse else m
            assert flows.matched_flow_witness(g, flow, matching, t) == _closed_form_witness(g, flow, matching, t)


def test_matched_flow_witness_rejects_an_invalid_flow():
    import dataclasses

    data = flows.build_flower_flow(2)
    g, flow, m = data.graph, data.flow, sorted(data.matching)
    assert flows.verify_flow(g, data.base_flow).verdict == "verified"
    unbalanced = dict(flow.values)
    unbalanced["aa0"] += Fraction(1, 7)
    missing = "cd0"
    for bad in (dataclasses.replace(flow, values=unbalanced),
                data.base_flow,
                dataclasses.replace(flow, orientation={e: d for e, d in flow.orientation.items() if e != missing},
                                    values={e: x for e, x in flow.values.items() if e != missing})):
        for t in (1, 2):
            with pytest.raises(flows.FlowError):
                flows.matched_flow_witness(g, bad, m, t)
    k5 = families.complete_graph(5)
    with pytest.raises(flows.FlowError, match="cubic graphs only"):
        flows.matched_flow_witness(k5, flows.circular_flow_number(k5).flow, [k5.edge_ids[0]], 2)


def test_matched_flow_witness_names_an_edge_that_does_not_pair_black_with_white():
    data = flows.build_flower_flow(1)
    bip = flow_to_bipartition(data.graph, data.flow)
    same = lambda eid: bip.color(data.graph.edge(eid).u) == bip.color(data.graph.edge(eid).v)
    pm = next(sorted(pm) for pm in perfect_matchings(data.graph) if any(map(same, pm)))
    first = next(eid for eid in pm if same(eid))
    for t in (1, 2, 3):
        with pytest.raises(flows.FlowError, match=f"matching edge '{first}' does not pair black with white"):
            flows.matched_flow_witness(data.graph, data.flow, pm, t)


def test_matched_flow_witness_names_copies_as_add_matching_copies_does():
    """An edge of g named like a copy of a matching edge is skipped by the
    copy numbering of both."""
    data = flows.build_flower_flow(1)
    rename = {"bc0": "ab0@c1"}
    g = data.graph.relabeled({}, rename)
    flow = flows.RationalFlow({rename.get(e, e): d for e, d in data.flow.orientation.items()},
                              {rename.get(e, e): x for e, x in data.flow.values.items()}, data.flow.r)
    m = sorted(data.matching)
    witness = flows.matched_flow_witness(g, flow, m, 2)
    h = add_matching_copies(g, m, 2)
    assert {"ab0@c2", "ab0@c3"} <= set(witness.orientation) and not h.has_edge("ab0@c4")
    assert flows.verify_flow(h, witness).verdict == "verified"


def test_matched_flow_witness_rejects_a_matching_that_is_not_perfect():
    from circflow.multigraph import GraphError

    data = flows.build_flower_flow(2)
    m = sorted(data.matching)
    for short in (m[1:], m[:1], []):
        for t in (1, 2):
            with pytest.raises(flows.FlowError, match="orientation does not cover the graph"):
                flows.matched_flow_witness(data.graph, data.flow, short, t)
    with pytest.raises(GraphError, match="edge set is not a matching of the graph"):
        flows.matched_flow_witness(data.graph, data.flow, ["ab0", "bc0"], 2)
    with pytest.raises(GraphError, match="unknown edge id 'ghost'"):
        flows.matched_flow_witness(data.graph, data.flow, ["ghost"], 2)
    with pytest.raises(GraphError, match="copy count must be nonnegative"):
        flows.matched_flow_witness(data.graph, data.flow, m, 0)


def test_the_matched_check_builds_h_once_and_one_flow_witness(monkeypatch):
    data = flows.build_flower_flow(2)
    calls = Counter()
    build, to_witness, violation = Multigraph.with_edges_added, flows.flow_to_witness, flows.flow_violation

    def counting_build(self, *args, **kwargs):
        calls["H"] += 1
        return build(self, *args, **kwargs)

    def counting_to_witness(flow):
        calls["flow_to_witness"] += 1
        return to_witness(flow)

    def counting_violation(g, flow):
        calls["flow_violation", g.num_edges()] += 1
        return violation(g, flow)

    monkeypatch.setattr(Multigraph, "with_edges_added", counting_build)
    monkeypatch.setattr(flows, "flow_to_witness", counting_to_witness)
    monkeypatch.setattr(flows, "flow_violation", counting_violation)
    cert = matched_bipartition_inequality_check(data.graph, data.flow, sorted(data.matching), 3)
    assert cert.verdict == "verified"
    # the input flow is checked once on g (30 edges) and the witness once on H (30 + 4 * 10)
    assert calls == {"H": 1, "flow_to_witness": 1, ("flow_violation", 30): 1, ("flow_violation", 70): 1}


def test_internal_flow_checks_build_no_certificate(monkeypatch):
    from circflow import certificates, valuations

    def forbidden(*args, **kwargs):
        raise AssertionError("an internal flow check built a certificate")

    for module in (certificates, flows, valuations, blanusa):
        for name in ("make_certificate", "flow_to_witness"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert blanusa.build_chain(2).flow.r == Fraction(13, 3)
    assert flows.build_flower_flow(2).flow.r == Fraction(9, 2)
    assert flows.circular_flow_number(families.petersen()).value == 5
