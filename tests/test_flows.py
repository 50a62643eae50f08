import hashlib
import itertools
import json
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from circflow import blanusa, families, flows, valuations
from circflow.certificates import Certificate, certificate_from_json, rat
from circflow.flows import (
    INTEGER_ONE_ZERO,
    BridgedGraphError,
    FlowError,
    RationalFlow,
    add_circuits,
    bipartite_regular_flow,
    build_flower_flow,
    circular_flow_number,
    circulation_feasible,
    read_flow,
    verify_flow,
    write_flow,
)
from circflow.multigraph import (
    Multigraph,
    SearchBudgetExceeded,
    add_matching_copies,
    bridges,
    perfect_matchings,
)

from _oracles import (
    DirectedCircuit,
    _graph_hash_oracle,
    _jsonable_oracle,
    _rat_oracle,
    add_circuit_flow,
    add_circuits_oracle,
    bipartite_regular_flow_oracle,
    flow_from_witness_oracle,
    flow_to_witness_oracle,
    flow_violation_oracle,
    witness_excess_oracle,
    write_flow_oracle,
)


def cycle_graph(k):
    vs = [f"v{i}" for i in range(k)]
    es = [(f"e{i}", f"v{i}", f"v{(i + 1) % k}") for i in range(k)]
    return Multigraph(vs, es)


def k33():
    return Multigraph([f"a{i}" for i in range(3)] + [f"b{i}" for i in range(3)],
                      [(f"e{i}{j}", f"a{i}", f"b{j}") for i in range(3) for j in range(3)])


def directed_cycle_flow(k, r=Fraction(2)):
    g = cycle_graph(k)
    dirs = {f"e{i}": (f"v{i}", f"v{(i + 1) % k}") for i in range(k)}
    values = {f"e{i}": Fraction(1) for i in range(k)}
    return g, RationalFlow(dirs, values, Fraction(r))


def test_verify_flow_cycle():
    g, flow = directed_cycle_flow(6)
    assert verify_flow(g, flow).verdict == "verified"


def test_verify_flow_rejects_conservation_break():
    g, flow = directed_cycle_flow(4)
    bad = RationalFlow(flow.orientation, {**flow.values, "e0": Fraction(2)}, flow.r)
    cert = verify_flow(g, bad)
    assert cert.verdict == "refuted"
    assert "conservation_at" in cert.witness["violation"]


def test_verify_flow_rejects_out_of_window_values():
    g, flow = directed_cycle_flow(4, r=Fraction(3, 2))
    assert verify_flow(g, flow).verdict == "refuted"  # 1 > r-1


def test_petersen_has_no_4_flow():
    # any claimed 4-flow witness must fail: phi_c(Petersen) = 5
    p = families.petersen()
    result = circular_flow_number(p)
    relabeled = replace(result.flow, r=Fraction(4))
    assert verify_flow(p, relabeled).verdict == "refuted"


def test_unknown_flow_mode_is_an_error():
    g, flow = directed_cycle_flow(4)
    with pytest.raises(FlowError, match="unknown flow mode 'bogus'"):
        RationalFlow(flow.orientation, flow.values, flow.r, "bogus")


def test_coverage_mismatch_is_an_error():
    g, flow = directed_cycle_flow(4)
    h = cycle_graph(5)
    with pytest.raises(FlowError):
        verify_flow(h, flow)


def test_add_circuits_on_a_cycle_and_its_errors():
    g, flow = directed_cycle_flow(5)
    forward = [(f"e{i}", 1) for i in range(5)]
    lifted = add_circuits(flow, [forward], Fraction(1, 2), Fraction(3))
    assert set(lifted.values.values()) == {Fraction(3, 2)} and lifted.r == 3
    assert verify_flow(g, lifted).verdict == "verified"
    against = [(eid, -1) for eid, _ in reversed(forward)]
    assert add_circuits(flow, [against], Fraction(1, 2), Fraction(3)).values == \
        {eid: Fraction(1, 2) for eid in flow.values}
    for circuits, amount, message in [
        ([forward], Fraction(0), "amount must be positive"),
        ([[(eid, 1) for eid, _ in against]], Fraction(1, 2), "does not leave 'v0'"),
        ([against], Fraction(1), "nonpositive value"),
        ([forward[:4]], Fraction(1, 2), "not closed"),
        ([forward + forward], Fraction(1, 2), "repeats an edge"),
        ([[("e0", 2)]], Fraction(1, 2), "sign 2 on edge 'e0' is not"),
    ]:
        with pytest.raises(FlowError, match=message):
            add_circuits(flow, circuits, amount, Fraction(3))
    # a figure eight through v0 follows its signs and closes, but is no circuit
    bowtie = {"a": ("v0", "v1"), "b": ("v1", "v2"), "c": ("v2", "v0"),
              "d": ("v0", "v3"), "e": ("v3", "v4"), "f": ("v4", "v0")}
    eight = RationalFlow(bowtie, dict.fromkeys(bowtie, Fraction(1)), Fraction(3))
    with pytest.raises(FlowError, match="repeats a vertex"):
        add_circuits(eight, [[(eid, 1) for eid in "abcdef"]], Fraction(1, 2), Fraction(3))


def test_add_circuits_on_flower_base():
    # two forward-directed circuits through the zero edge of the J5 base flow
    data = build_flower_flow(2)
    c1 = ("ab0", "bc0", "cd0", "bd1", "ab1", "aa1", "aa2", "aa3", "aa4")
    c2 = ("ab0", "bc0", "dc4", "bd4", "bc4", "dc3", "bd3", "ab3", "aa3", "aa4")
    lifted = add_circuits(data.base_flow, [[(eid, 1) for eid in c] for c in (c1, c2)],
                          Fraction(1, 2), Fraction(9, 2))
    assert verify_flow(data.graph, lifted).verdict == "verified"


def _walk_tails(dirs, walk):
    return [dirs[eid][0] if sign == 1 else dirs[eid][1] for eid, sign in walk]


@st.composite
def signed_circuits(draw):
    """A flow on a union of cycles over a few shared vertices, each edge
    oriented at random, and circuits that walk whole cycles with signs that
    follow those orientations.  ``fault`` names the one defect put into the
    first circuit or the values, or is "none"."""
    vs = [f"v{i}" for i in range(draw(st.integers(3, 6)))]
    dirs, walks = {}, []
    for c in range(draw(st.integers(2, 4))):
        cyc = draw(st.permutations(vs))[:draw(st.integers(2, len(vs)))]
        walk = []
        for i, a in enumerate(cyc):
            b, eid, sign = cyc[(i + 1) % len(cyc)], f"c{c}e{i}", draw(st.sampled_from([1, -1]))
            dirs[eid] = (a, b) if sign == 1 else (b, a)
            walk.append((eid, sign))
        rot = draw(st.integers(0, len(walk) - 1))
        walk = walk[rot:] + walk[:rot]
        if draw(st.booleans()):
            walk = [(eid, -sign) for eid, sign in reversed(walk)]
        walks.append(walk)
    picks = draw(st.lists(st.integers(0, len(walks) - 1), min_size=1, max_size=5))
    circuits = [list(walks[i]) for i in picks]
    amount = Fraction(draw(st.integers(1, 2)), draw(st.integers(1, 4)))
    # each edge starts at what its -1 steps take away plus a slack, which
    # leaves 0 on an edge no circuit raises when the slack is 0
    lowered = Counter(eid for circ in circuits for eid, sign in circ if sign == -1)
    values = {eid: lowered[eid] * amount + Fraction(draw(st.integers(0, 4)), draw(st.integers(1, 3)))
              for eid in dirs}
    fault = draw(st.sampled_from(["vertex", "none", "open", "none", "sign", "none", "edge", "value"]))
    first = circuits[0]
    if fault == "vertex":  # a figure eight through a vertex shared with another cycle
        others = [w for i, w in enumerate(walks)
                  if i != picks[0] and set(_walk_tails(dirs, w)) & set(_walk_tails(dirs, first))]
        if others:
            other = draw(st.sampled_from(others))
            v = sorted(set(_walk_tails(dirs, other)) & set(_walk_tails(dirs, first)))[0]
            i, j = _walk_tails(dirs, first).index(v), _walk_tails(dirs, other).index(v)
            first[:] = first[i:] + first[:i] + other[j:] + other[:j]
        else:
            fault = "edge"
    if fault == "open":
        first.pop(draw(st.integers(0, len(first) - 1)))
    elif fault == "sign":
        i = draw(st.integers(0, len(first) - 1))
        first[i] = (first[i][0], -first[i][1])
    elif fault == "edge":
        first += first
    elif fault == "value":
        eid = draw(st.sampled_from(first))[0]
        net = sum(sign for circ in circuits for e, sign in circ if e == eid)
        values[eid] = -net * amount - draw(st.sampled_from([0, 1]))
    mode = draw(st.sampled_from([flows.NOWHERE_ZERO, INTEGER_ONE_ZERO]))
    zero_edge = first[0][0] if mode == INTEGER_ONE_ZERO else None
    return RationalFlow(dirs, values, Fraction(4), mode, zero_edge), circuits, amount, fault


@given(signed_circuits())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_add_circuits_agrees_with_the_old_circuit_paths(case):
    flow, circuits, amount, fault = case
    r = Fraction(9, 2)
    try:
        expected = add_circuits_oracle(flow, circuits, amount, r)
    except FlowError:
        expected = None
    assert fault == "none" or expected is None
    if expected is None:
        with pytest.raises(FlowError):
            add_circuits(flow, circuits, amount, r)
        return
    got = add_circuits(flow, circuits, amount, r)
    assert list(got.values.items()) == list(expected.values.items())
    assert got.orientation == expected.orientation
    assert (got.r, got.mode, got.zero_edge) == (r, flows.NOWHERE_ZERO, None) == \
        (expected.r, expected.mode, expected.zero_edge)
    if all(sign == 1 for circ in circuits for _, sign in circ):
        forward = flow
        for circ in circuits:
            start = flow.orientation[circ[0][0]][0]
            forward = add_circuit_flow(forward, DirectedCircuit(tuple(e for e, _ in circ), start), amount)
        assert forward.values == got.values


@pytest.mark.parametrize("family, n", [("J", n) for n in range(1, 10)] + [("G", n) for n in range(1, 8)])
def test_flower_and_chain_flows_are_byte_identical_to_the_old_circuit_paths(family, n):
    if family == "J":
        data, amount, r = build_flower_flow(n), Fraction(1, n), Fraction(4 * n + 1, n)
    else:
        data, amount, r = blanusa.build_chain(n), Fraction(1, n + 1), Fraction(4 * n + 5, n + 1)
    expected = add_circuits_oracle(data.base_flow, data.circuits, amount, r)
    assert write_flow(data.flow) == write_flow(expected)
    assert write_flow(add_circuits(data.base_flow, data.circuits, amount, r)) == write_flow(expected)


def test_circulation_feasible_cycle():
    g, flow = directed_cycle_flow(6)
    ok, witness = circulation_feasible(g, flow.orientation, Fraction(2))
    assert ok and all(v == 1 for v in witness.values.values())


def test_circulation_infeasible_at_source_vertex():
    k4 = families.complete_graph(4)
    dirs = {}
    for e in k4.edges():
        if "v1" in e.ends:
            dirs[e.eid] = ("v1", e.other("v1"))  # v1 is a pure source
        else:
            dirs[e.eid] = (e.u, e.v)
    ok, witness = circulation_feasible(k4, dirs, Fraction(10))
    assert not ok
    out = sum(1 for eid in k4.edge_ids if dirs[eid][0] in witness and dirs[eid][1] not in witness)
    inn = sum(1 for eid in k4.edge_ids if dirs[eid][1] in witness and dirs[eid][0] not in witness)
    assert out > 9 * inn


def test_circulation_rejects_small_r():
    g, flow = directed_cycle_flow(3)
    with pytest.raises(FlowError):
        circulation_feasible(g, flow.orientation, Fraction(3, 2))


def test_petersen_best_orientation_feasible_at_5():
    p = families.petersen()
    result = circular_flow_number(p)
    ok, witness = circulation_feasible(p, result.flow.orientation, Fraction(5))
    assert ok
    assert verify_flow(p, witness).verdict == "verified"


# frozen expected values; K_{2t+2} values are 2 + 2/t, Petersen by enumeration,
# and J3 (18 edges) meets the flower bound 4 + 1/n at n = 1
PHI_EXPECTED = [
    ("K4", lambda: families.complete_graph(4), Fraction(4)),
    ("K6", lambda: families.complete_graph(6), Fraction(3)),
    ("K33", k33, Fraction(3)),
    ("Petersen", families.petersen, Fraction(5)),
    ("J3", lambda: families.flower_snark(1).graph, Fraction(5)),
]


@pytest.mark.parametrize("name,make,expected", PHI_EXPECTED)
def test_circular_flow_number_exact(name, make, expected):
    g = make()
    result = circular_flow_number(g)
    assert result.value == expected
    assert result.flow.r == expected
    assert verify_flow(g, result.flow).verdict == "verified"


def test_circular_flow_number_relabel_invariant():
    import random

    g = k33()
    base = circular_flow_number(g).value
    rng = random.Random(11)
    for _ in range(3):
        names = list(g.vertices)
        shuffled = names[:]
        rng.shuffle(shuffled)
        h = g.relabeled(dict(zip(names, shuffled)))
        assert circular_flow_number(h).value == base


def test_circular_flow_number_with_terminal_like_vertex_ids():
    k4 = families.complete_graph(4)
    g = k4.relabeled({k4.vertices[0]: "__source__", k4.vertices[1]: "__sink__"})
    result = circular_flow_number(g)
    assert result.value == 4
    assert verify_flow(g, result.flow).verdict == "verified"


@pytest.mark.parametrize("make", [lambda: families.flower_snark(2).graph,
                                  lambda: blanusa.build_chain(1).chain.graph], ids=["J5", "G1"])
def test_circular_flow_number_of_j5_and_g1(make):
    """phi_c(J5) = 4 + 1/2 (Lukot'ka) and phi_c(G1) = 4 + 1/2 (Goedgebeur,
    Mattiolo and Mazzuoccolo), from the default call, with no budget."""
    g = make()
    result = circular_flow_number(g)
    assert result.value == Fraction(9, 2)
    cert = verify_flow(g, result.flow)
    assert cert.verdict == "verified" and cert.parameters["r"] == "9/2"


def test_circular_flow_number_bridge_error():
    path = Multigraph(["a", "b"], [("e", "a", "b")])
    with pytest.raises(BridgedGraphError):
        circular_flow_number(path)


def test_circular_flow_number_budget_runs_out_on_j7():
    g = families.flower_snark(3).graph  # J7: its search takes over a second
    start = time.monotonic()
    with pytest.raises(SearchBudgetExceeded):
        circular_flow_number(g, budget_s=0.05)
    assert time.monotonic() - start < 1


def test_odd_cut_lower_bound_invariant():
    # phi_c >= 2 + 1/k whenever a (2k+1)-cut exists; check on the corpus
    from circflow.multigraph import edge_cut

    for name, make, expected in PHI_EXPECTED:
        g = make()
        n = g.num_vertices()
        verts = list(g.vertices)
        for mask in range(1, 1 << min(n, 10)):
            side = [verts[i] for i in range(min(n, 10)) if mask & (1 << i)]
            if len(side) in (0, n):
                continue
            size = len(edge_cut(g, side).edges)
            if size % 2:
                k = (size - 1) // 2
                assert expected >= 2 + Fraction(1, k)


def _reversed(dirs):
    return {eid: (h, t) for eid, (t, h) in dirs.items()}


def test_reversed_flow_is_valid():
    g, flow = directed_cycle_flow(6)
    rev = RationalFlow(_reversed(flow.orientation), flow.values, flow.r)
    assert verify_flow(g, rev).verdict == "verified"
    p = families.petersen()
    result = circular_flow_number(p)
    rev = RationalFlow(_reversed(result.flow.orientation), result.flow.values, result.flow.r)
    assert verify_flow(p, rev).verdict == "verified"


def test_monotone_acceptance_in_r():
    data = build_flower_flow(2)
    assert verify_flow(data.graph, data.flow).verdict == "verified"
    bigger = replace(data.flow, r=Fraction(5))
    assert verify_flow(data.graph, bigger).verdict == "verified"


def test_bipartite_regular_flow_k33():
    g = k33()
    flow = bipartite_regular_flow(g, 1)
    assert flow.r == Fraction(3)
    assert verify_flow(g, flow).verdict == "verified"


def test_bipartite_regular_flow_k55():
    g = Multigraph([f"a{i}" for i in range(5)] + [f"b{i}" for i in range(5)],
                   [(f"e{i}{j}", f"a{i}", f"b{j}") for i in range(5) for j in range(5)])
    flow = bipartite_regular_flow(g, 2)
    assert flow.r == Fraction(5, 2)
    assert verify_flow(g, flow).verdict == "verified"


def test_bipartite_regular_flow_rejects_odd_cycle():
    with pytest.raises(FlowError):
        bipartite_regular_flow(cycle_graph(5), 1)
    with pytest.raises(FlowError):
        bipartite_regular_flow(cycle_graph(6), 1)  # 2-regular, not 3-regular


@st.composite
def regular_bipartite(draw):
    """(t, g): g the union of 2t+1 random perfect matchings between two sides
    of 1 to 5 vertices, so parallel edges and several components occur."""
    t, side = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    edges = [(f"e{j}.{i}", f"a{i}", f"b{b}")
             for j in range(2 * t + 1) for i, b in enumerate(draw(st.permutations(range(side))))]
    return t, Multigraph([f"a{i}" for i in range(side)] + [f"b{i}" for i in range(side)], edges)


def out_minus_in(flow):
    excess = Counter()
    for tail, head in flow.orientation.values():
        excess[tail] += 1
        excess[head] -= 1
    return excess


@settings(max_examples=60, deadline=None)
@given(regular_bipartite())
def test_bipartite_regular_flow_matches_the_factorization_oracle(case):
    t, g = case
    a_side, b_side = flows.bipartite_sides(g)
    flow, oracle = bipartite_regular_flow(g, t), bipartite_regular_flow_oracle(g, t)
    for f in (flow, oracle):
        assert f.r == Fraction(2 * t + 1, t)
        assert flows.flow_violation(g, f) is None
        assert out_minus_in(f) == {**{a: 1 for a in a_side}, **{b: -1 for b in b_side}}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_build_flower_flow(n):
    data = build_flower_flow(n)
    assert data.flow.r == Fraction(4 * n + 1, n)
    assert verify_flow(data.graph, data.flow).verdict == "verified"
    assert len(data.circuits) == n
    # matching pairs black with white
    for eid in data.matching:
        e = data.graph.edge(eid)
        assert data.bipartition.color(e.u) != data.bipartition.color(e.v)


def test_flower_flow_zero_edge_arithmetic():
    # every circuit traverses a0b0 forward, so its final value is n * (1/n) = 1
    data = build_flower_flow(2)
    assert data.base_flow.values["ab0"] == 0
    assert data.flow.values["ab0"] == 1
    assert all(("ab0", 1) in circ for circ in data.circuits)


def test_flower_matching_is_the_stated_one():
    data = build_flower_flow(3)
    mod = 7
    expected = {f"ab{i}" for i in range(mod)} | {f"dc{i}" for i in range(mod)}
    assert data.matching == expected


def test_flow_file_round_trip():
    data = build_flower_flow(1)
    text = write_flow(data.flow)
    back = read_flow(text)
    assert back.r == data.flow.r
    assert back.values == data.flow.values
    assert back.orientation == data.flow.orientation
    assert verify_flow(data.graph, back).verdict == "verified"


@pytest.mark.parametrize("line,message", [
    ("aa1 a1 a2 3/", "malformed rational"),
    ("aa1 a1 a2 1_0/3", "malformed rational"),
    ("aa1 a1 a2 \u0663/1", "malformed rational"),
    ("aa1 a1 a2 3/1\u0660", "malformed rational"),
    ("aa1 a1 a2 3/0", "zero denominator"),
    ("r 5/", "malformed rational"),
])
def test_a_flow_file_value_outside_the_rat_grammar_is_refused(line, message):
    # all but the zero denominator once read as 3, 10/3, 3, 3/10 or 5
    text = write_flow(build_flower_flow(1).flow)
    old = "r 5/1" if line.startswith("r ") else "aa1 a1 a2 3/1"
    edited = text.replace(old, line)
    assert edited != text
    with pytest.raises(ValueError, match=message):
        read_flow(edited)


# SHA-256 of write_flow for (flow, base_flow) of build_flower_flow(n)
FLOWER_FLOW_SHA256 = {
    1: ("227e9a0e403dd168418d75fd658221cddd161548f8466cac91b9aa9e86d08dad",
        "270f4ccf7ebf8ef3ffd5d3576114a21a10b5f0e6d1e129ddcc26506930eb6a7f"),
    2: ("5ee747a6b7d6dd1073a3a9b377f692a22f0ac0b792a7f942c2048085b5921429",
        "e77a3307ae7a38300781ff60c5b3512bc744f1d59177b861e9883bcac6236a70"),
    3: ("22fc3a30997c430d11b83b1a9b40a0c39a32c48e5045db2d110372dc640bf904",
        "d9b7201d93cf881b5093151841602ed62dd414059881ec6e6fd0e924e1f84cf1"),
    4: ("230b7d92da868c99131f80fd0313e88f0156867404498af2919a78b3a7a774f6",
        "083e8d2a9251870d232fdc03c4c1c64020738d61840b04d5e86609b7f82db182"),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_flower_flow_files_are_pinned(n):
    data = build_flower_flow(n)
    digests = tuple(hashlib.sha256(write_flow(f).encode()).hexdigest()
                    for f in (data.flow, data.base_flow))
    assert digests == FLOWER_FLOW_SHA256[n]


def test_base_flower_flow_integer_mode():
    data = build_flower_flow(2)
    cert = verify_flow(data.graph, data.base_flow)
    assert cert.verdict == "verified"
    # exactly one zero edge, and it is flagged
    zeros = [e for e, v in data.base_flow.values.items() if v == 0]
    assert zeros == ["ab0"] == [data.base_flow.zero_edge]


@pytest.mark.parametrize("x", [Fraction(1), Fraction(3), Fraction(5, 2), Fraction(4)])
def test_the_flagged_edge_is_out_of_the_window_unless_zero(x):
    """The flagged edge fails at any value but 0, in the window or out of it,
    before the unflagged edge that shares its value object."""
    g = Multigraph(["a", "b"], [("e0", "a", "b"), ("e1", "b", "a")])
    flow = RationalFlow({"e0": ("a", "b"), "e1": ("b", "a")}, {"e0": x, "e1": x},
                        Fraction(4), INTEGER_ONE_ZERO, "e0")
    assert flows.flow_violation(g, flow) == {"edge": "e0", "value": _rat_oracle(x)}
    assert flows.flow_violation(g, flow) == flow_violation_oracle(g, flow)


@st.composite
def bridgeless_multigraphs(draw):
    """A random loopless bridgeless multigraph on at most 6 vertices and 9
    edges; parallel edges, isolated vertices and several components may
    occur."""
    n = draw(st.integers(2, 6))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, min_size=2, max_size=9))
    g = Multigraph([f"v{i}" for i in range(n)],
                   [(f"e{i}", f"v{u}", f"v{v}") for i, (u, v) in enumerate(edges)])
    assume(not bridges(g))
    return g


def _phi_c_by_orientations(g):
    """1 + min over orientations of max over cuts of |out| / |in|, with
    edge i reversed when bit i of the orientation is set."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    cuts = []  # per vertex set X: the edges leaving X and entering X under u -> v
    for mask in range(1, (1 << len(pos)) - 1):
        leave = enter = 0
        for i, e in enumerate(g.edges()):
            u_in, v_in = mask >> pos[e.u] & 1, mask >> pos[e.v] & 1
            leave |= (u_in and not v_in) << i
            enter |= (v_in and not u_in) << i
        if leave | enter:
            cuts.append((leave, enter))
    best = None
    for bits in range(1 << (g.num_edges() - 1)):
        bits <<= 1  # edge 0 keeps u -> v: reversing everything keeps every ratio
        worst = Fraction(0)
        for leave, enter in cuts:
            out = (leave & ~bits | enter & bits).bit_count()
            inn = (enter & ~bits | leave & bits).bit_count()
            if inn == 0:
                break
            worst = max(worst, Fraction(out, inn))
        else:
            best = worst if best is None else min(best, worst)
    return 1 + best


@given(bridgeless_multigraphs())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_circular_flow_number_agrees_with_orientation_enumeration(g):
    result = circular_flow_number(g)
    assert result.value == _phi_c_by_orientations(g)
    assert result.flow.r == result.value
    assert verify_flow(g, result.flow).verdict == "verified"


def _conservation_violations_oracle(g, flow):
    net = {v: Fraction(0) for v in g.vertices}
    for eid in g.edge_ids:
        tail, head = flow.orientation[eid]
        net[tail] -= flow.values[eid]
        net[head] += flow.values[eid]
    return [v for v, x in net.items() if x != 0]


def _verify_flow_oracle(g, flow):
    """The flow check in Fraction arithmetic, with a set test per edge and the
    certificate built by the re-normalising serializer: the oracle."""
    def cert(extra, verdict):
        edges = {eid: {"tail": t, "head": h, "value": _rat_oracle(flow.values[eid])}
                 for eid, (t, h) in sorted(flow.orientation.items())}
        witness = {"flow": {"r": _rat_oracle(flow.r), "mode": flow.mode,
                            "zero_edge": flow.zero_edge, "edges": edges}, **extra}
        return Certificate("flow-valid", _graph_hash_oracle(g),
                           _jsonable_oracle({"r": flow.r, "mode": flow.mode}),
                           _jsonable_oracle(witness), verdict)

    if set(flow.orientation) != set(g.edge_ids) or set(flow.values) != set(g.edge_ids):
        raise FlowError("flow does not cover exactly the edges of the graph")
    if not all(g.edge(eid).ends == frozenset(pair) for eid, pair in flow.orientation.items()):
        raise FlowError("orientation endpoints disagree with the graph")
    bad = _conservation_violations_oracle(g, flow)
    if bad:
        return cert({"violation": {"conservation_at": sorted(bad)}}, "refuted")
    if flow.mode == INTEGER_ONE_ZERO:
        if flow.zero_edge is None or not g.has_edge(flow.zero_edge):
            raise FlowError("integer mode requires a flagged zero edge")
    for eid, val in flow.values.items():
        if flow.mode == INTEGER_ONE_ZERO:
            ok = (val == 0) if eid == flow.zero_edge else (val.denominator == 1 and 1 <= val <= 3)
        else:
            ok = 1 <= val <= flow.r - 1
        if not ok:
            return cert({"violation": {"edge": eid, "value": _rat_oracle(val)}}, "refuted")
    return cert({}, "verified")


FLOW_FAULTS = ("off-balance", "low", "high", "missing", "extra", "endpoints", "zero-edge", "zero-twin")


@st.composite
def flow_cases(draw):
    """A random loopless multigraph that is a union of directed cycles, each
    carrying one value, with a flow that is valid or has up to two faults:
    off balance at random vertices, outside the window at either end, a
    missing or extra edge, wrong endpoints, a second edge at the zero edge's
    value, or (integer mode) a flag on a missing edge or on a cycle edge.
    Equal values are one object per cycle, one object per value over the
    whole flow, a fresh object per edge, or a random mix of the last two.
    Edge, vertex and value orders are shuffled independently."""
    n = draw(st.integers(2, 6))
    vs = [f"v{i}" for i in range(n)]
    integer = draw(st.booleans())
    faults = draw(st.lists(st.sampled_from(FLOW_FAULTS), max_size=2))
    if integer:
        value = st.integers(1, 3).map(Fraction)
    else:
        value = st.fractions(1, 9, max_denominator=6)
    cycles = draw(st.lists(st.lists(st.sampled_from(vs), min_size=2, max_size=n, unique=True),
                           min_size=1, max_size=4))
    cycle_values = [draw(value) for _ in cycles]
    # one step of the common denominator past either end of the window
    step = Fraction(1, lcm(*(x.denominator for x in cycle_values)))
    if "low" in faults:
        cycle_values[0] = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1), 1 - step]))
    if "high" in faults and integer:
        cycle_values[0] = draw(st.sampled_from([Fraction(4), Fraction(5, 2)]))
    dirs, values = {}, {}
    for cyc, x in zip(cycles, cycle_values):
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            dirs[f"e{len(dirs)}"] = (a, b)
            values[f"e{len(values)}"] = x
    zero_edge = None
    if integer:
        a, b = draw(st.permutations(vs))[:2]
        dirs["z"], values["z"], zero_edge = (a, b), Fraction(0), "z"
        if "zero-edge" in faults:
            zero_edge = draw(st.sampled_from([None, "nope", "e0", "e0 alone"]))
            if zero_edge == "e0 alone":  # the flag moves to a cycle edge, and z goes
                del dirs["z"], values["z"]
                zero_edge = "e0"
        r = Fraction(4)
    else:
        r = max(cycle_values) + 1 + draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2)]))
        if "high" in faults:
            r = draw(st.sampled_from([r - draw(st.fractions(Fraction(1, 7), 1, max_denominator=7)),
                                      max(cycle_values) + 1 - step]))
    if "zero-twin" in faults:  # only the flagged edge may carry 0
        a, b = draw(st.permutations(vs))[:2]
        dirs["y"], values["y"] = (a, b), values.get("z", Fraction(0))
    g = Multigraph(draw(st.permutations(vs)),
                   draw(st.permutations([(eid, *draw(st.permutations(pair))) for eid, pair in dirs.items()])))
    if "off-balance" in faults:
        for eid in draw(st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=3)):
            values[eid] += draw(st.sampled_from([Fraction(1), Fraction(-1, 3), Fraction(5, 2)]))
    if "missing" in faults:
        eid = draw(st.sampled_from(sorted(dirs)))
        for target in draw(st.sampled_from([(dirs,), (values,), (dirs, values)])):
            del target[eid]
    if "extra" in faults:
        for target in draw(st.sampled_from([(dirs,), (values,), (dirs, values)])):
            target["x"] = (vs[0], vs[1]) if target is dirs else Fraction(1)
    if "endpoints" in faults:
        eid = draw(st.sampled_from(sorted(dirs)))
        tail, head = dirs[eid]
        dirs[eid] = draw(st.sampled_from([(tail, tail), (head, "nowhere"), (tail, vs[-1]), (vs[0], head)]))
    sharing = draw(st.sampled_from(["cycle", "pooled", "fresh", "mixed"]))
    pool = {}
    for eid, x in values.items():
        if sharing == "pooled" or sharing == "mixed" and draw(st.booleans()):
            values[eid] = pool.setdefault(x, x)
        elif sharing != "cycle":
            values[eid] = Fraction(x.numerator, x.denominator)
    dirs = dict(draw(st.permutations(list(dirs.items()))))
    values = dict(draw(st.permutations(list(values.items()))))
    mode = INTEGER_ONE_ZERO if integer else flows.NOWHERE_ZERO
    return g, RationalFlow(dirs, values, r, mode, zero_edge)


def _flow_outcome(check, g, flow, after=None):
    """The verdict and hash of ``check(g, flow)``, or its exception's type
    and message; ``after`` runs between the check and the hash."""
    try:
        cert = check(g, flow)
    except Exception as exc:
        return type(exc), str(exc)
    if after is not None:
        after()
    return cert.verdict, cert.certificate_sha256()


def _edit_flow(flow):
    """Reverse every edge, give each the value 1/2 and add an edge."""
    flow.orientation.update((eid, pair[::-1]) for eid, pair in list(flow.orientation.items()))
    flow.values.update(dict.fromkeys(flow.values, Fraction(1, 2)))
    flow.orientation["added"], flow.values["added"] = ("a", "b"), Fraction(1)


@given(flow_cases(), st.booleans())
@settings(max_examples=600, derandomize=True, deadline=None)
def test_verify_flow_matches_the_fraction_oracle(case, edit):
    """Also when the flow's dicts change after ``verify_flow`` returns and
    before its deferred witness is rendered: the certificate keeps the flow
    as it was checked."""
    g, flow = case
    expected = _flow_outcome(_verify_flow_oracle, g, flow)
    assert _flow_outcome(verify_flow, g, flow, (lambda: _edit_flow(flow)) if edit else None) == expected


def _pass_outcome(fn, *args):
    """What a flow-pass function gave: its exception's type and message, or
    its result as JSON text in its own key order, a flow as its fields and
    its number of distinct value objects."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(out, RationalFlow):
        return (list(out.orientation.items()), [(eid, type(x), x) for eid, x in out.values.items()],
                len(set(map(id, out.values.values()))), out.r, out.mode, out.zero_edge)
    return json.dumps(out)


@given(flow_cases(), st.booleans())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_flow_pass_matches_the_per_edge_oracles(case, reread):
    """The per-distinct-value pass gives the per-edge pass's violation, in its
    key order, the same witness and flow file text, and the same flow read
    back with one object per distinct value string, or the same exception,
    however the flow shares its value objects."""
    g, flow = case
    assert _pass_outcome(flows.flow_violation, g, flow) == _pass_outcome(flow_violation_oracle, g, flow)
    assert _pass_outcome(flows.flow_to_witness, flow) == _pass_outcome(flow_to_witness_oracle, flow)
    assert _pass_outcome(write_flow, flow) == _pass_outcome(write_flow_oracle, flow)
    try:
        witness = flow_to_witness_oracle(flow)
    except KeyError:
        return  # the orientation names an edge the values lack
    if reread:  # every value string its own object, as a certificate file reads back
        witness = json.loads(json.dumps(witness))
    assert _pass_outcome(flows.flow_from_witness, g, witness) == _pass_outcome(flow_from_witness_oracle, g, witness)


def test_verify_flow_builds_no_indexed_view(monkeypatch):
    """Nor the graph hash, nor the witness, until the certificate is read."""
    data = build_flower_flow(2)
    m = sorted(data.matching)
    witness = flows.matched_flow_witness(data.graph, data.flow, m, 2)
    h = add_matching_copies(data.graph, m, 2)
    rendered, render = [], flows.flow_to_witness
    monkeypatch.setattr(flows, "flow_to_witness", lambda flow: rendered.append(flow) or render(flow))
    good = verify_flow(h, witness)
    assert good.verdict == "verified"
    bad = replace(witness, values={**witness.values, m[0]: Fraction(2)})
    refuted = verify_flow(h, bad)
    assert refuted.verdict == "refuted"
    assert "indexed" not in vars(h) and "content_sha256" not in vars(h)
    assert rendered == []
    assert good.witness == {"flow": render(witness)} and len(rendered) == 1
    assert good.witness is good.witness and len(rendered) == 1
    text = refuted.to_json()
    assert len(rendered) == 2 and vars(h)["content_sha256"] == refuted.graph_sha256
    # an unread deferred certificate equals its own file read back, and is unhashable
    assert certificate_from_json(text) == verify_flow(h, bad)
    with pytest.raises(TypeError, match="unhashable"):
        hash(verify_flow(h, bad))
    assert len(rendered) == 3 and "indexed" not in vars(h)


def test_verify_flow_raises_at_the_call_what_its_witness_would_raise():
    # the check reads only the first two items of each (tail, head)
    k4 = families.complete_graph(4)
    flow = flows.circular_flow_number(k4).flow
    triples = {eid: (*pair, pair[0]) for eid, pair in flow.orientation.items()}
    with pytest.raises(ValueError, match=r"^too many values to unpack \(expected 2\)$"):
        verify_flow(k4, replace(flow, orientation=triples))


# -- the witness re-check by counting ------------------------------------------


def _random_cubic(rng, n):
    """A random bridgeless loopless cubic multigraph on n vertices."""
    while True:  # configuration model, rejecting loops and bridges
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = [stubs[i:i + 2] for i in range(0, 3 * n, 2)]
        if all(u != v for u, v in pairs):
            g = Multigraph([f"v{i}" for i in range(n)],
                           [(f"e{i}", f"v{u}", f"v{v}") for i, (u, v) in enumerate(pairs)])
            if not bridges(g):
                return g


WITNESS_MUTATIONS = ["none", "value-at-r", "value-zero", "reversed", "wrong-end", "dropped", "extra",
                     "witness-r", "asked-r", "integer-mode", "zero-edge", "unknown-mode",
                     "malformed-value", "malformed-r", "missing-field"]


@st.composite
def witness_cases(draw):
    """A random cubic graph on 4-8 vertices with its phi_c witness flow, or
    g + (2t-2)M with the matched witness on it when some perfect matching
    pairs the flow's black and white vertices; the r it is asked at, and
    the witness as a certificate reads it back, with one mutation."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    g = _random_cubic(rng, draw(st.sampled_from([4, 6, 8])))
    flow = circular_flow_number(g).flow
    if draw(st.booleans()):
        black = valuations.flow_to_bipartition(g, flow).black
        pairing = [sorted(pm) for pm in perfect_matchings(g)
                   if all((g.edge(e).u in black) != (g.edge(e).v in black) for e in pm)]
        if pairing:
            m, t = rng.choice(pairing), draw(st.integers(1, 3))
            flow = flows.matched_flow_witness(g, flow, m, t)
            g = add_matching_copies(g, m, 2 * t - 2)
    witness = json.loads(json.dumps(flows.flow_to_witness(flow)))
    edges, r = witness["edges"], flow.r
    eid = rng.choice(sorted(edges))
    mutation = draw(st.sampled_from(WITNESS_MUTATIONS))
    if mutation == "value-at-r":
        edges[eid]["value"] = witness["r"]
    elif mutation == "value-zero":
        edges[eid]["value"] = "0/1"
    elif mutation == "reversed":
        edges[eid]["tail"], edges[eid]["head"] = edges[eid]["head"], edges[eid]["tail"]
    elif mutation == "wrong-end":
        edges[eid]["head"] = min(set(g.vertices) - {g.edge(eid).u, g.edge(eid).v})
    elif mutation == "dropped":
        del edges[eid]
    elif mutation == "extra":
        edges["ghost"] = dict(edges[eid])
    elif mutation == "witness-r":
        witness["r"] = rat(r + Fraction(1, 3))
    elif mutation == "asked-r":
        r += 1
    elif mutation == "integer-mode":
        witness["mode"] = INTEGER_ONE_ZERO
    elif mutation == "zero-edge":
        witness["zero_edge"] = eid
    elif mutation == "unknown-mode":
        witness["mode"] = "modular"
    elif mutation == "malformed-value":
        edges[eid]["value"] = "1_0/3"
    elif mutation == "malformed-r":
        witness["r"] = "x"
    elif mutation == "missing-field":
        del edges[eid]["head"]
    return g, witness, r


def _excess_outcome(fn, g, witness, r):
    """The out - in dict as its items in order, or the exception's type."""
    try:
        out = fn(g, witness, r)
    except Exception as exc:
        return type(exc)
    return out if out is None else list(out.items())


@given(witness_cases())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_witness_excess_matches_the_rational_flow_oracle(case):
    g, witness, r = case
    assert _excess_outcome(flows.witness_excess, g, witness, r) == \
        _excess_outcome(witness_excess_oracle, g, witness, r)


def test_witness_excess_reads_an_unreduced_value_and_rescales_its_sums():
    # denominators 1, 3 and 6 arrive in that order, so the sums are rescaled twice
    g, flow = directed_cycle_flow(3, Fraction(7, 2))
    witness = flows.flow_to_witness(flow)
    for eid, value in zip(sorted(witness["edges"]), ("2/1", "6/3", "12/6")):
        witness["edges"][eid]["value"] = value
    assert flows.witness_excess(g, witness, Fraction(7, 2)) == dict.fromkeys(g.vertices, 0)
    witness["edges"][min(witness["edges"])]["value"] = "13/6"
    assert flows.witness_excess(g, witness, Fraction(7, 2)) is None
    assert witness_excess_oracle(g, witness, Fraction(7, 2)) is None


@pytest.mark.parametrize("value, ok", [("1/1", True), ("5/2", True), ("1/2", False), ("0/1", False),
                                       ("-1/1", False), ("8/3", False)])
def test_witness_excess_keeps_a_balanced_value_inside_the_window(value, ok):
    # every edge of a directed 3-cycle carries the same value, so each vertex
    # balances and only the window [1, r-1] = [1, 5/2] decides
    g, flow = directed_cycle_flow(3, Fraction(7, 2))
    witness = flows.flow_to_witness(flow)
    for rec in witness["edges"].values():
        rec["value"] = value
    expected = dict.fromkeys(g.vertices, 0) if ok else None
    assert flows.witness_excess(g, witness, Fraction(7, 2)) == expected
    assert witness_excess_oracle(g, witness, Fraction(7, 2)) == expected
