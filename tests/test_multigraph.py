import sys
from collections import deque
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from circflow import families, flows, mp_coloring, valuations
from circflow.colorings import write_coloring
from circflow.multigraph import (
    GraphError,
    _all_tokens,
    _check_token,
    _matchings_of,
    _max_flow,
    Multigraph,
    ParseError,
    add_matching_copies,
    bridges,
    canonical_serialize,
    connected_components,
    deserialize,
    edge_cut,
    girth,
    is_bridgeless,
    is_matching,
    is_perfect_matching,
    matching_copy_ids,
    perfect_matchings,
    serialize,
)

from _oracles import (
    MultigraphOracle,
    canonical_serialize_oracle,
    edges_between_oracle,
    girth_oracle,
    matched_flow_witness_oracle,
    matching_copy_ids_oracle,
    matchings_of_oracle,
    max_flow_oracle,
    max_multiplicity_oracle,
    mp_prime_by_expansion,
    mp_tilde_by_expansion,
)


def path_graph(k):
    vs = [f"p{i}" for i in range(k)]
    es = [(f"e{i}", f"p{i}", f"p{i+1}") for i in range(k - 1)]
    return Multigraph(vs, es)


def test_basic_construction_and_degree():
    g = Multigraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c")])
    assert g.degree("a") == 2  # parallel edges count with multiplicity
    assert g.degree("b") == 3
    assert g.edges_between("a", "b") == ("e1", "e2")
    assert g.max_multiplicity() == 2
    with pytest.raises(GraphError):
        g.degree("zz")


def test_loops_and_duplicates_rejected():
    with pytest.raises(GraphError):
        Multigraph(["a"], [("e", "a", "a")])
    with pytest.raises(GraphError):
        Multigraph(["a", "a"], [])
    with pytest.raises(GraphError):
        Multigraph(["a", "b"], [("e", "a", "b"), ("e", "b", "a")])
    with pytest.raises(GraphError):
        Multigraph(["a b"], [])


def test_degree_examples_petersen_cubic():
    p = families.petersen()
    assert all(p.degree(v) == 3 for v in p.vertices)


def test_edge_cut_examples():
    p = families.petersen()
    assert len(edge_cut(p, ["u0"]).edges) == 3
    k4 = families.complete_graph(4)
    assert len(edge_cut(k4, ["v1", "v2"]).edges) == 4
    # bipartite (2t+1)-regular, one side: all edges cross
    k33 = Multigraph([f"a{i}" for i in range(3)] + [f"b{i}" for i in range(3)],
                     [(f"e{i}{j}", f"a{i}", f"b{j}") for i in range(3) for j in range(3)])
    assert len(edge_cut(k33, [f"a{i}" for i in range(3)]).edges) == 9
    with pytest.raises(GraphError):
        edge_cut(p, [])
    with pytest.raises(GraphError):
        edge_cut(p, list(p.vertices))


def test_cut_parity_matches_degree_sum():
    g = families.flower_snark(2).graph
    for side in (["a0"], ["a0", "b0"], ["a0", "b0", "c0", "d1"], list(g.vertices)[:7]):
        cut = edge_cut(g, side)
        assert len(cut.edges) % 2 == sum(g.degree(v) for v in side) % 2


def test_add_matching_copies_counts():
    p = families.petersen()
    m = sorted(perfect_matchings(p)[0])
    h = add_matching_copies(p, m, 1)
    assert h.num_edges() == 20 and h.is_regular(4)
    h2 = add_matching_copies(p, m, 2)
    assert h2.num_edges() == 25 and h2.is_regular(5)
    assert add_matching_copies(p, m, 0) == p
    with pytest.raises(GraphError):
        add_matching_copies(p, ["uu0", "uu1"], 1)  # adjacent edges


def test_add_matching_copies_composes_with_identical_ids():
    p = families.petersen()
    m = sorted(perfect_matchings(p)[0])
    joint = add_matching_copies(p, m, 3)
    staged = add_matching_copies(add_matching_copies(p, m, 1), m, 2)
    assert joint == staged
    assert {f"{eid}@c{j}" for eid in m for j in (1, 2, 3)} <= set(joint.edge_ids)


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 6)), max_size=6, unique=True),
       st.integers(0, 5))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_matching_copy_ids_match_the_probing_oracle(taken, k):
    """Ids e@cj already in g, on edges of any ends, are skipped exactly as by
    probing each j in turn; with none taken the ids are e@c1 .. e@ck."""
    j3 = families.flower_snark(1).graph
    m = ["ab0", "ab1", "dc2"]
    g = j3.with_edges_added([(f"{m[i]}@c{j}", "a0", "b1") for i, j in taken])
    ids = matching_copy_ids(g, m, k)
    assert ids == matching_copy_ids_oracle(g, m, k)
    assert add_matching_copies(g, m, k).edge_ids[g.num_edges():] == tuple(c for each in ids for c in each)
    if not taken:
        assert ids == [[f"{eid}@c{j}" for j in range(1, k + 1)] for eid in m]


def test_cubic_plus_perfect_matching_regularity():
    # H + (2t-2)M is (2t+1)-regular for cubic H
    g = families.flower_snark(1).graph
    m = sorted(perfect_matchings(g)[0])
    for t in (1, 2, 3):
        h = add_matching_copies(g, m, 2 * t - 2)
        assert h.is_regular(2 * t + 1)


def test_serialize_round_trip():
    p = families.petersen()
    assert deserialize(serialize(p)) == p
    g = Multigraph(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "a", "b")])
    assert deserialize(serialize(g)) == g
    assert canonical_serialize(g) == canonical_serialize(deserialize(serialize(g)))


def test_deserialize_diagnostics():
    with pytest.raises(ParseError):
        deserialize("bogus header\n")
    with pytest.raises(ParseError) as err:
        deserialize("circflow-graph v1\nvertex a\nedge e a a\n")
    assert err.value.line == 3


@pytest.mark.parametrize("lines, message", [
    (["vertex a", "vertex b", "vertex a", "# note", "edge e a b", ""],
     "line 4: duplicate vertex id 'a'"),
    (["vertex a", "vertex b", "edge e a b", "edge f a c", "", "edge e b a"],
     "line 5: edge 'f' references unknown vertex"),
    (["vertex a", "vertex b", "edge e a b", "edge e b a", "vertex c", "vertex c"],
     "line 7: duplicate vertex id 'c'"),
])
def test_deserialize_reports_the_line_of_the_failing_record(lines, message):
    # seven-line files: the header, then the records
    text = "\n".join(["circflow-graph v1", *lines]) + "\n"
    with pytest.raises(ParseError, match=f"^{message}$"):
        deserialize(text)


def test_bridges_and_girth():
    p = families.petersen()
    assert not bridges(p) and is_bridgeless(p)
    assert girth(p) == 5
    g = path_graph(3)
    assert bridges(g) == {"e0", "e1"}
    doubled = Multigraph(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])
    assert not bridges(doubled)
    assert girth(doubled) == 2


def test_matching_predicates():
    p = families.petersen()
    assert is_matching(p, ["uu0", "ww0"])
    assert not is_matching(p, ["uu0", "uu1"])
    pm = perfect_matchings(p)[0]
    assert is_perfect_matching(p, pm)
    assert not is_perfect_matching(p, list(pm)[:4])


def test_perfect_matching_enumeration_counts():
    assert len(perfect_matchings(families.petersen())) == 6
    k4 = families.complete_graph(4)
    assert len(perfect_matchings(k4)) == 3
    odd = families.complete_graph(5)
    assert perfect_matchings(odd) == []
    # the six perfect matchings of the Petersen graph cover every edge twice
    p = families.petersen()
    pms = perfect_matchings(p)
    assert all(is_perfect_matching(p, pm) for pm in pms)
    assert all(sum(eid in pm for pm in pms) == 2 for eid in p.edge_ids)


@st.composite
def random_multigraph(draw):
    n = draw(st.integers(2, 7))
    vs = [f"v{i}" for i in range(n)]
    k = draw(st.integers(1, 12))
    edges = []
    for i in range(k):
        u = draw(st.integers(0, n - 1))
        w = draw(st.integers(0, n - 1))
        if u == w:
            w = (w + 1) % n
        edges.append((f"e{i}", f"v{u}", f"v{w}"))
    return Multigraph(vs, edges)


@given(random_multigraph(), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_canonical_serialize_matches_the_per_edge_oracle(g, data):
    """Vertices, edges and each edge's ends listed in drawn orders, on the
    graph and on the dataclass-edge oracle graph."""
    vertices = data.draw(st.permutations(g.vertices))
    edges = data.draw(st.permutations([(e.eid, *data.draw(st.permutations([e.u, e.v])))
                                       for e in g.edges()]))
    for graph in (Multigraph(vertices, edges), MultigraphOracle(vertices, edges)):
        assert canonical_serialize(graph) == canonical_serialize_oracle(graph)


@given(random_multigraph())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_handshake_property(g):
    assert sum(g.degree(v) for v in g.vertices) == 2 * g.num_edges()


@given(random_multigraph(), st.integers(0, 10**6))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_cut_parity_property(g, seed):
    import random as _r

    rng = _r.Random(seed)
    side = [v for v in g.vertices if rng.random() < 0.5]
    if not side or len(side) == g.num_vertices():
        side = [g.vertices[0]]
        if g.num_vertices() == 1:
            return
    cut = edge_cut(g, side)
    assert len(cut.edges) % 2 == sum(g.degree(v) for v in side) % 2


@given(random_multigraph())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_serialization_round_trip_property(g):
    assert deserialize(serialize(g)) == g


@given(random_multigraph())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_indexed_view_property(g):
    view = g.indexed
    assert g.indexed is view  # built once per graph
    assert view.vertices == g.vertices and view.edge_ids == g.edge_ids
    assert all(view.vertices[view.pos[v]] == v for v in g.vertices)
    for eid, (a, b) in zip(view.edge_ids, view.ends):
        assert g.edge(eid).u == view.vertices[a] and g.edge(eid).v == view.vertices[b]
    for v, at in zip(g.vertices, view.incident):
        assert tuple(view.edge_ids[e] for e in at) == g.incident_edges(v)


def test_edges_between_in_both_orders():
    g = Multigraph(["a", "b", "c", "d"],
                   [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "b", "a"), ("e4", "c", "d")])
    assert g.edges_between("a", "b") == g.edges_between("b", "a") == ("e1", "e3")
    assert g.edges_between("b", "c") == g.edges_between("c", "b") == ("e2",)
    assert g.edges_between("a", "c") == g.edges_between("a", "d") == ()
    assert g.edges_between("a", "a") == g.edges_between("a", "zz") == ()
    with pytest.raises(GraphError):
        g.edges_between("zz", "a")


@st.composite
def forest_plus_edges(draw):
    """A random forest on 1..9 vertices, often disconnected, plus up to four
    more edges, which may run parallel to others."""
    n = draw(st.integers(1, 9))
    edges = [(f"t{i}", f"v{i}", f"v{draw(st.integers(0, i - 1))}")
             for i in range(1, n) if draw(st.booleans())]
    for j in range(draw(st.integers(0, 4)) if n > 1 else 0):
        u, w = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        edges.append((f"x{j}", f"v{u}", f"v{w}"))
    return Multigraph([f"v{i}" for i in range(n)], edges)


@given(st.one_of(forest_plus_edges(), random_multigraph()))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_endpoint_queries_and_girth_match_their_oracles(g):
    for u in g.vertices:
        for v in (*g.vertices, "zz"):
            assert g.edges_between(u, v) == edges_between_oracle(g, u, v)
    assert g.max_multiplicity() == max_multiplicity_oracle(g)
    assert girth(g) == girth_oracle(g)
    forest = g.num_edges() == g.num_vertices() - len(connected_components(g))
    assert (girth(g) is None) == forest
    if g.max_multiplicity() >= 2:
        assert girth(g) == 2


# -- the max-flow kernel (Dinic along Edmonds-Karp's paths) against Edmonds-Karp --


def _fraction_max_flow(nodes, arcs, source, sink):
    """Edmonds-Karp on named nodes with Fraction capacities: the oracle.

    Returns (value, per-arc flow, residual-reachable set from source)."""
    adj = {v: [] for v in nodes}
    cap, to, frm = [], [], []
    for u, v, c in arcs:
        for a, b, cc in ((u, v, c), (v, u, Fraction(0))):
            adj[a].append(len(cap))
            frm.append(a)
            to.append(b)
            cap.append(cc)
    flow = [Fraction(0)] * len(cap)
    total = Fraction(0)
    while True:
        prev = {source: -1}
        queue = deque([source])
        while queue and sink not in prev:
            u = queue.popleft()
            for idx in adj[u]:
                if to[idx] not in prev and cap[idx] - flow[idx] > 0:
                    prev[to[idx]] = idx
                    queue.append(to[idx])
        if sink not in prev:
            return total, [flow[2 * i] for i in range(len(arcs))], set(prev)
        bottleneck = None
        v = sink
        while v != source:
            idx = prev[v]
            avail = cap[idx] - flow[idx]
            bottleneck = avail if bottleneck is None or avail < bottleneck else bottleneck
            v = frm[idx]
        v = sink
        while v != source:
            idx = prev[v]
            flow[idx] += bottleneck
            flow[idx ^ 1] -= bottleneck
            v = frm[idx]
        total += bottleneck


@st.composite
def random_network(draw):
    """n inner nodes, source n, sink n + 1, and arcs with capacities c/den."""
    n = draw(st.integers(0, 6))
    den = draw(st.integers(1, 7))
    node = st.integers(0, n + 1)
    arcs = draw(st.lists(st.tuples(node, node, st.integers(0, 15)), max_size=20))
    return n, den, arcs


@given(random_network())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_integer_max_flow_matches_rational_oracle(net):
    n, den, arcs = net
    name = [f"n{i}" for i in range(n + 2)]
    value, arc_flow, reachable = _max_flow(n, arcs)
    want_value, want_flow, want_reachable = _fraction_max_flow(
        name, [(name[u], name[v], Fraction(c, den)) for u, v, c in arcs], name[n], name[n + 1])
    assert Fraction(value, den) == want_value
    assert [Fraction(f, den) for f in arc_flow] == want_flow
    assert {name[v] for v in reachable} == want_reachable


@st.composite
def larger_network(draw):
    """Up to 12 inner nodes and 40 arcs: self-loops, zero capacities, arcs
    into the source and out of the sink, and parallel copies of drawn arcs.
    At least 2n arcs, so that a phase often augments along several paths and
    resumes inside the last one."""
    n = draw(st.integers(0, 12))
    node = st.integers(0, n + 1)
    arcs = draw(st.lists(st.tuples(node, node, st.integers(0, 9)), min_size=2 * n, max_size=30))
    if arcs:
        copies = draw(st.lists(st.tuples(st.sampled_from(arcs), st.integers(0, 9)), max_size=10))
        for (u, v, _), c in copies:
            arcs.insert(draw(st.integers(0, len(arcs))), (u, v, c))
    return n, arcs


@given(larger_network())
# one phase, two augmentations: s-a-b-t saturates a-b, and the walk resumes at a
@example((3, [(3, 0, 5), (0, 1, 1), (0, 2, 1), (1, 4, 5), (2, 4, 5)]))
# the resumed walk at a meets the dead end c, retreats to s and takes s-d-b-t
@example((4, [(4, 0, 2), (4, 3, 1), (0, 1, 1), (0, 2, 1), (3, 1, 1), (1, 5, 2), (2, 0, 1)]))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_max_flow_matches_edmonds_karp_on_larger_networks(net):
    n, arcs = net
    assert _max_flow(n, arcs) == max_flow_oracle(n, arcs)


@st.composite
def hamiltonian_cubic(draw):
    """A Hamiltonian cycle on 4-10 vertices plus a perfect matching M, which
    may double a cycle edge: a small bridgeless cubic multigraph, and M."""
    n = draw(st.sampled_from([4, 6, 8, 10]))
    perm = draw(st.permutations(range(n)))
    pairs = [(i, (i + 1) % n) for i in range(n)] + [perm[i:i + 2] for i in range(0, n, 2)]
    edges = [(f"e{i}", f"v{a}", f"v{b}") for i, (a, b) in enumerate(pairs)]
    g = Multigraph(draw(st.permutations([f"v{v}" for v in range(n)])), edges)
    return g, [f"e{i}" for i in range(n, n + n // 2)]


@given(hamiltonian_cubic())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_max_flow_matches_edmonds_karp_on_the_flow_networks(gm):
    """The networks of phi_c (the minimum cuts of ``_violating_subset``, the
    orientation of ``_orientation_with_excess``, the witness circulation) and
    the circulations on the built H = g + (2t-2)M at t = 1, 2, 3, feasible or
    not."""
    g, m = gm
    networks = []

    def record(n, arcs):
        networks.append((sys._getframe(1).f_code.co_name, n, list(arcs)))
        return _max_flow(n, arcs)

    with patch.object(flows, "_max_flow", record), patch.object(valuations, "_max_flow", record):
        phi = flows.circular_flow_number(g)
        for t in (1, 2, 3):
            try:
                matched_flow_witness_oracle(g, phi.flow, m, t)
            except flows.FlowError:  # M need not make the valuation balanced
                pass
    assert {caller for caller, _, _ in networks} == {
        "_violating_subset", "_orientation_with_excess", "circulation_feasible"}
    for _, n, arcs in networks:
        assert _max_flow(n, arcs) == max_flow_oracle(n, arcs)


@given(hamiltonian_cubic(), st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_matched_flow_witness_agrees_with_the_circulation_on_h(gm, data):
    """On the optimal flow of a small cubic graph, with M the complement of
    the Hamiltonian cycle or any drawn perfect matching, the closed-form
    witness and the circulation on the built H both give a valid flow at the
    bound value when M pairs black with white; otherwise the closed form
    names the first edge of M that does not."""
    g, cycle_m = gm
    drawn = data.draw(st.sampled_from(sorted(sorted(pm) for pm in perfect_matchings(g))))
    flow = flows.circular_flow_number(g).flow
    white = valuations.flow_to_bipartition(g, flow).white
    for m in (cycle_m, drawn):
        unpaired = [eid for eid in m if (g.edge(eid).u in white) == (g.edge(eid).v in white)]
        for t in (1, 2, 3):
            if unpaired:
                with pytest.raises(flows.FlowError, match=f"matching edge '{unpaired[0]}' does not pair"):
                    flows.matched_flow_witness(g, flow, m, t)
                continue
            h = add_matching_copies(g, m, 2 * t - 2)
            for witness in (flows.matched_flow_witness(g, flow, m, t),
                            matched_flow_witness_oracle(g, flow, m, t)):
                assert witness.r == valuations.bound_formula(flow.r, t)
                assert flows.verify_flow(h, witness).verdict == "verified"


_TOKEN_TEXT = st.text(st.one_of(st.sampled_from("ab&' \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0"
                                                "\u1680\u2000\u2028\u2029\u202f\u3000\u200b"),
                               st.characters()), max_size=6)


@given(_TOKEN_TEXT)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_check_token_rejects_exactly_the_isspace_ids(token):
    rejected = not token or any(ch.isspace() for ch in token)
    try:
        _check_token("vertex", token)
    except GraphError:
        assert rejected
    else:
        assert not rejected


@given(st.lists(_TOKEN_TEXT, max_size=4))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_all_tokens_is_the_per_token_test(ids):
    assert _all_tokens(ids) == all(token.split() == [token] for token in ids)


# -- the constructor against the per-token dataclass oracle ---------------------


def _view(g):
    """Everything a graph shows."""
    return (g.vertices, [(e.eid, e.u, e.v) for e in g.edges()],
            [g.incident_edges(v) for v in g.vertices], g.indexed, g.content_sha256)


def _derive(fn, *args):
    """The derived graph and what it shows, or None and the GraphError raised."""
    try:
        graph = fn(*args)
    except GraphError as exc:
        return None, (type(exc), str(exc))
    return graph, _view(graph)


_IDS = st.text(st.sampled_from("ab \t\n\x1c"), max_size=3)


@given(st.lists(_IDS, max_size=5), st.lists(st.tuples(_IDS, _IDS, _IDS), max_size=5))
@settings(max_examples=600, deadline=None, derandomize=True)
def test_constructor_raises_the_oracle_error_on_malformed_input(vertices, edges):
    # empty or whitespace ids, repeated vertices and edges, loops and unknown
    # endpoints, often several in one input: the first error must be the same
    assert _derive(Multigraph, vertices, edges)[1] == _derive(MultigraphOracle, vertices, edges)[1]


@given(random_multigraph(), st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_derived_graphs_match_the_constructor_oracle(g, data):
    """A chain of derived graphs, each built from its parent's edge records,
    against the same chain rebuilt from tuples by the oracle constructor."""
    new, old = g, MultigraphOracle(g.vertices, [(e.eid, e.u, e.v) for e in g.edges()])
    assert _view(new) == _view(old)
    names = st.sampled_from(["v0", "v1", "w", "e0", "x y", ""])

    def some(ids, **kw):
        return data.draw(st.lists(st.sampled_from(ids), **kw)) if ids else []

    for step in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(
            ["copies", "drop-edges", "drop-vertices", "relabel", "add-edges"]))
        if op == "copies":
            pm = data.draw(st.sampled_from([[]] + [sorted(m) for m in perfect_matchings(new)]))
            k = data.draw(st.integers(0, 2))
            calls = (add_matching_copies, new, pm, k), (add_matching_copies, old, pm, k)
        elif op == "drop-edges":
            gone = some(new.edge_ids, max_size=3)
            calls = (new.with_edges_removed, gone), (old.with_edges_removed, gone)
        elif op == "drop-vertices":
            gone = some(new.vertices, max_size=2)
            calls = (new.with_vertices_removed, gone), (old.with_vertices_removed, gone)
        elif op == "add-edges":
            # fresh, repeated and malformed ids, loops and unknown endpoints
            ends = st.sampled_from([*new.vertices, "w"])
            added = data.draw(st.lists(st.tuples(st.sampled_from([*new.edge_ids, "f0", "f1", "x y", ""]),
                                                 ends, ends), max_size=3))
            calls = (new.with_edges_added, added), (old.with_edges_added, added)
        else:
            vmap = {v: data.draw(names) for v in some(new.vertices, max_size=2)}
            emap = {e: data.draw(names) for e in some(new.edge_ids, max_size=2)}
            calls = (new.relabeled, vmap, emap), (old.relabeled, vmap, emap)
        (new_next, shown), (old_next, expected) = (_derive(*call) for call in calls)
        assert shown == expected, op
        if new_next is not None:
            new, old = new_next, old_next


def _text(graph_and_coloring):
    g, coloring = graph_and_coloring
    return serialize(g) + write_coloring(coloring)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mp_prime_is_byte_identical_to_the_expansion_recipe(p):
    assert serialize(families.mp_graph(p, families.MP_PRIME).graph) == \
        serialize(mp_prime_by_expansion(p))


@pytest.mark.parametrize("build, reference", [
    (lambda: serialize(families.mp_graph(5, families.MP_PRIME).graph),
     lambda: serialize(mp_prime_by_expansion(5))),
    *[(lambda t=t: _text(mp_coloring.mp_tilde_coloring(t)), lambda t=t: _text(mp_tilde_by_expansion(t)))
      for t in (1, 2, 3)],
], ids=["mp-prime-5", "mp-tilde-1", "mp-tilde-2", "mp-tilde-3"])
def test_mp_construction_is_byte_identical_to_the_sequential_path(build, reference):
    # M_p' and M~_p are written out directly: both against expansion one
    # vertex at a time and suppression to a fixpoint, graph and coloring bytes
    assert build() == reference()


# -- the iterative 1-factor enumerator against the recursive generator chain ---


@st.composite
def matching_instance(draw):
    """Incidence lists of a random loopless multigraph (parallel edges, odd
    orders and isolated vertices included) and a mask of pre-covered
    vertices, as ``_matchings_of`` takes them."""
    n = draw(st.integers(0, 9))
    inc = [[] for _ in range(n)]
    if n >= 2:
        for e in range(draw(st.integers(0, 16))):
            u, w = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            inc[u].append((e, w))
            inc[w].append((e, u))
    for at in inc:
        at[:] = draw(st.permutations(at))
    return inc, draw(st.integers(0, (1 << n) - 1))


@given(matching_instance())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_matchings_of_matches_the_recursive_oracle(instance):
    inc, covered = instance
    got = []
    for pm in _matchings_of(inc, covered):
        got.append(pm)
        pm.append(-1)  # as the matching cover extends each matching it gets
    want = [pm + [-1] for pm in matchings_of_oracle(inc, covered)]
    assert got == want


def test_matchings_of_is_lazy():
    # K_20 has 19!! ~ 6.5e8 perfect matchings; the first one must come after
    # a walk down one branch, never after enumerating them all
    n = 20
    budget = [4 * n * n]

    class Options(list):
        def __iter__(self):
            for pair in super().__iter__():
                budget[0] -= 1
                if budget[0] < 0:
                    raise AssertionError("the enumerator ran past its first matching")
                yield pair

    ids = {}
    inc = [Options((ids.setdefault(frozenset((u, w)), len(ids)), w) for w in range(n) if w != u)
           for u in range(n)]
    first = next(_matchings_of(inc, 0))
    assert first == [ids[frozenset((u, u + 1))] for u in range(0, n, 2)]
