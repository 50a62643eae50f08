from fractions import Fraction

import pytest

from circflow import blanusa, colorings, families, flows
from circflow.multigraph import Multigraph, girth, is_perfect_matching


@pytest.fixture(scope="module")
def seed():
    return blanusa.load_or_find_seed()


def test_golden_seed_validates(seed):
    blanusa.validate_seed(seed)  # raises on any broken constraint
    assert seed.graph.num_vertices() == 18
    assert girth(seed.graph) == 5


def test_seed_is_a_matched_petersen_dot_product(seed):
    dp = seed.dot_product
    inherited = (frozenset(dp["n1"]) | frozenset(dp["n2"])) - {dp["xy"]}
    assert inherited == seed.matching
    g1 = blanusa._relabelled_petersen("L.")
    g2 = blanusa._relabelled_petersen("R.")
    product = families.m_dot_product(
        g1, dp["n1"], g2, dp["n2"], dp["e1"], dp["e2"], dp["xy"],
        e1_order=tuple(dp["e1_order"]), e2_order=tuple(dp["e2_order"]),
        u_neighbors=tuple(dp["u_neighbors"]), w_neighbors=tuple(dp["w_neighbors"]))
    assert product.graph == seed.graph
    assert product.matching == seed.matching


def test_seed_graph_is_class_2(seed):
    assert colorings.chromatic_index(seed.graph).exact == 4


def test_seed_regeneration_is_deterministic(seed):
    fresh = blanusa.find_seed()
    assert fresh.graph == seed.graph
    assert fresh.x == seed.x
    assert fresh.orientation == seed.orientation
    assert fresh.values == seed.values
    assert fresh.circuit_a == seed.circuit_a
    assert fresh.circuit_b == seed.circuit_b


def test_seed_file_is_the_serialized_seed(seed):
    assert blanusa.seed_to_json(seed) == blanusa._golden_path().read_text()


def test_seed_half_circuits_give_nine_halves_flow(seed):
    base = seed.base_flow()
    a, b = blanusa.seed_circuits(seed)
    half = Fraction(1, 2)
    flow = flows.add_circuit_flow(flows.add_circuit_flow(base, a, half), b, half)
    flow = flows.RationalFlow(flow.orientation, flow.values, Fraction(9, 2))
    assert flows.verify_flow(seed.graph, flow).verdict == "verified"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_flow(n):
    data = blanusa.build_chain(n)
    graph = data.chain.graph
    assert graph.num_vertices() == 18 + 16 * (n - 1)
    assert graph.is_regular(3)
    assert data.flow.r == Fraction(4 * (n + 1) + 1, n + 1)
    assert flows.verify_flow(graph, data.flow).verdict == "verified"
    assert len(data.circuits) == n + 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_circuit_properties(n):
    data = blanusa.build_chain(n)
    base = data.base_flow
    zero = [e for e, v in base.values.items() if v == 0]
    assert len(zero) == 1
    for circ in data.circuits:
        circ.validate(base.orientation)     # directed
        assert zero[0] in circ.edges        # P1
    # P2: every 3-valued edge on at most one circuit
    for eid, val in base.values.items():
        if val == 3:
            assert sum(eid in c.edges for c in data.circuits) <= 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_matching(n):
    data = blanusa.build_chain(n)
    graph = data.chain.graph
    assert is_perfect_matching(graph, data.matching)
    last = data.chain.markings[-1]
    for i in (4, 7):
        between = graph.edges_between(last[f"x{i}"], last[f"x{i + 1}"])
        assert between and between[0] not in data.matching
    for eid in data.matching:
        e = graph.edge(eid)
        assert data.bipartition.color(e.u) != data.bipartition.color(e.v)


def test_chain_splice_values():
    # before splicing, the marked edges carry values 1 and 2
    data = blanusa.build_chain(2)
    last = data.chain.markings[-1]
    graph = data.chain.graph
    e45 = graph.edges_between(last["x4"], last["x5"])[0]
    e78 = graph.edges_between(last["x7"], last["x8"])[0]
    assert data.base_flow.values[e45] == 2
    assert data.base_flow.values[e78] == 1


def test_chain_restriction_is_inductive():
    # the new copy of G_n+1 induces the seed minus {x0, x1}; the old part is
    # G_n minus its two splice edges
    seed = blanusa.load_or_find_seed()
    d1 = blanusa.build_chain(1)
    d2 = blanusa.build_chain(2)
    g2 = d2.chain.graph
    old_vertices = set(d1.chain.graph.vertices)
    new_vertices = set(g2.vertices) - old_vertices
    assert len(new_vertices) == 16

    induced_new = Multigraph(
        sorted(new_vertices),
        [(e.eid, e.u, e.v) for e in g2.edges() if e.u in new_vertices and e.v in new_vertices])
    stripped_seed = seed.graph.with_vertices_removed([seed.x[0], seed.x[1]])
    renamed = stripped_seed.relabeled({v: f"{v}@2" for v in stripped_seed.vertices},
                                      {e: f"{e}@2" for e in stripped_seed.edge_ids})
    assert induced_new == renamed

    last1 = d1.chain.markings[-1]
    splice = set()
    for i in (4, 7):
        splice.add(d1.chain.graph.edges_between(last1[f"x{i}"], last1[f"x{i + 1}"])[0])
    induced_old = Multigraph(
        sorted(old_vertices),
        [(e.eid, e.u, e.v) for e in g2.edges() if e.u in old_vertices and e.v in old_vertices])
    assert induced_old == d1.chain.graph.with_edges_removed(splice)


def test_chain_marked_path_on_exactly_one_circuit():
    data = blanusa.build_chain(3)
    graph = data.chain.graph
    last = data.chain.markings[-1]
    path = set()
    for i in range(4, 8):
        path.add(graph.edges_between(last[f"x{i}"], last[f"x{i + 1}"])[0])
    holders = [c for c in data.circuits if path <= set(c.edges)]
    touchers = [c for c in data.circuits if set(c.edges) & path]
    assert len(holders) == 1 and touchers == holders


def test_blanusa_g1_is_class2_and_has_class2_property():
    data = blanusa.build_chain(1)
    cert = colorings.class_property(data.chain.graph, sorted(data.matching), 2, [1, 2, 3])
    assert cert.verdict == "verified"
