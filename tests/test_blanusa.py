import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import circflow
from circflow import blanusa, colorings, flows
from circflow.multigraph import Multigraph, girth, is_perfect_matching, perfect_matchings

from _oracles import DirectedCircuit, nine_cycles_oracle

# SHA-256 of the seed's canonical content (``_seed_content``); any change to
# the search that moves a vertex, edge, value, direction or circuit moves it.
SEED_CONTENT_SHA256 = "19cabb73ec3715a2c31e3904616d61b3d690c89b161fb32c57a5428f375ac797"


@pytest.fixture(scope="module")
def seed():
    return blanusa.load_or_find_seed()


def _seed_content(seed) -> str:
    doc = {
        "vertices": list(seed.graph.vertices),
        "edges": [[e.eid, e.u, e.v] for e in seed.graph.edges()],
        "matching": sorted(seed.matching),
        "x": list(seed.x),
        "c_edges": list(seed.c_edges),
        "y0": seed.y0,
        "y1": seed.y1,
        "orientation": {e: list(d) for e, d in seed.orientation.items()},
        "values": seed.values,
        "zero_edge": seed.zero_edge,
        "circuit_a": list(seed.circuit_a),
        "circuit_b": list(seed.circuit_b),
        "p1_route": list(seed.p1_route),
        "dot_product": seed.dot_product,
    }
    return json.dumps(doc, sort_keys=True)


def test_seed_validates(seed):
    blanusa.validate_seed(seed)  # raises on any broken constraint
    assert seed.graph.num_vertices() == 18
    assert girth(seed.graph) == 5


def test_seed_is_a_matched_petersen_dot_product(seed):
    dp = seed.dot_product
    inherited = (frozenset(dp["n1"]) | frozenset(dp["n2"])) - {dp["xy"]}
    assert inherited == seed.matching
    product = seed.product()
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


def test_seed_content_is_pinned(seed):
    assert hashlib.sha256(_seed_content(seed).encode()).hexdigest() == SEED_CONTENT_SHA256
    assert len(blanusa._nine_cycles(seed.graph)) == 30
    assert len(perfect_matchings(seed.graph)) == 19


@st.composite
def cubic_multigraph(draw):
    """A random loopless cubic multigraph on 10-20 vertices whose vertex
    names are shuffled, so name order and insertion order disagree."""
    n = draw(st.sampled_from([10, 12, 14, 16, 18, 20]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    while True:  # configuration model, rejecting loops
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = [stubs[i:i + 2] for i in range(0, 3 * n, 2)]
        if all(u != v for u, v in pairs):
            break
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    return Multigraph(names, [(f"e{i}", names[u], names[v]) for i, (u, v) in enumerate(pairs)])


@given(cubic_multigraph())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_nine_cycles_agree_with_the_canonicalising_walk(g):
    assert blanusa._nine_cycles(g) == nine_cycles_oracle(g)


def test_seed_and_chain_write_nothing_into_the_package():
    package = Path(circflow.__file__).resolve().parent

    def snapshot():
        return {str(p.relative_to(package)): (p.stat().st_size, p.stat().st_mtime_ns)
                for p in sorted(package.rglob("*")) if p.is_file()}

    before = snapshot()
    # bytecode caches are the interpreter's writes, not circflow's
    env = {**os.environ, "PYTHONPATH": str(package.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    script = ("import circflow\n"
              "from circflow import blanusa\n"
              f"assert circflow.__file__.startswith({str(package)!r})\n"
              "blanusa.load_or_find_seed()\n"
              "blanusa.build_chain(2)\n"
              "from circflow import mp_coloring\n"
              "mp_coloring.mp_tilde_coloring(1)\n")
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
    assert snapshot() == before


def test_seed_half_circuits_give_nine_halves_flow(seed):
    steps = [[(eid, 1) for eid in circ] for circ in (seed.circuit_a, seed.circuit_b)]
    flow = flows.add_circuits(seed.base_flow(), steps, Fraction(1, 2), Fraction(9, 2))
    assert flows.verify_flow(seed.graph, flow).verdict == "verified"
    assert seed.base_flow().orientation is not seed.orientation


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_flow(n):
    data = blanusa.build_chain(n)
    graph = data.chain.graph
    assert graph.num_vertices() == 18 + 16 * (n - 1)
    assert graph.is_regular(3)
    assert data.flow.r == Fraction(4 * (n + 1) + 1, n + 1)
    assert flows.verify_flow(graph, data.flow).verdict == "verified"
    assert len(data.circuits) == n + 1


# SHA-256 of flows.write_flow for (flow, base_flow) of build_chain(n), with
# the four joins of step k named sp{k}:a..sp{k}:d (``_with_step_join_ids``)
CHAIN_FLOW_SHA256 = {
    1: ("d17771065b587f90509e8f7c0d1520abae9325749da87b26f6932cf649a6518b",
        "295725751fb6e54b148277fa480e137d785d5ba084fe8c46480bd82d224b763c"),
    2: ("27ffa5c2433ee897571f2236fd57deff6f84c49bcfe91860ebda064409a5d6d8",
        "62fb8309fb53e9e8df0ffbabe586eaa9c91c5ff10540e6203332683da3ebc961"),
    3: ("6c4a0f1f5a1f8bd2ca2f584f0be670ff19b9b07f083aa2f53ee04c0d83146edc",
        "9fcc0135a539e96bff9e517be83bbf8e97172318baa097c8c9b86c65d742d623"),
    4: ("8c7388056146b81fcbb59ce30ccd8aa69f37cfd75b496e36b7bf59fc597e8cd9",
        "f9501b4a1fca8641aa4c394cec0a44cf3c28255a77402db5e68667fc8f09a22c"),
    5: ("df29ed67e2f1608f6b875a278c4aba5495c9c033be09de04eddea68142f2e074",
        "a0558a436ed0dba49eda8568ac02327adad2f18a4b86ed3031240acee7c74761"),
    6: ("42390f28726ed7ab3a904794bbf56fb2c03184d5afaf8cf19e8af0f01bd6f439",
        "6ac6b761ee6df37e45bc3d64f2154fccc6afdd9ed2069e17666d1f9b98c8c07c"),
}


def _with_step_join_ids(data, flow):
    """``flow`` with the joins of G_n renamed sp{k}:a..sp{k}:d by step k.

    A join is an edge whose id is neither a seed id nor ``{seed id}@{j}``;
    in graph order, the joins of step k are the (k-1)-th group of four.
    """
    seed_ids = set(blanusa.load_or_find_seed().graph.edge_ids)
    joins = [eid for eid in data.chain.graph.edge_ids
             if eid not in seed_ids and eid.rpartition("@")[0] not in seed_ids]
    assert len(joins) == 4 * (data.n - 1)
    ren = {eid: f"sp{i // 4 + 2}:{'abcd'[i % 4]}" for i, eid in enumerate(joins)}
    return flows.RationalFlow({ren.get(e, e): d for e, d in flow.orientation.items()},
                              {ren.get(e, e): v for e, v in flow.values.items()},
                              flow.r, flow.mode, flow.zero_edge)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chain_flow_files_are_pinned(n):
    data = blanusa.build_chain(n)
    digests = tuple(hashlib.sha256(flows.write_flow(_with_step_join_ids(data, f)).encode())
                    .hexdigest() for f in (data.flow, data.base_flow))
    assert digests == CHAIN_FLOW_SHA256[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_circuit_properties(n):
    data = blanusa.build_chain(n)
    base = data.base_flow
    zero = [e for e, v in base.values.items() if v == 0]
    assert len(zero) == 1
    edge_sets = [[eid for eid, _ in circ] for circ in data.circuits]
    for circ, edges in zip(data.circuits, edge_sets):
        assert {sign for _, sign in circ} == {1}
        DirectedCircuit(tuple(edges), base.orientation[edges[0]][0]).validate(base.orientation)
        assert zero[0] in edges             # P1
    # P2: every 3-valued edge on at most one circuit
    for eid, val in base.values.items():
        if val == 3:
            assert sum(eid in edges for edges in edge_sets) <= 1


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
    holders = [c for c in data.circuits if path <= dict(c).keys()]
    touchers = [c for c in data.circuits if dict(c).keys() & path]
    assert len(holders) == 1 and touchers == holders


def test_blanusa_g1_is_class2_and_has_class2_property():
    data = blanusa.build_chain(1)
    cert = colorings.class_property(data.chain.graph, sorted(data.matching), 2, [1, 2, 3])
    assert cert.verdict == "verified"
