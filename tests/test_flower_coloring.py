import pytest

from circflow import families
from circflow.colorings import ColoringError, _Deadline, is_proper
from circflow.flower_coloring import (
    FlowerColoringCounterexample,
    build_gadget_table,
    flower_plus_m_coloring,
    load_gadget_table,
)
from circflow.multigraph import GraphError, add_matching_copies, perfect_matchings

from _oracles import matching_cover_oracle


def brute_force_4_colorable(g):
    """Independent oracle: plain recursive exhaustive 4-edge-coloring.

    Edges are taken in breadth-first order, so each one meets colored
    neighbours early.  Colors not used yet are interchangeable, so only the
    lowest of them is tried: the colors in use are always 0..top-1.
    """
    edges, seen = [], set()
    for root in g.vertices:
        queue, reached = [root], {root}
        for u in queue:
            for eid in g.incident_edges(u):
                e = g.edge(eid)
                if eid not in seen:
                    seen.add(eid)
                    edges.append((e.u, e.v))
                w = e.other(u)
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
    used = {v: set() for v in g.vertices}

    def rec(i, top):
        if i == len(edges):
            return True
        u, v = edges[i]
        for c in range(min(top + 1, 4)):
            if c in used[u] or c in used[v]:
                continue
            used[u].add(c)
            used[v].add(c)
            if rec(i + 1, max(top, c + 1)):
                return True
            used[u].remove(c)
            used[v].remove(c)
        return False

    return rec(0, 0)


def test_gadget_table_regenerates_identically():
    assert load_gadget_table() == build_gadget_table()


def test_gadget_table_records_absences():
    table = load_gadget_table()
    assert any(v is None for v in table.values())
    assert any(v is not None for v in table.values())
    # case-1 all-equal boundaries are never extendable, matching the argument
    # that rules them out upstream
    for h in range(4):
        key = f"case1|mid=cd,dc|tau=-|A={h}|B={h}|C={h}"
        assert table[key] is None


def test_j3_oracle_matches_algorithm():
    """Oracle first: exhaustive 4-colorability of J3+M for all eight
    1-factors; the algorithm must succeed exactly on the colorable ones."""
    g = families.flower_snark(1).graph
    outcomes = {}
    for pm in perfect_matchings(g):
        h = add_matching_copies(g, sorted(pm), 1)
        outcomes[pm] = brute_force_4_colorable(h)
    # ground truth: exactly the two triangle-free 1-factors are colorable
    colorable = {pm for pm, ok in outcomes.items() if ok}
    assert len(outcomes) == 8 and len(colorable) == 2
    for pm in colorable:
        assert not any(e.startswith("aa") for e in pm)

    for pm in outcomes:
        if pm in colorable:
            h, coloring = flower_plus_m_coloring(1, sorted(pm))
            ok, clash = is_proper(h, coloring)
            assert ok, clash
        else:
            with pytest.raises(FlowerColoringCounterexample):
                flower_plus_m_coloring(1, sorted(pm))


def assert_all_colorable(n, count):
    g = families.flower_snark(n).graph
    pms = perfect_matchings(g)
    assert len(pms) == count
    for pm in pms:
        h, coloring = flower_plus_m_coloring(n, sorted(pm))
        ok, clash = is_proper(h, coloring)
        assert ok, clash
        assert coloring.palette == 4


def test_j5_all_matchings():
    assert_all_colorable(2, 32)


def test_j7_all_matchings():
    assert_all_colorable(3, 128)


def test_j9_all_matchings():
    assert_all_colorable(4, 512)


def test_rejects_non_matching():
    # ab0 and ab1 are disjoint, ab0 and bc0 share b0: not perfect, not a matching
    not_perfect = "the added edge set must be a perfect matching"
    for matching, error, message in [
            (["zz"], GraphError, "unknown edge id 'zz'"),
            (["ab0", "ab1"], ColoringError, not_perfect),
            (["ab0", "ab0"], ColoringError, not_perfect),
            ([], ColoringError, not_perfect),
            (["ab0", "bc0"], ColoringError, not_perfect)]:
        with pytest.raises(error, match=f"^{message}$") as info:
            flower_plus_m_coloring(2, matching)
        assert type(info.value) is error


@pytest.mark.parametrize("n", [1, 2, 3])
def test_colorings_equal_the_oracle_cover_of_h(n):
    """The search on J_{2n+1}'s support names its colors as the oracle's
    cover of the built H = J_{2n+1} + M does, in the same dict order."""
    g = families.flower_snark(n).graph
    for pm in perfect_matchings(g):
        h = add_matching_copies(g, sorted(pm), 1)
        expected = matching_cover_oracle(h, _Deadline(None))
        if expected is None:
            with pytest.raises(FlowerColoringCounterexample):
                flower_plus_m_coloring(n, sorted(pm))
            continue
        got_h, coloring = flower_plus_m_coloring(n, sorted(pm))
        assert got_h == h and list(got_h.edge_ids) == list(h.edge_ids)
        assert list(coloring.colors.items()) == list(expected.items())


def test_theorem_matching_always_succeeds():
    # the matching used by the flow construction is triangle-free for all n
    from circflow.flows import build_flower_flow

    for n in (1, 2, 3):
        data = build_flower_flow(n)
        h, coloring = flower_plus_m_coloring(n, sorted(data.matching))
        ok, _ = is_proper(h, coloring)
        assert ok


def test_coloring_every_j5_matching_builds_j5_once(monkeypatch):
    from circflow.flows import build_flower_flow
    from circflow.multigraph import Multigraph

    j5_edges = list(families.flower_snark(2).graph.edge_ids)
    families.flower_snark.cache_clear()
    built = []
    init = Multigraph.__init__

    def counting(self, vertices=(), edges=()):
        edges = list(edges)
        if [e[0] for e in edges] == j5_edges:
            built.append(self)
        init(self, vertices, edges)

    monkeypatch.setattr(Multigraph, "__init__", counting)
    pms = perfect_matchings(families.flower_snark(2).graph)
    assert len(pms) == 32
    for pm in pms:
        flower_plus_m_coloring(2, sorted(pm))
    assert build_flower_flow(2).graph is families.flower_snark(2).graph
    assert len(built) == 1
