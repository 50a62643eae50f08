import random

import pytest

from circflow import families, flower_coloring
from circflow.colorings import is_proper
from circflow.flower_coloring import (
    FlowerColoringCounterexample,
    build_gadget_table,
    flower_plus_m_coloring,
    load_gadget_table,
)
from circflow.multigraph import add_matching_copies, perfect_matchings


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


def test_j5_all_matchings():
    g = families.flower_snark(2).graph
    pms = perfect_matchings(g)
    assert len(pms) == 32
    for pm in pms:
        h, coloring = flower_plus_m_coloring(2, sorted(pm))
        ok, clash = is_proper(h, coloring)
        assert ok, clash
        assert coloring.palette == 4


def test_j7_random_matchings():
    g = families.flower_snark(3).graph
    pms = sorted(perfect_matchings(g), key=sorted)
    rng = random.Random(20260810)
    for pm in rng.sample(pms, 20):
        h, coloring = flower_plus_m_coloring(3, sorted(pm))
        ok, clash = is_proper(h, coloring)
        assert ok, clash


def test_j9_random_matching():
    g = families.flower_snark(4).graph
    pms = sorted(perfect_matchings(g), key=sorted)
    pm = random.Random(9).choice(pms)
    h, coloring = flower_plus_m_coloring(4, sorted(pm))
    ok, _ = is_proper(h, coloring)
    assert ok


def test_rejects_non_matching():
    with pytest.raises(Exception):
        flower_plus_m_coloring(2, ["ab0", "ab1"])


def test_theorem_matching_always_succeeds():
    # the matching used by the flow construction is triangle-free for all n
    from circflow.flows import build_flower_flow

    for n in (1, 2, 3):
        data = build_flower_flow(n)
        h, coloring = flower_plus_m_coloring(n, sorted(data.matching))
        ok, _ = is_proper(h, coloring)
        assert ok
