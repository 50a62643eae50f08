"""Tests of the benchmark's own code: each reference check accepts the
program's output and rejects a corrupted copy, the class decider gives the
known verdicts, and every workload runs at reduced size without a failure.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import signal
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (WORKLOADS, Rec, Run, check_balanced, check_class,  # noqa: E402
                       import_circflow, plain, random_cubic, run_workload)


@pytest.fixture(scope="module")
def cf():
    return import_circflow()


def flower_matching(n: int) -> list[str]:
    return sorted([f"ab{i}" for i in range(2 * n + 1)] + [f"dc{i}" for i in range(2 * n + 1)])


def test_flow_checker_rejects_a_shifted_value(cf):
    d = cf.flows.build_flower_flow(2)
    vs, es = plain(d.graph)
    r, arcs = ref.parse_flow_text(cf.flows.write_flow(d.flow))
    ref.check_flow(vs, es, r, arcs)
    eid = es[0][0]
    tail, head, value = arcs[eid]
    arcs[eid] = (tail, head, value + Fraction(1, 7))
    with pytest.raises(ref.CheckFailed, match="conservation"):
        ref.check_flow(vs, es, r, arcs)


def swap_at_a_vertex(g, colors: dict) -> dict:
    """Swap the colors of two differently colored edges at the first vertex
    whose two such edges lead to different neighbours."""
    for v in g.vertices:
        inc = [g.edge(e) for e in g.incident_edges(v)]
        for e1 in inc:
            for e2 in inc:
                if colors[e1.eid] != colors[e2.eid] and e1.other(v) != e2.other(v):
                    out = dict(colors)
                    out[e1.eid], out[e2.eid] = colors[e2.eid], colors[e1.eid]
                    return out
    raise AssertionError("no swappable pair")


def test_coloring_checker_rejects_swapped_colors(cf):
    h, col = cf.flower_coloring.flower_plus_m_coloring(2, flower_matching(2))
    vs, es = plain(h)
    palette, mode, colors = ref.parse_coloring_text(cf.colorings.write_coloring(col))
    ref.check_coloring(vs, es, colors, palette, mode, regular=4)
    with pytest.raises(ref.CheckFailed, match="share a color"):
        ref.check_coloring(vs, es, swap_at_a_vertex(h, colors), palette, mode, regular=4)


def test_sees_odd_checker_rejects_swapped_colors(cf):
    data = cf.mp_coloring.mp_prime_coloring(1)
    g = data.family.graph
    vs, es = plain(g)
    colors = data.coloring.colors
    ref.check_coloring(vs, es, colors, 13, "sees-odd")
    with pytest.raises(ref.CheckFailed, match="even number"):
        ref.check_coloring(vs, es, swap_at_a_vertex(g, colors), 13, "sees-odd")


def test_class_decider_gives_the_known_verdicts(cf):
    pv, pe = plain(cf.families.petersen())
    pm = ref.perfect_matchings(pv, pe)[0]
    assert [ref.matched_class(pv, pe, pm, t) for t in (1, 2, 3)] == [2, 2, 2]
    jv, je = plain(cf.families.flower_snark(2).graph)
    m = frozenset(flower_matching(2))
    assert [ref.matched_class(jv, je, m, t) for t in (1, 2)] == [2, 1]
    j3v, j3e = plain(cf.families.flower_snark(1).graph)
    pms = ref.perfect_matchings(j3v, j3e)
    assert len(pms) == 8
    assert sum(ref.min_matching_cover(j3v, j3e, pm, 4) is None for pm in pms) == 6
    assert ref.min_matching_cover(pv, pe, frozenset(), 3) is None
    assert ref.min_matching_cover(*plain(cf.families.complete_graph(4)), frozenset(), 3) == 3


def test_class_check_rejects_a_flipped_verdict(cf, tmp_path):
    g = cf.families.flower_snark(2).graph
    m = flower_matching(2)
    cert = cf.colorings.class_property(g, m, 2, [1, 2])
    run = Run(cf, Tracer(False), tmp_path)
    path = tmp_path / "class.cert.json"
    path.write_text(cert.to_json())
    rec = Rec("class", "J5", g, path, {"matching": m, "ts": [1, 2]})
    check_class(run, rec)
    doc = json.loads(path.read_text())
    doc["certificate"]["witness"]["per_t"][0]["class"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ref.CheckFailed, match="t=1: class 1, reference 2"):
        check_class(run, rec)


def test_balanced_check_rejects_a_valuation_past_balance(cf, tmp_path):
    d = cf.flows.build_flower_flow(2)
    omega = cf.valuations.valuation_from_bipartition(d.graph, d.bipartition, d.flow.r)
    path = tmp_path / "balanced.cert.json"
    path.write_text(cf.valuations.check_balanced(d.graph, omega).to_json())
    rec = Rec("balanced", "J5", d.graph, path, {"flow": d.flow, "r": d.flow.r})
    run = Run(cf, Tracer(False), tmp_path)
    check_balanced(run, rec)
    doc = json.loads(path.read_text())
    doc["certificate"]["parameters"]["r"] = "43/10"  # below the least balancing value 9/2
    path.write_text(json.dumps(doc))
    with pytest.raises(ref.CheckFailed, match="finds the valuation unbalanced"):
        check_balanced(run, rec)


def test_flow_bound_check_rejects_a_moved_bound(cf):
    d = cf.flows.build_flower_flow(1)
    vs, es = plain(d.graph)
    k = {v: 1 if v in d.bipartition.black else -1 for v in vs}
    bound = cf.valuations.bipartition_to_flow_bound(d.graph, d.bipartition)
    ref.check_flow_bound(vs, es, k, bound)
    with pytest.raises(ref.CheckFailed, match="not balanced"):
        ref.check_flow_bound(vs, es, k, bound - Fraction(1, 10))
    with pytest.raises(ref.CheckFailed, match="not the least"):
        ref.check_flow_bound(vs, es, k, bound + Fraction(1, 10))


def test_phi_table_rejects_a_wrong_value(cf):
    pv, pe = plain(cf.families.petersen())
    ref.check_phi_value("Petersen", pv, pe, Fraction(5), {})
    with pytest.raises(ref.CheckFailed):
        ref.check_phi_value("Petersen", pv, pe, Fraction(6), {})
    vs, es = random_cubic(random.Random(5), 8)
    with pytest.raises(ref.CheckFailed):
        ref.check_phi_value("cubic8", vs, es, Fraction(9, 2), {})


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.TIME_METRICS) | set(tracing.COUNT_METRICS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "solve_s", "reverify_s", "peak_rss_mb"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_has_no_failed_operation(name, tmp_path):
    res = run_workload(name, seed=3, seconds=0, trace=True, out_root=tmp_path, scale="smoke")
    assert res["failed"] == 0, res["errors"]
    assert res["correct"], res["wrong"]
    assert res["attempted"] > 0
    assert all(value > 0 for value, _ in res["end_to_end"].values())
    assert set(res["per_layer"]) == set(tracing.TIME_METRICS) | set(tracing.COUNT_METRICS)
    assert all(value > 0 for value in res["per_layer"].values())
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)  # the speed clock is stopped

