import hashlib
import json
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from circflow import cli, colorings, families, flows, multigraph, valuations
from circflow.certificates import (
    Certificate,
    CertificateError,
    certificate_from_json,
    graph_hash,
    make_certificate,
    rat,
    reverify,
    unrat,
)
from circflow.multigraph import (
    Multigraph,
    add_matching_copies,
    edge_cut,
    perfect_matchings,
    serialize,
)

from _oracles import _graph_hash_oracle, _rat_oracle, to_json_oracle


def test_rational_strings():
    assert rat(Fraction(9, 2)) == "9/2"
    assert rat(4) == "4/1"
    assert unrat("9/2") == Fraction(9, 2)
    assert unrat("7") == Fraction(7)
    assert unrat("-9/2") == Fraction(-9, 2)
    assert unrat("-7") == Fraction(-7)
    assert unrat("6/4") == Fraction(3, 2)
    with pytest.raises(ValueError, match="zero denominator"):
        unrat("3/0")


@pytest.mark.parametrize("s", ["3/", "/3", "1_0/3", " 3/2", "3/2 ", "3/2\n", "\u0663/\u0662", "+3/2",
                               "3/-2", "-3/-2", "3.5", "3/2/1", "", "-", "0x3", "3e2"])
def test_unrat_reads_only_the_rat_grammar(s):
    with pytest.raises(ValueError, match="malformed rational"):
        unrat(s)


@pytest.mark.parametrize("kind,value", [
    pytest.param("phi-c-value", "3/", id="3/"),
    pytest.param("phi-c-value", "1_0/3", id="1_0/3"),
    pytest.param("phi-c-value", "\u0663/1", id="\u0663/1"),
    pytest.param("balanced", "1_3/1", id="balanced-1_3/1"),
    pytest.param("inequality-check", "x", id="inequality-x"),
])
def test_a_certificate_with_a_malformed_rational_is_not_read_as_one(kind, value, tmp_path):
    # the flow values once read as 3, 10/3 or 3 and the certificate reverified;
    # each rational here once escaped reverify as a bare ValueError
    cert, g = {"phi-c-value": _phi_c, "balanced": lambda: _balanced(Fraction(4), K4_K),
               "inequality-check": _inequality}[kind]()
    old = {"phi-c-value": '"value":"3/1"', "balanced": '"r":"4/1"',
           "inequality-check": '"bound":%s' % json.dumps(cert.parameters.get("bound"))}[kind]
    text = cert.to_json()
    doc = text.replace(old, old[:old.index(":") + 1] + json.dumps(value), 1)
    assert doc != text
    back = certificate_from_json(doc)
    message = f"malformed certificate: {ValueError(f'malformed rational {value!r}')!r}"
    with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
        reverify(back, g)
    (tmp_path / "g.graph").write_text(serialize(g))
    (tmp_path / "c.cert.json").write_text(doc)
    assert cli.main(["reverify", str(tmp_path / "g.graph"), str(tmp_path / "c.cert.json")]) == cli.EXIT_USAGE


@pytest.mark.parametrize("elapsed", ['"x"', "[1]", "null", "true", "{}"])
def test_a_non_numeric_elapsed_time_is_a_certificate_error(elapsed):
    k4 = families.complete_graph(4)
    text = flows.phi_c_certificate(k4, flows.circular_flow_number(k4), elapsed_s=1.5).to_json()
    doc = text.replace('"elapsed_s":1.5', '"elapsed_s":' + elapsed)
    assert doc != text
    with pytest.raises(CertificateError, match="meta.elapsed_s is not a number"):
        certificate_from_json(doc)


@pytest.mark.parametrize("meta,elapsed", [('{"elapsed_s":2}', 2.0), ('{"elapsed_s":1e-3}', 0.001),
                                          ("{}", 0.0)])
def test_a_numeric_or_missing_elapsed_time_reads(meta, elapsed):
    k4 = families.complete_graph(4)
    text = flows.phi_c_certificate(k4, flows.circular_flow_number(k4), elapsed_s=1.5).to_json()
    cert = certificate_from_json(text.replace('{"elapsed_s":1.5}', meta))
    assert type(cert.elapsed_s) is float and cert.elapsed_s == elapsed


def test_round_trip_and_canonical_bytes():
    k4 = families.complete_graph(4)
    result = flows.circular_flow_number(k4)
    cert = flows.phi_c_certificate(k4, result, elapsed_s=1.23)
    back = certificate_from_json(cert.to_json())
    assert back.canonical_bytes() == cert.canonical_bytes()
    assert back.verdict == cert.verdict
    # elapsed time lives outside the canonical payload
    again = flows.phi_c_certificate(k4, result, elapsed_s=9.99)
    assert again.canonical_bytes() == cert.canonical_bytes()
    assert again.certificate_sha256() == cert.certificate_sha256()


def test_reverify_flow_certificate():
    k4 = families.complete_graph(4)
    result = flows.circular_flow_number(k4)
    cert = flows.phi_c_certificate(k4, result)
    assert reverify(cert, k4)


def test_reverify_detects_tampered_value():
    k4 = families.complete_graph(4)
    result = flows.circular_flow_number(k4)
    cert = flows.phi_c_certificate(k4, result)
    text = cert.to_json()
    doc = text.replace('"value":"3/1"', '"value":"17/1"', 1)
    assert doc != text
    tampered = certificate_from_json(doc)
    assert sum(e["value"] == "17/1" for e in tampered.witness["flow"]["edges"].values()) == 1
    assert not reverify(tampered, k4)


def test_reverify_rejects_wrong_graph():
    k4 = families.complete_graph(4)
    cert = flows.phi_c_certificate(k4, flows.circular_flow_number(k4))
    with pytest.raises(CertificateError):
        reverify(cert, families.complete_graph(6))


def test_reverify_chromatic_index():
    p = families.petersen()
    result = colorings.chromatic_index(p)
    cert = colorings.chromatic_index_certificate(p, result)
    assert reverify(cert, p)
    broken = certificate_from_json(cert.to_json())
    eid = next(iter(broken.witness["coloring"]))
    neighbor = next(e for e in p.edge_ids
                    if e != eid and p.edge(e).ends & p.edge(eid).ends)
    broken.witness["coloring"][eid] = broken.witness["coloring"][neighbor]
    assert not reverify(broken, p)


def test_reverify_class_property_reruns_refutation():
    p = families.petersen()
    pm = sorted(perfect_matchings(p)[0])
    cert = colorings.class_property(p, pm, 2, [1, 2])
    assert cert.verdict == "verified"
    assert reverify(cert, p)


def test_reverify_balanced_and_parity():
    from circflow import valuations
    from circflow.multigraph import edge_cut

    k4 = families.complete_graph(4)
    flow = flows.circular_flow_number(k4).flow
    bip = valuations.flow_to_bipartition(k4, flow)
    omega = valuations.valuation_from_bipartition(k4, bip, flow.r)
    cert = valuations.check_balanced(k4, omega)
    assert reverify(cert, k4)

    coloring = colorings.chromatic_index(k4).coloring
    pcert = colorings.parity_lemma_check(k4, coloring, [edge_cut(k4, ["v1"])])
    assert reverify(pcert, k4)


def test_unknown_kind_rejected():
    with pytest.raises(CertificateError):
        Certificate("bogus-kind", "0" * 64, {}, {}, "verified")
    with pytest.raises(CertificateError):
        Certificate("flow-valid", "0" * 64, {}, {}, "maybe")


def test_canonical_serialization_is_stable():
    k4 = families.complete_graph(4)
    a = make_certificate("parity", k4, {"z": 1, "a": 2}, {"y": [3, 2]}, "verified")
    b = make_certificate("parity", k4, {"a": 2, "z": 1}, {"y": [3, 2]}, "verified")
    assert a.canonical_bytes() == b.canonical_bytes()


def test_a_certificate_keeps_the_data_it_is_given():
    k4 = families.complete_graph(4)
    params, witness = {"r": "4/1"}, {"y": [3, 2]}
    cert = make_certificate("parity", k4, params, witness, "verified")
    assert cert.parameters is params and cert.witness is witness
    # nothing re-normalizes: a Fraction left in fails to serialize
    with pytest.raises(TypeError):
        make_certificate("parity", k4, {"r": Fraction(4)}, witness, "verified").to_json()


def test_graph_hash_ignores_construction_order():
    g1 = families.complete_graph(4)
    g2 = g1.relabeled({})  # identity copy
    assert graph_hash(g1) == graph_hash(g2)


@given(st.fractions() | st.integers() | st.booleans() | st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_rat_matches_the_fraction_oracle(x):
    assert rat(x) == _rat_oracle(x)


def _k33():
    return Multigraph([f"a{i}" for i in range(3)] + [f"b{i}" for i in range(3)],
                      [(f"e{i}{j}", f"a{i}", f"b{j}") for i in range(3) for j in range(3)])


PINNED_PHI_C = [
    ("K4", lambda: families.complete_graph(4),
     "fca095b69f99b19fe3caece0358fc87a488cb0fd96235ef7e6869d5159086307"),
    ("K33", _k33, "f52440b3f9ccc0460311d524c1ad89f5719dd5e3d5a474e7ffd01c4295c0f041"),
    ("Petersen", families.petersen, "8eb85eaeda7cfbfadf383bb520e5c7e03ecf83a12c5b7c9348499e50db39d969"),
    ("J3", lambda: families.flower_snark(1).graph,
     "1948265c74e4dc7d140e285a07232f9af1e124ab2ccdd5763727a5d923dff7a2"),
]


@pytest.mark.parametrize("name,make,sha", PINNED_PHI_C)
def test_phi_c_certificate_bytes_are_pinned(name, make, sha):
    g = make()
    assert flows.phi_c_certificate(g, flows.circular_flow_number(g)).certificate_sha256() == sha


def test_flow_and_inequality_certificate_bytes_are_pinned():
    d = flows.build_flower_flow(2)
    cert = flows.verify_flow(d.graph, d.flow)
    assert cert.certificate_sha256() == "cb3f016f16f8ecc064cf5ec7ab34459b927ba8697e748dbd70f36a2840aedc23"
    j3 = flows.build_flower_flow(1)
    m = sorted(j3.matching)
    cert = valuations.matched_bipartition_inequality_check(j3.graph, j3.flow, m, 2)
    assert cert.verdict == "verified"
    # J3 carries a 5-flow, so at t = 2 the bound is 11/4 and g's values map x -> 1 + (x-1)/4
    edges = {eid: {"tail": a, "head": b, "value": rat(1 + (j3.flow.values[eid] - 1) / 4)}
             for eid, (a, b) in j3.flow.orientation.items()}
    for eid in m:
        e = j3.graph.edge(eid)
        white, black = (e.u, e.v) if e.u in j3.bipartition.white else (e.v, e.u)
        edges[f"{eid}@c1"] = {"tail": white, "head": black, "value": "1/1"}
        edges[f"{eid}@c2"] = {"tail": black, "head": white, "value": "7/4"}
    assert cert.witness["flow"] == {"r": "11/4", "mode": "nowhere-zero", "zero_edge": None, "edges": edges}
    assert cert.certificate_sha256() == "83774498094e42f88980a82bcea1297aec78afb060f4c508872c11713be49d52"


def test_graph_hash_is_fresh_for_every_derived_graph():
    k4 = families.complete_graph(4)
    assert graph_hash(k4) == _graph_hash_oracle(k4)
    derived = [k4.relabeled({"v1": "w"}), k4.relabeled({}, {"v1v2": "f"}),
               k4.with_edges_removed(["v1v2"]), add_matching_copies(k4, ["v1v2", "v3v4"], 1),
               k4.relabeled({})]
    for h in derived:
        assert graph_hash(h) == _graph_hash_oracle(h)
    # only the identity copy shares k4's hash
    assert len({graph_hash(h) for h in [k4, *derived]}) == len(derived)
    assert graph_hash(derived[-1]) == graph_hash(k4)


def _flow_refuted():
    d = flows.build_flower_flow(1)
    eid = sorted(d.flow.values)[0]
    bad = flows.RationalFlow(d.flow.orientation, {**d.flow.values, eid: Fraction(7)}, d.flow.r)
    return flows.verify_flow(d.graph, bad), d.graph


def _phi_c():
    k4 = families.complete_graph(4)
    return flows.phi_c_certificate(k4, flows.circular_flow_number(k4), elapsed_s=0.1), k4


def _chromatic(exact):
    p = families.petersen()
    result = colorings.chromatic_index(p)
    if not exact:  # what a spent budget leaves: bounds and no coloring
        result = colorings.ChromaticIndexResult(None, None, 3, 4, "budget", (), 7)
    return colorings.chromatic_index_certificate(p, result, elapsed_s=0.25), p


def _parity(verified):
    if verified:
        g = families.complete_graph(4)
        coloring = colorings.chromatic_index(g).coloring
        return colorings.parity_lemma_check(g, coloring, [edge_cut(g, ["v1"])]), g
    # four parallel edges: each color crosses the cut {a} once, the cut is even
    g = Multigraph(["a", "b"], [(f"e{i}", "a", "b") for i in range(4)])
    coloring = colorings.EdgeColoring({f"e{i}": i for i in range(4)}, 4)
    return colorings.parity_lemma_check(g, coloring, [edge_cut(g, ["a"])]), g


def _class(budget=False):
    p = families.petersen()
    pm = sorted(perfect_matchings(p)[0])
    if budget:  # every search runs out of budget
        with mock.patch.object(colorings, "_matching_cover",
                               side_effect=colorings.SearchBudgetExceeded):
            return colorings.class_property(p, pm, 2, [1, 2]), p
    return colorings.class_property(p, pm, 2, [1, 2]), p


def _class_refuted():
    # J5 + 2M is class 1 for the matching of its ab and dc edges
    j5 = families.flower_snark(2).graph
    m = sorted(e for e in j5.edge_ids if e.startswith(("ab", "dc")))
    return colorings.class_property(j5, m, 2, [1, 2]), j5


def _prover(declined):
    from circflow import blanusa

    seed = blanusa.load_or_find_seed()
    dp = seed.dot_product
    product = seed.product()
    # a factor certified class 1 (refuted) instead of class 2 makes the prover decline
    c1 = colorings.class_property(product.spec.g, dp["n1"], 1 if declined else 2, [2])
    c2 = colorings.class_property(product.spec.h, dp["n2"], 2, [2])
    return colorings.dot_product_class2_prover(product, c1, c2, 2), product.graph


K4_K = {"v1": 1, "v2": 1, "v3": -1, "v4": -1}


def _balanced(r, k):
    k4 = families.complete_graph(4)
    return valuations.check_balanced(k4, valuations.BalancedValuation(r, k)), k4


def _inequality():
    j3 = flows.build_flower_flow(1)
    m = sorted(j3.matching)
    cert = valuations.matched_bipartition_inequality_check(j3.graph, j3.flow, m, 2)
    return cert, add_matching_copies(j3.graph, m, 2)


EVERY_CERTIFICATE = [
    ("flow-valid", "verified", lambda: (lambda d: (flows.verify_flow(d.graph, d.flow), d.graph))(
        flows.build_flower_flow(2))),
    ("flow-valid", "refuted", _flow_refuted),
    ("phi-c-value", "verified", _phi_c),
    ("chromatic-index", "verified", lambda: _chromatic(True)),
    ("chromatic-index", "inconclusive", lambda: _chromatic(False)),
    ("parity", "verified", lambda: _parity(True)),
    ("parity", "refuted", lambda: _parity(False)),
    ("class-property", "verified", _class),
    ("class-property", "refuted", _class_refuted),
    ("class-property", "inconclusive", lambda: _class(budget=True)),
    ("class-property", "verified", lambda: _prover(False)),
    ("class-property", "inconclusive", lambda: _prover(True)),
    ("balanced", "verified", lambda: _balanced(Fraction(4), K4_K)),
    ("balanced", "refuted", lambda: _balanced(Fraction(4), {**K4_K, "v4": 1})),
    ("balanced", "refuted", lambda: _balanced(Fraction(3), K4_K)),
    ("inequality-check", "verified", _inequality),
]


@pytest.mark.parametrize("kind,verdict,make", EVERY_CERTIFICATE,
                         ids=["flow-verified", "flow-refuted", "phi-c", "chi-exact", "chi-bounds",
                              "parity-verified", "parity-refuted", "class-verified",
                              "class-refuted", "class-budget", "class-prover", "class-declined",
                              "balanced-verified", "balanced-total", "balanced-subset",
                              "inequality"])
def test_every_certificate_reads_back_as_written(kind, verdict, make):
    cert, g = make()
    assert (cert.kind, cert.verdict) == (kind, verdict)
    text = cert.to_json()
    back = certificate_from_json(text)
    assert back == cert
    assert back.to_json() == text
    assert back.canonical_bytes() == cert.canonical_bytes()
    assert reverify(back, g)
    # the file holds the JSON value the indent=2 encoder wrote, and its
    # certificate member is the canonical text that the hash covers
    oracle = to_json_oracle(cert)
    assert json.loads(text) == json.loads(oracle)
    head, tail = '{"certificate":', ',"meta":'
    assert text.startswith(head) and text.endswith("}\n")
    member = text[len(head):text.rindex(tail)]
    assert member == cert.canonical_bytes().decode()
    assert hashlib.sha256(member.encode()).hexdigest() == cert.certificate_sha256()
    # a file in the indent=2 layout reads as the same certificate and reverifies
    old = certificate_from_json(oracle)
    assert old == cert and old.to_json() == text
    assert reverify(old, g)


def _forged_parity():
    # K4's parity certificate with one edge recolored to a neighbour's color
    cert, g = _parity(True)
    colors = cert.witness["coloring"]
    eid = sorted(colors)[0]
    neighbour = next(e for e in g.edge_ids if e != eid and g.edge(e).ends & g.edge(eid).ends)
    colors[eid] = colors[neighbour]
    return cert, g


def _forged_flow():
    # J3's flow-valid certificate with edge ab0 dropped from its flow
    d = flows.build_flower_flow(1)
    cert = flows.verify_flow(d.graph, d.flow)
    del cert.witness["flow"]["edges"]["ab0"]
    return cert, d.graph


def _forged_phi_c_zero_edge():
    # phi_c(K4) claimed as 2 (it is 4) by an integer 4-flow with the zero edge v3v4
    k4 = families.complete_graph(4)
    arcs = {"v1v2": ("v2", "v1", 2), "v1v3": ("v1", "v3", 1), "v1v4": ("v1", "v4", 1),
            "v2v3": ("v3", "v2", 1), "v2v4": ("v4", "v2", 1), "v3v4": ("v3", "v4", 0)}
    flow = {"r": "2/1", "mode": flows.INTEGER_ONE_ZERO, "zero_edge": "v3v4",
            "edges": {eid: {"tail": t, "head": h, "value": rat(x)} for eid, (t, h, x) in arcs.items()}}
    return make_certificate("phi-c-value", k4, {"r": "2/1"}, {"flow": flow}, "verified"), k4


def _verified_balanced(name):
    """K4 at r = 4, or Petersen at 5 with its flow's bipartition: verified."""
    if name == "K4":
        return _balanced(Fraction(4), K4_K)
    p = families.petersen()
    flow = flows.circular_flow_number(p).flow
    omega = valuations.valuation_from_bipartition(p, valuations.flow_to_bipartition(p, flow), flow.r)
    return valuations.check_balanced(p, omega), p


def _first_record(cert):
    edges = cert.witness["flow"]["edges"]
    return edges[min(edges)]


def _value_at_r(cert):
    _first_record(cert)["value"] = cert.parameters["r"]


def _tail_and_head_swapped(cert):
    rec = _first_record(cert)
    rec["tail"], rec["head"] = rec["head"], rec["tail"]


def _k_moved_by_two(cert):
    k = cert.parameters["k"]
    k[min(k)] += 2


def _r_edited(cert):
    cert.parameters["r"] = rat(unrat(cert.parameters["r"]) + 1)


def _subsets_edited(cert):
    cert.witness["subsets_checked"] -= 1


def _field_added(cert):
    cert.witness["violating_subset"] = ["v1"]


def _forged_balanced(name, edit):
    def forge():
        cert, g = _verified_balanced(name)
        edit(cert)
        return cert, g
    return forge


@pytest.mark.parametrize("forge", [
    _forged_parity, _forged_flow, _forged_phi_c_zero_edge,
    _forged_balanced("Petersen", _value_at_r), _forged_balanced("K4", _tail_and_head_swapped),
    _forged_balanced("Petersen", _k_moved_by_two), _forged_balanced("K4", _r_edited),
    _forged_balanced("Petersen", _subsets_edited), _forged_balanced("K4", _field_added),
], ids=["parity", "flow", "phi-c-zero-edge", "balanced-value-at-r", "balanced-swapped",
        "balanced-k", "balanced-r", "balanced-subsets", "balanced-extra-field"])
def test_a_witness_the_recheck_rejects_is_not_reproduced(forge, tmp_path, capsys):
    cert, g = forge()
    assert cert.verdict == "verified"
    assert not reverify(certificate_from_json(cert.to_json()), g)
    graph, path = tmp_path / "g.graph", tmp_path / "g.cert.json"
    graph.write_text(serialize(g))
    path.write_text(cert.to_json())
    capsys.readouterr()
    assert cli.main(["reverify", str(graph), str(path)]) == cli.EXIT_REFUTED
    assert capsys.readouterr().out == "NOT reproduced\n"


def test_a_verified_balanced_certificate_without_its_flow_is_malformed():
    # the witness that earlier versions wrote, with no flow to re-check
    cert, g = _balanced(Fraction(4), K4_K)
    del cert.witness["flow"]
    assert cert.witness == {"subsets_checked": 15}
    with pytest.raises(CertificateError, match=re.escape("malformed certificate: KeyError('flow')")):
        reverify(certificate_from_json(cert.to_json()), g)


def test_reverify_of_the_jaeger_witnesses_runs_no_max_flow(monkeypatch):
    made = [_balanced(Fraction(4), K4_K), _balanced(Fraction(3), K4_K),
            _balanced(Fraction(4), {**K4_K, "v4": 1}), _inequality(), _phi_c()]
    assert [cert.verdict for cert, _ in made] == ["verified", "refuted", "refuted", "verified", "verified"]
    files = [(cert.to_json(), g) for cert, g in made]

    def forbidden(*args, **kwargs):
        raise AssertionError("reverify ran a max-flow")

    for module in (multigraph, flows, valuations):
        monkeypatch.setattr(module, "_max_flow", forbidden)
    for text, g in files:
        assert reverify(certificate_from_json(text), g)


def test_a_phi_c_bound_certificate_is_refused(tmp_path, capsys):
    # no producer emits the kind, so no certificate of it is read
    cert, g = _phi_c()
    doc = json.loads(cert.to_json())
    doc["certificate"]["kind"] = "phi-c-bound"
    with pytest.raises(CertificateError, match="unknown claim kind 'phi-c-bound'"):
        certificate_from_json(json.dumps(doc))
    graph, path = tmp_path / "k4.graph", tmp_path / "k4.cert.json"
    graph.write_text(serialize(g))
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["reverify", str(graph), str(path)]) == cli.EXIT_USAGE
    assert "unknown claim kind 'phi-c-bound'" in capsys.readouterr().err


def _ghost_edge(cert):
    """The certificate with one more edge, ``ghost``, in its witness flow,
    between the ends of its first edge."""
    edges = cert.witness["flow"]["edges"]
    first = edges[min(edges)]
    edges["ghost"] = {"tail": first["tail"], "head": first["head"], "value": "1/1"}
    return cert


def _ghost_in_flow_valid():
    d = flows.build_flower_flow(1)
    return _ghost_edge(flows.verify_flow(d.graph, d.flow)), d.graph


def _ghost_in_phi_c():
    cert, g = _phi_c()
    return _ghost_edge(cert), g


def _ghost_in_inequality_witness():
    cert, h = _inequality()
    return _ghost_edge(cert), h


def _ghost_in_inequality_matching():
    cert, h = _inequality()
    cert.parameters["matching"].append("ghost")
    return cert, h


@pytest.mark.parametrize("forge", [_ghost_in_flow_valid, _ghost_in_phi_c,
                                   _ghost_in_inequality_witness, _ghost_in_inequality_matching],
                         ids=["flow-valid", "phi-c", "inequality-flow", "inequality-matching"])
def test_a_witness_naming_an_unknown_edge_is_not_reproduced(forge, tmp_path, capsys):
    cert, g = forge()
    assert cert.verdict == "verified" and not g.has_edge("ghost")
    assert not reverify(certificate_from_json(cert.to_json()), g)
    graph, path = tmp_path / "g.graph", tmp_path / "g.cert.json"
    graph.write_text(serialize(g))
    path.write_text(cert.to_json())
    capsys.readouterr()
    assert cli.main(["reverify", str(graph), str(path)]) == cli.EXIT_REFUTED
    assert capsys.readouterr().out == "NOT reproduced\n"


def _coloring_of(cert):
    """The witness coloring a chromatic-index or class-property certificate
    names: the exact coloring, or the first class-1 entry's."""
    if cert.kind == "chromatic-index":
        return cert.witness["coloring"]
    return next(e["coloring"] for e in cert.witness["per_t"] if e.get("class") == 1)


def _with_ghost(colors):
    colors["ghost"] = 0


def _with_an_edge_dropped(colors):
    del colors[min(colors)]


@pytest.mark.parametrize("make", [lambda: _chromatic(True), _class_refuted],
                         ids=["chromatic-index", "class-property"])
@pytest.mark.parametrize("edit", [_with_ghost, _with_an_edge_dropped], ids=["ghost", "dropped"])
def test_a_coloring_on_other_edges_is_not_reproduced(make, edit, tmp_path, capsys):
    cert, g = make()
    assert reverify(cert, g)
    edit(_coloring_of(cert))
    assert not reverify(certificate_from_json(cert.to_json()), g)
    graph, path = tmp_path / "g.graph", tmp_path / "g.cert.json"
    graph.write_text(serialize(g))
    path.write_text(cert.to_json())
    capsys.readouterr()
    assert cli.main(["reverify", str(graph), str(path)]) == cli.EXIT_REFUTED
    assert capsys.readouterr().out == "NOT reproduced\n"


@pytest.mark.parametrize("violation,reproduced", [
    ({}, False),
    ({"edge": "cd0", "value": "1/1"}, False),
    ({"conservation_at": ["a0", "a1"]}, True),
])
def test_a_refuted_flow_must_name_its_own_violation(violation, reproduced):
    cert, g = _flow_refuted()
    assert cert.verdict == "refuted"
    assert cert.witness["violation"] == {"conservation_at": ["a0", "a1"]}
    cert.witness["violation"] = violation
    assert reverify(certificate_from_json(cert.to_json()), g) is reproduced
