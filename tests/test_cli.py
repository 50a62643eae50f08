import json
from pathlib import Path

import pytest

from circflow import cli, families, flows
from circflow.certificates import certificate_from_json, rat, unrat
from circflow.cli import main
from circflow.multigraph import deserialize, serialize

from _oracles import to_json_oracle


def run(*argv):
    return main([str(a) for a in argv])


def test_construct_and_flow_number(tmp_path):
    graph = tmp_path / "k4.graph"
    assert run("construct", "--family", "complete", "--m", 4, "--out", graph) == 0
    cert = tmp_path / "k4.cert.json"
    assert run("flow-number", graph, "--out", cert) == 0
    doc = json.loads(cert.read_text())
    assert doc["certificate"]["parameters"]["r"] == "4/1"


def test_construct_blanusa_chain_command(tmp_path):
    for n, order in ((1, 18), (2, 34)):
        graph = tmp_path / f"g{n}.graph"
        assert run("construct", "--family", "blanusa-chain", "--n", n, "--out", graph) == 0
        g = deserialize(graph.read_text())
        assert g.num_vertices() == order and g.is_regular(3)


def test_flow_number_budget_and_bridge(tmp_path, capsys):
    graph = tmp_path / "j7.graph"
    run("construct", "--family", "flower", "--n", 3, "--out", graph)
    capsys.readouterr()
    assert run("flow-number", graph, "--budget", 0.05) == cli.EXIT_INCONCLUSIVE
    assert capsys.readouterr().out.startswith("inconclusive: ")
    bridge = tmp_path / "path.graph"
    bridge.write_text("circflow-graph v1\nvertex a\nvertex b\nedge e a b\n")
    assert run("flow-number", bridge) == cli.EXIT_REFUTED


def test_build_and_verify_flow(tmp_path):
    flowfile = tmp_path / "flower.flow"
    graphfile = tmp_path / "flower.graph"
    assert run("build-flow", "--family", "flower", "--n", 2,
               "--out", flowfile, "--out-graph", graphfile) == 0
    assert run("verify-flow", graphfile, flowfile) == 0
    # tamper: scale one value
    text = flowfile.read_text().replace("ab0 a0 b0 1/1", "ab0 a0 b0 7/1")
    flowfile.write_text(text)
    assert run("verify-flow", graphfile, flowfile) == cli.EXIT_REFUTED


def test_chromatic_index_command(tmp_path):
    graph = tmp_path / "p.graph"
    run("construct", "--family", "petersen", "--out", graph)
    cert = tmp_path / "chi.cert.json"
    assert run("chromatic-index", graph, "--out", cert) == 0
    doc = json.loads(cert.read_text())
    assert doc["certificate"]["witness"]["value"] == 4


def test_color_command_flower(tmp_path):
    data = flows.build_flower_flow(2)
    mfile = tmp_path / "m.txt"
    mfile.write_text("\n".join(sorted(data.matching)) + "\n")
    out = tmp_path / "c.coloring"
    assert run("color", "--construction", "flower-plus-m", "--n", 2,
               "--matching", mfile, "--out", out) == 0
    assert out.read_text().startswith("circflow-coloring v1")


def test_color_command_refutes_a_j3_triangle_matching(tmp_path, capsys):
    mfile = tmp_path / "m.txt"
    mfile.write_text("aa1\nab0\nbc1\nbd2\ncd0\ncd2\n")
    out = tmp_path / "c.coloring"
    assert run("color", "--construction", "flower-plus-m", "--n", 1,
               "--matching", mfile, "--out", out) == cli.EXIT_REFUTED
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("refuted: J_3")
    assert not out.exists()


def test_color_command_flower_without_matching_is_a_usage_error(capsys):
    assert run("color", "--construction", "flower-plus-m", "--n", 1) == cli.EXIT_USAGE
    assert "needs --matching" in capsys.readouterr().err


def test_build_flow_bipartite_without_graph_is_a_usage_error(capsys):
    assert run("build-flow", "--family", "bipartite", "--t", 1) == cli.EXIT_USAGE
    assert "needs --graph" in capsys.readouterr().err


def test_color_command_mp(tmp_path):
    out = tmp_path / "mp.coloring"
    gout = tmp_path / "mp.graph"
    assert run("color", "--construction", "mp-tilde", "--t", 1,
               "--out", out, "--out-graph", gout) == 0
    g = deserialize(gout.read_text())
    assert g.is_regular(13)


def test_class_property_command(tmp_path):
    graph = tmp_path / "p.graph"
    run("construct", "--family", "petersen", "--out", graph)
    from circflow.multigraph import perfect_matchings

    pm = sorted(perfect_matchings(families.petersen())[0])
    mfile = tmp_path / "m.txt"
    mfile.write_text("\n".join(pm) + "\n")
    assert run("class-property", graph, "--matching", mfile,
               "--which", 2, "--t-range", "1,2") == 0
    assert run("class-property", graph, "--matching", mfile,
               "--which", 1, "--t-range", "1") == cli.EXIT_REFUTED


def test_check_balanced_command(tmp_path):
    k4 = families.complete_graph(4)
    graph = tmp_path / "k4.graph"
    graph.write_text(serialize(k4))
    val = tmp_path / "k4.valuation"
    # the valuation of K4's optimal 4-flow: weight k_v * r/(r-2) = 2 k_v
    val.write_text("circflow-valuation v1\nr 4/1\nv1 -2/1\nv2 2/1\nv3 2/1\nv4 -2/1\n")
    assert run("check-balanced", graph, val) == 0
    back = cli.read_valuation(val.read_text())
    assert back.k == {"v1": -1, "v2": 1, "v3": 1, "v4": -1} and back.r == 4
    # the certificate carries its witness flow, which reverify re-checks
    cert = tmp_path / "k4.cert.json"
    assert run("check-balanced", graph, val, "--out", cert) == 0
    assert run("reverify", graph, cert) == 0
    doc = json.loads(cert.read_text())
    edges = doc["certificate"]["witness"]["flow"]["edges"]
    first = edges[min(edges)]
    first["value"] = rat(unrat(first["value"]) + 1)  # conservation fails at its ends
    cert.write_text(json.dumps(doc))
    assert run("reverify", graph, cert) == cli.EXIT_REFUTED
    del doc["certificate"]["witness"]["flow"]
    cert.write_text(json.dumps(doc))
    assert run("reverify", graph, cert) == cli.EXIT_USAGE


@pytest.mark.parametrize("r", ["1", "3/2", "2"])
def test_valuation_file_needs_r_above_two(tmp_path, r):
    k4 = families.complete_graph(4)
    graph = tmp_path / "k4.graph"
    graph.write_text(serialize(k4))
    val = tmp_path / "k4.valuation"
    val.write_text(f"{cli.VALUATION_HEADER}\nr {r}\nv1 1\nv2 1\nv3 -1\nv4 -1\n")
    with pytest.raises(cli.UsageError):
        cli.read_valuation(val.read_text())
    assert run("check-balanced", graph, val) == cli.EXIT_USAGE


def test_asymptotic_bound_command(capsys):
    assert run("asymptotic-bound", "--t", 2, "--r", "9/2") == 0
    assert capsys.readouterr().out.strip() == "19/7"


def test_zero_denominators_are_usage_errors(tmp_path, capsys):
    assert run("asymptotic-bound", "--t", 2, "--r", "9/0") == cli.EXIT_USAGE
    k4 = families.complete_graph(4)
    graph = tmp_path / "k4.graph"
    graph.write_text(serialize(k4))
    val = tmp_path / "k4.valuation"
    val.write_text(f"{cli.VALUATION_HEADER}\nr 1/0\nv1 1\nv2 1\nv3 -1\nv4 -1\n")
    assert run("check-balanced", graph, val) == cli.EXIT_USAGE
    flow = tmp_path / "k4.flow"
    text = flows.write_flow(flows.circular_flow_number(k4).flow)
    flow.write_text(text.replace("r 4/1", "r 1/0"))
    assert run("verify-flow", graph, flow) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all("zero denominator" in line for line in err)


K2_FLOW = "circflow-flow v1\nr 2/1\nmode nowhere-zero\ne1 a b 1/1\ne2 b a 1/1\n"


@pytest.mark.parametrize("edit,message", [
    (("r 2/1", "r"), "malformed flow line 'r'"),
    (("mode nowhere-zero", "mode"), "malformed flow line 'mode'"),
    (("mode nowhere-zero", "mode nowhere-zero\nzero-edge"), "malformed flow line 'zero-edge'"),
    (("e2 b a 1/1", "e2 b a"), "malformed flow line 'e2 b a'"),
    (("e2 b a 1/1", "e2 b a 1/1 9"), "malformed flow line 'e2 b a 1/1 9'"),
    (("mode nowhere-zero", "mode bogus"), "unknown flow mode 'bogus'"),
    (("e1 a b 1/1", "e1 a b 5/1\ne1 a b 1/1"), "edge 'e1' appears twice"),
    (("r 2/1", "r 1/1\nr 2/1"), "header 'r' appears twice"),
    (("mode nowhere-zero", "mode nowhere-zero\nmode nowhere-zero"), "header 'mode' appears twice"),
    (("mode nowhere-zero", "zero-edge e1\nmode nowhere-zero\nzero-edge e1"),
     "header 'zero-edge' appears twice"),
])
def test_malformed_flow_files_are_usage_errors(tmp_path, capsys, edit, message):
    graph = tmp_path / "k2.graph"
    graph.write_text("circflow-graph v1\nvertex a\nvertex b\nedge e1 a b\nedge e2 a b\n")
    flow = tmp_path / "k2.flow"
    flow.write_text(K2_FLOW)
    assert run("verify-flow", graph, flow) == 0
    flow.write_text(K2_FLOW.replace(*edit))
    capsys.readouterr()
    assert run("verify-flow", graph, flow) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


K4_VALUATION = "circflow-valuation v1\nr 4/1\nv1 -2/1\nv2 2/1\nv3 2/1\nv4 -2/1\n"


def test_check_balanced_rejects_a_weight_on_no_vertex(tmp_path, capsys):
    # the stray weight makes the weights sum to 2: ignored, K4 would verify
    graph = tmp_path / "k4.graph"
    graph.write_text(serialize(families.complete_graph(4)))
    val = tmp_path / "k4.valuation"
    val.write_text(K4_VALUATION + "zz 2/1\n")
    assert run("check-balanced", graph, val) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: valuation weighs 'zz', which is not a vertex of the graph\n"


@pytest.mark.parametrize("edit,message", [
    (("v1 -2/1", "v1 2/1\nv1 -2/1"), "vertex 'v1' appears twice"),
    (("r 4/1", "r 4/1\nr 4/1"), "header 'r' appears twice"),
    (("v1 -2/1", "v1"), "malformed valuation line 'v1'"),
    (("v1 -2/1", "v1 -2/1 9"), "malformed valuation line 'v1 -2/1 9'"),
])
def test_malformed_valuation_files_are_usage_errors(tmp_path, capsys, edit, message):
    graph = tmp_path / "k4.graph"
    graph.write_text(serialize(families.complete_graph(4)))
    val = tmp_path / "k4.valuation"
    val.write_text(K4_VALUATION)
    assert run("check-balanced", graph, val) == 0
    val.write_text(K4_VALUATION.replace(*edit))
    with pytest.raises(cli.UsageError, match=f"^{message}$"):
        cli.read_valuation(val.read_text())
    capsys.readouterr()
    assert run("check-balanced", graph, val) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_reverify_command(tmp_path):
    graph = tmp_path / "k4.graph"
    run("construct", "--family", "complete", "--m", 4, "--out", graph)
    cert = tmp_path / "k4.cert.json"
    run("flow-number", graph, "--out", cert)
    assert run("reverify", graph, cert) == 0
    other = tmp_path / "k6.graph"
    run("construct", "--family", "complete", "--m", 6, "--out", other)
    assert run("reverify", other, cert) == cli.EXIT_USAGE


def test_reverify_reads_a_certificate_in_the_indent_2_layout(tmp_path, capsys):
    graph = tmp_path / "k4.graph"
    run("construct", "--family", "complete", "--m", 4, "--out", graph)
    cert = tmp_path / "k4.cert.json"
    run("flow-number", graph, "--out", cert)
    written = certificate_from_json(cert.read_text())
    old = to_json_oracle(written)
    assert old != cert.read_text() and "\n  " in old
    cert.write_text(old)
    capsys.readouterr()
    assert run("reverify", graph, cert) == 0
    assert capsys.readouterr().out == "reproduced\n"


@pytest.mark.parametrize("edit", [
    lambda doc: doc["certificate"]["witness"].pop("flow"),
    lambda doc: doc["certificate"]["witness"].update(flow=[]),
    lambda doc: doc["certificate"].update(witness=[]),
    lambda doc: doc.pop("certificate"),
])
def test_reverify_reports_a_malformed_certificate_as_a_usage_error(tmp_path, capsys, edit):
    graph = tmp_path / "k4.graph"
    run("construct", "--family", "complete", "--m", 4, "--out", graph)
    cert = tmp_path / "k4.cert.json"
    run("flow-number", graph, "--out", cert)
    doc = json.loads(cert.read_text())
    edit(doc)
    for text in (json.dumps(doc), json.dumps([doc])):
        cert.write_text(text)
        capsys.readouterr()
        assert run("reverify", graph, cert) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_valuation_file_states_r_before_the_weights(tmp_path, capsys):
    graph = tmp_path / "k4.graph"
    graph.write_text(serialize(families.complete_graph(4)))
    val = tmp_path / "k4.valuation"
    val.write_text(K4_VALUATION.replace("r 4/1\n", "") + "r 4/1\n")
    message = "valuation file must state r before vertex weights"
    with pytest.raises(cli.UsageError, match=f"^{message}$"):
        cli.read_valuation(val.read_text())
    assert run("check-balanced", graph, val) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    val.write_text(cli.VALUATION_HEADER + "\n")
    with pytest.raises(cli.UsageError, match="^valuation file missing its r header$"):
        cli.read_valuation(val.read_text())


def test_paper_demo_section3(tmp_path):
    out = tmp_path / "demo"
    assert run("paper-demo", "--scope", "section-3", "--out", out) == 0
    rows = (out / "report.txt").read_text().splitlines()[1:]
    assert len(rows) == 5 and all("  verified  " in row for row in rows)
    assert "M_5' sees-odd 21-coloring" in rows[3]
    assert "M~_5 is 21-regular and properly 21-colored" in rows[4]
    for p in (3, 5):
        assert (out / f"m{p}_prime.coloring").exists()
        assert (out / f"m{p}_tilde.coloring").exists()
        assert (out / f"m{p}_tilde.graph").exists()


def test_paper_demo_appendix_reports_the_false_base_case(tmp_path):
    out = tmp_path / "demo"
    assert run("paper-demo", "--scope", "appendix", "--out", out) == 0
    rows = (out / "report.txt").read_text().splitlines()[1:]
    assert len(rows) == 4 and all("  verified  " in row for row in rows)
    # J3 is colorable exactly for its two triangle-free matchings; the row
    # names the six triangle matchings, the paper's false base case
    j3 = rows[0]
    assert "exactly for the 2 triangle-free matchings" in j3
    assert "none for the 6 triangle matchings" in j3
    assert j3.count("aa") == 6 and "aa1 ab0 bc1 bd2 cd0 cd2" in j3
    assert "J5+M for all 32 matchings" in rows[1]
    assert "J7+M for all 128 matchings" in rows[2]


def test_paper_demo_section2_verifies_every_row(tmp_path):
    out = tmp_path / "demo"
    assert run("paper-demo", "--scope", "section-2", "--out", out) == 0
    rows = (out / "report.txt").read_text().splitlines()[1:]
    assert len(rows) == 4 and all("  verified  " in row for row in rows)
    assert (out / "dot_product_class2_direct.cert.json").exists()


def test_paper_demo_section2_1_verifies_every_flow(tmp_path):
    out = tmp_path / "demo"
    assert run("paper-demo", "--scope", "section-2.1", "--out", out) == 0
    rows = (out / "report.txt").read_text().splitlines()[1:]
    assert len(rows) == 10 and all("  verified  " in row for row in rows)
    assert [row.split("  ")[0] for row in rows[:3]] == ["phi_c(K4)", "phi_c(K6)", "phi_c(Petersen)"]
    assert rows[3].startswith("flower flow J3 at 4+1/1") and rows[6].startswith("flower flow J9 at 4+1/4")
    assert rows[7].startswith("Blanusa chain flow G1 at 4+1/2")
    assert rows[9].startswith("Blanusa chain flow G3 at 4+1/4")
    stems = [f"flower_{n}" for n in (1, 2, 3, 4)] + [f"blanusa_{n}" for n in (1, 2, 3)]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["report.txt"] + [f"phi_c_{name}.cert.json" for name in ("K4", "K6", "Petersen")]
        + [f"{stem}{ext}" for stem in stems for ext in (".graph", ".flow", ".cert.json")])
    for stem in stems:
        graph, flow, cert = (out / f"{stem}{ext}" for ext in (".graph", ".flow", ".cert.json"))
        assert run("verify-flow", graph, flow) == 0
        assert run("reverify", graph, cert) == 0
    for name, r in (("K4", "4/1"), ("K6", "3/1"), ("Petersen", "5/1")):
        doc = json.loads((out / f"phi_c_{name}.cert.json").read_text())
        assert doc["certificate"]["parameters"]["r"] == r


def test_paper_demo_builds_only_the_chosen_scope(tmp_path, monkeypatch):
    """The appendix claim texts enumerate perfect matchings; no other scope does."""
    def no_matchings(g):
        raise AssertionError("perfect matchings enumerated outside the appendix")

    monkeypatch.setattr(cli, "perfect_matchings", no_matchings)
    assert run("paper-demo", "--scope", "section-2.1", "--out", tmp_path) == 0
    with pytest.raises(AssertionError, match="outside the appendix"):
        run("paper-demo", "--scope", "appendix", "--out", tmp_path)


def test_paper_demo_phi_c_row_that_runs_out_is_inconclusive(tmp_path):
    from unittest import mock

    from circflow import valuations
    from circflow.multigraph import SearchBudgetExceeded

    with mock.patch.object(valuations, "_phi_c_valuation", side_effect=SearchBudgetExceeded):
        code = run("paper-demo", "--scope", "section-2.1", "--out", tmp_path)
    assert code == cli.EXIT_INCONCLUSIVE
    rows = (tmp_path / "report.txt").read_text().splitlines()[1:]
    assert [row.split()[-2] for row in rows] == ["inconclusive"] * 3 + ["verified"] * 7
    assert not list(tmp_path.glob("phi_c_*"))


def report_claims(out):
    """The claim column of a demo report, row by row."""
    header, *rows = (out / "report.txt").read_text().splitlines()
    width = header.index("  verdict")
    return [row[:width].rstrip() for row in rows]


def test_paper_demo_all_runs_the_four_scopes_in_order(tmp_path):
    assert run("paper-demo", "--scope", "all", "--out", tmp_path / "all") == 0
    claims = report_claims(tmp_path / "all")
    expected = []
    for scope in ("section-2", "section-2.1", "section-3", "appendix"):
        assert run("paper-demo", "--scope", scope, "--out", tmp_path / scope) == 0
        expected += report_claims(tmp_path / scope)
    assert claims == expected and len(claims) == 4 + 10 + 5 + 4
    assert claims[0] == "Petersen (left factor) + 2M is class 2"
    assert claims[4] == "phi_c(K4)"
    assert claims[14] == "M_3 degrees match the construction"
    assert claims[19].startswith("4-coloring of J3+M exactly for the 2 triangle-free matchings")


def test_demo_row_that_raises_is_an_error_not_a_refutation(tmp_path, monkeypatch, capsys):
    def boom():
        raise RuntimeError("internal fault")

    table = [("appendix", "a verified claim", lambda: ("verified", {"kept.txt": "kept\n"})),
             ("appendix", "a faulty claim", boom)]
    monkeypatch.setattr(cli, "_claims", lambda budget, scope: table)
    assert run("paper-demo", "--scope", "appendix", "--out", tmp_path) == cli.EXIT_INCONCLUSIVE
    rows = (tmp_path / "report.txt").read_text().splitlines()[1:]
    assert [row.split()[-2] for row in rows] == ["verified", "error"]
    assert "a faulty claim: RuntimeError: internal fault" in rows[1]
    assert (tmp_path / "kept.txt").read_text() == "kept\n"
    assert "RuntimeError: internal fault" in capsys.readouterr().err
    table.append(("appendix", "a refuted claim", lambda: ("refuted", {})))
    assert run("paper-demo", "--scope", "appendix", "--out", tmp_path) == cli.EXIT_REFUTED
