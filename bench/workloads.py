"""The three circflow workloads: their inputs, the timed solve and reverify
phases, and the reference checks run after each phase.

Each workload is a closed loop in one process.  A round runs the solve
phase (every verdict computed, every artefact written in the program's own
format), checks its outputs against ``reference``, runs the reverify phase
(every artefact read back and re-checked by the program's public checkers)
and checks that; the next round starts when the last one has finished.
"""

from __future__ import annotations

import gc
import importlib
import random
import resource
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import reference as ref
from reference import expect
from tracing import Tracer, layer_metrics

SETUP_REPEATS = 5

# The speed probe: its size, the time it takes on the reference machine at
# that machine's usual speed (2 vCPUs, Python 3.11), and how often it runs.
PROBE_LOOPS = 2_000
REF_PROBE_S = 0.0025
PROBE_EVERY_S = 0.1

MODULES = ("multigraph", "certificates", "families", "valuations", "flows", "blanusa",
           "colorings", "flower_coloring", "mp_coloring")


def import_circflow() -> SimpleNamespace:
    """Import every circflow module afresh, so module-level caches start empty."""
    for name in [m for m in sys.modules if m == "circflow" or m.startswith("circflow.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"circflow.{m}") for m in MODULES})


def plain(g) -> tuple[list[str], list[tuple[str, str, str]]]:
    return list(g.vertices), [(e.eid, e.u, e.v) for e in g.edges()]


def plain_flow(flow) -> dict[str, tuple[str, str, Fraction]]:
    return {eid: (t, h, flow.values[eid]) for eid, (t, h) in flow.orientation.items()}


# -- seeded inputs ----------------------------------------------------------------


def random_cubic(rng: random.Random, n: int):
    """A simple bridgeless cubic graph from the pairing model, by rejection."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) < 3 * n // 2 or any(a == b for a, b in pairs):
            continue
        vertices = [f"x{i}" for i in range(n)]
        edges = [(f"x{a}x{b}", f"x{a}", f"x{b}") for a, b in sorted(pairs)]
        if all(_connected(vertices, [e for e in edges if e != cut]) for cut in edges):
            return vertices, edges


def _connected(vertices, edges) -> bool:
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for _, u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {vertices[0]}, [vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


def random_regular_bipartite(rng: random.Random, side: int, degree: int):
    """A degree-regular bipartite multigraph: the union of random perfect
    matchings between the two sides."""
    vertices = [f"a{i}" for i in range(side)] + [f"b{i}" for i in range(side)]
    edges = []
    for j in range(degree):
        perm = list(range(side))
        rng.shuffle(perm)
        edges.extend((f"e{j}.{i}", f"a{i}", f"b{perm[i]}") for i in range(side))
    return vertices, edges


def shuffled(cf, g, rng: random.Random):
    """The same graph with its vertices and edges listed in a seeded order."""
    vertices, edges = plain(g)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return cf.multigraph.Multigraph(vertices, edges)


def flower_r(n: int) -> Fraction:
    return Fraction(4 * n + 1, n)


def chain_r(n: int) -> Fraction:
    return Fraction(4 * (n + 1) + 1, n + 1)


# -- timing ------------------------------------------------------------------------


def probe() -> float:
    """The wall time of a fixed piece of integer, tuple, dict and set work,
    the kinds the solvers do: how fast the machine runs Python right now."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
        key = (i * 7919 % 5003, i & 7)
        table[key] = table.get(key, 0) + 1
    sorted(table.items())
    {k for k in table if k[1] == 3}
    return time.perf_counter() - t0


class SpeedClock:
    """A clock that reads seconds at the reference speed.

    The CPU speed of a shared virtual machine drifts by tens of percent over
    seconds to minutes, and the program and a loop that does not touch it
    mostly slow down together.  So an interval timer interrupts the process
    every PROBE_EVERY_S and runs the probe (the faster of two, so that one
    interrupt does not count); the wall time from one probe to the next is
    multiplied by REF_PROBE_S over the first of the two, the one ``now`` can
    already use, so that the clock never runs backwards.  ``now`` is the sum
    of these, so its differences are what the work in between would take at
    the reference speed, the probes themselves left out.  Call ``close`` to
    stop the timer.
    """

    def __init__(self):
        self._busy = False
        self._ref = 0.0  # reference seconds up to self._mark
        self.last = min(probe(), probe())
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        if self._busy:  # the signal arrived inside now(): skip this probe
            return
        self._busy = True
        self._ref += (time.perf_counter() - self._mark) * REF_PROBE_S / self.last
        self.last = min(probe(), probe())
        self._mark = time.perf_counter()
        self._busy = False

    def now(self) -> float:
        self._busy = True
        value = self._ref + (time.perf_counter() - self._mark) * REF_PROBE_S / self.last
        self._busy = False
        return value


# -- set-up ------------------------------------------------------------------------


def build_families(cf) -> dict:
    fam = cf.families
    pet = fam.petersen()

    def prefixed(prefix: str):
        return pet.relabeled({v: prefix + v for v in pet.vertices},
                             {e: prefix + e for e in pet.edge_ids})

    k33 = cf.multigraph.Multigraph(
        [f"a{i}" for i in range(3)] + [f"b{i}" for i in range(3)],
        [(f"a{i}b{j}", f"a{i}", f"b{j}") for i in range(3) for j in range(3)])
    out = {"K4": fam.complete_graph(4), "K5": fam.complete_graph(5),
           "K6": fam.complete_graph(6), "K33": k33, "Petersen": pet,
           "L": prefixed("L."), "R": prefixed("R.")}
    for n in (1, 2, 3):
        out[f"J{2 * n + 1}"] = fam.flower_snark(n).graph
    return out


def warm(cf, tr, fam: dict, seed_rec) -> None:
    """One small call per solver the workloads time, so that first-call
    costs land in set-up and not in the timed phases."""
    with tr.span("flows", "circular_flow_number"):
        cf.flows.circular_flow_number(fam["K4"])
    with tr.span("flows", "build_flower_flow"):
        j3 = cf.flows.build_flower_flow(1)
    with tr.span("blanusa", "build_chain"):
        cf.blanusa.build_chain(1)
    with tr.span("flows", "bipartite_regular_flow"):
        cf.flows.bipartite_regular_flow(fam["K33"], 1)
    m = sorted(j3.matching)
    with tr.span("flows", "matched_flow_witness"):
        cf.flows.matched_flow_witness(j3.graph, j3.flow, m, 2)
    with tr.span("flows", "verify_flow"):
        cf.flows.verify_flow(j3.graph, j3.flow)
    with tr.span("colorings", "class_property") as counts:
        cert = cf.colorings.class_property(fam["L"], seed_rec.dot_product["n1"], 2, [1])
        counts["nodes"] = cert.witness["per_t"][0]["nodes"]
    with tr.span("certificates", "reverify"):
        cf.certificates.reverify(cert, fam["L"])
    with tr.span("colorings", "chromatic_index") as counts:
        counts["nodes"] = cf.colorings.chromatic_index(fam["K4"]).nodes
    with tr.span("multigraph", "perfect_matchings"):
        cf.multigraph.perfect_matchings(fam["J3"])
    with tr.span("flower_coloring", "flower_plus_m_coloring"):
        h, col = cf.flower_coloring.flower_plus_m_coloring(1, m)
    with tr.span("colorings", "is_proper"):
        cf.colorings.is_proper(h, col)
    with tr.span("mp_coloring", "mp_prime_coloring"):
        prime = cf.mp_coloring.mp_prime_coloring(1)
    with tr.span("colorings", "sees_odd_violation"):
        cf.colorings.sees_odd_violation(prime.family.graph, prime.coloring)
    with tr.span("mp_coloring", "mp_tilde_coloring"):
        cf.mp_coloring.mp_tilde_coloring(1)
    omega = cf.valuations.valuation_from_bipartition(j3.graph, j3.bipartition, j3.flow.r)
    with tr.span("valuations", "check_balanced") as counts:
        counts["subsets"] = cf.valuations.check_balanced(j3.graph, omega).witness["subsets_checked"]
    with tr.span("valuations", "bipartition_to_flow_bound"):
        cf.valuations.bipartition_to_flow_bound(j3.graph, j3.bipartition)
    with tr.span("valuations", "matched_bipartition_inequality_check"):
        cf.valuations.matched_bipartition_inequality_check(j3.graph, j3.flow, m, 1)


def setup(workload: "Workload", seed: int, tr: Tracer, scale: str):
    """Import circflow, build the family graphs, load the Blanusa seed and the
    gadget table, warm every solver, then make the workload's seeded inputs."""
    with tr.span("circflow", "import"):
        cf = import_circflow()
    with tr.span("families", "build"):
        fam = build_families(cf)
    with tr.span("blanusa", "load_or_find_seed"):
        seed_rec = cf.blanusa.load_or_find_seed()
    with tr.span("flower_coloring", "load_gadget_table"):
        cf.flower_coloring.load_gadget_table()
    warm(cf, tr, fam, seed_rec)
    inputs = workload.inputs(cf, tr, fam, seed_rec, random.Random(seed), scale == "full")
    return cf, inputs


# -- one run -------------------------------------------------------------------------


@dataclass
class Rec:
    """One solve operation's output, as the checks and the reverify phase need it."""

    kind: str
    label: str
    graph: object = None      # the graph the artefact describes
    path: Path | None = None  # the artefact file, if the operation writes one
    data: dict = field(default_factory=dict)
    ok: bool = True           # False when the operation raised


class Run:
    """The circflow modules, tracer, artefact directory and tallies of one run."""

    def __init__(self, cf, tr: Tracer, outdir: Path):
        self.cf, self.tr, self.outdir = cf, tr, outdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # operations that raised
        self.wrong: list[str] = []   # outputs the reference checks rejected
        self.memo: dict = {}         # reference results for this run's fixed inputs

    def cached(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def solve(self, recs: list, kind: str, label: str, op) -> None:
        self.attempted += 1
        try:
            rec = op()
        except Exception as exc:  # a fault fails this operation, not the run
            self.failed += 1
            self.errors.append(f"solve {label}: {exc!r}")
            rec = Rec(kind, label, ok=False)
        recs.append(rec)

    def emit(self, name: str, make_text) -> Path:
        with self.tr.span("certificates", "emit") as counts:
            text = make_text()
            path = self.outdir / name
            path.write_text(text)
            counts["bytes"] = len(text.encode())
        return path

    def reverify_all(self, recs: list) -> list:
        outcomes = []
        for rec in recs:
            reverify = KINDS[rec.kind][1]
            if reverify is None:
                continue
            self.attempted += 1
            if not rec.ok:
                self.failed += 1
                continue
            try:
                outcomes.append((rec, reverify(self, rec)))
            except Exception as exc:  # a fault fails this operation, not the run
                self.failed += 1
                self.errors.append(f"reverify {rec.label}: {exc!r}")
        return outcomes

    def check_solved(self, recs: list) -> None:
        for rec in recs:
            if rec.ok:
                try:
                    KINDS[rec.kind][0](self, rec)
                except Exception as exc:  # CheckFailed, or an artefact too malformed to read
                    self.wrong.append(f"{rec.label}: {exc}")

    def check_reverified(self, outcomes: list) -> None:
        for rec, accepted in outcomes:
            if accepted is not True:
                self.wrong.append(f"reverify {rec.label}: a valid artefact was not accepted")


# -- checks after the solve phase -------------------------------------------------------


def check_phi(run: Run, rec: Rec) -> None:
    vs, es = plain(rec.graph)
    value = rec.data["value"]
    cert = ref.read_certificate(rec.path.read_text())
    expect(cert["kind"] == "phi-c-value" and cert["verdict"] == "verified",
           "not a verified phi-c-value certificate")
    expect(ref.parse_rat(cert["parameters"]["r"]) == value, "certificate r differs from the value")
    r, arcs = ref.parse_flow_witness(cert["witness"]["flow"])
    expect(r == value, "the witness flow is not at phi_c")
    ref.check_flow(vs, es, r, arcs)
    ref.check_phi_value(rec.label, vs, es, value, run.memo)


def check_flow_file(run: Run, rec: Rec) -> None:
    r, arcs = ref.parse_flow_text(rec.path.read_text())
    expect(r == rec.data["r"], f"flow value {r}, expected {rec.data['r']}")
    vs, es = plain(rec.graph)
    if "base" in rec.data:  # a witness on H = G + (2t-2)M
        ref.check_matched_graph(plain(rec.data["base"])[1], set(rec.data["matching"]),
                                rec.data["copies"], es)
    ref.check_flow(vs, es, r, arcs)


def check_class(run: Run, rec: Rec) -> None:
    cert = ref.read_certificate(rec.path.read_text())
    vs, es = plain(rec.graph)
    m = set(rec.data["matching"])
    per_t = cert["witness"]["per_t"]
    expect([e["t"] for e in per_t] == rec.data["ts"], "certificate does not cover the asked t")
    for entry in per_t:
        t = entry["t"]
        want = run.cached(("class", rec.label, t), lambda: ref.matched_class(vs, es, m, t))
        expect(entry.get("class") == want, f"t={t}: class {entry.get('class')}, reference {want}")
        if want == 1:
            h = run.cf.multigraph.add_matching_copies(rec.graph, sorted(m), 2 * t - 2)
            hv, he = plain(h)
            ref.check_matched_graph(es, m, 2 * t - 2, he)
            ref.check_coloring(hv, he, {e: int(c) for e, c in entry["coloring"].items()},
                               2 * t + 1, "proper", regular=2 * t + 1)
    all_two = all(e["class"] == 2 for e in per_t)
    expect(cert["verdict"] == ("verified" if all_two else "refuted"), "verdict does not follow the classes")


def check_prover(run: Run, rec: Rec) -> None:
    cert = ref.read_certificate(rec.path.read_text())
    expect(cert["verdict"] == "verified" and cert["witness"]["per_t"][0]["class"] == 2,
           "the prover did not certify class 2")
    product = rec.data["product"]
    vs, es = plain(product.graph)
    want = run.cached(("class", rec.label, 2), lambda: ref.matched_class(vs, es, product.matching, 2))
    expect(want == 2, "reference: the dot product + 2M is 5-edge-colorable")


def check_chromatic(run: Run, rec: Rec) -> None:
    cert = ref.read_certificate(rec.path.read_text())
    vs, es = plain(rec.graph)
    three = run.cached(("chi", rec.label),
                       lambda: ref.min_matching_cover(vs, es, frozenset(), 3) is not None)
    value = cert["witness"]["value"]
    expect(value == (3 if three else 4), f"chromatic index {value}, reference {3 if three else 4}")
    ref.check_coloring(vs, es, {e: int(c) for e, c in cert["witness"]["coloring"].items()},
                       value, "proper")


def check_matchings(run: Run, rec: Rec) -> None:
    vs, es = plain(rec.graph)
    expect(set(rec.data["matchings"]) == set(ref.perfect_matchings(vs, es)),
           "perfect matchings differ from the reference enumeration")


def check_flower(run: Run, rec: Rec) -> None:
    m = frozenset(rec.data["matching"])
    bv, be = plain(rec.data["base"])
    if rec.kind == "no-coloring":
        colorable = run.cached(("4col", rec.label),
                               lambda: ref.min_matching_cover(bv, be, m, 4) is not None)
        expect(not colorable, "reported uncolorable, but the reference finds a 4-coloring")
        return
    palette, mode, colors = ref.parse_coloring_text(rec.path.read_text())
    expect(palette == 4 and mode == "proper", "not a proper 4-coloring file")
    hv, he = plain(rec.graph)
    ref.check_matched_graph(be, m, 1, he)
    ref.check_coloring(hv, he, colors, 4, "proper", regular=4)


def check_mp(run: Run, rec: Rec) -> None:
    palette, mode, colors = ref.parse_coloring_text(rec.path.read_text())
    expect(palette == rec.data["palette"], f"palette {palette}, expected {rec.data['palette']}")
    expect(mode == rec.data["mode"], f"mode {mode}, expected {rec.data['mode']}")
    vs, es = plain(rec.graph)
    ref.check_coloring(vs, es, colors, palette, mode, regular=rec.data.get("regular"))


def valuation_weights(g, flow, r: Fraction) -> dict:
    """k_v = +1 on vertices with two incoming edges under the flow, else -1,
    after checking that the flow is a nowhere-zero r-flow on g."""
    vs, es = plain(g)
    arcs = plain_flow(flow)
    ref.check_flow(vs, es, r, arcs)
    indeg = {v: 0 for v in vs}
    for _, head, _ in arcs.values():
        indeg[head] += 1
    return {v: 1 if indeg[v] == 2 else -1 for v in vs}


def check_balanced(run: Run, rec: Rec) -> None:
    cert = ref.read_certificate(rec.path.read_text())
    vs, es = plain(rec.graph)
    r = ref.parse_rat(cert["parameters"]["r"])
    k = {v: int(x) for v, x in cert["parameters"]["k"].items()}
    balanced = ref.is_balanced(vs, es, k, r / (r - 2))
    expect((cert["verdict"] == "verified") == balanced,
           f"verdict {cert['verdict']}, but the reference finds the valuation "
           f"{'balanced' if balanced else 'unbalanced'}")
    # what was asked: the flow's own bipartition at the flow's own value,
    # which is balanced because the flow exists (Jaeger)
    expect(r == rec.data["r"], f"valuation at r = {r}, asked {rec.data['r']}")
    expect(k == valuation_weights(rec.graph, rec.data["flow"], r), "k differs from the flow bipartition")
    expect(balanced, "reference: the valuation of a nowhere-zero r-flow is unbalanced")


def check_bound(run: Run, rec: Rec) -> None:
    vs, es = plain(rec.graph)
    bound = rec.data["bound"]
    expect(isinstance(bound, Fraction), f"no finite bound: {bound!r}")
    expect(bound <= rec.data["r"], f"bound {bound} above the flow value {rec.data['r']}")
    ref.check_flow_bound(vs, es, valuation_weights(rec.graph, rec.data["flow"], rec.data["r"]), bound)


def check_inequality(run: Run, rec: Rec) -> None:
    cert = ref.read_certificate(rec.path.read_text())
    t, r = rec.data["t"], rec.data["r"]
    want = ref.bound_formula(r, t)
    expect(cert["verdict"] == "verified", f"verdict {cert['verdict']}")
    expect(ref.parse_rat(cert["parameters"]["bound"]) == want, "the bound is not the formula value")
    k = valuation_weights(rec.data["base"], rec.data["flow"], r)
    vs, es = plain(rec.graph)
    m = set(rec.data["matching"])
    ref.check_matched_graph(plain(rec.data["base"])[1], m, 2 * t - 2, es)
    wr, arcs = ref.parse_flow_witness(cert["witness"]["flow"])
    expect(wr == want, "the witness flow is not at the bound value")
    ref.check_flow(vs, es, wr, arcs)
    q = r / (r - 2)
    expect(ref.is_balanced(vs, es, k, q + 2 * t - 2), "reference: |cut_H(Y)| < (q+2t-2)|b_Y-w_Y| for some Y")
    expect(ref.is_balanced(vs, [e for e in es if e[0] in m], k, 1),
           "reference: |cut_M(Y)| < |b_Y-w_Y| for some Y")


# -- the reverify phase ----------------------------------------------------------------


def reverify_certificate(run: Run, rec: Rec) -> bool:
    cert = run.cf.certificates.certificate_from_json(rec.path.read_text())
    with run.tr.span("certificates", "reverify"):
        return run.cf.certificates.reverify(cert, rec.graph)


def reverify_flow(run: Run, rec: Rec) -> bool:
    flow = run.cf.flows.read_flow(rec.path.read_text())
    with run.tr.span("flows", "verify_flow"):
        return run.cf.flows.verify_flow(rec.graph, flow).verdict == "verified"


def reverify_proper(run: Run, rec: Rec) -> bool:
    coloring = run.cf.colorings.read_coloring(rec.path.read_text())
    with run.tr.span("colorings", "is_proper"):
        return run.cf.colorings.is_proper(rec.graph, coloring)[0]


def reverify_sees_odd(run: Run, rec: Rec) -> bool:
    coloring = run.cf.colorings.read_coloring(rec.path.read_text())
    with run.tr.span("colorings", "sees_odd_violation"):
        return run.cf.colorings.sees_odd_violation(rec.graph, coloring) is None


def reverify_prover(run: Run, rec: Rec) -> bool:
    """The product's class-2 certificate is re-derived from its re-read
    component certificates; ``certificates.reverify`` would instead re-run the
    direct refutation, which takes tens of seconds."""
    load = run.cf.certificates.certificate_from_json
    cert = load(rec.path.read_text())
    left, right = (load(p.read_text()) for p in rec.data["components"])
    with run.tr.span("colorings", "dot_product_class2_prover"):
        fresh = run.cf.colorings.dot_product_class2_prover(rec.data["product"], left, right, 2)
    return fresh.certificate_sha256() == cert.certificate_sha256()


# kind -> (check after solve, reverify operation or None)
KINDS = {
    "phi": (check_phi, reverify_certificate),
    "flow": (check_flow_file, reverify_flow),
    "witness": (check_flow_file, reverify_flow),
    "class": (check_class, reverify_certificate),
    "prover": (check_prover, reverify_prover),
    "chromatic": (check_chromatic, reverify_certificate),
    "matchings": (check_matchings, None),
    "coloring": (check_flower, reverify_proper),
    "no-coloring": (check_flower, None),
    "mp": (check_mp, reverify_proper),
    "mp-odd": (check_mp, reverify_sees_odd),
    "balanced": (check_balanced, reverify_certificate),
    "bound": (check_bound, None),
    "inequality": (check_inequality, reverify_certificate),
}


# -- the workloads -------------------------------------------------------------------


class Workload:
    def inputs(self, cf, tr, fam, seed_rec, rng, full: bool) -> SimpleNamespace:
        raise NotImplementedError

    def solve(self, run: Run, inp: SimpleNamespace) -> list:
        raise NotImplementedError

    def check_round(self, run: Run, recs: list) -> None:
        """Checks that span several operations of one round."""


def witness_rec(run: Run, label: str, g, flow, m: list, r: Fraction, t: int) -> Rec:
    cf = run.cf
    with run.tr.span("flows", "matched_flow_witness"):
        w = cf.flows.matched_flow_witness(g, flow, m, t)
    h = cf.multigraph.add_matching_copies(g, m, 2 * t - 2)
    path = run.emit(f"witness_{label}_t{t}.flow", lambda: cf.flows.write_flow(w))
    return Rec("witness", f"{label}+{2 * t - 2}M", h, path,
               {"r": ref.bound_formula(r, t), "base": g, "matching": m, "copies": 2 * t - 2})


class FlowValues(Workload):
    """Exact phi_c by orientation enumeration, the constructive flows and
    their matched witnesses.  The enumeration kernel and the exact max-flow do
    the work; no coloring search runs."""

    def inputs(self, cf, tr, fam, seed_rec, rng, full):
        phi = [(name, fam[name]) for name in ("K4", "K5", "K33")]
        if full:
            phi += [("K6", fam["K6"]), ("Petersen", fam["Petersen"])]
        for i, n in enumerate((8, 8) if full else (8,)):
            phi.append((f"cubic{n}.{i}", cf.multigraph.Multigraph(*random_cubic(rng, n))))
        bip = [(t, cf.multigraph.Multigraph(*random_regular_bipartite(rng, 8 if full else 4, 2 * t + 1)))
               for t in ((1, 2, 3) if full else (1, 2))]
        return SimpleNamespace(phi=phi, bip=bip,
                               flower_n=range(1, 9 if full else 3), chain_n=range(1, 7 if full else 3),
                               witness_t=(2, 3) if full else (2,))

    def solve(self, run, inp):
        cf, tr = run.cf, run.tr
        recs: list[Rec] = []
        for name, g in inp.phi:
            def phi(name=name, g=g):
                with tr.span("flows", "circular_flow_number"):
                    res = cf.flows.circular_flow_number(g)
                path = run.emit(f"phi_{name}.cert.json",
                                lambda: cf.flows.phi_c_certificate(g, res).to_json())
                return Rec("phi", name, g, path, {"value": res.value})
            run.solve(recs, "phi", name, phi)

        built = []  # (label, graph, flow, matching, r) for the witnesses
        for n in inp.flower_n:
            def flower(n=n):
                with tr.span("flows", "build_flower_flow"):
                    d = cf.flows.build_flower_flow(n)
                built.append((f"J{2 * n + 1}", d.graph, d.flow, sorted(d.matching), flower_r(n)))
                path = run.emit(f"flower_{n}.flow", lambda: cf.flows.write_flow(d.flow))
                return Rec("flow", f"flower-{n}", d.graph, path, {"r": flower_r(n)})
            run.solve(recs, "flow", f"flower-{n}", flower)
        for n in inp.chain_n:
            def chain(n=n):
                with tr.span("blanusa", "build_chain"):
                    d = cf.blanusa.build_chain(n)
                built.append((f"G{n}", d.chain.graph, d.flow, sorted(d.matching), chain_r(n)))
                path = run.emit(f"chain_{n}.flow", lambda: cf.flows.write_flow(d.flow))
                return Rec("flow", f"chain-{n}", d.chain.graph, path, {"r": chain_r(n)})
            run.solve(recs, "flow", f"chain-{n}", chain)
        for t, g in inp.bip:
            def bipartite(t=t, g=g):
                with tr.span("flows", "bipartite_regular_flow"):
                    flow = cf.flows.bipartite_regular_flow(g, t)
                path = run.emit(f"bipartite_{t}.flow", lambda: cf.flows.write_flow(flow))
                return Rec("flow", f"bipartite-t{t}", g, path, {"r": Fraction(2 * t + 1, t)})
            run.solve(recs, "flow", f"bipartite-t{t}", bipartite)
        for label, g, flow, m, r in built:
            for t in inp.witness_t:
                run.solve(recs, "witness", f"{label}-t{t}",
                          lambda: witness_rec(run, label, g, flow, m, r, t))
        return recs


class ClassColorings(Workload):
    """Class properties by 1-factor peeling, chromatic indices, the recursive
    flower + M colorings and the M_p colorings.  Backtracking and matching
    search do the work; a class-2 reverify repeats the search."""

    def inputs(self, cf, tr, fam, seed_rec, rng, full):
        dp = seed_rec.dot_product
        with tr.span("families", "build"):
            product = cf.families.m_dot_product(
                fam["L"], dp["n1"], fam["R"], dp["n2"], dp["e1"], dp["e2"], dp["xy"],
                e1_order=tuple(dp["e1_order"]), e2_order=tuple(dp["e2_order"]),
                u_neighbors=tuple(dp["u_neighbors"]), w_neighbors=tuple(dp["w_neighbors"]))
        with tr.span("blanusa", "build_chain"):
            g1 = cf.blanusa.build_chain(1)
        j5_matching = sorted([f"ab{i}" for i in range(5)] + [f"dc{i}" for i in range(5)])
        classes = [("Petersen", fam["L"], sorted(dp["n1"]), [1, 2, 3] if full else [1, 2]),
                   ("J5", fam["J5"], j5_matching, [1, 2]),
                   ("G1", g1.chain.graph, sorted(g1.matching), [1]),
                   ("Petersen-R", fam["R"], sorted(dp["n2"]), [2])]
        names = ("Petersen", "J3", "J5", "J7") if full else ("Petersen", "J3")
        chromatic = [(name, fam[name]) for name in names]
        if full:
            chromatic.append(("G1", g1.chain.graph))
        for i, n in enumerate((10, 12) if full else (8,)):
            chromatic.append((f"cubic{n}.{i}", cf.multigraph.Multigraph(*random_cubic(rng, n))))
        # flower n -> how many of its perfect matchings to color (None: all)
        flower = {1: None, 2: None, 3: 16} if full else {1: None, 2: 4}
        return SimpleNamespace(product=product, classes=classes, chromatic=chromatic, fam=fam,
                               flower=flower, sample_seed=rng.getrandbits(32),
                               mp_odd_t=(1, 2) if full else (1,), mp_t=(1,))

    def solve(self, run, inp):
        cf, tr = run.cf, run.tr
        recs: list[Rec] = []
        certs, paths = {}, {}
        for label, g, m, ts in inp.classes:
            def cls(label=label, g=g, m=m, ts=ts):
                with tr.span("colorings", "class_property") as counts:
                    cert = cf.colorings.class_property(g, m, 2, ts)
                    counts["nodes"] = sum(e.get("nodes", 0) for e in cert.witness["per_t"])
                certs[label] = cert
                paths[label] = run.emit(f"class_{label}.cert.json", cert.to_json)
                return Rec("class", label, g, paths[label], {"matching": m, "ts": ts})
            run.solve(recs, "class", label, cls)

        def prover():
            with tr.span("colorings", "dot_product_class2_prover"):
                cert = cf.colorings.dot_product_class2_prover(
                    inp.product, certs["Petersen"], certs["Petersen-R"], 2)
            path = run.emit("dot_product.cert.json", cert.to_json)
            return Rec("prover", "dot-product+2M", inp.product.graph, path,
                       {"product": inp.product, "components": (paths["Petersen"], paths["Petersen-R"])})
        run.solve(recs, "prover", "dot-product+2M", prover)

        for label, g in inp.chromatic:
            def chi(label=label, g=g):
                with tr.span("colorings", "chromatic_index") as counts:
                    res = cf.colorings.chromatic_index(g)
                    counts["nodes"] = res.nodes
                path = run.emit(f"chi_{label}.cert.json",
                                lambda: cf.colorings.chromatic_index_certificate(g, res).to_json())
                return Rec("chromatic", label, g, path)
            run.solve(recs, "chromatic", label, chi)

        for n, sample in inp.flower.items():
            label = f"J{2 * n + 1}"
            g = inp.fam[label]
            pms: list = []

            def matchings(g=g, label=label):
                with tr.span("multigraph", "perfect_matchings"):
                    pms.extend(cf.multigraph.perfect_matchings(g))
                return Rec("matchings", label, g, data={"matchings": list(pms)})
            run.solve(recs, "matchings", label, matchings)
            chosen = sorted(pms, key=sorted)
            if sample is not None:
                chosen = random.Random(inp.sample_seed).sample(chosen, min(sample, len(chosen)))
            for i, pm in enumerate(chosen):
                def color(n=n, g=g, m=sorted(pm), name=f"{label}+M{i}"):
                    try:
                        with tr.span("flower_coloring", "flower_plus_m_coloring"):
                            h, col = cf.flower_coloring.flower_plus_m_coloring(n, m)
                    except cf.flower_coloring.FlowerColoringCounterexample:
                        return Rec("no-coloring", name, g, data={"matching": m, "base": g})
                    path = run.emit(f"{name}.coloring", lambda: cf.colorings.write_coloring(col))
                    return Rec("coloring", name, h, path, {"matching": m, "base": g})
                run.solve(recs, "coloring", f"{label}+M{i}", color)

        for t in inp.mp_odd_t:
            def prime(t=t):
                with tr.span("mp_coloring", "mp_prime_coloring"):
                    d = cf.mp_coloring.mp_prime_coloring(t)
                path = run.emit(f"mp_prime_{t}.coloring", lambda: cf.colorings.write_coloring(d.coloring))
                return Rec("mp-odd", f"M{2 * t + 1}'", d.family.graph, path,
                           {"palette": 8 * t + 5, "mode": "sees-odd"})
            run.solve(recs, "mp-odd", f"M{2 * t + 1}'", prime)
        for t in inp.mp_t:
            def tilde(t=t):
                with tr.span("mp_coloring", "mp_tilde_coloring"):
                    g, col = cf.mp_coloring.mp_tilde_coloring(t)
                path = run.emit(f"mp_tilde_{t}.coloring", lambda: cf.colorings.write_coloring(col))
                return Rec("mp", f"M~{2 * t + 1}", g, path,
                           {"palette": 8 * t + 5, "mode": "proper", "regular": 8 * t + 5})
            run.solve(recs, "mp", f"M~{2 * t + 1}", tilde)
        return recs

    def check_round(self, run, recs):
        j3 = [r for r in recs if r.label.startswith("J3+M")]
        if all(r.ok for r in j3):
            uncolorable = sum(r.kind == "no-coloring" for r in j3)
            if uncolorable != 6:
                run.wrong.append(f"J3: {uncolorable} of {len(j3)} matchings without a "
                                 "4-coloring, known 6 (those through an a-triangle edge)")


class ValuationBounds(Workload):
    """Balanced valuations, flow bounds from bipartitions and the matched
    inequality, all by 2^n gray-code subset sweeps; a balanced reverify
    repeats the sweep.  Also the max-flow witness on H = G + (2t-2)M."""

    def inputs(self, cf, tr, fam, seed_rec, rng, full):
        valued = []
        for label, n, chain in (("J3", 1, False), ("G1", 1, True), ("J5", 2, False)):
            if not full and label != "J3":
                continue
            if chain:
                with tr.span("blanusa", "build_chain"):
                    d = cf.blanusa.build_chain(n)
                g0, r = d.chain.graph, chain_r(n)
            else:
                with tr.span("flows", "build_flower_flow"):
                    d = cf.flows.build_flower_flow(n)
                g0, r = d.graph, flower_r(n)
            g = shuffled(cf, g0, rng)
            bip = cf.valuations.flow_to_bipartition(g, d.flow)
            valued.append(SimpleNamespace(label=label, g=g, flow=d.flow, bip=bip,
                                          matching=sorted(d.matching), r=r))
        inequality = [("J3", 1), ("J3", 2), ("J3", 3), ("G1", 1), ("G1", 2)] if full \
            else [("J3", 1), ("J3", 2)]
        witnesses = [("J5", 1), ("J5", 2), ("J5", 3), ("G1", 3)] if full else [("J3", 3)]
        return SimpleNamespace(valued={v.label: v for v in valued},
                               inequality=inequality, witnesses=witnesses)

    def solve(self, run, inp):
        cf, tr = run.cf, run.tr
        recs: list[Rec] = []
        for v in inp.valued.values():
            def balanced(v=v):
                omega = cf.valuations.valuation_from_bipartition(v.g, v.bip, v.flow.r)
                with tr.span("valuations", "check_balanced") as counts:
                    cert = cf.valuations.check_balanced(v.g, omega)
                    counts["subsets"] = cert.witness.get("subsets_checked", 0)
                path = run.emit(f"balanced_{v.label}.cert.json", cert.to_json)
                return Rec("balanced", v.label, v.g, path, {"flow": v.flow, "r": v.r})
            run.solve(recs, "balanced", v.label, balanced)

            def bound(v=v):
                with tr.span("valuations", "bipartition_to_flow_bound"):
                    b = cf.valuations.bipartition_to_flow_bound(v.g, v.bip)
                return Rec("bound", v.label, v.g, data={"bound": b, "flow": v.flow, "r": v.r})
            run.solve(recs, "bound", f"{v.label}-bound", bound)
        for label, t in inp.inequality:
            v = inp.valued[label]

            def inequality(v=v, t=t):
                with tr.span("valuations", "matched_bipartition_inequality_check"):
                    cert = cf.valuations.matched_bipartition_inequality_check(v.g, v.flow, v.matching, t)
                h = cf.multigraph.add_matching_copies(v.g, v.matching, 2 * t - 2)
                path = run.emit(f"inequality_{v.label}_t{t}.cert.json", cert.to_json)
                return Rec("inequality", f"{v.label}-t{t}", h, path,
                           {"base": v.g, "matching": v.matching, "t": t, "r": v.r, "flow": v.flow})
            run.solve(recs, "inequality", f"{label}-t{t}", inequality)
        for label, t in inp.witnesses:
            v = inp.valued[label]
            run.solve(recs, "witness", f"{label}-t{t}",
                      lambda: witness_rec(run, label, v.g, v.flow, v.matching, v.r, t))
        return recs


WORKLOADS = {
    "flow-values": FlowValues(),
    "class-colorings": ClassColorings(),
    "valuation-bounds": ValuationBounds(),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_root: Path,
                 scale: str = "full") -> dict:
    """Set up SETUP_REPEATS times, then run whole rounds until a further
    round would end after ``seconds``; always at least one round."""
    workload = WORKLOADS[name]
    clock = SpeedClock()
    tr = Tracer(trace, clock.now)
    times = {"setup_s": [], "solve_s": [], "reverify_s": []}
    wall = {metric: [] for metric in times}

    def timed(metric: str, span: str, work):
        gc.collect()
        t0, w0 = clock.now(), time.perf_counter()
        with tr.span("bench", span):
            out = work()
        times[metric].append(clock.now() - t0)
        wall[metric].append(time.perf_counter() - w0)
        return out

    out_root.mkdir(parents=True, exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_root))
    rounds = 0
    try:
        for rep in range(SETUP_REPEATS):
            tr.begin_pass(f"setup{rep}")
            cf, inp = timed("setup_s", "setup", lambda: setup(workload, seed, tr, scale))
        run = Run(cf, tr, outdir)
        start = time.perf_counter()
        while True:
            tr.begin_pass(f"round{rounds}")
            recs = timed("solve_s", "solve", lambda: workload.solve(run, inp))
            run.check_solved(recs)
            workload.check_round(run, recs)
            outcomes = timed("reverify_s", "reverify", lambda: run.reverify_all(recs))
            run.check_reverified(outcomes)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > seconds:
                break
    finally:
        clock.close()
        shutil.rmtree(outdir, ignore_errors=True)

    return {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "rounds": rounds,
        "wall_s": time.perf_counter() - start,
        "end_to_end": {
            **{metric: (median(values), "s") for metric, values in times.items()},
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "per_layer": layer_metrics(tr.spans) if trace else {},
        "per_round": {"solve_s": times["solve_s"], "reverify_s": times["reverify_s"]},
        "wall": {metric: median(values) for metric, values in wall.items()},
        "errors": run.errors,
        "wrong": run.wrong,
        "tracer": tr,
    }
