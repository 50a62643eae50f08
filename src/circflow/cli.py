"""Command line interface: construction, solving, verification, demo pipelines.

Exit codes, mapped from verdicts by ``EXIT_CODES``: 0 verified, 1 refuted,
2 inconclusive, budget exhausted or an internal error in a demo row, 3 usage
error.

The claim table ``_claims`` is the one place the paper demo's rows are
defined: (scope, claim, producer), where the producer returns the verdict
and the files it writes, keyed by file name.  It builds only the rows of the
chosen scope, one builder per scope in ``_SCOPES``.  The one runner,
``_cmd_paper_demo``, times each row, writes its files,
prints it and adds it to ``report.txt``; a producer that raises gives an
``error`` row, never ``refuted``, and its traceback on stderr.  The demo
exits 1 if a row is refuted, else 2 if a row is inconclusive or an error.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable

from . import blanusa, colorings, families, flower_coloring, flows, mp_coloring, valuations
from .certificates import certificate_from_json, rat, read_records, reverify, unrat
from .multigraph import Multigraph, deserialize, perfect_matchings, serialize

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_CODES = {"verified": EXIT_VERIFIED, "refuted": EXIT_REFUTED,
              "inconclusive": EXIT_INCONCLUSIVE, "error": EXIT_INCONCLUSIVE}

VALUATION_HEADER = "circflow-valuation v1"


class UsageError(ValueError):
    pass


def _verdict(ok: bool) -> str:
    return "verified" if ok else "refuted"


def _read_graph(path: str) -> Multigraph:
    return deserialize(Path(path).read_text())


def _read_ids(path: str) -> list[str]:
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def write_valuation(omega: valuations.BalancedValuation) -> str:
    lines = [VALUATION_HEADER, f"r {rat(omega.r)}"]
    unit = omega.unit
    for v, k in sorted(omega.k.items()):
        lines.append(f"{v} {rat(k * unit)}")
    return "\n".join(lines) + "\n"


def read_valuation(text: str) -> valuations.BalancedValuation:
    header: dict[str, str | None] = {"r": None}
    records = read_records(text, VALUATION_HEADER, header, 2, UsageError, "valuation", "vertex")
    first = next(records, None)
    if header["r"] is None:
        raise UsageError("valuation file must state r before vertex weights" if first
                         else "valuation file missing its r header")
    r = unrat(header["r"])
    if r <= 2:
        raise UsageError("a valuation needs r > 2")
    unit = r / (r - 2)
    k: dict[str, int] = {}
    for name, weight in chain([first] if first else (), records):
        ratio = unrat(weight) / unit
        if ratio.denominator != 1:
            raise UsageError(f"weight of {name!r} is not an integer multiple of r/(r-2)")
        k[name] = int(ratio)
    return valuations.BalancedValuation(r, k)


# -- subcommands ------------------------------------------------------------------


def _cmd_construct(args) -> int:
    fam = args.family
    if fam == "petersen":
        g = families.petersen()
    elif fam == "complete":
        g = families.complete_graph(args.m)
    elif fam == "flower":
        g = families.flower_snark(args.n).graph
    elif fam == "blanusa-chain":
        g = families.blanusa_chain(args.n).graph
    elif fam == "mp":
        g = families.mp_graph(args.p, args.stage).graph
    else:
        raise UsageError(f"unknown family {fam!r}")
    text = serialize(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_VERIFIED


def _cmd_flow_number(args) -> int:
    g = _read_graph(args.graph)
    t0 = time.monotonic()
    try:
        result = flows.circular_flow_number(g, cap=args.cap)
    except flows.BridgedGraphError as exc:
        print(f"refuted: {exc}")
        return EXIT_REFUTED
    except flows.SizeCapExceeded as exc:
        print(f"inconclusive: {exc}")
        return EXIT_INCONCLUSIVE
    cert = flows.phi_c_certificate(g, result, time.monotonic() - t0)
    print(f"phi_c = {rat(result.value)}")
    if args.out:
        Path(args.out).write_text(cert.to_json())
    return EXIT_VERIFIED


def _cmd_verify_flow(args) -> int:
    g = _read_graph(args.graph)
    flow = flows.read_flow(Path(args.flow).read_text())
    cert = flows.verify_flow(g, flow)
    print(f"{cert.verdict}: r = {rat(flow.r)}")
    if args.out:
        Path(args.out).write_text(cert.to_json())
    return EXIT_CODES[cert.verdict]


def _cmd_build_flow(args) -> int:
    if args.family == "flower":
        data = flows.build_flower_flow(args.n)
        graph, flow = data.graph, data.flow
    elif args.family == "blanusa-chain":
        data = blanusa.build_chain(args.n)
        graph, flow = data.chain.graph, data.flow
    elif args.family == "bipartite":
        if args.graph is None:
            raise UsageError("the bipartite family needs --graph")
        graph = _read_graph(args.graph)
        flow = flows.bipartite_regular_flow(graph, args.t)
    else:
        raise UsageError(f"unknown flow family {args.family!r}")
    verdict = _verdict(flows.flow_violation(graph, flow) is None)
    print(f"{verdict}: r = {rat(flow.r)}")
    if args.out:
        Path(args.out).write_text(flows.write_flow(flow))
    if args.out_graph:
        Path(args.out_graph).write_text(serialize(graph))
    return EXIT_CODES[verdict]


def _cmd_chromatic_index(args) -> int:
    g = _read_graph(args.graph)
    t0 = time.monotonic()
    result = colorings.chromatic_index(g, budget_s=args.budget)
    cert = colorings.chromatic_index_certificate(g, result, time.monotonic() - t0)
    if args.out:
        Path(args.out).write_text(cert.to_json())
    if result.is_exact:
        print(f"chromatic index = {result.exact} ({result.method})")
    else:
        print(f"inconclusive: bounds [{result.lower}, {result.upper}]")
    return EXIT_CODES[cert.verdict]


def _cmd_color(args) -> int:
    if args.construction == "mp-prime":
        data = mp_coloring.mp_prime_coloring(args.t)
        graph, coloring = data.family.graph, data.coloring
    elif args.construction == "mp-tilde":
        graph, coloring = mp_coloring.mp_tilde_coloring(args.t)
    elif args.construction == "flower-plus-m":
        if args.matching is None:
            raise UsageError("--construction flower-plus-m needs --matching")
        matching = _read_ids(args.matching)
        try:
            graph, coloring = flower_coloring.flower_plus_m_coloring(args.n, matching)
        except flower_coloring.FlowerColoringCounterexample as exc:
            print(f"refuted: {exc}")
            return EXIT_REFUTED
    else:
        raise UsageError(f"unknown construction {args.construction!r}")
    print(f"palette {coloring.palette}, mode {coloring.mode}")
    if args.out:
        Path(args.out).write_text(colorings.write_coloring(coloring))
    if args.out_graph:
        Path(args.out_graph).write_text(serialize(graph))
    return EXIT_VERIFIED


def _cmd_class_property(args) -> int:
    g = _read_graph(args.graph)
    matching = _read_ids(args.matching)
    t_range = [int(x) for x in args.t_range.split(",")]
    cert = colorings.class_property(g, matching, args.which, t_range, budget_s=args.budget)
    print(f"{cert.verdict}: class-{args.which} over t in {t_range} (tested range only)")
    if args.out:
        Path(args.out).write_text(cert.to_json())
    return EXIT_CODES[cert.verdict]


def _cmd_check_balanced(args) -> int:
    g = _read_graph(args.graph)
    omega = read_valuation(Path(args.valuation).read_text())
    cert = valuations.check_balanced(g, omega)
    print(cert.verdict)
    if args.out:
        Path(args.out).write_text(cert.to_json())
    return EXIT_CODES[cert.verdict]


def _cmd_asymptotic_bound(args) -> int:
    value = valuations.asymptotic_bound(unrat(args.r), args.t)
    print(rat(value))
    return EXIT_VERIFIED


def _cmd_reverify(args) -> int:
    g = _read_graph(args.graph)
    cert = certificate_from_json(Path(args.certificate).read_text())
    ok = reverify(cert, g)
    print("reproduced" if ok else "NOT reproduced")
    return EXIT_VERIFIED if ok else EXIT_REFUTED


# -- the paper demo ----------------------------------------------------------------

_Row = tuple[str, dict[str, str]]  # a producer's verdict and its files by name


def _cert_row(name: str, make, *args) -> _Row:
    """The row of the certificate ``make(*args)``, written as ``name``."""
    cert = make(*args)
    return cert.verdict, {name: cert.to_json()}


def _phi_c_row(name: str, g: Multigraph, want: Fraction) -> _Row:
    result = flows.circular_flow_number(g)
    return _verdict(result.value == want), {
        f"phi_c_{name}.cert.json": flows.phi_c_certificate(g, result).to_json()}


def _flow_row(stem: str, graph: Multigraph, flow: flows.RationalFlow) -> _Row:
    cert = flows.verify_flow(graph, flow)
    return cert.verdict, {f"{stem}.graph": serialize(graph), f"{stem}.flow": flows.write_flow(flow),
                          f"{stem}.cert.json": cert.to_json()}


def _flower_flow_row(n: int) -> _Row:
    data = flows.build_flower_flow(n)
    return _flow_row(f"flower_{n}", data.graph, data.flow)


def _chain_flow_row(n: int) -> _Row:
    data = blanusa.build_chain(n)
    return _flow_row(f"blanusa_{n}", data.chain.graph, data.flow)


def _factor_class2(side: str, budget: float | None):
    """One Petersen factor of the seed's dot product, + 2M checked class 2."""
    seed = blanusa.load_or_find_seed()
    spec = seed.product().spec
    g, m = (spec.g, seed.dot_product["n1"]) if side == "left" else (spec.h, seed.dot_product["n2"])
    return colorings.class_property(g, m, 2, [2], budget_s=budget)


def _prover_class2(budget: float | None):
    return colorings.dot_product_class2_prover(blanusa.load_or_find_seed().product(),
                                               _factor_class2("left", budget),
                                               _factor_class2("right", budget), 2)


def _direct_class2(budget: float | None):
    product = blanusa.load_or_find_seed().product()
    return colorings.class_property(product.graph, sorted(product.matching), 2, [2], budget_s=budget)


def _m3_degrees_row() -> _Row:
    fam = families.mp_graph(3, families.MP_BASE)
    g = fam.graph
    ok = all(g.degree(c) == 15 for c in fam.junctions) and g.degree("w") == 13
    ok = ok and all(g.degree(v) in (13, 15) for v in g.vertices)
    return _verdict(ok), {"m3.graph": serialize(g)}


def _mp_prime_row(t: int) -> _Row:
    data = mp_coloring.mp_prime_coloring(t)
    return "verified", {f"m{2 * t + 1}_prime.coloring": colorings.write_coloring(data.coloring)}


def _mp_tilde_row(t: int) -> _Row:
    g, col = mp_coloring.mp_tilde_coloring(t)
    ok, _ = colorings.is_proper(g, col)
    p = 2 * t + 1
    return _verdict(ok and g.is_regular(8 * t + 5)), {
        f"m{p}_tilde.graph": serialize(g), f"m{p}_tilde.coloring": colorings.write_coloring(col)}


def _flower_plus_m_claim(n: int):
    """The claim text for J_{2n+1} + M and its producer: every perfect
    matching M is 4-colorable except those using a triangle edge."""
    g = families.flower_snark(n).graph
    pms = sorted(perfect_matchings(g), key=sorted)
    on_triangle = {eid for eid in g.edge_ids
                   if set(g.neighbors(g.edge(eid).u)) & set(g.neighbors(g.edge(eid).v))}
    triangle = [pm for pm in pms if pm & on_triangle]
    name = f"J{2 * n + 1}+M"
    if triangle:
        listed = "; ".join(" ".join(sorted(pm)) for pm in triangle)
        text = (f"4-coloring of {name} exactly for the {len(pms) - len(triangle)} "
                f"triangle-free matchings, none for the {len(triangle)} triangle "
                f"matchings: {listed}")
    else:
        text = f"4-coloring of {name} for all {len(pms)} matchings"

    def produce() -> _Row:
        refuted = []
        for pm in pms:
            try:
                flower_coloring.flower_plus_m_coloring(n, sorted(pm))
            except flower_coloring.FlowerColoringCounterexample:
                refuted.append(pm)
        return _verdict(refuted == triangle), {}
    return text, produce


def _transition_row() -> _Row:
    return _verdict(all(colorings.transition_claim_check(types) is not None
                        for k in (3, 5, 7, 9, 11) for types in _admissible_sequences(k))), {}


def _admissible_sequences(k: int):
    from .colorings import _ALLOWED_NEXT, X1, X2, X3

    seq: list[str] = []

    def rec():
        if len(seq) == k:
            if seq[0] in _ALLOWED_NEXT[seq[-1]]:
                yield tuple(seq)
            return
        for t in (X1, X2, X3):
            if not seq or t in _ALLOWED_NEXT[seq[-1]]:
                seq.append(t)
                yield from rec()
                seq.pop()

    yield from rec()


def _section_2_claims(budget: float | None) -> list[tuple[str, Callable[[], _Row]]]:
    rows = [(f"Petersen ({side} factor) + 2M is class 2",
             partial(_cert_row, f"petersen_{side}_class2.cert.json", _factor_class2, side, budget))
            for side in ("left", "right")]
    return rows + [("dot product + 2M class 2 (parity prover)",
                    partial(_cert_row, "dot_product_class2.cert.json", _prover_class2, budget)),
                   ("dot product + 2M class 2 (direct refutation)",
                    partial(_cert_row, "dot_product_class2_direct.cert.json", _direct_class2, budget))]


def _section_2_1_claims(budget: float | None) -> list[tuple[str, Callable[[], _Row]]]:
    rows = [(f"phi_c({name})", partial(_phi_c_row, name, g, want))
            for name, g, want in (("K4", families.complete_graph(4), Fraction(4)),
                                  ("K6", families.complete_graph(6), Fraction(3)),
                                  ("Petersen", families.petersen(), Fraction(5)))]
    rows += [(f"flower flow J{2 * n + 1} at 4+1/{n}", partial(_flower_flow_row, n)) for n in (1, 2, 3, 4)]
    return rows + [(f"Blanusa chain flow G{n} at 4+1/{n + 1}", partial(_chain_flow_row, n))
                   for n in (1, 2, 3)]


def _section_3_claims(budget: float | None) -> list[tuple[str, Callable[[], _Row]]]:
    rows = [("M_3 degrees match the construction", _m3_degrees_row)]
    for t in (1, 2):
        p, k = 2 * t + 1, 8 * t + 5
        rows += [(f"M_{p}' sees-odd {k}-coloring", partial(_mp_prime_row, t)),
                 (f"M~_{p} is {k}-regular and properly {k}-colored", partial(_mp_tilde_row, t))]
    return rows


def _appendix_claims(budget: float | None) -> list[tuple[str, Callable[[], _Row]]]:
    return [_flower_plus_m_claim(n) for n in (1, 2, 3)] + [
        ("transition claim on all admissible sequences up to length 11", _transition_row)]


_SCOPES = {"section-2": _section_2_claims, "section-2.1": _section_2_1_claims,
           "section-3": _section_3_claims, "appendix": _appendix_claims}


def _claims(budget: float | None, scope: str) -> list[tuple[str, str, Callable[[], _Row]]]:
    """The claim table: the paper-demo rows of ``scope``, or of every scope
    for "all", in report order, as (scope, claim, producer).  Only the chosen
    scopes' rows are built, since the appendix claim texts enumerate the
    perfect matchings of J3, J5 and J7."""
    return [(name, claim, produce) for name, rows in _SCOPES.items() if scope in ("all", name)
            for claim, produce in rows(budget)]


def _cmd_paper_demo(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[tuple[str, str, float]] = []
    for _, claim, produce in _claims(args.budget, args.scope):
        t0 = time.monotonic()
        try:
            verdict, files = produce()
            for name, text in files.items():
                (out / name).write_text(text)
        except Exception as exc:  # an internal fault, not a mathematical refutation
            import traceback
            traceback.print_exc()
            claim, verdict = f"{claim}: {type(exc).__name__}: {exc}", "error"
        seconds = time.monotonic() - t0
        print(f"  [{verdict:>12}] {claim} ({seconds:.2f}s)")
        rows.append((claim, verdict, seconds))
    width = max((len(claim) for claim, _, _ in rows), default=10)
    lines = [f"{'claim'.ljust(width)}  verdict       seconds"]
    lines += [f"{claim.ljust(width)}  {verdict:<12}  {seconds:8.2f}" for claim, verdict, seconds in rows]
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    # the lowest non-zero code wins: refuted (1) over inconclusive or error (2)
    return min((EXIT_CODES[v] for _, v, _ in rows if v != "verified"), default=EXIT_VERIFIED)


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="circflow",
                                description="exact flow/coloring certificates for snark families")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit a graph of one of the families")
    c.add_argument("--family", required=True,
                   choices=["petersen", "complete", "flower", "blanusa-chain", "mp"])
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--m", type=int, default=4)
    c.add_argument("--p", type=int, default=3)
    c.add_argument("--stage", choices=["base", "prime", "tilde"], default="base")
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_construct)

    c = sub.add_parser("flow-number", help="exact circular flow number")
    c.add_argument("graph")
    c.add_argument("--cap", type=int, default=flows.PHI_C_EDGE_CAP)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_flow_number)

    c = sub.add_parser("verify-flow", help="check a flow file against a graph")
    c.add_argument("graph")
    c.add_argument("flow")
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_verify_flow)

    c = sub.add_parser("build-flow", help="construct one of the paper flows")
    c.add_argument("--family", required=True, choices=["flower", "blanusa-chain", "bipartite"])
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--t", type=int, default=1)
    c.add_argument("--graph", help="input graph (bipartite family)")
    c.add_argument("--out")
    c.add_argument("--out-graph")
    c.set_defaults(fn=_cmd_build_flow)

    c = sub.add_parser("chromatic-index", help="exact chromatic index")
    c.add_argument("graph")
    c.add_argument("--budget", type=float)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_chromatic_index)

    c = sub.add_parser("color", help="build one of the paper colorings")
    c.add_argument("--construction", required=True,
                   choices=["mp-prime", "mp-tilde", "flower-plus-m"])
    c.add_argument("--t", type=int, default=1)
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--matching", help="file with one matching edge id per line")
    c.add_argument("--out")
    c.add_argument("--out-graph")
    c.set_defaults(fn=_cmd_color)

    c = sub.add_parser("class-property", help="class-1/2 of g+(2t-2)M over tested t")
    c.add_argument("graph")
    c.add_argument("--matching", required=True)
    c.add_argument("--which", type=int, required=True, choices=[1, 2])
    c.add_argument("--t-range", default="1,2")
    c.add_argument("--budget", type=float)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_class_property)

    c = sub.add_parser("check-balanced", help="balanced-valuation inequality over all subsets")
    c.add_argument("graph")
    c.add_argument("valuation")
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_check_balanced)

    c = sub.add_parser("asymptotic-bound", help="the flow bound 2 + 2(r-2)/(r+(2t-3)(r-2))")
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--r", required=True, help="rational p/q in (4,5)")
    c.set_defaults(fn=_cmd_asymptotic_bound)

    c = sub.add_parser("paper-demo", help="regenerate and verify the headline artifacts")
    c.add_argument("--scope", default="all", choices=["all", *_SCOPES])
    c.add_argument("--out", required=True)
    c.add_argument("--budget", type=float, default=1800.0)
    c.set_defaults(fn=_cmd_paper_demo)

    c = sub.add_parser("reverify", help="re-check a certificate against its graph")
    c.add_argument("graph")
    c.add_argument("certificate")
    c.set_defaults(fn=_cmd_reverify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
