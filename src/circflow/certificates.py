"""Claim/witness/verdict records with canonical serialization.

A certificate bundles a claim about one graph, the witness backing the
verdict, and enough metadata to re-check the claim later.  The canonical
JSON form excludes volatile metadata (elapsed time) so that identical
claims with identical witnesses serialize byte-identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .multigraph import Multigraph

PROVER_VERSION = "circflow/0.1.0"
SCHEMA_VERSION = "circflow-cert/1"

CLAIM_KINDS = (
    "flow-valid",
    "phi-c-value",
    "phi-c-bound",
    "chromatic-index",
    "class-property",
    "parity",
    "balanced",
    "inequality-check",
)

VERDICTS = ("verified", "refuted", "inconclusive")


class CertificateError(ValueError):
    pass


def rat(x: Fraction | int) -> str:
    if type(x) is not Fraction and type(x) is not int:
        x = Fraction(x)
    return "%d/%d" % x.as_integer_ratio()


def unrat(s: str) -> Fraction:
    num, _, den = s.partition("/")
    d = int(den or 1)
    if d == 0:
        raise ValueError(f"rational {s!r} has a zero denominator")
    return Fraction(int(num), d)


def graph_hash(g: Multigraph) -> str:
    return g.content_sha256


def _jsonable(value: Any) -> Any:
    if value is None or type(value) is str or type(value) is int:
        return value
    if isinstance(value, dict):
        # str(k) order: int keys sort as text, so 10 comes before 9
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [_jsonable(v) for v in sorted(value, key=str)]
    # last: Fraction is an ABC subclass, so isinstance on other types is slow
    return rat(value) if isinstance(value, Fraction) else value


@dataclass
class Certificate:
    kind: str
    graph_sha256: str
    parameters: dict[str, Any]
    witness: dict[str, Any]
    verdict: str
    prover_version: str = PROVER_VERSION
    elapsed_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in CLAIM_KINDS:
            raise CertificateError(f"unknown claim kind {self.kind!r}")
        if self.verdict not in VERDICTS:
            raise CertificateError(f"unknown verdict {self.verdict!r}")
        self.parameters = _jsonable(self.parameters)
        self.witness = _jsonable(self.witness)

    def canonical_payload(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "graph_sha256": self.graph_sha256,
            "parameters": self.parameters,
            "witness": self.witness,
            "verdict": self.verdict,
            "prover_version": self.prover_version,
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.canonical_payload(), sort_keys=True, separators=(",", ":")).encode()

    def certificate_sha256(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def to_json(self) -> str:
        doc = {"certificate": self.canonical_payload(), "meta": {"elapsed_s": self.elapsed_s}}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def certificate_from_json(text: str) -> Certificate:
    doc = json.loads(text)
    try:
        body = doc["certificate"]
        if body["schema"] != SCHEMA_VERSION:
            raise CertificateError(f"unsupported schema {body['schema']!r}")
        return Certificate(
            kind=body["kind"],
            graph_sha256=body["graph_sha256"],
            parameters=body["parameters"],
            witness=body["witness"],
            verdict=body["verdict"],
            prover_version=body["prover_version"],
            elapsed_s=float(doc.get("meta", {}).get("elapsed_s", 0.0)),
        )
    except KeyError as exc:
        raise CertificateError(f"missing certificate field {exc}") from exc


def make_certificate(kind: str, g: Multigraph, parameters: dict[str, Any],
                     witness: dict[str, Any], verdict: str, elapsed_s: float = 0.0) -> Certificate:
    return Certificate(
        kind=kind,
        graph_sha256=graph_hash(g),
        parameters=parameters,
        witness=witness,
        verdict=verdict,
        elapsed_s=elapsed_s,
    )


def reverify(cert: Certificate, g: Multigraph) -> bool:
    """Re-check a certificate against its graph using the cheap path.

    Positive verdicts are reproduced by re-running witness verification.
    Class-2 entries of class-property certificates re-run the matching
    cover, and a chromatic index above the maximum degree re-runs the search
    one color short.
    Raises on hash mismatch or unknown claim kind.
    """
    if cert.graph_sha256 != graph_hash(g):
        raise CertificateError("graph hash mismatch: certificate does not describe this graph")

    from . import colorings, flows, valuations  # deferred: avoids import cycle

    kind = cert.kind
    if kind in ("flow-valid", "phi-c-value", "phi-c-bound"):
        flow = flows.flow_from_witness(g, cert.witness["flow"])
        check = flows.verify_flow(g, flow)
        if kind == "phi-c-value" and check.verdict == "verified":
            return unrat(cert.parameters["r"]) == flow.r
        return (check.verdict == "verified") == (cert.verdict == "verified")
    if kind == "chromatic-index":
        return colorings.reverify_chromatic_index(cert, g)
    if kind == "class-property":
        return colorings.reverify_class_property(cert, g)
    if kind == "parity":
        return colorings.reverify_parity(cert, g)
    if kind == "balanced":
        return valuations.reverify_balanced(cert, g)
    if kind == "inequality-check":
        return valuations.reverify_inequality(cert, g)
    raise CertificateError(f"unknown claim kind version {kind!r}")
