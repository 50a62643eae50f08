"""Claim/witness/verdict records with canonical serialization, and the
record grammar that the flow, coloring and valuation text files share.

A certificate bundles a claim about one graph, the witness backing the
verdict, and enough metadata to re-check the claim later.  The canonical
JSON form excludes volatile metadata (elapsed time) so that identical
claims with identical witnesses serialize byte-identically.

A certificate file (``*.cert.json``, written by ``Certificate.to_json``) is
one line of compact JSON, ``{"certificate":<canonical>,"meta":{"elapsed_s":
<seconds>}}``, where ``<canonical>`` is exactly ``canonical_bytes()``, the
bytes that ``certificate_sha256()`` hashes.  Readers parse the file as JSON
and must not depend on its whitespace: files written with ``indent=2`` by
earlier versions carry the same JSON value and read the same.

Producers must pass canonical data: str keys, lists, ints, strs, None and
rationals as ``rat`` strings.  Nothing re-normalizes it, so a certificate
reads back equal to the one written, and ``json.dumps`` raises on a
``Fraction`` or a set.  ``reverify`` re-checks a ``phi-c-value`` by its
witness flow only, a nowhere-zero flow at the claimed value, so the value
is re-checked as an upper bound and not as a lower bound.

Two fields may be deferred, so that a check whose caller reads only the
verdict costs no more than the check: ``make_certificate`` always defers
``graph_sha256`` (the graph's cached hash) and defers ``witness`` when the
producer passes a function that makes it.  Each is made on its first read,
which every serializer, hash and ``reverify`` does, and is then fixed: the
certificate holds it like a field it was built with.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Callable, Iterator

from .multigraph import GraphError, Multigraph

PROVER_VERSION = "circflow/0.1.0"
SCHEMA_VERSION = "circflow-cert/1"

CLAIM_KINDS = (
    "flow-valid",
    "phi-c-value",
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


def is_integer_text(s: str) -> bool:
    """Is ``s`` an optional ``-`` and ASCII digits, as ``str`` writes an int?
    ``int()`` alone also takes spaces, ``_``, ``+`` and non-ASCII digits."""
    return s.isascii() and (s.isdigit() or s[:1] == "-" and s[1:].isdigit())


def rat_terms(s: str) -> tuple[int, int]:
    """The numerator and denominator that ``s`` writes, as written: ``s`` is
    an optional ``-``, ASCII digits and an optional ``/`` and ASCII digits,
    so a bare integer reads too, with denominator 1.  Raises ``ValueError``
    on anything else and on a zero denominator."""
    num, sep, den = s.partition("/")
    if not (is_integer_text(num) and (den.isascii() and den.isdigit() or not sep)):
        raise ValueError(f"malformed rational {s!r}")
    d = int(den or 1)
    if d == 0:
        raise ValueError(f"rational {s!r} has a zero denominator")
    return int(num), d


def unrat(s: str) -> Fraction:
    """The rational that ``rat`` renders as ``s``, read by ``rat_terms``."""
    return Fraction(*rat_terms(s))


def read_records(text: str, header: str, head: dict[str, str | None], width: int,
                 error: type[ValueError], name: str, item: str) -> Iterator[list[str]]:
    """The records of a text file, each as its list of fields.

    The first non-blank line must be ``header``; blank lines are skipped.  A
    line whose key, its first field, is a key of ``head`` is a header with one
    value, stored there as the line is read; each header appears once.  Every
    other line is a record of ``width`` fields whose key appears once.  Errors
    are raised as ``error`` and call the file a ``name`` file, a record an ``item``.
    """
    lines = iter(text.splitlines())
    if next((s for ln in lines if (s := ln.strip())), None) != header:
        raise error(f"expected header {header!r}")
    seen: set[str] = set()
    for ln in lines:
        fields = ln.split()
        if len(fields) == width and (key := fields[0]) not in head:
            if key in seen:
                raise error(f"{item} {key!r} appears twice")
            seen.add(key)
            yield fields
        elif fields:
            key = fields[0]
            if key not in head or len(fields) != 2:
                raise error(f"malformed {name} line {ln.strip()!r}")
            if head[key] is not None:
                raise error(f"header {key!r} appears twice")
            head[key] = fields[1]


def graph_hash(g: Multigraph) -> str:
    return g.content_sha256


_FIELDS = ("kind", "graph_sha256", "parameters", "witness", "verdict", "prover_version", "elapsed_s")


class Certificate:
    """One claim about one graph: ``Certificate(kind, graph_sha256,
    parameters, witness, verdict, prover_version, elapsed_s)``, each field a
    plain attribute.  Equal when every field is equal; unhashable, as its
    fields are mutable.

    A certificate from ``make_certificate`` defers ``graph_sha256``, and its
    ``witness`` too when the producer passed a function.  A deferred field is
    an unset slot, so ``__getattr__`` runs only for it: its first read makes
    it, and the slot then holds it like any other field, fixed from then on.
    ``==``, ``repr``, ``to_json``, the canonical bytes, the hash and
    ``reverify`` read every field they show, so they make what is deferred.
    """

    kind: str
    graph_sha256: str
    parameters: dict[str, Any]
    witness: dict[str, Any]
    verdict: str
    prover_version: str
    elapsed_s: float
    __slots__ = (*_FIELDS, "_graph", "_render")
    __hash__ = None

    def __init__(self, kind: str, graph_sha256: str, parameters: dict[str, Any],
                 witness: dict[str, Any], verdict: str, prover_version: str = PROVER_VERSION,
                 elapsed_s: float = 0.0) -> None:
        if kind not in CLAIM_KINDS:
            raise CertificateError(f"unknown claim kind {kind!r}")
        if verdict not in VERDICTS:
            raise CertificateError(f"unknown verdict {verdict!r}")
        self.kind = kind
        self.graph_sha256 = graph_sha256
        self.parameters = parameters
        self.witness = witness
        self.verdict = verdict
        self.prover_version = prover_version
        self.elapsed_s = elapsed_s

    def __getattr__(self, name: str) -> Any:
        # only a slot left unset gets here: a deferred field, made once and kept
        if name == "graph_sha256":
            self.graph_sha256 = self._graph.content_sha256
            del self._graph
            return self.graph_sha256
        if name == "witness":
            self.witness = self._render()
            del self._render
            return self.witness
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in _FIELDS)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return f"Certificate({', '.join(f'{name}={getattr(self, name)!r}' for name in _FIELDS)})"

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

    def _canonical_text(self) -> str:
        # ASCII, since json.dumps escapes the rest; canonical data is a tree, so
        # the encoder's cycle check is skipped (a cycle ends in RecursionError)
        return json.dumps(self.canonical_payload(), sort_keys=True, separators=(",", ":"),
                          check_circular=False)

    def canonical_bytes(self) -> bytes:
        return self._canonical_text().encode()

    def certificate_sha256(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def to_json(self) -> str:
        """The certificate file: ``{"certificate":...,"meta":{"elapsed_s":...}}``
        and a newline, on one line.  Its ``certificate`` member is the text of
        ``canonical_bytes()`` byte for byte, so the payload is encoded once, by
        the C encoder.  Readers must not depend on the whitespace."""
        return ('{"certificate":' + self._canonical_text()
                + ',"meta":{"elapsed_s":' + json.dumps(self.elapsed_s) + "}}\n")


def certificate_from_json(text: str) -> Certificate:
    """The certificate in a certificate file, whatever its whitespace.  A
    missing ``meta`` or ``meta.elapsed_s`` reads as 0 s; an ``elapsed_s``
    that is not a JSON number raises ``CertificateError``."""
    doc = json.loads(text)
    try:
        body = doc["certificate"]
        if body["schema"] != SCHEMA_VERSION:
            raise CertificateError(f"unsupported schema {body['schema']!r}")
        elapsed = doc.get("meta", {}).get("elapsed_s", 0.0)
        if type(elapsed) is not float and type(elapsed) is not int:
            raise CertificateError(f"meta.elapsed_s is not a number: {elapsed!r}")
        return Certificate(
            kind=body["kind"],
            graph_sha256=body["graph_sha256"],
            parameters=body["parameters"],
            witness=body["witness"],
            verdict=body["verdict"],
            prover_version=body["prover_version"],
            elapsed_s=float(elapsed),
        )
    except KeyError as exc:
        raise CertificateError(f"missing certificate field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise CertificateError(f"malformed certificate: {exc!r}") from exc


def make_certificate(kind: str, g: Multigraph, parameters: dict[str, Any],
                     witness: dict[str, Any] | Callable[[], dict[str, Any]], verdict: str,
                     elapsed_s: float = 0.0) -> Certificate:
    """A certificate about ``g``.  Its ``graph_sha256`` is deferred: it is
    ``graph_hash(g)``, read when first wanted, which an immutable graph gives
    the same at any time.  ``witness`` is the witness itself, or a function of
    no arguments that makes it, called once, when ``witness`` is first read.
    Such a function must not fail, and must not depend on anything the caller
    may change afterwards: the producer checks and copies what it needs first.
    """
    cert = Certificate(kind, "", parameters, witness, verdict, elapsed_s=elapsed_s)
    del cert.graph_sha256
    cert._graph = g
    if callable(witness):
        del cert.witness
        cert._render = witness
    return cert


def reverify(cert: Certificate, g: Multigraph) -> bool:
    """Re-check a certificate against its graph using the cheap path.

    Positive verdicts are reproduced by re-running witness verification.
    Class-2 entries of class-property certificates re-run the matching
    cover, and a chromatic index above the maximum degree re-runs the search
    one color short.  A ``phi-c-value``, a verified ``balanced`` and a
    verified ``inequality-check`` certificate are re-checked by counting on
    their witness flow, with ``flows.witness_excess``: it must be a
    nowhere-zero flow at the certificate's value, with no zero edge, and no
    max-flow or cut runs.  For ``phi-c-value`` that flow is an upper bound
    only: the claimed value is not re-derived as a lower bound.  A balanced
    flow must have out - in = k, and proves the inequality for every vertex
    set (see ``valuations.reverify_balanced``), as the matched flow on H
    does with out - in = +-1 on the colour classes.  A refuted ``balanced``
    or ``inequality-check`` certificate counts the cut of the set it names.
    A refuted ``flow-valid`` certificate must name the violation that
    ``flows.flow_violation`` re-derives from its flow.  A witness that the
    re-check rejects as input is not reproduced: a flow that misses an edge
    of the graph or names an edge it lacks, an inequality matching with
    such an edge, a parity coloring that is not proper, a chromatic-index or
    class-property coloring that misses an edge or names one the graph
    lacks.  Producers must pass canonical data, which is re-checked here as
    it was made (``json.dumps`` raises on a ``Fraction`` or a set).  Raises
    ``CertificateError`` on hash mismatch, an unknown claim kind, a witness
    of the wrong shape, or a field that does not read as its type: a
    rational that ``unrat`` refuses or an integer that ``int`` refuses.
    """
    if cert.graph_sha256 != graph_hash(g):
        raise CertificateError("graph hash mismatch: certificate does not describe this graph")

    from . import colorings, flows, valuations  # deferred: avoids import cycle

    kind = cert.kind
    try:
        if kind == "flow-valid":
            try:
                flow = flows.flow_from_witness(g, cert.witness["flow"])
                violation = flows.flow_violation(g, flow)
            except (GraphError, flows.FlowError):
                return False  # the witness is not a flow on the edges of g
            if violation != cert.witness.get("violation"):
                return False
            return (violation is None) == (cert.verdict == "verified")
        if kind == "phi-c-value":
            try:
                excess = flows.witness_excess(g, cert.witness["flow"], unrat(cert.parameters["r"]))
            except (GraphError, flows.FlowError):
                return False  # the witness is not a flow on the edges of g
            return excess is not None and cert.verdict == "verified"
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
    except (LookupError, TypeError, AttributeError) as exc:
        raise CertificateError(f"malformed certificate: {exc!r}") from exc
    except ValueError as exc:
        if type(exc) is not ValueError:  # a check's own error, such as FlowError
            raise
        raise CertificateError(f"malformed certificate: {exc!r}") from exc
    raise CertificateError(f"unknown claim kind version {kind!r}")
