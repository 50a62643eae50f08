"""Reference versions of the certificate serializer, kept only as oracles
for the differential tests: they re-wrap every value in ``Fraction`` and
re-hash the graph on every call, as the serializer once did."""

import hashlib
from fractions import Fraction

from circflow.multigraph import canonical_serialize


def _rat_oracle(x):
    """Rational rendering by re-wrapping in ``Fraction``: the oracle."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _jsonable_oracle(value):
    """Canonical JSON data, every dict sorted by ``str`` of its keys: the oracle."""
    if isinstance(value, Fraction):
        return _rat_oracle(value)
    if isinstance(value, dict):
        return {str(k): _jsonable_oracle(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable_oracle(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [_jsonable_oracle(v) for v in sorted(value, key=str)]
    return value


def _graph_hash_oracle(g):
    """The content hash recomputed from the serialization: the oracle."""
    return hashlib.sha256(canonical_serialize(g).encode()).hexdigest()
