"""The plain records the solvers return are immutable values: no attribute
can be set, a record equals any record with equal fields, and it is hashable
exactly when all its fields are."""

import copy

import pytest

from circflow import blanusa, colorings, families, flows, mp_coloring
from circflow.multigraph import edge_cut

RECORDS = ["IndexedView", "EdgeCut", "Bipartition", "FlowerSnark", "DotProductSpec",
           "MDotProduct", "MpFamily", "PhiCResult", "FlowerFlowData", "EdgeColoring",
           "ChromaticIndexResult", "MpPrimeColoringData", "BlanusaSeed", "BlanusaChain",
           "ChainFlowData"]

# The records whose fields are all hashable: sets of ids, no graph, dict or flow.
HASHABLE = {"EdgeCut", "Bipartition"}


@pytest.fixture(scope="module")
def records():
    petersen, k4 = families.petersen(), families.complete_graph(4)
    product = blanusa.load_or_find_seed().product()
    chain = blanusa.build_chain(1)
    flower = flows.build_flower_flow(1)
    prime = mp_coloring.mp_prime_coloring(1)
    chi = colorings.chromatic_index(k4)
    found = [petersen.indexed, edge_cut(petersen, ["u0", "u1"]), flower.bipartition,
             families.flower_snark(1), product.spec, product, prime.family,
             flows.circular_flow_number(k4), flower, chi.coloring, chi, prime,
             blanusa.load_or_find_seed(), chain.chain, chain]
    return {type(record).__name__: record for record in found}


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_every_record_is_covered(records):
    assert sorted(records) == sorted(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_cannot_be_assigned(records, name):
    record = records[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_equal_by_value(records, name):
    record = records[name]
    twin = copy.deepcopy(record)
    assert twin == record and twin is not record
    assert record._replace(**{record._fields[0]: object()}) != record


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_hashable_when_its_fields_are(records, name):
    record = records[name]
    assert _hashable(record) == all(map(_hashable, record)) == (name in HASHABLE)
    if name in HASHABLE:
        assert hash(copy.deepcopy(record)) == hash(record)
