"""Spans around the benchmark's calls into circflow, and the per-layer figures
made from them.

A span records the layer (circflow module), the function, its start and end,
the span that encloses it, the pass it belongs to (``setup<k>`` or
``round<k>``) and any counts the call site adds.  Spans are kept in memory
and written out once, when the run ends.  With tracing off, ``span`` hands
out a throwaway counts dict and records nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

# per-layer time metrics: the self time of the spans of these (layer, function)s
TIME_METRICS = {
    "circflow.import_s": [("circflow", "import")],
    "families.build_s": [("families", "build")],
    "blanusa.seed_load_s": [("blanusa", "load_or_find_seed")],
    "flower_coloring.table_load_s": [("flower_coloring", "load_gadget_table")],
    "flows.phi_c_s": [("flows", "circular_flow_number")],
    "flows.construct_s": [("flows", "build_flower_flow"), ("flows", "bipartite_regular_flow")],
    "blanusa.chain_s": [("blanusa", "build_chain")],
    "flows.witness_s": [("flows", "matched_flow_witness")],
    "flows.verify_s": [("flows", "verify_flow")],
    "colorings.class_property_s": [("colorings", "class_property"),
                                   ("colorings", "dot_product_class2_prover")],
    "colorings.chromatic_index_s": [("colorings", "chromatic_index")],
    "flower_coloring.color_s": [("flower_coloring", "flower_plus_m_coloring")],
    "mp_coloring.color_s": [("mp_coloring", "mp_prime_coloring"),
                            ("mp_coloring", "mp_tilde_coloring")],
    "multigraph.perfect_matchings_s": [("multigraph", "perfect_matchings")],
    "colorings.check_s": [("colorings", "is_proper"), ("colorings", "sees_odd_violation")],
    "valuations.check_balanced_s": [("valuations", "check_balanced")],
    "valuations.flow_bound_s": [("valuations", "bipartition_to_flow_bound")],
    "valuations.inequality_s": [("valuations", "matched_bipartition_inequality_check")],
    "certificates.emit_s": [("certificates", "emit")],
    "certificates.reverify_s": [("certificates", "reverify")],
}

# per-layer counts: (spans, count field); a field of None counts the spans
COUNT_METRICS = {
    "flows.phi_c_calls": ([("flows", "circular_flow_number")], None),
    "colorings.factorize_nodes": ([("colorings", "class_property")], "nodes"),
    "colorings.chromatic_index_nodes": ([("colorings", "chromatic_index")], "nodes"),
    "flower_coloring.calls": ([("flower_coloring", "flower_plus_m_coloring")], None),
    "valuations.subsets_checked": ([("valuations", "check_balanced")], "subsets"),
    "certificates.bytes": ([("certificates", "emit")], "bytes"),
}


class Tracer:
    def __init__(self, enabled: bool, now=time.perf_counter):
        self.enabled = enabled
        self.now = now
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._pass = ""

    def begin_pass(self, name: str) -> None:
        self._pass = name

    @contextmanager
    def span(self, layer: str, fn: str):
        counts: dict[str, int] = {}
        if not self.enabled:
            yield counts
            return
        rec = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
               "pass": self._pass, "layer": layer, "fn": fn, "counts": counts,
               "start": self.now()}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield counts
        finally:
            rec["end"] = self.now()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as out:
            for rec in self.spans:
                out.write(json.dumps(rec) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - covered[s["id"]] for s in spans]


def function_table(spans: list[dict]) -> dict[tuple[str, str], tuple[int, float]]:
    """(layer, function) -> (spans, total self time) over the whole run."""
    table: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
    for s, own in zip(spans, self_times(spans)):
        entry = table[(s["layer"], s["fn"])]
        entry[0] += 1
        entry[1] += own
    return {k: (n, t) for k, (n, t) in table.items()}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric: its median over the set-up passes plus its
    median over the rounds, so one figure covers a set-up and a round."""
    of_span = {key: name for name, keys in TIME_METRICS.items() for key in keys}
    per_pass: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        key = (s["layer"], s["fn"])
        bucket = per_pass[s["pass"]]
        if key in of_span:
            bucket[of_span[key]] += own
        for name, (keys, field) in COUNT_METRICS.items():
            if key in keys:
                bucket[name] += 1 if field is None else s["counts"].get(field, 0)
    setups = [b for p, b in per_pass.items() if p.startswith("setup")]
    rounds = [b for p, b in per_pass.items() if p.startswith("round")]
    out = {}
    for name in list(TIME_METRICS) + list(COUNT_METRICS):
        value = sum(median(b.get(name, 0) for b in group) for group in (setups, rounds) if group)
        out[name] = value if name in TIME_METRICS else int(value)
    return out
