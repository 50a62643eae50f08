"""Proper 4-edge-coloring of a Flower snark plus a 1-factor.

J_{2n+1} + M is 4-regular, so a proper 4-edge-coloring of it is a
1-factorization, and the matching cover of ``colorings`` decides one exactly:
it either returns a coloring or refutes every coloring by exhaustion.  The
cover searches J_{2n+1}'s cached support graph with demand 2 on M.  The
appendix claims a coloring for every 1-factor M; the cover refutes it for the
six J_3 one-factors that use a triangle edge.

The gadget table below belongs to the appendix's block-pair contraction
argument: it records, for the eight-vertex two-block gadget, which boundary
colorings extend and how.  It is built exhaustively and frozen as a golden
resource; the coloring itself does not consult it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from . import families
from .colorings import (
    ColoringError,
    EdgeColoring,
    _backtrack_coloring,
    _matching_cover,
    is_proper,
)
from .multigraph import GraphError, Multigraph, _Deadline, _with_copies, matching_copy_ids

GADGET_SCHEMA = "circflow-flower-gadget/1"
_GADGET_RESOURCE = "flower_gadget.json"

FAMILIES = ("aa", "cd", "dc")

# which block-side vertices a matched cut family covers: (left letter, right letter)
_COVERS = {"aa": ("a", "a"), "cd": ("c", "d"), "dc": ("d", "c")}


class FlowerColoringCounterexample(RuntimeError):
    """J_{2n+1} + M has no proper 4-edge-coloring: the matching cover
    refuted every coloring by exhaustion."""


# -- the gadget --------------------------------------------------------------------


def _gadget_graph(mid_m: frozenset[str], internals: tuple[str, str],
                  doubled: str | None) -> tuple[Multigraph, list[str]]:
    """The two-block extension gadget; returns (graph, virtual edge ids)."""
    vs = [f"{x}{s}" for s in (1, 2) for x in "abcd"]
    edges = []
    for s in (1, 2):
        edges.append((f"ab{s}", f"b{s}", f"a{s}"))
        edges.append((f"bc{s}", f"b{s}", f"c{s}"))
        edges.append((f"bd{s}", f"b{s}", f"d{s}"))
    edges.append(("aa", "a1", "a2"))
    edges.append(("cd", "c1", "d2"))
    edges.append(("dc", "c2", "d1"))
    for s, letter in ((1, internals[0]), (2, internals[1])):
        edges.append((f"{'ab' if letter == 'a' else 'bc' if letter == 'c' else 'bd'}{s}@c1",
                      f"b{s}", f"{letter}{s}"))
    for fam in sorted(mid_m):
        base = {"aa": ("a1", "a2"), "cd": ("c1", "d2"), "dc": ("c2", "d1")}[fam]
        edges.append((f"{fam}@c1", base[0], base[1]))
    virtual = []
    # a boundary color of family f is avoided by the two vertices whose outer
    # f-edges carry it: cd pairs d1 with c2, dc pairs c1 with d2
    virt_ends = {"aa": ("a1", "a2"), "cd": ("d1", "c2"), "dc": ("c1", "d2")}
    for fam in FAMILIES:
        edges.append((f"v:{fam}", *virt_ends[fam]))
        virtual.append(f"v:{fam}")
        if doubled == fam:
            edges.append((f"v:{fam}+", *virt_ends[fam]))
            virtual.append(f"v:{fam}+")
    return Multigraph(vs, edges), virtual


def _case_internals(case: str, mid_m: frozenset[str], tau: str | None) -> tuple[str, str] | None:
    """Forced internal partners of the two gadget blocks, or None if the
    pattern is inconsistent."""
    covered1: set[str] = set()
    covered2: set[str] = set()
    if case == "case2":
        covered1.add(_COVERS[tau][1])  # dangling edge from the left cut
        covered2.add(_COVERS[tau][0])  # dangling edge into the right cut
    for fam in mid_m:
        covered1.add(_COVERS[fam][0])
        covered2.add(_COVERS[fam][1])
    if len(covered1) != 2 or len(covered2) != 2:
        return None
    (free1,) = {"a", "c", "d"} - covered1
    (free2,) = {"a", "c", "d"} - covered2
    return (free1, free2)


def _pattern_list():
    """All gadget patterns: (case, mid matched families, tau)."""
    out = []
    for mid in (frozenset({"cd", "dc"}), frozenset({"aa", "cd"}), frozenset({"aa", "dc"})):
        out.append(("case1", mid, None))
    for tau in FAMILIES:
        allowed = {"cd": ("cd", "aa"), "dc": ("dc", "aa"), "aa": ("cd", "dc")}[tau]
        for mid_fam in allowed:
            out.append(("case2", frozenset({mid_fam}), tau))
    return out


def _pattern_key(case: str, mid_m: frozenset[str], tau: str | None,
                 a_cols: tuple, b_cols: tuple, c_cols: tuple) -> str:
    return "|".join([
        case, "mid=" + ",".join(sorted(mid_m)), f"tau={tau or '-'}",
        "A=" + ",".join(map(str, a_cols)),
        "B=" + ",".join(map(str, b_cols)),
        "C=" + ",".join(map(str, c_cols)),
    ])


def build_gadget_table() -> dict[str, dict | None]:
    """Exhaustively solve every gadget pattern for every boundary coloring."""
    table: dict[str, dict | None] = {}
    for case, mid_m, tau in _pattern_list():
        internals = _case_internals(case, mid_m, tau)
        if internals is None:
            continue
        graph, virtual = _gadget_graph(mid_m, internals, tau)
        singles = [(c,) for c in range(4)]
        pairs = [(a, b) for a in range(4) for b in range(4) if a < b]
        options = {fam: (pairs if tau == fam else singles) for fam in FAMILIES}
        for a_cols in options["aa"]:
            for b_cols in options["cd"]:
                for c_cols in options["dc"]:
                    fixed: dict[str, int] = {}
                    for fam, cols in (("aa", a_cols), ("cd", b_cols), ("dc", c_cols)):
                        fixed[f"v:{fam}"] = cols[0]
                        if len(cols) == 2:
                            fixed[f"v:{fam}+"] = cols[1]
                    got = _backtrack_coloring(graph, 4, _Deadline(None), fixed=fixed)
                    key = _pattern_key(case, mid_m, tau, a_cols, b_cols, c_cols)
                    if got is None:
                        table[key] = None
                    else:
                        table[key] = {e: c for e, c in got.items() if e not in virtual}
    return table


def _golden_path() -> Path:
    return Path(__file__).parent / "data" / _GADGET_RESOURCE


_gadget_cache: dict[str, dict | None] | None = None


def load_gadget_table() -> dict[str, dict | None]:
    """The packaged gadget table; built in memory if the file is missing."""
    global _gadget_cache
    if _gadget_cache is None:
        path = _golden_path()
        if path.exists():
            doc = json.loads(path.read_text())
            if doc.get("schema") != GADGET_SCHEMA:
                raise ColoringError("unsupported gadget table schema")
            _gadget_cache = doc["table"]
        else:
            _gadget_cache = build_gadget_table()
    return _gadget_cache


# -- the coloring ------------------------------------------------------------------


def flower_plus_m_coloring(n: int, matching: Iterable[str]) -> tuple[Multigraph, EdgeColoring]:
    """A verified proper 4-edge-coloring of H = J_{2n+1} + M for a 1-factor M.

    The matching cover runs on J_{2n+1}'s own support, with demand 2 on M
    and 1 elsewhere, and names the colors through M's copy ids, so H is
    built only once a coloring is found, to be checked and returned.
    Raises ``FlowerColoringCounterexample`` when no proper 4-coloring exists
    (which happens for the six J_3 one-factors using a triangle edge).
    """
    g = families.flower_snark(n).graph
    m = sorted(frozenset(matching))
    try:
        copies = matching_copy_ids(g, m, 1)
    except GraphError:
        for eid in m:
            g.edge(eid)  # an unknown id is reported as such
        copies = None
    if copies is None or 2 * len(m) != g.num_vertices():
        raise ColoringError("the added edge set must be a perfect matching")
    colors = _matching_cover(g, _Deadline(None), m, copies)
    if colors is None:
        raise FlowerColoringCounterexample(
            f"J_{2 * n + 1} plus this 1-factor admits no proper 4-edge-coloring")
    h = _with_copies(g, m, copies)
    coloring = EdgeColoring(colors, 4)
    ok, clash = is_proper(h, coloring)
    if not ok:
        raise ColoringError(f"internal error: matching cover produced an improper coloring: {clash}")
    return h, coloring
