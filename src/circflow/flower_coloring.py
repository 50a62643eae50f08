"""Recursive proper 4-edge-coloring of a Flower snark plus a 1-factor.

The algorithm contracts two consecutive blocks at a time: either both
boundary cuts next to the pair carry no matching edge, or (when every cut
carries exactly one) the transition-type scan locates a pair whose dangling
matching edges share a type and merge into one bridge edge.  The recursion
bottoms out at three blocks, solved exhaustively, and each unwind extends
the coloring through an eight-vertex gadget whose colorings, indexed by the
matching pattern and the boundary colors, are frozen in a golden table.

A needed gadget entry that is absent, or a type sequence with no repeat at
distance two, would contradict the underlying colorability statement; both
raise ``FlowerColoringCounterexample`` rather than being papered over.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import families
from .colorings import (
    ColoringError,
    EdgeColoring,
    _backtrack_coloring,
    _Deadline,
    is_proper,
    transition_claim_check,
)
from .multigraph import Multigraph, add_matching_copies, is_perfect_matching

GADGET_SCHEMA = "circflow-flower-gadget/1"
_GADGET_RESOURCE = "flower_gadget.json"

FAMILIES = ("aa", "cd", "dc")
_TYPE_OF = {"cd": "x1", "dc": "x2", "aa": "x3"}
_FAMILY_OF = {v: k for k, v in _TYPE_OF.items()}

# which block-side vertices a matched cut family covers: (left letter, right letter)
_COVERS = {"aa": ("a", "a"), "cd": ("c", "d"), "dc": ("d", "c")}


class FlowerColoringCounterexample(RuntimeError):
    """A state the colorability statement says cannot occur."""


# -- matching structure -----------------------------------------------------------


@dataclass(frozen=True)
class _Cut:
    keys: dict  # family -> edge key
    m: frozenset  # matched families


def _matching_structure(n: int, matching: frozenset[str]):
    mod = 2 * n + 1
    internal: dict[int, str] = {}
    cuts: list[_Cut] = []
    for i in range(mod):
        spokes = [letter for letter, eid in (("a", f"ab{i}"), ("c", f"bc{i}"), ("d", f"bd{i}"))
                  if eid in matching]
        if len(spokes) != 1:
            raise ColoringError("each block must match b internally exactly once")
        internal[i] = spokes[0]
        fams = frozenset(fam for fam in FAMILIES if f"{fam}{i}" in matching)
        cuts.append(_Cut({fam: f"{fam}{i}" for fam in FAMILIES}, fams))
    return list(range(mod)), cuts, internal


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


# -- recursion ---------------------------------------------------------------------


_bridge_counter = [0]


def _fresh_bridge(m: frozenset[str]) -> _Cut:
    _bridge_counter[0] += 1
    d = _bridge_counter[0]
    return _Cut({fam: f"br{d}:{fam}" for fam in FAMILIES}, m)


def _instance_graph(blocks: Sequence[int], cuts: Sequence[_Cut],
                    internal: dict[int, str]) -> Multigraph:
    """Concrete graph of a (possibly contracted) flower-plus-matching instance,
    with the structural keys as edge ids."""
    vs = [f"{X}{b}" for b in blocks for X in "ABCD"]
    edges = []
    m_keys: list[str] = []
    for b in blocks:
        for letter, key in (("a", f"ab{b}"), ("c", f"bc{b}"), ("d", f"bd{b}")):
            edges.append((key, f"B{b}", f"{letter.upper()}{b}"))
            if internal[b] == letter:
                m_keys.append(key)
    for k, cut in enumerate(cuts):
        x, y = blocks[k], blocks[(k + 1) % len(blocks)]
        ends = {"aa": (f"A{x}", f"A{y}"), "cd": (f"C{x}", f"D{y}"), "dc": (f"C{y}", f"D{x}")}
        for fam in FAMILIES:
            edges.append((cut.keys[fam], *ends[fam]))
            if fam in cut.m:
                m_keys.append(cut.keys[fam])
    for key in m_keys:
        base = next(e for e in edges if e[0] == key)
        edges = edges + [(f"{key}@c1", base[1], base[2])]
    return Multigraph(vs, edges)


def _direct_color(blocks: Sequence[int], cuts: Sequence[_Cut], internal: dict[int, str],
                  colors: dict[str, int]) -> bool:
    g = _instance_graph(blocks, cuts, internal)
    got = _backtrack_coloring(g, 4, _Deadline(None))
    if got is None:
        return False
    colors.update(got)
    return True


def _solve(blocks: list[int], cuts: list[_Cut], internal: dict[int, str],
           colors: dict[str, int], table: dict[str, dict | None]) -> bool:
    """Color the instance; True on success.

    Follows the block-pair contraction of the colorability proof; because the
    three-block base genuinely fails for matchings hitting the a-triangle,
    every admissible contraction is tried and an exhaustive direct coloring
    backs the recursion up before failure is reported.
    """
    L = len(blocks)
    if L == 3:
        return _direct_color(blocks, cuts, internal, colors)

    reductions: list[tuple[int, str, str | None]] = []
    empties = [k for k in range(L) if not cuts[k].m]
    if empties:
        for k in empties:
            if not cuts[(k + 2) % L].m:
                reductions.append((k, "case1", None))
    else:
        types = [_TYPE_OF[next(iter(c.m))] for c in cuts]
        if transition_claim_check(types) is None:
            raise FlowerColoringCounterexample("no transition type repeats at distance two")
        for j in range(L):
            if types[j] == types[(j + 2) % L]:
                reductions.append((j, "case2", _FAMILY_OF[types[j]]))

    for k, case, tau in reductions:
        left, mid, right = cuts[k], cuts[(k + 1) % L], cuts[(k + 2) % L]
        b1, b2 = blocks[(k + 1) % L], blocks[(k + 2) % L]
        bridge = _fresh_bridge(frozenset() if case == "case1" else frozenset({tau}))
        new_blocks = [blocks[(k + 3 + s) % L] for s in range(L - 2)]
        new_cuts = [cuts[(k + 3 + s) % L] for s in range(L - 3)] + [bridge]
        if not _solve(new_blocks, new_cuts, internal, colors, table):
            continue

        sets: dict[str, tuple] = {}
        for fam in FAMILIES:
            col = colors[bridge.keys[fam]]
            colors[left.keys[fam]] = col
            colors[right.keys[fam]] = col
            cols = [col]
            if fam in bridge.m:
                colc = colors[f"{bridge.keys[fam]}@c1"]
                colors[f"{left.keys[fam]}@c1"] = colc
                colors[f"{right.keys[fam]}@c1"] = colc
                cols.append(colc)
            sets[fam] = tuple(sorted(cols))

        key = _pattern_key(case, mid.m, tau, sets["aa"], sets["cd"], sets["dc"])
        entry = table.get(key)
        if entry is None:
            continue  # boundary not extendable; try the next contraction
        rename = {"aa": mid.keys["aa"], "cd": mid.keys["cd"], "dc": mid.keys["dc"]}
        for s, b in ((1, b1), (2, b2)):
            rename[f"ab{s}"] = f"ab{b}"
            rename[f"bc{s}"] = f"bc{b}"
            rename[f"bd{s}"] = f"bd{b}"
        for gid, col in entry.items():
            base, _, copy = gid.partition("@")
            target = rename[base] + ("@" + copy if copy else "")
            colors[target] = col
        return True

    return _direct_color(blocks, cuts, internal, colors)


def flower_plus_m_coloring(n: int, matching: Iterable[str]) -> tuple[Multigraph, EdgeColoring]:
    """A verified proper 4-edge-coloring of J_{2n+1} + M for a 1-factor M.

    Raises ``FlowerColoringCounterexample`` when no proper 4-coloring exists
    (which happens for the six J_3 one-factors using a triangle edge).
    """
    snark = families.flower_snark(n)
    g = snark.graph
    m = frozenset(matching)
    if not is_perfect_matching(g, m):
        raise ColoringError("the added edge set must be a perfect matching")
    h = add_matching_copies(g, sorted(m), 1)
    blocks, cuts, internal = _matching_structure(n, m)
    colors: dict[str, int] = {}
    if not _solve(blocks, cuts, internal, colors, load_gadget_table()):
        raise FlowerColoringCounterexample(
            f"J_{2 * n + 1} plus this 1-factor admits no proper 4-edge-coloring")
    coloring = EdgeColoring({eid: colors[eid] for eid in h.edge_ids}, 4)
    ok, clash = is_proper(h, coloring)
    if not ok:
        raise ColoringError(f"internal error: extension produced an improper coloring: {clash}")
    return h, coloring
