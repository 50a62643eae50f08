"""The Blanusa-snark chain: seed reconstruction and the chain G_n, in which
G_k is the matched dot product of G_{k-1} and copy k of the seed.

The chain starts from an 18-vertex snark realized as a matched dot product
of two Petersen graphs, equipped with an integer 4-flow that has a single
zero edge, a marked 9-circuit x0..x8, two flow circuits and a perfect
matching.  Published figures carry that data; here it is recovered by a
deterministic exhaustive search against the textual constraints, run once
per process (a few milliseconds) and cached.  Every seed the search returns
has passed ``validate_seed`` in full.

Constraint summary for the seed (all re-checked by ``validate_seed``):

* f(x0x1) = 0 is the unique zero edge; f(x4x5) = 2, f(x7x8) = 1, and the
  values forced by splicing are f(x8x0) = f(x0y0) = 2, f(x1x2) = f(y1x1) = 1.
* the path x2 x3 x4 x5 x6 x7 x8 is directed, x8->x0, x0->y0, y1->x1, x1->x2.
* f(x2x3) != 3 and f(x3x4) != 3 (those edges join both successor circuits).
* a second directed path x2 x3 w.. x8 avoids x4..x7 (the future P1 route).
* circuits A (through x4..x8, 3-valued edges only inside it) and B
  (edge-disjoint from x4..x8) both traverse the zero edge forward.
* the inherited matching pairs black with white in the induced bipartition.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterator, NamedTuple

from . import families
from .flows import FlowError, INTEGER_ONE_ZERO, RationalFlow, _integer_value, add_circuits, flow_violation
from .multigraph import (
    Multigraph,
    girth,
    is_bridgeless,
    is_perfect_matching,
    perfect_matchings,
)
from . import valuations


class SeedSearchError(RuntimeError):
    """The exhaustive search found no witness for a candidate realization."""


# -- seed record ------------------------------------------------------------


class BlanusaSeed(NamedTuple):
    graph: Multigraph
    matching: frozenset[str]
    x: tuple[str, ...]          # vertices x0..x8 of the marked circuit
    c_edges: tuple[str, ...]    # edge ids x0x1, x1x2, ..., x7x8, x8x0
    y0: str
    y1: str
    orientation: dict[str, tuple[str, str]]
    values: dict[str, int]
    zero_edge: str
    circuit_a: tuple[str, ...]  # edge ids, contains the x4..x8 path
    circuit_b: tuple[str, ...]  # edge ids, edge-disjoint from that path
    p1_route: tuple[str, ...]   # vertices x2, x3, w.., x8 (directed in D1)
    dot_product: dict

    def base_flow(self) -> RationalFlow:
        return RationalFlow(
            dict(self.orientation),
            {e: _integer_value(v) for e, v in self.values.items()},
            Fraction(4), INTEGER_ONE_ZERO, self.zero_edge,
        )

    def product(self) -> families.MDotProduct:
        """The matched dot product of two Petersen graphs that the seed graph is."""
        dp = self.dot_product
        return families.m_dot_product(
            _relabelled_petersen("L."), dp["n1"], _relabelled_petersen("R."), dp["n2"],
            dp["e1"], dp["e2"], dp["xy"],
            e1_order=tuple(dp["e1_order"]), e2_order=tuple(dp["e2_order"]),
            u_neighbors=tuple(dp["u_neighbors"]), w_neighbors=tuple(dp["w_neighbors"]))

    def path_edges(self) -> tuple[str, ...]:
        """The x4..x8 path edge ids (shared with no other circuit)."""
        return self.c_edges[4:8]


# -- validation ----------------------------------------------------------------


def validate_seed(seed: BlanusaSeed) -> None:
    g = seed.graph
    if g.num_vertices() != 18 or g.num_edges() != 27 or not g.is_regular(3):
        raise ValueError("seed graph is not an 18-vertex cubic graph")
    if not is_bridgeless(g) or (girth(g) or 0) < 5:
        raise ValueError("seed graph is not a girth-5 bridgeless graph")
    if not is_perfect_matching(g, seed.matching):
        raise ValueError("seed matching is not perfect")

    x = seed.x
    if len(x) != 9 or len(set(x)) != 9:
        raise ValueError("marked circuit must have nine distinct vertices")
    for i, eid in enumerate(seed.c_edges):
        e = g.edge(eid)
        if e.ends != frozenset((x[i], x[(i + 1) % 9])):
            raise ValueError(f"c_edges[{i}] does not join x{i} x{(i + 1) % 9}")
    if seed.c_edges[0] not in seed.matching:
        raise ValueError("x0x1 must be a matching edge")
    if seed.c_edges[4] in seed.matching or seed.c_edges[7] in seed.matching:
        raise ValueError("x4x5 and x7x8 must avoid the matching")
    for y, anchor in ((seed.y0, x[0]), (seed.y1, x[1])):
        if y in x:
            raise ValueError("y vertices must lie off the marked circuit")
        if not g.edges_between(anchor, y):
            raise ValueError("y vertices must be adjacent to x0, x1")

    flow = seed.base_flow()
    if flow_violation(g, flow) is not None:
        raise ValueError("seed 4-flow is invalid")
    if seed.zero_edge != seed.c_edges[0]:
        raise ValueError("the zero edge must be x0x1")

    vals = seed.values
    dirs = seed.orientation
    forced_vals = {seed.c_edges[4]: 2, seed.c_edges[7]: 1, seed.c_edges[8]: 2,
                   seed.c_edges[1]: 1}
    for eid, v in forced_vals.items():
        if vals[eid] != v:
            raise ValueError(f"edge {eid!r} must carry value {v}")
    ey0 = g.edges_between(x[0], seed.y0)[0]
    ey1 = g.edges_between(x[1], seed.y1)[0]
    if vals[ey0] != 2 or vals[ey1] != 1:
        raise ValueError("y-edge values must be 2 and 1")
    for i in range(2, 8):
        if dirs[seed.c_edges[i]] != (x[i], x[i + 1]):
            raise ValueError("the path x2..x8 must be directed forward")
    if dirs[seed.c_edges[8]] != (x[8], x[0]) or dirs[ey0] != (x[0], seed.y0):
        raise ValueError("x8->x0->y0 directions are forced")
    if dirs[seed.c_edges[1]] != (x[1], x[2]) or dirs[ey1] != (seed.y1, x[1]):
        raise ValueError("y1->x1->x2 directions are forced")
    if vals[seed.c_edges[2]] == 3 or vals[seed.c_edges[3]] == 3:
        raise ValueError("x2x3 and x3x4 must avoid value 3")

    path = set(seed.path_edges())
    for circ in (seed.circuit_a, seed.circuit_b):
        if seed.zero_edge not in circ:
            raise ValueError("every circuit must traverse the zero edge")
    if not path <= set(seed.circuit_a):
        raise ValueError("circuit A must contain the whole x4..x8 path")
    if set(seed.circuit_b) & path:
        raise ValueError("circuit B must be edge-disjoint from the x4..x8 path")
    for eid in seed.circuit_a:
        if vals[eid] == 3 and eid not in (seed.c_edges[5], seed.c_edges[6]):
            raise ValueError("3-valued edges of circuit A must lie on x5x6, x6x7")

    # add_circuits raises FlowError, a ValueError, on a circuit that is not
    # directed, closed and simple
    steps = [[(eid, 1) for eid in circ] for circ in (seed.circuit_a, seed.circuit_b)]
    final = add_circuits(flow, steps, Fraction(1, 2), Fraction(9, 2))
    if flow_violation(g, final) is not None:
        raise ValueError("adding 1/2 along both circuits must give a (4+1/2)-flow")

    bip = valuations.flow_to_bipartition(g, final)
    for eid in seed.matching:
        e = g.edge(eid)
        if bip.color(e.u) == bip.color(e.v):
            raise ValueError("matching must pair black with white")

    route = seed.p1_route
    if route[0] != x[2] or route[1] != x[3] or route[-1] != x[8]:
        raise ValueError("the alternate route must run x2, x3, .., x8")
    banned = {x[0], x[1], x[4], x[5], x[6], x[7]}
    if set(route[2:-1]) & (banned | {x[2], x[3], x[8]}):
        raise ValueError("the alternate route may not revisit the spliced path")
    for a, b in zip(route, route[1:]):
        between = g.edges_between(a, b)
        if not between or dirs[between[0]] != (a, b):
            raise ValueError("the alternate route must be directed")

    dp = seed.dot_product
    inherited = (frozenset(dp["n1"]) | frozenset(dp["n2"])) - {dp["xy"]}
    if inherited != seed.matching:
        raise ValueError("matching must equal N1 + N2 - xy")


# -- seed search ----------------------------------------------------------------


def _relabelled_petersen(prefix: str) -> Multigraph:
    p = families.petersen()
    vm = {v: f"{prefix}{v}" for v in p.vertices}
    em = {e: f"{prefix}{e}" for e in p.edge_ids}
    return p.relabeled(vm, em)


def _realizations():
    """Matched dot products of two Petersen graphs, in deterministic order.

    The first factor's matching is fixed (Petersen's automorphisms act
    transitively on its six perfect matchings); everything else varies.
    """
    g1 = _relabelled_petersen("L.")
    g2 = _relabelled_petersen("R.")
    pms1 = [frozenset(f"L.{e}" for e in pm) for pm in perfect_matchings(families.petersen())]
    pms2 = [frozenset(f"R.{e}" for e in pm) for pm in perfect_matchings(families.petersen())]
    n1 = pms1[0]
    free = [e for e in g1.edge_ids if e not in n1]
    pairs = [(a, b) for a, b in itertools.combinations(sorted(free), 2)
             if not (g1.edge(a).ends & g1.edge(b).ends)]
    for e1, e2 in pairs:
        for n2 in pms2:
            for xy in sorted(n2):
                ex = g2.edge(xy)
                un = sorted(set(g2.neighbors(ex.u)) - {ex.v})
                wn = sorted(set(g2.neighbors(ex.v)) - {ex.u})
                for e1o in (tuple(sorted(g1.edge(e1).ends)), tuple(sorted(g1.edge(e1).ends))[::-1]):
                    for e2o in (tuple(sorted(g1.edge(e2).ends)), tuple(sorted(g1.edge(e2).ends))[::-1]):
                        for uo in (tuple(un), tuple(un[::-1])):
                            for wo in (tuple(wn), tuple(wn[::-1])):
                                yield g1, n1, g2, n2, e1, e2, xy, e1o, e2o, uo, wo


def _nine_cycles(g: Multigraph) -> list[tuple[str, ...]]:
    """All 9-cycles as vertex tuples, each in its least rotation and direction.

    A cycle is walked only from its least vertex s, through vertices above s,
    and kept only in the direction whose second vertex is below its last.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    cycles: list[tuple[str, ...]] = []

    def extend(path: list[str]) -> None:
        s, v = path[0], path[-1]
        if len(path) == 9:
            if s in adj[v] and path[1] < v:
                cycles.append(tuple(path))
            return
        for w in adj[v]:
            if w > s and w not in path:
                path.append(w)
                extend(path)
                path.pop()

    for s in g.vertices:
        extend([s])
    return sorted(cycles)


def _integer_flows(g: Multigraph, forced: dict[str, tuple[tuple[str, str] | None, set[int]]],
                   zero_edge: str) -> Iterator[tuple[dict[str, tuple[str, str]], dict[str, int]]]:
    """Integer 4-flow search: yields (orientation dict, value dict), lazily
    and depth-first, each a fresh pair of dicts.

    ``forced`` maps edge ids to (direction or None, allowed values).  The zero
    edge is assigned value 0 with a placeholder direction.
    """
    edges = list(g.edges())
    candidates: dict[str, list[tuple[str, str, int]]] = {}
    for e in edges:
        if e.eid == zero_edge:
            candidates[e.eid] = [(e.u, e.v, 0)]
            continue
        dir_force, vals = forced.get(e.eid, (None, {1, 2, 3}))
        opts = []
        for val in sorted(vals):
            if dir_force is not None:
                opts.append((dir_force[0], dir_force[1], val))
            else:
                opts.append((e.u, e.v, val))
                opts.append((e.v, e.u, val))
        candidates[e.eid] = opts

    assigned: dict[str, tuple[str, str, int]] = {}
    remaining: dict[str, int] = {v: g.degree(v) for v in g.vertices}

    def net(v: str) -> int:
        total = 0
        for eid in g.incident_edges(v):
            got = assigned.get(eid)
            if got is None:
                continue
            tail, head, val = got
            total += val if head == v else -val
        return total

    def consistent(v: str) -> bool:
        if remaining[v] == 0:
            return net(v) == 0
        if remaining[v] == 1:
            needed = -net(v)
            eid = next(e for e in g.incident_edges(v) if e not in assigned)
            for tail, head, val in candidates[eid]:
                contrib = val if head == v else -val
                if contrib == needed:
                    return True
            return False
        return True

    def place(eid: str, choice: tuple[str, str, int]) -> list[str]:
        assigned[eid] = choice
        e = g.edge(eid)
        remaining[e.u] -= 1
        remaining[e.v] -= 1
        return [e.u, e.v]

    def unplace(eid: str) -> None:
        e = g.edge(eid)
        remaining[e.u] += 1
        remaining[e.v] += 1
        del assigned[eid]

    def choose() -> str | None:
        best, best_key = None, None
        for e in edges:
            if e.eid in assigned:
                continue
            key = (min(remaining[e.u], remaining[e.v]), len(candidates[e.eid]))
            if best_key is None or key < best_key:
                best, best_key = e.eid, key
        return best

    def rec():
        eid = choose()
        if eid is None:
            yield ({e: (a[0], a[1]) for e, a in assigned.items()},
                   {e: a[2] for e, a in assigned.items()})
            return
        for choice in candidates[eid]:
            touched = place(eid, choice)
            if all(consistent(v) for v in touched):
                yield from rec()
            unplace(eid)

    return rec()


def _directed_cycles_through(g: Multigraph, dirs: dict[str, tuple[str, str]],
                             arc: tuple[str, str, str]) -> Iterator[tuple[str, ...]]:
    """Simple directed cycles containing the arc (eid, tail, head), lazily
    and depth-first."""
    eid0, tail0, head0 = arc
    out_edges: dict[str, list[str]] = {v: [] for v in g.vertices}
    for eid, (t, _h) in dirs.items():
        out_edges[t].append(eid)

    def dfs(v: str, path: list[str], seen: set[str]) -> Iterator[tuple[str, ...]]:
        for eid in out_edges[v]:
            if eid == eid0:
                continue
            w = dirs[eid][1]
            if w == tail0:
                yield tuple([eid0] + path + [eid])
            elif w not in seen:
                seen.add(w)
                path.append(eid)
                yield from dfs(w, path, seen)
                path.pop()
                seen.remove(w)

    return dfs(head0, [], {head0, tail0})


def _directed_path(g: Multigraph, dirs: dict[str, tuple[str, str]],
                   start: str, goal: str, banned: set[str]) -> list[str] | None:
    """A directed vertex path start -> goal avoiding ``banned`` vertices."""
    out_edges: dict[str, list[str]] = {v: [] for v in g.vertices}
    for eid, (t, _h) in dirs.items():
        out_edges[t].append(eid)

    def dfs(v: str, path: list[str], seen: set[str]) -> list[str] | None:
        if v == goal:
            return list(path)
        for eid in out_edges[v]:
            w = dirs[eid][1]
            if w in seen or (w in banned and w != goal):
                continue
            seen.add(w)
            path.append(w)
            got = dfs(w, path, seen)
            if got is not None:
                return got
            path.pop()
            seen.remove(w)
        return None

    return dfs(start, [start], {start} | (banned - {goal}))


def _search_realization(g: Multigraph, matching: frozenset[str], dp_record: dict):
    """All seed constraints against one dot-product realization; None if none."""
    cycles = _nine_cycles(g)
    for cyc in cycles:
        for rot in range(9):
            for flip in (False, True):
                seq = list(cyc[rot:] + cyc[:rot])
                if flip:
                    seq = [seq[0]] + list(reversed(seq[1:]))
                x = tuple(seq)
                ce = []
                ok = True
                for i in range(9):
                    between = g.edges_between(x[i], x[(i + 1) % 9])
                    if not between:
                        ok = False
                        break
                    ce.append(between[0])
                if not ok:
                    continue
                if ce[0] not in matching or ce[4] in matching or ce[7] in matching:
                    continue
                y0 = next((w for w in g.neighbors(x[0]) if w not in (x[1], x[8])), None)
                y1 = next((w for w in g.neighbors(x[1]) if w not in (x[0], x[2])), None)
                if y0 is None or y1 is None or y0 in x or y1 in x:
                    continue
                ey0 = g.edges_between(x[0], y0)[0]
                ey1 = g.edges_between(x[1], y1)[0]

                forced: dict[str, tuple[tuple[str, str] | None, set[int]]] = {
                    ce[1]: ((x[1], x[2]), {1}),
                    ce[2]: ((x[2], x[3]), {1, 2}),
                    ce[3]: ((x[3], x[4]), {1, 2}),
                    ce[4]: ((x[4], x[5]), {2}),
                    ce[5]: ((x[5], x[6]), {1, 2, 3}),
                    ce[6]: ((x[6], x[7]), {1, 2, 3}),
                    ce[7]: ((x[7], x[8]), {1}),
                    ce[8]: ((x[8], x[0]), {2}),
                    ey0: ((x[0], y0), {2}),
                    ey1: ((y1, x[1]), {1}),
                }
                for dirs, vals in _integer_flows(g, forced, ce[0]):
                    seed = _finish_seed(g, matching, x, tuple(ce), y0, y1,
                                        dirs, vals, dp_record)
                    if seed is not None:
                        return seed
    return None


def _finish_seed(g, matching, x, ce, y0, y1, dirs, vals, dp_record):
    # bipartition pairing: depends only on the orientation (zero edge pairs
    # x0 with x1 in both of its directions)
    indeg = {v: 0 for v in g.vertices}
    for eid, (t, h) in dirs.items():
        if eid != ce[0]:
            indeg[h] += 1
    for eid in matching:
        if eid == ce[0]:
            continue
        e = g.edge(eid)
        if (indeg[e.u] == 2) == (indeg[e.v] == 2):
            return None

    route_tail = _directed_path(
        g, dirs, x[3], x[8],
        banned={x[0], x[1], x[2], x[4], x[5], x[6], x[7]})
    if route_tail is None:
        return None
    p1_route = tuple([x[2]] + route_tail)

    path_edges = set(ce[4:8])
    for zdir in ((x[0], x[1]), (x[1], x[0])):
        full_dirs = dict(dirs)
        full_dirs[ce[0]] = zdir
        a = b = None  # the first A-circuit and the first B-circuit
        for cyc in _directed_cycles_through(g, full_dirs, (ce[0], zdir[0], zdir[1])):
            cset = set(cyc)
            if path_edges <= cset:
                if a is None and all(vals[eid] != 3 or eid in (ce[5], ce[6]) for eid in cyc):
                    a = cyc
            elif b is None and not (cset & path_edges):
                b = cyc
            if a is not None and b is not None:
                break
        else:
            continue
        seed = BlanusaSeed(
            graph=g, matching=matching, x=x, c_edges=ce, y0=y0, y1=y1,
            orientation=full_dirs, values=vals, zero_edge=ce[0],
            circuit_a=a, circuit_b=b, p1_route=p1_route,
            dot_product=dp_record,
        )
        try:
            validate_seed(seed)
        except ValueError:
            continue
        return seed
    return None


def find_seed() -> BlanusaSeed:
    """Exhaustive deterministic seed search; returns the first witness."""
    for g1, n1, g2, n2, e1, e2, xy, e1o, e2o, uo, wo in _realizations():
        try:
            product = families.m_dot_product(
                g1, sorted(n1), g2, sorted(n2), e1, e2, xy,
                e1_order=e1o, e2_order=e2o, u_neighbors=uo, w_neighbors=wo)
        except families.FamilyError:
            continue
        g = product.graph
        if (girth(g) or 0) < 5:
            continue
        dp_record = {
            "n1": sorted(product.m1), "n2": sorted(product.m2), "xy": xy,
            "e1": e1, "e2": e2, "e1_order": list(e1o), "e2_order": list(e2o),
            "u_neighbors": list(uo), "w_neighbors": list(wo),
            "join_edges": list(product.join_edges),
        }
        seed = _search_realization(g, product.matching, dp_record)
        if seed is not None:
            return seed
    raise SeedSearchError("no realization satisfied the seed constraints")


@functools.cache
def load_or_find_seed() -> BlanusaSeed:
    """The seed from ``find_seed``, searched on the first call in a process
    and shared by every later call."""
    return find_seed()


# -- the chain -------------------------------------------------------------------


class BlanusaChain(NamedTuple):
    graph: Multigraph
    markings: tuple[dict[str, str], ...]  # per copy: x0..x8, y0, y1 (as present)


class ChainFlowData(NamedTuple):
    n: int
    chain: BlanusaChain
    base_flow: RationalFlow
    flow: RationalFlow
    circuits: tuple[tuple[tuple[str, int], ...], ...]  # (edge id, +1) steps
    matching: frozenset[str]
    bipartition: valuations.Bipartition


def build_chain(n: int) -> ChainFlowData:
    """G_n with its 4-flow, n+1 circuits, matching and bipartition.

    G_1 is the seed, and G_k is the matched dot product of G_{k-1} and copy k
    of the seed (ids suffixed ``@k``): it removes x4x5 and x7x8 of copy k-1
    and the vertices x0, x1 of copy k, and its four joins take x4, x5, x7, x8
    of copy k-1 to x8, y0, y1, x2 of copy k.  Copy k's orientation is reversed
    when k is even, each join keeps the value and the sense of the edge it
    replaces, and the circuit through the marked path splits into two, one
    along each route of copy k; ``add_circuits`` then checks each of the n+1
    directed circuits and adds 1/(n+1) along it.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    seed = load_or_find_seed()
    x, ce = seed.x, seed.c_edges
    graph, matching = seed.graph, seed.matching
    dirs: dict[str, tuple[str, str]] = dict(seed.orientation)
    vals: dict[str, Fraction] = {e: _integer_value(v) for e, v in seed.values.items()}

    circuits: list[tuple[str, ...]] = [seed.circuit_a, seed.circuit_b]
    special = 0  # index of the circuit containing the marked path
    markings: list[dict[str, str]] = [
        {**{f"x{i}": x[i] for i in range(9)}, "y0": seed.y0, "y1": seed.y1}
    ]
    em = {e: e for e in seed.graph.edge_ids}  # seed edge id -> id in the last copy
    route_ids = [seed.graph.edges_between(a, b)[0]
                 for a, b in zip(seed.p1_route, seed.p1_route[1:])]

    for k in range(2, n + 1):
        flip = k % 2 == 0
        vm_k = {v: f"{v}@{k}" for v in seed.graph.vertices}
        em_k = {e: f"{e}@{k}" for e in seed.graph.edge_ids}
        prev = markings[-1]
        e45, e78 = em[ce[4]], em[ce[7]]
        product = families.m_dot_product(
            graph, matching, seed.graph.relabeled(vm_k, em_k),
            [em_k[e] for e in seed.matching], e45, e78, em_k[ce[0]],
            e1_order=(prev["x4"], prev["x5"]), e2_order=(prev["x7"], prev["x8"]),
            u_neighbors=(vm_k[x[8]], vm_k[seed.y0]),
            w_neighbors=(vm_k[seed.y1], vm_k[x[2]]))
        graph, matching = product.graph, product.matching

        # copy k keeps the seed's values and, on even copies, reverses its
        # orientation; its edges at x0 and x1 went with those vertices
        for eid in seed.graph.edge_ids:
            if graph.has_edge(em_k[eid]):
                t, h = seed.orientation[eid]
                dirs[em_k[eid]] = (vm_k[h], vm_k[t]) if flip else (vm_k[t], vm_k[h])
                vals[em_k[eid]] = _integer_value(seed.values[eid])

        # the joins take x4, x5, x7, x8 of copy k-1 to x8, y0, y1, x2 of copy
        # k; each keeps the removed edge's value and in/out sense at its end
        # in copy k-1
        removed = {e: (dirs.pop(e), vals.pop(e)) for e in (e45, e78)}
        for join, old in zip(product.join_edges, (e45, e45, e78, e78)):
            (tail, _head), val = removed[old]
            _eid, at, other = graph.edge(join)
            dirs[join] = (at, other) if tail == at else (other, at)
            vals[join] = val

        # split the special circuit through the two copy routes
        spec_edges = list(circuits[special])
        path_old = {e45, em[ce[5]], em[ce[6]], e78}
        # rotate so the kept arc starts right after the marked segment
        idx = [i for i, eid in enumerate(spec_edges) if eid in path_old]
        after = (max(idx) + 1) % len(spec_edges)
        rotated = spec_edges[after:] + spec_edges[:after]
        keep = [eid for eid in rotated if eid not in path_old]
        routes = [[em_k[eid] for eid in route] for route in (route_ids, ce[2:8])]
        if flip:
            # the old path ran x4 -> x8 and the copy's routes run x8 -> x2:
            # leave at x4 of copy k-1, return to its x8
            leave, back = product.join_edges[0], product.join_edges[3]
            routes = [route[::-1] for route in routes]
        else:
            # the old path ran x8 -> x4: leave at x8, return to x4
            back, leave = product.join_edges[0], product.join_edges[3]
        circuits = [c for i, c in enumerate(circuits) if i != special]
        circuits.extend(tuple(keep + [leave] + route + [back]) for route in routes)
        special = len(circuits) - 1  # the second route holds the new marked path

        markings.append({**{f"x{i}": vm_k[x[i]] for i in range(2, 9)},
                         "y0": vm_k[seed.y0], "y1": vm_k[seed.y1]})
        em = em_k

    base = RationalFlow(dirs, vals, Fraction(4), INTEGER_ONE_ZERO, ce[0])
    if flow_violation(graph, base) is not None:
        raise FlowError("internal error: chain base 4-flow is invalid")
    if any(ce[0] not in circ for circ in circuits):
        raise FlowError("internal error: a chain circuit misses the zero edge")

    # P2: every 3-valued edge lies on at most one circuit
    seen3: dict[str, int] = {}
    for circ in circuits:
        for eid in circ:
            if vals[eid] == 3:
                seen3[eid] = seen3.get(eid, 0) + 1
    if any(cnt > 1 for cnt in seen3.values()):
        raise FlowError("internal error: a 3-valued edge lies on two circuits")

    # the marked path of the last copy lies on exactly one circuit
    lastm = markings[-1]
    path_now = set()
    for i in range(4, 8):
        between = graph.edges_between(lastm[f"x{i}"], lastm[f"x{i + 1}"])
        path_now.add(between[0])
    holders = [i for i, circ in enumerate(circuits) if path_now <= set(circ)]
    grazers = [i for i, circ in enumerate(circuits) if set(circ) & path_now]
    if holders != [special] or grazers != [special]:
        raise FlowError("internal error: marked-path circuit bookkeeping broken")

    steps = tuple(tuple((eid, 1) for eid in circ) for circ in circuits)
    flow = add_circuits(base, steps, Fraction(1, n + 1), Fraction(4 * (n + 1) + 1, n + 1))
    if flow_violation(graph, flow) is not None:
        raise FlowError("internal error: chain flow failed verification")

    if not is_perfect_matching(graph, matching):
        raise FlowError("internal error: chain matching is not perfect")
    if path_now & matching:
        raise FlowError("internal error: splice edges must avoid the matching")
    bip = valuations.flow_to_bipartition(graph, flow)
    for eid in matching:
        e = graph.edge(eid)
        if bip.color(e.u) == bip.color(e.v):
            raise FlowError("internal error: chain matching pairing broken")

    chain = BlanusaChain(graph, tuple(markings))
    if graph.num_vertices() != 18 + 16 * (n - 1):
        raise FlowError("internal error: chain vertex count off")
    return ChainFlowData(n, chain, base, flow, steps, matching, bip)
