"""2-regular labeled directed graphs and their correspondence with families.

Vertices are opaque strings; every vertex meets exactly two edge ends, so
each connected component is a cycle.  Edge directions in stored graphs are
arbitrary: reversing an edge while negating its label describes the same
sphere, and normalize_orientation turns each component into a consistently
directed cycle through that identity, which leaves the weights seen at
every vertex unchanged.

The traversal labels of a normalized component form a multi-fan, and that
reading is a bijection between admissible graphs and admissible families:
graph_to_family and family_to_graph invert each other exactly.

validate_graph checks a whole graph and is the gate for every graph from
outside the program.  A blow-up or blow-down of a graph is the same local
move as on its fan, so blow_up_graph and blow_down_graph normalize only an
input that is not yet directed (a directed cycle normalizes to itself),
edit the vertex and edge tuples around the touched vertex, and check only
the determinants the move touches, through the fan kernel
blow_up_inplace / blow_down_inplace; a broken one raises
InternalInconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from . import lattice
from .errors import (
    DomainError,
    MultiEdge,
    NotABasis,
    NotBlowDownable,
    NotTwoRegular,
    OrientationFlip,
    RecurrenceFails,
    SelfLoop,
    UnknownVertex,
    WeightsNotBasis,
    ZeroLabel,
)
from .lattice import Vec
from .multifan import (
    MultiFanFamily,
    blow_down_inplace,
    blow_up_inplace,
    is_minimal_fan,
    validate_multifan,
)


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    label: Vec


@dataclass(frozen=True)
class TorusGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]


def _as_edge(item, index) -> Edge:
    if isinstance(item, Edge):
        src, dst, label = item.src, item.dst, item.label
    else:
        try:
            src, dst, label = item
        except (TypeError, ValueError):
            raise DomainError(f"edge at index {index} is not a triple") from None
    try:
        x, y = label
    except (TypeError, ValueError):
        raise DomainError(f"edge at index {index}: label is not a pair") from None
    if type(x) is not int or type(y) is not int:
        # int subclasses pass, except bool: True is not the coordinate 1
        if (not isinstance(x, int) or not isinstance(y, int)
                or isinstance(x, bool) or isinstance(y, bool)):
            raise DomainError(f"edge at index {index}: label must have integer entries")
    return Edge(str(src), str(dst), (x, y))


def _incidences(g: TorusGraph):
    # vertex -> [(edge index, outgoing?)], two entries per vertex once validated
    inc = {v: [] for v in g.vertices}
    for idx, e in enumerate(g.edges):
        inc[e.src].append((idx, True))
        inc[e.dst].append((idx, False))
    return inc


def _component_vertices(g, inc, v0):
    seen = {v0}
    stack = [v0]
    while stack:
        v = stack.pop()
        for idx, outgoing in inc[v]:
            e = g.edges[idx]
            u = e.dst if outgoing else e.src
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def normalized_components(g: TorusGraph):
    """Walk each component as a directed cycle of (edge index, oriented edge).

    Components come out in first-appearance order of their vertices.  Each
    traversal starts at the component's least vertex id and follows that
    vertex's outgoing edge when it has one (the earlier-stored edge on a
    tie), so an already consistent cycle is reproduced verbatim; edges
    walked against their stored direction appear reversed with negated
    labels.  A vertex meeting other than two edge ends (in a graph that
    skipped validate_graph) raises NotTwoRegular, so every walk closes.
    """
    inc = _incidences(g)
    for v, slots in inc.items():
        if len(slots) != 2:
            raise NotTwoRegular(v, len(slots))
    visited = set()
    cycles = []
    for seed in g.vertices:
        if seed in visited:
            continue
        component = _component_vertices(g, inc, seed)
        visited |= component
        start = min(component)
        slots = inc[start]
        outgoing_slots = [s for s in slots if s[1]]
        idx, outgoing = outgoing_slots[0] if outgoing_slots else slots[0]
        cycle = []
        cur = start
        while True:
            e = g.edges[idx]
            oriented = e if outgoing else Edge(cur, e.src, lattice.neg(e.label))
            cycle.append((idx, oriented))
            cur = oriented.dst
            if cur == start:
                break
            idx, outgoing = next(s for s in inc[cur] if s[0] != idx)
        cycles.append(cycle)
    return cycles


def validate_graph(vertices, edges) -> TorusGraph:
    """Check structure and label admissibility; return the validated graph.

    Structure: known endpoints, nonzero labels, no self-loops, at most one
    edge per vertex pair, exactly two edge ends at each vertex.  Labels:
    the two weights at every vertex form a lattice basis and each cycle
    label is an integer combination -a*w2 - w1 of its two predecessors,
    checked as a constant consecutive determinant along the traversal.
    """
    verts = tuple(str(v) for v in vertices)
    if not verts:
        raise DomainError("a graph needs at least one cycle of vertices")
    if len(set(verts)) != len(verts):
        raise DomainError("duplicate vertex id")
    vset = set(verts)
    es = tuple(_as_edge(item, i) for i, item in enumerate(edges))
    for e in es:
        if e.src not in vset:
            raise UnknownVertex(e.src)
        if e.dst not in vset:
            raise UnknownVertex(e.dst)
        if e.label == (0, 0):
            raise ZeroLabel(e)
        if e.src == e.dst:
            raise SelfLoop(e)
    seen_pairs = set()
    for e in es:
        pair = frozenset((e.src, e.dst))
        if pair in seen_pairs:
            raise MultiEdge(e.src, e.dst)
        seen_pairs.add(pair)

    # normalized_components raises NotTwoRegular for a vertex of another degree
    g = TorusGraph(verts, es)
    for cycle in normalized_components(g):
        labels = [oe.label for _, oe in cycle]
        try:
            validate_multifan(labels)
        except NotABasis as exc:
            # the failing pair meets at the source of the edge at that index
            raise WeightsNotBasis(cycle[exc.index][1].src) from None
        except OrientationFlip as exc:
            k = len(cycle)
            triple = tuple(cycle[(exc.index + t) % k][1] for t in (-2, -1, 0))
            raise RecurrenceFails(triple) from None
    return g


def weights_at(g: TorusGraph, v: str) -> tuple[Vec, Vec]:
    """The two tangent weights at a vertex, sorted: +label per outgoing
    edge and -label per incoming edge."""
    if v not in g.vertices:
        raise UnknownVertex(v)
    ws = []
    for e in g.edges:
        if e.src == v:
            ws.append(e.label)
        if e.dst == v:
            ws.append(lattice.neg(e.label))
    return tuple(sorted(ws))


def normalize_orientation(g: TorusGraph) -> TorusGraph:
    """Redirect every component into a single directed cycle.

    Edges keep their stored positions; a reversed edge gets a negated
    label, so weights_at is unchanged at every vertex.
    """
    new_edges = list(g.edges)
    for cycle in normalized_components(g):
        for idx, oriented in cycle:
            new_edges[idx] = oriented
    return TorusGraph(g.vertices, tuple(new_edges))


def graph_to_family(g: TorusGraph) -> MultiFanFamily:
    """One fan per component: the normalized traversal labels in order."""
    fans = tuple(
        validate_multifan([oe.label for _, oe in cycle])
        for cycle in normalized_components(g)
    )
    return MultiFanFamily(fans)


def family_to_graph(fam: MultiFanFamily) -> TorusGraph:
    """One directed cycle per fan, with vertices named p{j},{i} (1-based)."""
    vertices = []
    edges = []
    for j, fan in enumerate(fam.fans):
        k = len(fan.vectors)
        names = [f"p{j + 1},{i + 1}" for i in range(k)]
        vertices.extend(names)
        edges.extend(
            Edge(names[i], names[(i + 1) % k], fan.vectors[i]) for i in range(k)
        )
    return TorusGraph(tuple(vertices), tuple(edges))


def _fresh(base, used):
    name = base
    n = 2
    while name in used:
        name = f"{base}_{n}"
        n += 1
    used.add(name)
    return name


_src = attrgetter("src")
_dst = attrgetter("dst")


def _directed(g: TorusGraph):
    """g with every cycle directed, and the source vertex of each edge.

    A 2-regular graph whose every vertex is the source of exactly one edge
    is already a union of directed cycles, which normalization would
    reproduce verbatim.
    """
    srcs = list(map(_src, g.edges))
    if len(set(srcs)) == len(g.vertices):
        return g, srcs
    g = normalize_orientation(g)
    return g, list(map(_src, g.edges))


def _slot(g: TorusGraph, v) -> int:
    try:
        return g.vertices.index(v)
    except ValueError:
        raise UnknownVertex(v) from None


def blow_up_graph(g: TorusGraph, v: str) -> TorusGraph:
    """Split vertex v into an edge labeled by the sum of its two weights.

    In a consistently directed g, v has one incoming edge (p', v, w1) and
    one outgoing edge (v, p'', w2); v is replaced, in its vertex slot, by
    fresh vertices v', v'' joined by a (w1+w2)-edge stored right after the
    incoming edge, and the outer edges keep their labels.  An undirected g
    is normalized first.  Only the two edges at v change, so the fan
    kernel checks the determinants the new edge touches in place of
    validate_graph.
    """
    slot = _slot(g, v)
    g, srcs = _directed(g)
    edges = list(g.edges)
    in_idx = list(map(_dst, edges)).index(v)
    out_idx = srcs.index(v)
    in_e = edges[in_idx]
    out_e = edges[out_idx]
    middle = blow_up_inplace([in_e.label, out_e.label], 0)
    used = set(g.vertices)
    used.discard(v)
    v1 = _fresh(v + "'", used)
    v2 = _fresh(v + "''", used)
    vertices = g.vertices[:slot] + (v1, v2) + g.vertices[slot + 1 :]
    edges[in_idx] = Edge(in_e.src, v1, in_e.label)
    edges[out_idx] = Edge(v2, out_e.dst, out_e.label)
    edges.insert(in_idx + 1, Edge(v1, v2, middle))
    return TorusGraph(vertices, tuple(edges))


def blow_down_graph(g: TorusGraph, edge) -> TorusGraph:
    """Contract an exceptional edge to a single vertex.

    The edge may be given as an Edge or a (vertex, vertex) pair and is
    matched direction-insensitively.  With directed pattern (p', p1, w1),
    (p1, p2, w), (p2, p'', w2) it applies only when w = w1 + w2; the
    contracted vertex takes the lexicographically smaller of the two ids
    and the earlier of their two vertex slots.  An undirected g is
    normalized first.  Only the three edges of the pattern change, so the
    fan kernel checks the determinants the contraction touches in place of
    validate_graph.
    """
    if isinstance(edge, Edge):
        a, b = edge.src, edge.dst
    else:
        a, b = edge
    # keep the earlier slot so component discovery order is undisturbed
    keep, drop = sorted((_slot(g, a), _slot(g, b)))
    g, srcs = _directed(g)
    edges = list(g.edges)
    dsts = list(map(_dst, edges))
    mid_idx = srcs.index(a)
    if dsts[mid_idx] != b:
        mid_idx = srcs.index(b)
        if dsts[mid_idx] != a:
            raise DomainError(f"no edge joins {a!r} and {b!r}")
    mid = edges[mid_idx]
    p1, p2 = mid.src, mid.dst
    in_idx = dsts.index(p1)
    out_idx = srcs.index(p2)
    in_e = edges[in_idx]
    out_e = edges[out_idx]
    if mid.label != lattice.add(in_e.label, out_e.label):
        raise NotBlowDownable((p1, p2))
    blow_down_inplace([in_e.label, mid.label, out_e.label], 1)
    p = min(p1, p2)
    vs = g.vertices
    vertices = vs[:keep] + (p,) + vs[keep + 1 : drop] + vs[drop + 1 :]
    edges[in_idx] = Edge(in_e.src, p, in_e.label)
    edges[out_idx] = Edge(p, out_e.dst, out_e.label)
    del edges[mid_idx]
    return TorusGraph(vertices, tuple(edges))


def is_minimal_graph(g: TorusGraph) -> bool:
    """True iff every component reads as a minimal fan: all unit labels."""
    return all(is_minimal_fan(f) for f in graph_to_family(g).fans)


def is_connected(g: TorusGraph) -> bool:
    if not g.vertices:
        return True
    inc = _incidences(g)
    return len(_component_vertices(g, inc, g.vertices[0])) == len(g.vertices)


def gkm_relations(g: TorusGraph) -> list[Edge]:
    """One relation per stored edge: the classes at src and dst differ by
    a multiple of the label."""
    return list(g.edges)
