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
outside the program.  The cycle walk reads an incidence map, so an edge
end outside the vertices is UnknownVertex and a vertex of another degree
NotTwoRegular.  weights_at, blow_up_graph and blow_down_graph read one
directed view instead (_directed): the source and destination of each
edge once every cycle is directed.  A graph a rewrite returns carries it;
any other graph gets it only if it passes the walk's checks and lists no
vertex twice.  A rewrite finds the touched edges in it, edits the vertex
and edge tuples around them, leaves every sum and determinant test to the
fan kernel blow_up_inplace / blow_down_inplace, and returns the view,
edited alike, with the graph, so a chain of rewrites reads each edge once.
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
    as_vec,
    blow_down_inplace,
    blow_up_inplace,
    is_minimal_fan,
    validate_family,
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
    return Edge(str(src), str(dst), as_vec(label, index, "edge at index {}: label"))


def _walk(g, inc, start, idx, outgoing):
    # the cycle from start along edge idx, as (edge index, oriented edge)
    cycle = []
    cur = start
    while True:
        e = g.edges[idx]
        oriented = e if outgoing else Edge(cur, e.src, lattice.neg(e.label))
        cycle.append((idx, oriented))
        cur = oriented.dst
        if cur == start:
            return cycle
        a, b = inc[cur]
        idx, outgoing = b if a[0] == idx else a


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
    # vertex -> [(edge index, outgoing?)], two entries per vertex once validated
    inc = {v: [] for v in g.vertices}
    try:
        for idx, e in enumerate(g.edges):
            inc[e.src].append((idx, True))
            inc[e.dst].append((idx, False))
    except KeyError as exc:  # an edge end outside the vertices (unvalidated)
        raise UnknownVertex(exc.args[0]) from None
    for v, slots in inc.items():
        if len(slots) != 2:
            raise NotTwoRegular(v, len(slots))
    visited = set()
    cycles = []
    for seed in g.vertices:
        if seed in visited:
            continue
        component = [oe.src for _, oe in _walk(g, inc, seed, *inc[seed][0])]
        visited.update(component)
        start = min(component)
        a, b = inc[start]
        cycles.append(_walk(g, inc, start, *(a if a[1] or not b[1] else b)))
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
    es = tuple(_as_edge(item, i) for i, item in enumerate(edges))
    for e in es:
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

    # normalized_components raises UnknownVertex for an edge end outside the
    # vertices and NotTwoRegular for a vertex of another degree
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
    """The two tangent weights at a vertex, sorted: the label of the edge
    leaving v and the negated label of the edge entering it, once every
    cycle is directed.  Both are found by index in the directed view of g,
    so a malformed unvalidated graph is refused as the cycle walk refuses
    it, or for a vertex listed twice.

    A graph has no positions, so this reads the edges at v rather than
    multifan.fixed_point_weights; at the vertex between vectors i-1 and i
    of a fan the two give the same pair (v[i], -v[i-1]), here sorted.
    """
    if v not in g.vertices:
        raise UnknownVertex(v)
    g, srcs, dsts = _directed(g)
    out_e = g.edges[srcs.index(v)]
    in_e = g.edges[dsts.index(v)]
    return tuple(sorted((out_e.label, lattice.neg(in_e.label))))


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
    return validate_family(
        [oe.label for _, oe in cycle] for cycle in normalized_components(g))


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


def _fresh(base, taken):
    name = base
    n = 2
    while name in taken:
        name = f"{base}_{n}"
        n += 1
    return name


_src = attrgetter("src")
_dst = attrgetter("dst")


def _directed(g: TorusGraph):
    """g with every cycle directed, and the source and destination vertex
    of each of its edges.

    A graph returned by a rewrite carries the two lists (see _rewritten),
    which come back uncopied: callers must only read them.  Any other
    graph has them read from its edges.  When every vertex is the source
    of exactly one edge and the destination of exactly one, g is already a
    union of directed cycles, which normalization would reproduce.
    Otherwise g is normalized, which raises UnknownVertex or NotTwoRegular
    on a malformed graph; after that, only a vertex listed twice fails.
    """
    ends = getattr(g, "_ends", None)
    if ends is not None:
        return g, *ends
    for normalized in (False, True):
        if normalized:
            g = normalize_orientation(g)
        srcs = list(map(_src, g.edges))
        dsts = list(map(_dst, g.edges))
        vertices = set(g.vertices)
        if (len(vertices) == len(g.vertices) == len(srcs)
                and vertices == set(srcs) == set(dsts)):
            return g, srcs, dsts
    raise DomainError("duplicate vertex id")


def _rewritten(vertices, edges, srcs, dsts) -> TorusGraph:
    """The graph a rewrite returns, carrying srcs and dsts outside its
    fields, where ==, hash, repr and dataclasses.fields never see them."""
    g = TorusGraph(vertices, tuple(edges))
    object.__setattr__(g, "_ends", (srcs, dsts))
    return g


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
    kernel checks the one determinant det(w1, w2) in place of
    validate_graph.
    """
    slot = _slot(g, v)
    g, srcs, dsts = _directed(g)
    edges, srcs, dsts = list(g.edges), srcs[:], dsts[:]
    in_idx = dsts.index(v)
    out_idx = srcs.index(v)
    in_e = edges[in_idx]
    out_e = edges[out_idx]
    middle = blow_up_inplace([in_e.label, out_e.label], 0)
    # candidates are longer than v, and no v'... name equals a v''... name
    v1 = _fresh(v + "'", g.vertices)
    v2 = _fresh(v + "''", g.vertices)
    vertices = g.vertices[:slot] + (v1, v2) + g.vertices[slot + 1 :]
    edges[in_idx] = Edge(in_e.src, v1, in_e.label)
    edges[out_idx] = Edge(v2, out_e.dst, out_e.label)
    edges.insert(in_idx + 1, Edge(v1, v2, middle))
    # the same edits on the edge ends; the kernel refuses a self-loop at v
    # (det(w, w) = 0), so the two touched edges differ
    dsts[in_idx] = v1
    srcs[out_idx] = v2
    srcs.insert(in_idx + 1, v1)
    dsts.insert(in_idx + 1, v2)
    return _rewritten(vertices, edges, srcs, dsts)


def blow_down_graph(g: TorusGraph, edge) -> TorusGraph:
    """Contract an exceptional edge to a single vertex.

    The edge may be given as an Edge or a (vertex, vertex) pair and is
    matched direction-insensitively.  With directed pattern (p', p1, w1),
    (p1, p2, w), (p2, p'', w2) it applies only when w = w1 + w2; the
    contracted vertex takes the lexicographically smaller of the two ids
    and the earlier of their two vertex slots.  An undirected g is
    normalized first.  Only the three edges of the pattern change, so the
    fan kernel checks the sum and the one determinant det(w1, w2) in place
    of validate_graph.
    """
    if isinstance(edge, Edge):
        a, b = edge.src, edge.dst
    else:
        try:
            a, b = edge
        except (TypeError, ValueError):
            raise DomainError(f"edge {edge!r} is not an Edge or a pair") from None
    # keep the earlier slot so component discovery order is undisturbed
    keep, drop = sorted((_slot(g, a), _slot(g, b)))
    g, srcs, dsts = _directed(g)
    edges, srcs, dsts = list(g.edges), srcs[:], dsts[:]
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
    try:
        blow_down_inplace([in_e.label, mid.label, out_e.label], 1)
    except NotBlowDownable:  # the kernel names a list index, not the vertices
        raise NotBlowDownable((p1, p2)) from None
    p = min(p1, p2)
    vs = g.vertices
    vertices = vs[:keep] + (p,) + vs[keep + 1 : drop] + vs[drop + 1 :]
    edges[in_idx] = Edge(in_e.src, p, in_e.label)
    edges[out_idx] = Edge(p, out_e.dst, out_e.label)
    del edges[mid_idx]
    # the same edits on the edge ends; the kernel refuses every pattern in
    # which two of the three edges coincide, so they differ
    dsts[in_idx] = p
    srcs[out_idx] = p
    del srcs[mid_idx], dsts[mid_idx]
    return _rewritten(vertices, edges, srcs, dsts)


def is_minimal_graph(g: TorusGraph) -> bool:
    """True iff every component reads as a minimal fan: all unit labels."""
    return all(is_minimal_fan(f) for f in graph_to_family(g).fans)
