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
outside the program; it reads vertex ids and edges into strings and
integer pairs, then calls admissible_graph, which the document reader
calls directly on the values it has type-checked.  The cycle walk reads
an incidence map, so an edge end outside the vertices is UnknownVertex
and a vertex of another degree NotTwoRegular.

weights_at, blow_up_graph and blow_down_graph read a directed view of a
graph (_View): its vertices and its edges once every cycle is directed,
as lists, the source and destination of each edge, and the set of vertex
names.  One graph at a time owns a view.  A rewrite claims the view of
its argument with one atomic set.remove of the argument's token, checks
the touched determinants through the fan kernel blow_up_inplace /
blow_down_inplace, edits the lists and the name set in place, and hands
the view to its result under a fresh token; the result's vertices and
edges are one tuple copy of each list.  A rewrite that raises has edited
nothing and gives the view back.  weights_at claims the view, reads it
and gives it back.  A graph that owns no view pays one rebuild from its
own fields, a pass over its edges (and a normalization when a cycle is
not directed): a graph from validate_graph, the reader or
family_to_graph, an older version whose view a rewrite has taken, or a
copy.copy of a graph whose view another copy took first.  It passes the
walk's checks and lists no vertex twice, or is refused.  The view a
rewrite builds goes to its result, and the view weights_at builds stays
with the graph.  What stays O(V) per rewrite runs at C speed: the index
lookups of the touched vertices and edges, the list inserts and
deletions, and the two tuple copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, eq

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
    admissible_multifan,
    as_vec,
    blow_down_inplace,
    blow_up_inplace,
    is_minimal_fan,
    validate_family,
)


# The generated frozen __init__ sets each field through object.__setattr__;
# filling __dict__ in one update costs about half as much, and leaves the
# fields, ==, hash, repr, dataclasses.replace and pickling as they were,
# though each instance then holds a dict object of its own.

@dataclass(frozen=True, init=False)
class Edge:
    src: str
    dst: str
    label: Vec

    def __init__(self, src: str, dst: str, label: Vec):
        self.__dict__.update(src=src, dst=dst, label=label)


@dataclass(frozen=True, init=False)
class TorusGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...]):
        self.__dict__.update(vertices=vertices, edges=edges)


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
    append = cycle.append
    edges = g.edges
    cur = start
    while True:
        e = edges[idx]
        if outgoing:
            append((idx, e))
            cur = e.dst
        else:
            append((idx, Edge(cur, e.src, lattice.neg(e.label))))
            cur = e.src
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

    Each component is walked once from its first vertex, and that walk is
    rotated to start at the least vertex.  It is walked a second time, from
    there, only when the start edge above runs against the first walk's
    direction.
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
        cycle = _walk(g, inc, seed, *inc[seed][0])
        component = [oe.src for _, oe in cycle]
        visited.update(component)
        start = min(component)
        at = component.index(start)
        a, b = inc[start]
        idx, outgoing = a if a[1] or not b[1] else b
        if cycle[at][0] == idx:
            cycles.append(cycle[at:] + cycle[:at])
        else:
            cycles.append(_walk(g, inc, start, idx, outgoing))
    return cycles


def validate_graph(vertices, edges) -> TorusGraph:
    """Check structure and label admissibility; return the validated graph.

    Vertex ids are read with str, and each edge must be an Edge or a
    (src, dst, label) triple whose label is an integer pair; then
    admissible_graph checks the rest.
    """
    return admissible_graph(map(str, vertices),
                            (_as_edge(item, i) for i, item in enumerate(edges)))


def admissible_graph(vertices, edges) -> TorusGraph:
    """validate_graph for vertex ids that are already strings and Edges
    whose ends are strings and whose labels are integer pairs, as a
    document reader's are; the reader builds the Edges straight from the
    triples it checked.  edges is read only after the vertices pass, so
    it may be a lazy iterable that checks types.

    Structure: at least one vertex, no duplicate vertex id, known
    endpoints, nonzero labels, no self-loops, at most one edge per vertex
    pair, exactly two edge ends at each vertex.  Labels: the two weights
    at every vertex form a lattice basis and each cycle label is an
    integer combination -a*w2 - w1 of its two predecessors, checked as a
    constant consecutive determinant along the traversal.
    """
    verts = tuple(vertices)
    if not verts:
        raise DomainError("a graph needs at least one cycle of vertices")
    if len(set(verts)) != len(verts):
        raise DomainError("duplicate vertex id")
    es = tuple(edges)
    srcs, dsts = list(map(_src, es)), list(map(_dst, es))
    # each test runs in C, and its loop only to name the first fault
    if (0, 0) in map(_label, es) or any(map(eq, srcs, dsts)):
        for e in es:
            if e.label == (0, 0):
                raise ZeroLabel(e)
            if e.src == e.dst:
                raise SelfLoop(e)
    # with no self-loop, two edges share a vertex pair when they share a
    # direction or one runs the other's way back
    pairs = set(zip(srcs, dsts))
    if len(pairs) != len(es) or not pairs.isdisjoint(zip(dsts, srcs)):
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
        try:
            admissible_multifan([oe.label for _, oe in cycle])
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
    which g keeps, so a malformed unvalidated graph is refused as the
    cycle walk refuses it, or for a vertex listed twice.

    A graph has no positions, so this reads the edges at v rather than
    multifan.fixed_point_weights; at the vertex between vectors i-1 and i
    of a fan the two give the same pair (v[i], -v[i-1]), here sorted.
    """
    view = _claim(g, (v,))
    out_e = view.edges[view.srcs.index(v)]
    in_e = view.edges[view.dsts.index(v)]
    _hand(g, view)
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
_label = attrgetter("label")


class _View:
    """The directed view of one graph: its vertices and its edges as
    lists, edge i running from srcs[i] to dsts[i], and the set of its
    vertex names.  A graph g carries it as vars(g)["_view"] = (view,
    token), outside the fields that ==, hash, repr and dataclasses.fields
    read, and owns it while token is in view.owner, which holds at most
    one token."""

    __slots__ = ("owner", "vertices", "edges", "srcs", "dsts", "names")

    def __init__(self, vertices, edges, srcs, dsts, names):
        self.owner = set()
        self.vertices = vertices
        self.edges = edges
        self.srcs = srcs
        self.dsts = dsts
        self.names = names


def _hand(g: TorusGraph, view: _View) -> TorusGraph:
    """Make g the owner of view, under a fresh token; returns g."""
    token = object()
    view.owner.add(token)
    vars(g)["_view"] = view, token
    return g


def _claim(g: TorusGraph, named) -> _View:
    """Take g's view from it, or build one when g owns none, once each
    vertex in named is found to be one of g's (else UnknownVertex, and g
    keeps its view).  The caller hands the view on, to g or to a new
    graph; a view nobody is handed is dropped, and its graph builds a new
    one when next asked.
    """
    try:
        view, token = vars(g)["_view"]
        view.owner.remove(token)  # atomic, so of two claimants one wins
    except KeyError:  # g carries no view, or another graph has claimed it
        view = None
    names = set(g.vertices) if view is None else view.names
    for v in named:
        try:
            known = v in names
        except TypeError:  # unhashable, so no vertex's name
            known = False
        if not known:
            if view is not None:
                _hand(g, view)
            raise UnknownVertex(v)
    return _view_of(g, names) if view is None else view


def _view_of(g: TorusGraph, names) -> _View:
    """A new view of g, whose vertex names are the set names.

    When every vertex is the source of exactly one edge and the
    destination of exactly one, g is already a union of directed cycles,
    which normalization would reproduce.  Otherwise g is normalized, which
    raises UnknownVertex or NotTwoRegular on a malformed graph; after
    that, only a vertex listed twice fails.
    """
    for normalized in (False, True):
        if normalized:
            g = normalize_orientation(g)
        srcs = list(map(_src, g.edges))
        dsts = list(map(_dst, g.edges))
        if (len(names) == len(g.vertices) == len(srcs)
                and names == set(srcs) == set(dsts)):
            return _View(list(g.vertices), list(g.edges), srcs, dsts, names)
    raise DomainError("duplicate vertex id")


def blow_up_graph(g: TorusGraph, v: str) -> TorusGraph:
    """Split vertex v into an edge labeled by the sum of its two weights.

    In a consistently directed g, v has one incoming edge (p', v, w1) and
    one outgoing edge (v, p'', w2); v is replaced, in its vertex slot, by
    fresh vertices v', v'' joined by a (w1+w2)-edge stored right after the
    incoming edge, and the outer edges keep their labels.  An undirected g
    is normalized first.  Only the two edges at v change, so the fan
    kernel checks the one determinant det(w1, w2) in place of
    validate_graph.  The result takes g's directed view, edited in place.
    """
    view = _claim(g, (v,))
    vertices, edges, srcs, dsts = view.vertices, view.edges, view.srcs, view.dsts
    try:
        slot = vertices.index(v)
        in_idx = dsts.index(v)
        out_idx = srcs.index(v)
        in_e = edges[in_idx]
        out_e = edges[out_idx]
        middle = blow_up_inplace([in_e.label, out_e.label], 0)
    except BaseException:
        _hand(g, view)  # nothing is edited yet
        raise
    names = view.names
    # candidates are longer than v, and no v'... name equals a v''... name
    v1 = _fresh(v + "'", names)
    v2 = _fresh(v + "''", names)
    names.remove(v)
    names.update((v1, v2))
    vertices[slot] = v1
    vertices.insert(slot + 1, v2)
    edges[in_idx] = Edge(in_e.src, v1, in_e.label)
    edges[out_idx] = Edge(v2, out_e.dst, out_e.label)
    edges.insert(in_idx + 1, Edge(v1, v2, middle))
    # the same edits on the edge ends; the kernel refuses a self-loop at v
    # (det(w, w) = 0), so the two touched edges differ
    dsts[in_idx] = v1
    srcs[out_idx] = v2
    srcs.insert(in_idx + 1, v1)
    dsts.insert(in_idx + 1, v2)
    return _hand(TorusGraph(tuple(vertices), tuple(edges)), view)


def blow_down_graph(g: TorusGraph, edge) -> TorusGraph:
    """Contract an exceptional edge to a single vertex.

    The edge may be given as an Edge or a (vertex, vertex) pair and is
    matched direction-insensitively.  With directed pattern (p', p1, w1),
    (p1, p2, w), (p2, p'', w2) it applies only when w = w1 + w2; the
    contracted vertex takes the lexicographically smaller of the two ids
    and the earlier of their two vertex slots.  An undirected g is
    normalized first.  Only the three edges of the pattern change, so the
    fan kernel checks the sum and the one determinant det(w1, w2) in place
    of validate_graph.  The result takes g's directed view, edited in
    place.
    """
    if isinstance(edge, Edge):
        a, b = edge.src, edge.dst
    else:
        try:
            a, b = edge
        except (TypeError, ValueError):
            raise DomainError(f"edge {edge!r} is not an Edge or a pair") from None
    view = _claim(g, (a, b))
    vertices, edges, srcs, dsts = view.vertices, view.edges, view.srcs, view.dsts
    try:
        # keep the earlier slot so component discovery order is undisturbed
        keep, drop = sorted((vertices.index(a), vertices.index(b)))
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
    except BaseException:
        _hand(g, view)  # nothing is edited yet
        raise
    p = min(p1, p2)
    view.names.remove(max(p1, p2))
    vertices[keep] = p
    del vertices[drop]
    edges[in_idx] = Edge(in_e.src, p, in_e.label)
    edges[out_idx] = Edge(p, out_e.dst, out_e.label)
    del edges[mid_idx]
    # the same edits on the edge ends; the kernel refuses every pattern in
    # which two of the three edges coincide, so they differ
    dsts[in_idx] = p
    srcs[out_idx] = p
    del srcs[mid_idx], dsts[mid_idx]
    return _hand(TorusGraph(tuple(vertices), tuple(edges)), view)


def is_minimal_graph(g: TorusGraph) -> bool:
    """True iff every component reads as a minimal fan: all unit labels."""
    return all(is_minimal_fan(f) for f in graph_to_family(g).fans)
