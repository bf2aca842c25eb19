import copy
import dataclasses
import pickle
import random
from unittest import mock

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import oracles
import acx4
from acx4 import torusgraph
from acx4.errors import (
    DomainError,
    MultiEdge,
    NotBlowDownable,
    NotTwoRegular,
    RecurrenceFails,
    SelfLoop,
    UnknownVertex,
    WeightsNotBasis,
    ZeroLabel,
)
from acx4.torusgraph import Edge, TorusGraph, normalized_components

CP2_VERTICES = ["p1", "p2", "p3"]
CP2_EDGES = [("p1", "p2", (1, 0)), ("p2", "p3", (-1, 1)), ("p3", "p1", (0, -1))]


def cp2_graph():
    return acx4.validate_graph(CP2_VERTICES, CP2_EDGES)


def sigma_graph(n):
    return acx4.validate_graph(
        ["p1", "p2", "p3", "p4"],
        [("p1", "p2", (1, 0)), ("p2", "p3", (0, 1)),
         ("p3", "p4", (-1, n)), ("p4", "p1", (0, -1))],
    )


def minimal_cycle():
    return acx4.validate_graph(
        ["q1", "q2", "q3", "q4"],
        [("q1", "q2", (1, 0)), ("q2", "q3", (0, 1)),
         ("q3", "q4", (-1, 0)), ("q4", "q1", (0, -1))],
    )


def test_validate_golden_graphs():
    assert len(cp2_graph().edges) == 3
    for n in range(0, 5):
        assert len(sigma_graph(n).edges) == 4


def test_validate_structural_errors():
    with pytest.raises(MultiEdge):
        acx4.validate_graph(["a", "b"], [("a", "b", (1, 0)), ("b", "a", (0, 1))])
    with pytest.raises(SelfLoop):
        acx4.validate_graph(["a", "b", "c"],
                            [("a", "a", (1, 0)), ("b", "c", (0, 1))])
    with pytest.raises(NotTwoRegular):
        acx4.validate_graph(["a", "b", "c", "d"],
                            [("a", "b", (1, 0)), ("b", "c", (0, 1)),
                             ("c", "a", (-1, -1)), ("c", "d", (1, 1))])
    with pytest.raises(ZeroLabel):
        acx4.validate_graph(["a", "b", "c"],
                            [("a", "b", (0, 0)), ("b", "c", (0, 1)),
                             ("c", "a", (-1, -1))])
    with pytest.raises(UnknownVertex):
        acx4.validate_graph(["a", "b"], [("a", "b", (1, 0)), ("b", "zz", (0, 1))])
    with pytest.raises(DomainError):
        acx4.validate_graph(["a", "a", "b"], [])
    with pytest.raises(DomainError):
        acx4.validate_graph([], [])


# endpoints are checked once, by the cycle walk, so an edge fault checked
# per edge is reported before an edge end outside the vertices
MULTI_FAULT_GRAPHS = {
    "self-loop": ((["a", "b"], [("a", "zz", (1, 0)), ("b", "b", (0, 1))]),
                  SelfLoop(Edge("b", "b", (0, 1)))),
    "zero-label": ((["a", "b", "c"], [("a", "zz", (1, 0)), ("b", "c", (0, 0))]),
                   ZeroLabel(Edge("b", "c", (0, 0)))),
}


@pytest.mark.parametrize("name", list(MULTI_FAULT_GRAPHS))
def test_validate_checks_endpoints_after_each_edge(name):
    (vertices, edges), want = MULTI_FAULT_GRAPHS[name]
    with pytest.raises(type(want)) as exc:
        acx4.validate_graph(vertices, edges)
    assert (str(exc.value), vars(exc.value)) == (str(want), vars(want))


def test_validate_label_errors():
    with pytest.raises(WeightsNotBasis) as exc:
        acx4.validate_graph(
            ["p1", "p2", "p3"],
            [("p1", "p2", (1, 0)), ("p2", "p3", (2, 0)), ("p3", "p1", (1, 1))])
    assert exc.value.vertex == "p2"
    with pytest.raises(RecurrenceFails):
        acx4.validate_graph(
            ["p1", "p2", "p3"],
            [("p1", "p2", (1, 0)), ("p2", "p3", (0, 1)), ("p3", "p1", (-1, 1))])


def test_validate_rejects_bool_labels():
    for label in [(True, False), (1, True), (False, 0)]:
        with pytest.raises(DomainError, match="edge at index 0: label must have integer entries"):
            acx4.validate_graph(CP2_VERTICES,
                                [("p1", "p2", label)] + CP2_EDGES[1:])


def test_validate_rejects_malformed_edges():
    with pytest.raises(DomainError, match="edge at index 1 is not a triple"):
        acx4.validate_graph(CP2_VERTICES, [CP2_EDGES[0], ("p2", "p3")] + CP2_EDGES[2:])
    with pytest.raises(DomainError, match="edge at index 2: label is not a pair"):
        acx4.validate_graph(CP2_VERTICES, CP2_EDGES[:2] + [("p3", "p1", (0, -1, 0))])


def test_weights_at_golden():
    g = cp2_graph()
    assert acx4.weights_at(g, "p2") == ((-1, 0), (-1, 1))
    assert acx4.weights_at(g, "p1") == ((0, 1), (1, 0))
    for n in range(0, 4):
        assert acx4.weights_at(sigma_graph(n), "p3") == tuple(
            sorted([(0, -1), (-1, n)]))
    with pytest.raises(UnknownVertex):
        acx4.weights_at(g, "nope")


def test_weights_at_refuses_a_dangling_edge():
    # the same incidence map as the cycle walk: an unvalidated edge to a
    # missing vertex is UnknownVertex, even at a vertex it does not touch
    g = TorusGraph(("p1", "p2", "p3"),
                   (Edge("p1", "p2", (1, 0)), Edge("p2", "p3", (-1, 1)),
                    Edge("p3", "zz", (0, -1))))
    with pytest.raises(UnknownVertex) as exc:
        acx4.weights_at(g, "p2")
    assert (str(exc.value), exc.value.vertex) == ("unknown vertex 'zz'", "zz")


def test_normalize_orientation():
    g = cp2_graph()
    assert acx4.normalize_orientation(g) == g  # already a directed cycle
    flipped = acx4.validate_graph(
        CP2_VERTICES,
        [("p1", "p2", (1, 0)), ("p2", "p3", (-1, 1)), ("p1", "p3", (0, 1))])
    assert acx4.normalize_orientation(flipped) == g
    rng = random.Random(11)
    for _ in range(100):
        fam = acx4.gen_random_family(rng.randrange(1 << 30),
                                     rng.randint(1, 3), rng.randint(0, 6))
        scrambled = oracles.scramble_graph(acx4.family_to_graph(fam), rng)
        normal = acx4.normalize_orientation(scrambled)
        outs = {v: 0 for v in normal.vertices}
        ins = {v: 0 for v in normal.vertices}
        for e in normal.edges:
            outs[e.src] += 1
            ins[e.dst] += 1
        assert all(outs[v] == 1 and ins[v] == 1 for v in normal.vertices)
        for v in normal.vertices:
            assert acx4.weights_at(normal, v) == acx4.weights_at(scrambled, v)


def test_graph_to_family_golden():
    assert acx4.graph_to_family(cp2_graph()).fans[0].vectors == (
        (1, 0), (-1, 1), (0, -1))
    for n in range(0, 5):
        assert acx4.graph_to_family(sigma_graph(n)).fans[0] == \
            acx4.make_hirzebruch_fan((1, 0), (0, 1), n)
    union = acx4.validate_graph(
        CP2_VERTICES + ["q1", "q2", "q3", "q4"],
        CP2_EDGES + [("q1", "q2", (1, 0)), ("q2", "q3", (0, 1)),
                     ("q3", "q4", (-1, 0)), ("q4", "q1", (0, -1))])
    fam = acx4.graph_to_family(union)
    assert len(fam.fans) == 2
    assert fam.fans[1] == acx4.make_hirzebruch_fan((1, 0), (0, 1), 0)


def test_family_to_graph_round_trip():
    rng = random.Random(23)
    for _ in range(300):
        fam = acx4.gen_random_family(rng.randrange(1 << 30),
                                     rng.randint(1, 3), rng.randint(0, 8),
                                     None)
        assert acx4.graph_to_family(acx4.family_to_graph(fam)) == fam


def test_family_to_graph_many_components_round_trip():
    # component order survives even past 10 components
    fam = acx4.make_minimal_family([1] * 12)
    fam = acx4.blow_up_in_family(fam, 11, 0)
    assert acx4.graph_to_family(acx4.family_to_graph(fam)) == fam


def test_blow_up_graph_golden():
    g2 = acx4.blow_up_graph(cp2_graph(), "p2")
    assert set(g2.vertices) == {"p1", "p2'", "p2''", "p3"}
    assert acx4.graph_to_family(g2).fans[0] == acx4.make_hirzebruch_fan(
        (1, 0), (0, 1), 1)
    for n in range(0, 4):
        g = acx4.blow_up_graph(sigma_graph(n), "p3")
        assert len(g.vertices) == 5 and len(g.edges) == 5
        edge_set = {(e.src, e.dst, e.label) for e in g.edges}
        assert edge_set == {
            ("p1", "p2", (1, 0)), ("p2", "p3'", (0, 1)),
            ("p3'", "p3''", (-1, n + 1)), ("p3''", "p4", (-1, n)),
            ("p4", "p1", (0, -1))}
    with pytest.raises(UnknownVertex):
        acx4.blow_up_graph(cp2_graph(), "zz")


def test_blow_down_graph_golden():
    for n in range(0, 4):
        blown = acx4.blow_up_graph(sigma_graph(n), "p3")
        down = acx4.blow_down_graph(blown, ("p3''", "p4"))
        assert acx4.graph_to_family(down).fans[0] == acx4.make_hirzebruch_fan(
            (1, 0), (0, 1), n + 1)
    g2 = acx4.blow_up_graph(cp2_graph(), "p2")
    back = acx4.blow_down_graph(g2, ("p2'", "p2''"))
    assert acx4.fans_equivalent(acx4.graph_to_family(back).fans[0],
                                acx4.make_cp2_fan((1, 0), (-1, 1)))
    for e in minimal_cycle().edges:
        with pytest.raises(NotBlowDownable):
            acx4.blow_down_graph(minimal_cycle(), (e.src, e.dst))
    with pytest.raises(DomainError):
        acx4.blow_down_graph(cp2_graph(), ("p1", "p1"))
    for edge in (5, None, ("p1", "p2", "p3"), ("p1",)):
        with pytest.raises(DomainError,
                           match=r"^edge .* is not an Edge or a pair$"):
            acx4.blow_down_graph(cp2_graph(), edge)


def test_blow_up_then_down_identity_up_to_renaming():
    rng = random.Random(77)
    for _ in range(100):
        fam = acx4.gen_random_family(rng.randrange(1 << 30), 1, rng.randint(0, 6))
        g = oracles.scramble_graph(acx4.family_to_graph(fam), rng)
        v = g.vertices[rng.randrange(len(g.vertices))]
        up = acx4.blow_up_graph(g, v)
        new = [u for u in up.vertices if u not in g.vertices]
        middle = [e for e in up.edges if e.src in new and e.dst in new]
        assert len(middle) == 1
        down = acx4.blow_down_graph(up, (middle[0].src, middle[0].dst))
        assert acx4.fans_equivalent(acx4.graph_to_family(down).fans[0],
                                    acx4.graph_to_family(g).fans[0])


def test_rewrites_commute_with_correspondence():
    rng = random.Random(31)
    for _ in range(150):
        fam = acx4.gen_random_family(rng.randrange(1 << 30),
                                     rng.randint(1, 2), rng.randint(0, 6))
        g = oracles.scramble_graph(acx4.family_to_graph(fam), rng)
        cycles = normalized_components(g)
        c = rng.randrange(len(cycles))
        t = rng.randrange(len(cycles[c]))
        vertex = cycles[c][t][1].src
        k = len(cycles[c])
        base = acx4.graph_to_family(g)
        raised_graph = acx4.graph_to_family(acx4.blow_up_graph(g, vertex))
        raised_fam = acx4.blow_up_in_family(base, c, (t - 1) % k)
        assert len(raised_graph.fans) == len(raised_fam.fans)
        for a, b in zip(raised_graph.fans, raised_fam.fans):
            assert acx4.fans_equivalent(a, b)
        downable = [i for i, a in enumerate(acx4.self_intersections(base.fans[c]))
                    if a == -1]
        if downable:
            i = downable[rng.randrange(len(downable))]
            edge = cycles[c][i][1]
            lowered_graph = acx4.graph_to_family(
                acx4.blow_down_graph(g, (edge.src, edge.dst)))
            lowered_fam = acx4.blow_down_in_family(base, c, i)
            for a, b in zip(lowered_graph.fans, lowered_fam.fans):
                assert acx4.fans_equivalent(a, b)


def cw_unit_cycle():
    return acx4.validate_graph(
        ["r1", "r2", "r3", "r4"],
        [("r1", "r2", (1, 0)), ("r2", "r3", (0, -1)),
         ("r3", "r4", (-1, 0)), ("r4", "r1", (0, 1))])


def test_is_minimal_graph():
    assert acx4.is_minimal_graph(minimal_cycle())
    assert not acx4.is_minimal_graph(cp2_graph())
    assert not acx4.is_minimal_graph(sigma_graph(1))
    assert acx4.is_minimal_graph(sigma_graph(0))
    # clockwise unit cycle matches the pattern with a = -1
    assert acx4.is_minimal_graph(cw_unit_cycle())


def test_is_minimal_graph_reads_the_fans():
    """On validated graphs the literal unit-label pattern check, the fan
    check and is_minimal_graph agree."""
    rng = random.Random(0x3B)
    fams = [acx4.make_minimal_family(signs)
            for signs in ([1], [-1], [1, -1], [-1, -1, 1])]
    for _ in range(60):
        fam = acx4.gen_random_family(rng.randrange(1 << 30), rng.randint(1, 3),
                                     rng.randint(0, 8))
        fams += [fam, acx4.reduce_to_minimal(fam)[0],
                 acx4.family_union(fam, acx4.make_minimal_family([1]))]
    for winding in (1, 2, 3):
        for seed in range(8):
            fan = oracles.random_winding_fan(seed, winding, max_blowups=6)
            fam = acx4.MultiFanFamily((fan,))
            fams += [fam, acx4.reduce_to_minimal(fam)[0]]
    graphs = [minimal_cycle(), cp2_graph(), sigma_graph(0), sigma_graph(1),
              cw_unit_cycle()]
    for fam in fams:
        g = acx4.family_to_graph(fam)
        graphs += [g, oracles.scramble_graph(g, rng)]
    seen = set()
    for g in graphs:
        expected = oracles.reference_is_minimal_graph(g)
        assert expected == all(
            acx4.is_minimal_fan(f) for f in acx4.graph_to_family(g).fans)
        assert acx4.is_minimal_graph(g) == expected
        seen.add(expected)
    assert seen == {True, False}


def connected(g):
    return len(normalized_components(g)) <= 1


def test_is_connected():
    assert connected(cp2_graph())
    two = acx4.validate_graph(
        ["a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"],
        [("a1", "a2", (1, 0)), ("a2", "a3", (0, 1)),
         ("a3", "a4", (-1, 0)), ("a4", "a1", (0, -1)),
         ("b1", "b2", (1, 0)), ("b2", "b3", (0, 1)),
         ("b3", "b4", (-1, 0)), ("b4", "b1", (0, -1))])
    assert not connected(two)
    assert connected(acx4.family_to_graph(
        acx4.MultiFanFamily((acx4.make_cp2_fan((1, 0), (0, 1)),))))


def test_gkm_relations():
    rels = cp2_graph().edges
    assert len(rels) == 3
    assert {r.label for r in rels} == {(1, 0), (-1, 1), (0, -1)}
    assert rels[0].src == "p1" and rels[0].dst == "p2"
    assert len(sigma_graph(2).edges) == 4
    rng = random.Random(13)
    for _ in range(30):
        fam = acx4.gen_random_family(rng.randrange(1 << 30),
                                     rng.randint(1, 2), rng.randint(0, 5))
        g = acx4.family_to_graph(fam)
        assert len(g.edges) == acx4.fixed_point_count(fam) >= 3


def unvalidated_graph(vertices, pairs):
    return TorusGraph(tuple(vertices),
                      tuple(Edge(s, d, (1, 0)) for s, d in pairs))


# graphs that never went through validate_graph, with a vertex of degree 3,
# 1 or 0, or an edge to a vertex that is not there, and the error each must
# raise: the cycle walk must stop with it, not loop or crash
BAD_DEGREE_GRAPHS = {
    "degree-3": (unvalidated_graph(
        "abcde", [("b", "c"), ("a", "b"), ("c", "d"), ("d", "b"), ("e", "a")]),
        NotTwoRegular("b", 3)),
    "degree-1": (unvalidated_graph("abc", [("a", "b"), ("b", "c")]),
                 NotTwoRegular("a", 1)),
    "degree-0": (unvalidated_graph("abcd", [("a", "b"), ("b", "c"), ("c", "a")]),
                 NotTwoRegular("d", 0)),
    "dangling-edge": (unvalidated_graph("abc", [("a", "b"), ("b", "c"), ("c", "z")]),
                      UnknownVertex("z")),
}


@pytest.mark.parametrize("name", list(BAD_DEGREE_GRAPHS))
def test_cycle_walk_rejects_a_vertex_not_of_degree_two(name):
    g, want = BAD_DEGREE_GRAPHS[name]
    for reader in (acx4.graph_to_family, acx4.normalize_orientation,
                   acx4.render_graph_tikz, normalized_components,
                   lambda g: acx4.weights_at(g, "a")):
        with pytest.raises(type(want)) as exc:
            reader(g)
        assert (str(exc.value), vars(exc.value)) == (str(want), vars(want))


def test_empty_graph_reads_as_no_family():
    empty = TorusGraph((), ())
    with pytest.raises(DomainError, match="at least one fan"):
        acx4.graph_to_family(empty)
    assert connected(empty)


def test_cycle_walk_matches_its_docstring():
    # directed graphs, two scrambled copies of each, and one of those copies
    # after blow-ups
    rng = random.Random(23)
    for _ in range(300):
        fam = acx4.gen_random_family(rng.randrange(1 << 30), rng.randint(1, 3),
                                     rng.randint(0, 8))
        g = acx4.family_to_graph(fam)
        scrambled, _ = oracles.scramble_graph_with_names(g, rng)
        graphs = [g, oracles.scramble_graph(g, rng), scrambled]
        for _ in range(rng.randint(1, 3)):
            scrambled = acx4.blow_up_graph(scrambled, rng.choice(scrambled.vertices))
        for g in graphs + [scrambled]:
            assert normalized_components(g) == oracles.reference_normalized_components(g)
            assert acx4.normalize_orientation(g) == oracles.reference_normalize_orientation(g)
            assert acx4.graph_to_family(g) == oracles.reference_graph_to_family(g)


def reversed_edges(g, flip):
    """g with the edges at the indices flip stored the other way round, each
    with its label negated: the same graph."""
    return TorusGraph(g.vertices, tuple(
        Edge(e.dst, e.src, (-e.label[0], -e.label[1])) if i in flip else e
        for i, e in enumerate(g.edges)))


def test_single_walk_matches_the_two_walk_components(criterion_4_reductions):
    # each component is walked once and rotated to its least vertex, and
    # walked again only when its start edge runs against that walk
    rng = random.Random(0x27)
    graphs = []
    for _ in range(200):
        fam = acx4.gen_random_family(rng.randrange(1 << 30), rng.randint(1, 3),
                                     rng.randint(0, 12))
        g = acx4.family_to_graph(fam)
        first = len(fam.fans[0])  # the edges of the first cycle come first
        # scrambled directions; mixed directions in one cycle; a first
        # vertex that is not the least one, with the cycle stored forwards
        # and backwards
        graphs += [oracles.scramble_graph(g, rng),
                   reversed_edges(g, set(rng.sample(range(first), rng.randint(1, first - 1))))]
        at = rng.randrange(1, len(g.vertices))
        rotated = TorusGraph(g.vertices[at:] + g.vertices[:at], g.edges)
        graphs += [rotated, reversed_edges(rotated, set(range(len(g.edges))))]
    graphs += [acx4.family_to_graph(fam) for fam, _, _ in criterion_4_reductions]
    walks = components = 0
    with mock.patch.object(torusgraph, "_walk", wraps=torusgraph._walk) as walk:
        for g in graphs:
            cycles = normalized_components(g)
            assert cycles == oracles.two_walk_normalized_components(g)
            walks += walk.call_count
            components += len(cycles)
            walk.reset_mock()
    # both ways are taken: one walk per component, and two
    assert components < walks < 2 * components


def test_blow_up_graph_skips_taken_names():
    g = acx4.family_to_graph(acx4.make_minimal_family([1]))
    g = acx4.blow_up_graph(acx4.blow_up_graph(g, "p1,1"), "p1,1'")
    assert g.vertices == ("p1,1''_2", "p1,1'''", "p1,1''", "p1,2", "p1,3", "p1,4")
    assert g == acx4.validate_graph(g.vertices, g.edges)


def test_rewrite_results_read_like_their_fields_rebuilt():
    # a rewrite's result carries its edge ends outside its fields, where
    # nothing that compares, hashes, prints, copies or rewrites it may see them
    g = acx4.family_to_graph(acx4.make_minimal_family([1, -1]))
    up = acx4.blow_up_graph(acx4.blow_up_graph(g, "p1,2"), "p2,3")
    down = acx4.blow_down_graph(up, ("p2,3'", "p2,3''"))
    for got in (up, down):
        rebuilt = TorusGraph(got.vertices, got.edges)
        for h in (got, pickle.loads(pickle.dumps(got)), copy.copy(got)):
            assert h == rebuilt and hash(h) == hash(rebuilt)
            assert repr(h) == repr(rebuilt)
            assert dataclasses.astuple(h) == dataclasses.astuple(rebuilt)
            for v in ("p1,1", "p1,2''"):
                assert acx4.blow_up_graph(h, v) == acx4.blow_up_graph(rebuilt, v)
            ends = ("p1,2'", "p1,2''")
            assert acx4.blow_down_graph(h, ends) == acx4.blow_down_graph(rebuilt, ends)
        assert [f.name for f in dataclasses.fields(got)] == ["vertices", "edges"]
        assert len(vars(got)) > len(vars(rebuilt))  # yet it does carry them


def test_malformed_graphs_are_refused_at_the_first_rewrite_or_query():
    # unvalidated graphs that are no union of cycles on their listed
    # vertices: each reader of the directed view refuses them at once, with
    # the cycle walk's error or validate_graph's duplicate-vertex one
    cycle = acx4.family_to_graph(acx4.make_minimal_family([1]))
    up = acx4.blow_up_graph(cycle, "p1,2")
    cases = {
        # the source p1,2' is no vertex, though a blow-up at p1,2 would name one so
        "stray": (TorusGraph(cycle.vertices,
                             cycle.edges[:3] + (Edge("p1,2'", "p1,1", (0, -1)),)),
                  "p1,2", ("p1,1", "p1,2"), UnknownVertex("p1,2'")),
        # p1,1 is the source of two edges
        "twice": (TorusGraph(cycle.vertices,
                             cycle.edges + (Edge("p1,1", "p1,3", (1, 1)),)),
                  "p1,1", ("p1,1", "p1,2"), NotTwoRegular("p1,1", 3)),
        # p1,2'' is listed twice
        "listed_twice": (TorusGraph(up.vertices + ("p1,2''",), up.edges),
                         "p1,4", ("p1,2'", "p1,2''"),
                         DomainError("duplicate vertex id")),
        # c is no edge's source, and x is no vertex
        "no_edge_out": (TorusGraph(("a", "b", "c"),
                                   (Edge("a", "b", (1, 0)), Edge("b", "c", (0, 1)),
                                    Edge("x", "a", (-1, -1)))),
                        "c", ("b", "c"), UnknownVertex("x")),
        # a meets three edge ends and c one
        "degree_3_and_1": (
            unvalidated_graph("abc", [("a", "b"), ("b", "a"), ("c", "a")]),
            "c", ("a", "b"), NotTwoRegular("a", 3)),
        # b is listed twice, and as many edges as listed vertices leave the
        # two listed names
        "listed_twice_and_doubled": (
            unvalidated_graph("abb", [("a", "b"), ("b", "a"), ("b", "a")]),
            "a", ("a", "b"), NotTwoRegular("a", 3)),
    }
    for name, (g, v, pair, want) in cases.items():
        for reader, arg in ((acx4.blow_up_graph, v), (acx4.blow_down_graph, pair),
                            (acx4.weights_at, v)):
            with pytest.raises(DomainError) as exc:
                reader(g, arg)
            got = (type(exc.value), str(exc.value), vars(exc.value))
            assert got == (type(want), str(want), vars(want)), (name, reader)


class GraphAndFamily(RuleBasedStateMachine):
    """Seeded blow-ups and blow-downs applied to a family and to its graph
    together.

    names[j][i] is the graph vertex between vectors i-1 and i of fan j,
    the one whose weights are v[i] and -v[i-1]; it is kept by adjacency,
    so it does not depend on which way the graph's cycles are directed.
    """

    @initialize(seed=st.integers(0, 2 ** 32), components=st.integers(1, 3),
                blowups=st.integers(0, 6), scrambled=st.booleans())
    def start(self, seed, components, blowups, scrambled):
        self.fam = acx4.gen_random_family(seed, components, blowups)
        g = acx4.family_to_graph(self.fam)
        rename = {v: v for v in g.vertices}
        # a scrambled graph may be read against the family's direction
        self.mode = acx4.ROTATIONS
        if scrambled:
            g, rename = oracles.scramble_graph_with_names(g, random.Random(seed))
            self.mode = acx4.ROTATIONS_AND_REVERSAL
        self.graph = g
        self.names = [[rename[f"p{j + 1},{i + 1}"] for i in range(len(fan))]
                      for j, fan in enumerate(self.fam.fans)]

    @rule(seed=st.integers(0, 2 ** 32))
    def blow_up(self, seed):
        rng = random.Random(seed)
        j = rng.randrange(len(self.names))
        names = self.names[j]
        k = len(names)
        i = rng.randrange(k)
        old = set(self.graph.vertices)
        self.graph = acx4.blow_up_graph(self.graph, names[i])
        self.fam = acx4.blow_up_in_family(self.fam, j, (i - 1) % k)
        new = [u for u in self.graph.vertices if u not in old]
        assert len(new) == 2
        # the new vertex next to names[i-1] comes first along the fan
        first, second = sorted(new, key=lambda u: not self.joined(u, names[i - 1]))
        if i:
            names[i : i + 1] = [first, second]
        else:
            names[0] = second
            names.append(first)

    @rule(seed=st.integers(0, 2 ** 32))
    def blow_down(self, seed):
        spots = [(j, i) for j, fan in enumerate(self.fam.fans)
                 for i, a in enumerate(acx4.self_intersections(fan)) if a == -1]
        if not spots:
            return
        j, i = random.Random(seed).choice(spots)
        names = self.names[j]
        k = len(names)
        ends = (names[i], names[(i + 1) % k])
        self.graph = acx4.blow_down_graph(self.graph, ends)
        self.fam = acx4.blow_down_in_family(self.fam, j, i)
        if i + 1 < k:
            names[i : i + 2] = [min(ends)]
        else:
            names[0] = min(ends)
            names.pop()

    def joined(self, u, w):
        return any({e.src, e.dst} == {u, w} for e in self.graph.edges)

    @invariant()
    def graph_reads_as_the_family(self):
        g = self.graph
        assert acx4.validate_graph(g.vertices, g.edges) == g
        slot = {v: t for t, v in enumerate(g.vertices)}
        assert sorted(slot) == sorted(u for names in self.names for u in names)
        for names, fan in zip(self.names, self.fam.fans):
            vs = fan.vectors
            for i, u in enumerate(names):
                assert acx4.weights_at(g, u) == tuple(
                    sorted([vs[i], (-vs[i - 1][0], -vs[i - 1][1])]))
        # components are read in the order their vertices first appear
        order = sorted(range(len(self.names)),
                       key=lambda j: min(slot[u] for u in self.names[j]))
        read = acx4.graph_to_family(g)
        assert len(read.fans) == len(order)
        for fan, j in zip(read.fans, order):
            assert acx4.fans_equivalent(fan, self.fam.fans[j], self.mode)
        assert acx4.chi_y_report(read) == acx4.chi_y_report(self.fam)


TestGraphAndFamily = GraphAndFamily.TestCase
TestGraphAndFamily.settings = settings(max_examples=60, stateful_step_count=25,
                                       deadline=None)
