import random

import pytest

import oracles
import acx4
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
from acx4.torusgraph import _normalized_components

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


def test_weights_at_golden():
    g = cp2_graph()
    assert acx4.weights_at(g, "p2") == ((-1, 0), (-1, 1))
    assert acx4.weights_at(g, "p1") == ((0, 1), (1, 0))
    for n in range(0, 4):
        assert acx4.weights_at(sigma_graph(n), "p3") == tuple(
            sorted([(0, -1), (-1, n)]))
    with pytest.raises(UnknownVertex):
        acx4.weights_at(g, "nope")


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
        cycles = _normalized_components(g)
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


def test_is_minimal_graph():
    assert acx4.is_minimal_graph(minimal_cycle())
    assert not acx4.is_minimal_graph(cp2_graph())
    assert not acx4.is_minimal_graph(sigma_graph(1))
    assert acx4.is_minimal_graph(sigma_graph(0))
    # clockwise unit cycle matches the pattern with a = -1
    cw = acx4.validate_graph(
        ["r1", "r2", "r3", "r4"],
        [("r1", "r2", (1, 0)), ("r2", "r3", (0, -1)),
         ("r3", "r4", (-1, 0)), ("r4", "r1", (0, 1))])
    assert acx4.is_minimal_graph(cw)


def test_is_connected():
    assert acx4.is_connected(cp2_graph())
    two = acx4.validate_graph(
        ["a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"],
        [("a1", "a2", (1, 0)), ("a2", "a3", (0, 1)),
         ("a3", "a4", (-1, 0)), ("a4", "a1", (0, -1)),
         ("b1", "b2", (1, 0)), ("b2", "b3", (0, 1)),
         ("b3", "b4", (-1, 0)), ("b4", "b1", (0, -1))])
    assert not acx4.is_connected(two)
    assert acx4.is_connected(acx4.family_to_graph(
        acx4.MultiFanFamily((acx4.make_cp2_fan((1, 0), (0, 1)),))))


def test_gkm_relations():
    rels = acx4.gkm_relations(cp2_graph())
    assert len(rels) == 3
    assert {r.generator for r in rels} == {(1, 0), (-1, 1), (0, -1)}
    assert rels[0].source == "p1" and rels[0].target == "p2"
    assert len(acx4.gkm_relations(sigma_graph(2))) == 4
    rng = random.Random(13)
    for _ in range(30):
        fam = acx4.gen_random_family(rng.randrange(1 << 30),
                                     rng.randint(1, 2), rng.randint(0, 5))
        g = acx4.family_to_graph(fam)
        assert len(acx4.gkm_relations(g)) == len(g.edges) >= 3
