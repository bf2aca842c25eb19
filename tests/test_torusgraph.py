import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

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
    assert {r.label for r in rels} == {(1, 0), (-1, 1), (0, -1)}
    assert rels[0].src == "p1" and rels[0].dst == "p2"
    assert len(acx4.gkm_relations(sigma_graph(2))) == 4
    rng = random.Random(13)
    for _ in range(30):
        fam = acx4.gen_random_family(rng.randrange(1 << 30),
                                     rng.randint(1, 2), rng.randint(0, 5))
        g = acx4.family_to_graph(fam)
        assert len(acx4.gkm_relations(g)) == len(g.edges) >= 3


def unvalidated_graph(vertices, pairs):
    return TorusGraph(tuple(vertices),
                      tuple(Edge(s, d, (1, 0)) for s, d in pairs))


# graphs that never went through validate_graph, with a vertex of degree 3,
# 1 or 0, and that vertex: the cycle walk must stop with an error, not loop
# or crash
BAD_DEGREE_GRAPHS = {
    "degree-3": (unvalidated_graph(
        "abcde", [("b", "c"), ("a", "b"), ("c", "d"), ("d", "b"), ("e", "a")]), "b"),
    "degree-1": (unvalidated_graph("abc", [("a", "b"), ("b", "c")]), "a"),
    "degree-0": (unvalidated_graph("abcd", [("a", "b"), ("b", "c"), ("c", "a")]), "d"),
}


@pytest.mark.parametrize("name", list(BAD_DEGREE_GRAPHS))
def test_cycle_walk_rejects_a_vertex_not_of_degree_two(name):
    g, vertex = BAD_DEGREE_GRAPHS[name]
    for reader in (acx4.graph_to_family, acx4.normalize_orientation,
                   acx4.render_graph_tikz):
        with pytest.raises(NotTwoRegular) as exc:
            reader(g)
        assert (exc.value.vertex, exc.value.degree) == (vertex, int(name[-1]))


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
