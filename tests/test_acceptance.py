"""Acceptance suite: one test per numbered criterion, all exact-value or
zero-failure property checks at desk scale.

Run `pytest tests/test_acceptance.py`; a PASS/FAIL line per criterion is
printed in the terminal summary (see conftest.py).
"""

import random

import pytest

import oracles
import acx4
from acx4.errors import NotRealizable, NotToddOne
from acx4.reduction import BLOW_DOWN

CP2 = acx4.make_cp2_fan((1, 0), (-1, 1))
MINIMAL = acx4.validate_multifan([(1, 0), (0, 1), (-1, 0), (0, -1)])


def family_of(*fans):
    return acx4.MultiFanFamily(tuple(fans))


def sigma(n):
    return acx4.make_hirzebruch_fan((1, 0), (0, 1), n)


def cp2_graph():
    return acx4.validate_graph(
        ["p1", "p2", "p3"],
        [("p1", "p2", (1, 0)), ("p2", "p3", (-1, 1)), ("p3", "p1", (0, -1))])


def test_criterion_01_golden_invariants():
    """Criterion 1: golden invariant bundles, exactly.

    The 3-point fan and the 4-point fans of every parameter 0..10.
    """
    r = acx4.chi_y_report(family_of(CP2))
    assert (r.a0, r.a1, r.a2) == (1, 1, 1)
    assert r.euler == 3 and r.todd == 1 and r.signature == 1
    assert r.c1_sq == 9 and r.c2 == 3
    for n in range(0, 11):
        r = acx4.chi_y_report(family_of(sigma(n)))
        assert (r.a0, r.a1, r.a2) == (1, 2, 1)
        assert r.euler == 4 and r.c1_sq == 8 and r.c2 == 4


def test_criterion_02_first_blow_up_reproduction():
    """Criterion 2: first blow-up reproduced exactly, fan and graph side.

    Blowing up the 3-point fan at position 0 (vertex p2 on the graph
    side) gives exactly the parameter-1 surface fan.
    """
    sigma1 = acx4.validate_multifan([(1, 0), (0, 1), (-1, 1), (0, -1)])
    assert acx4.blow_up_fan(CP2, 0) == sigma1
    blown_graph = acx4.blow_up_graph(cp2_graph(), "p2")
    fam = acx4.graph_to_family(blown_graph)
    assert fam.fans[0] == sigma1 == acx4.blow_up_fan(CP2, 0)


def test_criterion_03_parameter_step_reproduction():
    """Criterion 3: parameter step n -> n+1 reproduced exactly, n = 0..5.

    Blow up the (v2, v3) pair, then blow down the old third vector.
    """
    for n in range(0, 6):
        stepped = acx4.blow_down_fan(acx4.blow_up_fan(sigma(n), 1), 3)
        assert stepped == sigma(n + 1)


def test_criterion_04_reduction_engine(criterion_4_reductions):
    """Criterion 4: reduction engine, 10^4 seeded random families.

    Every reduction terminates minimal with valid intermediates, a
    strictly decreasing norm profile, preserved per-fan winding numbers,
    and a log that replays to the final family.  Zero failures.
    """
    assert len(criterion_4_reductions) == 10_000
    for seed, (fam, final, log) in enumerate(criterion_4_reductions):
        assert len(final.fans) == len(fam.fans)
        for before, after in zip(fam.fans, final.fans):
            assert acx4.is_minimal_fan(after)
            assert acx4.winding_number(after) == acx4.winding_number(before)
        # replay re-applies every move through the validating rewrites
        assert acx4.replay(fam, log.moves) == final
        if seed % 50 == 0:
            _recheck_norm_profile(fam, log)


def _recheck_norm_profile(fam, log):
    # independently regroup the log into iterations and re-derive the
    # strictly decreasing multiset the engine asserts internally
    moves = list(log.moves)
    state = fam
    profile = sorted((acx4.norm_sq(v) for f in state.fans for v in f.vectors),
                     reverse=True)
    p = 0
    while p < len(moves):
        if moves[p].kind == BLOW_DOWN:
            group = 1
        elif moves[p + 1].kind == BLOW_DOWN:
            group = 2
        else:
            group = 3
        for move in moves[p : p + group]:
            state = acx4.replay(state, [move])
        p += group
        new_profile = sorted((acx4.norm_sq(v) for f in state.fans
                              for v in f.vectors), reverse=True)
        assert new_profile < profile
        profile = new_profile
    assert state == log.final


def test_criterion_05_shorter_neighbor_exhaustive():
    """Criterion 5: shorter-neighbor choice, exhaustive box [-50, 50].

    Over every basis pair with strictly ordered norms the chosen sign
    strictly shortens the longer vector.  Zero failures.
    """
    checked = 0
    for v1, v2 in oracles.basis_pairs_in_box(50):
        if acx4.norm_sq(v1) < acx4.norm_sq(v2):
            s = acx4.reduction_choice(v1, v2)
            moved = (v2[0] + s * v1[0], v2[1] + s * v1[1])
            assert acx4.norm_sq(moved) < acx4.norm_sq(v2), (v1, v2)
            checked += 1
    assert checked > 20_000


def test_criterion_06_small_fan_normal_forms_exhaustive():
    """Criterion 6: small-fan normal forms, exhaustive box [-5, 5].

    Every admissible 3- or 4-vector fan enumerated by brute force fits
    its normal form exactly.  Zero failures.
    """
    count3 = 0
    for vs in oracles.enumerate_admissible_fans(3, 5):
        fan = acx4.validate_multifan(vs)
        v1, v2 = acx4.recognize_three(fan)
        assert (v1, v2) == (vs[0], vs[1])
        assert vs[2] == (-v1[0] - v2[0], -v1[1] - v2[1])
        count3 += 1
    assert count3 > 400
    count4 = 0
    for vs in oracles.enumerate_admissible_fans(4, 5):
        fan = acx4.validate_multifan(vs)
        form = acx4.recognize_four(fan)
        w = [vs[(form.rotation + t) % 4] for t in range(4)]
        assert w[0] == form.v1 and w[1] == form.v2
        assert w[2] == (-form.v1[0] + form.a * form.v2[0],
                        -form.v1[1] + form.a * form.v2[1])
        assert w[3] == (-form.v2[0], -form.v2[1])
        count4 += 1
    assert count4 > 5000


def test_criterion_07_count_laws():
    """Criterion 7: count-triple laws on 10^3 random families.

    +1 middle shift per blow-up, symmetric ends, leading count equals
    the winding sum, total equals the fixed-point count (>= 3),
    direction independence across five choices, and exact winding
    equals the floating-point angle-sum oracle.
    """
    rng = random.Random(0xC7)
    for _ in range(1000):
        components = rng.randint(1, 3)
        signs = [rng.choice((1, -1)) for _ in range(components)]
        fam = acx4.gen_random_family(rng.randrange(1 << 30), components,
                                     rng.randint(0, 12), signs)
        counts = {acx4.kosniowski_counts(fam, xi)
                  for xi in oracles.five_directions(fam)}
        assert len(counts) == 1
        (a0, a1, a2), = counts
        assert a0 == a2
        windings = [acx4.winding_number(fan) for fan in fam.fans]
        assert a0 == sum(windings)
        for fan, w in zip(fam.fans, windings):
            assert w == oracles.angle_sum_winding(fan.vectors)
        assert a0 + a1 + a2 == acx4.fixed_point_count(fam) >= 3
        j = rng.randrange(len(fam.fans))
        i = rng.randrange(len(fam.fans[j].vectors))
        after = acx4.chi_y_report(acx4.blow_up_in_family(fam, j, i))
        assert (after.a0, after.a1, after.a2) == (a0, a1 + 1, a2)


def test_criterion_08_realizers():
    """Criterion 8: realizers over the whole 20x20 grid.

    The count realizer reports (n0, n1, n0); the Chern realizer
    round-trips every realizable pair and rejects (9, 4).
    """
    for n0 in range(1, 21):
        for n1 in range(1, 21):
            r = acx4.chi_y_report(acx4.realize_chi_y(n0, n1))
            assert (r.a0, r.a1, r.a2) == (n0, n1, n0)
            c1_sq, c2 = 10 * n0 - n1, 2 * n0 + n1
            back = acx4.chi_y_report(acx4.realize_chern(c1_sq, c2))
            assert (back.c1_sq, back.c2) == (c1_sq, c2)
            assert (back.a0, back.a1) == (n0, n1)
    with pytest.raises(NotRealizable):
        acx4.realize_chern(9, 4)


def test_criterion_09_correspondence():
    """Criterion 9: graph/family correspondence on 10^3 random inputs.

    Round-trips hold exactly for stored graphs and up to renaming and
    canonical form for scrambled ones; blow-ups commute with the
    correspondence.
    """
    from acx4.torusgraph import normalized_components

    rng = random.Random(0xC9)
    for _ in range(1000):
        fam = acx4.gen_random_family(rng.randrange(1 << 30),
                                     rng.randint(1, 3), rng.randint(0, 8))
        assert acx4.graph_to_family(acx4.family_to_graph(fam)) == fam
        g = oracles.scramble_graph(acx4.family_to_graph(fam), rng)
        back = acx4.graph_to_family(g)
        key = sorted(acx4.canonical_form(f, acx4.ROTATIONS_AND_REVERSAL).vectors
                     for f in back.fans)
        want = sorted(acx4.canonical_form(f, acx4.ROTATIONS_AND_REVERSAL).vectors
                      for f in fam.fans)
        assert key == want
        cycles = normalized_components(g)
        c = rng.randrange(len(cycles))
        t = rng.randrange(len(cycles[c]))
        vertex = cycles[c][t][1].src
        k = len(cycles[c])
        graph_side = acx4.graph_to_family(acx4.blow_up_graph(g, vertex))
        fan_side = acx4.blow_up_in_family(back, c, (t - 1) % k)
        for a, b in zip(graph_side.fans, fan_side.fans):
            assert acx4.fans_equivalent(a, b)


def test_criterion_10_complex_normalization():
    """Criterion 10: complex normalization on 10^3 fans of winding 1-3.

    Succeeds exactly on winding one, always reaching a 4-vector unit
    fan; the 3-point fan finishes in exactly 3 moves.
    """
    rng = random.Random(0xCA)
    for _ in range(1000):
        winding = rng.randint(1, 3)
        fan = oracles.random_winding_fan(rng.randrange(1 << 30), winding)
        if winding == 1:
            log, model = acx4.normalize_complex(fan)
            final = log.final.fans[0]
            assert len(final.vectors) == 4
            assert acx4.is_minimal_fan(final)
            pattern = ((1, 0), (0, model.a), (-1, 0), (0, -model.a))
            assert all(final.vectors[(model.rotation + t) % 4] == pattern[t]
                       for t in range(4))
        else:
            with pytest.raises(NotToddOne):
                acx4.normalize_complex(fan)
    log, _ = acx4.normalize_complex(CP2)
    assert len(log.moves) == 3
