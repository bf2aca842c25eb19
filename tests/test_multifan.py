import itertools
import random

import pytest
from hypothesis import given, strategies as st

import oracles
import acx4
from acx4 import multifan
from acx4.errors import (
    DomainError,
    IndexOutOfRange,
    InternalInconsistency,
    NotABasis,
    NotBlowDownable,
    OrientationFlip,
    PreconditionViolated,
    TooShort,
    ZeroVector,
)

CP2 = [(1, 0), (-1, 1), (0, -1)]
MINIMAL = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def sigma(n):
    return acx4.make_hirzebruch_fan((1, 0), (0, 1), n)


def test_validate_accepts_golden_fans():
    assert acx4.validate_multifan(CP2).vectors == tuple(CP2)
    assert acx4.validate_multifan(MINIMAL).vectors == tuple(MINIMAL)


def test_validate_rejects_with_named_index():
    with pytest.raises(NotABasis) as exc:
        acx4.validate_multifan([(1, 0), (1, 2), (0, -1)])
    assert exc.value.index == 1
    with pytest.raises(TooShort):
        acx4.validate_multifan([(1, 0), (0, 1)])
    with pytest.raises(ZeroVector) as exc:
        acx4.validate_multifan([(1, 0), (0, 0), (0, -1)])
    assert exc.value.index == 1
    with pytest.raises(OrientationFlip) as exc:
        acx4.validate_multifan([(1, 0), (0, 1), (-1, 1)])
    assert exc.value.index == 1
    with pytest.raises(DomainError):
        acx4.validate_multifan([(1, 0), "xy", (0, -1)])


def test_validator_agrees_with_recurrence_oracle():
    rng = random.Random(20250808)
    for _ in range(10_000):
        if rng.random() < 0.5:
            k = rng.randint(2, 7)
            raw = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(k)]
        else:
            fam = acx4.gen_random_family(rng.randrange(1 << 30), 1, rng.randint(0, 6))
            raw = list(fam.fans[0].vectors)
            if rng.random() < 0.4:
                raw[rng.randrange(len(raw))] = (rng.randint(-4, 4), rng.randint(-4, 4))
        expected = oracles.recurrence_admissible(raw)
        try:
            acx4.validate_multifan(raw)
            got = True
        except DomainError:
            got = False
        assert got == expected, raw


def test_validate_rejects_bool_entries():
    # bool is an int subclass; True must not pass for the coordinate 1
    for bad in [(True, False), (1, True), (False, -1)]:
        with pytest.raises(DomainError, match="vector at index 0 must have integer entries"):
            acx4.validate_multifan([bad, (0, 1), (-1, 0), (0, -1)])
    with pytest.raises(DomainError, match="vector at index 3 must have integer entries"):
        acx4.validate_multifan([(1, 0), (0, 1), (-1, 0), (0, False)])

    class Coordinate(int):
        pass

    fan = acx4.validate_multifan([(Coordinate(1), 0), (0, 1), (-1, 0), (0, -1)])
    assert fan.vectors == tuple(MINIMAL)


def test_validate_rejects_vectors_that_are_not_pairs():
    with pytest.raises(DomainError, match="vector at index 2 is not a pair"):
        acx4.validate_multifan([(1, 0), (0, 1), (-1, 0, 5), (0, -1)])


def test_orientation():
    assert acx4.orientation(acx4.validate_multifan(CP2)) == acx4.CCW
    reversed_cp2 = acx4.validate_multifan([(0, -1), (-1, 1), (1, 0)])
    assert acx4.orientation(reversed_cp2) == acx4.CW
    assert acx4.orientation(acx4.validate_multifan(MINIMAL)) == acx4.CCW


def test_self_intersections_golden():
    assert acx4.self_intersections(acx4.validate_multifan(CP2)) == [1, 1, 1]
    assert acx4.self_intersections(acx4.validate_multifan(MINIMAL)) == [0, 0, 0, 0]
    for n in range(-3, 6):
        assert acx4.self_intersections(sigma(n)) == [0, -n, 0, n]


def test_self_intersections_satisfy_recurrence():
    rng = random.Random(7)
    for _ in range(300):
        fam = acx4.gen_random_family(rng.randrange(1 << 30), 1, rng.randint(0, 12))
        fan = fam.fans[0]
        vs = fan.vectors
        k = len(vs)
        a = acx4.self_intersections(fan)
        for i in range(k):
            nxt = vs[(i + 1) % k]
            assert nxt == (-a[i] * vs[i][0] - vs[i - 1][0],
                           -a[i] * vs[i][1] - vs[i - 1][1])


def test_blow_up_golden():
    cp2 = acx4.validate_multifan(CP2)
    assert acx4.blow_up_fan(cp2, 0) == sigma(1)
    assert acx4.blow_up_fan(sigma(2), 1).vectors == (
        (1, 0), (0, 1), (-1, 3), (-1, 2), (0, -1))
    minimal = acx4.validate_multifan(MINIMAL)
    assert acx4.blow_up_fan(minimal, 3).vectors == (
        (1, 0), (0, 1), (-1, 0), (0, -1), (1, -1))
    with pytest.raises(IndexOutOfRange):
        acx4.blow_up_fan(cp2, 3)


@pytest.mark.parametrize("rewrite, message", [
    (lambda fam: acx4.blow_up_in_family(fam, 0, 1.5),
     "position must be an integer, got 1.5"),
    (lambda fam: acx4.blow_up_in_family(fam, 0.0, 1),
     "fan_index must be an integer, got 0.0"),
    (lambda fam: acx4.blow_up_fan(fam.fans[0], True),
     "position must be an integer, got True"),
], ids=["position-float", "fan-index-float", "position-bool"])
def test_rewrite_indices_must_be_integers(rewrite, message):
    with pytest.raises(DomainError) as exc:
        rewrite(acx4.make_minimal_family([1]))
    assert str(exc.value) == message


def test_blow_up_preserves_orientation_and_winding():
    rng = random.Random(99)
    for _ in range(200):
        fam = acx4.gen_random_family(rng.randrange(1 << 30), 1, rng.randint(0, 10),
                                     [rng.choice((1, -1))])
        fan = fam.fans[0]
        i = rng.randrange(len(fan.vectors))
        up = acx4.blow_up_fan(fan, i)
        assert acx4.orientation(up) == acx4.orientation(fan)
        assert acx4.winding_number(up) == acx4.winding_number(fan)


def test_kernel_edits_the_list_in_place():
    vs = list(MINIMAL)
    assert acx4.blow_up_inplace(vs, 3) == (1, -1)
    assert vs == MINIMAL + [(1, -1)]
    assert acx4.blow_down_inplace(vs, 4) == (1, -1)
    assert vs == MINIMAL
    with pytest.raises(IndexOutOfRange):
        acx4.blow_up_inplace(vs, 4)
    with pytest.raises(NotBlowDownable) as exc:
        acx4.blow_down_inplace(vs, 2)
    assert exc.value.where == 2
    assert vs == MINIMAL


def test_kernel_checks_the_determinants_it_touches():
    # (1, 0), (1, 2) has determinant 2: the pair is not a basis, which only
    # a list that skipped validation can hold
    broken = [(1, 0), (1, 2), (0, -1), (-1, 0)]
    with pytest.raises(InternalInconsistency):
        acx4.blow_up_inplace(broken, 0)
    broken = [(1, 0), (2, 2), (1, 2), (0, -1)]
    with pytest.raises(InternalInconsistency):
        acx4.blow_down_inplace(broken, 1)
    assert broken == [(1, 0), (2, 2), (1, 2), (0, -1)]


def test_blow_down_golden():
    assert acx4.blow_down_fan(sigma(1), 1) == acx4.validate_multifan(CP2)
    mid = acx4.validate_multifan([(1, 0), (0, 1), (-1, 3), (-1, 2), (0, -1)])
    assert acx4.blow_down_fan(mid, 3) == sigma(3)
    minimal = acx4.validate_multifan(MINIMAL)
    for i in range(4):
        with pytest.raises(NotBlowDownable):
            acx4.blow_down_fan(minimal, i)


def test_blow_up_blow_down_inverse():
    rng = random.Random(4242)
    for _ in range(200):
        fam = acx4.gen_random_family(rng.randrange(1 << 30), 1, rng.randint(0, 10))
        fan = fam.fans[0]
        i = rng.randrange(len(fan.vectors))
        assert acx4.blow_down_fan(acx4.blow_up_fan(fan, i), i + 1) == fan
        downable = [j for j, a in enumerate(acx4.self_intersections(fan)) if a == -1]
        for j in downable:
            down = acx4.blow_down_fan(fan, j)
            back = acx4.blow_up_fan(down, (j - 1) % len(down.vectors))
            if j == 0:
                # the deleted head re-inserts at the end: same cycle, shifted
                assert back.vectors == fan.vectors[1:] + fan.vectors[:1]
            else:
                assert back == fan


def test_is_minimal_fan():
    assert acx4.is_minimal_fan(acx4.validate_multifan(MINIMAL))
    assert not acx4.is_minimal_fan(acx4.validate_multifan(CP2))
    double = acx4.validate_multifan(MINIMAL * 2)
    assert acx4.is_minimal_fan(double)


def test_winding_number_golden():
    assert acx4.winding_number(acx4.validate_multifan(MINIMAL)) == 1
    assert acx4.winding_number(acx4.validate_multifan([(1, 0), (2, 1), (-3, -1)])) == 1
    assert acx4.winding_number(acx4.validate_multifan(CP2)) == 1
    assert acx4.winding_number(acx4.validate_multifan(MINIMAL * 3)) == 3
    for n0 in range(1, 8):
        assert acx4.winding_number(acx4.make_todd_fan(n0)) == n0


def test_winding_number_refuses_a_direction_orthogonal_to_a_vector():
    fan = acx4.validate_multifan([(1, 0), (0, 1), (-1, -1)])
    with pytest.raises(PreconditionViolated) as exc:
        acx4.winding_number(fan, (0, 1))
    assert str(exc.value) == "direction (0, 1) is orthogonal to a fan vector"


def test_winding_number_direction_independent_and_matches_oracle():
    rng = random.Random(31337)
    for _ in range(1000):
        winding = rng.randint(1, 3)
        fan = oracles.random_winding_fan(rng.randrange(1 << 30), winding)
        got = acx4.winding_number(fan)
        assert got == winding
        assert got == oracles.angle_sum_winding(fan.vectors)
        fam = acx4.MultiFanFamily((fan,))
        for xi in oracles.five_directions(fam):
            assert acx4.winding_number(fan, xi) == got


def test_winding_positive_for_clockwise_fans():
    cw = acx4.validate_multifan([(1, 0), (0, -1), (-1, 0), (0, 1)])
    assert acx4.winding_number(cw) == 1
    assert oracles.angle_sum_winding(cw.vectors) == 1


def test_canonical_form_examples():
    fan = acx4.validate_multifan([(0, -1), (1, 0), (-1, 1)])
    assert acx4.canonical_form(fan).vectors == ((-1, 1), (0, -1), (1, 0))
    assert acx4.canonical_form(acx4.canonical_form(fan)) == acx4.canonical_form(fan)
    minimal = acx4.validate_multifan(MINIMAL)
    for mode in (acx4.ROTATIONS, acx4.ROTATIONS_AND_REVERSAL):
        canon = acx4.canonical_form(minimal, mode)
        assert canon.vectors[0] == (-1, 0)
        assert canon.vectors in [tuple(MINIMAL[i:] + MINIMAL[:i]) for i in range(4)]
    with pytest.raises(DomainError):
        acx4.canonical_form(minimal, "sideways")


def test_canonical_form_matches_reference_on_every_short_word():
    # unvalidated words over two and three letters hit every pattern of ties
    for letters, longest in ((((1, 0), (0, 1)), 10), (((1, 0), (0, 1), (1, 1)), 6)):
        for k in range(1, longest + 1):
            for word in itertools.product(letters, repeat=k):
                fan = acx4.MultiFan(word)
                for mode in (acx4.ROTATIONS, acx4.ROTATIONS_AND_REVERSAL):
                    assert acx4.canonical_form(fan, mode) == \
                        oracles.reference_canonical_form(fan, mode)


def test_fans_equivalent():
    cp2 = acx4.validate_multifan(CP2)
    rotated = acx4.validate_multifan([(-1, 1), (0, -1), (1, 0)])
    assert acx4.fans_equivalent(cp2, rotated)
    assert not acx4.fans_equivalent(cp2, sigma(1))
    # the backward traversal of the same sphere cycle: {-v3, -v2, -v1}
    negated_reversal = acx4.validate_multifan([(0, 1), (1, -1), (-1, 0)])
    assert not acx4.fans_equivalent(cp2, negated_reversal, acx4.ROTATIONS)
    assert acx4.fans_equivalent(cp2, negated_reversal, acx4.ROTATIONS_AND_REVERSAL)
    # entrywise negation is a different datum: not identified in either mode
    negated_only = acx4.validate_multifan([(-1, 0), (1, -1), (0, 1)])
    assert not acx4.fans_equivalent(cp2, negated_only, acx4.ROTATIONS)
    assert not acx4.fans_equivalent(cp2, negated_only, acx4.ROTATIONS_AND_REVERSAL)


def test_fans_equivalent_is_equivalence_relation():
    rng = random.Random(5150)
    for _ in range(100):
        base = acx4.gen_random_family(rng.randrange(1 << 30), 1, rng.randint(0, 6)).fans[0]
        k = len(base.vectors)
        rot = lambda fan, r: multifan.MultiFan(fan.vectors[r:] + fan.vectors[:r])
        f = base
        g = rot(base, rng.randrange(k))
        h = rot(base, rng.randrange(k))
        for mode in (acx4.ROTATIONS, acx4.ROTATIONS_AND_REVERSAL):
            assert acx4.fans_equivalent(f, f, mode)
            assert acx4.fans_equivalent(f, g, mode) == acx4.fans_equivalent(g, f, mode)
            if acx4.fans_equivalent(f, g, mode) and acx4.fans_equivalent(g, h, mode):
                assert acx4.fans_equivalent(f, h, mode)


def test_family_union():
    cp2 = acx4.MultiFanFamily((acx4.validate_multifan(CP2),))
    both = acx4.family_union(cp2, cp2)
    assert len(both.fans) == 2
    assert acx4.fixed_point_count(both) == 6
    minimal = acx4.make_minimal_family([1])
    assert acx4.todd_genus(acx4.family_union(minimal, minimal)) == 2
    union = acx4.family_union(cp2, acx4.MultiFanFamily((sigma(0),)))
    assert acx4.fixed_point_count(union) == 7


def test_validate_family_rejects_empty():
    with pytest.raises(DomainError):
        acx4.validate_family([])


@given(st.integers(min_value=0, max_value=2 ** 40), st.integers(0, 12))
def test_random_families_valid_and_revalidatable(seed, blowups):
    fam = acx4.gen_random_family(seed, 1, blowups)
    again = acx4.validate_family([f.vectors for f in fam.fans])
    assert again == fam
