import random

import pytest

import oracles
import acx4
from acx4.errors import NonPositiveInput, NotABasis, NotRealizable, PreconditionViolated

CP2 = acx4.make_cp2_fan((1, 0), (-1, 1))


def family_of(*fans):
    return acx4.MultiFanFamily(tuple(fans))


def sigma(n):
    return acx4.make_hirzebruch_fan((1, 0), (0, 1), n)


def test_fixed_point_data_golden():
    data = acx4.fixed_point_data(family_of(CP2))
    assert [set(d.weights) for d in data] == [
        {(1, 0), (0, 1)}, {(-1, 0), (-1, 1)}, {(1, -1), (0, -1)}]
    for n in range(0, 4):
        data = acx4.fixed_point_data(family_of(sigma(n)))
        assert [set(d.weights) for d in data] == [
            {(1, 0), (0, 1)}, {(0, 1), (-1, 0)},
            {(-1, n), (0, -1)}, {(0, -1), (1, -n)}]
    rng = random.Random(3)
    for _ in range(50):
        fam = acx4.gen_random_family(rng.randrange(1 << 30),
                                     rng.randint(1, 2), rng.randint(0, 8))
        for d in acx4.fixed_point_data(fam):
            assert acx4.is_basis(*d.weights)


def test_plumbing_description_golden():
    pieces = acx4.plumbing_description(CP2)
    assert [p.euler_number for p in pieces] == [1, 1, 1]
    assert pieces[0].sphere_weights == ((1, 0), (0, 1))
    minimal = acx4.make_minimal_family([1]).fans[0]
    assert [p.euler_number for p in acx4.plumbing_description(minimal)] == [0] * 4
    for n in range(0, 5):
        assert [p.euler_number for p in acx4.plumbing_description(sigma(n))] == \
            [0, -n, 0, n]
    for p in acx4.plumbing_description(sigma(3)):
        assert acx4.is_basis(*p.sphere_weights)


def test_recognize_three_golden():
    assert acx4.recognize_three(CP2) == ((1, 0), (-1, 1))
    fan = acx4.validate_multifan([(2, 1), (1, 1), (-3, -2)])
    assert acx4.recognize_three(fan) == ((2, 1), (1, 1))
    with pytest.raises(PreconditionViolated):
        acx4.recognize_three(sigma(1))


def test_recognize_three_exhaustive_small_box():
    count = 0
    for fan_vectors in oracles.enumerate_admissible_fans(3, 3):
        v1, v2, v3 = fan_vectors
        fan = acx4.validate_multifan(fan_vectors)  # validator agrees
        assert v3 == (-v1[0] - v2[0], -v1[1] - v2[1])
        assert acx4.recognize_three(fan) == (v1, v2)
        # every 3-point sphere is a +1 sphere
        assert [p.euler_number for p in acx4.plumbing_description(fan)] == [1, 1, 1]
        count += 1
    assert count > 50


def test_recognize_four_golden():
    for n in range(0, 6):
        form = acx4.recognize_four(sigma(n))
        assert form == acx4.HirzebruchForm((1, 0), (0, 1), n, 0)
    rotated = acx4.validate_multifan([(0, 1), (-1, 0), (0, -1), (1, 0)])
    form = acx4.recognize_four(rotated)
    assert form.a == 0
    with pytest.raises(PreconditionViolated):
        acx4.recognize_four(CP2)


def test_recognize_four_round_trip():
    rng = random.Random(17)
    for _ in range(100):
        while True:
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            c, d = rng.randint(-5, 5), rng.randint(-5, 5)
            if abs(a * d - b * c) == 1:
                break
        n = rng.randint(-6, 6)
        form = acx4.recognize_four(acx4.make_hirzebruch_fan((a, b), (c, d), n))
        assert form.a == n and form.rotation == 0
        assert (form.v1, form.v2) == ((a, b), (c, d))


def test_recognize_four_exhaustive_small_box():
    count = 0
    for fan_vectors in oracles.enumerate_admissible_fans(4, 3):
        fan = acx4.validate_multifan(fan_vectors)
        form = acx4.recognize_four(fan)
        vs = fan.vectors
        w = [vs[(form.rotation + t) % 4] for t in range(4)]
        assert w[0] == form.v1 and w[1] == form.v2
        assert w[2] == (-form.v1[0] + form.a * form.v2[0],
                        -form.v1[1] + form.a * form.v2[1])
        assert w[3] == (-form.v2[0], -form.v2[1])
        count += 1
    assert count > 100


def test_recognize_four_matches_reference_on_the_5_box():
    count = 0
    for fan_vectors in oracles.enumerate_admissible_fans(4, 5):
        fan = acx4.validate_multifan(fan_vectors)
        assert acx4.recognize_four(fan) == oracles.reference_recognize_four(fan)
        count += 1
    assert count > 6000


def test_make_cp2_fan():
    assert acx4.make_cp2_fan((1, 0), (-1, 1)).vectors == ((1, 0), (-1, 1), (0, -1))
    assert acx4.make_cp2_fan((1, 0), (0, 1)).vectors == ((1, 0), (0, 1), (-1, -1))
    assert acx4.make_cp2_fan((1, 0), (2, 1)).vectors == ((1, 0), (2, 1), (-3, -1))
    with pytest.raises(NotABasis):
        acx4.make_cp2_fan((1, 0), (2, 0))


def test_make_hirzebruch_fan():
    assert sigma(2).vectors == ((1, 0), (0, 1), (-1, 2), (0, -1))
    minimal = acx4.make_minimal_family([1]).fans[0]
    assert sigma(0) == minimal
    with pytest.raises(NotABasis):
        acx4.make_hirzebruch_fan((1, 0), (3, 0), 1)


def test_make_minimal_family():
    fam = acx4.make_minimal_family([1])
    assert fam.fans[0].vectors == ((1, 0), (0, 1), (-1, 0), (0, -1))
    cw = acx4.make_minimal_family([-1])
    assert acx4.orientation(cw.fans[0]) == acx4.CW
    assert acx4.todd_genus(acx4.make_minimal_family([1, 1])) == 2
    with pytest.raises(PreconditionViolated):
        acx4.make_minimal_family([])
    with pytest.raises(PreconditionViolated):
        acx4.make_minimal_family([2])


def test_make_todd_fan():
    assert acx4.make_todd_fan(1).vectors == ((1, 0), (2, 1), (-3, -1))
    assert acx4.make_todd_fan(2).vectors == ((1, 0), (2, 1), (-3, -1), (4, 1), (-5, -1))
    for n0 in range(1, 9):
        fan = acx4.make_todd_fan(n0)
        assert len(fan.vectors) == 2 * n0 + 1
        assert acx4.winding_number(fan) == n0
        assert oracles.angle_sum_winding(fan.vectors) == n0
        k = len(fan.vectors)
        first = acx4.fixed_point_data(acx4.MultiFanFamily((fan,)))[0]
        assert set(first.weights) == {(k, 1), (1, 0)}
    with pytest.raises(NonPositiveInput):
        acx4.make_todd_fan(0)


def test_realize_chi_y_golden():
    assert acx4.realize_chi_y(1, 1).fans[0] == acx4.make_todd_fan(1)
    r = acx4.chi_y_report(acx4.realize_chi_y(1, 2))
    assert (r.a0, r.a1, r.a2) == (1, 2, 1)
    assert len(acx4.realize_chi_y(1, 2).fans[0].vectors) == 4
    fam = acx4.realize_chi_y(3, 5)
    assert acx4.fixed_point_count(fam) == 11
    r = acx4.chi_y_report(fam)
    assert (r.a0, r.a1, r.a2) == (3, 5, 3)
    with pytest.raises(NonPositiveInput):
        acx4.realize_chi_y(0, 1)
    with pytest.raises(NonPositiveInput):
        acx4.realize_chi_y(1, 0)


def test_realize_chern_golden():
    r = acx4.chi_y_report(acx4.realize_chern(9, 3))
    assert (r.c1_sq, r.c2) == (9, 3) and r.a0 == 1 and r.a1 == 1
    r = acx4.chi_y_report(acx4.realize_chern(8, 4))
    assert (r.c1_sq, r.c2) == (8, 4) and (r.a0, r.a1) == (1, 2)
    with pytest.raises(NotRealizable) as exc:
        acx4.realize_chern(9, 4)
    assert exc.value.n0 * 12 == 13
    with pytest.raises(NotRealizable):
        acx4.realize_chern(12, 0)  # n0 = 1, n1 = -2
