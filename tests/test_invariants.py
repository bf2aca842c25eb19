import random

import pytest

import oracles
import acx4
from acx4.errors import DomainError, PreconditionViolated


def family_of(*fans):
    return acx4.MultiFanFamily(tuple(fans))


CP2 = acx4.make_cp2_fan((1, 0), (-1, 1))


def sigma(n):
    return acx4.make_hirzebruch_fan((1, 0), (0, 1), n)


def test_choose_generic_direction_golden():
    assert acx4.choose_generic_direction(family_of(CP2)) == (1, 2)
    minimal = acx4.make_minimal_family([1])
    assert acx4.choose_generic_direction(minimal) == (1, 1)
    assert acx4.choose_generic_direction(family_of(sigma(1))) == (1, 2)
    assert acx4.choose_generic_direction(family_of(sigma(0))) == (1, 1)
    assert acx4.choose_generic_direction(family_of(sigma(2))) == (1, 1)


def test_choose_generic_direction_clears_everything():
    rng = random.Random(6060)
    for _ in range(200):
        fam = acx4.gen_random_family(rng.randrange(1 << 30),
                                     rng.randint(1, 3), rng.randint(0, 10))
        xi = acx4.choose_generic_direction(fam)
        assert all(v[0] * xi[0] + v[1] * xi[1] != 0
                   for fan in fam.fans for v in fan.vectors)


def test_kosniowski_counts_golden():
    fam = family_of(CP2)
    xi = acx4.choose_generic_direction(fam)
    assert acx4.kosniowski_counts(fam, xi) == (1, 1, 1)
    for n in range(0, 11):
        fam = family_of(sigma(n))
        xi = acx4.choose_generic_direction(fam)
        assert acx4.kosniowski_counts(fam, xi) == (1, 2, 1)
    two_minimal = acx4.make_minimal_family([1, 1])
    xi = acx4.choose_generic_direction(two_minimal)
    assert acx4.kosniowski_counts(two_minimal, xi) == (2, 4, 2)


def test_kosniowski_rejects_orthogonal_direction():
    fam = family_of(CP2)
    with pytest.raises(PreconditionViolated):
        acx4.kosniowski_counts(fam, (1, 1))
    # a direction that is not an integer pair is refused by name, not
    # indexed into or counted in float arithmetic; None is winding_number's
    # default, so only kosniowski_counts refuses it
    bad = [((1.5, 2), "must have integer entries"),
           ((1, True), "must have integer entries"),
           ((1,), "is not a pair"), ((1, 2, 3), "is not a pair"),
           (5, "is not a pair")]
    for xi, why in bad + [(None, "is not a pair")]:
        with pytest.raises(DomainError) as exc:
            acx4.kosniowski_counts(fam, xi)
        assert str(exc.value) == f"direction {xi!r} {why}"
    for xi, why in bad:
        with pytest.raises(DomainError) as exc:
            acx4.winding_number(CP2, xi)
        assert str(exc.value) == f"direction {xi!r} {why}"


def test_todd_genus_golden():
    assert acx4.todd_genus(family_of(CP2)) == 1
    assert acx4.todd_genus(family_of(acx4.make_todd_fan(3))) == 3
    assert acx4.todd_genus(acx4.make_minimal_family([1, 1])) == 2


def test_fixed_point_count_golden():
    assert acx4.fixed_point_count(family_of(CP2)) == 3
    assert acx4.fixed_point_count(family_of(sigma(4))) == 4
    assert acx4.fixed_point_count(family_of(CP2, sigma(0))) == 7


def test_chi_y_report_golden():
    r = acx4.chi_y_report(family_of(CP2))
    assert (r.a0, r.a1, r.a2) == (1, 1, 1)
    assert (r.euler, r.todd, r.signature) == (3, 1, 1)
    assert (r.c1_sq, r.c2) == (9, 3)
    for n in range(0, 11):
        r = acx4.chi_y_report(family_of(sigma(n)))
        assert (r.a0, r.a1, r.a2) == (1, 2, 1)
        assert (r.euler, r.signature, r.c1_sq, r.c2) == (4, 0, 8, 4)


def test_blow_up_shifts_middle_count_only():
    rng = random.Random(404)
    for _ in range(150):
        components = rng.randint(1, 3)
        signs = [rng.choice((1, -1)) for _ in range(components)]
        fam = acx4.gen_random_family(rng.randrange(1 << 30),
                                     components, rng.randint(0, 8), signs)
        before = acx4.chi_y_report(fam)
        j = rng.randrange(len(fam.fans))
        i = rng.randrange(len(fam.fans[j].vectors))
        after = acx4.chi_y_report(acx4.blow_up_in_family(fam, j, i))
        assert after.a1 == before.a1 + 1
        assert (after.a0, after.a2) == (before.a0, before.a2)
        assert after.todd == before.todd


def test_counts_direction_invariant_and_consistent():
    rng = random.Random(808)
    for _ in range(200):
        components = rng.randint(1, 3)
        signs = [rng.choice((1, -1)) for _ in range(components)]
        fam = acx4.gen_random_family(rng.randrange(1 << 30),
                                     components, rng.randint(0, 10), signs)
        counts = {acx4.kosniowski_counts(fam, xi)
                  for xi in oracles.five_directions(fam)}
        assert len(counts) == 1
        (a0, a1, a2), = counts
        assert a0 == a2
        assert a0 == acx4.todd_genus(fam)
        assert a0 + a1 + a2 == acx4.fixed_point_count(fam) >= 3


def test_chern_inversion_recovers_counts():
    rng = random.Random(909)
    for _ in range(100):
        fam = acx4.gen_random_family(rng.randrange(1 << 30),
                                     rng.randint(1, 3), rng.randint(0, 10))
        r = acx4.chi_y_report(fam)
        assert (r.c1_sq + r.c2) // 12 == r.a0 and (r.c1_sq + r.c2) % 12 == 0
        assert (5 * r.c2 - r.c1_sq) // 6 == r.a1 and (5 * r.c2 - r.c1_sq) % 6 == 0
