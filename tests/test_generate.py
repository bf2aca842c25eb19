import pytest

import acx4
from acx4.errors import DomainError, PreconditionViolated


def test_zero_blowups_is_the_unit_family():
    assert acx4.gen_random_family(1, 1, 0) == acx4.make_minimal_family([1])
    assert acx4.gen_random_family(9, 3, 0) == acx4.make_minimal_family([1, 1, 1])


def test_same_seed_reproduces_exactly():
    a = acx4.gen_random_family(123, 2, 20)
    b = acx4.gen_random_family(123, 2, 20)
    assert a == b


def test_winding_stays_one_per_component():
    for seed in range(30):
        fam = acx4.gen_random_family(seed, 3, 15, [1, -1, 1])
        assert acx4.todd_genus(fam) == 3
        assert all(acx4.winding_number(f) == 1 for f in fam.fans)


def test_bad_parameters():
    with pytest.raises(DomainError):
        acx4.gen_random_family(0, 0, 1)
    with pytest.raises(DomainError):
        acx4.gen_random_family(0, 1, -1)
    with pytest.raises(DomainError):
        acx4.gen_random_family(0, 2, 1, [1])


@pytest.mark.parametrize("args, message", [
    ((1, "2", 0), "components must be an integer, got '2'"),
    ((1, 1, 2.5), "blowups must be an integer, got 2.5"),
    ((1, True, 0), "components must be an integer, got True"),
    ((1, 1, 0, [True]), "sign must be an integer, got True"),
    ((1, 1, 0, [1.0]), "sign must be an integer, got 1.0"),
], ids=["components-str", "blowups-float", "components-bool", "sign-bool",
        "sign-float"])
def test_scalar_arguments_must_be_integers(args, message):
    with pytest.raises(DomainError) as exc:
        acx4.gen_random_family(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize("args, message", [
    ((1, 1, 0, 5), "signs must be a nonempty list of +1/-1"),
    ((1, 1, 0, []), "signs must be a nonempty list of +1/-1"),
    # the signs are read before their count is compared with components
    ((0, 1, 0, [1, 2]), "sign must be +1 or -1, got 2"),
], ids=["not-iterable", "empty", "wrong-length-and-bad-sign"])
def test_signs_are_read_once_by_the_minimal_family(args, message):
    with pytest.raises(PreconditionViolated) as exc:
        acx4.gen_random_family(*args)
    assert str(exc.value) == message
