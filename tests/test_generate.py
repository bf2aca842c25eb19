import random

import pytest

import acx4
import oracles
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


def test_draws_match_the_randrange_generator():
    # getrandbits of n's bit length until below n is randrange(n), n >= 1
    rng = random.Random(31)
    seeds = [rng.randrange(1 << 40) for _ in range(200)]
    seeds += [str(rng.getrandbits(64)) for _ in range(150)]
    seeds += [rng.randrange(10**99, 10**100) for _ in range(150)]
    for seed in seeds:
        components = rng.randint(1, 4)
        signs = rng.choice([None, [rng.choice([1, -1]) for _ in range(components)]])
        args = (seed, components, rng.randint(0, 300), signs)
        assert acx4.gen_random_family(*args) == oracles.reference_gen_random_family(*args)
    # fan counts on both sides of each power of two, where n.bit_length() steps
    for components in range(1, 17):
        args = (components, components, 40, [(-1) ** c for c in range(components)])
        assert acx4.gen_random_family(*args) == oracles.reference_gen_random_family(*args)


@pytest.mark.parametrize("args", [
    (1, "2", 0), (1, 1, 2.5), (1, True, 0), (1, 0, 1), (1, 1, -1), (1, 2, 1, [1]),
    (1, 1, 0, [True]), (1, 1, 0, [1.0]), (1, 1, 0, 5), (1, 1, 0, []),
    (0, 1, 0, [1, 2]), ([1], 1, 1), ({}, 2, 0),
])
def test_argument_errors_match_the_randrange_generator(args):
    with pytest.raises(Exception) as got:
        acx4.gen_random_family(*args)
    with pytest.raises(Exception) as want:
        oracles.reference_gen_random_family(*args)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
