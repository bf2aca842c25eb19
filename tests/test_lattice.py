import random

import pytest
from hypothesis import assume, given, strategies as st

import oracles
from acx4 import lattice
from acx4.errors import InternalInconsistency, PreconditionViolated


def test_det2_examples():
    assert lattice.det2((1, 0), (0, 1)) == 1
    assert lattice.det2((2, 1), (-3, -1)) == 1
    assert lattice.det2((1, 0), (2, 0)) == 0


def test_is_basis_examples():
    assert lattice.is_basis((1, 0), (0, 1))
    assert not lattice.is_basis((1, 0), (1, 2))
    assert lattice.is_basis((2, 1), (1, 1))


def test_norm_sq_examples():
    assert lattice.norm_sq((1, 0)) == 1
    assert lattice.norm_sq((-1, 1)) == 2
    assert lattice.norm_sq((-3, -1)) == 10


def test_norm_sq_exact_on_huge_coordinates():
    n = 10 ** 40
    assert lattice.norm_sq((n, 1)) == n * n + 1


ints = st.integers(min_value=-1000, max_value=1000)


@given(ints, ints, ints, ints)
def test_det2_antisymmetric(a, b, c, d):
    assert lattice.det2((a, b), (c, d)) == -lattice.det2((c, d), (a, b))


def test_reduction_choice_examples():
    assert lattice.reduction_choice((0, 1), (1, 3)) == -1  # 5 < 10, +1 gives 17
    assert lattice.reduction_choice((1, 1), (1, 2)) == -1  # |v2-v1|^2 = 1 < 5
    assert lattice.reduction_choice((1, 0), (-2, 1)) == 1  # |v2+v1|^2 = 2 < 5


def test_reduction_choice_preconditions():
    with pytest.raises(PreconditionViolated):
        lattice.reduction_choice((1, 0), (2, 0))  # not a basis
    with pytest.raises(PreconditionViolated):
        lattice.reduction_choice((1, 0), (1, 2))  # det 2: not a basis
    with pytest.raises(PreconditionViolated):
        lattice.reduction_choice((1, 0), (-1, 2))  # det 2: not a basis
    with pytest.raises(PreconditionViolated):
        lattice.reduction_choice((0, 1), (1, 0))  # norms not strictly ordered
    with pytest.raises(PreconditionViolated):
        lattice.reduction_choice((1, 2), (1, 0))  # wrong order


@st.composite
def basis_pair(draw):
    # rows of a product of shear matrices: determinant stays +-1
    m = ((1, 0), (0, 1))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        p = draw(st.integers(min_value=-6, max_value=6))
        if draw(st.booleans()):
            m = ((m[0][0] + p * m[1][0], m[0][1] + p * m[1][1]), m[1])
        else:
            m = (m[0], (m[1][0] + p * m[0][0], m[1][1] + p * m[0][1]))
    if draw(st.booleans()):
        m = (m[1], m[0])
    return m


@given(basis_pair())
def test_reduction_choice_postcondition(pair):
    v1, v2 = pair
    if lattice.norm_sq(v1) > lattice.norm_sq(v2):
        v1, v2 = v2, v1
    assume(lattice.norm_sq(v1) < lattice.norm_sq(v2))
    s = lattice.reduction_choice(v1, v2)
    moved = (v2[0] + s * v1[0], v2[1] + s * v1[1])
    assert lattice.norm_sq(moved) < lattice.norm_sq(v2)


def test_reduction_choice_small_box_sweep():
    # exhaustive over basis pairs with coordinates in [-12, 12]
    checked = 0
    for v1, v2 in oracles.basis_pairs_in_box(12):
        if lattice.norm_sq(v1) < lattice.norm_sq(v2):
            s = lattice.reduction_choice(v1, v2)
            moved = (v2[0] + s * v1[0], v2[1] + s * v1[1])
            assert lattice.norm_sq(moved) < lattice.norm_sq(v2)
            checked += 1
    assert checked > 1000


def test_generic_direction_clears_all_vectors():
    vs = [(1, 0), (-1, 1), (0, -1), (3, -1), (-2, 1)]
    xi = lattice.generic_direction(vs)
    assert all(lattice.dot(v, xi) != 0 for v in vs)
    assert xi[0] == 1 and xi[1] >= 1


def test_generic_direction_matches_the_scan():
    # the one-pass ruled-out set against the candidate-by-candidate scan, on
    # sets with axis vectors, negative divisors, repeats and the zero vector
    rng = random.Random(0x6D)
    zeros = 0
    for _ in range(2000):
        vs = [(rng.randint(-30, 30), rng.choice([-3, -2, -1, 1, 2, 3]))
              for _ in range(rng.randint(0, 12))]
        # (x, y) with y | x rules out N = -x/y, often a small positive N
        vs += [(-n * y, y) for n, y in ((rng.randint(1, 8), rng.choice([-2, -1, 1, 2]))
                                        for _ in range(rng.randint(0, 8)))]
        vs += [(0, rng.randint(-5, 5) or 1), (rng.randint(-5, 5) or 1, 0)][:rng.randint(0, 2)]
        if rng.random() < 0.05:
            vs.append((0, 0))
        rng.shuffle(vs)
        try:
            want = oracles.reference_generic_direction(vs)
        except InternalInconsistency as exc:
            with pytest.raises(InternalInconsistency, match=str(exc)):
                lattice.generic_direction(vs)
            zeros += 1
            continue
        assert lattice.generic_direction(vs) == want
        assert lattice.generic_direction(tuple(vs)) == want
    assert zeros > 50
