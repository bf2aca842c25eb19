"""Named fan constructors, small-fixed-point normal forms, and realizers.

Every admissible 3-vector fan is {v1, v2, -v1-v2} and every admissible
4-vector fan rotates into {v1, v2, -v1 + a*v2, -v2}; the recognizers below
extract those parameters and treat a failure as a bug, since both shapes
are forced by admissibility alone.  The realizers run the other way: they
build a family with a prescribed count triple (n0, n1, n0) or prescribed
Chern numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lattice
from .errors import (
    InternalInconsistency,
    NonPositiveInput,
    NotRealizable,
    PreconditionViolated,
)
from .lattice import Vec
from .multifan import (
    MultiFan,
    MultiFanFamily,
    as_int,
    as_vec,
    blow_up_inplace,
    fixed_point_weights,
    is_int,
    self_intersections,
    validate_multifan,
)


@dataclass(frozen=True)
class PlumbingPiece:
    """One disk bundle of the plumbing recipe: Euler number a[i] over the
    sphere with weights (v[i], -v[i-1])."""

    euler_number: int
    sphere_weights: tuple[Vec, Vec]


@dataclass(frozen=True)
class HirzebruchForm:
    """A 4-vector fan rotated into {v1, v2, -v1 + a*v2, -v2}."""

    v1: Vec
    v2: Vec
    a: int
    rotation: int


def _positive(name, value):
    if not is_int(value) or value < 1:
        raise NonPositiveInput(name, value)


def plumbing_description(fan: MultiFan) -> list[PlumbingPiece]:
    """The disk-bundle list gluing into a manifold described by the fan."""
    return [PlumbingPiece(a, w) for a, w in
            zip(self_intersections(fan), fixed_point_weights(fan))]


def recognize_three(fan: MultiFan) -> tuple[Vec, Vec]:
    """Read (v1, v2) off a 3-vector fan; the third vector is always -v1-v2."""
    if len(fan.vectors) != 3:
        raise PreconditionViolated("recognize_three needs a 3-vector fan")
    v1, v2, v3 = fan.vectors
    if v3 != lattice.neg(lattice.add(v1, v2)):
        raise InternalInconsistency(f"third vector {v3} is not -(v1 + v2)")
    return v1, v2


def recognize_four(fan: MultiFan) -> HirzebruchForm:
    """Rotate a 4-vector fan into {v1, v2, -v1 + a*v2, -v2}.

    Scans offsets 0..3 and returns the first rotation whose fourth vector
    is the negative of its second; one always exists, and a = n identifies
    the standard 4-point model with parameter n.
    """
    if len(fan.vectors) != 4:
        raise PreconditionViolated("recognize_four needs a 4-vector fan")
    vs = fan.vectors
    for rotation in range(4):
        v2 = vs[(rotation + 1) % 4]
        if vs[(rotation + 3) % 4] == lattice.neg(v2):
            # the recurrence gives -v1 + a*v2 = -s*v2 - v1, s the number at v2
            a = -self_intersections(fan)[(rotation + 1) % 4]
            return HirzebruchForm(vs[rotation], v2, a, rotation)
    raise InternalInconsistency("no rotation matches the 4-point normal form")


def make_cp2_fan(v1: Vec, v2: Vec) -> MultiFan:
    """The 3-point fan {v1, v2, -v1-v2} of a linear projective-plane action."""
    v1, v2 = as_vec(v1, 0), as_vec(v2, 1)
    return validate_multifan([v1, v2, lattice.neg(lattice.add(v1, v2))])


def make_hirzebruch_fan(v1: Vec, v2: Vec, n: int) -> MultiFan:
    """The 4-point fan {v1, v2, -v1 + n*v2, -v2}; n = 0 gives the unit fan."""
    v1, v2 = as_vec(v1, 0), as_vec(v2, 1)
    as_int(n, "n")
    third = (-v1[0] + n * v2[0], -v1[1] + n * v2[1])
    return validate_multifan([v1, v2, third, lattice.neg(v2)])


def make_minimal_family(signs) -> MultiFanFamily:
    """One unit 4-fan {(1,0), (0,a), (-1,0), (0,-a)} per sign a in the list.

    +1 gives a counterclockwise fan, -1 a clockwise one.
    """
    try:
        signs = list(signs)
    except TypeError:  # not iterable: refused below like an empty list
        signs = []
    if not signs:
        raise PreconditionViolated("signs must be a nonempty list of +1/-1")
    fans = []
    for a in signs:
        if as_int(a, "sign") not in (1, -1):
            raise PreconditionViolated(f"sign must be +1 or -1, got {a!r}")
        fans.append(validate_multifan([(1, 0), (0, a), (-1, 0), (0, -a)]))
    return MultiFanFamily(tuple(fans))


def make_todd_fan(n0: int) -> MultiFan:
    """A (2*n0 + 1)-vector fan of winding number n0.

    After the initial (1, 0) the vectors alternate (j, 1) for even j and
    (-j, -1) for odd j; every consecutive determinant is +1.
    """
    _positive("n0", n0)
    vs = [(1, 0)]
    for j in range(2, 2 * n0 + 2):
        vs.append((j, 1) if j % 2 == 0 else (-j, -1))
    return validate_multifan(vs)


def realize_chi_y(n0: int, n1: int) -> MultiFanFamily:
    """A single-fan family whose count triple is exactly (n0, n1, n0).

    The winding-n0 base fan has 2*n0 + 1 fixed points, hence middle count
    1; each of the n1 - 1 blow-ups at position 0 raises it by one.
    """
    _positive("n0", n0)
    _positive("n1", n1)
    vs = list(make_todd_fan(n0).vectors)
    for _ in range(n1 - 1):
        blow_up_inplace(vs, 0)
    return MultiFanFamily((MultiFan(tuple(vs)),))


def realize_chern(c1_sq: int, c2: int) -> MultiFanFamily:
    """Invert c1^2 = 10*n0 - n1 and c2 = 2*n0 + n1, then realize.

    Raises NotRealizable carrying the fractional or nonpositive (n0, n1)
    when no family has the requested pair.
    """
    as_int(c1_sq, "c1_sq")
    as_int(c2, "c2")
    n0 = Fraction(c1_sq + c2, 12)
    n1 = Fraction(5 * c2 - c1_sq, 6)
    if n0.denominator != 1 or n1.denominator != 1 or n0 < 1 or n1 < 1:
        raise NotRealizable(n0, n1)
    return realize_chi_y(int(n0), int(n1))
