"""Cyclic integer-vector sequences (multi-fans) and their rewrites.

A multi-fan is an ordered tuple of nonzero vectors read cyclically.  It is
admissible when every consecutive pair (including the wrap-around pair) is a
lattice basis and all consecutive determinants carry one common sign, so the
sequence turns consistently counterclockwise (+1) or clockwise (-1).  The
shared sign is equivalent to the existence, at every index, of an integer
a[i] with v[i+1] = -a[i]*v[i] - v[i-1]; the validator checks the
one-comparison-per-edge determinant form.

validate_multifan checks a whole sequence and is the gate for every input
from outside the program.  Once a fan is admissible, blow-ups and
blow-downs keep it so, and they are local: inserting v+w between v and w
replaces det(v, w) by det(v, v+w) = det(v+w, w), both equal to it, and
deleting v[i] = v[i-1] + v[i+1] replaces two determinants by
det(v[i-1], v[i+1]), equal to both.  The one rewrite kernel,
blow_up_inplace and blow_down_inplace on a mutable vector list, therefore
checks only the one determinant det(v, w), in O(1) arithmetic, and raises
InternalInconsistency unless it is +-1 (which only a list that skipped
validation can break).  Every fan, family, replay, generator and reduction
rewrite runs through it.

MultiFan and MultiFanFamily values are immutable; the rewrites on them copy
the vector list, edit it with the kernel and wrap the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lattice
from .errors import (
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
from .lattice import Vec

CCW = 1
CW = -1

ROTATIONS = "rotations"
ROTATIONS_AND_REVERSAL = "full"
_MODES = (ROTATIONS, ROTATIONS_AND_REVERSAL)


@dataclass(frozen=True)
class MultiFan:
    """A validated cyclic vector sequence; build one via validate_multifan."""

    vectors: tuple[Vec, ...]

    def __len__(self):
        return len(self.vectors)


@dataclass(frozen=True)
class MultiFanFamily:
    """A nonempty collection of multi-fans, one per cycle of fixed points."""

    fans: tuple[MultiFan, ...]

    def __len__(self):
        return len(self.fans)


def is_int(value) -> bool:
    """True for an integer: int subclasses pass, except bool, since True is
    not the integer 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_int(value, name) -> int:
    """value, once it is an integer; a DomainError names it otherwise."""
    if type(value) is not int and not is_int(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return value


def as_vec(item, index, where="vector at index {}") -> Vec:
    """item as an integer pair; a DomainError names it where.format(index)."""
    try:
        x, y = item
    except (TypeError, ValueError):
        raise DomainError(f"{where.format(index)} is not a pair") from None
    if type(x) is not int or type(y) is not int:
        if not is_int(x) or not is_int(y):
            raise DomainError(f"{where.format(index)} must have integer entries")
    return (x, y)


def validate_multifan(raw) -> MultiFan:
    """Check a vector list for admissibility and wrap it as a MultiFan.

    Errors name the first offending index: ZeroVector, then NotABasis for
    the pair ending at that index, then OrientationFlip where consecutive
    determinants first disagree.
    """
    vs = tuple(as_vec(item, i) for i, item in enumerate(raw))
    k = len(vs)
    if k < 3:
        raise TooShort(k)
    for i, (x, y) in enumerate(vs):
        if x == 0 and y == 0:
            raise ZeroVector(i)
    sign = 0
    prev = vs[-1]
    for i, cur in enumerate(vs):
        d = prev[0] * cur[1] - prev[1] * cur[0]
        if d != 1 and d != -1:
            raise NotABasis(i)
        if sign == 0:
            sign = d
        elif d != sign:
            raise OrientationFlip(i)
        prev = cur
    return MultiFan(vs)


def validate_family(raw_fans) -> MultiFanFamily:
    """Validate a list of raw vector lists as a family."""
    fans = tuple(validate_multifan(r) for r in raw_fans)
    if not fans:
        raise DomainError("a family needs at least one fan")
    return MultiFanFamily(fans)


def orientation(fan: MultiFan) -> int:
    """+1 (counterclockwise) or -1 (clockwise): the shared determinant sign."""
    return lattice.det2(fan.vectors[-1], fan.vectors[0])


def self_intersections(fan: MultiFan) -> list[int]:
    """The integer a[i] with v[i+1] = -a[i]*v[i] - v[i-1], at every index.

    a[i] is the self-intersection number of the invariant sphere joining
    fixed points i and i+1; a[i] = -1 marks a blow-downable sphere.
    """
    vs = fan.vectors
    k = len(vs)
    eps = orientation(fan)
    return [eps * lattice.det2(vs[(i + 1) % k], vs[i - 1]) for i in range(k)]


def fixed_point_weights(fan: MultiFan) -> list[tuple[Vec, Vec]]:
    """The tangent weight pair (v[i], -v[i-1]) of the fixed point at every
    index i.

    This is the one definition of a fixed point's weights; the plumbing
    pieces and the count triple read it, and a graph's weights_at gives
    the same pair, sorted, at the matching vertex.
    """
    vs = fan.vectors
    # vs[-1:] + vs[:-1] is vs shifted one place, so it pairs v[i-1] with v[i]
    return [(v, (-x, -y)) for (x, y), v in zip(vs[-1:] + vs[:-1], vs)]


def _check_local(v, w, rewrite, i):
    # det(v, v+w) = det(v+w, w) = det(v, w): one determinant decides all three
    d = lattice.det2(v, w)
    if d != 1 and d != -1:
        raise InternalInconsistency(
            f"{rewrite} at {i}: determinant {d} breaks admissibility")


def blow_up_inplace(vs: list, i: int) -> Vec:
    """Insert v[i] + v[i+1] between cyclic positions i and i+1 of an
    admissible vector list, in place; returns the inserted vector.

    Checks only det(v[i], v[i+1]), which both determinants replacing it
    equal.
    """
    k = len(vs)
    if not 0 <= i < k:
        raise IndexOutOfRange(i, k)
    v = vs[i]
    w = vs[(i + 1) % k]
    u = (v[0] + w[0], v[1] + w[1])
    _check_local(v, w, "blow-up", i)
    vs.insert(i + 1, u)
    return u


def blow_down_inplace(vs: list, i: int) -> Vec:
    """Delete v[i] from an admissible vector list, in place; applies only
    when v[i] = v[i-1] + v[i+1].  Returns the deleted vector.

    Checks only det(v[i-1], v[i+1]), the determinant replacing the two it
    deletes, which equal it once v[i] = v[i-1] + v[i+1] holds.
    """
    k = len(vs)
    if not 0 <= i < k:
        raise IndexOutOfRange(i, k)
    v, u, w = vs[i - 1], vs[i], vs[(i + 1) % k]
    if u != (v[0] + w[0], v[1] + w[1]):
        raise NotBlowDownable(i)
    _check_local(v, w, "blow-down", i)
    del vs[i]
    return u


def blow_up_fan(fan: MultiFan, i: int) -> MultiFan:
    """Insert v[i] + v[i+1] between cyclic positions i and i+1."""
    vs = list(fan.vectors)
    blow_up_inplace(vs, as_int(i, "position"))
    return MultiFan(tuple(vs))


def blow_down_fan(fan: MultiFan, i: int) -> MultiFan:
    """Delete v[i]; applies only when v[i] = v[i-1] + v[i+1]."""
    vs = list(fan.vectors)
    blow_down_inplace(vs, as_int(i, "position"))
    return MultiFan(tuple(vs))


def blow_up_in_family(fam: MultiFanFamily, fan_index: int, i: int) -> MultiFanFamily:
    """Blow up one member fan, leaving the others untouched."""
    if not 0 <= as_int(fan_index, "fan_index") < len(fam.fans):
        raise IndexOutOfRange(fan_index, len(fam.fans))
    new = blow_up_fan(fam.fans[fan_index], i)
    return MultiFanFamily(fam.fans[:fan_index] + (new,) + fam.fans[fan_index + 1 :])


def blow_down_in_family(fam: MultiFanFamily, fan_index: int, i: int) -> MultiFanFamily:
    """Blow down one member fan, leaving the others untouched."""
    if not 0 <= as_int(fan_index, "fan_index") < len(fam.fans):
        raise IndexOutOfRange(fan_index, len(fam.fans))
    new = blow_down_fan(fam.fans[fan_index], i)
    return MultiFanFamily(fam.fans[:fan_index] + (new,) + fam.fans[fan_index + 1 :])


def is_minimal_fan(fan: MultiFan) -> bool:
    """True iff every vector is a unit vector.

    Admissibility then forces the repeating pattern (1,0), (0,±1), (-1,0),
    (0,∓1), so a minimal fan has length 4s; that consequence is asserted.
    """
    if any(lattice.norm_sq(v) != 1 for v in fan.vectors):
        return False
    if len(fan.vectors) % 4 != 0:
        raise InternalInconsistency(
            f"unit-vector fan of length {len(fan.vectors)} not divisible by 4")
    return True


def winding_number(fan: MultiFan, xi: Vec | None = None) -> int:
    """Number of revolutions the cyclic sequence makes around the origin.

    Counts the indices where the sequence crosses from the strictly negative
    to the strictly positive side of a direction xi that pairs nonzero with
    every vector.  Each revolution enters the positive side exactly once, so
    the count does not depend on the admissible xi chosen, and is always
    reported positive regardless of turning direction.
    """
    vs = fan.vectors
    if xi is None:
        xi = lattice.generic_direction(vs)
    else:
        as_vec(xi, xi, "direction {!r}")
    sides = [lattice.dot(v, xi) for v in vs]
    if any(s == 0 for s in sides):
        raise PreconditionViolated(f"direction {xi} is orthogonal to a fan vector")
    return sum(1 for i in range(len(vs)) if sides[i - 1] < 0 and sides[i] > 0)


def _least_rotation(vs):
    """The lexicographically least rotation of a sequence, in O(k).

    The two-pointer scan (Shiloach, J. Algorithms 1981): candidate starts
    i < j agree for m places; at the first difference the losing start and
    the m after it cannot be least, so i + j + m only grows.  On a periodic
    sequence the scan stops at m == k, where any least start gives the same
    rotation.
    """
    k = len(vs)
    s = vs + vs
    i, j, m = 0, 1, 0
    while j < k and m < k:
        a, b = s[i + m], s[j + m]
        if a == b:
            m += 1
        elif a < b:
            j, m = j + m + 1, 0
        else:
            i, j, m = j, max(i + m + 1, j + 1), 0
    return vs[i:] + vs[:i]


def canonical_form(fan: MultiFan, mode: str = ROTATIONS) -> MultiFan:
    """Deterministic representative of a fan's equivalence orbit.

    ``rotations`` takes the least cyclic rotation; ``full`` also admits the
    reversed traversal with negated vectors (the same cycle of spheres
    walked backwards).  Vectors compare lexicographically by (x, y); the
    specific order is arbitrary but fixed.  Linear in the fan length.
    """
    if mode not in _MODES:
        raise DomainError(f"unknown canonical-form mode {mode!r}")
    best = _least_rotation(fan.vectors)
    if mode == ROTATIONS_AND_REVERSAL:
        reversed_negated = tuple(lattice.neg(v) for v in reversed(fan.vectors))
        best = min(best, _least_rotation(reversed_negated))
    return MultiFan(best)


def fans_equivalent(f1: MultiFan, f2: MultiFan, mode: str = ROTATIONS) -> bool:
    """True iff the two fans share a canonical form under the given mode."""
    return canonical_form(f1, mode) == canonical_form(f2, mode)


def family_union(a: MultiFanFamily, b: MultiFanFamily) -> MultiFanFamily:
    """Concatenate two families; every additive invariant adds up."""
    return MultiFanFamily(a.fans + b.fans)
