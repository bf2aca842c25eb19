"""Exact arithmetic on integer vectors in the plane.

Vectors are plain ``(x, y)`` tuples of Python ints, so nothing here ever
rounds or overflows; repeated blow-ups grow coordinates without bound and
every comparison below stays exact.
"""

from __future__ import annotations

from .errors import InternalInconsistency, PreconditionViolated

Vec = tuple[int, int]


def det2(u: Vec, v: Vec) -> int:
    """Determinant of the 2x2 matrix with rows u and v."""
    return u[0] * v[1] - u[1] * v[0]


def is_basis(u: Vec, v: Vec) -> bool:
    """True iff u and v generate the full integer lattice."""
    return abs(det2(u, v)) == 1


def norm_sq(v: Vec) -> int:
    """Squared Euclidean length; preserves every strict length comparison."""
    return v[0] * v[0] + v[1] * v[1]


def add(u: Vec, v: Vec) -> Vec:
    return (u[0] + v[0], u[1] + v[1])


def sub(u: Vec, v: Vec) -> Vec:
    return (u[0] - v[0], u[1] - v[1])


def neg(v: Vec) -> Vec:
    return (-v[0], -v[1])


def dot(u: Vec, v: Vec) -> int:
    return u[0] * v[0] + u[1] * v[1]


def reduction_choice(v1: Vec, v2: Vec) -> int:
    """Sign s in {-1, +1} such that v2 + s*v1 is strictly shorter than v2.

    Requires (v1, v2) to be a lattice basis with norm_sq(v1) < norm_sq(v2);
    exactly one sign then works, so the returned sign is determined.
    """
    if not is_basis(v1, v2):
        raise PreconditionViolated(f"reduction_choice: {v1}, {v2} is not a basis")
    target = norm_sq(v2)
    if norm_sq(v1) >= target:
        raise PreconditionViolated(
            f"reduction_choice: need norm_sq({v1}) < norm_sq({v2})")
    # both signs cannot work: |v1|^2 < 2*v1.v2 and |v1|^2 < -2*v1.v2 conflict
    if norm_sq(sub(v2, v1)) < target:
        return -1
    if norm_sq(add(v2, v1)) < target:
        return 1
    raise InternalInconsistency(
        f"neither v2-v1 nor v2+v1 is shorter than v2 for v1={v1}, v2={v2}")


def generic_direction(vectors) -> Vec:
    """Deterministic direction (1, N) not orthogonal to any given vector:
    the least N >= 1 that no vector rules out.

    (x, y) pairs with (1, N) to x + N*y, so a vector with y != 0 rules out
    N = -x/y when y divides x, one with y == 0 and x != 0 rules out nothing,
    and the zero vector rules out every N.  One pass collects the values
    ruled out; there are at most as many as vectors, so N is at most their
    number + 1.
    """
    if (0, 0) in vectors:
        raise InternalInconsistency("generic-direction scan exceeded its bound")
    ruled_out = {-x // y for x, y in vectors if y and not x % y}
    n = 1
    while n in ruled_out:
        n += 1
    return (1, n)
