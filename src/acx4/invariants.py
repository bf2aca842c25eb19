"""Numeric invariants of a family, read off its fixed-point weights.

The fixed point at position i of a fan carries the weight pair
(v[i], -v[i-1]).  Sorting fixed points by how many of their weights pair
negatively against a generic direction yields the counts (a0, a1, a2); the
genus polynomial a0 - a1*y + a2*y^2 then evaluates to the Euler
characteristic at y = -1, the Todd genus at 0, and the signature at 1, and
determines the Chern numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lattice
from .errors import InternalInconsistency, PreconditionViolated
from .lattice import Vec
from .multifan import MultiFanFamily, winding_number


def choose_generic_direction(fam: MultiFanFamily) -> Vec:
    """Deterministic scan over (1, N), N = 1, 2, ...: the first N that
    clears every vector of the family."""
    vectors = [v for fan in fam.fans for v in fan.vectors]
    return lattice.generic_direction(vectors)


def kosniowski_counts(fam: MultiFanFamily, xi: Vec) -> tuple[int, int, int]:
    """Histogram (a0, a1, a2) of fixed points by their number of weights on
    the negative side of xi.  The result is independent of the generic
    direction; the total is the fixed-point count."""
    counts = [0, 0, 0]
    for fan in fam.fans:
        vs = fan.vectors
        for i in range(len(vs)):
            s1 = lattice.dot(vs[i], xi)
            s2 = -lattice.dot(vs[i - 1], xi)
            if s1 == 0 or s2 == 0:
                raise PreconditionViolated(
                    f"direction {xi} is orthogonal to a weight")
            counts[(s1 < 0) + (s2 < 0)] += 1
    return tuple(counts)


def todd_genus(fam: MultiFanFamily) -> int:
    """Sum of the member winding numbers; equals the count of fixed points
    with no negative-side weights."""
    return sum(winding_number(fan) for fan in fam.fans)


def fixed_point_count(fam: MultiFanFamily) -> int:
    """Total number of fixed points; always at least 3."""
    return sum(len(fan.vectors) for fan in fam.fans)


@dataclass(frozen=True)
class ChiYReport:
    """The invariant bundle of a family.

    euler = a0+a1+a2, todd = a0, signature = a0-a1+a2,
    c1_sq = 10*a0 - a1, c2 = 2*a0 + a1, and a0 = a2 always.
    """

    a0: int
    a1: int
    a2: int
    euler: int
    todd: int
    signature: int
    c1_sq: int
    c2: int

    @classmethod
    def from_counts(cls, a0: int, a1: int, a2: int) -> ChiYReport:
        """The report the count triple determines."""
        return cls(a0, a1, a2, euler=a0 + a1 + a2, todd=a0,
                   signature=a0 - a1 + a2, c1_sq=10 * a0 - a1, c2=2 * a0 + a1)


def chi_y_report(fam: MultiFanFamily) -> ChiYReport:
    """Assemble the full invariant bundle of a family.

    The leading count is computed twice, as the zero-negative-weight point
    count and as the winding sum, and the two must agree; a mismatch (or
    a0 != a2) means an implementation bug, never bad input.
    """
    xi = choose_generic_direction(fam)
    a0, a1, a2 = kosniowski_counts(fam, xi)
    t = todd_genus(fam)
    if a0 != a2:
        raise InternalInconsistency(f"count asymmetry: a0={a0} != a2={a2}")
    if a0 != t:
        raise InternalInconsistency(f"winding sum {t} != leading count {a0}")
    return ChiYReport.from_counts(a0, a1, a2)
