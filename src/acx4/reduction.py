"""Rewrite any valid family down to unit vectors, logging every move.

Each outer iteration removes the longest vector w of the family (first fan,
first position on ties).  Its neighbors w1, w2 are strictly shorter (two
equally long basis vectors longer than 1 cannot exist), which pins the
sphere's self-intersection a to {-1, 0, +1}, and one rule removes w (the
toric-surface reduction, Fulton, Introduction to Toric Varieties, 2.5):

  unless a = -1, blow up the pair (w1, w) when a = +1 or reduction_choice
  picks w + w1, and the pair (w, w2) when a = +1 or it picks w - w1;
  then blow w down.

With a = -1, w already equals w1 + w2.  With a = 0, w2 = -w1, so the one
blow-up inserts the strictly shorter of w + w1 and w - w1 (reduction_choice
prefers w - w1 on a tie).  With a = +1, w1 + w = -w2 and w + w2 = -w1, both
strictly shorter, bracket w.  Either way w is then the sum of its neighbors.

The engine works on one mutable vector list per fan and applies every move
through the multifan kernel, which checks the one determinant det(v, w)
the move touches (a blow-up or blow-down keeps it on every new consecutive
pair, so that local check keeps the whole fan admissible).
Beside each list it keeps the squared norms in blocks of about sqrt(k)
with cached block maxima, so finding the first longest vector and updating
after a move cost O(sqrt(k)) rather than a pass over the family.

Every iteration strictly shrinks the multiset of squared norms, so the loop
terminates.  The engine checks that step by the Dershowitz-Manna rule
(Dershowitz-Manna, CACM 1979): the one vector removed is the maximum and
every vector inserted is strictly shorter.  It also checks the bound on
a, raising InternalInconsistency if either ever fails.  An iteration costs
O(sqrt(k)) outside the kernel's list edits; replay is linear in the number
of moves apart from those edits.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt

from . import lattice
from .errors import (
    DomainError,
    IndexOutOfRange,
    InternalInconsistency,
    MoveInapplicable,
    NotToddOne,
)
from .lattice import Vec
from .multifan import (
    MultiFan,
    MultiFanFamily,
    as_int,
    blow_down_inplace,
    blow_up_inplace,
    is_minimal_fan,
    orientation,
    winding_number,
)

BLOW_UP = "blow_up"
BLOW_DOWN = "blow_down"


@dataclass(frozen=True, slots=True)  # slots: a log holds thousands of moves
class Move:
    """One rewrite step; the vector is recorded so logs audit themselves.

    For blow-ups the position names the pair (v[i], v[i+1]) by its first
    index and the vector is the inserted sum; for blow-downs the position
    is the deleted index and the vector the deleted value.
    """

    kind: str
    fan_index: int
    position: int
    vector: Vec


@dataclass(frozen=True)
class MoveLog:
    """A replayable witness: replay(initial, moves) == final."""

    initial: MultiFanFamily
    moves: tuple[Move, ...]
    final: MultiFanFamily


def _lists(fam: MultiFanFamily) -> list[list[Vec]]:
    return [list(fan.vectors) for fan in fam.fans]


def _family(fans: list[list[Vec]]) -> MultiFanFamily:
    return MultiFanFamily(tuple(MultiFan(tuple(vs)) for vs in fans))


def _apply(fans: list[list[Vec]], move: Move) -> None:
    """Apply one move to per-fan vector lists in place, verifying the
    recorded vector; after a DomainError the lists are not to be used."""
    if move.kind not in (BLOW_UP, BLOW_DOWN):
        raise DomainError(f"unknown move kind {move.kind!r}")
    if not 0 <= move.fan_index < len(fans):
        raise IndexOutOfRange(move.fan_index, len(fans))
    vs = fans[move.fan_index]
    if move.kind == BLOW_UP:
        got = blow_up_inplace(vs, move.position)
        if got != move.vector:
            raise DomainError(
                f"recorded vector {move.vector} differs from inserted {got}")
        return
    if not 0 <= move.position < len(vs) or vs[move.position] != move.vector:
        raise DomainError(
            f"recorded vector {move.vector} is not at position {move.position}")
    blow_down_inplace(vs, move.position)


def _apply_given(fans: list[list[Vec]], move: Move) -> None:
    # a caller's move, unlike the engine's, may hold indices that are not ints
    as_int(move.fan_index, "fan_index")
    as_int(move.position, "position")
    _apply(fans, move)


def apply_move(fam: MultiFanFamily, move: Move) -> MultiFanFamily:
    """Apply one move, verifying the recorded vector against the rewrite."""
    fans = _lists(fam)
    _apply_given(fans, move)
    return _family(fans)


def replay(initial: MultiFanFamily, moves) -> MultiFanFamily:
    """Apply a move sequence to a family, failing on the first mismatch."""
    fans = _lists(initial)
    for i, mv in enumerate(moves):
        try:
            _apply_given(fans, mv)
        except DomainError as exc:
            raise MoveInapplicable(i, str(exc)) from exc
    return _family(fans)


class _NormBlocks:
    """One fan's squared norms in order, cut into blocks with cached maxima.

    Blocks start at about sqrt(k) entries and split when they reach twice
    that; an emptied block is dropped.  Inserting, deleting and finding the
    first position of the largest norm each touch one block plus the list
    of block lengths or maxima.
    """

    __slots__ = ("blocks", "maxima", "cap")

    def __init__(self, vs):
        size = max(8, isqrt(len(vs)))
        norms = [x * x + y * y for x, y in vs]
        self.blocks = [norms[s : s + size] for s in range(0, len(norms), size)]
        self.maxima = [max(b) for b in self.blocks]
        self.cap = 2 * size

    def _locate(self, p):
        # (block, offset) of position p; p == length lands past the last entry
        ends = list(accumulate(map(len, self.blocks)))
        b = min(bisect_right(ends, p), len(ends) - 1)
        return b, p - ends[b] + len(self.blocks[b])

    def insert(self, p, n):
        b, off = self._locate(p)
        block = self.blocks[b]
        block.insert(off, n)
        if n > self.maxima[b]:
            self.maxima[b] = n
        if len(block) >= self.cap:
            half = len(block) // 2
            lo, hi = block[:half], block[half:]
            self.blocks[b : b + 1] = [lo, hi]
            self.maxima[b : b + 1] = [max(lo), max(hi)]

    def delete(self, p):
        b, off = self._locate(p)
        block = self.blocks[b]
        n = block.pop(off)
        if not block:
            del self.blocks[b]
            del self.maxima[b]
        elif n == self.maxima[b]:
            self.maxima[b] = max(block)
        return n

    def top(self):
        return max(self.maxima)

    def first(self, n):
        # position of the first entry equal to n
        b = self.maxima.index(n)
        return sum(map(len, self.blocks[:b])) + self.blocks[b].index(n)


def _iteration_moves(vs: list[Vec], eps: int, j: int, i: int) -> list[Move]:
    """The move script removing vector i of fan j (the current longest);
    vs is that fan's vector list and eps its orientation."""
    k = len(vs)
    w1 = vs[(i - 1) % k]
    w = vs[i]
    w2 = vs[(i + 1) % k]
    a = eps * lattice.det2(w2, w1)
    if a not in (-1, 0, 1):
        raise InternalInconsistency(
            f"self-intersection {a} at the longest vector {w}; neighbors "
            f"{w1}, {w2} should have forced -1 <= a <= 1")
    if a == -1:
        return [Move(BLOW_DOWN, j, i, w)]
    # the side to blow up: both for a = +1 (side 0), else the shorter sum
    side = 0 if a == 1 else lattice.reduction_choice(w1, w)
    moves = []
    if side != -1:
        moves.append(Move(BLOW_UP, j, (i - 1) % k, lattice.add(w1, w)))
        # w moves one place right unless the pair wraps
        i = i + 1 if i else 0
    if side != 1:
        moves.append(Move(BLOW_UP, j, i, lattice.add(w, w2)))
    return moves + [Move(BLOW_DOWN, j, i, w)]


def reduce_to_minimal(fam: MultiFanFamily) -> tuple[MultiFanFamily, MoveLog]:
    """Drive every vector of the family to a unit vector.

    Returns the minimal family and a replayable log; an already minimal
    family yields an empty log.  Fans are never reordered, merged, or
    dropped, and each keeps its winding number throughout.
    """
    fans = _lists(fam)
    norms = [_NormBlocks(vs) for vs in fans]
    signs = [orientation(fan) for fan in fam.fans]
    moves = []
    while True:
        # the first fan holding the strictly largest norm > 1
        longest, j = 1, None
        for t, blocks in enumerate(norms):
            n = blocks.top()
            if n > longest:
                longest, j = n, t
        if j is None:
            break
        step = _iteration_moves(fans[j], signs[j], j, norms[j].first(longest))
        removed = []
        grew = False
        for mv in step:
            _apply(fans, mv)
            if mv.kind == BLOW_UP:
                n = lattice.norm_sq(mv.vector)
                grew = grew or n >= longest
                norms[j].insert(mv.position + 1, n)
            else:
                removed.append(norms[j].delete(mv.position))
        # Dershowitz-Manna: one copy of the maximum leaves and every vector
        # inserted is strictly shorter, so the norm multiset shrinks
        if grew or removed != [longest]:
            raise InternalInconsistency(
                "norm profile failed to decrease in an iteration")
        moves.extend(step)
    state = _family(fans)
    for fan in state.fans:
        if not is_minimal_fan(fan):
            raise InternalInconsistency("reduction ended on a non-unit vector")
    return state, MoveLog(fam, tuple(moves), state)


@dataclass(frozen=True)
class ComplexModel:
    """Names the unit 4-fan a winding-one reduction lands on.

    The final fan equals the pattern (1,0), (0,a), (-1,0), (0,-a) read from
    offset ``rotation``: final.vectors[(rotation + t) % 4] == pattern[t].
    """

    name: str
    a: int
    rotation: int


def normalize_complex(fan: MultiFan) -> tuple[MoveLog, ComplexModel]:
    """Reduce a winding-one fan and identify the 4-vector unit fan reached.

    Winding one is exactly the case describing a complex manifold; the
    minimal target then has four vectors and matches the standard
    product-of-lines action up to rotation and the sign a.
    """
    t = winding_number(fan)
    if t != 1:
        raise NotToddOne(t)
    final_family, log = reduce_to_minimal(MultiFanFamily((fan,)))
    (final,) = final_family.fans
    if len(final.vectors) != 4:
        raise InternalInconsistency(
            f"winding-one reduction ended with {len(final.vectors)} vectors")
    vs = final.vectors
    # det((0, -a), (1, 0)) = a: the orientation is the sign of the pattern
    a = orientation(final)
    rotation = vs.index((1, 0)) if (1, 0) in vs else 0
    if vs[rotation:] + vs[:rotation] != ((1, 0), (0, a), (-1, 0), (0, -a)):
        raise InternalInconsistency("minimal 4-fan does not match the unit pattern")
    return log, ComplexModel("CP1 x CP1", a, rotation)
