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

A leading stretch of blow-downs is taken in one sort.  An a = -1 iteration
only deletes w: no other norm changes and each fan's survivors keep their
order.  So while every iteration is one, the engine removes the vectors of
norm > 1 in the order of (-norm, fan, original index), each at its index
less the removals before it in its fan, and one sort finds them all.  The
stretch ends at the first vector that is not a = -1 and the sum of its
neighbors in the fan's list.  Each of its moves passes the kernel and the
MAX_MOVES check and removes the maximum alone, as the multiset rule below
asks; a lone blow-down leaves the run cutter empty, so the loop then goes
on exactly as after taking the stretch one iteration at a time.

Runs are solved in closed form.  An a = 0 iteration only replaces w by
w + delta, delta = side*w1, and leaves its neighbors alone (unless it
blows up the wrapping pair at position 0, which rotates the list).  When
the last p <= 4f iterations, f the number of fans, are such steps at the
same places and sides as the p before them, and none of them touches
another's neighbors, every further repeat shifts each of those vectors by
its own fixed delta: the Hirzebruch-Jung continued-fraction step (Fulton,
2.6), one division of the subtractive Euclid.  Each choice the engine
makes in repeat r (which vector is first longest, with the tie-break; the
reduction_choice side; that the inserted vector is strictly shorter than
the one removed) is a quadratic inequality in r, so isqrt gives the exact
number q of repeats that keep them all.  The engine sets the vectors to
their values after q - 1 repeats, logs those repeats as one Run entry,
and runs the last repeat as ordinary iterations, which must make the
predicted choices.  By Lame's bound (Knuth, TAOCP vol. 2, 4.5.3) a fan
with coordinates of size N has O(log N) runs, so the cost is
O(runs * log N) arithmetic plus one Move per move outside a run; the log
expands its runs into Moves only when a caller reads them.
A log is capped at MAX_MOVES moves: a reduction that needs more raises
DomainError as its log passes the bound, or before it takes a run that
would.  A RunCutter, fed every move the engine applies, finds the runs
and takes them; the log reader in serialize feeds one the moves it reads,
so both cut a log's runs alike.

Every iteration strictly shrinks the multiset of squared norms, so the loop
terminates.  The engine checks that step by the Dershowitz-Manna rule
(Dershowitz-Manna, CACM 1979): the one vector removed is the maximum and
every vector inserted is strictly shorter.  It also checks the bound on
a, raising InternalInconsistency if either ever fails.  The checks cover
every iteration a run stands for: along a run, a and each determinant the
kernel checks are polynomials of degree at most two in r, checked in the
two repeats that revealed the run and in its last one, and three equal
values prove such a polynomial constant.  Replay is linear in the number
of moves apart from the kernel's list edits.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from math import inf, isqrt

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

# The longest move log the engine builds, about 160 MB of moves; a reduction
# that needs more raises DomainError before its log grows past it.
MAX_MOVES = 10**6

# The longest block of iterations a run repeats, per fan of the family: fans
# of the euclid shape that tie on norm take turns, two a = 0 steps each.
_MAX_BLOCK = 4


class Move(namedtuple("Move", ("kind", "fan_index", "position", "vector"))):
    """One rewrite step; the vector is recorded so logs audit themselves.

    For blow-ups the position names the pair (v[i], v[i+1]) by its first
    index and the vector is the inserted sum; for blow-downs the position
    is the deleted index and the vector the deleted value.  A Move is a
    tuple of its four fields, so it equals and hashes as that tuple.
    """

    __slots__ = ()  # a log holds thousands of moves


class Run(namedtuple("Run", ("steps", "starts", "count"))):
    """count repeats of a block of a = 0 steps, kept unexpanded in a log.

    Step m, steps[m] = (fan_index, up, down, delta), takes the vector
    w = starts[m] + r*delta to w + delta in repeat r by the two moves
    Move(blow_up, fan_index, up, w + delta) and
    Move(blow_down, fan_index, down, w); a repeat makes the steps in order.
    """

    __slots__ = ()

    def moves(self) -> list[Move]:
        """The run's moves, in log order."""
        out = []
        append = out.append
        ends = list(self.starts)
        for _ in range(self.count):
            for m, (j, up, down, (dx, dy)) in enumerate(self.steps):
                w = ends[m]
                ends[m] = nxt = (w[0] + dx, w[1] + dy)
                append(Move(BLOW_UP, j, up, nxt))
                append(Move(BLOW_DOWN, j, down, w))
        return out


@dataclass(frozen=True, init=False, repr=False, eq=False)
class MoveLog:
    """A replayable witness: replay(initial, moves) == final.

    A log holds its moves as entries: Moves, and Runs, each standing for
    the moves of its repeats, so a run of any length is one entry.  .moves
    expands the runs on first read, and every later read returns the same
    tuple.  == and hash compare the expanded moves, so a log is one value
    however it was made and however its runs are cut.
    """

    # positional patterns bind the moves, as before the entries
    __match_args__ = ("initial", "moves", "final")

    initial: MultiFanFamily
    entries: tuple[Move | Run, ...] = field(init=False)
    final: MultiFanFamily

    def __init__(self, initial: MultiFanFamily, moves: tuple[Move | Run, ...],
                 final: MultiFanFamily):
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "entries", tuple(moves))
        object.__setattr__(self, "final", final)

    @cached_property
    def moves(self) -> tuple[Move, ...]:
        if Run not in map(type, self.entries):
            return self.entries
        out = []
        for entry in self.entries:
            if type(entry) is Run:
                out += entry.moves()
            else:
                out.append(entry)
        return tuple(out)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # equal entries expand to equal moves; runs cut otherwise still may
        return (self.initial == other.initial and self.final == other.final
                and (self.entries == other.entries or self.moves == other.moves))

    def __hash__(self):
        return hash((self.initial, self.moves, self.final))

    def __repr__(self):
        return (f"{type(self).__qualname__}(initial={self.initial!r}, "
                f"moves={self.moves!r}, final={self.final!r})")


def _lists(fam: MultiFanFamily) -> list[list[Vec]]:
    return [list(fan.vectors) for fan in fam.fans]


def _family(fans: list[list[Vec]]) -> MultiFanFamily:
    return MultiFanFamily(tuple(MultiFan(tuple(vs)) for vs in fans))


def apply_move(fans: list[list[Vec]], kind, fan_index, position, vector) -> None:
    """Apply one move, given by its four fields, to per-fan vector lists in
    place, verifying the recorded vector; after a DomainError the lists are
    not to be used.  The engine, replay and the log reader share it."""
    if kind not in (BLOW_UP, BLOW_DOWN):
        raise DomainError(f"unknown move kind {kind!r}")
    if not 0 <= fan_index < len(fans):
        raise IndexOutOfRange(fan_index, len(fans))
    vs = fans[fan_index]
    if kind == BLOW_UP:
        got = blow_up_inplace(vs, position)
        if got != vector:
            raise DomainError(f"recorded vector {vector} differs from inserted {got}")
        return
    if not 0 <= position < len(vs) or vs[position] != vector:
        raise DomainError(f"recorded vector {vector} is not at position {position}")
    blow_down_inplace(vs, position)


def replay(initial: MultiFanFamily, moves) -> MultiFanFamily:
    """Apply a move sequence to a family, failing on the first mismatch."""
    fans = _lists(initial)
    for i, mv in enumerate(moves):
        try:
            # a caller's move, unlike the engine's, may hold non-int indices
            as_int(mv.fan_index, "fan_index")
            as_int(mv.position, "position")
            apply_move(fans, mv.kind, mv.fan_index, mv.position, mv.vector)
        except DomainError as exc:
            raise MoveInapplicable(i, str(exc)) from exc
        except AttributeError:
            if isinstance(mv, Move):
                raise
            raise MoveInapplicable(
                i, f"expected a Move, got {type(mv).__name__}") from None
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

    def replace(self, p, n):
        self.delete(p)
        self.insert(p, n)

    def top(self):
        return max(self.maxima)

    def first(self, n):
        # position of the first entry equal to n
        b = self.maxima.index(n)
        return sum(map(len, self.blocks[:b])) + self.blocks[b].index(n)


def _iteration_moves(vs: list[Vec], eps: int, j: int, i: int) -> list[Move]:
    """The moves removing vector i of fan j (the current longest); vs is
    that fan's vector list and eps its orientation."""
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


def _too_many(count):
    return DomainError(f"reduction needs at least {count} moves, "
                       f"more than MAX_MOVES = {MAX_MOVES}")


def run_steps(block, fans) -> list[tuple[int, int, int, Vec]]:
    """The Run steps (fan_index, up, down, delta) of a block of run keys.

    The iteration with key (j, i, side) takes v[i] of fan j to v[i] + delta,
    delta = side*v[i-1], by a blow-up at i - 1 and a blow-down at i + 1
    when side is +1, and by both at i when side is -1.
    """
    return [(j, i if side < 0 else i - 1, i if side < 0 else i + 1,
             (side * fans[j][i - 1][0], side * fans[j][i - 1][1]))
            for j, i, side in block]


class RunCutter:
    """Finds the runs in the stream of moves applied to per-fan lists.

    A blow-up and the blow-down right after it in the same fan, at the same
    place or two places on, are an a = 0 iteration that only replaces v[i]
    by v[i] + side*v[i-1]: its run key is (fan, i, side), side -1 or +1.
    Any other move ends every block, since a block's repeats hold no other
    moves: a blow-up after a blow-up (an a = +1 iteration), a blow-down
    after none (a = -1), a pair in two fans, and the wrapping pair, which
    rotates the list.  The engine and the log reader feed it every move
    they apply, so they cut the same runs.
    """

    __slots__ = ("fans", "keys", "pending")

    def __init__(self, fans: list[list[Vec]]):
        self.fans = fans
        self.keys = []  # the run keys since the last run, the latest last
        self.pending = None  # (fan, position) of the blow-up just fed

    def feed(self, kind, fan, position):
        """Take the next move applied to the fans; return the block of run
        keys it completes a second repeat of, or None."""
        up, self.pending = self.pending, None
        if kind == BLOW_UP and up is None:
            self.pending = (fan, position)
            return None
        offset = position - up[1] if kind == BLOW_DOWN and up and up[0] == fan else 1
        if offset not in (0, 2):
            self.keys.clear()
            return None
        # offset 0: side -1 at the blow-down; offset 2: side +1 between
        self.keys.append((fan, position - offset // 2, offset - 1))
        return self._repeated_block()

    def _repeated_block(self):
        """The last p run keys when they repeat the p keys before them and
        none of their iterations touches another's neighbors; None when no
        p <= len(keys) / 2 does.  The keys are cut here to two repeats of
        the longest block."""
        fans = self.fans
        keys = self.keys
        del keys[: -2 * _MAX_BLOCK * len(fans)]
        key = keys[-1]
        for p in range(1, len(keys) // 2 + 1):
            if keys[-1 - p] != key:
                continue
            block = keys[-p:]
            if block == keys[-2 * p : -p] and all(
                    j != j2 or (i - i2) % len(fans[j]) not in (0, 1, len(fans[j]) - 1)
                    for n, (j, i, _) in enumerate(block)
                    for j2, i2, _ in block[n + 1 :]):
                return block
        return None

    def take_run(self, block, count) -> Run | None:
        """Set a repeating block's vectors to their values after count
        further repeats and return the Run of those repeats, which ends
        every block; None, with the fans untouched, for count < 1.

        The block's steps touch no step's neighbors, so each delta, the
        zero sum of each step's neighbors and every determinant the kernel
        checks stay as they were in the repeats just applied: each repeat
        the Run stands for is one apply_move accepts, with the same effect.
        """
        if count < 1:
            return None
        fans = self.fans
        steps = run_steps(block, fans)
        starts = [fans[j][i] for j, i, _ in block]
        for (j, i, _), (x, y), (*_, (dx, dy)) in zip(block, starts, steps):
            fans[j][i] = (x + count * dx, y + count * dy)
        self.keys.clear()
        return Run(tuple(steps), tuple(starts), count)


def _quad(u, d):
    # norm_sq(u + r*d) as the coefficients of a polynomial in r
    return lattice.norm_sq(d), 2 * lattice.dot(u, d), lattice.norm_sq(u)


def _first_failure(a, b, c):
    """The least integer r >= 0 with a*r*r + b*r + c <= 0, or inf.

    For c > 0 the quadratic first reaches 0 past r = 0 at
    x = (-b - sqrt(d)) / 2a, its smaller root if a > 0 and its larger one
    if a < 0; the answer is ceil(x) unless (a > 0) no integer lies between
    the roots.  isqrt(d) pins ceil(x) to two integers, lo and lo + 1,
    each tested.
    """
    if c <= 0:
        return 0
    if a == 0:
        return -(c // b) if b < 0 else inf  # ceil(c / -b)
    d = b * b - 4 * a * c
    if d < 0 or a > 0 and b >= 0:
        return inf
    s = isqrt(d)
    lo = min((-b - s - 1) // (2 * a), (-b - s) // (2 * a))
    for r in range(max(lo, 1), lo + 2):
        if (a * r + b) * r + c <= 0:
            return r
    return inf


def _longest(norms, top=-1):
    """The largest norm above top and the first fan that holds it, or
    (top, None) when no norm is above top."""
    j = None
    for t, blocks in enumerate(norms):
        n = blocks.top()
        if n > top:
            top, j = n, t
    return top, j


def _jump(block, cutter, norms, logged) -> Run | None:
    """Take all but the last repeat of a repeating block in closed form.

    Repeat r of the block's iteration m at place (j, i) replaces
    w = v[i] + r*delta by w + delta.  It is the engine's own iteration
    while w's norm is above 1 and beats every vector before (j, i)
    strictly and every one after it weakly, and w + delta is strictly
    shorter than w (reduction_choice then picks side).  The first r that
    fails one of these quadratic inequalities ends the run after q
    repeats, and the cutter takes the first q - 1 of them.  logged is the
    number of moves logged so far.
    """
    fans = cutter.fans
    places = [(j, i) for j, i, _ in block]
    start = [fans[j][i] for j, i in places]
    deltas = [d for *_, d in run_steps(block, fans)]
    # the longest vector the run leaves alone, and its first place
    for j, i in places:
        norms[j].replace(i, 0)
    top, zj = _longest(norms)
    still = (zj, norms[zj].first(top))
    quads = [_quad(w, d) for w, d in zip(start, deltas)]
    # an earlier iteration of the block has taken its repeat r
    taken = [_quad(lattice.add(w, d), d) for w, d in zip(start, deltas)]
    bounds = []
    for m, (place, (qa, qb, qc)) in enumerate(zip(places, quads)):
        floor = max(2, top + (still < place))
        # norm(r) - norm(r + 1) > 0, and norm(r) >= floor
        bounds += [(0, -2 * qa, -qa - qb), (qa, qb, qc - floor + 1)]
        for m2, place2 in enumerate(places):
            if m2 != m:
                ra, rb, rc = taken[m2] if m2 < m else quads[m2]
                bounds.append((qa - ra, qb - rb, qc - rc + 1 - (place2 < place)))
    # finite: norm(r) is a convex quadratic in r, so it stops falling
    q = min(_first_failure(*bound) for bound in bounds)
    count = logged + 2 * len(block) * q
    if count > MAX_MOVES:
        raise _too_many(count)
    run = cutter.take_run(block, q - 1)
    for j, i in places:
        norms[j].replace(i, lattice.norm_sq(fans[j][i]))
    return run


_RUN_MISSED = "the iterations after a jump are not the last repeat of its run"


def _blow_down_stretch(fans, order, signs) -> list[Move]:
    """Blow down the vectors in order, their sorted (-norm, fan, index),
    while each is the engine's a = -1 iteration; return those moves."""
    moves = []
    gone = [[] for _ in fans]  # each fan's removed original indices
    for _, j, i in order:
        vs = fans[j]
        position = i - bisect_left(gone[j], i)
        w, w1, w2 = vs[position], vs[position - 1], vs[(position + 1) % len(vs)]
        if (signs[j] * lattice.det2(w2, w1) != -1
                or w != (w1[0] + w2[0], w1[1] + w2[1])):
            break
        insort(gone[j], i)
        apply_move(fans, BLOW_DOWN, j, position, w)
        moves.append(Move(BLOW_DOWN, j, position, w))
        if len(moves) > MAX_MOVES:
            raise _too_many(len(moves))
    return moves


def reduce_to_minimal(fam: MultiFanFamily) -> tuple[MultiFanFamily, MoveLog]:
    """Drive every vector of the family to a unit vector.

    Returns the minimal family and a replayable log; an already minimal
    family yields an empty log.  Fans are never reordered, merged, or
    dropped, and each keeps its winding number throughout.  A reduction
    needing more than MAX_MOVES moves raises DomainError.
    """
    fans = _lists(fam)
    order = sorted((-norm, j, i) for j, vs in enumerate(fans)
                   for i, (x, y) in enumerate(vs) if (norm := x * x + y * y) > 1)
    if not order:  # every vector is a unit vector already
        return _minimal(fam, fans, [])
    signs = [orientation(fan) for fan in fam.fans]
    entries = _blow_down_stretch(fans, order, signs)
    norms = [_NormBlocks(vs) for vs in fans]
    cutter = RunCutter(fans)
    logged = len(entries)  # the moves the entries stand for
    expect = []  # the keys of a run's last repeat, still to come
    while True:
        longest, j = _longest(norms, 1)
        if j is None:
            break
        step = _iteration_moves(fans[j], signs[j], j, norms[j].first(longest))
        removed = []
        grew = False
        for kind, _, position, vector in step:
            apply_move(fans, kind, j, position, vector)
            # only the step's last move, a blow-down, can complete a block
            block = cutter.feed(kind, j, position)
            if kind == BLOW_UP:
                n = lattice.norm_sq(vector)
                grew = grew or n >= longest
                norms[j].insert(position + 1, n)
            else:
                removed.append(norms[j].delete(position))
        # Dershowitz-Manna: one copy of the maximum leaves and every vector
        # inserted is strictly shorter, so the norm multiset shrinks
        if grew or removed != [longest]:
            raise InternalInconsistency(
                "norm profile failed to decrease in an iteration")
        if expect and cutter.keys[-1:] != [expect.pop(0)]:
            raise InternalInconsistency(_RUN_MISSED)
        entries += step
        logged += len(step)
        if logged > MAX_MOVES:
            raise _too_many(logged)
        run = block and _jump(block, cutter, norms, logged)
        if run:
            entries.append(run)
            logged += 2 * len(block) * run.count
            expect = block
    if expect:
        raise InternalInconsistency(_RUN_MISSED)
    return _minimal(fam, fans, entries)


def _minimal(fam, fans, entries) -> tuple[MultiFanFamily, MoveLog]:
    """The family the reduction ended on, once every fan is minimal, and
    the log from fam to it."""
    state = _family(fans)
    for fan in state.fans:
        if not is_minimal_fan(fan):
            raise InternalInconsistency("reduction ended on a non-unit vector")
    return state, MoveLog(fam, entries, state)


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
