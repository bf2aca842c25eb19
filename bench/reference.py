"""Independent references the benchmark checks every job against.

Nothing here imports acx4.  Fans are plain lists of (x, y) int pairs and
moves are (kind, fan, position, vector) tuples, so a defect in the engine
cannot hide in a reference that shares its code.
"""

from __future__ import annotations


class Mismatch(Exception):
    """A job's output disagrees with the reference."""


def count_triple(components: int, blowups: int) -> tuple[int, int, int]:
    """(a0, a1, a2) of `components` unit fans after `blowups` blow-ups.

    A unit 4-fan has counts (1, 2, 1); each blow-up adds one fixed point
    with one weight on each side of a generic direction.
    """
    return (components, 2 * components + blowups, components)


def euler(components: int, blowups: int) -> int:
    """Fixed-point count: four per unit fan plus one per blow-up."""
    return 4 * components + blowups


def unit_family(signs) -> list[list[tuple[int, int]]]:
    """The unit 4-fans (1,0), (0,a), (-1,0), (0,-a), one per sign a."""
    return [[(1, 0), (0, a), (-1, 0), (0, -a)] for a in signs]


def euclid_fan(n: int) -> list[tuple[int, int]]:
    """The single fan (1,0), (N,1), (-N-1,-1): a subtractive Euclid input."""
    return [(1, 0), (n, 1), (-n - 1, -1)]


def euclid_moves(n: int) -> int:
    """Moves the engine takes on euclid_fan(n)."""
    return 4 * n + 3


def as_int(value) -> int:
    """A JSON coordinate: a number, or a decimal string beyond 2**53."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise Mismatch(f"not an integer coordinate: {value!r}")
    return int(value)


def fans_of(doc: dict) -> list[list[tuple[int, int]]]:
    """Vector lists of an acx4-fans/1 document already decoded from JSON."""
    return [[(as_int(x), as_int(y)) for x, y in fan["vectors"]]
            for fan in doc["fans"]]


def moves_of(doc: dict) -> list[tuple]:
    """Move tuples of an acx4-log/1 document already decoded from JSON."""
    return [(m["kind"], as_int(m["fan"]), as_int(m["position"]),
             (as_int(m["vector"][0]), as_int(m["vector"][1])))
            for m in doc["moves"]]


def is_admissible(vs) -> bool:
    """Every cyclic neighbour pair is a lattice basis, all with one sign."""
    if len(vs) < 3:
        return False
    dets = {vs[i - 1][0] * vs[i][1] - vs[i - 1][1] * vs[i][0]
            for i in range(len(vs))}
    return dets == {1} or dets == {-1}


def is_unit_fan(vs) -> bool:
    """An admissible 4-fan of unit vectors: a winding-one minimal model."""
    return (len(vs) == 4 and is_admissible(vs)
            and all(x * x + y * y == 1 for x, y in vs))


def is_rotation(a, b) -> bool:
    """True iff sequence a is a cyclic rotation of sequence b."""
    a, b = list(a), list(b)
    return len(a) == len(b) and any(b[i:] + b[:i] == a for i in range(len(b)))


def replay(fans, moves) -> list[list[tuple[int, int]]]:
    """Apply moves to copies of the fans with local checks only.

    A blow-up at i inserts v[i] + v[i+1] after v[i]; a blow-down at i
    deletes v[i], which must equal v[i-1] + v[i+1].  The recorded vector
    must match in both cases.
    """
    state = [list(f) for f in fans]
    for step, (kind, j, i, vec) in enumerate(moves):
        if not 0 <= j < len(state):
            raise Mismatch(f"move {step}: no fan {j}")
        vs = state[j]
        k = len(vs)
        if not 0 <= i < k:
            raise Mismatch(f"move {step}: position {i} outside fan of {k}")
        if kind == "blow_up":
            a, b = vs[i], vs[(i + 1) % k]
            new = (a[0] + b[0], a[1] + b[1])
            if new != vec:
                raise Mismatch(f"move {step}: inserted {new}, recorded {vec}")
            vs.insert(i + 1, new)
        elif kind == "blow_down":
            a, b = vs[i - 1], vs[(i + 1) % k]
            if vs[i] != vec or vec != (a[0] + b[0], a[1] + b[1]):
                raise Mismatch(f"move {step}: {vs[i]} at {i} is not blow-downable")
            del vs[i]
        else:
            raise Mismatch(f"move {step}: unknown kind {kind!r}")
    return state
