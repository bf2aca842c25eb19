"""Independent reference computations backing the test expectations.

Everything here deliberately avoids the library's algorithms: winding
numbers come from a floating-point angle sum, admissibility from literally
solving the recurrence, and basis pairs from an extended-gcd line
parametrization.  Agreement between the package and these oracles is the
evidence the tests rely on.  The last sections are different: they keep
the slower rewrite, reduction and canonical-form code that the library's
fast paths replaced, built on the full validator, the normal-form
readers that the library's direct readings replaced, the cycle walk as
its docstring states it and the two-walk version it replaced, the
candidate-by-candidate generic-direction scan, the exact-ratio SVG scaling, the json.dumps(indent=2) emitter, and the log
emitter that wrote a run's moves one % format each, as the reference
those paths must match exactly.
"""

import json
import math
import random
from fractions import Fraction

import acx4
from acx4 import serialize
from acx4.errors import (
    DomainError,
    IndexOutOfRange,
    InternalInconsistency,
    MoveInapplicable,
    NotBlowDownable,
    NotToddOne,
    NotTwoRegular,
    PreconditionViolated,
    UnknownVertex,
    digit_limit,
)
from acx4.lattice import add, neg
from acx4.multifan import as_int
from acx4.serialize import FORMAT_FAMILY, FORMAT_GRAPH, FORMAT_LOG, FORMAT_REPORT
from acx4.torusgraph import normalized_components


def angle_sum_winding(vectors):
    """Net revolutions of the cyclic sequence, from summed signed turns."""
    total = 0.0
    k = len(vectors)
    for i in range(k):
        x1, y1 = vectors[i]
        x2, y2 = vectors[(i + 1) % k]
        total += math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2)
    return abs(round(total / (2 * math.pi)))


def integer_multiple(u, v):
    """The integer a with u == a*v, or None; v must be nonzero."""
    for c in (0, 1):
        if v[c] != 0:
            if u[c] % v[c] != 0:
                return None
            a = u[c] // v[c]
            return a if (a * v[0], a * v[1]) == (u[0], u[1]) else None
    return None


def recurrence_admissible(vectors):
    """Admissibility checked the literal way: every consecutive pair a
    basis, and at each index an integer a with v[i+1] = -a*v[i] - v[i-1]."""
    vs = [tuple(v) for v in vectors]
    k = len(vs)
    if k < 3 or any(v == (0, 0) for v in vs):
        return False
    for i in range(k):
        u, v = vs[i - 1], vs[i]
        if abs(u[0] * v[1] - u[1] * v[0]) != 1:
            return False
    for i in range(k):
        prev, nxt = vs[i - 1], vs[(i + 1) % k]
        target = (nxt[0] + prev[0], nxt[1] + prev[1])  # equals -a * v[i]
        if target != (0, 0) and integer_multiple(target, vs[i]) is None:
            return False
    return True


def extended_gcd(a, b):
    """(g, p, q) with a*p + b*q = g = gcd(a, b)."""
    old_r, r = a, b
    old_p, p = 1, 0
    old_q, q = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_p, p = p, old_p - quot * p
        old_q, q = q, old_q - quot * q
    return old_r, old_p, old_q


def _line_in_box(x0, y0, a, b, bound):
    # points (x0 + a*t, y0 + b*t) with both coordinates in [-bound, bound]
    lo, hi = -(10 ** 9), 10 ** 9
    for start, coeff in ((x0, a), (y0, b)):
        if coeff == 0:
            if abs(start) > bound:
                return
            continue
        t1 = (-bound - start) / coeff
        t2 = (bound - start) / coeff
        lo = max(lo, math.ceil(min(t1, t2)))
        hi = min(hi, math.floor(max(t1, t2)))
    for t in range(lo, hi + 1):
        yield (x0 + a * t, y0 + b * t)


def basis_pairs_in_box(bound):
    """Every ordered pair (v1, v2) with coordinates in [-bound, bound] and
    determinant ±1, enumerated along the two solution lines per v1."""
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            if (a, b) == (0, 0) or math.gcd(a, b) != 1:
                continue
            g, p, q = extended_gcd(a, b)  # a*p + b*q = 1
            for s in (1, -1):
                # a*y2 - b*x2 = s has particular solution (-q*s, p*s)
                for v2 in _line_in_box(-q * s, p * s, a, b, bound):
                    yield (a, b), v2


def enumerate_admissible_fans(k, bound):
    """All admissible fans of length k (3 or 4) with coordinates in the box.

    Complete by construction: the first two vectors range over all in-box
    basis pairs and each later vector is -a*previous - one_before for every
    integer a that keeps it inside the box; each full cycle is accepted by
    the literal recurrence check.
    """
    assert k in (3, 4)
    amax = 2 * bound
    for v1, v2 in basis_pairs_in_box(bound):
        for a in range(-amax, amax + 1):
            v3 = (-a * v2[0] - v1[0], -a * v2[1] - v1[1])
            if not (abs(v3[0]) <= bound and abs(v3[1]) <= bound):
                continue
            if k == 3:
                if recurrence_admissible([v1, v2, v3]):
                    yield (v1, v2, v3)
                continue
            for b in range(-amax, amax + 1):
                v4 = (-b * v3[0] - v2[0], -b * v3[1] - v2[1])
                if not (abs(v4[0]) <= bound and abs(v4[1]) <= bound):
                    continue
                if recurrence_admissible([v1, v2, v3, v4]):
                    yield (v1, v2, v3, v4)


def five_directions(fam):
    """The first five (1, N) directions clearing every vector of a family."""
    vectors = [v for fan in fam.fans for v in fan.vectors]
    out = []
    n = 1
    while len(out) < 5:
        if all(x + n * y != 0 for x, y in vectors):
            out.append((1, n))
        n += 1
    return out


def random_mutation(fam, rng):
    """One random blow-up, or a random blow-down when any sphere allows it."""
    down = [
        (j, i)
        for j, fan in enumerate(fam.fans)
        for i, a in enumerate(acx4.self_intersections(fan))
        if a == -1
    ]
    if down and rng.random() < 0.5:
        j, i = down[rng.randrange(len(down))]
        return acx4.blow_down_in_family(fam, j, i)
    j = rng.randrange(len(fam.fans))
    i = rng.randrange(len(fam.fans[j].vectors))
    return acx4.blow_up_in_family(fam, j, i)


def random_mutated_family(seed, max_blowups=50, mutations=10):
    """The acceptance-scale generator: up to 3 components of random
    orientation, up to `max_blowups` blow-ups, then `mutations` random
    blow-up/blow-down moves."""
    meta = random.Random(seed)
    components = meta.randint(1, 3)
    blowups = meta.randint(0, max_blowups)
    signs = [meta.choice((1, -1)) for _ in range(components)]
    fam = acx4.gen_random_family(seed, components, blowups, signs)
    rng = random.Random((seed << 1) ^ 0xACE)
    for _ in range(mutations):
        fam = random_mutation(fam, rng)
    return fam


def random_winding_fan(seed, winding, max_blowups=12):
    """A single fan of the requested winding number: the unit pattern
    repeated `winding` times, then random blow-ups."""
    rng = random.Random(seed)
    fan = acx4.validate_multifan([(1, 0), (0, 1), (-1, 0), (0, -1)] * winding)
    for _ in range(rng.randint(0, max_blowups)):
        fan = acx4.blow_up_fan(fan, rng.randrange(len(fan.vectors)))
    return fan


def scramble_graph(g, rng):
    """The same graph stored differently: renamed vertices, shuffled vertex
    and edge order, and random edges reversed with negated labels."""
    return scramble_graph_with_names(g, rng)[0]


def scramble_graph_with_names(g, rng):
    """scramble_graph, also returning the renaming as a dict old -> new."""
    names = {v: f"w{i}_{rng.randrange(1000)}" for i, v in enumerate(g.vertices)}
    vertices = [names[v] for v in g.vertices]
    rng.shuffle(vertices)
    edges = []
    for e in g.edges:
        if rng.random() < 0.5:
            edges.append((names[e.dst], names[e.src], (-e.label[0], -e.label[1])))
        else:
            edges.append((names[e.src], names[e.dst], e.label))
    rng.shuffle(edges)
    return acx4.validate_graph(vertices, edges), names


# --- the generic-direction scan that lattice.generic_direction replaced ------

def reference_generic_direction(vectors):
    """The first (1, N), N = 1, 2, ..., that pairs nonzero with every
    distinct vector, found by testing each candidate against all of them."""
    distinct = set(vectors)
    for n in range(1, len(distinct) + 2):
        if all(x + n * y != 0 for x, y in distinct):
            return (1, n)
    raise InternalInconsistency("generic-direction scan exceeded its bound")


# --- reference implementations of the replaced rewrite paths ---------------
#
# The library's rewrites check only the determinants they touch, its
# reduction engine finds the longest vector through cached block maxima and
# checks each step by the Dershowitz-Manna multiset rule, and canonical_form
# runs the two-pointer least-rotation scan.  What follows is the slower code
# they replaced: every rewrite re-validates the whole fan, the engine scans
# the whole family for the longest vector and re-sorts the full norm profile
# after every iteration, and canonical_form builds every rotation.  The
# faster paths must agree with these exactly, outputs and errors alike.

def reference_blow_up_fan(fan, i):
    vs = fan.vectors
    k = len(vs)
    if not 0 <= i < k:
        raise IndexOutOfRange(i, k)
    inserted = (vs[i][0] + vs[(i + 1) % k][0], vs[i][1] + vs[(i + 1) % k][1])
    return acx4.validate_multifan(vs[: i + 1] + (inserted,) + vs[i + 1 :])


def reference_blow_down_fan(fan, i):
    vs = fan.vectors
    k = len(vs)
    if not 0 <= i < k:
        raise IndexOutOfRange(i, k)
    if vs[i] != (vs[i - 1][0] + vs[(i + 1) % k][0],
                 vs[i - 1][1] + vs[(i + 1) % k][1]):
        raise NotBlowDownable(i)
    return acx4.validate_multifan(vs[:i] + vs[i + 1 :])


def _reference_in_family(rewrite, fam, fan_index, i):
    if not 0 <= fan_index < len(fam.fans):
        raise IndexOutOfRange(fan_index, len(fam.fans))
    new = rewrite(fam.fans[fan_index], i)
    return acx4.MultiFanFamily(
        fam.fans[:fan_index] + (new,) + fam.fans[fan_index + 1 :])


def reference_apply_move(fam, move):
    if move.kind == acx4.BLOW_UP:
        new_fam = _reference_in_family(reference_blow_up_fan, fam,
                                       move.fan_index, move.position)
        got = new_fam.fans[move.fan_index].vectors[move.position + 1]
        if got != move.vector:
            raise DomainError(
                f"recorded vector {move.vector} differs from inserted {got}")
        return new_fam
    if move.kind == acx4.BLOW_DOWN:
        fan = fam.fans[move.fan_index] if 0 <= move.fan_index < len(fam.fans) else None
        if fan is not None and (
            not 0 <= move.position < len(fan.vectors)
            or fan.vectors[move.position] != move.vector
        ):
            raise DomainError(
                f"recorded vector {move.vector} is not at position {move.position}")
        return _reference_in_family(reference_blow_down_fan, fam,
                                    move.fan_index, move.position)
    raise DomainError(f"unknown move kind {move.kind!r}")


def reference_replay(initial, moves):
    fam = initial
    for i, mv in enumerate(moves):
        try:
            fam = reference_apply_move(fam, mv)
        except DomainError as exc:
            raise MoveInapplicable(i, str(exc)) from exc
    return fam


def reference_gen_random_family(seed, components=1, blowups=0, signs=None):
    # the generator as it drew through Random.randrange, kept verbatim
    as_int(components, "components")
    as_int(blowups, "blowups")
    if components < 1:
        raise DomainError(f"components must be >= 1, got {components}")
    if blowups < 0:
        raise DomainError(f"blowups must be >= 0, got {blowups}")
    if signs is None:
        signs = [1] * components
    # make_minimal_family reads the signs once and refuses a bad list
    fans = [list(fan.vectors) for fan in acx4.make_minimal_family(signs).fans]
    if len(fans) != components:
        raise DomainError("signs, when given, must have one entry per component")
    rng = random.Random(seed)
    for _ in range(blowups):
        vs = fans[rng.randrange(len(fans))]
        acx4.blow_up_inplace(vs, rng.randrange(len(vs)))
    return acx4.MultiFanFamily(tuple(acx4.MultiFan(tuple(vs)) for vs in fans))


def reference_realize_chi_y(n0, n1):
    # one copying blow_up_fan per added fixed point
    fan = acx4.make_todd_fan(n0)
    for _ in range(n1 - 1):
        fan = acx4.blow_up_fan(fan, 0)
    return acx4.MultiFanFamily((fan,))


def _reference_choice(v1, v2):
    # the sign rule with both of its branches, as first written
    target = v2[0] ** 2 + v2[1] ** 2
    n_minus = (v2[0] - v1[0]) ** 2 + (v2[1] - v1[1]) ** 2
    n_plus = (v2[0] + v1[0]) ** 2 + (v2[1] + v1[1]) ** 2
    ok_minus, ok_plus = n_minus < target, n_plus < target
    assert ok_minus or ok_plus, (v1, v2)
    if ok_minus and ok_plus:
        return -1 if n_minus <= n_plus else 1
    return -1 if ok_minus else 1


def _reference_profile(fam):
    return tuple(sorted((x * x + y * y for fan in fam.fans for x, y in fan.vectors),
                        reverse=True))


def _reference_longest(fam):
    best, where = 1, None
    for j, fan in enumerate(fam.fans):
        for i, (x, y) in enumerate(fan.vectors):
            if x * x + y * y > best:
                best, where = x * x + y * y, (j, i)
    return where


def _reference_iteration(fam, j, i):
    Move = acx4.Move
    vs = fam.fans[j].vectors
    k = len(vs)
    w1, w, w2 = vs[(i - 1) % k], vs[i], vs[(i + 1) % k]
    a = acx4.orientation(fam.fans[j]) * acx4.det2(w2, w1)
    assert a in (-1, 0, 1), a
    if a == -1:
        return [Move(acx4.BLOW_DOWN, j, i, w)]
    pair = (i - 1) % k
    w_pos = i + 1 if pair + 1 <= i else i
    if a == 0:
        if _reference_choice(w1, w) == -1:
            return [Move(acx4.BLOW_UP, j, i, (w[0] - w1[0], w[1] - w1[1])),
                    Move(acx4.BLOW_DOWN, j, i, w)]
        return [Move(acx4.BLOW_UP, j, pair, (w[0] + w1[0], w[1] + w1[1])),
                Move(acx4.BLOW_DOWN, j, w_pos, w)]
    return [Move(acx4.BLOW_UP, j, pair, (-w2[0], -w2[1])),
            Move(acx4.BLOW_UP, j, w_pos, (-w1[0], -w1[1])),
            Move(acx4.BLOW_DOWN, j, w_pos, w)]


def reference_reduce_to_minimal(fam):
    """The whole-family-scan engine: same log, same final family."""
    state = fam
    moves = []
    profile = _reference_profile(state)
    while True:
        where = _reference_longest(state)
        if where is None:
            break
        step = _reference_iteration(state, *where)
        for mv in step:
            state = reference_apply_move(state, mv)
        moves.extend(step)
        new_profile = _reference_profile(state)
        assert new_profile < profile
        profile = new_profile
    assert all(acx4.is_minimal_fan(fan) for fan in state.fans)
    return state, acx4.MoveLog(fam, tuple(moves), state)


def reference_canonical_form(fan, mode=acx4.ROTATIONS):
    """The least of all k rotations (and, in full mode, of all k rotations
    of the reversed, negated sequence)."""
    vs = fan.vectors
    candidates = [vs[i:] + vs[:i] for i in range(len(vs))]
    if mode == acx4.ROTATIONS_AND_REVERSAL:
        back = tuple((-x, -y) for x, y in reversed(vs))
        candidates.extend(back[i:] + back[:i] for i in range(len(back)))
    return acx4.MultiFan(min(candidates))


# --- reference implementations of the replaced graph paths ------------------
#
# The library's graph rewrites normalize only an undirected input, edit the
# vertex and edge tuples in place of the touched vertex and check the
# touched determinants with the fan kernel.  The code below is what they
# replaced: normalize the whole graph, rebuild both tuples by a scan, and
# run the full validator on the result.  is_minimal_graph now reads the
# fans; its reference matches the literal unit-label blocks at every
# rotation of every normalized cycle.

def _reference_fresh(base, used):
    name = base
    n = 2
    while name in used:
        name = f"{base}_{n}"
        n += 1
    used.add(name)
    return name


def reference_blow_up_graph(g, v):
    Edge = acx4.Edge
    if v not in g.vertices:
        raise UnknownVertex(v)
    ng = acx4.normalize_orientation(g)
    (in_idx,) = [i for i, e in enumerate(ng.edges) if e.dst == v]
    (out_idx,) = [i for i, e in enumerate(ng.edges) if e.src == v]
    in_e = ng.edges[in_idx]
    out_e = ng.edges[out_idx]
    used = set(ng.vertices)
    used.discard(v)
    v1 = _reference_fresh(v + "'", used)
    v2 = _reference_fresh(v + "''", used)
    vertices = []
    for u in ng.vertices:
        if u == v:
            vertices.extend((v1, v2))
        else:
            vertices.append(u)
    middle = Edge(v1, v2, add(in_e.label, out_e.label))
    edges = []
    for i, e in enumerate(ng.edges):
        if i == in_idx:
            edges.append(Edge(e.src, v1, e.label))
            edges.append(middle)
        elif i == out_idx:
            edges.append(Edge(v2, e.dst, e.label))
        else:
            edges.append(e)
    return acx4.validate_graph(vertices, edges)


def reference_blow_down_graph(g, edge):
    Edge = acx4.Edge
    if isinstance(edge, Edge):
        a, b = edge.src, edge.dst
    else:
        a, b = edge
    for u in (a, b):
        if u not in g.vertices:
            raise UnknownVertex(u)
    ng = acx4.normalize_orientation(g)
    mids = [i for i, e in enumerate(ng.edges) if {e.src, e.dst} == {a, b}]
    if not mids:
        raise DomainError(f"no edge joins {a!r} and {b!r}")
    (mid_idx,) = mids
    mid = ng.edges[mid_idx]
    p1, p2 = mid.src, mid.dst
    (in_idx,) = [i for i, e in enumerate(ng.edges) if e.dst == p1]
    (out_idx,) = [i for i, e in enumerate(ng.edges) if e.src == p2]
    in_e = ng.edges[in_idx]
    out_e = ng.edges[out_idx]
    if mid.label != add(in_e.label, out_e.label):
        raise NotBlowDownable((p1, p2))
    p = min(p1, p2)
    first = p1 if ng.vertices.index(p1) < ng.vertices.index(p2) else p2
    vertices = [p if u == first else u
                for u in ng.vertices if u in (first,) or u not in (p1, p2)]
    edges = []
    for i, e in enumerate(ng.edges):
        if i == mid_idx:
            continue
        if i == in_idx:
            edges.append(Edge(e.src, p, e.label))
        elif i == out_idx:
            edges.append(Edge(p, e.dst, e.label))
        else:
            edges.append(e)
    return acx4.validate_graph(vertices, edges)


_MINIMAL_BLOCKS = (
    ((1, 0), (0, 1), (-1, 0), (0, -1)),
    ((1, 0), (0, -1), (-1, 0), (0, 1)),
)


def reference_is_minimal_graph(g):
    """Every normalized cycle reads (1,0), (0,a), (-1,0), (0,-a) repeated,
    a in {-1, +1} per block, from some starting vertex."""
    for cycle in normalized_components(g):
        labels = [oe.label for _, oe in cycle]
        k = len(labels)
        if k % 4 != 0:
            return False
        if not any(
            all(tuple(rot[t : t + 4]) in _MINIMAL_BLOCKS for t in range(0, k, 4))
            for rot in (labels[r:] + labels[:r] for r in range(k))
        ):
            return False
    return True


# --- reference implementations of the replaced normal-form readers ----------
#
# recognize_four reads a off the fan's self-intersection numbers and
# normalize_complex reads the unit model's sign from the fan orientation and
# its rotation from the position of (1, 0).  The code below is what they
# replaced: a by integer division of w[2] + w[0] by w[1], and a scan of both
# signs times all four rotations of the unit pattern.

def _reference_integer_ratio(u, v):
    # the integer a with u == a*v, or None; v is nonzero
    if v[0] != 0:
        a, rem = divmod(u[0], v[0])
        if rem == 0 and a * v[1] == u[1]:
            return a
        return None
    if u[0] != 0:
        return None
    a, rem = divmod(u[1], v[1])
    return a if rem == 0 else None


def reference_recognize_four(fan):
    if len(fan.vectors) != 4:
        raise PreconditionViolated("recognize_four needs a 4-vector fan")
    vs = fan.vectors
    for rotation in range(4):
        w = [vs[(rotation + t) % 4] for t in range(4)]
        if w[3] == neg(w[1]):
            a = _reference_integer_ratio(add(w[2], w[0]), w[1])
            if a is not None:
                return acx4.HirzebruchForm(w[0], w[1], a, rotation)
    raise InternalInconsistency("no rotation matches the 4-point normal form")


def reference_normalize_complex(fan):
    t = acx4.winding_number(fan)
    if t != 1:
        raise NotToddOne(t)
    final_family, log = acx4.reduce_to_minimal(acx4.MultiFanFamily((fan,)))
    (final,) = final_family.fans
    if len(final.vectors) != 4:
        raise InternalInconsistency(
            f"winding-one reduction ended with {len(final.vectors)} vectors")
    for a in (1, -1):
        pattern = ((1, 0), (0, a), (-1, 0), (0, -a))
        for rotation in range(4):
            if all(final.vectors[(rotation + t_) % 4] == pattern[t_] for t_ in range(4)):
                return log, acx4.ComplexModel("CP1 x CP1", a, rotation)
    raise InternalInconsistency("minimal 4-fan does not match the unit pattern")


# --- the cycle walk, from its docstring --------------------------------------
#
# normalized_components finds components through an incidence map and a
# stack.  The walk below is written from its docstring alone: components in
# first-appearance order of their vertices, each walked from its least
# vertex id along that vertex's outgoing edge when it has one (the
# earlier-stored edge on a tie), and each edge walked against its stored
# direction reversed with a negated label.  Every lookup is a scan.

def _reference_component(g, seed):
    component = {seed}
    grown = True
    while grown:
        grown = False
        for e in g.edges:
            if (e.src in component) != (e.dst in component):
                component |= {e.src, e.dst}
                grown = True
    return component


def reference_normalized_components(g):
    Edge = acx4.Edge
    cycles = []
    walked = set()
    for seed in g.vertices:
        if seed in walked:
            continue
        component = _reference_component(g, seed)
        walked |= component
        start = min(component)
        at_start = [i for i, e in enumerate(g.edges) if start in (e.src, e.dst)]
        leaving = [i for i in at_start if g.edges[i].src == start]
        idx = (leaving or at_start)[0]
        cur = start
        cycle = []
        while True:
            e = g.edges[idx]
            if e.src == cur:
                cycle.append((idx, e))
                cur = e.dst
            else:
                cycle.append((idx, Edge(cur, e.src, neg(e.label))))
                cur = e.src
            if cur == start:
                break
            (idx,) = [i for i, f in enumerate(g.edges)
                      if i != idx and cur in (f.src, f.dst)]
        cycles.append(cycle)
    return cycles


# normalized_components walks each component once and rotates the walk to
# its least vertex.  The code below is what it replaced, kept as it was: an
# incidence map, one walk from the component's first vertex to find its
# vertices, and a second walk from the least of them.

def _two_walk_cycle(g, inc, start, idx, outgoing):
    cycle = []
    cur = start
    while True:
        e = g.edges[idx]
        oriented = e if outgoing else acx4.Edge(cur, e.src, neg(e.label))
        cycle.append((idx, oriented))
        cur = oriented.dst
        if cur == start:
            return cycle
        a, b = inc[cur]
        idx, outgoing = b if a[0] == idx else a


def two_walk_normalized_components(g):
    inc = {v: [] for v in g.vertices}
    try:
        for idx, e in enumerate(g.edges):
            inc[e.src].append((idx, True))
            inc[e.dst].append((idx, False))
    except KeyError as exc:
        raise UnknownVertex(exc.args[0]) from None
    for v, slots in inc.items():
        if len(slots) != 2:
            raise NotTwoRegular(v, len(slots))
    visited = set()
    cycles = []
    for seed in g.vertices:
        if seed in visited:
            continue
        component = [oe.src for _, oe in _two_walk_cycle(g, inc, seed, *inc[seed][0])]
        visited.update(component)
        start = min(component)
        a, b = inc[start]
        cycles.append(_two_walk_cycle(g, inc, start, *(a if a[1] or not b[1] else b)))
    return cycles


def reference_normalize_orientation(g):
    edges = list(g.edges)
    for cycle in reference_normalized_components(g):
        for idx, oriented in cycle:
            edges[idx] = oriented
    return acx4.TorusGraph(g.vertices, tuple(edges))


def reference_graph_to_family(g):
    return acx4.MultiFanFamily(tuple(
        acx4.MultiFan(tuple(oriented.label for _, oriented in cycle))
        for cycle in reference_normalized_components(g)))


# weights_at reads v's two edges from the directed view the rewrites
# read; the reference scans every edge.

def reference_weights_at(g, v):
    if v not in g.vertices:
        raise UnknownVertex(v)
    ws = []
    for e in g.edges:
        if e.src == v:
            ws.append(e.label)
        if e.dst == v:
            ws.append(neg(e.label))
    return tuple(sorted(ws))


# --- the replaced SVG scaling -------------------------------------------------
#
# render_fan_svg divides each int coordinate by the int span as floats.  The
# code below is what it replaced: the same picture, scaled through the exact
# ratio Fraction(x, span) and only then rounded to a float.

def reference_render_fan_svg(fam):
    vectors = [v for fan in fam.fans for v in fan.vectors]
    span = max(max(abs(x), abs(y)) for x, y in vectors)
    size = 480
    margin = 48
    extent = size / 2 - margin
    half = size / 2

    def px(x):
        return f"{half + extent * float(Fraction(x, span)):.2f}"

    def py(y):
        return f"{half - extent * float(Fraction(y, span)):.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        "  <defs>",
        '    <marker id="tip" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        'orient="auto">',
        '      <path d="M0,0 L6,3 L0,6 z"/>',
        "    </marker>",
        "  </defs>",
        f'  <line class="axis" x1="0" y1="{py(0)}" x2="{size}" y2="{py(0)}" '
        'stroke="#bbbbbb"/>',
        f'  <line class="axis" x1="{px(0)}" y1="0" x2="{px(0)}" y2="{size}" '
        'stroke="#bbbbbb"/>',
    ]
    for fan in fam.fans:
        for x, y in fan.vectors:
            lines.append(
                f'  <line class="arrow" x1="{px(0)}" y1="{py(0)}" '
                f'x2="{px(x)}" y2="{py(y)}" stroke="#000000" '
                'marker-end="url(#tip)"/>')
            lines.append(
                f'  <text x="{px(x)}" y="{py(y)}" font-size="12">({x},{y})</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# --- the replaced JSON emitter ------------------------------------------------
#
# serialize writes each document from fixed text templates.  The code below
# is what it replaced: a tree of dicts and lists printed by
# json.dumps(indent=2), whose bytes the templates must match exactly.

_JSON_SAFE_INT = (1 << 53) - 1


def _reference_int(n):
    return n if -_JSON_SAFE_INT <= n <= _JSON_SAFE_INT else str(n)


def _reference_vec(v):
    return [_reference_int(v[0]), _reference_int(v[1])]


def _reference_family_obj(fam):
    return {"format": FORMAT_FAMILY,
            "fans": [{"vectors": [_reference_vec(v) for v in fan.vectors]}
                     for fan in fam.fans]}


def _reference_log_obj(log):
    return {"format": FORMAT_LOG,
            "initial": _reference_family_obj(log.initial),
            "moves": [{"kind": m.kind, "fan": m.fan_index, "position": m.position,
                       "vector": _reference_vec(m.vector)} for m in log.moves],
            "final": _reference_family_obj(log.final)}


def _reference_document_obj(doc):
    p = doc.payload
    if doc.format == FORMAT_FAMILY:
        return _reference_family_obj(p)
    if doc.format == FORMAT_GRAPH:
        return {"format": FORMAT_GRAPH, "vertices": list(p.vertices),
                "edges": [{"from": e.src, "to": e.dst, "label": _reference_vec(e.label)}
                          for e in p.edges]}
    if doc.format == FORMAT_LOG:
        return _reference_log_obj(p)
    assert doc.format == FORMAT_REPORT
    return {"format": FORMAT_REPORT, "a": [p.a0, p.a1, p.a2], "euler": p.euler,
            "todd": p.todd, "signature": p.signature, "c1_sq": p.c1_sq, "c2": p.c2}


def _reference_dumps(obj):
    with digit_limit():
        return json.dumps(obj, indent=2) + "\n"


def reference_emit_document(doc):
    return _reference_dumps(_reference_document_obj(doc))


def _reference_normal_form_obj(form):
    if form is None:
        return {"kind": "large"}
    if isinstance(form, acx4.HirzebruchForm):
        return {"kind": "four", "v1": _reference_vec(form.v1),
                "v2": _reference_vec(form.v2), "a": form.a, "rotation": form.rotation}
    return {"kind": "three", "v1": _reference_vec(form[0]), "v2": _reference_vec(form[1])}


def reference_emit_classification(rows):
    return _reference_dumps({"fans": [
        {"length": len(fan.vectors),
         "normal_form": _reference_normal_form_obj(form),
         "plumbing": [{"euler_number": piece.euler_number,
                       "sphere_weights": [_reference_vec(w) for w in piece.sphere_weights]}
                      for piece in plumbing]}
        for fan, form, plumbing in rows]})


def reference_emit_normal_form(log, model):
    return _reference_dumps({
        "model": {"name": model.name, "a": model.a, "rotation": model.rotation},
        "log": _reference_log_obj(log)})


def reference_log_text(log, p=""):
    """The text the emitter wrote for a log at indent p, then a newline,
    before a run's repeats became column text: every move of a run is one
    % format of the emitter's move template, from the run's closed form,
    and a run with a coordinate past 2**53 - 1 is written move by move."""
    safe = serialize._JSON_SAFE_INT
    kinds = serialize._KIND_TEXT
    head, tail = serialize._move_template(p)
    vec = tail % ("%d", "%d")

    def texts(moves):
        return [(head + vec) % (kinds[kind], fan, position, x, y)
                if abs(x) <= safe and abs(y) <= safe else
                (head + tail) % (kinds[kind], fan, position,
                                 serialize._int(x), serialize._int(y))
                for kind, fan, position, (x, y) in moves]

    start, to_moves, after_moves, to_final, close = serialize._log_frame(p)
    parts = []
    for entry in log.entries:
        if type(entry) is not acx4.reduction.Run:
            parts += texts([entry])
            continue
        # each step's vectors w + r*delta, r = 0..count, in order
        paths = [[(x + r * dx, y + r * dy) for r in range(entry.count + 1)]
                 for (*_, (dx, dy)), (x, y) in zip(entry.steps, entry.starts)]
        if any(abs(c) > safe for path in paths for c in path[0] + path[-1]):
            parts += texts(entry.moves())
            continue
        columns = []
        for (j, up, down, _), path in zip(entry.steps, paths):
            up_move = head % (kinds[acx4.BLOW_UP], j, up) + vec
            down_move = head % (kinds[acx4.BLOW_DOWN], j, down) + vec
            columns += [[up_move % w for w in path[1:]],
                        [down_move % w for w in path[:-1]]]
        parts += [text for repeat in zip(*columns) for text in repeat]
    moves = "".join(parts)[1:] + after_moves if parts else "]"
    return "".join([start, serialize._family_text(log.initial, p + "  "), to_moves, moves,
                    to_final, serialize._family_text(log.final, p + "  "), close, "\n"])
