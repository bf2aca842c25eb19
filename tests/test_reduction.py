import copy
import pickle
import random
from math import inf

import pytest

import oracles
import acx4
from acx4 import reduction
from acx4.errors import (
    DomainError,
    InternalInconsistency,
    MoveInapplicable,
    NotToddOne,
)
from acx4.reduction import BLOW_DOWN, BLOW_UP, Move

CP2 = acx4.make_cp2_fan((1, 0), (-1, 1))
MINIMAL = acx4.validate_multifan([(1, 0), (0, 1), (-1, 0), (0, -1)])


def family_of(*fans):
    return acx4.MultiFanFamily(tuple(fans))


def sigma(n):
    return acx4.make_hirzebruch_fan((1, 0), (0, 1), n)


def test_reduce_cp2_exact_trace():
    final, log = acx4.reduce_to_minimal(family_of(CP2))
    assert final.fans[0] == MINIMAL
    assert [m.kind for m in log.moves] == [BLOW_UP, BLOW_UP, BLOW_DOWN]
    assert [m.vector for m in log.moves] == [(0, 1), (-1, 0), (-1, 1)]
    assert acx4.replay(log.initial, log.moves) == log.final == final


def test_reduce_sigma_takes_two_moves_per_step():
    for n in range(1, 7):
        final, log = acx4.reduce_to_minimal(family_of(sigma(n)))
        assert len(log.moves) == 2 * n
        assert final.fans[0] == MINIMAL
    final, log = acx4.reduce_to_minimal(family_of(sigma(0)))
    assert log.moves == ()


def test_reduce_minimal_family_is_noop():
    fam = acx4.make_minimal_family([1, -1])
    final, log = acx4.reduce_to_minimal(fam)
    assert final == fam
    assert log.moves == ()


def test_reduce_random_families():
    rng = random.Random(1234)
    for _ in range(150):
        fam = oracles.random_mutated_family(rng.randrange(1 << 30),
                                            max_blowups=12, mutations=4)
        final, log = acx4.reduce_to_minimal(fam)
        assert len(final.fans) == len(fam.fans)
        for before, after in zip(fam.fans, final.fans):
            assert acx4.is_minimal_fan(after)
            assert acx4.winding_number(after) == acx4.winding_number(before)
        assert acx4.replay(fam, log.moves) == final
        again, log2 = acx4.reduce_to_minimal(final)
        assert again == final and log2.moves == ()


def test_chi_y_shifts_along_any_log():
    rng = random.Random(4321)
    for _ in range(40):
        fam = oracles.random_mutated_family(rng.randrange(1 << 30),
                                            max_blowups=8, mutations=3)
        _, log = acx4.reduce_to_minimal(fam)
        state = fam
        report = acx4.chi_y_report(state)
        for move in log.moves:
            state = acx4.replay(state, [move])
            after = acx4.chi_y_report(state)
            delta = 1 if move.kind == BLOW_UP else -1
            assert after.a1 == report.a1 + delta
            assert (after.a0, after.a2) == (report.a0, report.a2)
            report = after


def test_replay_empty_and_mismatched():
    fam = family_of(CP2)
    assert acx4.replay(fam, ()) == fam
    _, log = acx4.reduce_to_minimal(fam)
    other = family_of(sigma(5))
    with pytest.raises(MoveInapplicable) as exc:
        acx4.replay(other, log.moves)
    assert exc.value.index == 0
    bad = (Move(BLOW_DOWN, 0, 0, (1, 0)),)
    with pytest.raises(MoveInapplicable):
        acx4.replay(fam, bad)
    with pytest.raises(MoveInapplicable):
        acx4.replay(fam, (Move(BLOW_UP, 5, 0, (1, 1)),))
    # a caller's item that is not a Move is a bad input, not a crash
    for item, name in ((("blow_up", 0, 0, (1, 1)), "tuple"), (None, "NoneType")):
        with pytest.raises(MoveInapplicable,
                           match=f"move 1 does not apply: expected a Move, got {name}$"):
            acx4.replay(fam, [log.moves[0], item])


def test_moves_from_callers_need_integer_indices():
    fam = acx4.make_minimal_family([1])
    with pytest.raises(DomainError, match="fan_index must be an integer, got 0.0"):
        acx4.replay(fam, [Move(BLOW_UP, 0.0, 0, (1, 1))])
    with pytest.raises(MoveInapplicable,
                       match="position must be an integer, got 1.0"):
        acx4.replay(fam, (Move(BLOW_DOWN, 0, 1.0, (0, 1)),))


def test_move_is_a_frozen_value_equal_to_its_fields():
    fields = (BLOW_UP, 0, 2, (1, -3))
    move = Move(*fields)
    assert repr(move) == "Move(kind='blow_up', fan_index=0, position=2, vector=(1, -3))"
    assert move == fields and hash(move) == hash(fields)
    with pytest.raises(AttributeError):
        move.position = 3
    for again in (pickle.loads(pickle.dumps(move)), copy.copy(move), copy.deepcopy(move)):
        assert type(again) is Move and again == move
    # a log hashes its expanded moves, runs or not
    for fam in (family_of(CP2), family_of(sigma(40))):
        _, log = acx4.reduce_to_minimal(fam)
        assert hash(log) == hash((log.initial, log.moves, log.final))
    assert any(type(entry) is reduction.Run for entry in log.entries)


def test_normalize_complex_golden():
    log, model = acx4.normalize_complex(CP2)
    assert len(log.moves) == 3
    assert model.name == "CP1 x CP1"
    assert model.a in (1, -1)
    pattern = ((1, 0), (0, model.a), (-1, 0), (0, -model.a))
    final = log.final.fans[0]
    assert all(final.vectors[(model.rotation + t) % 4] == pattern[t]
               for t in range(4))
    log, model = acx4.normalize_complex(MINIMAL)
    assert log.moves == ()
    with pytest.raises(NotToddOne):
        acx4.normalize_complex(acx4.make_todd_fan(2))


def test_normalize_complex_random_winding_one():
    rng = random.Random(5678)
    for _ in range(100):
        fan = oracles.random_winding_fan(rng.randrange(1 << 30), 1)
        log, model = acx4.normalize_complex(fan)
        assert len(log.final.fans[0].vectors) == 4
        assert acx4.is_minimal_fan(log.final.fans[0])


def test_normalize_complex_matches_reference_on_the_5_box():
    for fan_vectors in oracles.enumerate_admissible_fans(4, 5):
        fan = acx4.validate_multifan(fan_vectors)
        assert acx4.normalize_complex(fan) == oracles.reference_normalize_complex(fan)


def test_normalize_complex_matches_reference_on_criterion_10_fans():
    # the draws of criterion 10, keeping its winding-one fans
    rng = random.Random(0xCA)
    count = 0
    for _ in range(1000):
        winding = rng.randint(1, 3)
        fan = oracles.random_winding_fan(rng.randrange(1 << 30), winding)
        if winding == 1:
            assert acx4.normalize_complex(fan) == oracles.reference_normalize_complex(fan)
            count += 1
    assert count > 250


def test_norm_profile_decreases_per_iteration_groups():
    # regroup a log into its per-iteration scripts and re-check the metric
    rng = random.Random(8765)
    for _ in range(30):
        fam = oracles.random_mutated_family(rng.randrange(1 << 30),
                                            max_blowups=10, mutations=3)
        _, log = acx4.reduce_to_minimal(fam)
        moves = list(log.moves)
        state = fam
        profile = sorted((acx4.norm_sq(v) for f in state.fans
                          for v in f.vectors), reverse=True)
        p = 0
        while p < len(moves):
            if moves[p].kind == BLOW_DOWN:
                group = 1
            elif moves[p + 1].kind == BLOW_DOWN:
                group = 2
            else:
                group = 3
            for move in moves[p : p + group]:
                state = acx4.replay(state, [move])
            p += group
            new_profile = sorted((acx4.norm_sq(v) for f in state.fans
                                  for v in f.vectors), reverse=True)
            assert new_profile < profile
            profile = new_profile
        assert state == log.final


def euclid(n):
    return acx4.validate_multifan([(1, 0), (n, 1), (-n - 1, -1)])


@pytest.mark.parametrize("fan", [sigma(2**53), sigma(10**20), euclid(10**20)],
                         ids=["hirzebruch-2^53", "hirzebruch-1e20", "euclid-1e20"])
def test_reductions_past_max_moves_are_refused(fan):
    # refused from the run's closed form, before any of its moves is built
    with pytest.raises(DomainError, match=f"more than MAX_MOVES = {10**6}$"):
        acx4.reduce_to_minimal(family_of(fan))
    with pytest.raises(DomainError, match="MAX_MOVES"):
        acx4.normalize_complex(fan)


def test_multi_fan_runs_past_max_moves_are_refused(monkeypatch):
    # three tying fans make a block of six steps, refused from its closed
    # form after a few checked iterations, not a million stepwise moves
    calls = []
    real = reduction._iteration_moves
    monkeypatch.setattr(reduction, "_iteration_moves",
                        lambda *args: calls.append(args) or real(*args))
    with pytest.raises(DomainError, match=f"more than MAX_MOVES = {10**6}$"):
        acx4.reduce_to_minimal(acx4.MultiFanFamily((euclid(10**5),) * 3))
    assert len(calls) == 15


# a pair keyed (0, 3, -1), then a stream, then the keys the cutter holds
KEYED = [(BLOW_UP, 0, 3), (BLOW_DOWN, 0, 3)]


@pytest.mark.parametrize("stream, keys", [
    ([(BLOW_UP, 0, 5), (BLOW_DOWN, 0, 5)], [(0, 3, -1), (0, 5, -1)]),
    ([(BLOW_UP, 0, 4), (BLOW_DOWN, 0, 6)], [(0, 3, -1), (0, 5, 1)]),
    ([(BLOW_UP, 0, 7), (BLOW_DOWN, 0, 0)], []),
    ([(BLOW_UP, 0, 4), (BLOW_UP, 0, 5), (BLOW_DOWN, 0, 5)], []),
    ([(BLOW_UP, 0, 5), (BLOW_DOWN, 1, 5)], []),
    ([(BLOW_DOWN, 0, 5)], []),
], ids=["same-place", "two-places-on", "wrapping-pair", "up-up-down",
        "two-fans", "lone-down"])
def test_cutter_keys_only_a_blow_up_and_its_blow_down(stream, keys):
    # two fans of eight vectors: only the lengths matter to the keys
    cutter = reduction.RunCutter([[(1, 0)] * 8, [(0, 1)] * 8])
    assert [cutter.feed(*move) for move in KEYED + stream] == [None] * (2 + len(stream))
    assert cutter.keys == keys


def test_cutter_blocks_hold_no_keys_from_before_an_up_up_pair():
    cutter = reduction.RunCutter([[(1, 0)] * 8])
    blocks = [cutter.feed(*move) for move in KEYED * 2]
    assert blocks == [None, None, None, [(0, 3, -1)]]
    cutter.keys.clear()
    stream = KEYED + [(BLOW_UP, 0, 5), (BLOW_UP, 0, 6)] + KEYED
    assert [cutter.feed(*move) for move in stream] == [None] * 6
    assert cutter.keys == [(0, 3, -1)]


def test_cutter_takes_the_repeats_it_is_given():
    # euclid N = 10: feed the engine's moves until a block repeats, then
    # take two repeats in closed form and compare with applying them
    _, log = acx4.reduce_to_minimal(family_of(euclid(10)))
    moves = log.moves
    fans = [list(log.initial.fans[0].vectors)]
    cutter = reduction.RunCutter(fans)
    for n, move in enumerate(moves):
        reduction.apply_move(fans, *move)
        block = cutter.feed(move.kind, move.fan_index, move.position)
        if block:
            break
    before = copy.deepcopy(fans)
    assert cutter.take_run(block, 0) is None
    assert fans == before and cutter.keys
    run = cutter.take_run(block, 2)
    assert run.count == 2 and not cutter.keys
    assert run.moves() == list(moves[n + 1 : n + 1 + 4 * len(block)])
    for move in run.moves():
        reduction.apply_move(before, *move)
    assert fans == before


def test_first_failure_matches_a_scan():
    # the least r >= 0 with a*r*r + b*r + c <= 0; a convex quadratic whose
    # roots fall between two integers, such as (9, -9, 2), has none
    def scan(a, b, c):
        # any answer in the box is below |b| + |c| + 3
        return next((r for r in range(abs(b) + abs(c) + 3)
                     if (a * r + b) * r + c <= 0), inf)

    box = range(-12, 13)
    for a in box:
        for b in box:
            for c in box:
                assert reduction._first_failure(a, b, c) == scan(a, b, c), (a, b, c)
    # large coefficients around known integer roots
    rng = random.Random(0x1F)
    for _ in range(500):
        m = rng.randint(1, 10**6)
        big = rng.randint(3, 10**6)
        k = rng.randint(1, 10**40)
        gap = rng.randint(2, 10**40)
        cases = [
            # m(r - k)(r - k - gap), then shifted up by one
            ((m, -m * (2 * k + gap), m * k * (k + gap)), k),
            ((m, -m * (2 * k + gap), m * k * (k + gap) + 1), k + 1),
            # m(r - k)(r - k - 1) + 1 stays above 0 on the integers, and
            # m(r - k)^2 touches 0 only at k, and not once shifted up by one
            ((m, -m * (2 * k + 1), m * k * (k + 1) + 1), inf),
            ((m, -2 * m * k, m * k * k), k),
            ((m, -2 * m * k, m * k * k + 1), inf),
            # (big r - big k - 1)(big r - big k - 2): both roots inside (k, k + 1)
            ((big * big, -big * (2 * big * k + 3), (big * k + 1) * (big * k + 2)), inf),
            # -m(r - k)(r + gap), and -(big r - big k - 1)(big r + 1)
            ((-m, m * (k - gap), m * k * gap), k),
            ((-big * big, big * big * k, big * k + 1), k + 1),
            ((0, -m, m * k), k),
            ((0, -m, m * k + 1), k + 1),
        ]
        for coefficients, first in cases:
            assert reduction._first_failure(*coefficients) == first, coefficients


def test_max_moves_bounds_the_log_exactly(monkeypatch):
    # euclid(100) takes 403 moves, most of them in one run; CP2 takes 3
    # in single steps; 200 generated blow-ups are undone by the leading
    # blow-down stretch alone
    cases = ((family_of(euclid(100)), 403), (family_of(CP2), 3),
             (acx4.gen_random_family(5, 2, 200), 200))
    for fam, count in cases:
        monkeypatch.setattr(reduction, "MAX_MOVES", count)
        assert len(acx4.reduce_to_minimal(fam)[1].moves) == count
        monkeypatch.setattr(reduction, "MAX_MOVES", count - 1)
        with pytest.raises(DomainError, match=f"^reduction needs at least {count} "
                           f"moves, more than MAX_MOVES = {count - 1}$"):
            acx4.reduce_to_minimal(fam)


@pytest.mark.parametrize("vectors, message", [
    ([(0, -1), (-2, -1), (-2, 0)],
     "self-intersection 4 at the longest vector (-2, -1); neighbors (0, -1), "
     "(-2, 0) should have forced -1 <= a <= 1"),
    ([(0, 2), (2, 0), (2, 2)],
     "self-intersection -16 at the longest vector (2, 2); neighbors (2, 0), "
     "(0, 2) should have forced -1 <= a <= 1"),
    ([(3, 2), (-1, 0), (-3, 2), (-3, 3), (0, 1)],
     "self-intersection -9 at the longest vector (-3, 3); neighbors (-3, 2), "
     "(0, 1) should have forced -1 <= a <= 1"),
])
def test_unvalidated_fans_fail_the_iteration_check(vectors, message):
    # (2, 2) and (-3, 3) are the sums of their neighbors, but a is not -1:
    # the blow-down stretch leaves them to the general loop's check
    with pytest.raises(InternalInconsistency) as info:
        acx4.reduce_to_minimal(family_of(acx4.MultiFan(tuple(vectors))))
    assert str(info.value) == message
