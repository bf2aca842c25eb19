import random

import pytest

import oracles
import acx4
from acx4.errors import MoveInapplicable, NotToddOne
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
            state = acx4.apply_move(state, move)
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
                state = acx4.apply_move(state, move)
            p += group
            new_profile = sorted((acx4.norm_sq(v) for f in state.fans
                                  for v in f.vectors), reverse=True)
            assert new_profile < profile
            profile = new_profile
        assert state == log.final
