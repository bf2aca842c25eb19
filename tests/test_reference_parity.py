"""The fast rewrite paths against the slower code they replaced.

tests/oracles.py keeps the whole-fan re-validating rewrites, the
full-scan reduction engine with its sorted norm profile, the
all-rotations canonical form, and the graph rewrites that normalize and
re-validate the whole graph.  The local-check kernel, the block-indexed
engine, the two-pointer least-rotation canonical form and the local
graph rewrites must agree with them byte for byte, on outputs and on
errors.  So must the canonical-text log reader and the json.loads reader
it stands in front of.
"""

import copy
import dataclasses
import functools
import json
import random
import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
import acx4
from acx4 import lattice, reduction, serialize
from acx4.errors import (
    DomainError,
    IndexOutOfRange,
    InternalInconsistency,
    MoveInapplicable,
    ParseError,
)
from acx4.multifan import MultiFan
from acx4.reduction import BLOW_DOWN, BLOW_UP, Move, Run
from acx4.serialize import document_for, emit_document, parse_document


def log_text(log):
    return emit_document(document_for(log))


def assert_same_reduction(fam):
    final, log = acx4.reduce_to_minimal(fam)
    assert_reference_agrees(fam, final, log)
    return log


def assert_reference_agrees(fam, final, log):
    ref_final, ref_log = oracles.reference_reduce_to_minimal(fam)
    assert log_text(log) == log_text(ref_log)
    assert final == ref_final


def iteration_sizes(log):
    # one move per a = -1 iteration, two per a = 0, three per a = +1
    sizes = []
    moves = log.moves
    p = 0
    while p < len(moves):
        if moves[p].kind == BLOW_DOWN:
            size = 1
        elif moves[p + 1].kind == BLOW_DOWN:
            size = 2
        else:
            size = 3
        sizes.append(size)
        p += size
    return sizes


def euclid_family(n):
    return acx4.MultiFanFamily(
        (acx4.validate_multifan([(1, 0), (n, 1), (-n - 1, -1)]),))


def test_logs_match_reference_on_criterion_4_seeds(criterion_4_reductions):
    # the engine's results are shared with criterion 4 (see conftest.py)
    assert len(criterion_4_reductions) == 10_000
    for fam, final, log in criterion_4_reductions:
        assert_reference_agrees(fam, final, log)


def test_logs_match_reference_in_every_case():
    rng = random.Random(0x1D)
    seen = set()
    for _ in range(200):
        fam = oracles.random_mutated_family(rng.randrange(1 << 30))
        seen.update(iteration_sizes(assert_same_reduction(fam)))
    assert seen == {1, 2, 3}


def hirzebruch_fan(n):
    return acx4.make_hirzebruch_fan((1, 0), (0, 1), n)


def random_sl2(rng, bound):
    """A matrix ((a, b), (c, d)) of determinant 1 with entries up to bound."""
    while True:
        a, c = rng.randint(-bound, bound), rng.randint(-bound, bound)
        g, p, q = oracles.extended_gcd(a, c)
        if abs(g) == 1:
            break
    # a*d - b*c = 1 for (b, d) = g*(-q, p), shifted along (a, c) to be short
    b, d = -g * q, g * p
    t = -(a * b + c * d) // (a * a + c * c)
    return (a, b + t * a), (c, d + t * c)


def image(matrix, fan):
    (a, b), (c, d) = matrix
    return acx4.validate_multifan([(a * x + b * y, c * x + d * y)
                                   for x, y in fan.vectors])


def test_logs_match_reference_on_euclid_fans():
    # a run of two a = 0 steps whose vectors tie on norm at positions 1, 3
    for n in range(1, 501):
        log = assert_same_reduction(euclid_family(n))
        assert len(log.moves) == 4 * n + 3


def test_normalize_complex_matches_reference_on_hirzebruch_fans():
    # a run of one a = 0 step at position 2, shrinking toward either side
    for n in list(range(-200, 0)) + list(range(1, 201)):
        fan = hirzebruch_fan(n)
        log, model = acx4.normalize_complex(fan)
        assert_reference_agrees(acx4.MultiFanFamily((fan,)), log.final, log)
        assert len(log.moves) == 2 * abs(n)
        assert (log, model) == oracles.reference_normalize_complex(fan)


def sl2_image_families():
    """50 one-fan families: euclid and Hirzebruch fans under 25 random
    SL2(Z) matrices."""
    rng = random.Random(0x51)
    fams = []
    for _ in range(25):
        matrix = random_sl2(rng, 10**3)
        assert max(map(abs, matrix[0] + matrix[1])) <= 10**3
        for fan in (euclid_family(rng.randint(1, 60)).fans[0],
                    hirzebruch_fan(rng.choice([-1, 1]) * rng.randint(1, 60))):
            fams.append(acx4.MultiFanFamily((image(matrix, fan),)))
    return fams


def test_logs_match_reference_on_sl2_images():
    # a change of basis moves where the runs end and how norms tie
    for fam in sl2_image_families():
        assert_same_reduction(fam)


def two_fan_run_families():
    # both fans hold runs; equal fans tie on the longest norm across fans,
    # so a run's block takes turns between them
    euclid = [euclid_family(n).fans[0] for n in (7, 40)]
    hirzebruch = [hirzebruch_fan(n) for n in (7, -40)]
    rng = random.Random(0x52)
    turned = [image(random_sl2(rng, 30), fan) for fan in euclid + hirzebruch]
    fans = euclid + hirzebruch + turned
    fams = [acx4.MultiFanFamily((f1, f2)) for f1 in fans for f2 in fans]
    fams += [acx4.MultiFanFamily(euclid_family(n).fans * copies)
             for copies in (3, 4) for n in (5, 40)]
    fams.append(acx4.MultiFanFamily(
        tuple(euclid_family(n).fans[0] for n in (40, 40, 7, 40))))
    return fams


def test_logs_match_reference_on_two_fan_runs():
    for fam in two_fan_run_families():
        assert_same_reduction(fam)


def test_logs_match_reference_on_many_fan_families():
    # f fans that tie on norm make a block of 2f iterations, whose bounds
    # _jump builds pair by pair; mixed fans give blocks of equal and of
    # distinct (start, delta) classes
    rng = random.Random(0x5A)
    pool = [euclid_family(n).fans[0] for n in (3, 7, 40)]
    pool += [hirzebruch_fan(n) for n in (5, -12)]
    pool += [image(random_sl2(rng, 30), fan) for fan in (pool[2], pool[4])]
    pool += [acx4.gen_random_family(s, 1, 6).fans[0] for s in range(3)]
    longest = 0
    for f in (3, 5, 8, 13, 21, 34, 50):
        for few in (pool, pool[2:4]):
            fam = acx4.MultiFanFamily(tuple(rng.choice(few) for _ in range(f)))
            got = acx4.reduce_to_minimal(fam)
            assert got == oracles.reference_reduce_to_minimal(fam)
            assert_reference_agrees(fam, *got)
            longest = max([longest] + [len(e.steps) for e in got[1].entries
                                       if type(e) is Run])
    assert longest >= 40


def test_runs_take_few_checked_iterations(monkeypatch):
    # the closed form stands for all but a run's first two and last
    # repeats: seven checked iterations per euclid fan, where the stepwise
    # engine would take 2*10**4 and 10**5 iterations
    calls = []
    real = reduction._iteration_moves

    def counted(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(reduction, "_iteration_moves", counted)
    _, log = acx4.reduce_to_minimal(euclid_family(10**4))
    assert len(log.moves) == 4 * 10**4 + 3
    assert len(calls) == 7
    # the log keeps its runs, and the log reader cuts them the same way
    assert len(log.entries) == 16
    assert parse_document(log_text(log)).payload.entries == log.entries
    calls.clear()
    log, _ = acx4.normalize_complex(hirzebruch_fan(10**5))
    assert len(log.moves) == 2 * 10**5
    assert len(calls) == 3
    # each fan that ties on norm adds its two steps to the block
    for copies in (3, 4):
        calls.clear()
        _, log = acx4.reduce_to_minimal(
            acx4.MultiFanFamily(euclid_family(10**4).fans * copies))
        assert len(log.moves) == copies * (4 * 10**4 + 3)
        assert len(calls) == 7 * copies


def test_reader_cuts_runs_like_the_engine():
    # the reader stores the runs the engine stored, so a log read back
    # compares equal to the engine's without expanding either
    fams = [euclid_family(n) for n in range(1, 301)]
    fams += [acx4.MultiFanFamily((hirzebruch_fan(n),)) for n in range(-100, 101)]
    fams += two_fan_run_families()
    fams += [acx4.gen_random_family(s, 3, 60) for s in range(30)]
    runs = 0
    for fam in fams:
        _, log = acx4.reduce_to_minimal(fam)
        assert parse_document(log_text(log)).payload.entries == log.entries
        runs += sum(type(entry) is Run for entry in log.entries)
    assert runs > len(fams)


def test_engine_refuses_a_run_past_its_end(monkeypatch):
    # with one repeat too many the closed form also takes the last repeat,
    # which the engine must then find missing
    real = reduction._first_failure
    monkeypatch.setattr(reduction, "_first_failure", lambda *c: real(*c) + 1)
    for fan in (euclid_family(50).fans[0], hirzebruch_fan(50)):
        with pytest.raises(InternalInconsistency, match="last repeat of its run"):
            acx4.reduce_to_minimal(acx4.MultiFanFamily((fan,)))


def test_logs_match_reference_on_growing_fans():
    # reducing a Todd fan adds vectors (a = +1 steps) faster than it drops
    # them, so from n0 = 7 on a norm block outgrows its cap and splits
    for n0 in range(1, 21):
        assert_same_reduction(acx4.MultiFanFamily((acx4.make_todd_fan(n0),)))
    for n0, n1 in [(4, 7), (5, 5), (7, 1), (3, 12)]:
        assert_same_reduction(acx4.realize_chi_y(n0, n1))


def test_blow_down_stretch_ends_where_the_reference_first_blows_up(monkeypatch):
    # the engine takes its leading a = -1 iterations in one sort, then hands
    # the lists to the general loop; generated families reduce by
    # blow-downs alone, mutated ones mostly by blow-downs first
    stretches = []
    real = reduction._blow_down_stretch

    def counted(*args):
        moves = real(*args)
        stretches.append(len(moves))
        return moves

    monkeypatch.setattr(reduction, "_blow_down_stretch", counted)
    rng = random.Random(0xB1D)
    mixed = [oracles.random_mutated_family(rng.randrange(1 << 30), 200)
             for _ in range(100)]
    # 1 to 1,500 blow-ups, growing geometrically
    pure = [acx4.gen_random_family(s, 1 + s % 3, round(1500 ** (s / 99)))
            for s in range(100)]
    split = 0
    for n, fam in enumerate(mixed + pure):
        stretches.clear()
        final, log = acx4.reduce_to_minimal(fam)
        ref_final, ref_log = oracles.reference_reduce_to_minimal(fam)
        assert final == ref_final
        assert log == ref_log
        kinds = [mv.kind for mv in ref_log.moves]
        first = kinds.index(BLOW_UP) if BLOW_UP in kinds else len(kinds)
        assert stretches == [first]
        assert log.entries[:first] == ref_log.entries[:first]
        if n >= len(mixed):
            assert log.entries == ref_log.entries
            assert first == len(kinds)
        split += 0 < first < len(kinds)
    # 11 of the mixed logs have a stretch and a general loop after it
    assert split >= 10


def test_replay_matches_reference():
    rng = random.Random(0x2E)
    for _ in range(100):
        fam = oracles.random_mutated_family(rng.randrange(1 << 30))
        _, log = acx4.reduce_to_minimal(fam)
        assert acx4.replay(fam, log.moves) == oracles.reference_replay(fam, log.moves)


def test_engine_checks_each_step_by_the_multiset_rule(monkeypatch):
    # the wrong sign in an a = 0 step inserts a vector longer than the one
    # it replaces; the Dershowitz-Manna check must refuse that step, also
    # when it is the last repeat of a run: on n = 50 the first two steps
    # reveal a run of 50, and the faulty third one ends it
    real = lattice.reduction_choice
    for n, right, last in ((3, 0, (-1, 3)), (50, 2, (-1, 1))):
        calls = []

        def faulty(v1, v2):
            calls.append(v2)
            return real(v1, v2) * (1 if len(calls) <= right else -1)

        monkeypatch.setattr(lattice, "reduction_choice", faulty)
        fam = acx4.MultiFanFamily((acx4.make_hirzebruch_fan((1, 0), (0, 1), n),))
        with pytest.raises(InternalInconsistency, match="norm profile"):
            acx4.reduce_to_minimal(fam)
        assert calls[-1] == last


SAFE = (1 << 53) - 1


def test_run_text_matches_per_move_emission():
    # a run's repeats are column text; they must be the bytes of one %
    # format per move, in every sign and with a constant coordinate
    logs = [acx4.reduce_to_minimal(euclid_family(n))[1] for n in range(1, 301)]
    logs += [acx4.reduce_to_minimal(fam)[1]
             for fam in two_fan_run_families() + sl2_image_families()]
    logs += [acx4.normalize_complex(hirzebruch_fan(s * n))[0]
             for n in range(1, 201) for s in (1, -1)]
    # a run whose far coordinates sit at the bound, and a step past it
    fam = euclid_family(1)
    for s in (1, -1):
        for past in (0, 1):
            start = (s * (SAFE - 15 + past), -s * (SAFE - 10))
            run = Run(((0, 1, 3, (3 * s, -2 * s)),), (start,), 5)
            logs.append(acx4.MoveLog(fam, (Move(BLOW_UP, 0, 0, (1, 2)), run), fam))
    deltas = set()
    for log in logs:
        text = log_text(log)
        assert text == oracles.reference_log_text(log)
        deltas |= {tuple((d > 0) - (d < 0) for d in step[3])
                   for e in log.entries if type(e) is Run for step in e.steps}
    assert deltas == {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)} - {(0, 0)}
    for log, past in zip(logs[-4:], (0, 1, 0, 1)):
        text = log_text(log)
        assert bool(re.search('"-?%d"' % (SAFE + 1), text)) == past
        assert text == oracles.reference_emit_document(document_for(log))
    for log in logs[-404:-4:40]:  # as a normal form embeds them, at indent "  "
        assert (serialize._log_text(log, "  ", "\n")
                == oracles.reference_log_text(log, "  "))


# --- canonical form -----------------------------------------------------------

def assert_same_canonical(fan):
    for mode in (acx4.ROTATIONS, acx4.ROTATIONS_AND_REVERSAL):
        assert acx4.canonical_form(fan, mode) == oracles.reference_canonical_form(fan, mode)


def test_canonical_form_matches_reference_on_random_fans():
    rng = random.Random(0x3F)
    for _ in range(300):
        fam = oracles.random_mutated_family(rng.randrange(1 << 30))
        for fan in fam.fans:
            assert_same_canonical(fan)
    for _ in range(200):
        assert_same_canonical(oracles.random_winding_fan(rng.randrange(1 << 30),
                                                         rng.randint(1, 3)))


def test_canonical_form_matches_reference_on_periodic_fans():
    unit = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for s in range(1, 9):
        assert_same_canonical(acx4.validate_multifan(unit * s))
        assert_same_canonical(acx4.validate_multifan(unit[::-1] * s))
    rng = random.Random(0x40)
    for _ in range(200):
        block = oracles.random_winding_fan(rng.randrange(1 << 30), 1, 5).vectors
        assert_same_canonical(acx4.validate_multifan(block * rng.randint(2, 5)))
    # unvalidated sequences over two or three letters: the cases where the
    # least rotation is reached from several starts or only after long ties
    for _ in range(2000):
        letters = [(rng.randrange(3), rng.randrange(2)) for _ in range(rng.randint(1, 4))]
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        assert_same_canonical(MultiFan(word * rng.randint(1, 4)))


# --- error paths ----------------------------------------------------------------

def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except DomainError as exc:
        return (type(exc), str(exc), getattr(exc, "index", None))


def corrupt(move, rng, fam_size):
    field = rng.randrange(4)
    if field == 0:
        kind = rng.choice([k for k in (BLOW_UP, BLOW_DOWN, "blow_sideways")
                           if k != move.kind])
        return Move(kind, move.fan_index, move.position, move.vector)
    if field == 1:
        j = rng.choice([move.fan_index + 1, move.fan_index - 1, fam_size, -1])
        return Move(move.kind, j, move.position, move.vector)
    if field == 2:
        i = rng.choice([move.position + 1, move.position - 1, -1, 10 ** 6])
        return Move(move.kind, move.fan_index, i, move.vector)
    x, y = move.vector
    return Move(move.kind, move.fan_index, move.position,
                rng.choice([(x + 1, y), (x, y - 1), (-x, -y)]))


def test_corrupted_logs_fail_like_the_reference():
    rng = random.Random(0x51)
    failures = 0
    for _ in range(400):
        fam = oracles.random_mutated_family(rng.randrange(1 << 30), max_blowups=20)
        _, log = acx4.reduce_to_minimal(fam)
        if not log.moves:
            continue
        moves = list(log.moves)
        t = rng.randrange(len(moves))
        moves[t] = corrupt(moves[t], rng, len(fam.fans))
        got = outcome(acx4.replay, fam, moves)
        assert got == outcome(oracles.reference_replay, fam, moves)
        if got[0] is MoveInapplicable:
            failures += 1
    assert failures > 300


def test_reader_checks_each_move_of_a_run_like_the_reference():
    # the log reader takes a run's repeats after its first two by the closed
    # form; a move corrupted anywhere in a run or just after it must fail
    # as the stepwise reference replay fails
    rng = random.Random(0x53)
    fams = [euclid_family(n) for n in range(1, 61)]
    fams += [acx4.MultiFanFamily((hirzebruch_fan(s * n),))
             for n in range(1, 61) for s in (1, -1)]
    fams += two_fan_run_families()
    runs = 0
    for fam in fams:
        _, log = acx4.reduce_to_minimal(fam)
        parsed = parse_document(log_text(log)).payload
        assert parsed == log
        moves = list(log.moves)
        start = 0
        for entry in parsed.entries:
            size = 2 * len(entry.steps) * entry.count if type(entry) is Run else 1
            if type(entry) is Run:
                runs += 1
                end = start + size
                # the first pair, a middle one, the last one, the move after
                middle = start + 2 * len(entry.steps) * (entry.count // 2)
                for t in (start + rng.randrange(2), middle + rng.randrange(2),
                          end - 1 - rng.randrange(2), end):
                    if t == len(moves):
                        continue
                    bad = list(moves)
                    bad[t] = corrupt(moves[t], rng, len(fam.fans))
                    want = outcome(oracles.reference_replay, fam, bad)
                    with pytest.raises(ParseError) as exc:
                        parse_document(log_text(acx4.MoveLog(fam, tuple(bad), log.final)))
                    if bad[t].kind not in (BLOW_UP, BLOW_DOWN):
                        assert exc.value.path == f"moves[{t}].kind"
                    elif want[0] is MoveInapplicable:
                        assert exc.value.path == "moves"
                        assert str(exc.value) == "moves: " + want[1]
                    else:
                        assert want[0] == "ok" and want[1] != log.final
                        assert exc.value.path == "final"
            start += size
    assert runs >= len(fams)


def test_reader_ends_a_block_at_a_pair_of_blow_ups():
    # two blow-ups between a block's repeats pair with nothing, and they end
    # the block: here they change the neighbor of fan 0's step, so the
    # moves the block's closed form predicts after them do not apply
    h = hirzebruch_fan(40)
    fam = acx4.MultiFanFamily((h, h))
    _, log = acx4.reduce_to_minimal(fam)
    moves = list(log.moves[:6])  # fan 0's step, fan 1's, fan 0's
    moves += [Move(BLOW_UP, 0, 2, (-1, 37)), Move(BLOW_UP, 0, 2, (-2, 75))]
    moves += log.moves[6:8]  # fan 1's step
    for r in range(5):
        for j in (0, 1):
            w = (-1, 38 - r)
            moves += [Move(BLOW_UP, j, 2, (w[0], w[1] - 1)), Move(BLOW_DOWN, j, 2, w)]
    want = outcome(oracles.reference_replay, fam, moves)
    assert want[0] is MoveInapplicable and want[2] == 10
    with pytest.raises(ParseError) as exc:
        parse_document(log_text(acx4.MoveLog(fam, tuple(moves), log.final)))
    assert str(exc.value) == "moves: " + want[1]


def test_fan_rewrite_errors_match_reference():
    rng = random.Random(0x62)
    for _ in range(200):
        fam = oracles.random_mutated_family(rng.randrange(1 << 30), max_blowups=12)
        fan = fam.fans[0]
        for i in range(-2, len(fan.vectors) + 2):
            assert (outcome(acx4.blow_up_fan, fan, i)
                    == outcome(oracles.reference_blow_up_fan, fan, i))
            assert (outcome(acx4.blow_down_fan, fan, i)
                    == outcome(oracles.reference_blow_down_fan, fan, i))
        for j in (-1, len(fam.fans)):
            with pytest.raises(IndexOutOfRange) as exc:
                acx4.blow_up_in_family(fam, j, 0)
            assert exc.value.index == j
            with pytest.raises(IndexOutOfRange) as exc:
                acx4.blow_down_in_family(fam, j, 0)
            assert exc.value.index == j


# --- the canonical-text log reader ------------------------------------------------

def tree_parse(text):
    """parse_document with the canonical-text reader switched off, so every
    text goes through json.loads and the field-by-field log reader."""
    with mock.patch.object(serialize, "_canonical_log", lambda text: None):
        return parse_document(text)


def json_loads_spy(monkeypatch):
    calls = []
    loads = json.loads

    def spy(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(serialize.json, "loads", spy)
    return calls


def test_canonical_reader_reads_like_the_tree_reader(criterion_4_reductions, monkeypatch):
    logs = [log for _, _, log in criterion_4_reductions]
    logs += [acx4.reduce_to_minimal(euclid_family(n))[1] for n in range(1, 301)]
    logs += [acx4.normalize_complex(hirzebruch_fan(n))[0] for n in range(-100, 101)]
    logs += [acx4.reduce_to_minimal(fam)[1] for fam in two_fan_run_families()]
    texts = [log_text(log) for log in logs]
    calls = json_loads_spy(monkeypatch)
    fast = [parse_document(text).payload for text in texts]
    assert calls == []  # no canonical log builds a JSON tree
    monkeypatch.undo()
    for log, text, got in zip(logs, texts, fast):
        want = tree_parse(text).payload
        assert got.entries == want.entries
        assert (got.initial, got.final) == (want.initial, want.final) == (log.initial, log.final)
    assert sum(type(e) is Run for log in fast for e in log.entries) >= 300


def outcome_of(parse, text):
    try:
        return ("ok", parse(text).payload)
    except DomainError as exc:
        return (type(exc), str(exc), getattr(exc, "path", None))


@functools.cache
def tamper_texts():
    fams = [euclid_family(n) for n in range(1, 61)] + two_fan_run_families()
    return [log_text(acx4.reduce_to_minimal(fam)[1]) for fam in fams]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_tampered_canonical_logs_read_like_the_tree_reader(data):
    # one character changed, inserted or deleted anywhere, most often inside
    # a run: the reader must give the tree reader's log or its error
    text = data.draw(st.sampled_from(tamper_texts()))
    at = data.draw(st.integers(0, len(text) - 1))
    char = data.draw(st.sampled_from('0123456789-+.,:[]{}" \n\tbe') | st.characters())
    edit = data.draw(st.sampled_from(["change", "insert", "delete"]))
    if edit == "change":
        text = text[:at] + char + text[at + 1:]
    elif edit == "insert":
        text = text[:at] + char + text[at:]
    else:
        text = text[:at] + text[at + 1:]
    assert outcome_of(parse_document, text) == outcome_of(tree_parse, text)


def test_each_edit_of_a_short_canonical_log_reads_like_the_tree_reader():
    # at every place of a log with a run: a byte dropped, and a "0" put in
    # or over, which makes leading zeros and breaks separators and keys
    text = log_text(acx4.reduce_to_minimal(euclid_family(4))[1])
    for at in range(len(text)):
        for edited in (text[:at] + text[at + 1:], text[:at] + "0" + text[at:],
                       text[:at] + "0" + text[at + 1:]):
            assert outcome_of(parse_document, edited) == outcome_of(tree_parse, edited)


def test_edits_of_a_long_run_read_like_the_tree_reader():
    # euclid N = 400 next to a Hirzebruch fan holds a Run of 395 repeats,
    # which the reader compares in chunks of 1, 2, 4, ..., 64 repeats and
    # then 64 at a time: edit the first and last repeat of each chunk, the
    # run's last two repeats and the moves after it, by a digit of a moving
    # coordinate, a digit of a constant one, or by dropping the repeat
    fam = acx4.MultiFanFamily(euclid_family(400).fans + (hirzebruch_fan(3),))
    log = acx4.reduce_to_minimal(fam)[1]
    text = log_text(log)
    spans = [m.span() for m in re.finditer(r",?\n    \{.*?\n    \}", text, re.S)]
    assert len(spans) == len(log.moves)
    first = 0
    for run in log.entries:
        if type(run) is Run and run.count > 300:
            break
        first += 2 * len(run.steps) * run.count if type(run) is Run else 1
    size = 2 * len(run.steps)
    assert [d for *_, d in run.steps] == [(-1, 0), (1, 0)]  # x moves, y does not
    starts, chunk = [0], 1
    while starts[-1] <= run.count:
        starts.append(starts[-1] + chunk)
        chunk = min(2 * chunk, 64)
    assert starts[-4:-1] == [255, 319, 383]
    repeats = {r for a, b in zip(starts, starts[1:]) for r in (a, min(b - 1, run.count))}
    repeats |= {run.count - 1, run.count, run.count + 1}
    vector = re.compile(r'"vector": \[\n +(-?[0-9]+),\n +(-?[0-9]+)')

    def bump(digit):
        return str((int(digit) + 1) % 10)

    edits = 0
    for r in sorted(repeats):
        a = first + r * size
        b = a + size
        m = vector.search(text, spans[a + r % size][0])
        edited = [text[: m.end(c) - 1] + bump(m[c][-1]) + text[m.end(c):] for c in (1, 2)]
        edited.append(text[: spans[a][0]] + text[spans[b][0]:])
        for t in edited:
            got = outcome_of(parse_document, t)
            assert got[0] is ParseError
            assert got == outcome_of(tree_parse, t)
            edits += 1
    assert edits == 3 * len(repeats)


def test_noncanonical_logs_read_through_json_loads(monkeypatch):
    log = acx4.reduce_to_minimal(euclid_family(40))[1]
    obj = json.loads(log_text(log))
    middle = len(obj["moves"]) // 2  # inside the run
    reordered = copy.deepcopy(obj)
    reordered["moves"][middle] = dict(reversed(reordered["moves"][middle].items()))
    extra = copy.deepcopy(obj)
    extra["moves"][middle]["note"] = 1
    # the indented copies begin as the emitter's text does, up to that move
    cases = [(json.dumps(obj), log), (json.dumps(reordered, indent=2) + "\n", log),
             (json.dumps(extra, indent=2) + "\n", log)]
    # the log of test_big_integers_round_trip_as_strings, whose quoted
    # coordinates are canonical but read only through the tree
    (a, b), (c, d) = ((-425723672601570444, 269777488998950491),
                      (-880434537258077611, 557923916323371750))
    fan = acx4.validate_multifan([(a * x + b * y, c * x + d * y)
                                  for x, y in ((1, 0), (40, 1), (-41, -1))])
    big = acx4.reduce_to_minimal(acx4.MultiFanFamily((fan,)))[1]
    cases.append((log_text(big), big))
    for text, want in cases:
        calls = json_loads_spy(monkeypatch)
        got = parse_document(text).payload
        assert len(calls) == 1
        monkeypatch.undo()
        assert got == want
        assert got.entries == tree_parse(text).payload.entries


# --- the typed family and graph readers --------------------------------------

def field_parse(text):
    """parse_document with the shape checks of family and graph trees
    switched off, so every family and graph is read field by field."""
    with mock.patch.object(serialize, "_typed_fans", lambda data: None), \
            mock.patch.object(serialize, "_typed_graph", lambda data: None):
        return parse_document(text)


@functools.cache
def reader_trees():
    """json.loads trees of family and graph documents: generated families,
    their graphs as family_to_graph stores them and scrambled, and a family
    whose first fan passes 2**53 - 1 beside a unit fan, which prints quoted
    integers."""
    rng = random.Random(0x27)
    fams = [acx4.gen_random_family(seed, 1 + seed % 3, 4 * seed) for seed in range(8)]
    fams.append(acx4.MultiFanFamily(
        (hirzebruch_fan(SAFE + 1),) + acx4.make_minimal_family([1]).fans))
    payloads = []
    for fam in fams:
        g = acx4.family_to_graph(fam)
        payloads += [fam, g, oracles.scramble_graph(g, rng)]
    return [json.loads(emit_document(document_for(payload))) for payload in payloads]


def vector_slots(tree):
    """(container, key) of every vector of a family or graph tree."""
    if "fans" in tree:
        return [(fan["vectors"], i) for fan in tree["fans"] for i in range(len(fan["vectors"]))]
    return [(edge, "label") for edge in tree["edges"]]


def field_slots(tree):
    """(container, key) of every field a family or graph reader requires."""
    if "fans" in tree:
        return [(tree, "fans")] + [(fan, "vectors") for fan in tree["fans"]]
    return [(tree, "vertices"), (tree, "edges")] + [
        (edge, key) for edge in tree["edges"] for key in ("from", "to", "label")]


def test_typed_readers_take_every_document_of_plain_integers():
    for tree in reader_trees():
        typed = (serialize._typed_fans if "fans" in tree else serialize._typed_graph)(tree)
        quoted = any(type(c) is str for box, key in vector_slots(tree) for c in box[key])
        assert (typed is None) == quoted
        text = json.dumps(tree, indent=2) + "\n"
        assert parse_document(text) == field_parse(text)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_documents_read_like_the_field_reader(data):
    # a family or graph document with one fault or oddity: the typed reader
    # must give the field reader's payload or its error, class, message and
    # path alike
    tree = copy.deepcopy(data.draw(st.sampled_from(reader_trees())))
    graph = "fans" not in tree
    kinds = ["text", "value", "key", "empty", "inadmissible"] + ["vertex"] * graph
    kind = data.draw(st.sampled_from(kinds))
    if kind == "value":
        box, key = data.draw(st.sampled_from(vector_slots(tree)))
        c = data.draw(st.integers(0, 1))
        n = int(box[key][c])
        odd = data.draw(st.sampled_from(["float", "bool", "triple", "quoted", "big"]))
        if odd == "triple":
            box[key] = box[key] + [data.draw(st.integers(-2, 2))]
        else:
            box[key][c] = {"float": float(n), "bool": data.draw(st.booleans()),
                           "quoted": str(n),
                           "big": data.draw(st.sampled_from([1, -1])) * (SAFE + n % 3 + 1)}[odd]
    elif kind in ("key", "empty"):
        box, key = data.draw(st.sampled_from(field_slots(tree)))
        if kind == "key":
            del box[key]
        else:
            box[key] = {}
    elif kind == "vertex":
        box, key = data.draw(st.sampled_from(
            [(tree["vertices"], i) for i in range(len(tree["vertices"]))]
            + [(edge, end) for edge in tree["edges"] for end in ("from", "to")]))
        box[key] = data.draw(st.sampled_from([0, 7, None, ["p1,1"]]))
    elif kind == "inadmissible":
        box, key = data.draw(st.sampled_from(vector_slots(tree)))
        how = data.draw(st.sampled_from(["nudge", "swap"]))
        if how == "nudge":
            c = data.draw(st.integers(0, 1))
            box[key][c] = int(box[key][c]) + data.draw(st.sampled_from([1, -1]))
        elif graph:
            box["from"], box["to"] = box["to"], box["from"]
        else:
            box[key], box[key - 1] = box[key - 1], box[key]
    text = json.dumps(tree, indent=data.draw(st.sampled_from([None, 2])))
    if kind == "text":
        at = data.draw(st.integers(0, len(text) - 1))
        char = data.draw(st.sampled_from('0123456789-+.,:[]{}" \n\tetn') | st.characters())
        edit = data.draw(st.sampled_from(["change", "insert", "delete"]))
        if edit == "change":
            text = text[:at] + char + text[at + 1:]
        elif edit == "insert":
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    assert outcome_of(parse_document, text) == outcome_of(field_parse, text)


# --- graph rewrites --------------------------------------------------------------

def assert_same_graph_rewrites(g):
    """Every blow-up and blow-down a caller can ask of g, against the
    reference; returns how many blow-downs succeeded."""
    downs = 0
    for v in g.vertices + ("zz",):
        assert (outcome(acx4.blow_up_graph, g, v)
                == outcome(oracles.reference_blow_up_graph, g, v))
    edges = [x for e in g.edges for x in ((e.src, e.dst), (e.dst, e.src), e)]
    far = next(u for u in g.vertices[2:]
               if all({e.src, e.dst} != {g.vertices[0], u} for e in g.edges))
    for x in edges + [(g.vertices[0], far), (g.vertices[0],) * 2]:
        got = outcome(acx4.blow_down_graph, g, x)
        assert got == outcome(oracles.reference_blow_down_graph, g, x)
        downs += got[0] == "ok"
    return downs


def test_graph_rewrites_match_reference():
    rng = random.Random(0x6A)
    downs = 0
    for _ in range(120):
        fam = acx4.gen_random_family(rng.randrange(1 << 30), rng.randint(1, 3),
                                     rng.randint(0, 8), None)
        directed = acx4.family_to_graph(fam)
        downs += assert_same_graph_rewrites(directed)
        downs += assert_same_graph_rewrites(oracles.scramble_graph(directed, rng))
    assert downs > 200


def test_weights_at_matches_reference():
    rng = random.Random(0x77)
    for _ in range(60):
        fam = acx4.gen_random_family(rng.randrange(1 << 30), rng.randint(1, 3),
                                     rng.randint(0, 8))
        directed = acx4.family_to_graph(fam)
        scrambled = oracles.scramble_graph(directed, rng)
        # rewrite outputs, which carry their directed view, from either start
        chained = []
        for g in (directed, scrambled):
            once = acx4.blow_up_graph(g, rng.choice(g.vertices))
            twice = acx4.blow_up_graph(once, rng.choice(once.vertices))
            new = [u for u in twice.vertices if u not in once.vertices]
            chained += [once, twice, acx4.blow_down_graph(twice, new)]
        for g in [directed, scrambled] + chained:
            for v in g.vertices + ("zz",):
                assert (outcome(acx4.weights_at, g, v)
                        == outcome(oracles.reference_weights_at, g, v))


def graph_rewrite_chain(signs, rewrites, seed, blow_up, blow_down, scrambled=False):
    """The benchmark's graph-rewrite job: seeded blow-ups, then blow-downs
    of the created edges in reverse; yields every intermediate graph."""
    rng = random.Random(seed)
    g = acx4.family_to_graph(acx4.make_minimal_family(signs))
    if scrambled:
        g = oracles.scramble_graph(g, rng)
    slots = []
    for _ in range(rewrites):
        i = rng.randrange(len(g.vertices))
        g = blow_up(g, g.vertices[i])
        slots.append(i)
        yield g
    for i in reversed(slots):
        g = blow_down(g, (g.vertices[i], g.vertices[i + 1]))
        yield g


def test_graph_rewrite_chains_match_reference():
    for signs, seed, scrambled in (([1], 1, False), ([1, -1], 2, False),
                                   ([-1, 1, 1], 3, False), ([1, -1], 4, True)):
        fast = graph_rewrite_chain(signs, 300, seed, acx4.blow_up_graph,
                                   acx4.blow_down_graph, scrambled)
        slow = graph_rewrite_chain(signs, 300, seed, oracles.reference_blow_up_graph,
                                   oracles.reference_blow_down_graph, scrambled)
        steps = 0
        for g, ref in zip(fast, slow, strict=True):
            assert g == ref
            steps += 1
        assert steps == 600
        assert len(g.vertices) == 4 * len(signs)


def test_old_and_new_graph_versions_rewrite_like_the_reference():
    # a rewrite hands its result the edge ends it edited, so rewriting an
    # older version after a newer one exists must see none of its edits
    rng = random.Random(0x15)
    up, down = acx4.blow_up_graph, acx4.blow_down_graph
    ref_up, ref_down = oracles.reference_blow_up_graph, oracles.reference_blow_down_graph
    for scrambled in (False, True):
        g = acx4.family_to_graph(acx4.make_minimal_family([1, -1]))
        if scrambled:
            g = oracles.scramble_graph(g, rng)
        chain, created = [g], []
        for _ in range(3):
            i = rng.randrange(len(g.vertices))
            v = g.vertices[i]
            g = up(g, v)
            assert g == ref_up(chain[-1], v)
            chain.append(g)
            created.append(g.vertices[i : i + 2])
        g0, g1, g2, g3 = chain
        later = [(up, ref_up, g1, rng.choice(g1.vertices)),
                 (up, ref_up, g0, rng.choice(g0.vertices)),
                 (down, ref_down, g2, created[1]),
                 (down, ref_down, g1, created[0]),
                 (down, ref_down, g3, created[2]),
                 (up, ref_up, g3, rng.choice(g3.vertices))]
        branches = []
        for rewrite, reference, old, arg in later:
            got = rewrite(old, arg)
            assert got == reference(old, arg)
            branches.append(got)
        for b in branches:
            v = rng.choice(b.vertices)
            assert up(b, v) == ref_up(b, v)


def test_graph_rewrites_check_touched_determinants():
    # a directed graph is not re-validated, so a label broken behind the
    # validator's back reaches the kernel, which must refuse it
    g = acx4.family_to_graph(acx4.make_minimal_family([1]))
    assert g.edges[0] == acx4.Edge("p1,1", "p1,2", (1, 0))
    broken = acx4.TorusGraph(
        g.vertices, (dataclasses.replace(g.edges[0], label=(2, 0)),) + g.edges[1:])
    with pytest.raises(InternalInconsistency, match="blow-up"):
        acx4.blow_up_graph(broken, "p1,2")
    up = acx4.blow_up_graph(g, "p1,2")
    assert up.edges[:3] == (acx4.Edge("p1,1", "p1,2'", (1, 0)),
                            acx4.Edge("p1,2'", "p1,2''", (1, 1)),
                            acx4.Edge("p1,2''", "p1,3", (0, 1)))
    # w = w1 + w2 still holds, but det(w1, w2) = 2
    broken = acx4.TorusGraph(
        up.vertices,
        (dataclasses.replace(up.edges[0], label=(2, 0)),
         dataclasses.replace(up.edges[1], label=(2, 1))) + up.edges[2:])
    with pytest.raises(InternalInconsistency, match="blow-down"):
        acx4.blow_down_graph(broken, ("p1,2'", "p1,2''"))
