import copy
import json
import pickle
import random
import sys

import pytest

import acx4
import oracles
from acx4.errors import DomainError, NotABasis, ParseError, UnknownFormat
from acx4.serialize import (
    FORMAT_FAMILY,
    FORMAT_GRAPH,
    FORMAT_LOG,
    FORMAT_REPORT,
    Document,
    document_for,
    emit_classification,
    emit_document,
    emit_normal_form,
    parse_document,
)

CP2_DOC = """
{"format": "acx4-fans/1", "fans": [{"vectors": [[1, 0], [-1, 1], [0, -1]]}]}
"""


def cp2_family():
    return acx4.MultiFanFamily((acx4.make_cp2_fan((1, 0), (-1, 1)),))


def test_document_for_each_payload_kind():
    fam = cp2_family()
    assert document_for(fam.fans[0]) == Document(FORMAT_FAMILY, fam)
    kinds = {document_for(payload).format for payload in (
        fam, acx4.family_to_graph(fam), acx4.reduce_to_minimal(fam)[1],
        acx4.chi_y_report(fam))}
    assert kinds == {FORMAT_FAMILY, FORMAT_GRAPH, FORMAT_LOG, FORMAT_REPORT}
    with pytest.raises(TypeError):
        document_for((1, 0))


def test_family_document_round_trip():
    doc = parse_document(CP2_DOC)
    assert doc.format == FORMAT_FAMILY
    assert doc.payload == cp2_family()
    assert parse_document(emit_document(doc)) == doc


def test_graph_document_round_trip():
    g = acx4.family_to_graph(cp2_family())
    doc = document_for(g)
    assert doc.format == FORMAT_GRAPH
    assert parse_document(emit_document(doc)) == doc


def logs_three_ways(fam):
    """The log of fam from the engine, from the reader, and built from Moves."""
    _, engine = acx4.reduce_to_minimal(fam)
    parsed = parse_document(emit_document(document_for(engine))).payload
    _, other = acx4.reduce_to_minimal(fam)
    return [engine, parsed, acx4.MoveLog(other.initial, tuple(other.moves), other.final)]


def round_trips(log):
    return [copy.copy(log), copy.deepcopy(log), pickle.loads(pickle.dumps(log))]


def test_log_document_round_trip():
    _, log = acx4.reduce_to_minimal(cp2_family())
    doc = document_for(log)
    assert doc.format == FORMAT_LOG
    again = parse_document(emit_document(doc))
    assert again == doc
    # a log is one value however it was made, and before or after .moves
    euclid = [acx4.MultiFanFamily((acx4.validate_multifan([(1, 0), (n, 1), (-n - 1, -1)]),))
              for n in (1, 50, 137, 10**4, 40)]
    # a log built from Moves holds no runs, where the engine's and the
    # reader's hold them
    fams = euclid[:4] + [acx4.MultiFanFamily(euclid[4].fans * 3)]
    fams += [acx4.MultiFanFamily((acx4.make_hirzebruch_fan((1, 0), (0, 1), -5),)),
             acx4.gen_random_family(4, 3, 40), acx4.make_minimal_family([1, -1])]
    for fam in fams:
        logs = logs_three_ways(fam)
        text = emit_document(document_for(logs[0]))
        every = logs + [c for log in logs for c in round_trips(log)]
        for a in every:
            for b in every:
                assert a == b and hash(a) == hash(b)
        if logs[0].moves:
            kind, fan, position, (x, y) = logs[0].moves[-1]
            moves = logs[2].moves[:-1] + (acx4.Move(kind, fan, position, (x + 1, y)),)
            changed = acx4.MoveLog(fam, moves, logs[0].final)
            assert all(log != changed and changed != log for log in every)
        assert len({repr(log) for log in every}) == 1
        for log in logs:
            assert log.moves is log.moves
            assert all(type(move) is acx4.Move for move in log.moves)
            assert emit_document(document_for(log)) == text
        assert all(a == b and hash(a) == hash(b)
                   for a in logs for b in logs_three_ways(fam))
    assert logs[0].moves == ()  # the minimal family's log is empty


def test_report_document_round_trip():
    report = acx4.chi_y_report(cp2_family())
    doc = document_for(report)
    assert doc.format == FORMAT_REPORT
    assert parse_document(emit_document(doc)) == doc
    obj = json.loads(emit_document(doc))
    assert obj["a"] == [1, 1, 1] and obj["c1_sq"] == 9 and obj["c2"] == 3


def test_malformed_vector_names_path():
    with pytest.raises(ParseError) as exc:
        parse_document('{"format": "acx4-fans/1", "fans": [{"vectors": [[1]]}]}')
    assert exc.value.path == "fans[0].vectors[0]"


def test_unknown_format():
    with pytest.raises(UnknownFormat):
        parse_document('{"format": "acx4-fans/9", "fans": []}')


def test_semantic_errors_surface_as_domain_errors():
    with pytest.raises(NotABasis):
        parse_document(
            '{"format": "acx4-fans/1", "fans": [{"vectors": [[1,0],[1,2],[0,-1]]}]}')
    with pytest.raises(ParseError):
        parse_document("not json at all")
    with pytest.raises(ParseError):
        parse_document('[1, 2, 3]')
    with pytest.raises(ParseError):
        parse_document('{"fans": []}')


def test_big_integers_round_trip_as_strings():
    n = 10 ** 30
    fam = acx4.validate_family([[(1, 0), (0, 1), (-1, n), (0, -1)]])
    text = emit_document(document_for(fam))
    obj = json.loads(text)
    assert obj["fans"][0]["vectors"][2] == [-1, str(n)]
    assert parse_document(text).payload == fam
    # a log whose runs pass 2**53 - 1: the emitter quotes those moves, and
    # the reader, which predicts only moves of plain ints, reads them stepwise
    (a, b), (c, d) = ((-425723672601570444, 269777488998950491),
                      (-880434537258077611, 557923916323371750))
    fan = acx4.validate_multifan([(a * x + b * y, c * x + d * y)
                                  for x, y in ((1, 0), (40, 1), (-41, -1))])
    _, log = acx4.reduce_to_minimal(acx4.MultiFanFamily((fan,)))
    assert any(type(e) is acx4.reduction.Run and max(map(abs, e.starts[0])) > 1 << 53
               for e in log.entries)
    doc = document_for(log)
    text = emit_document(doc)
    assert text == oracles.reference_emit_document(doc)
    assert parse_document(text).payload == log


def test_field_order_irrelevant():
    shuffled = ('{"fans": [{"vectors": [[1, 0], [-1, 1], [0, -1]]}], '
                '"format": "acx4-fans/1"}')
    assert parse_document(shuffled).payload == cp2_family()


def test_emission_deterministic():
    fam = acx4.gen_random_family(5, 2, 6)
    doc = document_for(fam)
    assert emit_document(doc) == emit_document(doc)
    _, log = acx4.reduce_to_minimal(fam)
    assert emit_document(document_for(log)) == emit_document(document_for(log))


def test_log_document_rejects_tampered_final():
    _, log = acx4.reduce_to_minimal(cp2_family())
    obj = json.loads(emit_document(document_for(log)))
    obj["final"]["fans"][0]["vectors"] = [[1, 0], [-1, 1], [0, -1]]
    with pytest.raises(ParseError):
        parse_document(json.dumps(obj))


def test_report_document_rejects_inconsistent_fields():
    report = acx4.chi_y_report(cp2_family())
    obj = json.loads(emit_document(document_for(report)))
    obj["euler"] = 7
    with pytest.raises(ParseError):
        parse_document(json.dumps(obj))
    obj = json.loads(emit_document(document_for(report)))
    obj["a"] = [1, 1, 2]
    with pytest.raises(ParseError):
        parse_document(json.dumps(obj))


def cp2_report_obj():
    return json.loads(emit_document(document_for(acx4.chi_y_report(cp2_family()))))


@pytest.mark.parametrize("key, want", [
    ("euler", 3), ("todd", 1), ("signature", 1), ("c1_sq", 9), ("c2", 3)])
def test_report_document_names_the_inconsistent_field(key, want):
    obj = cp2_report_obj()
    obj[key] += 1
    with pytest.raises(ParseError) as exc:
        parse_document(json.dumps(obj))
    assert exc.value.path == key
    assert str(exc.value) == f"{key}: inconsistent with the counts: expected {want}"


def test_report_document_reads_every_field_before_comparing():
    obj = cp2_report_obj()
    obj["euler"] += 1
    obj["c2"] += 1
    with pytest.raises(ParseError) as exc:
        parse_document(json.dumps(obj))
    assert exc.value.path == "euler"
    del obj["c2"]
    with pytest.raises(ParseError) as exc:
        parse_document(json.dumps(obj))
    assert str(exc.value) == "c2: missing field"


def test_random_documents_round_trip():
    rng = random.Random(2718)
    for _ in range(1000):
        fam = acx4.gen_random_family(rng.randrange(1 << 30),
                                     rng.randint(1, 3), rng.randint(0, 6))
        kind = rng.randrange(4)
        if kind == 0:
            doc = document_for(fam)
        elif kind == 1:
            doc = document_for(acx4.family_to_graph(fam))
        elif kind == 2:
            doc = document_for(acx4.reduce_to_minimal(fam)[1])
        else:
            doc = document_for(acx4.chi_y_report(fam))
        assert parse_document(emit_document(doc)) == doc


@pytest.mark.parametrize("tag", ["[]", "{}", "1", "null", '"acx4-fans/9"'])
def test_malformed_format_tags_are_unknown(tag):
    with pytest.raises(UnknownFormat):
        parse_document(f'{{"format": {tag}, "fans": []}}')
    with pytest.raises(UnknownFormat):
        emit_document(Document(json.loads(tag), cp2_family()))


LONG = "9" * 5001  # past the interpreter's default int/str digit limit


@pytest.mark.parametrize("coord, path", [
    (LONG, "$"),
    (f'"{LONG}"', "fans[0].vectors[1][0]"),
    (f'"-{LONG}"', "fans[0].vectors[1][0]"),
    ('"²"', "fans[0].vectors[1][0]"),
    ('"-\u0661"', "fans[0].vectors[1][0]"),
    ('"-\uff11"', "fans[0].vectors[1][0]"),
], ids=["long-number", "long-string", "long-negative-string", "superscript",
        "arabic-indic-digit", "full-width-digit"])
def test_unreadable_integers_are_parse_errors(coord, path):
    text = ('{"format": "acx4-fans/1", "fans": [{"vectors": '
            f'[[1, 0], [{coord}, 1], [0, -1]]}}]}}')
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert exc.value.path == path


DEEP = '{"format": ' + "[" * 100_000 + "]" * 100_000 + "}"


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_document(DEEP)
    assert exc.value.path == "$"


def test_emitters_refuse_integers_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    fan = acx4.make_hirzebruch_fan((1, 0), (0, 1), 10 ** limit)
    fam = acx4.MultiFanFamily((fan,))
    emits = [
        lambda: emit_document(document_for(fam)),
        lambda: emit_classification([(fan, acx4.recognize_four(fan),
                                      acx4.plumbing_description(fan))]),
        lambda: emit_normal_form(acx4.MoveLog(fam, (), fam),
                                 acx4.ComplexModel("CP1 x CP1", 1, 0)),
    ]
    for emit in emits:
        with pytest.raises(DomainError, match=str(limit)):
            emit()


FAN_DOC = '{"format": "acx4-fans/1", "fans": %s}'
REPORT_DOC = ('{"format": "acx4-report/1", "a": %s, "euler": 3, "todd": 1, '
              '"signature": 1, "c1_sq": 9, "c2": 3}')
GRAPH_DOC = '{"format": "acx4-graph/1", "vertices": ["p1", "p2", "p3"], "edges": %s}'
FANS = '{"format": "acx4-fans/1", "fans": [{"vectors": [[1, 0], [0, 1], [-1, %s]]}]}'
LOG_DOC = '{"format": "acx4-log/1", "initial": %s, "moves": %s, "final": %s}'
MOVE_LOG = LOG_DOC % (FANS % "-1", "[%s]", FANS % "-1")
BAD_BLOW_DOWN = '{"kind": "blow_down", "fan": 0, "position": 0, "vector": [1, 0]}'
EUCLID_LOG = emit_document(document_for(acx4.reduce_to_minimal(acx4.MultiFanFamily(
    (acx4.validate_multifan([(1, 0), (1000, 1), (-1001, -1)]),)))[1]))


def euclid_log(index, edit):
    """The log of the euclid fan N = 1000 with edit applied to one move; the
    reader takes its moves 9 to 4000 as one run."""
    data = json.loads(EUCLID_LOG)
    edit(data["moves"][index])
    return json.dumps(data)


@pytest.mark.parametrize("text, path, message", [
    (FAN_DOC % "[5]", "fans[0]", "expected an object"),
    (FAN_DOC % '[{"vectors": [[true, 0], [0, 1], [-1, -1]]}]',
     "fans[0].vectors[0][0]", "expected an integer"),
    (FAN_DOC % '[{"vectors": [[1, 0], [0, 1.5], [-1, -1]]}]',
     "fans[0].vectors[1][1]", "expected an integer, got 1.5"),
    (FAN_DOC % "{}", "fans", "expected an array"),
    ('{"format": "acx4-graph/1", "vertices": ["p1", 2, "p3"], "edges": []}',
     "vertices[1]", "expected a string, got 2"),
    (REPORT_DOC % "[1, 1]", "a", "expected exactly 3 counts"),
    (REPORT_DOC % "[-1, 5, -1]", "a", "counts must be nonnegative"),
    ('{"fans": []}', "format", "missing field"),
    (GRAPH_DOC % "[5]", "edges[0]", "expected an object"),
    (GRAPH_DOC % '[{"from": "p1", "label": [1, 0]}]', "edges[0].to", "missing field"),
    (GRAPH_DOC % '[{"from": 1, "to": "p2", "label": [1, 0]}]',
     "edges[0].from", "expected a string, got 1"),
    (GRAPH_DOC % '[{"from": "p1", "to": "p2", "label": [1]}]',
     "edges[0].label", "expected a 2-element integer array"),
    (GRAPH_DOC % "{}", "edges", "expected an array"),
    (LOG_DOC % ((FANS % "-1").replace("fans/1", "graph/1"), "[]", FANS % "-1"),
     "initial.format", "expected 'acx4-fans/1', got 'acx4-graph/1'"),
    (LOG_DOC % (FANS % "-1", "{}", FANS % "-1"), "moves", "expected an array"),
    (MOVE_LOG % "5", "moves[0]", "expected an object"),
    (MOVE_LOG % '{"kind": "flip", "fan": 0, "position": 0, "vector": [1, 1]}',
     "moves[0].kind", "unknown move kind 'flip'"),
    (MOVE_LOG % '{"kind": "blow_up", "fan": "x", "position": 0, "vector": [1, 1]}',
     "moves[0].fan", "expected an integer, got 'x'"),
    (MOVE_LOG % '{"kind": "blow_up", "fan": 0, "position": 0}',
     "moves[0].vector", "missing field"),
    (MOVE_LOG % '{"kind": "blow_up", "fan": "x", "position": 0}',
     "moves[0].fan", "expected an integer, got 'x'"),
    (MOVE_LOG % '{"kind": "blow_up", "fan": 0, "position": 0, "vector": [1, true]}',
     "moves[0].vector[1]", "expected an integer"),
    # every move is read before any is applied: a malformed second move
    # beats a first move that does not apply
    (MOVE_LOG % (BAD_BLOW_DOWN + ', {"kind": "flip", "fan": 0, "position": 0, '
                 '"vector": [1, 1]}'),
     "moves[1].kind", "unknown move kind 'flip'"),
    (MOVE_LOG % BAD_BLOW_DOWN, "moves", "move 0 does not apply: no blow-down "
     "available at 0: the vector is not the sum of its neighbors"),
    ('{"format": "acx4-log/1", "initial": %s, "moves": {}}' % (FANS % "-1"),
     "final", "missing field"),
    (LOG_DOC % (FANS % "true", "[]", FANS % "-1"),
     "initial.fans[0].vectors[2][1]", "expected an integer"),
    (LOG_DOC % (FANS % "-1", "[]", FANS % "true"),
     "final.fans[0].vectors[2][1]", "expected an integer"),
    # inside a run, a field equal to the one predicted is still read by type
    (euclid_log(2003, lambda move: move.update(position=True)),
     "moves[2003].position", "expected an integer"),
    (euclid_log(2003, lambda move: move.update(fan=False)),
     "moves[2003].fan", "expected an integer"),
    (euclid_log(2003, lambda move: move.update(vector=[move["vector"][0], 1.0])),
     "moves[2003].vector[1]", "expected an integer, got 1.0"),
    (euclid_log(2002, lambda move: move["vector"].__setitem__(0, move["vector"][0] + 1)),
     "moves", "move 2002 does not apply: recorded vector (-500, -1) is not at position 3"),
    (REPORT_DOC.replace(', "c2": 3', "") % "[1, 1, 1]", "c2", "missing field"),
    (REPORT_DOC % '[1, "x", 1]', "a[1]", "expected an integer, got 'x'"),
], ids=["fan-not-object", "true-coordinate", "float-coordinate", "fans-object",
        "vertex-not-string", "two-counts", "negative-counts", "no-format",
        "edge-not-object", "edge-without-to", "edge-from-not-string",
        "label-not-pair", "edges-object", "initial-is-graph", "moves-object",
        "move-not-object", "unknown-kind", "fan-not-integer", "move-without-vector",
        "move-with-two-faults", "true-in-move-vector", "read-before-applied",
        "inapplicable-move",
        "log-without-final", "initial-true-coordinate", "final-true-coordinate",
        "run-true-position", "run-false-fan", "run-float-coordinate", "run-moved-vector",
        "report-without-c2", "count-not-integer"])
def test_malformed_fields_name_their_path(text, path, message):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: {message}"


# --- byte identity with json.dumps(indent=2) ---------------------------------

SAFE = (1 << 53) - 1
ODD_NAMES = ['a"b', "back\\slash", "tab\tnew\nline\x00\x1f", "café", "١٢",
             "\U0001d54f"]


def classification_rows(fam):
    """The rows acx4 classify builds, one per fan."""
    rows = []
    for fan in fam.fans:
        k = len(fan.vectors)
        form = (acx4.recognize_three(fan) if k == 3 else
                acx4.recognize_four(fan) if k == 4 else None)
        rows.append((fan, form, acx4.plumbing_description(fan)))
    return rows


def assert_emits_match_reference(fam):
    """Every format and the classification of one family, byte for byte."""
    _, log = acx4.reduce_to_minimal(fam)
    for payload in (fam, acx4.family_to_graph(fam), log, acx4.chi_y_report(fam)):
        doc = document_for(payload)
        assert emit_document(doc) == oracles.reference_emit_document(doc)
    rows = classification_rows(fam)
    assert emit_classification(rows) == oracles.reference_emit_classification(rows)


def test_edge_documents_match_json_dumps():
    big = [SAFE, -SAFE, SAFE + 1, -SAFE - 1]
    fams = [acx4.MultiFanFamily((acx4.make_hirzebruch_fan((1, 0), (0, 1), n),))
            for n in big]
    # a fan on each side of 2**53 - 1 beside a unit fan: its vector lists,
    # graph edges and plumbing pieces print from the %d template and the
    # quoted one within one document
    unit = acx4.make_minimal_family([1]).fans
    mixed = [acx4.MultiFanFamily(fam.fans + unit) for fam in fams]
    moves = tuple(acx4.Move(kind, 0, 1, (x, y))
                  for kind in (acx4.BLOW_UP, acx4.BLOW_DOWN)
                  for x in big for y in big)
    # a hand-built run of no repeats from starts past the bound prints no move
    idle = acx4.reduction.Run(((0, 1, 3, (0, 1)),), ((SAFE + 1, SAFE),), 0)
    docs = [document_for(payload) for fam in fams for payload in (
        fam, acx4.family_to_graph(fam), acx4.MoveLog(fam, (), fam),
        acx4.MoveLog(fam, moves, fams[0]), acx4.MoveLog(fam, (idle,) + moves, fam))]
    docs += [document_for(payload) for fam in mixed
             for payload in (fam, acx4.family_to_graph(fam))]
    names = ODD_NAMES[:4]
    edges = [(names[i], names[(i + 1) % 4], v)
             for i, v in enumerate([(1, 0), (0, 1), (-1, 0), (0, -1)])]
    docs += [document_for(acx4.validate_graph(names, edges)),
             document_for(acx4.TorusGraph((), ())),
             document_for(acx4.TorusGraph(tuple(ODD_NAMES), ())),
             document_for(acx4.chi_y_report(fams[0]))]
    for doc in docs:
        assert emit_document(doc) == oracles.reference_emit_document(doc)
    for fam in fams + mixed:
        rows = classification_rows(fam) + [(fam.fans[0], None, [])]
        assert emit_classification(rows) == oracles.reference_emit_classification(rows)
    assert emit_classification([]) == oracles.reference_emit_classification([])
    model = acx4.ComplexModel(ODD_NAMES[0] + ODD_NAMES[3], SAFE + 1, 3)
    for log in (acx4.MoveLog(fams[2], (), fams[3]), acx4.MoveLog(fams[0], moves, fams[1])):
        assert emit_normal_form(log, model) == oracles.reference_emit_normal_form(log, model)
    # a hand-built move whose vector is not a pair is refused, not printed
    # with its batch's coordinates shifted
    for vector in ((1, 2, 3), (SAFE + 1, 2, 3), (1,)):
        odd = moves[:2] + (acx4.Move(acx4.BLOW_UP, 0, 1, vector),) + moves[:2]
        with pytest.raises(ValueError):
            emit_document(document_for(acx4.MoveLog(fams[0], odd, fams[0])))


def test_every_normal_form_kind_matches_json_dumps():
    fams = [cp2_family(),  # three
            acx4.MultiFanFamily((acx4.make_hirzebruch_fan((1, 0), (0, 1), -7),)),  # four
            acx4.gen_random_family(3, 1, 4),  # large
            acx4.gen_random_family(9, 3, 2)]  # all three at once
    kinds = set()
    for fam in fams:
        assert_emits_match_reference(fam)
        kinds |= {type(form) for _, form, _ in classification_rows(fam)}
    assert kinds == {tuple, acx4.HirzebruchForm, type(None)}


def test_criterion_4_documents_match_json_dumps(criterion_4_reductions):
    # every log, which holds both families; the other shapes on every tenth seed
    for seed, (fam, _, log) in enumerate(criterion_4_reductions):
        doc = document_for(log)
        assert emit_document(doc) == oracles.reference_emit_document(doc)
        if seed % 10 == 0:
            for payload in (acx4.family_to_graph(fam), acx4.chi_y_report(fam)):
                doc = document_for(payload)
                assert emit_document(doc) == oracles.reference_emit_document(doc)
            rows = classification_rows(fam)
            assert emit_classification(rows) == oracles.reference_emit_classification(rows)


def test_euclid_documents_match_json_dumps():
    for n in range(1, 301):
        fan = acx4.validate_multifan([(1, 0), (n, 1), (-n - 1, -1)])
        assert_emits_match_reference(acx4.MultiFanFamily((fan,)))
        if n % 10 == 1:  # its log is the log document's template, checked above
            log, model = acx4.normalize_complex(fan)
            assert emit_normal_form(log, model) == oracles.reference_emit_normal_form(log, model)
