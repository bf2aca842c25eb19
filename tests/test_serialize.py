import json
import random
import sys

import pytest

import acx4
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


def test_log_document_round_trip():
    _, log = acx4.reduce_to_minimal(cp2_family())
    doc = document_for(log)
    assert doc.format == FORMAT_LOG
    again = parse_document(emit_document(doc))
    assert again == doc


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
], ids=["long-number", "long-string", "long-negative-string", "superscript"])
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
