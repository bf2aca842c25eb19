"""Versioned JSON documents for families, graphs, move logs, and reports.

Formats (UTF-8 JSON, field order irrelevant on input, emission
deterministic):

  acx4-fans/1    {"format": ..., "fans": [{"vectors": [[1, 0], ...]}, ...]}
  acx4-graph/1   {"format": ..., "vertices": ["p1", ...],
                  "edges": [{"from": "p1", "to": "p2", "label": [1, 0]}, ...]}
  acx4-log/1     {"format": ..., "initial": <family document>,
                  "moves": [{"kind": "blow_up", "fan": 0, "position": 0,
                             "vector": [0, 1]}, ...],
                  "final": <family document>}
  acx4-report/1  {"format": ..., "a": [1, 1, 1], "euler": 3, "todd": 1,
                  "signature": 1, "c1_sq": 9, "c2": 3}

Integers within the 53-bit double-safe range serialize as JSON numbers and
as decimal strings beyond it, losslessly either way.  A string integer is
an optional "-" and ASCII digits 0-9 only: any other Unicode digit is a
ParseError, so a parse-emit round trip keeps the bytes.  Unknown extra
fields are ignored on input, and an integer the interpreter will not
convert (past its int/str digit limit) is a ParseError; an emitter asked
to print one raises DomainError.  Parsed payloads are fully validated: families
and graphs go through their validators and a log's moves must replay from
its initial family to its final one.

Two summaries are text only, with no format tag and no parser:

  classification  {"fans": [{"length": 4, "normal_form": {"kind": "four",
                     "v1": [1, 0], "v2": [0, 1], "a": 1, "rotation": 0},
                     "plumbing": [{"euler_number": 0,
                                   "sphere_weights": [[1, 0], [0, 1]]}, ...]}, ...]}
                  (kind "three" has v1 and v2 only, kind "large" no field)
  normal form     {"model": {"name": ..., "a": 1, "rotation": 0}, "log": <log>}

Their vectors follow the integer rule above; "a" and "euler_number" print as
JSON numbers at any size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .classify import HirzebruchForm
from .errors import MoveInapplicable, ParseError, UnknownFormat, digit_limit
from .invariants import ChiYReport
from .multifan import MultiFan, MultiFanFamily, validate_family
from .reduction import BLOW_DOWN, BLOW_UP, ComplexModel, Move, MoveLog, replay
from .torusgraph import TorusGraph, validate_graph

FORMAT_FAMILY = "acx4-fans/1"
FORMAT_GRAPH = "acx4-graph/1"
FORMAT_LOG = "acx4-log/1"
FORMAT_REPORT = "acx4-report/1"

_JSON_SAFE_INT = (1 << 53) - 1

# the report's fields derived from its counts, in document order
_REPORT_FIELDS = ("euler", "todd", "signature", "c1_sq", "c2")


@dataclass(frozen=True)
class Document:
    """A format tag plus the validated payload it announced."""

    format: str
    payload: object


def document_for(payload) -> Document:
    """Wrap a payload value in the document kind that carries it."""
    if isinstance(payload, MultiFan):
        payload = MultiFanFamily((payload,))
    for tag, (kind, _, _) in _FORMATS.items():
        if isinstance(payload, kind):
            return Document(tag, payload)
    raise TypeError(f"no document format for {type(payload).__name__}")


# --- decoding ----------------------------------------------------------------

def _field(obj, key, path, read):
    """read(obj[key], its path), once obj is an object holding key."""
    if not isinstance(obj, dict):
        raise ParseError(path or "$", "expected an object")
    if key not in obj:
        raise ParseError(_join(path, key), "missing field")
    return read(obj[key], _join(path, key))


def _join(path, key):
    return f"{path}.{key}" if path else key


def _each(read):
    """A reader of an array that reads each element with its [i] path."""
    return lambda obj, path: [read(item, f"{path}[{i}]")
                              for i, item in enumerate(_list_from(obj, path))]


def _int_from(obj, path) -> int:
    if isinstance(obj, bool):
        raise ParseError(path, "expected an integer")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        body = obj[1:] if obj.startswith("-") else obj
        if body.isascii() and body.isdigit():
            try:
                return int(obj)
            except ValueError as exc:
                # past the interpreter's int/str digit limit
                raise ParseError(path, f"unreadable integer: {exc}") from None
    raise ParseError(path, f"expected an integer, got {obj!r}")


def _vec_from(obj, path):
    if not isinstance(obj, list) or len(obj) != 2:
        raise ParseError(path, "expected a 2-element integer array")
    return (_int_from(obj[0], f"{path}[0]"), _int_from(obj[1], f"{path}[1]"))


def _str_from(obj, path) -> str:
    if not isinstance(obj, str):
        raise ParseError(path, f"expected a string, got {obj!r}")
    return obj


def _list_from(obj, path) -> list:
    if not isinstance(obj, list):
        raise ParseError(path, "expected an array")
    return obj


def _fan_from(obj, path):
    return _field(obj, "vectors", path, _each(_vec_from))


def _family_from(data, path) -> MultiFanFamily:
    return validate_family(_field(data, "fans", path, _each(_fan_from)))


def _edge_from(obj, path):
    return (_field(obj, "from", path, _str_from), _field(obj, "to", path, _str_from),
            _field(obj, "label", path, _vec_from))


def _graph_from(data, path) -> TorusGraph:
    return validate_graph(_field(data, "vertices", path, _each(_str_from)),
                          _field(data, "edges", path, _each(_edge_from)))


def _family_tag(tag, path):
    if tag != FORMAT_FAMILY:
        raise ParseError(path, f"expected {FORMAT_FAMILY!r}, got {tag!r}")


def _embedded_family_from(data, path) -> MultiFanFamily:
    _field(data, "format", path, _family_tag)
    return _family_from(data, path)


def _kind_from(obj, path) -> str:
    kind = _str_from(obj, path)
    if kind not in (BLOW_UP, BLOW_DOWN):
        raise ParseError(path, f"unknown move kind {kind!r}")
    return kind


def _move_from(obj, path) -> Move:
    return Move(_field(obj, "kind", path, _kind_from),
                _field(obj, "fan", path, _int_from),
                _field(obj, "position", path, _int_from),
                _field(obj, "vector", path, _vec_from))


def _log_from(data, path) -> MoveLog:
    initial = _field(data, "initial", path, _embedded_family_from)
    final = _field(data, "final", path, _embedded_family_from)
    moves = tuple(_field(data, "moves", path, _each(_move_from)))
    try:
        replayed = replay(initial, moves)
    except MoveInapplicable as exc:
        raise ParseError(_join(path, "moves"), str(exc)) from exc
    if replayed != final:
        raise ParseError(_join(path, "final"),
                         "does not match the replay of the moves")
    return MoveLog(initial, moves, final)


def _counts_from(obj, path):
    if len(_list_from(obj, path)) != 3:
        raise ParseError(path, "expected exactly 3 counts")
    a0, a1, a2 = _each(_int_from)(obj, path)
    if min(a0, a1, a2) < 0:
        raise ParseError(path, "counts must be nonnegative")
    if a0 != a2:
        raise ParseError(path, "first and last counts must agree")
    return a0, a1, a2


def _report_from(data, path) -> ChiYReport:
    report = ChiYReport.from_counts(*_field(data, "a", path, _counts_from))
    # every field is read before any is compared: missing beats inconsistent
    fields = [_field(data, key, path, _int_from) for key in _REPORT_FIELDS]
    for key, got in zip(_REPORT_FIELDS, fields):
        want = getattr(report, key)
        if got != want:
            raise ParseError(_join(path, key),
                             f"inconsistent with the counts: expected {want}")
    return report


def parse_document(text: str) -> Document:
    """Parse and validate one document of any known format."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # a number past the int/str digit limit
        raise ParseError("$", f"unreadable number: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("$", f"nested too deeply: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("$", "top level must be an object")
    tag = _field(data, "format", "", lambda obj, _: obj)
    _, decode, _ = _codec(tag)
    return Document(tag, decode(data, ""))


# --- encoding ----------------------------------------------------------------

def _enc_int(n: int):
    return n if -_JSON_SAFE_INT <= n <= _JSON_SAFE_INT else str(n)


def _enc_vec(v):
    return [_enc_int(v[0]), _enc_int(v[1])]


def _family_obj(fam: MultiFanFamily):
    return {
        "format": FORMAT_FAMILY,
        "fans": [{"vectors": [_enc_vec(v) for v in fan.vectors]}
                 for fan in fam.fans],
    }


def _graph_obj(g: TorusGraph):
    return {
        "format": FORMAT_GRAPH,
        "vertices": list(g.vertices),
        "edges": [{"from": e.src, "to": e.dst, "label": _enc_vec(e.label)}
                  for e in g.edges],
    }


def _log_obj(log: MoveLog):
    return {
        "format": FORMAT_LOG,
        "initial": _family_obj(log.initial),
        "moves": [
            {"kind": m.kind, "fan": m.fan_index, "position": m.position,
             "vector": _enc_vec(m.vector)}
            for m in log.moves
        ],
        "final": _family_obj(log.final),
    }


def _report_obj(report: ChiYReport):
    obj = {"format": FORMAT_REPORT, "a": [report.a0, report.a1, report.a2]}
    obj.update((key, getattr(report, key)) for key in _REPORT_FIELDS)
    return obj


def _dumps(build) -> str:
    with digit_limit():  # str() in _enc_int and json.dumps print every integer
        return json.dumps(build(), indent=2) + "\n"


def emit_document(doc: Document) -> str:
    """Deterministic text form of a document; parse(emit(d)) == d."""
    _, _, encode = _codec(doc.format)
    return _dumps(lambda: encode(doc.payload))


# tag -> (payload type, decoder, encoder)
_FORMATS = {
    FORMAT_FAMILY: (MultiFanFamily, _family_from, _family_obj),
    FORMAT_GRAPH: (TorusGraph, _graph_from, _graph_obj),
    FORMAT_LOG: (MoveLog, _log_from, _log_obj),
    FORMAT_REPORT: (ChiYReport, _report_from, _report_obj),
}


def _codec(tag):
    # a tag that is not a string, even an unhashable one, is unknown too
    if isinstance(tag, str) and tag in _FORMATS:
        return _FORMATS[tag]
    raise UnknownFormat(tag)


# --- summaries ---------------------------------------------------------------

def _normal_form_obj(form):
    if form is None:
        return {"kind": "large"}
    if isinstance(form, HirzebruchForm):
        return {"kind": "four", "v1": _enc_vec(form.v1), "v2": _enc_vec(form.v2),
                "a": form.a, "rotation": form.rotation}
    return {"kind": "three", "v1": _enc_vec(form[0]), "v2": _enc_vec(form[1])}


def emit_classification(rows) -> str:
    """Text of the classification summary, from one (fan, normal form,
    plumbing pieces) row per fan; the normal form is recognize_three's
    pair, recognize_four's HirzebruchForm, or None for any other length."""
    return _dumps(lambda: {"fans": [
        {"length": len(fan.vectors),
         "normal_form": _normal_form_obj(form),
         "plumbing": [{"euler_number": piece.euler_number,
                       "sphere_weights": [_enc_vec(w) for w in piece.sphere_weights]}
                      for piece in plumbing]}
        for fan, form, plumbing in rows
    ]})


def emit_normal_form(log: MoveLog, model: ComplexModel) -> str:
    """Text of the normal-form summary: the model a winding-one fan
    reduces to and the log of the moves that reach it."""
    model_obj = {"name": model.name, "a": model.a, "rotation": model.rotation}
    return _dumps(lambda: {"model": model_obj, "log": _log_obj(log)})
