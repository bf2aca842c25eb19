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

Emission builds the text from fixed %-templates for these shapes, with no
tree of dicts in between; its bytes are exactly those of
json.dumps(obj, indent=2) + "\n" on the equivalent tree.  A vector list,
a graph's edges, a fan's plumbing pieces and a batch of moves outside a
run repeat one template, filled by one % format in C; one min and one max
decide once per sequence whether its integers print as JSON numbers.
Parsing names the path of the first fault, in reading order, and spells
paths only then.

A family or graph object from json.loads is first checked whole, with one
pass in C per kind of value: set(map(type, ...)) and set(map(len, ...))
over its fans, vectors and coordinates, or over its vertices, edges, ends
and labels, flattened by chain.from_iterable.  When every fan holds a
list of 2-element lists of ints, or every vertex and edge end is a string
and every label such a pair, the values go as they are to the
admissibility checks, multifan.admissible_family and
torusgraph.admissible_graph, which skip the per-value type checks of
validate_family and validate_graph.  type(True) is bool, not int, so a
boolean misses the check, as does a quoted integer.  On any miss the
object is read field by field, which finds the first fault in reading
order, so the payloads and errors are those of the field reader alone.

A log is read in one pass over its moves: each is decoded, applied and
kept as a Move.  Each applied move goes to a reduction.RunCutter, as in
the engine, so the reader cuts the engine's runs: once a block of a = 0
steps has been applied twice, each further repeat is checked against the
run's closed form instead of applied, all but the last are kept as one
Run, and the last is read step by step.  The emitter writes a Run's
repeats as column text: one repeat's fixed text around the coordinates
that move, each distinct value printed once per chunk of repeats.  A
column whose values in the chunk are all negative, as its two ends show,
prints a "-" at the end of the fixed text before it and then their
absolute values; the columns that then share a step and their start
modulo it lie on one progression, whose covering range is converted once
in C and sliced per column, unless it holds more values than the columns
print, when each column is converted alone.  The texts go into one list
by slice assignments, which the log's one join copies.

A text that is, byte for byte, a log as the emitter writes it (the
canonical-form argument of RFC 8785), each integer of its moves unquoted
and at most 15 digits long, is read so with no JSON tree: its families
are decoded in place, each move outside a run must match a pattern made
from the emitter's move template, and the further repeats of a run are
the emitter's column text of them, compared in place in chunks of 1, 2,
4, ... up to 64 repeats, with the fold and grouping of its columns worked
out once per run and again only where a column changes sign.  Any other
byte, a 16-digit or quoted coordinate, or any fault, sends the whole text
to json.loads, where a log is read field by field: the first move that
does not apply stops the applying but not the decoding, so a malformed
move anywhere is reported before an inapplicable one, as when the moves
are all read and then replayed, and a move that departs from a run's
closed form is read again step by step, so it fails with the same path
and message.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cache
from itertools import chain, groupby, starmap
from json.encoder import encode_basestring_ascii as _string  # json.dumps(s), in C
from operator import attrgetter, itemgetter

from .classify import HirzebruchForm
from .errors import DomainError, MoveInapplicable, ParseError, UnknownFormat, digit_limit
from .invariants import ChiYReport
from .multifan import MultiFan, MultiFanFamily, admissible_family
from .reduction import (
    BLOW_DOWN,
    BLOW_UP,
    ComplexModel,
    Move,
    MoveLog,
    Run,
    RunCutter,
    apply_move,
    run_steps,
)
from .torusgraph import Edge, TorusGraph, admissible_graph

# not called here: bench/workloads.py::span_targets traces serialize.replay,
# serialize.validate_family and serialize.validate_graph, and a traced run
# fails without these names
from .multifan import validate_family
from .reduction import replay
from .torusgraph import validate_graph

FORMAT_FAMILY = "acx4-fans/1"
FORMAT_GRAPH = "acx4-graph/1"
FORMAT_LOG = "acx4-log/1"
FORMAT_REPORT = "acx4-report/1"

_JSON_SAFE_INT = (1 << 53) - 1

_KINDS = (BLOW_UP, BLOW_DOWN)
_KIND_OF = {kind: kind for kind in _KINDS}  # a read kind to the shared constant
_KIND_TEXT = {kind: _string(kind) for kind in _KINDS}

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
#
# A reader gets a value and its path: "" at the top level, else a (parent
# path, field name or array index) pair.  The path is spelled out, as in
# "fans[0].vectors[1][0]", only when a ParseError is raised.

def _spell(path) -> str:
    steps = []
    while path:
        path, step = path
        steps.append(f"[{step}]" if isinstance(step, int) else f".{step}")
    return "".join(reversed(steps)).removeprefix(".")


def _error(path, message) -> ParseError:
    return ParseError(_spell(path) or "$", message)


def _field(obj, key, path, read):
    """read(obj[key], its path), once obj is an object holding key."""
    if not isinstance(obj, dict):
        raise _error(path, "expected an object")
    if key not in obj:
        raise _error((path, key), "missing field")
    return read(obj[key], (path, key))


def _each(read):
    """A reader of an array that reads each element with its [i] path."""
    return lambda obj, path: [read(item, (path, i))
                              for i, item in enumerate(_list_from(obj, path))]


def is_decimal(text: str) -> bool:
    """Whether text is an optional "-" and ASCII digits 0-9 only: the one
    spelling of an integer that documents and the CLI accept."""
    body = text[1:] if text.startswith("-") else text
    return body.isascii() and body.isdigit()


def _int_from(obj, path) -> int:
    if isinstance(obj, bool):
        raise _error(path, "expected an integer")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str) and is_decimal(obj):
        try:
            return int(obj)
        except ValueError as exc:
            # past the interpreter's int/str digit limit
            raise _error(path, f"unreadable integer: {exc}") from None
    raise _error(path, f"expected an integer, got {obj!r}")


def _vec_from(obj, path):
    if not isinstance(obj, list) or len(obj) != 2:
        raise _error(path, "expected a 2-element integer array")
    return (_int_from(obj[0], (path, 0)), _int_from(obj[1], (path, 1)))


def _str_from(obj, path) -> str:
    if not isinstance(obj, str):
        raise _error(path, f"expected a string, got {obj!r}")
    return obj


def _list_from(obj, path) -> list:
    if not isinstance(obj, list):
        raise _error(path, "expected an array")
    return obj


def _fan_from(obj, path):
    return _field(obj, "vectors", path, _each(_vec_from))


def _int_pairs(vectors) -> bool:
    """Whether every item is a 2-element list of ints, checked in C: json
    gives a pair only as a list, and type(True) is bool, not int."""
    return (set(map(type, vectors)) <= {list} and set(map(len, vectors)) <= {2}
            and set(map(type, chain.from_iterable(vectors))) <= {int})


def _typed_fans(data):
    """A family object's fans as tuples of int pairs, when every value has
    the shape and type the format asks for; else None."""
    fans = data.get("fans")
    if type(fans) is list and set(map(type, fans)) <= {dict}:
        vectors = [fan.get("vectors") for fan in fans]
        if set(map(type, vectors)) <= {list} and _int_pairs(list(chain.from_iterable(vectors))):
            return [tuple(map(tuple, vs)) for vs in vectors]
    return None


def _family_from(data, path) -> MultiFanFamily:
    fans = _typed_fans(data)
    if fans is None:  # read field by field, which finds the first fault in order
        fans = _field(data, "fans", path, _each(_fan_from))
    return admissible_family(fans)


def _edge_from(obj, path):
    return (_field(obj, "from", path, _str_from), _field(obj, "to", path, _str_from),
            _field(obj, "label", path, _vec_from))


def _typed_graph(data):
    """A graph object's vertices and edges as strings and (str, str, int
    pair) triples, when every value has the shape and type the format asks
    for; else None."""
    vertices, edges = data.get("vertices"), data.get("edges")
    if type(vertices) is list and type(edges) is list and set(map(type, edges)) <= {dict}:
        try:
            srcs, dsts, labels = (list(map(itemgetter(key), edges))
                                  for key in ("from", "to", "label"))
        except KeyError:
            return None
        if set(map(type, chain(vertices, srcs, dsts))) <= {str} and _int_pairs(labels):
            return vertices, zip(srcs, dsts, map(tuple, labels))
    return None


def _graph_from(data, path) -> TorusGraph:
    graph = _typed_graph(data)
    if graph is None:  # read field by field, which finds the first fault in order
        graph = (_field(data, "vertices", path, _each(_str_from)),
                 _field(data, "edges", path, _each(_edge_from)))
    vertices, edges = graph
    return admissible_graph(vertices, starmap(Edge, edges))


def _family_tag(tag, path):
    if tag != FORMAT_FAMILY:
        raise _error(path, f"expected {FORMAT_FAMILY!r}, got {tag!r}")


def _embedded_family_from(data, path) -> MultiFanFamily:
    _field(data, "format", path, _family_tag)
    return _family_from(data, path)


def _kind_from(obj, path) -> str:
    kind = _str_from(obj, path)
    if kind not in _KINDS:
        raise _error(path, f"unknown move kind {kind!r}")
    return kind


def _move_from(obj, path) -> Move:
    # read field by field, which finds the first fault in order
    return Move(_field(obj, "kind", path, _kind_from),
                _field(obj, "fan", path, _int_from),
                _field(obj, "position", path, _int_from),
                _field(obj, "vector", path, _vec_from))


def _repeats(items, n, block, fans) -> int:
    """How many further repeats of a block of run keys items[n:] log
    exactly as predicted.

    Step m, (j, up, down, delta) = run_steps(block, fans)[m], of repeat r
    must read blow_up(j, up, w + delta) and then blow_down(j, down, w),
    w = v[i] + r*delta for the key (j, i, side), with every index and
    coordinate an int.
    """
    steps = run_steps(block, fans)
    track = [(j, up, down, dx, dy, list(fans[j][i]))
             for (j, up, down, (dx, dy)), (_, i, _) in zip(steps, block)]
    count = 0
    try:
        while True:
            for j, up, down, dx, dy, w in track:
                o, d = items[n], items[n + 1]
                n += 2
                wx, wy = w
                f1, p1, (ux, uy) = o["fan"], o["position"], o["vector"]
                f2, p2, (vx, vy) = d["fan"], d["position"], d["vector"]
                if not (vx == wx and vy == wy and ux == wx + dx and uy == wy + dy
                        and f1 == j and f2 == j and p1 == up and p2 == down
                        and o["kind"] == BLOW_UP and d["kind"] == BLOW_DOWN
                        and int is type(f1) is type(f2) is type(p1) is type(p2)
                        is type(ux) is type(uy) is type(vx) is type(vy)):
                    return count
                w[0], w[1] = ux, uy
            count += 1
    except (KeyError, TypeError, IndexError, ValueError):
        return count  # a move that is not a well-formed object


def _log_from(data, path) -> MoveLog:
    """Decode, apply and keep each move in one pass over the moves, as the
    module docstring says: after the first move that does not apply, the
    rest are only read, and a run's repeats past the first one not as
    predicted are read step by step again."""
    initial = _field(data, "initial", path, _embedded_family_from)
    final = _field(data, "final", path, _embedded_family_from)
    items = _field(data, "moves", path, _list_from)
    fans = [list(fan.vectors) for fan in initial.fans]
    cutter = RunCutter(fans)
    entries = []
    append = entries.append
    failed = None
    i = 0
    while i < len(items):
        obj = items[i]
        # a log holds thousands of moves: take a well-formed one as it is
        # (json gives a two-item sequence of ints only as a list), and read
        # any other field by field, which finds the first fault in order
        try:
            kind = _KIND_OF.get(obj["kind"])
            fan, position, (x, y) = obj["fan"], obj["position"], obj["vector"]
        except (KeyError, TypeError, ValueError):
            kind = None
        if (kind is None or type(fan) is not int or type(position) is not int
                or type(x) is not int or type(y) is not int):
            kind, fan, position, vector = move = _move_from(obj, ((path, "moves"), i))
        else:
            vector = (x, y)
            move = Move(kind, fan, position, vector)
        append(move)
        i += 1
        if failed is not None:
            continue
        try:
            apply_move(fans, kind, fan, position, vector)
        except DomainError as exc:
            failed = MoveInapplicable(i - 1, str(exc))
            failed.__cause__ = exc
            continue
        block = cutter.feed(kind, fan, position)
        run = block and cutter.take_run(block, _repeats(items, i, block, fans) - 1)
        if run:
            append(run)
            i += 2 * len(block) * run.count
    if failed is not None:
        raise _error((path, "moves"), str(failed)) from failed
    if fans != [list(fan.vectors) for fan in final.fans]:
        raise _error((path, "final"), "does not match the replay of the moves")
    return MoveLog(initial, entries, final)


@cache
def _canonical_readers():
    """The match of a move's text in a top-level log, minus its leading
    ",", from the emitter's template; a raw JSON decoder; and each kind by
    its text.  Built on first use: compiling takes about 0.5 ms."""
    head, tail = _move_template("")
    literals = [re.escape(text) for text in re.split("%[sd]", (head + tail)[1:])]
    # then fan, position and vector as the emitter writes them: no leading
    # zero, no -0, and at most 15 digits, so within 2**53 - 1 and unquoted
    fields = ["(%s)" % "|".join(map(re.escape, _KIND_TEXT.values()))]
    fields += ["(0|-?[1-9][0-9]{0,14})"] * 4
    pattern = "".join(chain.from_iterable(zip(literals, fields))) + literals[-1]
    return (re.compile(pattern).match, json.JSONDecoder().raw_decode,
            {text: kind for kind, text in _KIND_TEXT.items()})


def _text_repeats(text, pos, block, fans):
    """(count, last): how many further repeats of a block of run keys the
    text holds from pos on, each the emitter's column text of it compared
    in place, and where the last starts.  Chunks of 1, 2, 4, ... up to 64
    repeats are compared whole, and the first that differs one repeat at a
    time.  The count stops before a coordinate would pass 2**53 - 1, which
    the emitter quotes."""
    template = _run_template("", run_steps(block, fans), [fans[j][i] for j, i, _ in block])
    columns = template[1]
    # column (v, d) writes v + r*d in repeat r, within the bound while
    # r*|d| <= bound - |v| along d's sign
    limit = min((_JSON_SAFE_INT - (v if d > 0 else -v)) // abs(d) + 1 for v, d in columns)
    # a column's cut is the repeat where it turns negative or stops being so;
    # the plan is made again only for a chunk that reaches past the next cut
    cuts = [-(v // d) if d > 0 else v // -d + 1 for v, d in columns]
    n, end, size, until = 0, pos, 1, 0
    while n < limit:
        size = min(size, limit - n)
        if n + size > until:
            plan = _run_plan(template, _run_folds(columns, n, size))
            until = min([cut for cut in cuts if cut > n], default=limit)
        texts = _run_repeats(template, n, size, plan)
        chunk = "".join(texts)
        if not text.startswith(chunk, end):
            width = len(texts) // size
            for i in range(0, len(texts), width):
                one = "".join(texts[i:i + width])
                if not text.startswith(one, end):
                    break
                n += 1
                end += len(one)
            break
        n += size
        end += len(chunk)
        size = min(2 * size, 64)
    return n, end - len(_run_text(template, n - 1, 1)) if n else pos


def _canonical_log(text) -> MoveLog | None:
    """The log of a text that is, byte for byte, a top-level log as the
    emitter writes it, read as the module docstring says; None, never an
    error, for any other text or any fault, which json.loads then reports.
    Moves are applied and fed to a RunCutter as in _log_from."""
    start, to_moves, after_moves, to_final, close = _log_frame("")
    if not (isinstance(text, str) and text.startswith(start)):
        return None
    match, decode, kinds = _canonical_readers()
    try:
        obj, pos = decode(text, len(start))
        initial = _embedded_family_from(obj, ("", "initial"))
        if not text.startswith(to_moves, pos):
            return None
        pos += len(to_moves)
        fans = [list(fan.vectors) for fan in initial.fans]
        cutter = RunCutter(fans)
        entries = []
        append = entries.append
        if text.startswith("]", pos):
            pos += 1
        else:
            while True:
                m = match(text, pos)
                if m is None:
                    return None
                kind, fan, position, x, y = m.groups()
                kind, fan, position = kinds[kind], int(fan), int(position)
                vector = (int(x), int(y))
                append(Move(kind, fan, position, vector))
                apply_move(fans, kind, fan, position, vector)
                pos = m.end()
                block = cutter.feed(kind, fan, position)
                if block:
                    repeats, last = _text_repeats(text, pos, block, fans)
                    run = cutter.take_run(block, repeats - 1)
                    if run:
                        append(run)
                        pos = last
                if not text.startswith(",", pos):
                    break
                pos += 1
            if not text.startswith(after_moves, pos):
                return None
            pos += len(after_moves)
        if not text.startswith(to_final, pos):
            return None
        obj, pos = decode(text, pos + len(to_final))
        final = _embedded_family_from(obj, ("", "final"))
    except (ValueError, RecursionError):  # ParseError and DomainError too
        return None
    if text[pos:] != close + "\n" or fans != [list(fan.vectors) for fan in final.fans]:
        return None
    return MoveLog(initial, entries, final)


def _counts_from(obj, path):
    if len(_list_from(obj, path)) != 3:
        raise _error(path, "expected exactly 3 counts")
    a0, a1, a2 = _each(_int_from)(obj, path)
    if min(a0, a1, a2) < 0:
        raise _error(path, "counts must be nonnegative")
    if a0 != a2:
        raise _error(path, "first and last counts must agree")
    return a0, a1, a2


def _report_from(data, path) -> ChiYReport:
    report = ChiYReport.from_counts(*_field(data, "a", path, _counts_from))
    # every field is read before any is compared: missing beats inconsistent
    fields = [_field(data, key, path, _int_from) for key in _REPORT_FIELDS]
    for key, got in zip(_REPORT_FIELDS, fields):
        want = getattr(report, key)
        if got != want:
            raise _error((path, key), f"inconsistent with the counts: expected {want}")
    return report


def parse_document(text: str) -> Document:
    """Parse and validate one document of any known format."""
    log = _canonical_log(text)
    if log is not None:
        return Document(FORMAT_LOG, log)
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
#
# Each shape is text built from fixed %-templates, given the indent p of the
# line its value starts on and the text end that follows it; the bytes are
# those of json.dumps(obj, indent=2).

def _int(n: int) -> str:
    return "%d" % n if -_JSON_SAFE_INT <= n <= _JSON_SAFE_INT else '"%d"' % n


def _array(items, p) -> str:
    """A JSON array of formatted items, its closing bracket at indent p."""
    if not items:
        return "[]"
    inner = "\n" + p + "  "
    return "".join(["[", inner, ("," + inner).join(items), "\n", p, "]"])


def _object(p, *fields, end="") -> str:
    """A JSON object of one or more (key, formatted value) pairs, its brace
    at indent p, then end."""
    inner = "\n" + p + "  "
    parts = ["{"]
    for key, value in fields:
        parts += [inner, '"%s": ' % key, value, ","]
    parts[-1] = "\n" + p + "}" + end  # in place of the last comma
    return "".join(parts)


@cache
def _vec_template(p) -> str:
    """The template of a vector of two integer texts, its bracket at indent p."""
    return "[\n" + p + "  %s,\n" + p + "  %s\n" + p + "]"


def _json_numbers(ints) -> bool:
    """Whether every integer of a sequence prints as a JSON number, by one
    min and one max in C."""
    return not ints or (-_JSON_SAFE_INT <= min(ints) and max(ints) <= _JSON_SAFE_INT)


def _ints(values):
    """("%d", the ints) when every one prints as a JSON number, else ("%s",
    their _int texts): a template's slot and values, decided once."""
    if _json_numbers(values):
        return "%d", values
    return "%s", list(map(_int, values))


def _filled(item, n, p, values) -> str:
    """An array at indent p of n copies of the %-template item, filled in
    order from values by one format in C."""
    return _array([item] * n, p) % tuple(values)


def _vecs(vectors, p) -> str:
    slot, coords = _ints(tuple(chain.from_iterable(vectors)))
    return _filled(_vec_template(p + "  ") % (slot, slot), len(vectors), p, coords)


def _family_text(fam: MultiFanFamily, p, end="") -> str:
    fan = p + "    "
    return _object(p, ("format", _string(FORMAT_FAMILY)),
                   ("fans", _array([_object(fan, ("vectors", _vecs(f.vectors, fan + "  ")))
                                    for f in fam.fans], p + "  ")), end=end)


@cache
def _edge_template(p) -> str:
    """The template of an edge at indent p: its two ends' texts, then its
    label's two integer texts."""
    return _object(p, ("from", "%s"), ("to", "%s"), ("label", _vec_template(p + "  ")))


_src, _dst, _label = attrgetter("src"), attrgetter("dst"), attrgetter("label")


def _graph_text(g: TorusGraph, p, end="") -> str:
    edge = _edge_template(p + "    ")
    ends = map(_string, map(_src, g.edges)), map(_string, map(_dst, g.edges))
    slot, coords = _ints(tuple(chain.from_iterable(map(_label, g.edges))))
    edges = _filled(edge % ("%s", "%s", slot, slot), len(g.edges), p + "  ",
                    chain.from_iterable(zip(*ends, coords[::2], coords[1::2])))
    return _object(p, ("format", _string(FORMAT_GRAPH)),
                   ("vertices", _array(list(map(_string, g.vertices)), p + "  ")),
                   ("edges", edges), end=end)


@cache
def _log_frame(p):
    """The fixed text of a log object at indent p: before its initial
    family, from there to its first move, after its last move, before its
    final family, and after that."""
    key = ",\n" + p + '  "%s": '
    return ("{\n" + p + '  "format": ' + _string(FORMAT_LOG) + key % "initial",
            key % "moves" + "[", "\n" + p + "  ]", key % "final", "\n" + p + "}")


def _move_template(p):
    """The text of a move in a log at indent p, led by the "," that parts it
    from the move before, as (head, tail): head takes the kind's text, the
    fan and the position, tail the vector's two integer texts."""
    field = p + "      "  # a move's fields: the moves array sits two levels in
    return (",\n" + p + "    {\n" + field + '"kind": %s,\n' + field + '"fan": %d,\n'
            + field + '"position": %d,\n' + field + '"vector": ',
            _vec_template(field) + "\n" + p + "    }")


def _run_template(p, steps, starts):
    """A run's repeat in a log at indent p, as (literal texts, columns):
    the repeat's text is the literals with one moving coordinate between
    each two, written from its column (value in repeat 0, step).  Step
    (j, up, down, delta) from w writes w + (r + 1)*delta at its blow-up
    and w + r*delta at its blow-down; a coordinate whose delta is 0 is
    in the literal text."""
    head, tail = _move_template(p)
    pre, mid, post = tail.split("%s")
    literals, columns = [""], []
    for (j, up, down, (dx, dy)), (x, y) in zip(steps, starts):
        for kind, position, wx, wy in ((BLOW_UP, up, x + dx, y + dy), (BLOW_DOWN, down, x, y)):
            literals[-1] += head % (_KIND_TEXT[kind], j, position)
            for sep, v, d in ((pre, wx, dx), (mid, wy, dy)):
                literals[-1] += sep
                if d:
                    columns.append((v, d))
                    literals.append("")
                else:
                    literals[-1] += "%d" % v
            literals[-1] += post
    return literals, columns


def _run_folds(columns, r, n):
    """Which columns of a run template print only negative values in repeats
    r .. r + n - 1: a column moves one way, so its two ends tell."""
    last = r + n - 1
    return tuple(v + r * d < 0 and v + last * d < 0 for v, d in columns)


def _run_plan(template, folds):
    """How a run template's columns print, a folded one as a "-" at the end
    of the literal before it and then its absolute values: (literal texts,
    groups).  Columns whose (printed) values share a step and their start
    modulo it lie on one progression, a group (step, base, span, members):
    member (column, offset) prints base + (offset + r)*step in repeat r,
    and span is the largest offset."""
    literals, columns = template
    literals = list(literals)
    progressions = {}
    for c, ((v, d), fold) in enumerate(zip(columns, folds)):
        if fold:
            literals[c] += "-"
            v, d = -v, -d
        progressions.setdefault((d, v % d), []).append((c, v))
    groups = []
    for (d, _), members in progressions.items():
        base = (min if d > 0 else max)(v for _, v in members)
        offsets = [(c, (v - base) // d) for c, v in members]
        groups.append((d, base, max(offset for _, offset in offsets), offsets))
    return literals, groups


def _run_repeats(template, r, n, plan=None):
    """Repeats r .. r + n - 1 of a run template as one list of texts, each
    repeat its literals with a column's value between each two, printed by
    plan, a _run_plan valid for those repeats (made when not given).  A
    group's values are converted once, from one range that covers its
    columns, when that holds no more values than its columns print; else
    each column's are converted alone.  Each literal and each column goes
    in by one slice assignment in C."""
    literals, groups = plan or _run_plan(template, _run_folds(template[1], r, n))
    width = 2 * len(literals) - 1
    texts = [None] * (width * n)
    for i, literal in enumerate(literals):
        texts[2 * i::width] = [literal] * n
    for d, base, span, members in groups:
        start = base + r * d
        # range gives plain ints, whose repr is their %d text
        if span + n <= len(members) * n:
            values = list(map(repr, range(start, start + (span + n) * d, d)))
            for c, offset in members:
                texts[2 * c + 1::width] = values[offset:offset + n] if span else values
        else:
            for c, offset in members:
                first = start + offset * d
                texts[2 * c + 1::width] = map(repr, range(first, first + n * d, d))
    return texts


def _run_text(template, r, n):
    """The text of repeats r .. r + n - 1 of a run template, joined in C."""
    return "".join(_run_repeats(template, r, n))


def _log_text(log: MoveLog, p, end="") -> str:
    """The log's text, from one list of parts joined once: its moves run to
    megabytes, which each further join or + would copy again."""
    head, tail = _move_template(p)

    def text(batch):
        """A batch of moves, each led by its ",", filled by one format."""
        # each vector unpacks as a pair, so a longer one raises
        *fields, xs, ys = zip(*[(_KIND_TEXT.get(kind) or _string(kind), fan, position, x, y)
                                for kind, fan, position, (x, y) in batch])
        slot, coords = _ints(xs + ys)
        n = len(xs)
        return ("".join([head + tail % (slot, slot)] * n)
                % tuple(chain.from_iterable(zip(*fields, coords[:n], coords[n:]))))

    start, to_moves, after_moves, to_final, close = _log_frame(p)
    parts = [start, _family_text(log.initial, p + "  "), to_moves]
    first = len(parts)
    for cls, entries in groupby(log.entries, type):
        if cls is not Run:
            parts.append(text(entries))
            continue
        for run in entries:
            # a coordinate's extremes are at its ends, w and w + count*delta
            if _json_numbers([c for (*_, (dx, dy)), (x, y) in zip(run.steps, run.starts)
                              for c in (x, y, x + run.count * dx, y + run.count * dy)]):
                # its texts, not their join: the final join copies them once
                parts += _run_repeats(_run_template(p, run.steps, run.starts), 0, run.count)
            elif run.count:  # a run of no repeats prints nothing
                parts.append(text(run.moves()))
    if len(parts) > first:
        parts[first] = parts[first][1:]  # the first move follows the "["
        parts.append(after_moves)
    else:
        parts[-1] += "]"
    parts += [to_final, _family_text(log.final, p + "  "), close + end]
    return "".join(parts)


def _report_text(report: ChiYReport, p, end="") -> str:
    return _object(p, ("format", _string(FORMAT_REPORT)),
                   ("a", _array(["%d" % report.a0, "%d" % report.a1, "%d" % report.a2],
                                p + "  ")),
                   *[(key, "%d" % getattr(report, key)) for key in _REPORT_FIELDS],
                   end=end)


def emit_document(doc: Document) -> str:
    """Deterministic text form of a document; parse(emit(d)) == d."""
    _, _, encode = _codec(doc.format)
    with digit_limit():  # "%d" raises ValueError on an integer past it
        return encode(doc.payload, "", "\n")


# tag -> (payload type, decoder, encoder)
_FORMATS = {
    FORMAT_FAMILY: (MultiFanFamily, _family_from, _family_text),
    FORMAT_GRAPH: (TorusGraph, _graph_from, _graph_text),
    FORMAT_LOG: (MoveLog, _log_from, _log_text),
    FORMAT_REPORT: (ChiYReport, _report_from, _report_text),
}


def _codec(tag):
    # a tag that is not a string, even an unhashable one, is unknown too
    if isinstance(tag, str) and tag in _FORMATS:
        return _FORMATS[tag]
    raise UnknownFormat(tag)


# --- summaries ---------------------------------------------------------------

def _normal_form_text(form, p) -> str:
    if form is None:
        return _object(p, ("kind", _string("large")))
    vec = _vec_template(p + "  ")
    if isinstance(form, HirzebruchForm):
        return _object(p, ("kind", _string("four")),
                       ("v1", vec % (_int(form.v1[0]), _int(form.v1[1]))),
                       ("v2", vec % (_int(form.v2[0]), _int(form.v2[1]))),
                       ("a", "%d" % form.a), ("rotation", "%d" % form.rotation))
    (x1, y1), (x2, y2) = form
    return _object(p, ("kind", _string("three")),
                   ("v1", vec % (_int(x1), _int(y1))), ("v2", vec % (_int(x2), _int(y2))))


@cache
def _piece_template(p) -> str:
    """The template of a plumbing piece at indent p: its Euler number's
    text, then its two sphere weights' four integer texts."""
    vecs = _array([_vec_template(p + "    ")] * 2, p + "  ")
    return _object(p, ("euler_number", "%s"), ("sphere_weights", vecs))


_euler, _weights = attrgetter("euler_number"), attrgetter("sphere_weights")


def _plumbing_text(pieces, p) -> str:
    """A fan's plumbing pieces, each with two sphere weights, at indent p."""
    piece = _piece_template(p + "  ")
    slot, coords = _ints(tuple(chain.from_iterable(chain.from_iterable(map(_weights, pieces)))))
    return _filled(piece % ("%d", slot, slot, slot, slot), len(pieces), p,
                   chain.from_iterable(zip(map(_euler, pieces), *[iter(coords)] * 4)))


def emit_classification(rows) -> str:
    """Text of the classification summary, from one (fan, normal form,
    plumbing pieces) row per fan; the normal form is recognize_three's
    pair, recognize_four's HirzebruchForm, or None for any other length."""
    with digit_limit():
        return _object("", ("fans", _array([
            _object("    ", ("length", "%d" % len(fan.vectors)),
                    ("normal_form", _normal_form_text(form, "      ")),
                    ("plumbing", _plumbing_text(plumbing, "      ")))
            for fan, form, plumbing in rows], "  ")), end="\n")


def emit_normal_form(log: MoveLog, model: ComplexModel) -> str:
    """Text of the normal-form summary: the model a winding-one fan
    reduces to and the log of the moves that reach it."""
    with digit_limit():
        return _object("", ("model", _object("  ", ("name", _string(model.name)),
                                             ("a", "%d" % model.a),
                                             ("rotation", "%d" % model.rotation))),
                       ("log", _log_text(log, "  ")), end="\n")
