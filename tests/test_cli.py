import json
import random
import sys
import time

import pytest

import oracles
import acx4
from acx4 import cli
from acx4.cli import build_parser, cli_main, main
from acx4.errors import InternalInconsistency
from acx4.serialize import document_for, emit_document, parse_document


def write_family(tmp_path, name, fam):
    path = tmp_path / name
    path.write_text(emit_document(document_for(fam)))
    return str(path)


@pytest.fixture
def cp2_path(tmp_path):
    fam = acx4.MultiFanFamily((acx4.make_cp2_fan((1, 0), (-1, 1)),))
    return write_family(tmp_path, "cp2.json", fam)


def test_validate_ok(cp2_path, capsys):
    assert cli_main(["validate", cp2_path]) == 0
    assert "ok: acx4-fans/1" in capsys.readouterr().out


def test_console_entry_exits_with_cli_status(cp2_path, tmp_path, monkeypatch, capsys):
    # the installed `acx4` script calls main(), which reads sys.argv and
    # turns cli_main's return value into the exit status
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    for args, status in ((["validate", cp2_path], 0), (["validate", str(bad)], 1),
                         (["frobnicate"], 2)):
        monkeypatch.setattr(sys, "argv", ["acx4"] + args)
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == status
    assert capsys.readouterr().out == "ok: acx4-fans/1\n"


def test_validate_bad_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "acx4-fans/1", "fans": [{"vectors": [[1,0],[1,2],[0,-1]]}]}')
    assert cli_main(["validate", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("coord", ["9" * 5001, '"' + "9" * 5001 + '"', '"\u00b2"'],
                         ids=["long-number", "long-string", "superscript"])
def test_validate_unreadable_integer(coord, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "acx4-fans/1", "fans": [{"vectors": '
                   f'[[1, 0], [{coord}, 1], [0, -1]]}}]}}')
    assert cli_main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_deep_nesting(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"format": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert cli_main(["validate", str(deep)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_blowup_past_the_output_digit_limit(tmp_path, capsys):
    # the input prints, but the blow-up adds a digit to it
    big = tmp_path / "big.json"
    big.write_text('{"format": "acx4-fans/1", "fans": [{"vectors": '
                   '[[1, 0], [0, 1], [-1, "' + "9" * 4300 + '"], [0, -1]]}]}')
    assert cli_main(["validate", str(big)]) == 0
    capsys.readouterr()
    assert cli_main(["blowup", "--fan", "0", "--pos", "1", str(big)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_missing_file_is_domain_exit(capsys):
    assert cli_main(["validate", "/definitely/not/here.json"]) == 1
    assert capsys.readouterr().err


def test_non_utf8_file_is_domain_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert cli_main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: not UTF-8 text: ")


def test_internal_inconsistency_exits_3(cp2_path, monkeypatch, capsys):
    def broken(fam):
        raise InternalInconsistency("a cross-check failed")

    monkeypatch.setattr("acx4.cli.reduce_to_minimal", broken)
    assert cli_main(["minimize", cp2_path]) == 3
    assert capsys.readouterr() == ("", "internal error: a cross-check failed\n")


def test_usage_error_exits_2(capsys):
    assert cli_main(["frobnicate"]) == 2
    assert cli_main([]) == 2
    assert cli_main(["render", "--format", "gif", "x.json"]) == 2


def test_reused_parser_answers_like_a_fresh_one(cp2_path, capsys):
    # cli_main builds its parser once; earlier calls must leave no trace
    calls = [["frobnicate"], [], ["render", "--format", "gif", "x.json"],
             ["validate", cp2_path], ["minimize", "--log"], ["--help"],
             ["validate", cp2_path]]
    for argv in calls:
        code = cli_main(argv)
        got = capsys.readouterr()
        try:
            args = build_parser().parse_args(argv)
            fresh = args.func(args)
        except SystemExit as exc:
            fresh = exc.code
        assert (code, got) == (fresh, capsys.readouterr())


def test_parser_shape():
    # fields, not --help bytes: argparse lays help out differently per version
    file_only = (("file",), {})
    rewrite = (("file",), {("--fan",): (True, None, None, cli.integer),
                           ("--pos",): (True, None, None, cli.integer)})
    expected = {
        "validate": (cli._cmd_validate, None, *file_only),
        "convert": (cli._cmd_convert, None, ("file",),
                    {("--to",): (True, ("fan", "graph"), None, None)}),
        "invariants": (cli._cmd_invariants, None, *file_only),
        "blowup": (cli._cmd_rewrite, acx4.blow_up_in_family, *rewrite),
        "blowdown": (cli._cmd_rewrite, acx4.blow_down_in_family, *rewrite),
        "minimize": (cli._cmd_minimize, None, ("file",),
                     {("--log",): (False, None, None, None)}),
        "normalize-complex": (cli._cmd_normalize_complex, None, *file_only),
        "classify": (cli._cmd_classify, None, *file_only),
        "equiv": (cli._cmd_equiv, None, ("a", "b"),
                  {("--mode",): (False, ("rotations", "full"), "rotations", None)}),
        "render": (cli._cmd_render, None, ("file",),
                   {("--format",): (True, ("svg", "dot", "tikz"), None, None)}),
        "generate": (cli._cmd_generate, None, (),
                     {("--seed",): (True, None, None, cli.integer),
                      ("--components",): (False, None, 1, cli.integer),
                      ("--blowups",): (False, None, 0, cli.integer),
                      ("--signs",): (False, None, None, None)}),
        "replay": (cli._cmd_replay, None, ("file",),
                   {("--log",): (True, None, None, None)}),
    }
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    got = {}
    for name, p in sub.choices.items():
        actions = [a for a in p._actions if a.dest != "help"]
        got[name] = (
            p.get_default("func"), p.get_default("rewrite"),
            tuple(a.dest for a in actions if not a.option_strings),
            {tuple(a.option_strings): (a.required, a.choices, a.default, a.type)
             for a in actions if a.option_strings})
    assert list(got) == list(expected)
    assert got == expected


def test_invariants_emits_report(cp2_path, capsys):
    assert cli_main(["invariants", cp2_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["format"] == "acx4-report/1"
    assert report["c1_sq"] == 9 and report["todd"] == 1


def test_blowup_blowdown_round_trip(cp2_path, tmp_path, capsys):
    assert cli_main(["blowup", "--fan", "0", "--pos", "0", cp2_path]) == 0
    blown = capsys.readouterr().out
    assert parse_document(blown).payload.fans[0] == acx4.make_hirzebruch_fan(
        (1, 0), (0, 1), 1)
    up_path = tmp_path / "up.json"
    up_path.write_text(blown)
    assert cli_main(["blowdown", "--fan", "0", "--pos", "1", str(up_path)]) == 0
    back = parse_document(capsys.readouterr().out).payload
    assert back.fans[0] == acx4.make_cp2_fan((1, 0), (-1, 1))
    assert cli_main(["blowdown", "--fan", "0", "--pos", "0", cp2_path]) == 1


def test_minimize_then_replay(cp2_path, tmp_path, capsys):
    log_path = str(tmp_path / "log.json")
    assert cli_main(["minimize", cp2_path, "--log", log_path]) == 0
    minimal = parse_document(capsys.readouterr().out).payload
    assert acx4.is_minimal_fan(minimal.fans[0])
    assert cli_main(["replay", "--log", log_path, cp2_path]) == 0
    replayed = parse_document(capsys.readouterr().out).payload
    assert replayed == minimal
    log_doc = parse_document(open(log_path).read())
    assert len(log_doc.payload.moves) == 3


def test_replay_against_wrong_family(cp2_path, tmp_path, capsys):
    log_path = str(tmp_path / "log.json")
    assert cli_main(["minimize", cp2_path, "--log", log_path]) == 0
    capsys.readouterr()
    other = write_family(
        tmp_path, "sigma5.json",
        acx4.MultiFanFamily((acx4.make_hirzebruch_fan((1, 0), (0, 1), 5),)))
    assert cli_main(["replay", "--log", log_path, other]) == 1
    assert "move 0" in capsys.readouterr().err


def test_replay_of_the_logs_own_family_replays_once(cp2_path, tmp_path, monkeypatch,
                                                    capsys):
    # reading the log replays it from its initial family; given that family,
    # replay --log writes the log's final family and replays nothing again
    calls = []

    def spy(initial, moves):
        calls.append(len(moves))
        return acx4.replay(initial, moves)

    monkeypatch.setattr(cli, "replay", spy)
    euclid = write_family(tmp_path, "euclid.json", acx4.MultiFanFamily(
        (acx4.validate_multifan([(1, 0), (300, 1), (-301, -1)]),)))
    for path in (cp2_path, euclid):
        log_path = str(tmp_path / "log.json")
        assert cli_main(["minimize", path, "--log", log_path]) == 0
        minimal = capsys.readouterr().out
        assert cli_main(["convert", "--to", "graph", path]) == 0
        graph = write_family(tmp_path, "graph.json", parse_document(
            capsys.readouterr().out).payload)
        for given in (path, graph):
            assert cli_main(["replay", "--log", log_path, given]) == 0
            assert capsys.readouterr().out == minimal
    assert calls == []
    other = write_family(tmp_path, "sigma5.json", acx4.MultiFanFamily(
        (acx4.make_hirzebruch_fan((1, 0), (0, 1), 5),)))
    assert cli_main(["replay", "--log", log_path, other]) == 1
    assert calls == [4 * 300 + 3]
    assert "move 0" in capsys.readouterr().err


def test_replay_onto_another_family_writes_what_minimize_writes(tmp_path, capsys):
    # a family other than the log's initial one is replayed move by move,
    # through the log's runs expanded into Moves
    euclid = acx4.validate_multifan([(1, 0), (300, 1), (-301, -1)])
    path = write_family(tmp_path, "euclid.json", acx4.MultiFanFamily((euclid,)))
    log_path = str(tmp_path / "log.json")
    assert cli_main(["minimize", path, "--log", log_path]) == 0
    log = parse_document(open(log_path).read()).payload
    assert any(type(entry) is acx4.reduction.Run for entry in log.entries)
    both = write_family(tmp_path, "both.json", acx4.MultiFanFamily(
        (euclid,) + acx4.make_minimal_family([1]).fans))
    capsys.readouterr()
    assert cli_main(["minimize", both]) == 0
    minimal = capsys.readouterr().out
    assert cli_main(["replay", "--log", log_path, both]) == 0
    assert capsys.readouterr().out == minimal


def test_convert_both_ways(cp2_path, tmp_path, capsys):
    assert cli_main(["convert", "--to", "graph", cp2_path]) == 0
    graph_text = capsys.readouterr().out
    assert parse_document(graph_text).format == "acx4-graph/1"
    gpath = tmp_path / "graph.json"
    gpath.write_text(graph_text)
    assert cli_main(["convert", "--to", "fan", str(gpath)]) == 0
    fam = parse_document(capsys.readouterr().out).payload
    assert acx4.fans_equivalent(fam.fans[0], acx4.make_cp2_fan((1, 0), (-1, 1)))


def test_equiv(cp2_path, tmp_path, capsys):
    rotated = write_family(
        tmp_path, "rot.json",
        acx4.MultiFanFamily((acx4.validate_multifan([(-1, 1), (0, -1), (1, 0)]),)))
    assert cli_main(["equiv", cp2_path, rotated]) == 0
    assert capsys.readouterr().out.strip() == "true"
    sigma = write_family(
        tmp_path, "sigma.json",
        acx4.MultiFanFamily((acx4.make_hirzebruch_fan((1, 0), (0, 1), 1),)))
    assert cli_main(["equiv", cp2_path, sigma]) == 1
    assert capsys.readouterr().out.strip() == "false"
    reversal = write_family(
        tmp_path, "rev.json",
        acx4.MultiFanFamily((acx4.validate_multifan([(0, 1), (1, -1), (-1, 0)]),)))
    assert cli_main(["equiv", cp2_path, reversal]) == 1
    assert cli_main(["equiv", "--mode", "full", cp2_path, reversal]) == 0


def test_render_subcommands(cp2_path, capsys):
    assert cli_main(["render", "--format", "svg", cp2_path]) == 0
    assert capsys.readouterr().out.count('class="arrow"') == 3
    assert cli_main(["render", "--format", "dot", cp2_path]) == 0
    assert "digraph" in capsys.readouterr().out
    assert cli_main(["render", "--format", "tikz", cp2_path]) == 0
    assert "tikzpicture" in capsys.readouterr().out


def test_generate_deterministic(capsys):
    assert cli_main(["generate", "--seed", "11", "--components", "2",
                     "--blowups", "5"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["generate", "--seed", "11", "--components", "2",
                     "--blowups", "5"]) == 0
    assert capsys.readouterr().out == first
    fam = parse_document(first).payload
    assert acx4.todd_genus(fam) == 2
    assert cli_main(["generate", "--seed", "11", "--components", "2",
                     "--blowups", "5", "--signs", "1,-1"]) == 0
    signed = parse_document(capsys.readouterr().out).payload
    assert acx4.orientation(signed.fans[1]) == acx4.CW
    assert cli_main(["generate", "--seed", "1", "--components", "2",
                     "--blowups", "0", "--signs", "9,9"]) == 1


def test_normalize_complex_output(cp2_path, capsys):
    assert cli_main(["normalize-complex", cp2_path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["model"]["name"] == "CP1 x CP1"
    assert len(obj["log"]["moves"]) == 3


def test_normalize_complex_rejects_higher_winding(tmp_path, capsys):
    path = write_family(tmp_path, "t2.json",
                        acx4.MultiFanFamily((acx4.make_todd_fan(2),)))
    assert cli_main(["normalize-complex", path]) == 1
    assert "winding" in capsys.readouterr().err


def test_classify_output(cp2_path, capsys):
    assert cli_main(["classify", cp2_path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["fans"][0]["normal_form"]["kind"] == "three"
    assert [p["euler_number"] for p in obj["fans"][0]["plumbing"]] == [1, 1, 1]


def _fan_obj(vectors):
    return {"vectors": [list(v) for v in vectors]}


def _pieces(*pairs):
    return [{"euler_number": e, "sphere_weights": [list(w1), list(w2)]}
            for e, w1, w2 in pairs]


_CP2_PIECES = _pieces((1, (1, 0), (0, 1)), (1, (-1, 1), (-1, 0)),
                      (1, (0, -1), (1, -1)))
_BIG = 10**20

# (family, the JSON value `classify` prints for it); compared as text, so key
# order, raw versus string-encoded integers and the trailing newline are all
# pinned
CLASSIFY_CASES = {
    "cp2": (
        [acx4.make_cp2_fan((1, 0), (-1, 1))],
        {"fans": [{"length": 3,
                   "normal_form": {"kind": "three", "v1": [1, 0], "v2": [-1, 1]},
                   "plumbing": _CP2_PIECES}]},
    ),
    "hirzebruch-1e20": (
        [acx4.make_hirzebruch_fan((1, 0), (0, 1), _BIG)],
        # a and euler_number print raw past 2**53; vectors print as strings
        {"fans": [{"length": 4,
                   "normal_form": {"kind": "four", "v1": [1, 0], "v2": [0, 1],
                                   "a": _BIG, "rotation": 0},
                   "plumbing": _pieces(
                       (0, (1, 0), (0, 1)), (-_BIG, (0, 1), (-1, 0)),
                       (0, (-1, str(_BIG)), (0, -1)),
                       (_BIG, (0, -1), (1, str(-_BIG))))}]},
    ),
    "large": (
        [acx4.validate_multifan([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)])],
        {"fans": [{"length": 5, "normal_form": {"kind": "large"},
                   "plumbing": _pieces(
                       (0, (1, 0), (0, 1)), (-1, (0, 1), (-1, 0)),
                       (-1, (-1, 1), (0, -1)), (-1, (-1, 0), (1, -1)),
                       (0, (0, -1), (1, 0)))}]},
    ),
    "two-fans": (
        [acx4.make_cp2_fan((1, 0), (-1, 1)),
         acx4.make_hirzebruch_fan((1, 0), (0, 1), 1)],
        {"fans": [{"length": 3,
                   "normal_form": {"kind": "three", "v1": [1, 0], "v2": [-1, 1]},
                   "plumbing": _CP2_PIECES},
                  {"length": 4,
                   "normal_form": {"kind": "four", "v1": [1, 0], "v2": [0, 1],
                                   "a": 1, "rotation": 0},
                   "plumbing": _pieces(
                       (0, (1, 0), (0, 1)), (-1, (0, 1), (-1, 0)),
                       (0, (-1, 1), (0, -1)), (1, (0, -1), (1, -1)))}]},
    ),
}


@pytest.mark.parametrize("case", sorted(CLASSIFY_CASES))
def test_classify_exact_text(case, tmp_path, capsys):
    fans, expected = CLASSIFY_CASES[case]
    path = write_family(tmp_path, "f.json", acx4.MultiFanFamily(tuple(fans)))
    assert cli_main(["classify", path]) == 0
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


_UNIT_MODEL_FINAL = {"format": "acx4-fans/1",
                     "fans": [_fan_obj([(1, 0), (0, 1), (-1, 0), (0, -1)])]}


def _move(kind, position, vector):
    return {"kind": kind, "fan": 0, "position": position, "vector": list(vector)}


# (winding-one fan, the moves `normalize-complex` logs for it)
NORMALIZE_CASES = {
    "cp2": (
        [(1, 0), (-1, 1), (0, -1)],
        [_move("blow_up", 0, (0, 1)), _move("blow_up", 2, (-1, 0)),
         _move("blow_down", 2, (-1, 1))],
    ),
    "seven": (
        [(1, 0), (0, 1), (-1, 0), (-1, -1), (-1, -2), (0, -1), (1, -1)],
        [_move("blow_down", 4, (-1, -2)), _move("blow_down", 3, (-1, -1)),
         _move("blow_down", 4, (1, -1))],
    ),
}


@pytest.mark.parametrize("case", sorted(NORMALIZE_CASES))
def test_normalize_complex_exact_text(case, tmp_path, capsys):
    vectors, moves = NORMALIZE_CASES[case]
    fam = acx4.MultiFanFamily((acx4.validate_multifan(vectors),))
    path = write_family(tmp_path, "f.json", fam)
    assert cli_main(["normalize-complex", path]) == 0
    expected = {
        "model": {"name": "CP1 x CP1", "a": 1, "rotation": 0},
        "log": {"format": "acx4-log/1",
                "initial": {"format": "acx4-fans/1", "fans": [_fan_obj(vectors)]},
                "moves": moves,
                "final": _UNIT_MODEL_FINAL},
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_blowup_requires_family_document(cp2_path, tmp_path, capsys):
    assert cli_main(["convert", "--to", "graph", cp2_path]) == 0
    gpath = tmp_path / "g.json"
    gpath.write_text(capsys.readouterr().out)
    assert cli_main(["blowup", "--fan", "0", "--pos", "0", str(gpath)]) == 1


def test_cli_survives_fuzzed_documents(tmp_path, capsys):
    rng = random.Random(13)
    fam = acx4.gen_random_family(3, 2, 4)
    seeds = [
        emit_document(document_for(fam)),
        emit_document(document_for(acx4.family_to_graph(fam))),
        emit_document(document_for(acx4.reduce_to_minimal(fam)[1])),
        emit_document(document_for(acx4.chi_y_report(fam))),
    ]
    path = tmp_path / "fuzz.json"
    for trial in range(10_000):
        text = list(seeds[trial % len(seeds)])
        for _ in range(rng.randint(1, 6)):
            op = rng.randrange(3)
            pos = rng.randrange(len(text))
            if op == 0:
                text[pos] = rng.choice('{}[]",:0123456789-x')
            elif op == 1:
                del text[pos]
            else:
                text.insert(pos, rng.choice('{}[]",:0123456789-x'))
        path.write_text("".join(text))
        code = cli_main(["validate", str(path)])
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        if code != 0:
            assert captured.err


def _structured_mutations():
    """(name, text, exit code) for documents holding integers at the
    number/string boundary or past the digit limit, in a family and in its
    graph, and for graphs with an edge dropped, duplicated or pointed at a
    missing vertex."""
    marker = 7777777
    fam = acx4.MultiFanFamily((acx4.make_hirzebruch_fan((1, 0), (0, 1), marker),))
    texts = {"fan": emit_document(document_for(fam)),
             "graph": emit_document(document_for(acx4.family_to_graph(fam)))}
    # 5001 digits is past the default int/str limit, and 2**53 - 1 is the
    # largest integer emitted as a JSON number
    for label, digits, code in (("5001-digits", "1" + "0" * 5000, 1),
                                ("2^53-1", str(2**53 - 1), 0),
                                ("2^53", str(2**53), 0),
                                ("-2^53", str(-2**53), 0)):
        for form, token in (("number", digits), ("string", f'"{digits}"')):
            for kind, text in texts.items():
                yield f"{kind}-{label}-{form}", text.replace(str(marker), token), code
    graph = json.loads(texts["graph"])
    edges = graph["edges"]
    for name, broken in (("dropped", edges[1:]),
                         ("duplicated", edges + edges[:1]),
                         ("missing-vertex", [dict(edges[0], to="nowhere")] + edges[1:])):
        yield f"graph-edge-{name}", json.dumps(dict(graph, edges=broken), indent=2), 1


def test_cli_survives_structured_mutations(tmp_path, capsys):
    commands = [["validate"], ["convert", "--to", "fan"], ["convert", "--to", "graph"],
                ["invariants"], ["classify"], ["render", "--format", "svg"],
                ["render", "--format", "dot"], ["render", "--format", "tikz"]]
    path = tmp_path / "mutated.json"
    for name, text, expected in _structured_mutations():
        path.write_text(text)
        for argv in commands:
            code = cli_main(argv + [str(path)])
            captured = capsys.readouterr()
            assert code == expected, (name, argv, captured.err)
            if code != 0:
                assert captured.err, (name, argv)


@pytest.mark.parametrize("fan", [
    acx4.make_hirzebruch_fan((1, 0), (0, 1), 2**53),
    acx4.make_hirzebruch_fan((1, 0), (0, 1), 10**20),
    acx4.validate_multifan([(1, 0), (10**20, 1), (-10**20 - 1, -1)]),
], ids=["hirzebruch-2^53", "hirzebruch-1e20", "euclid-1e20"])
@pytest.mark.parametrize("command", ["minimize", "normalize-complex"])
def test_reductions_past_max_moves_exit_1(command, fan, tmp_path, capsys):
    path = write_family(tmp_path, "big.json", acx4.MultiFanFamily((fan,)))
    start = time.perf_counter()
    assert cli_main([command, path]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: reduction needs at least ")
    assert captured.err.endswith("moves, more than MAX_MOVES = 1000000\n")
    assert captured.err.count("\n") == 1


def test_commands_refuse_the_wrong_document_kind(tmp_path, capsys):
    fam = acx4.gen_random_family(3, 2, 4)
    log = write_family(tmp_path, "log.json", acx4.reduce_to_minimal(fam)[1])
    report = write_family(tmp_path, "report.json", acx4.chi_y_report(fam))
    two = write_family(tmp_path, "two.json", fam)
    cases = [
        (["invariants", log],
         f"error: {log}: expected a family or graph document, got acx4-log/1"),
        (["convert", "--to", "graph", report],
         f"error: {report}: expected a family or graph document, got acx4-report/1"),
        (["normalize-complex", two],
         "error: normalize-complex needs a single-fan family"),
        (["generate", "--seed", "1", "--signs", "1,x"],
         "error: --signs must be a comma list of +1/-1, got '1,x'"),
        (["replay", "--log", two, two],
         f"error: {two}: expected a move-log document, got acx4-fans/1"),
    ]
    for argv, line in cases:
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"


def test_render_graph_document(tmp_path, capsys):
    g = oracles.scramble_graph(acx4.family_to_graph(acx4.gen_random_family(3, 2, 4)),
                               random.Random(3))
    path = write_family(tmp_path, "graph.json", g)
    assert cli_main(["render", "--format", "dot", path]) == 0
    assert capsys.readouterr().out == acx4.render_graph_dot(g)
    assert cli_main(["render", "--format", "tikz", path]) == 0
    assert capsys.readouterr().out == acx4.render_graph_tikz(g)


ARABIC_ONE = "١"  # an Arabic-Indic digit one, which int() reads as 1


@pytest.mark.parametrize("argv", [
    ["generate", "--seed", ARABIC_ONE],
    ["generate", "--seed", "1", "--components", "٢"],
    ["generate", "--seed", "1", "--blowups", "３"],
    ["generate", "--seed", "-" + ARABIC_ONE],
    ["blowup", "--fan", "٠", "--pos", "0", "fam.json"],
    ["blowdown", "--fan", "0", "--pos", "٠", "fam.json"],
], ids=["seed", "components", "full-width-blowups", "negative-seed", "fan", "pos"])
def test_integer_arguments_take_ascii_digits_only(argv, capsys):
    assert cli_main(argv) == 2
    assert "invalid integer value" in capsys.readouterr().err


@pytest.mark.parametrize("signs", [ARABIC_ONE, f"1,-{ARABIC_ONE}", "1, -1", "1_0"])
def test_signs_take_ascii_digits_only(signs, capsys):
    assert cli_main(["generate", "--seed", "1", "--components", "2", "--signs", signs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --signs must be a comma list of +1/-1, got {signs!r}\n"
    assert cli_main(["generate", "--seed", "1", "--components", "2",
                     "--signs=-1,1"]) == 0
