import json
import random

import pytest

import acx4
from acx4.cli import build_parser, cli_main
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
