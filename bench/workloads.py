"""The four benchmark workloads: seeded inputs, the timed job, its checks.

Every workload is a closed loop with one caller.  A run is a sequence of
rounds; each round is one job per size stratum, so every round draws the
same spread of sizes and two seeds give comparable runs.  The number of
strata is odd, so the median job falls inside the middle stratum rather
than at the edge between two.  A job carries
one input through the workload's whole pipeline and returns what it
produced; `check` then compares that with `reference`, outside the timed
region.  Golden jobs have fixed inputs, and the digest of what they emit
must match `golden.json`, recorded from the engine as it stood when the
benchmark was written.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref
from acx4 import (
    classify,
    cli,
    generate,
    invariants,
    multifan,
    reduction,
    serialize,
    torusgraph,
)

GOLDEN_FILE = Path(__file__).with_name("golden.json")


def log_strata(rng, lo: int, hi: int, k: int) -> list[int]:
    """One log-uniform draw inside each of k equal slices of [log lo, log hi].

    Pooled over rounds the sizes are log-uniform on [lo, hi], and every
    round covers the whole range.  Sizes spread over each slice, not held at
    its middle, keep the job times continuous, so a slow spell of the
    machine moves the median and tail in proportion rather than flipping
    them from one cluster of equal jobs to the next.
    """
    a, b = math.log(lo), math.log(hi)
    return [round(math.exp(a + (i + rng.random()) * (b - a) / k))
            for i in range(k)]


def components_by_stratum(k: int) -> list[int]:
    """Component counts 3, 2, 1 in turn, from the largest stratum down.

    Each stratum keeps its count in every round, so every round has the
    same mix of sizes and counts whatever the seed.  Generation costs fall
    as the components rise, so giving the largest sizes the most components
    keeps the costliest jobs close together around the tail percentile.
    """
    return [3 - (k - 1 - i) % 3 for i in range(k)]


def _signs(rng, c):
    return [rng.choice((1, -1)) for _ in range(c)]


def _sha(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def key_of(params: dict) -> str:
    """Stable text key of a job's parameters, used to look up its digest."""
    return json.dumps(params, sort_keys=True)


def _canon_ok(vectors, canon) -> bool:
    # canonical_form(full) returns the least rotation of the fan or of its
    # reversed, negated traversal: same multiset (or its negation), no larger
    neg = [(-x, -y) for x, y in vectors]
    return (sorted(canon) in (sorted(vectors), sorted(neg))
            and tuple(canon) <= tuple(vectors))


@dataclass
class Inputs:
    """What set-up builds: the seed, and any documents written to disk."""

    seed: int
    pool: list = field(default_factory=list)
    golden: list = field(default_factory=list)

    def digest(self, workload, rounds: int = 8) -> str:
        """Digest of the first rounds' job parameters and every document."""
        parts = [key_of(params_of(x)) for r in range(rounds)
                 for x in workload.round(self, r)]
        parts += [d.text for d in self.pool]
        return _sha(*parts)


def params_of(x) -> dict:
    return x.params if isinstance(x, CliDoc) else x


class Workload:
    """Base: a seeded design of rounds over stratified sizes.

    `size` names what the stratified size counts; the constructor's
    arguments shrink the design for tests.
    """

    name = ""
    size = "blowups"
    components = (1, 3)
    golden = ()

    def __init__(self, lo: int, hi: int, strata: int):
        self.lo, self.hi, self.strata = lo, hi, strata
        self.sizes = {self.size: [lo, hi], "strata": strata,
                      "draw": "log-uniform within each stratum"}
        if self.components:
            self.sizes["components"] = list(self.components)

    def build(self, seed: int, workdir: Path) -> Inputs:
        return Inputs(seed, golden=list(self.golden))

    def round(self, inputs: Inputs, r: int) -> list:
        raise NotImplementedError

    def job(self, x):
        raise NotImplementedError

    def check(self, x, result) -> list[str]:
        raise NotImplementedError

    def digest(self, x, result) -> str:
        raise NotImplementedError


class BlowupReduce(Workload):
    """Random families reduced to their minimal model.

    Fans grow to hundreds of vectors with coordinates below 14 bits, so the
    cost per move of re-validating in multifan and sorting the profile in
    reduction dominates.  Each iteration on these inputs is one a = -1
    blow-down, so the log has exactly one move per blow-up.
    """

    name = "blowup-reduce"
    golden = (
        {"seed": 11, "components": 2, "blowups": 60, "signs": [1, -1]},
        {"seed": 12, "components": 1, "blowups": 150, "signs": [-1]},
    )

    def __init__(self, lo=100, hi=1500, strata=13):
        super().__init__(lo, hi, strata)

    def round(self, inputs, r):
        rng = random.Random(f"{self.name}:{inputs.seed}:{r}")
        sizes = log_strata(rng, self.lo, self.hi, self.strata)
        comps = components_by_stratum(self.strata)
        jobs = [{"seed": rng.getrandbits(32), "components": c, "blowups": n,
                 "signs": _signs(rng, c)} for n, c in zip(sizes, comps)]
        rng.shuffle(jobs)
        return jobs

    def job(self, x):
        fam = generate.gen_random_family(
            x["seed"], x["components"], x["blowups"], x["signs"])
        final, log = reduction.reduce_to_minimal(fam)
        replayed = reduction.replay(log.initial, log.moves)
        report = invariants.chi_y_report(fam)
        canon = [multifan.canonical_form(f, multifan.ROTATIONS_AND_REVERSAL)
                 for f in fam.fans]
        return fam, final, log, replayed, report, canon

    def check(self, x, result):
        fam, final, log, replayed, report, canon = result
        c, n = x["components"], x["blowups"]
        fails = []
        if (report.a0, report.a1, report.a2) != ref.count_triple(c, n):
            fails.append(f"counts {(report.a0, report.a1, report.a2)}")
        if report.euler != ref.euler(c, n):
            fails.append(f"euler {report.euler}")
        if len(log.moves) != n:
            fails.append(f"{len(log.moves)} moves for {n} blow-ups")
        if log.initial != fam or replayed != final:
            fails.append("replay(initial, moves) != final")
        initial = [list(f.vectors) for f in fam.fans]
        if len(initial) != c or sum(map(len, initial)) != ref.euler(c, n):
            fails.append("generated family has the wrong shape")
        moves = [(m.kind, m.fan_index, m.position, m.vector) for m in log.moves]
        got = ref.replay(initial, moves)
        if got != [list(f.vectors) for f in final.fans]:
            fails.append("reference replay differs from the final family")
        if not all(ref.is_unit_fan(vs) for vs in got):
            fails.append("final family is not unit")
        if not all(_canon_ok(vs, list(cf.vectors))
                   for vs, cf in zip(initial, canon)):
            fails.append("canonical form is not a least rotation")
        return fails

    def digest(self, x, result):
        _, _, log, _, report, _ = result
        return _sha(serialize.emit_document(serialize.document_for(log)),
                    serialize.emit_document(serialize.document_for(report)))


class Euclid(Workload):
    """The adversarial fan (1,0), (N,1), (-N-1,-1), reduced, written, read.

    Fans stay at 3 or 4 vectors, so the cost per move is constant; the
    4N+3 moves dominate and the logs are long, so emitting and parsing
    them (the parse replays the log) is heavy.
    """

    name = "euclid"
    size = "N"
    components = None
    golden = ({"n": 50}, {"n": 137})

    def __init__(self, lo=500, hi=5000, strata=11):
        super().__init__(lo, hi, strata)

    def round(self, inputs, r):
        rng = random.Random(f"{self.name}:{inputs.seed}:{r}")
        jobs = [{"n": n} for n in log_strata(rng, self.lo, self.hi, self.strata)]
        rng.shuffle(jobs)
        return jobs

    def job(self, x):
        fan = multifan.validate_multifan(ref.euclid_fan(x["n"]))
        final, log = reduction.reduce_to_minimal(multifan.MultiFanFamily((fan,)))
        text = serialize.emit_document(serialize.document_for(log))
        doc = serialize.parse_document(text)
        return final, log, text, doc

    def check(self, x, result):
        final, log, text, doc = result
        n = x["n"]
        fails = []
        if len(log.moves) != ref.euclid_moves(n):
            fails.append(f"{len(log.moves)} moves, expected {ref.euclid_moves(n)}")
        if doc.format != "acx4-log/1" or doc.payload != log:
            fails.append("parse(emit(log)) != log")
        data = json.loads(text)
        if ref.fans_of(data["initial"]) != [ref.euclid_fan(n)]:
            fails.append("emitted initial family differs from the input")
        got = ref.replay([ref.euclid_fan(n)], ref.moves_of(data))
        final_vs = [list(f.vectors) for f in final.fans]
        if got != final_vs or ref.fans_of(data["final"]) != final_vs:
            fails.append("reference replay differs from the final family")
        if len(got) != 1 or not ref.is_unit_fan(got[0]):
            fails.append("final fan is not a unit 4-fan")
        return fails

    def digest(self, x, result):
        return _sha(result[2])


@dataclass
class CliDoc:
    """A family document written at set-up, and where its job writes."""

    params: dict
    path: str
    stem: str
    text: str


class CliSession(Workload):
    """Many small in-process CLI calls over documents written at set-up.

    Building the argparse parser, parsing and emitting JSON, and graph
    validation dominate, with document reads beside document writes.
    """

    name = "cli-session"
    golden = (
        {"seed": 5, "components": 2, "blowups": 20, "signs": [1, -1]},
        {"seed": 6, "components": 1, "blowups": 45, "signs": [1]},
    )

    def __init__(self, lo=10, hi=200, strata=25):
        super().__init__(lo, hi, strata)
        self.sizes["documents"] = strata

    def _write(self, params, workdir, tag):
        fam = generate.gen_random_family(params["seed"], params["components"],
                                         params["blowups"], params["signs"])
        text = serialize.emit_document(serialize.document_for(fam))
        path = workdir / f"{tag}.json"
        path.write_text(text, encoding="utf-8")
        return CliDoc(params, str(path), str(workdir / f"{tag}.out"), text)

    def build(self, seed, workdir):
        inputs = super().build(seed, workdir)
        rng = random.Random(f"{self.name}:{seed}:pool")
        sizes = log_strata(rng, self.lo, self.hi, self.strata)
        comps = components_by_stratum(self.strata)
        for i, (n, c) in enumerate(zip(sizes, comps)):
            params = {"seed": rng.getrandbits(32), "components": c,
                      "blowups": n, "signs": _signs(rng, c)}
            inputs.pool.append(self._write(params, workdir, f"doc-{i}"))
        inputs.golden = [self._write(p, workdir, f"golden-{i}")
                         for i, p in enumerate(self.golden)]
        return inputs

    def round(self, inputs, r):
        jobs = list(inputs.pool)
        random.Random(f"{self.name}:{inputs.seed}:{r}").shuffle(jobs)
        return jobs

    @staticmethod
    def _cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.cli_main(argv)
        return code, out.getvalue()

    def job(self, x):
        p = x.params
        doc, graph, rt, log = x.path, x.stem + ".graph", x.stem + ".rt", x.stem + ".log"
        outs = {"generate": self._cli([
            "generate", "--seed", str(p["seed"]),
            "--components", str(p["components"]),
            "--blowups", str(p["blowups"]),
            "--signs=" + ",".join(map(str, p["signs"]))])}
        outs["validate"] = self._cli(["validate", doc])
        outs["convert-graph"] = self._cli(["convert", "--to", "graph", doc])
        Path(graph).write_text(outs["convert-graph"][1], encoding="utf-8")
        outs["convert-fan"] = self._cli(["convert", "--to", "fan", graph])
        Path(rt).write_text(outs["convert-fan"][1], encoding="utf-8")
        outs["invariants"] = self._cli(["invariants", doc])
        outs["minimize"] = self._cli(["minimize", "--log", log, doc])
        outs["replay"] = self._cli(["replay", "--log", log, doc])
        outs["equiv"] = self._cli(["equiv", "--mode", "full", rt, doc])
        outs["classify"] = self._cli(["classify", doc])
        for fmt in ("svg", "dot", "tikz"):
            outs["render-" + fmt] = self._cli(["render", "--format", fmt, doc])
        return outs

    def check(self, x, outs):
        p = x.params
        c, n = p["components"], p["blowups"]
        total = ref.euler(c, n)
        fails = [f"{name} exited {code}" for name, (code, _) in outs.items()
                 if code != 0]
        text = {name: out for name, (_, out) in outs.items()}
        if text["generate"] != x.text:
            fails.append("generate output differs from the set-up document")
        if text["validate"] != "ok: acx4-fans/1\n":
            fails.append(f"validate printed {text['validate']!r}")
        if len(json.loads(text["convert-graph"])["vertices"]) != total:
            fails.append("graph has the wrong number of vertices")
        if text["convert-fan"] != x.text:
            fails.append("fan -> graph -> fan round trip changed the document")
        report = json.loads(text["invariants"])
        if report["a"] != list(ref.count_triple(c, n)) or report["euler"] != total:
            fails.append(f"invariants {report['a']}, euler {report['euler']}")
        final = ref.fans_of(json.loads(text["minimize"]))
        if len(final) != c or not all(ref.is_unit_fan(vs) for vs in final):
            fails.append("minimize did not end on unit 4-fans")
        log = json.loads(Path(x.stem + ".log").read_text(encoding="utf-8"))
        moves = ref.moves_of(log)
        initial = ref.fans_of(json.loads(x.text))
        if len(moves) != n:
            fails.append(f"{len(moves)} moves for {n} blow-ups")
        if ref.replay(initial, moves) != final or ref.fans_of(log["final"]) != final:
            fails.append("reference replay of the log differs from minimize")
        if text["replay"] != text["minimize"]:
            fails.append("replay output differs from minimize output")
        if text["equiv"] != "true\n":
            fails.append("round trip is not equiv to its input")
        lengths = [f["length"] for f in json.loads(text["classify"])["fans"]]
        if lengths != [len(vs) for vs in initial]:
            fails.append(f"classify lengths {lengths}")
        for fmt, marker in (("svg", 'class="arrow"'), ("dot", " -> "),
                            ("tikz", " edge node ")):
            if text["render-" + fmt].count(marker) != total:
                fails.append(f"render {fmt} drew the wrong number of edges")
        return fails

    def digest(self, x, outs):
        log = Path(x.stem + ".log").read_text(encoding="utf-8")
        return _sha(*(out for _, out in outs.values()), log)


class GraphRewrite(Workload):
    """Seeded graph blow-ups, then blow-downs of the created edges in reverse.

    No other workload reaches the graph rewrite path in torusgraph.
    """

    name = "graph-rewrite"
    golden = ({"seed": 3, "components": 2, "rewrites": 40, "signs": [1, -1]},)

    size = "rewrites"

    def __init__(self, lo=50, hi=300, strata=13):
        super().__init__(lo, hi, strata)

    def round(self, inputs, r):
        rng = random.Random(f"{self.name}:{inputs.seed}:{r}")
        sizes = log_strata(rng, self.lo, self.hi, self.strata)
        comps = components_by_stratum(self.strata)
        jobs = [{"seed": rng.getrandbits(32), "components": c, "rewrites": m,
                 "signs": _signs(rng, c)} for m, c in zip(sizes, comps)]
        rng.shuffle(jobs)
        return jobs

    def job(self, x):
        rng = random.Random(x["seed"])
        g = torusgraph.family_to_graph(classify.make_minimal_family(x["signs"]))
        # blow_up_graph puts the two new vertices in the split vertex's slot
        # and blow_down_graph keeps the earlier slot, so slot i and i+1 name
        # the created edge again once every later blow-up is undone
        slots = []
        for _ in range(x["rewrites"]):
            i = rng.randrange(len(g.vertices))
            g = torusgraph.blow_up_graph(g, g.vertices[i])
            slots.append(i)
        mid = g
        mid_fam = torusgraph.graph_to_family(mid)
        report = invariants.chi_y_report(mid_fam)
        for i in reversed(slots):
            g = torusgraph.blow_down_graph(g, (g.vertices[i], g.vertices[i + 1]))
        return mid, mid_fam, report, torusgraph.graph_to_family(g), len(g.vertices)

    def check(self, x, result):
        mid, mid_fam, report, end_fam, end_vertices = result
        c, m = x["components"], x["rewrites"]
        fails = []
        if (report.a0, report.a1, report.a2) != ref.count_triple(c, m):
            fails.append(f"counts {(report.a0, report.a1, report.a2)}")
        if report.euler != ref.euler(c, m) or len(mid.vertices) != ref.euler(c, m):
            fails.append(f"euler {report.euler}, {len(mid.vertices)} vertices")
        fans = [list(f.vectors) for f in mid_fam.fans]
        if len(fans) != c or not all(ref.is_admissible(vs) for vs in fans):
            fails.append("blown-up graph does not read as c admissible fans")
        units = ref.unit_family(x["signs"])
        ends = [list(f.vectors) for f in end_fam.fans]
        if end_vertices != 4 * c or len(ends) != c or not all(
                ref.is_rotation(e, u) for e, u in zip(ends, units)):
            fails.append("blow-downs did not restore the unit fans")
        return fails

    def digest(self, x, result):
        return _sha(serialize.emit_document(serialize.document_for(result[0])))


WORKLOADS = {w.name: w for w in (BlowupReduce, Euclid, CliSession, GraphRewrite)}


def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def _moves(args, result):
    return len(result[1].moves)


def _replayed(args, result):
    return len(args[1])


def _blowups(args, result):
    return args[2]


def _text_out(args, result):
    return len(result.encode("utf-8"))


def _text_in(args, result):
    return len(args[0].encode("utf-8"))


def _vertices(args, result):
    return len(args[0].vertices)


def _exit_code(args, result):
    return result


def span_targets():
    """Every call the benchmark traces: (module, attribute, span, value).

    The jobs call acx4 through module attributes, so patching those traces
    them.  Names the cli and serialize modules imported for themselves are
    patched in those modules, which nests their spans inside the cli and
    parse spans and leaves each span's self time to its own layer.  Graph
    validation is traced inside the graph rewrites too, because it is the
    part of a rewrite that grows with the graph.
    """
    targets = [
        (generate, "gen_random_family", "generate.gen_random_family", _blowups),
        (reduction, "reduce_to_minimal", "reduction.reduce_to_minimal", _moves),
        (reduction, "replay", "reduction.replay", _replayed),
        (multifan, "canonical_form", "multifan.canonical_form", None),
        (invariants, "chi_y_report", "invariants.chi_y_report", None),
        (serialize, "emit_document", "serialize.emit_document", _text_out),
        (serialize, "parse_document", "serialize.parse_document", _text_in),
        (serialize, "validate_family", "multifan.validate_family", None),
        (serialize, "replay", "reduction.replay", _replayed),
        (torusgraph, "family_to_graph", "torusgraph.family_to_graph", None),
        (torusgraph, "graph_to_family", "torusgraph.graph_to_family", None),
        (torusgraph, "blow_up_graph", "torusgraph.blow_up_graph", _vertices),
        (torusgraph, "blow_down_graph", "torusgraph.blow_down_graph", _vertices),
        (torusgraph, "validate_graph", "torusgraph.validate_graph", None),
        (serialize, "validate_graph", "torusgraph.validate_graph", None),
        (cli, "cli_main", lambda args: "cli." + args[0][0], _exit_code),
        (cli, "gen_random_family", "generate.gen_random_family", _blowups),
        (cli, "reduce_to_minimal", "reduction.reduce_to_minimal", _moves),
        (cli, "replay", "reduction.replay", _replayed),
        (cli, "chi_y_report", "invariants.chi_y_report", None),
        (cli, "canonical_form", "multifan.canonical_form", None),
        (cli, "emit_document", "serialize.emit_document", _text_out),
        (cli, "parse_document", "serialize.parse_document", _text_in),
        (cli, "family_to_graph", "torusgraph.family_to_graph", None),
        (cli, "graph_to_family", "torusgraph.graph_to_family", None),
        (cli, "render_fan_svg", "render.svg", None),
        (cli, "render_graph_dot", "render.dot", None),
        (cli, "render_graph_tikz", "render.tikz", None),
    ]
    targets += [(cli, name, "classify", None) for name in
                ("recognize_three", "recognize_four", "plumbing_description")]
    return targets
