"""End-to-end CLI tests: exit codes, JSON output, file round trips."""

import ast
import hashlib
import json
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest

from oriograph import cli, generators, oracles, tiling, verify
from oriograph.core import parse, read_graph, read_partition, write_graph
from oriograph.search import random_semi_regular

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


@pytest.fixture
def paths(tmp_path, capsys):
    out = {}
    for family, params, name in [
        ("cycle-power", ["6", "2"], "c62"),
        ("cycle-power", ["5", "2"], "c52"),
        ("rotational", ["7", "1,2,4"], "t7"),
        ("s", [], "s"),
        ("d-abc", ["1", "1", "2"], "d"),
        ("d-abc", ["2", "2", "2"], "d2"),
        ("t-sk", ["2", "1"], "tsk21"),
        ("c3-barrier", ["2"], "barrier2"),
        ("rotational", ["3", "1"], "c3"),
    ]:
        target = tmp_path / f"{name}.dg"
        code = cli.main(["generate", family, *params, "-o", str(target)])
        assert code == 0
        out[name] = str(target)
    capsys.readouterr()
    return out


def test_generate_writes_graph_and_sidecar(tmp_path, capsys):
    target = tmp_path / "w.dg"
    code, _ = run(capsys, "generate", "t-sk", "2", "1", "-o", str(target))
    assert code == 0
    g = read_graph(str(target))
    assert g.n == 12
    parts = read_partition(str(tmp_path / "w.parts"))
    assert sorted(len(p) for p in parts.parts) == [3, 4, 5]
    # a .parts output would be overwritten by its own sidecar: refused before writing
    target = tmp_path / "g.parts"
    assert run(capsys, "generate", "t-sk", "2", "1", "-o", str(target)) == (2, "")
    assert not target.exists()
    # a family without a partition writes no sidecar, so the name is free
    assert run(capsys, "generate", "transitive", "3", "-o", str(target)) == (0, "")
    assert read_graph(str(target)).n == 3


def test_generate_stdout_json(capsys):
    code, doc = run_json(capsys, "generate", "d-abc", "1", "1", "2")
    assert code == 0
    assert parse(doc["dg"]).n == 4
    assert "parts" in doc


def test_generate_bad_params(capsys):
    assert run(capsys, "generate", "rotational", "6", "1,2")[0] == 2
    assert run(capsys, "generate", "cycle-power", "5")[0] == 2
    assert run(capsys, "generate", "t-sk", "1", "1")[0] == 2


def test_embed_found_and_not_found(paths, capsys):
    code, out = run(capsys, "embed", "--pattern", paths["d"], "--host", paths["s"])
    assert code == 0
    assert len(out.split()) == 4
    code, _ = run(capsys, "embed", "--pattern", paths["c62"], "--host", paths["t7"])
    assert code == 1


def test_embed_count_and_vectors(paths, capsys):
    code, doc = run_json(capsys, "embed", "--pattern", paths["d"], "--host", paths["s"], "--count")
    assert code == 0
    assert doc["count"] == 1
    code, doc = run_json(
        capsys,
        "embed",
        "--pattern",
        paths["d2"],
        "--host",
        paths["tsk21"],
        "--parts",
        paths["tsk21"].replace(".dg", ".parts"),
        "--vectors",
    )
    assert code == 0
    assert doc["index_vectors"] == [[2, 2, 2]]
    # one copy, with its index vector under --parts
    parts = paths["tsk21"].replace(".dg", ".parts")
    argv = ["embed", "--pattern", paths["d2"], "--host", paths["tsk21"]]
    code, doc = run_json(capsys, *argv, "--parts", parts)
    assert (code, doc["found"], doc["index_vector"]) == (0, True, [2, 2, 2])
    # index vectors need a partition to count by
    assert run(capsys, *argv, "--vectors") == (2, "")


def test_embed_budget_exhaustion(paths, capsys):
    code, _ = run(capsys, "embed", "--pattern", paths["s"], "--host", paths["tsk21"], "--budget", "2")
    assert code == 3


def test_tile_found_with_certificate(paths, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, doc = run_json(
        capsys,
        "tile",
        "--pattern",
        paths["d"],
        "--host",
        paths["tsk21"],
        "--certificate",
        str(cert),
    )
    assert code == 0
    assert doc["mode"] == "found"
    assert sorted(v for copy in doc["copies"] for v in copy) == list(range(12))
    assert json.loads(cert.read_text()) == doc


def test_tile_lattice_refutation(paths, capsys):
    code, doc = run_json(
        capsys,
        "tile",
        "--pattern",
        paths["d2"],
        "--host",
        paths["tsk21"],
        "--parts",
        paths["tsk21"].replace(".dg", ".parts"),
    )
    assert code == 1
    assert doc["mode"] == "refuted-lattice"
    assert "unreachable" in doc["note"]


def test_partition_must_cover_exactly_the_host(tmp_path, capsys):
    host = tmp_path / "two_triangles.dg"
    host.write_text("6 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
    triangle = tmp_path / "c3.dg"
    triangle.write_text("3 3\n0 1\n1 2\n2 0\n")
    parts = tmp_path / "bad.parts"
    parts.write_text("0 1 2\n3 4 5 99\n")
    tile = ["tile", "--pattern", str(triangle), "--host", str(host)]
    code, out = run(capsys, *tile)
    assert (code, out.split("\n")[0]) == (0, "found")
    # vertex 99 would inflate the target vector into a false refuted-lattice
    assert run(capsys, *tile, "--parts", str(parts)) == (2, "")
    lat = ["lattice", "--pattern", str(triangle), "--host", str(host), "--parts", str(parts)]
    assert run(capsys, *lat) == (2, "")
    embed = ["embed", "--pattern", str(triangle), "--host", str(host), "--parts", str(parts)]
    assert run(capsys, *embed, "--vectors") == (2, "")
    assert run(capsys, *embed, "--json") == (2, "")
    # refused before any search: neither the budget nor the orders decide
    assert run(capsys, *tile, "--parts", str(parts), "--budget", "1") == (2, "")
    assert run(capsys, *lat, "--budget", "1") == (2, "")
    t7 = tmp_path / "t7.dg"
    assert cli.main(["generate", "rotational", "7", "1,2,4", "-o", str(t7)]) == 0
    on_t7 = ["--host", str(t7), "--parts", str(parts)]
    assert run(capsys, "tile", "--pattern", str(triangle), *on_t7) == (2, "")
    assert run(capsys, "analyze", *on_t7, "--stats", "extremal") == (2, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--host", "{wide}"], "line 2: vertex count must be in 0..1024, got 1025"),
        (["embed", "--pattern", "{c3}", "--host", "{wide}"], "line 2: vertex count"),
        (["tile", "--pattern", "{c3}", "--host", "{wide}"], "line 2: vertex count"),
        (["tile", "--pattern", "{c3}", "--host", "{c3}", "--parts", "{parts}"],
         "line 3: vertex 1024 out of range 0..1023"),
        # samples and budget keep a regression short: one host, and no tiling search
        (["search", "tile-probe", "--pattern", "{c3}", "--n", "1026", "--samples", "1",
          "--budget", "0"], "got 1026"),
        (["search", "probe", "--pattern", "{c3}", "--mode", "sample", "--n", "1025",
          "--samples", "1", "--budget", "0"], "got 1025"),
    ],
    ids=["analyze", "embed", "tile", "tile-parts", "tile-probe", "probe-sample"],
)
def test_orders_past_the_cap_exit_2(tmp_path, capsys, caplog, argv, message):
    # one vertex past the cap of 1024, in a header and in a part
    files = {}
    for name, text in (("wide", "# c\n1025 0\n"), ("c3", "3 3\n0 1\n1 2\n2 0\n"),
                       ("parts", "0 1\n# c\n2 1024\n")):
        files[name] = tmp_path / name
        files[name].write_text(text)
    assert cli.main([arg.format(**files) for arg in argv]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert message in caplog.text


def test_tile_deeper_than_the_recursion_limit(tmp_path, capsys):
    n = sys.getrecursionlimit() + 10
    host = tmp_path / "empty.dg"
    host.write_text(f"{n} 0\n")
    vertex = tmp_path / "vertex.dg"
    vertex.write_text("1 0\n")
    code, out = run(capsys, "tile", "--pattern", str(vertex), "--host", str(host))
    assert (code, out.split("\n")[:3]) == (0, ["found", "0", "1"])


def test_pattern_deeper_than_the_recursion_limit(tmp_path, capsys):
    # a directed path: as deep as a transitive tournament of the same
    # order, with a file a thousand times shorter
    n = sys.getrecursionlimit() + 10
    path = tmp_path / "path.dg"
    path.write_text(f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1)))
    both = ["--pattern", str(path), "--host", str(path)]
    assert run(capsys, "embed", *both) == (0, " ".join(map(str, range(n))) + "\n")
    code, out = run(capsys, "tile", *both)
    assert (code, out.split("\n")[0]) == (0, "found")


def test_tile_divisibility(paths, capsys):
    code, doc = run_json(capsys, "tile", "--pattern", paths["d"], "--host", paths["t7"])
    assert code == 1
    assert doc["mode"] == "refuted-divisibility"


def test_tile_budget(paths, capsys):
    code, doc = run_json(
        capsys, "tile", "--pattern", paths["d"], "--host", paths["tsk21"], "--budget", "1"
    )
    assert code == 3
    assert doc["mode"] == "inconclusive"


def test_lattice_report_and_target(paths, capsys):
    code, doc = run_json(
        capsys,
        "lattice",
        "--pattern",
        paths["c3"],
        "--host",
        paths["barrier2"],
        "--parts",
        paths["barrier2"].replace(".dg", ".parts"),
        "--target",
        "1,2,3",
    )
    assert code == 1
    assert doc["copies"] == 7
    assert doc["vectors"] == {"0,0,3": 1, "1,1,1": 6}
    assert doc["target_in_lattice"] is False
    code, doc = run_json(
        capsys,
        "lattice",
        "--pattern",
        paths["c3"],
        "--host",
        paths["barrier2"],
        "--parts",
        paths["barrier2"].replace(".dg", ".parts"),
    )
    assert code == 0
    assert doc["lattice_size"] >= 1
    # the copy vectors (0,0,3) and (1,1,1) span 200^2 of the 200^3 classes
    parts = paths["barrier2"].replace(".dg", ".parts")
    argv = ["lattice", "--pattern", paths["c3"], "--host", paths["barrier2"], "--parts", parts]
    code, doc = run_json(capsys, *argv, "--mod", "200")
    assert code == 0
    assert doc["lattice_size"] == 40_000
    # past sys.maxsize: len() would raise, the class count is a plain int
    code, out = run(capsys, *argv, "--mod", "10000000000")
    assert code == 0
    assert "residue lattice mod 10000000000: 100000000000000000000 classes" in out
    # argparse reads "-1,5,2" after a space as a flag; after "=" it is the value
    assert run(capsys, *argv, "--target", "-1,5,2") == (2, "")
    code, doc = run_json(capsys, *argv, "--target=-1,5,2")
    assert code == 0
    assert (doc["target"], doc["target_in_lattice"]) == ([-1, 5, 2], True)


def test_analyze_vertex(paths, capsys):
    code, doc = run_json(capsys, "analyze", "--host", paths["t7"])
    assert code == 0
    assert doc["semi_regular"] is True
    assert doc["min_semi_degree"] == 3
    assert len(doc["vertices"]) == 7
    assert all(v["cyclic_edges"] == 6 for v in doc["vertices"])


def test_analyze_json_is_pinned(tmp_path, capsys):
    # a walk host past the reach of the brute-force D-copy oracle
    host = tmp_path / "h31.dg"
    write_graph(str(host), random_semi_regular(31, seed="d-pin"))
    code, out = run(capsys, "analyze", "--host", str(host), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d4a8c9aa71bf5ee542874f245b14995f0c158d33ae751a6bfeb063911f611c43"
    )


def test_analyze_extremal(paths, capsys):
    code, doc = run_json(
        capsys,
        "analyze",
        "--host",
        paths["tsk21"],
        "--parts",
        paths["tsk21"].replace(".dg", ".parts"),
        "--stats",
        "extremal",
        "--gamma",
        "0.2",
    )
    assert code == 0
    assert doc["extremal"] is True
    assert doc["sizes"] == [3, 4, 5]


def test_analyze_extremal_search_failure(paths, capsys):
    # a local-search miss is inconclusive, not a refutation: this host has
    # a 0.05-extremal partition that local search misses
    argv = ["--stats", "extremal", "--gamma", "0.05"]
    code, doc = run_json(capsys, "analyze", "--host", str(DATA / "extremal_miss.dg"), *argv)
    assert code == 3
    assert doc["extremal"] is None
    assert "no partition" in doc["note"]
    # but on 7 vertices each part needs 2 vertices (window [1.98, 2.68]),
    # so no partition is 0.05-extremal: refuted without a search
    code, doc = run_json(capsys, "analyze", "--host", paths["t7"], *argv)
    assert code == 1
    assert doc["extremal"] is False
    assert "no part sizes fit" in doc["note"]
    assert oracles.extremal_partition(read_graph(paths["t7"]), 0.05) is None


def test_search_enumerate(tmp_path, capsys):
    code, doc = run_json(capsys, "search", "enumerate-rt", "--n", "5", "--out-dir", str(tmp_path))
    assert code == 0
    assert doc["classes"] == 1
    assert read_graph(str(tmp_path / "rt5-0.dg")).classify().is_regular


def test_search_probe(paths, capsys):
    code, doc = run_json(capsys, "search", "probe", "--pattern", paths["s"], "--n", "5,7")
    assert code == 0
    assert [e["containing"] for e in doc["per_n"]] == [1, 3]
    assert doc["outcome"] == "found"
    code, doc = run_json(capsys, "search", "probe", "--pattern", paths["c62"], "--n", "7")
    assert code == 1
    assert doc["outcome"] == "refuted"
    argv = ["search", "probe", "--pattern", paths["s"], "--mode", "sample", "--n", "9", "--samples", "2"]
    code, doc = run_json(capsys, *argv, "--budget", "1")
    assert code == 3
    assert doc["outcome"] == "inconclusive"


def test_search_probe_exhaustive_rejects_sampling_flags(paths, capsys):
    # an exhaustive probe draws no sample, so --samples and --seed would do nothing
    argv = ["search", "probe", "--pattern", paths["s"], "--n", "5"]
    assert run(capsys, *argv, "--seed", "3") == (2, "")
    assert run(capsys, *argv, "--samples", "3") == (2, "")
    assert run(capsys, *argv, "--mode", "exhaustive", "--seed", "3") == (2, "")
    code, doc = run_json(capsys, *argv, "--mode", "sample", "--seed", "3", "--samples", "2")
    assert (code, doc["seed"], doc["per_n"][0]["population"]) == (0, "3", 2)


def test_search_probe_rejects_even_sizes(paths, capsys):
    # Turanability concerns regular tournaments: a sampled host on 6
    # vertices is only semi-regular, so its misses refute nothing
    argv = ["search", "probe", "--pattern", paths["s"], "--n", "7,6"]
    assert run(capsys, *argv, "--mode", "sample", "--samples", "40") == (2, "")
    assert run(capsys, *argv) == (2, "")


# the sha256 of each probe's --json stdout: copies, tags and misses, not only counts
PROBE_JSON_SHA256 = [
    (
        ["probe", "--pattern", "s", "--n", "5,7,9"],
        "4218b3e6669b2d281845212434ea4406a5763d918315b2495ae55af4aa8d3092",
    ),
    (
        ["probe", "--pattern", "c62", "--n", "5,7"],
        "269e7c6006ed1a385a553c1fb03d4bc120292012d75dc89aa970525baf4aab01",
    ),
    (
        ["probe", "--pattern", "s", "--mode", "sample", "--n", "9,11", "--samples", "5",
         "--seed", "3"],
        "69efd0d6631887564cfcf4d564db2bd012c65354b3ce02972c55cec89f9b99c5",
    ),
    (
        ["probe", "--pattern", "s", "--mode", "sample", "--n", "9", "--samples", "3",
         "--budget", "1"],
        "4c252d7cfafba2cb95fe4ae796b4cf5c877f561bfa593e0cd0cbc82e6ab63b2c",
    ),
    (
        ["tile-probe", "--pattern", "d", "--n", "8,10,12", "--samples", "4", "--seed", "1"],
        "8d9c85459fa8c4e01080cd75d3dbc6bef623fa08f6fede88cacee65a61f1e780",
    ),
    (
        ["tile-probe", "--pattern", "d", "--n", "8", "--samples", "2", "--budget", "1"],
        "16e30165a46a535f5e7bf373d8c1f1ac392a7a4c9753813631495353c9641a47",
    ),
]


@pytest.mark.parametrize("argv,digest", PROBE_JSON_SHA256)
def test_search_probe_json_is_pinned(paths, capsys, argv, digest):
    _, out = run(capsys, "search", *[paths.get(a, a) for a in argv], "--json")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_tile_probe(paths, capsys):
    code, doc = run_json(
        capsys, "search", "tile-probe", "--pattern", paths["d"], "--n", "8,10", "--samples", "3"
    )
    assert code == 0
    by_n = {e["n"]: e for e in doc["per_n"]}
    assert by_n[8]["tiled"] == 3
    assert "skipped" in by_n[10]
    assert doc["outcome"] == "found"
    # a list whose every size is skipped tests nothing: a usage error
    argv = ["search", "tile-probe", "--pattern", paths["d"], "--n", "10,14", "--samples", "3"]
    assert run(capsys, *argv) == (2, "")


def test_search_tile_probe_exit_codes(paths, tmp_path, capsys):
    # samples that only ran out of budget are inconclusive, not refuted
    argv = ["search", "tile-probe", "--pattern", paths["d"], "--n", "8", "--samples", "2"]
    code, out = run(capsys, *argv, "--budget", "1")
    assert (code, out.split("\n")[0]) == (3, "n=8: 0/2 samples tiled")
    code, doc = run_json(capsys, *argv, "--budget", "1")
    assert (code, doc["outcome"]) == (3, "inconclusive")
    # the only semi-regular tournament on 3 vertices is the directed triangle
    tt3 = tmp_path / "tt3.dg"
    assert cli.main(["generate", "transitive", "3", "-o", str(tt3)]) == 0
    capsys.readouterr()
    argv = ["search", "tile-probe", "--pattern", str(tt3), "--n", "3", "--samples", "1"]
    code, doc = run_json(capsys, *argv)
    assert code == 1
    assert doc["per_n"][0]["outcomes"][0]["mode"] == "refuted-exhaustive"
    assert doc["outcome"] == "refuted"


def test_verify_paper_fast(capsys):
    code, doc = run_json(capsys, "verify-paper", "--profile", "fast")
    assert code == 0
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert all(s == "PASS" for s in statuses.values()), statuses


def test_verify_paper_timings(monkeypatch, capsys):
    checks = (("first", lambda p: ("found", {})), ("second", lambda p: ("found", {})))
    monkeypatch.setattr(cli.verify, "CHECKS", checks)
    outputs = []
    for flags in ((), ("--timings",), ("--json",), ("--json", "--timings")):
        assert cli.main(["verify-paper", "--profile", "fast", *flags]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out == outputs[1].out
    assert outputs[2].out == outputs[3].out
    assert outputs[0].err == outputs[2].err == ""
    for captured in (outputs[1], outputs[3]):
        lines = [line.split() for line in captured.err.splitlines()]
        assert [name for name, _ in lines] == ["first", "second"]
        assert all(float(seconds) >= 0 for _, seconds in lines)


@pytest.mark.parametrize(
    "answers, expected",
    [
        (("found", "inconclusive", "found"), 3),
        (("inconclusive", "refuted"), 1),
        (("refuted", "inconclusive"), 1),
        (("found", "found"), 0),
    ],
)
def test_verify_paper_exits_by_its_worst_check(monkeypatch, capsys, answers, expected):
    checks = tuple((f"check-{i}", lambda p, a=a: (a, {})) for i, a in enumerate(answers))
    monkeypatch.setattr(cli.verify, "CHECKS", checks)
    code, out = run(capsys, "verify-paper", "--profile", "fast")
    assert code == expected
    words = {"found": "PASS", "refuted": "FAIL", "inconclusive": "INCONCLUSIVE(budget)"}
    tally = [answers.count(a) for a in ("found", "refuted", "inconclusive")]
    assert out.splitlines() == [
        *(f"{words[a]:20s} check-{i}" for i, a in enumerate(answers)),
        "{} pass, {} fail, {} inconclusive".format(*tally),
    ]
    code, doc = run_json(capsys, "verify-paper", "--profile", "fast")
    assert code == expected
    assert [c["status"] for c in doc["checks"]] == [verify.STATUS[a] for a in answers]
    assert doc["summary"] == dict(zip(("pass", "fail", "inconclusive"), tally))


def test_internal_errors_exit_4(monkeypatch, paths, caplog):
    def broken(args):
        raise RuntimeError("a fault of the program")

    # exit 1 is a refutation, so a fault of the program must not reach it
    monkeypatch.setattr(cli, "cmd_analyze", broken)
    assert cli.main(["analyze", "--host", paths["t7"]]) == 4
    [record] = caplog.records
    assert record.getMessage() == "internal error"
    assert record.exc_info[0] is RuntimeError


def test_an_outcome_outside_the_table_exits_4(monkeypatch, paths, caplog, capsys):
    # an answer the table does not know is a fault of the program, never exit 1
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: ("maybe", {}, []))
    assert cli.main(["analyze", "--host", paths["t7"]]) == 4
    [record] = caplog.records
    assert record.getMessage() == "internal error"
    assert record.exc_info[0] is KeyError
    assert capsys.readouterr().out == ""


def test_every_answer_is_an_outcome_of_the_table():
    modes = {
        tiling.FOUND,
        tiling.REFUTED_EXHAUSTIVE,
        tiling.REFUTED_LATTICE,
        tiling.REFUTED_DIVISIBILITY,
        tiling.INCONCLUSIVE,
    }
    assert set(tiling.OUTCOME) == modes
    assert set(verify.STATUS) == set(cli.EXIT) == set(tiling.OUTCOME.values())
    assert cli.EXIT == {"found": 0, "refuted": 1, "inconclusive": 3}
    assert (tiling.answer(True), tiling.answer(False)) == ("found", "refuted")
    # the worst answer: a refutation outranks a budget that ran out, which
    # outranks a find, whatever the order; no answer at all is found
    for size in range(len(cli.EXIT) + 1):
        for subset in combinations(cli.EXIT, size):
            if "refuted" in subset:
                expected = "refuted"
            else:
                expected = "inconclusive" if "inconclusive" in subset else "found"
            for order in permutations(subset):
                assert tiling.worst(order) == expected, order
                assert tiling.worst(iter(order + order)) == expected, order


def test_verify_spells_its_status_words_only_in_the_table():
    # the checks compute with answers; PASS, FAIL and INCONCLUSIVE are only
    # the words the report prints for them
    words = set(verify.STATUS.values())
    tree = ast.parse(Path(verify.__file__).read_text())
    [table] = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "STATUS"
    ]
    spelled = {id(value) for value in table.values}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in words:
            assert id(node) in spelled, node.lineno
        assert not (isinstance(node, ast.Name) and node.id in words), node.lineno
    checks = [
        fn
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and (fn.name.startswith("check_") or fn.name == "tsk_refutations")
    ]
    assert {fn.name for fn in checks} >= {fn.__name__ for _, fn in verify.CHECKS}
    for fn in checks:
        for node in ast.walk(fn):
            if isinstance(node, ast.Return):
                value = node.value
                assert isinstance(value, ast.Tuple) and len(value.elts) == 2, (fn.name, node.lineno)
                verdict = value.elts[0]
                if isinstance(verdict, ast.Constant):
                    assert verdict.value in cli.EXIT, (fn.name, node.lineno)


def test_exit_codes_0_1_3_come_only_from_the_table():
    # exit 1 means "refuted" only while no command can reach it but by
    # returning the outcome that EXIT maps to it
    def literals(outcome):  # the literals a returned outcome can take
        if isinstance(outcome, ast.IfExp):
            return literals(outcome.body) + literals(outcome.orelse)
        return [outcome.value] if isinstance(outcome, ast.Constant) else []

    tree = ast.parse(Path(cli.__file__).read_text())
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_"):
            for node in ast.walk(fn):
                if isinstance(node, ast.Return):
                    value = node.value
                    assert isinstance(value, ast.Tuple) and len(value.elts) == 3, (fn.name, node.lineno)
                    assert set(literals(value.elts[0])) <= set(cli.EXIT), (fn.name, node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant):
            assert node.value.value not in (0, 1, 3), node.lineno
    tables = [
        node.targets[0].id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Dict)
        and any(isinstance(v, ast.Constant) and type(v.value) is int for v in node.value.values)
    ]
    assert tables == ["EXIT"]


def test_usage_errors(tmp_path, capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()
    assert cli.main(["embed", "--pattern", "missing.dg", "--host", "also-missing.dg"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.dg"
    bad.write_text("3 1\n0 99\n")
    assert cli.main(["analyze", "--host", str(bad)]) == 2
    capsys.readouterr()
    # subcommands reject the flags they would not read
    assert cli.main(["verify-paper", "--budget", "1"]) == 2
    assert cli.main(["generate", "s", "--seed", "1"]) == 2
    assert cli.main(["search", "enumerate-rt", "--n", "5", "--budget", "1"]) == 2
    capsys.readouterr()
    # past the enumeration cap: a usage error, not a traceback
    assert cli.main(["search", "enumerate-rt", "--n", "13"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # analyze reads --parts, --seed and --gamma only with --stats extremal
    t7 = tmp_path / "t7.dg"
    assert cli.main(["generate", "rotational", "7", "1,2,4", "-o", str(t7)]) == 0
    assert cli.main(["analyze", "--host", str(t7), "--seed", "9"]) == 2
    assert cli.main(["analyze", "--host", str(t7), "--gamma", "0.3"]) == 2
    # and --parts too, though the partition is one of t7
    parts = tmp_path / "t7.parts"
    parts.write_text("0 1\n2 3\n4 5 6\n")
    assert cli.main(["analyze", "--host", str(t7), "--parts", str(parts)]) == 2
    assert cli.main(["analyze", "--host", str(t7), "--parts", str(parts), "--stats", "extremal"]) in (0, 1)
    capsys.readouterr()
    # a gamma outside [0, inf) is a usage error, not a refutation
    for gamma in ("-0.5", "nan", "inf"):
        assert cli.main(["analyze", "--host", str(t7), "--stats", "extremal", "--gamma", gamma]) == 2
    capsys.readouterr()
    s = tmp_path / "s.dg"
    assert cli.main(["generate", "s", "-o", str(s)]) == 0
    for samples in ("-2", "0"):
        probe = ["search", "probe", "--pattern", str(s), "--mode", "sample", "--n", "9"]
        assert cli.main([*probe, "--samples", samples]) == 2
        assert cli.main(["search", "tile-probe", "--pattern", str(s), "--n", "10", "--samples", samples]) == 2
    capsys.readouterr()
    # a size list with no size checks nothing: a usage error, not a pass
    for sizes in (",", ""):
        assert cli.main(["search", "probe", "--pattern", str(s), "--n", sizes]) == 2
        assert cli.main(["search", "tile-probe", "--pattern", str(s), "--n", sizes]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # a pattern with no vertex tiles nothing: a usage error, not a refutation
    empty = tmp_path / "empty.dg"
    empty.write_text("0 0\n")
    assert cli.main(["search", "tile-probe", "--pattern", str(empty), "--n", "4"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # a negative node budget is a usage error; a budget of 0 runs out at once
    tr10 = tmp_path / "tr10.dg"
    assert cli.main(["generate", "transitive", "10", "-o", str(tr10)]) == 0
    for command, host in (("embed", t7), ("tile", tr10)):
        argv = [command, "--pattern", str(s), "--host", str(host), "--budget"]
        assert cli.main([*argv, "-1"]) == 2
        assert cli.main([*argv, "0"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "extra, expected",
    [
        # a modulus this large lists no member: the lattice has 200^2 and
        # 101^2 classes, and (1,2,0) is outside the second
        (["--mod", "200"], 0),
        (["--mod", "0"], 2),
        # the robust lattice at threshold 2 omits the (0,0,3) copy, so a
        # target outside it refutes nothing
        (["--threshold", "2", "--target", "1,2,3"], 0),
        (["--mod", "101", "--target", "1,2,0"], 1),
        # a target needs one entry per part
        (["--target", "1,2"], 2),
        (["--target", "1,2,3,4"], 2),
    ],
)
def test_lattice_exit_codes(paths, capsys, caplog, extra, expected):
    parts = paths["barrier2"].replace(".dg", ".parts")
    argv = ["lattice", "--pattern", paths["c3"], "--host", paths["barrier2"], "--parts", parts]
    code, _ = run(capsys, *argv, *extra)
    assert code == expected
    assert all("\n" not in r.getMessage() for r in caplog.records)


def test_budget_outranks_the_copy_cap(tmp_path, capsys, monkeypatch):
    # the first leaf set of D in the semi-regular 8-tournament holds 3 copies
    # after 6 nodes: under a cap of 2 copies, budget 5 trips both on it, and
    # the budget wins
    monkeypatch.setattr(tiling, "EDGE_CAP", 2)
    d, host = tmp_path / "d.dg", tmp_path / "host.dg"
    write_graph(d, generators.d_abc(1, 1, 2)[0])
    write_graph(host, generators.semi_regular_tournament(8))
    tile = ["tile", "--pattern", str(d), "--host", str(host), "--budget"]
    assert run(capsys, *tile, "5") == (3, "inconclusive\n")
    assert run(capsys, *tile, "6") == (2, "")
