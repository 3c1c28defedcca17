import hashlib
import json
import sys

import pytest
from click.testing import CliRunner

from polyptych import cli, degeneration, geometry, mco
from polyptych.cli import main
from polyptych.geometry import BoxTooLarge
from polyptych.posets import chain_poset


@pytest.fixture()
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.output, result.exception
    return result.exit_code, json.loads(result.output)


def test_validate_family(runner):
    code, out = run_json(runner, ["validate", "--family", "gtC", "--n", "2",
                                  "--lambda", "2,4"])
    assert code == 0 and out["valid"] and out["spade"]


def test_classify_family(runner):
    code, out = run_json(runner, ["classify", "--family", "gtA", "--n", "2",
                                  "--lambda", "0,2,4"])
    assert code == 0 and out["ok"]
    assert any(c["shape"] == "ZIGZAG_MARKED_TOP" for c in out["components"])


def test_transfer_counts(runner):
    code, out = run_json(runner, ["transfer", "--family", "gtA", "--n", "2",
                                  "--lambda", "0,2,4", "--k", "1"])
    assert code == 0
    counts = {e["count"] for e in out["report"]["charts"].values()}
    assert counts == {27}


def test_polytope_count(runner):
    code, out = run_json(runner, ["polytope", "--family", "gtC", "--n", "2",
                                  "--lambda", "2,4", "--chart", "q11,q21"])
    assert code == 0 and out["lattice_points"] == 81


def test_mutate_empty_to_empty_is_identity(runner):
    code, out = run_json(runner, ["mutate", "--family", "gtC", "--n", "2",
                                  "--lambda", "2,4", "--vector", "1,-2,3,0",
                                  "--from-chart", "", "--to-chart", ""])
    assert code == 0 and out["image"] == [1, -2, 3, 0]


def test_mutate_dimension_zero_poset(runner, tmp_path):
    """A poset whose elements are all marked has one chart, of dimension 0:
    the empty --vector is its one vector."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"elements": ["e0"], "covers": [],
                                "marked": {"e0": 1}}))
    code, out = run_json(runner, ["mutate", "--vector", "", "--poset",
                                  str(path)])
    assert code == 0 and out["vector"] == [] and out["image"] == []


def test_hilbert_rows(runner):
    code, out = run_json(runner, ["hilbert", "--family", "gtA", "--n", "2",
                                  "--lambda", "0,2,4", "--kmax", "2"])
    assert code == 0
    assert [r["dimension"] for r in out["report"]["rows"]] == [1, 27, 125]


def test_cox_counts(runner):
    code, out = run_json(runner, ["cox", "--family", "gtC", "--n", "3",
                                  "--emit", "counts"])
    assert code == 0 and out["variables"] == 18


def test_cox_presentation(runner):
    code, out = run_json(runner, ["cox", "--family", "gtA", "--n", "2",
                                  "--lambda", "0,2,4",
                                  "--emit", "presentation"])
    assert code == 0 and out["free_count"] == 6


def test_poset_file_source(runner, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_poset(1, 0, 2).to_json()))
    code, out = run_json(runner, ["transfer", "--poset", str(path)])
    assert code == 0 and out["report"]["ok"]


def test_missing_source_is_usage_error(runner):
    result = runner.invoke(main, ["transfer"])
    assert result.exit_code == 2


def test_bad_poset_file_is_usage_error(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    result = runner.invoke(main, ["validate", "--poset", str(path)])
    assert result.exit_code == 2


def test_bad_vector_is_usage_error(runner):
    result = runner.invoke(main, ["mutate", "--family", "gtC", "--n", "2",
                                  "--vector", "1,x"])
    assert result.exit_code == 2
    assert "bad vector '1,x'" in result.output


def test_bad_marking_list_is_usage_error(runner):
    result = runner.invoke(main, ["transfer", "--family", "gtA", "--n", "2",
                                  "--lambda", "1,x"])
    assert result.exit_code == 2
    assert "bad marking list '1,x'" in result.output


def test_valcheck_small(runner):
    code, out = run_json(runner, ["valcheck", "--family", "gtC", "--n", "2",
                                  "--samples", "5"])
    assert code == 0 and out["report"]["ok"]


def test_dualcheck_small(runner):
    code, out = run_json(runner, ["dualcheck", "--family", "gtC", "--n", "2",
                                  "--pairs", "40", "--chart-samples", "8"])
    assert code == 0 and out["report"]["ok"]


@pytest.mark.parametrize("family, digest", [
    ("gtC", "c4eef7696c8073f1ad32776097a5abe2"
            "4ced2fa7f048690cd1132d1efb415532"),
    ("gtA", "e4d9bdd7466000fb0f58388e43284e14"
            "d4583cd34f06ad54e54600d976227084")])
def test_dualcheck_stdout_is_pinned(runner, family, digest):
    """At default options every sampled draw and report entry reaches the
    output, so this pins the strict dual's rng stream end to end."""
    result = runner.invoke(main, ["dualcheck", "--family", family,
                                  "--n", "2"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


@pytest.mark.parametrize("family, n, k, digest", [
    ("gtA", 2, 1, "bd16597d7fd9f3c912d8dac0c3abfa28"
                  "6842f237137e183ee51498411009dfe7"),
    ("gtA", 2, 2, "47a3ef550c5d717b34a0fea30e0aecad"
                  "171011be14cb56c0dbe362f02f18a240"),
    ("gtA", 3, 1, "e83b4ac4e47dee7a265c54ed8849633d"
                  "a3ce2c2bad69c412bcae5d69ceaf742d"),
    ("gtA", 3, 2, "180f52e2d78857475969f68f2a997b3e"
                  "bdf34055e824d32af07ff261cbfcd89b"),
    ("gtC", 2, 1, "1b330b54f517adfb47a0cf81045bf0b0"
                  "4102ccf855ffec280b7b77b9d7c080c0"),
    ("gtC", 2, 2, "87294370ef98592b38843e8898871c26"
                  "ce7f280f1f850b3f1a7b37e28de00481"),
    ("gtC", 3, 1, "1bf51cabfb399ef2ea4756f1cb5b7e87"
                  "e40a7af7235be3d563ca58359ad1a6ca"),
    ("gtC", 3, 2, "5019b1070d0c4a364e7ded91d2eee353"
                  "661e5d6f5082cc14672e73ae471a2220")])
def test_transfer_stdout_is_pinned(runner, family, n, k, digest):
    """Every chart's count, image count and match reaches the output, so
    this pins the transfer check's report on all 2^d charts."""
    result = runner.invoke(main, ["transfer", "--family", family,
                                  "--n", str(n), "--k", str(k)])
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


@pytest.mark.parametrize("family", ["gtA", "gtC"])
def test_dualcheck_passes_with_no_interior_position(runner, family):
    """At n = 1 the one dual cone holds every dual, so no chart needs an
    outside dual that breaks additivity."""
    code, out = run_json(runner, ["dualcheck", "--family", family,
                                  "--n", "1"])
    assert code == 0 and out["report"]["ok"]
    assert all(e["ok"] and e["outside"] == 0
               for e in out["report"]["charts"].values())


def test_nobody_small(runner):
    code, out = run_json(runner, ["nobody", "--family", "gtA", "--n", "2",
                                  "--lambda", "0,2,4", "--chart", "q21",
                                  "--kmax", "1"])
    assert code == 0 and out["report"]["ok"]


@pytest.mark.parametrize("args", [
    ["polytope", "--family", "gtA", "--n", "2", "--chart", "zz"],
    ["polytope", "--family", "gtA", "--n", "2", "--chart", "q21,qs1"],
    ["mutate", "--family", "gtA", "--n", "2", "--from-chart", "bogus",
     "--vector", "1,2,3"],
    ["mutate", "--family", "gtA", "--n", "2", "--to-chart", "q21,bogus",
     "--vector", "1,2,3"],
    ["nobody", "--family", "gtA", "--n", "2", "--chart", "zz"],
    ["polytope", "--family", "gtA", "--n", "2", "--k", "-1"],
    ["transfer", "--family", "gtA", "--n", "2", "--k", "-1"],
    ["hilbert", "--family", "gtA", "--n", "2", "--kmax", "-1"],
    ["polytope", "--family", "gtA", "--n", "0"],
    ["valcheck", "--family", "gtC", "--n", "2", "--samples", "-3"],
    ["valcheck", "--family", "gtC", "--n", "2", "--samples", "0"],
    ["dualcheck", "--family", "gtC", "--n", "1", "--pairs", "-2",
     "--chart-samples", "-1"],
    ["dualcheck", "--family", "gtC", "--n", "1", "--pairs", "0"],
    ["dualcheck", "--family", "gtC", "--n", "1", "--chart-samples", "0"],
])
def test_out_of_range_argument_is_usage_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output and "Traceback" not in result.output


def test_unknown_chart_error_names_the_element(runner):
    result = runner.invoke(main, ["polytope", "--family", "gtA", "--n", "2",
                                  "--chart", "q21,zz"])
    assert result.exit_code == 2
    assert "zz" in result.output and "q21, q31" in result.output


NOT_GRADED = {"elements": ["bot", "p1", "p2", "p3", "top"],
              "covers": [["bot", "p1"], ["p1", "p2"], ["p2", "top"],
                         ["bot", "p3"], ["p3", "top"]],
              "marked": {"bot": 0, "top": 4}}


@pytest.mark.parametrize("command, content", [
    (["validate"], [1, 2]),
    (["transfer"], {"elements": ["a", "b"], "covers": 5}),
    (["transfer"], NOT_GRADED),
    (["mutate", "--vector", "1,2,3"], NOT_GRADED),
    (["classify"], NOT_GRADED),
    (["cox"], NOT_GRADED),
])
def test_unusable_poset_file_is_usage_error(runner, tmp_path, command,
                                            content):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(content))
    result = runner.invoke(main, command + ["--poset", str(path)])
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output and "Traceback" not in result.output


def test_dim_cap_is_exit_3(runner):
    code, out = run_json(runner, ["valcheck", "--family", "gtA", "--n", "4",
                                  "--samples", "2"])
    assert code == 3
    assert out == {"tool": "polyptych", "version": out["version"],
                   "command": "valcheck",
                   "error": {"limit": "dim_cap",
                             "message": "dimension 10 exceeds cap 9"}}


def test_seed_only_where_a_command_samples(runner):
    seeded = {name for name, cmd in main.commands.items()
              if any(p.name == "seed" for p in cmd.params)}
    assert seeded == {"dualcheck", "valcheck", "acceptance"}
    result = runner.invoke(main, ["transfer", "--family", "gtA", "--n", "2",
                                  "--seed", "0"])
    assert result.exit_code == 2, result.output


def test_enum_budget_is_exit_3(runner, monkeypatch):
    def over_budget(*args, **kwargs):
        raise BoxTooLarge("search exceeded 10 nodes")

    monkeypatch.setattr(mco, "count_charts", over_budget)
    code, out = run_json(runner, ["polytope", "--family", "gtA", "--n", "2"])
    assert code == 3 and out["command"] == "polytope"
    assert out["error"] == {"limit": "enum_budget",
                            "message": "search exceeded 10 nodes"}


def test_hilbert_over_its_budget_is_exit_3(runner, monkeypatch):
    # gtC n = 3 at the default kmax 3: the first listing or batch of counts
    # past 10,000 search nodes ends the command with the named limit
    monkeypatch.setattr(geometry, "ENUM_BUDGET", 10_000)
    code, out = run_json(runner, ["hilbert", "--family", "gtC", "--n", "3"])
    assert code == 3
    assert out == {"tool": "polyptych", "version": out["version"],
                   "command": "hilbert",
                   "error": {"limit": "enum_budget",
                             "message": "enumeration budget 10000 exceeded"}}


def test_memory_error_is_exit_3(runner, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(degeneration, "hilbert_vs_ehrhart", out_of_memory)
    code, out = run_json(runner, ["hilbert", "--family", "gtA", "--n", "2"])
    assert code == 3
    assert out == {"tool": "polyptych", "version": out["version"],
                   "command": "hilbert",
                   "error": {"limit": "memory", "message":
                             "out of memory in hilbert --family gtA --n 2"}}


def test_memory_error_is_emitted_after_the_handler(runner, monkeypatch):
    """The exit-3 report is printed once the MemoryError is dropped, so the
    failed command's frames no longer hold what ran out."""
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    emit = cli._emit
    seen = []

    def recording(*args, **kwargs):
        seen.append(sys.exc_info())
        emit(*args, **kwargs)

    monkeypatch.setattr(mco, "verify_transfer_bijection", out_of_memory)
    monkeypatch.setattr(cli, "_emit", recording)
    code, out = run_json(runner, ["transfer", "--family", "gtA", "--n", "2"])
    assert code == 3 and out["error"]["limit"] == "memory"
    assert seen == [(None, None, None)]


@pytest.mark.parametrize("command", ["validate", "classify", "cox"])
@pytest.mark.parametrize("family", ["gtA", "gtC"])
def test_family_above_n_10_is_usage_error(runner, command, family):
    """Position names q{i}{j} would collide at n = 11 ((1, 11) and (11, 1)
    are both q111), so the builder refuses it and names the limit."""
    result = runner.invoke(main, [command, "--family", family, "--n", "11"])
    assert_usage_error(result, "n = 11 exceeds the limit n <= 10")


def _poset_file(tmp_path, content):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(content))
    return str(path)


def assert_usage_error(result, *needles):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output and "Traceback" not in result.output
    for needle in needles:
        assert needle in result.output


# graded, but q has three legs: not a spade poset
FAN = {"elements": ["a", "p1", "p2", "p3", "q", "b"],
       "covers": [["a", "p1"], ["a", "p2"], ["a", "p3"], ["p1", "q"],
                  ["p2", "q"], ["p3", "q"], ["q", "b"]],
       "marked": {"a": 0, "b": 3}}


def test_hilbert_non_spade_poset_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["hilbert", "--poset",
                                  _poset_file(tmp_path, FAN)])
    assert_usage_error(result, "3 legs")


NOT_GRADED_INVALID = "NOT_GRADED (cover ('p3', 'top') skips a rank)"
FAN_ERROR = "level 1: upper element q has 3 legs, need 2"


@pytest.mark.parametrize("command, content, error", [
    ("classify", NOT_GRADED, "invalid poset: " + NOT_GRADED_INVALID),
    ("cox", NOT_GRADED, "invalid poset: " + NOT_GRADED_INVALID),
    ("hilbert", NOT_GRADED, "invalid poset: " + NOT_GRADED_INVALID),
    ("transfer", NOT_GRADED, "invalid poset: " + NOT_GRADED_INVALID),
    ("hilbert", FAN, "unsupported poset: " + FAN_ERROR),
    ("cox", FAN, "unsupported poset: " + FAN_ERROR),
], ids=["classify-ng", "cox-ng", "hilbert-ng", "transfer-ng", "hilbert-fan",
        "cox-fan"])
def test_unsupported_poset_output_is_pinned(runner, tmp_path, command,
                                            content, error):
    # the whole output, usage lines included; a poset that is not graded
    # reads the same from every command, as validate's error codes
    result = runner.invoke(main, [command, "--poset",
                                  _poset_file(tmp_path, content)])
    assert result.exit_code == 2
    assert result.output == (
        f"Usage: main {command} [OPTIONS]\n"
        f"Try 'main {command} --help' for help.\n\nError: {error}\n")


CHAIN = {"elements": ["a", "p", "c"], "covers": [["a", "p"], ["p", "c"]]}


@pytest.mark.parametrize("command", ["polytope", "transfer", "hilbert"])
@pytest.mark.parametrize("marked, code", [
    ({"c": 2}, "UNMARKED_EXTREME"),
    ({"a": 5, "c": 2}, "NOT_MONOTONE"),
])
def test_invalid_poset_is_usage_error(runner, tmp_path, command, marked,
                                      code):
    path = _poset_file(tmp_path, dict(CHAIN, marked=marked))
    assert_usage_error(runner.invoke(main, [command, "--poset", path]), code)
    # validate keeps its exit-1 report for the same file
    status, out = run_json(runner, ["validate", "--poset", path])
    assert status == 1 and code in {e[0] for e in out["errors"]}


@pytest.mark.parametrize("extra, needles", [
    ({"marking": {"a": 0, "c": 2}}, ("marking", "elements, covers, marked")),
    ({"marked": [0, 2]}, ("marked must map",)),
    ({"marked": {"a": 0, "c": 1.5}}, ("marking of c", "1.5")),
    ({"marked": {"a": 0, "c": True}}, ("marking of c", "True")),
    ({"elements": "apc"}, ("elements must be a list",)),
    ({"covers": ["ap", "pc"]}, ("covers must be a list",)),
])
def test_malformed_poset_keys_are_usage_errors(runner, tmp_path, extra,
                                               needles):
    path = _poset_file(tmp_path, dict(CHAIN, **extra))
    result = runner.invoke(main, ["transfer", "--poset", path])
    assert_usage_error(result, *needles)


def test_mutate_runs_the_validate_checks(runner, tmp_path):
    # e0 and e1 are unmarked minimal elements
    path = _poset_file(tmp_path, {
        "elements": ["e0", "e1", "e2", "e3"],
        "covers": [["e0", "e2"], ["e1", "e3"]], "marked": {"e3": -2}})
    result = runner.invoke(main, ["mutate", "--vector", "1,0,2",
                                  "--from-chart", "e0", "--poset", path])
    assert_usage_error(result, "UNMARKED_EXTREME")


@pytest.mark.parametrize("command", ["validate", "polytope", "transfer",
                                     "hilbert"])
def test_empty_poset_is_usage_error(runner, tmp_path, command):
    path = _poset_file(tmp_path, {"elements": [], "covers": [],
                                  "marked": {}})
    result = runner.invoke(main, [command, "--poset", path])
    assert_usage_error(result, "at least one element")


@pytest.mark.parametrize("command", ["validate", "transfer", "classify"])
def test_repeated_cover_is_usage_error(runner, tmp_path, command):
    path = _poset_file(tmp_path, dict(
        CHAIN, covers=[["a", "p"], ["a", "p"], ["p", "c"]],
        marked={"a": 0, "c": 2}))
    result = runner.invoke(main, [command, "--poset", path])
    assert_usage_error(result, "repeated cover")


# charts are named by their comma-joined element names, with "" the order
# chart: {"a,b"} would be named as {"a", "b"}, and {""} as chart 0
COMMA_NAME = {"elements": ["bot", "a", "b", "a,b", "top"],
              "covers": [["bot", "a"], ["bot", "b"], ["bot", "a,b"],
                         ["a", "top"], ["b", "top"], ["a,b", "top"]],
              "marked": {"bot": 0, "top": 2}}
EMPTY_NAME = {"elements": ["bot", "", "p", "top"],
              "covers": [["bot", ""], ["bot", "p"], ["", "top"],
                         ["p", "top"]],
              "marked": {"bot": 0, "top": 2}}


@pytest.mark.parametrize("command", ["validate", "transfer", "hilbert"])
@pytest.mark.parametrize("content, name", [(COMMA_NAME, "'a,b'"),
                                           (EMPTY_NAME, "''")],
                         ids=["comma", "empty"])
def test_name_that_breaks_a_chart_name_is_usage_error(runner, tmp_path,
                                                      command, content, name):
    path = _poset_file(tmp_path, content)
    result = runner.invoke(main, [command, "--poset", path])
    assert_usage_error(result, "cannot load poset",
                       f"element name {name} is empty or has a comma")
