"""Fuzz the --poset boundary: small random DAGs, random markings, and
malformed documents, through every command that reads a poset.  Each run
must end in a documented exit code, never in an uncaught exception."""
import json

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyptych.cli import main

NAMES = [f"e{i}" for i in range(6)]

COMMANDS = [["validate"], ["classify"], ["polytope", "--k", "1"],
            ["transfer", "--k", "1"], ["hilbert", "--kmax", "1"],
            ["cox", "--emit", "counts"], ["cox", "--emit", "generators"],
            ["nobody"], ["dualcheck", "--pairs", "2"],
            ["valcheck", "--samples", "1"]]


def _flaws(names):
    """Ways to spoil a well-formed document."""
    some = names[0] if names else "e0"
    return st.sampled_from([
        ("rename", "marked", "marking"),
        ("set", "elements", "".join(names)),
        ("set", "covers", [[some, some, some]]),
        ("set", "covers", [some]),
        ("set", "marked", [0, 2]),
        ("mark", some, 1.5), ("mark", some, True), ("mark", some, "7"),
        ("mark", some, "x"), ("mark", "zz", 0),
        ("cover", [some, "zz"]), ("cover", [some, some]), ("repeat",),
        ("set", "extra", 1), ("duplicate", some), ("comma", some),
        ("whole", [names]),
    ])


@st.composite
def poset_documents(draw):
    n = draw(st.integers(0, 6))
    names = NAMES[:n]
    covers = []
    if draw(st.booleans()):
        # layered: covers only from one level to the next, as in a graded
        # poset
        level = sorted(draw(st.lists(st.integers(0, 2), min_size=n,
                                     max_size=n)))
        for b, lb in zip(names, level):
            below = [a for a, la in zip(names, level) if la == lb - 1]
            if below:
                covers += [[a, b] for a in draw(st.lists(
                    st.sampled_from(below), min_size=1, unique=True))]
        for a, la in zip(names, level):
            above = [b for b, lb in zip(names, level) if lb == la + 1]
            if above and all(c[0] != a for c in covers):
                covers.append([a, draw(st.sampled_from(above))])
    elif n:
        index = st.integers(0, n - 1)
        for a, b in draw(st.lists(st.tuples(index, index), max_size=8)):
            if a != b:
                # mostly upward in index order (a DAG), sometimes a cycle
                if a > b and not draw(st.booleans()):
                    a, b = b, a
                if [names[a], names[b]] not in covers:
                    covers.append([names[a], names[b]])
    if draw(st.booleans()):
        # mark exactly the extreme elements, minimal ones low: often a
        # valid poset
        minimal = {a for a in names if all(c[1] != a for c in covers)}
        maximal = {a for a in names if all(c[0] != a for c in covers)}
        marked = {a: 0 if a in minimal else 3 for a in names
                  if a in minimal | maximal}
    else:
        marked = draw(st.dictionaries(st.sampled_from(names),
                                      st.integers(-3, 3),
                                      max_size=n)) if n else {}
    doc = {"elements": names, "covers": covers, "marked": marked}
    flaw = draw(st.none() | _flaws(names))
    if flaw is None:
        return doc
    kind, *args = flaw
    if kind == "rename":
        doc[args[1]] = doc.pop(args[0])
    elif kind == "set":
        doc[args[0]] = args[1]
    elif kind == "mark":
        doc["marked"][args[0]] = args[1]
    elif kind == "cover":
        doc["covers"].append(args[0])
    elif kind == "repeat":
        doc["covers"] += doc["covers"][:1]
    elif kind == "duplicate":
        doc["elements"] = names + [args[0]]
    elif kind == "comma":  # a name with a comma, in every place it occurs
        doc = json.loads(json.dumps(doc).replace(
            f'"{args[0]}"', f'"{args[0]},e9"'))
    else:
        return args[0]
    return doc


@st.composite
def mutate_args(draw, doc):
    """A mutate command whose vector and charts are mostly fit to the
    document's unmarked elements."""
    length = draw(st.integers(0, 4))
    names = NAMES[:3]
    if isinstance(doc, dict) and draw(st.integers(0, 3)):
        names = sorted(set(doc["elements"]) - set(doc.get("marked") or ()))
        length = len(names)
    vector = ",".join(str(draw(st.integers(-3, 3))) for _ in range(length))
    charts = st.lists(st.sampled_from(names or [""]), max_size=2).map(
        ",".join)
    return ["mutate", "--vector", vector, "--from-chart", draw(charts),
            "--to-chart", draw(charts)]


@st.composite
def cases(draw):
    doc = draw(poset_documents())
    return doc, draw(mutate_args(doc))


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_poset_input_ends_in_a_documented_exit_code(case):
    doc, mutate = case
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("poset.json", "w") as fh:
            json.dump(doc, fh)
        for command in COMMANDS + [mutate]:
            result = runner.invoke(main, command + ["--poset", "poset.json"])
            assert result.exit_code in (0, 1, 2, 3), (command, doc)
            assert (result.exception is None
                    or isinstance(result.exception, SystemExit)), (
                command, doc, repr(result.exception))
