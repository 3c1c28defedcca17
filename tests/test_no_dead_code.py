"""Every definition in the package has a user in src/ or perfbench/ (a
method or property of a package class only through an attribute, so that a
local variable of the same name does not count), and
every parameter with a default is set by some call in src/, perfbench/ or
tests/ to something other than its literal default, or KEPT names it (as
"function.param") with a reason to stay. A KEPT entry that the lint would
not flag without it is stale and fails too. A check that only tests call
belongs in tests/, as the body of the test that runs it, not in KEPT.
Click calls the (decorated) commands and the methods of _Main, whose base
is a library class. Every attribute a package class stores, and every
dataclass field, is read somewhere in src/, perfbench/ or tests/."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEPT = {
    "chain_poset": "builder listed in the README",
    "oplus": "the addition of the semialgebra"}


def _names(node, kinds=(ast.Name, ast.Attribute)):
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in
                   ast.walk(node) if isinstance(n, kinds))


def test_every_definition_is_used_or_kept():
    package = sorted(ROOT.glob("src/polyptych/*.py"))
    trees = [ast.parse(p.read_text())
             for p in package + sorted(ROOT.glob("perfbench/**/*.py"))]
    top = [n for tree in trees[:len(package)] for n in tree.body]
    defs = [n for n in top if isinstance(n, ast.ClassDef) or isinstance(
        n, ast.FunctionDef) and not n.decorator_list]
    methods = [m for c in defs if isinstance(c, ast.ClassDef) and not any(
        isinstance(b, ast.Attribute) for b in c.bases) for m in c.body
        if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    unused = set()
    for group, kinds in [(defs, (ast.Name, ast.Attribute)),
                         (methods, ast.Attribute)]:
        used = sum((_names(t, kinds) for t in trees), Counter())
        unused |= {d.name for d in group
                   if used[d.name] == _names(d, kinds)[d.name]}
    assert sorted(unused - KEPT.keys()) == []
    assert sorted(k for k in KEPT if "." not in k and k not in unused) == []


def _calls(trees):
    """Per called name: for each call, the source of its positional
    arguments (None after a *args) and of its keywords (None keys a
    **kwargs). A name imported under an alias counts as its original name."""
    out = {}
    for tree in trees:
        alias = {a.asname: a.name for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) for a in n.names if a.asname}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            args = [None if isinstance(a, ast.Starred) else ast.dump(a)
                    for a in call.args]
            if None in args:
                args = args[:args.index(None)] + [None] * 99
            out.setdefault(alias.get(name, name), []).append(
                (args, {k.arg: ast.dump(k.value) for k in call.keywords}))
    return out


def _sets(calls, name, pos, default):
    """Whether some call passes the parameter a value other than the
    literal default; passing the default sets nothing."""
    for args, kws in calls:
        if None in kws:
            return True
        value = kws.get(name, args[pos] if pos < len(args) else default)
        if value != default:
            return True
    return False


def test_every_default_parameter_is_passed_or_kept():
    package = sorted(ROOT.glob("src/polyptych/*.py"))
    callers = package + sorted(ROOT.glob("perfbench/**/*.py")) + sorted(
        ROOT.glob("tests/*.py"))
    calls = _calls(ast.parse(p.read_text()) for p in callers)
    unused = []
    for path in package:
        body = ast.parse(path.read_text()).body
        fns = [(None, n) for n in body
               if isinstance(n, ast.FunctionDef) and not n.decorator_list]
        fns += [(c.name, m) for c in body if isinstance(c, ast.ClassDef)
                for m in c.body if isinstance(m, ast.FunctionDef)]
        for owner, fn in fns:
            # a method's positions count from after self; a class call is
            # a call of __init__; keyword-only parameters have no position
            params = [a.arg for a in fn.args.args][owner is not None:]
            defaults = list(zip(params[len(params) - len(fn.args.defaults):],
                                fn.args.defaults)) + [
                (a.arg, d) for a, d in zip(fn.args.kwonlyargs,
                                           fn.args.kw_defaults) if d]
            call = owner if fn.name == "__init__" else fn.name
            unused += [f"{fn.name}.{name}" for name, d in defaults
                       if not _sets(calls.get(call, []), name,
                                    params.index(name) if name in params
                                    else 99, ast.dump(d))]
    assert sorted(set(unused) - KEPT.keys()) == []
    assert sorted(k for k in KEPT if "." in k and k not in unused) == []


def _stored(cls):
    """The attributes a class stores: each ``self.name`` assigned in one
    of its methods, and, for a dataclass, each annotated field."""
    fields = set()
    if any("dataclass" in ast.dump(d) for d in cls.decorator_list):
        fields = {n.target.id for n in cls.body
                  if isinstance(n, ast.AnnAssign)}
    return fields | {
        t.attr for fn in cls.body if isinstance(fn, ast.FunctionDef)
        for t in ast.walk(fn) if isinstance(t, ast.Attribute)
        and isinstance(t.ctx, ast.Store) and isinstance(t.value, ast.Name)
        and t.value.id == "self"}


def test_every_stored_attribute_is_read():
    """An attribute stored on a package object, or a dataclass field, is
    read (as an attribute) by some file in src/, perfbench/ or tests/."""
    package = sorted(ROOT.glob("src/polyptych/*.py"))
    readers = package + sorted(ROOT.glob("perfbench/**/*.py")) + sorted(
        ROOT.glob("tests/*.py"))
    read = set()
    for path in readers:
        read |= {n.attr for n in ast.walk(ast.parse(path.read_text()))
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.ctx, ast.Load)}
    unread = [f"{cls.name}.{name}" for path in package
              for cls in ast.parse(path.read_text()).body
              if isinstance(cls, ast.ClassDef)
              for name in sorted(_stored(cls) - read)]
    assert unread == []
