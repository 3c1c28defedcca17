"""Every definition in the package has a user in src/ or perfbench/, or a
reason to stay in KEPT.  Click calls the (decorated) commands and the
methods of _Main, whose base is a library class."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEPT = dict.fromkeys([
    "verify_pl_description", "verify_linearity_space", "ord_divisor_check",
    "gt_linearity_directions", "verify_semigroup_property", "eta_unit_check",
    "verify_chart_valuation_additive", "verify_f_pair_identity"],
    "a paper check; promoting it changes the fingerprints") | {
    "minkowski_sum_hull": "reference of the equal_exact test oracle",
    "transfer_inverse": "inverse of the transfer bijection, for round trips",
    "chain_poset": "builder listed in the README",
    "oplus": "the addition of the semialgebra",
    "verify_point_axiom": "the point-axiom check perfbench runs"}


def _names(node):
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in
                   ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_is_used_or_kept():
    package = sorted(ROOT.glob("src/polyptych/*.py"))
    trees = [ast.parse(p.read_text())
             for p in package + sorted(ROOT.glob("perfbench/**/*.py"))]
    used = sum(map(_names, trees), Counter())
    top = [n for tree in trees[:len(package)] for n in tree.body]
    defs = [n for n in top if isinstance(n, ast.ClassDef) or isinstance(
        n, ast.FunctionDef) and not n.decorator_list]
    defs += [m for c in defs if isinstance(c, ast.ClassDef) and not any(
        isinstance(b, ast.Attribute) for b in c.bases) for m in c.body
        if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    assert sorted({d.name for d in defs if d.name not in KEPT
                   and used[d.name] == _names(d)[d.name]}) == []
