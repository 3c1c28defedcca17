"""Command-line front end: deterministic, JSON-emitting verification
commands over marked posets and the triangular families.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage error,
3 a resource limit was exceeded.  Exit 3 prints
``{"tool", "version", "command", "error": {"limit", "message"}}``, where
``limit`` is ``"dim_cap"`` (the double-description dimension cap),
``"enum_budget"`` (the lattice-point enumeration budget) or ``"memory"``,
whose message names the command line: ``polyptych hilbert --poset p.json``
reads ``"out of memory in hilbert --poset p.json"``.
"""

from __future__ import annotations

import functools
import json
import random
import shlex
import sys

import click

from . import (acceptance as acceptance_mod, algebra, cox as cox_mod,
               degeneration, families, lattice, mco)
from .geometry import BoxTooLarge, DimCapExceeded
from .posets import (MarkedPoset, NoInteriorU, NotGraded, PosetError,
                     SpadeViolation, choose_u, classify_spade,
                     validate as validate_poset)

VERSION = "0.1.0"

FAMILY_NAMES = {"gtA": "A", "gta": "A", "A": "A",
                "gtC": "C", "gtc": "C", "C": "C"}


def _parse_ints(text, what):
    """A comma-separated integer list; the usage error names ``what``."""
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise click.UsageError(f"bad {what} {text!r}")


def _parse_chart(text, poset):
    if not text:
        return frozenset()
    chart = frozenset(text.split(","))
    unknown = sorted(chart - set(poset.axis))
    if unknown:
        raise click.UsageError(
            f"unknown chart element(s) {', '.join(unknown)}; a chart is a "
            f"comma-separated subset of {', '.join(poset.axis)}")
    return chart


def _load_family(family, n, lam):
    name = FAMILY_NAMES.get(family)
    if name is None:
        raise click.UsageError(f"unknown family {family!r}")
    if n is None:
        raise click.UsageError("--n is required with --family")
    lam = _parse_ints(lam, "marking list")
    if not lam:
        if name == "C":
            lam = tuple(2 * i for i in range(1, n + 1))
        else:
            lam = tuple(2 * i for i in range(n + 1))
    try:
        return families.GTFamily(name, n, lam)
    except (PosetError, ValueError) as exc:
        raise click.UsageError(str(exc))


def _load_poset(ctx_params):
    family = ctx_params.get("family")
    path = ctx_params.get("poset")
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("expected a JSON object")
            return MarkedPoset.from_json(data), None
        except (OSError, ValueError, TypeError, KeyError, PosetError) as exc:
            raise click.UsageError(f"cannot load poset {path}: {exc}")
    if family:
        fam = _load_family(family, ctx_params.get("n"),
                           ctx_params.get("lam"))
        return fam.poset, fam
    raise click.UsageError("provide --family or --poset")


def _require_family(ctx_params):
    poset, fam = _load_poset(ctx_params)
    if fam is None:
        raise click.UsageError("this command needs --family (triangular "
                               "family structure)")
    return fam


def _validated(poset):
    """Exit 2, listing the error codes, on a poset that fails validate."""
    diag = validate_poset(poset)
    if not diag.ok:
        raise click.UsageError(f"invalid poset: {diag.message}")


def _shift(poset):
    _validated(poset)
    try:
        return choose_u(poset)
    except NoInteriorU:
        return choose_u(poset, strict=False)


def _emit(report, ok=True, code=None):
    payload = {"tool": "polyptych", "version": VERSION}
    payload.update(report)
    click.echo(json.dumps(payload, sort_keys=True, indent=2))
    sys.exit((0 if ok else 1) if code is None else code)


LIMITS = {DimCapExceeded: "dim_cap", BoxTooLarge: "enum_budget",
          MemoryError: "memory"}


class _Main(click.Group):
    """Reports an exceeded resource limit as exit 3, not as a traceback.
    A MemoryError carries no message, so the command line stands in.  The
    report is emitted after the except block, once the exception and the
    failed command's frames, which may hold the memory that ran out, are
    released."""

    def parse_args(self, ctx, args):
        ctx.meta["argv"] = shlex.join(args)
        return super().parse_args(ctx, args)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(LIMITS) as exc:
            limit = LIMITS[type(exc)]
            message = str(exc)
            if isinstance(exc, MemoryError):
                message = "out of memory in " + ctx.meta["argv"]
        _emit({"command": ctx.invoked_subcommand,
               "error": {"limit": limit, "message": message}}, code=3)


def _source_options(body):
    """The poset-source options, and exit 2 on a poset the command does not
    support, raised inside the command so that the usage lines show.  A
    poset that is not graded fails validate, and reads as _validated
    reports it."""
    @functools.wraps(body)
    def fn(**params):
        try:
            return body(**params)
        except NotGraded as exc:
            raise click.UsageError(f"invalid poset: {exc}")
        except PosetError as exc:
            raise click.UsageError(f"unsupported poset: {exc}")

    fn = click.option("--family", default=None,
                      help="builder family: gtA or gtC")(fn)
    fn = click.option("--n", type=click.IntRange(min=1), default=None)(fn)
    fn = click.option("--lambda", "lam", default="",
                      help="comma-separated marking values")(fn)
    fn = click.option("--poset", type=click.Path(exists=True), default=None,
                      help="marked poset JSON file")(fn)
    return fn


@click.group(cls=_Main)
def main():
    """Exact verification tools for marked chain-order polytopes and
    polyptych lattices."""


@main.command()
@_source_options
def validate(**params):
    """Structural diagnostics for a marked poset."""
    poset, _ = _load_poset(params)
    diag = validate_poset(poset)
    report = {"command": "validate", "valid": diag.ok,
              "errors": [list(e) for e in diag.errors]}
    spade = None
    if diag.ok:
        try:
            classify_spade(poset)
            spade = True
        except SpadeViolation as exc:
            spade = False
            report["spade_error"] = str(exc)
    report["spade"] = spade
    _emit(report, ok=diag.ok and bool(spade))


@main.command()
@_source_options
def classify(**params):
    """Level-component classification of the reduced double levels."""
    poset, _ = _load_poset(params)
    try:
        cls = classify_spade(poset)
    except SpadeViolation as exc:
        _emit({"command": "classify", "ok": False, "error": str(exc)},
              ok=False)
    comps = [{"level": c.level, "shape": c.shape,
              "lower": list(c.lower), "upper": list(c.upper)}
             for c in cls.components]
    _emit({"command": "classify", "ok": True, "components": comps})


@main.command()
@_source_options
@click.option("--chart", default="", help="comma-separated chart elements")
@click.option("--k", type=click.IntRange(min=0), default=1)
def polytope(chart, k, **params):
    """H-description and lattice-point count of a centered chart polytope."""
    poset, _ = _load_poset(params)
    chart = _parse_chart(chart, poset)
    u = _shift(poset)
    hd = mco.hat_delta(poset, u, chart)
    count = mco.count_charts(poset, u, [chart], k)[0]
    _emit({"command": "polytope", "chart": mco.chart_str(chart), "k": k,
           "u": dict(sorted(u.u.items())),
           "hrep": hd.dilate(k).to_json(),
           "lattice_points": count})


@main.command()
@_source_options
@click.option("--k", type=click.IntRange(min=0), default=1)
def transfer(k, **params):
    """Transfer bijection check: every chart count equals the chart-0
    count, with the map image inside the chart polytope."""
    poset, _ = _load_poset(params)
    u = _shift(poset)
    rep = mco.verify_transfer_bijection(poset, u, k)
    _emit({"command": "transfer", "k": k, "report": rep}, ok=rep["ok"])


@main.command()
@_source_options
@click.option("--from-chart", "chart1", default="")
@click.option("--to-chart", "chart2", default="")
@click.option("--vector", required=True, help="comma-separated integers")
def mutate(chart1, chart2, vector, **params):
    """Apply the chart-to-chart mutation to an integer vector."""
    poset, _ = _load_poset(params)
    _validated(poset)
    lat = lattice.PolyptychLattice(poset)
    vec = _parse_ints(vector, "vector")
    if len(vec) != lat.dim:
        raise click.UsageError(f"vector needs {lat.dim} coordinates")
    image = lat.mutate(_parse_chart(chart1, poset),
                       _parse_chart(chart2, poset), vec)
    _emit({"command": "mutate", "from": chart1, "to": chart2,
           "vector": list(vec), "image": [int(c) for c in image]})


@main.command()
@_source_options
@click.option("--kmax", type=click.IntRange(min=0), default=3)
def hilbert(kmax, **params):
    """Graded dimensions against chart lattice-point counts."""
    poset, _ = _load_poset(params)
    u = _shift(poset)
    rep = degeneration.hilbert_vs_ehrhart(poset, u, kmax)
    _emit({"command": "hilbert", "kmax": kmax, "report": rep},
          ok=rep["ok"])


@main.command()
@_source_options
@click.option("--pairs", type=click.IntRange(min=1), default=500)
@click.option("--chart-samples", type=click.IntRange(min=1), default=50)
@click.option("--seed", type=int, default=0)
def dualcheck(pairs, chart_samples, seed, **params):
    """Strict dual pairing: symmetry, injectivity, chart-cone match."""
    fam = _require_family(params)
    rng = random.Random(seed)
    rep = lattice.verify_strict_dual(fam, rng, pairs=pairs,
                                     chart_samples=chart_samples)
    _emit({"command": "dualcheck", "seed": seed, "report": rep},
          ok=rep["ok"])


@main.command()
@_source_options
@click.option("--samples", type=click.IntRange(min=1), default=100)
@click.option("--mode", type=click.Choice(["EXACT", "SAMPLED"]),
              default="EXACT")
@click.option("--seed", type=int, default=0)
def valcheck(samples, mode, seed, **params):
    """Valuation multiplicativity into the semialgebra."""
    fam = _require_family(params)
    rng = random.Random(seed)
    rep = algebra.verify_valuation(fam, rng, samples=samples, mode=mode)
    _emit({"command": "valcheck", "seed": seed, "mode": mode,
           "report": rep}, ok=rep["ok"])


@main.command()
@_source_options
@click.option("--chart", default="")
@click.option("--kmax", type=click.IntRange(min=0), default=2)
def nobody(chart, kmax, **params):
    """Chart-valuation value sets against dilated polytope points."""
    fam = _require_family(params)
    chart = _parse_chart(chart, fam.poset)
    u = _shift(fam.poset)
    spec = degeneration.default_chart_valuation_spec(fam, chart)
    rep = degeneration.no_body_sample(fam, u, spec, kmax)
    _emit({"command": "nobody", "kmax": kmax,
           "rho_certificate": spec.certificate, "report": rep},
          ok=rep["ok"])


@main.command()
@_source_options
@click.option("--emit", "what",
              type=click.Choice(["counts", "generators", "presentation"]),
              default="counts")
def cox(what, **params):
    """Cox-ring counts, semigroup generators, or the presentation."""
    poset, fam = _load_poset(params)
    if what == "counts":
        cc = cox_mod.cox_counts(poset)
        _emit({"command": "cox", "emit": what,
               "U": cc.U, "L": cc.L, "variables": cc.variables,
               "perLevel": {str(k): v
                            for k, v in sorted(cc.per_level.items())}})
    if fam is None:
        raise click.UsageError(f"--emit {what} needs --family")
    if what == "generators":
        reports = []
        ok = True
        for eps in cox_mod.all_sign_vectors(fam):
            rep = cox_mod.semigroup_generators(fam, eps)
            reports.append({"signs": {f"{i},{j}": e
                                      for (i, j), e in sorted(eps.items())},
                            "report": rep})
            ok = ok and rep["ok"]
        _emit({"command": "cox", "emit": what, "cones": reports}, ok=ok)
    pres = cox_mod.cox_presentation(fam)
    _emit({"command": "cox", "emit": what,
           "W": list(pres.w_vars), "Z": list(pres.z_vars),
           "t": list(pres.t_vars),
           "relations": [list(r) for r in pres.relations],
           "free_variables": list(pres.free_variables),
           "free_count": len(pres.free_variables)})


@main.command(name="acceptance")
@click.option("--profile", type=click.Choice(["quick", "full"]),
              default="quick")
@click.option("--seed", type=int, default=0)
def acceptance(profile, seed):
    """Run the acceptance criteria suite."""
    rep = acceptance_mod.run_suite(profile, seed)
    _emit(rep, ok=rep["ok"])


if __name__ == "__main__":
    main()
