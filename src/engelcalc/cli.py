"""Batch driver: run check suites on catalog families or manifests.

Verbs:
    engelcalc catalog list
    engelcalc catalog show FAMILY [--params k=v,...]
    engelcalc verify TARGET [--suite s1,s2] [--grid N] [--tol T]
                            [--json PATH] [--params k=v,...]
    engelcalc geiges (--input PATH | --builtin flat|twisted) [--nmax N]
                     [--grid N] [--json PATH]

TARGET is a catalog family id or a path to a manifest JSON file.  Exit code
0 means no FAIL record (REJECTED preconditions and documented DEVIATIONs do
not fail a run).  JSON reports are canonical: sorted keys, exact rationals
as strings, and no volatile fields, so identical runs emit identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__, catalog, geiges
from .engelcheck import (
    Derivation,
    Frac,
    PreconditionError,
    complex_framing,
    j_engel_splitting,
    jofreeb_residual,
    k_engel_check,
    totally_real_check,
    transverse_engel_check,
    verify_engel,  # noqa: F401  bench/test_bench.py patches this binding
)
from .framecalc import DEFAULT_GRID, DEFAULT_TOL, Certificate, VecField
from .manifest import Manifest, dump_json, load_manifest, manifest_from_parts

SUITES = ("engel", "jengel", "forms", "jofreeb", "kengel", "splitting",
          "geiges", "equivariance")
# suites that need both the plane field D and J
PLANE_AND_J_SUITES = ("jengel", "forms", "jofreeb", "kengel", "splitting")


@dataclass
class CheckRecord:
    name: str
    status: str  # PASS | FAIL | REJECTED | DEVIATION
    certificate: Certificate | None = None
    notes: str = ""
    wall_ms: float = 0.0

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "status": self.status}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        if self.notes:
            out["notes"] = self.notes
        return out


@dataclass
class Report:
    target: str
    parameters: Mapping[str, str]
    suites: tuple[str, ...]
    grid: int
    tolerance: float
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return "FAIL" if any(r.status == "FAIL" for r in self.records) else "PASS"

    def to_json(self) -> dict:
        return {
            "artifact": {"name": "engelcalc", "version": __version__},
            "target": self.target,
            "parameters": dict(sorted(self.parameters.items())),
            "suites": list(self.suites),
            "grid": self.grid,
            "tolerance": self.tolerance,
            "checks": [r.to_json() for r in self.records],
            "overall": self.overall,
        }


def emit_report(report: Report, format: str = "json") -> str:
    if format == "json":
        return dump_json(report.to_json())
    if format == "text":
        return _render_text(report)
    raise ValueError(f"unknown format {format!r}")


def _render_text(report: Report) -> str:
    lines = [f"target {report.target}   overall {report.overall}   "
             f"(grid {report.grid}, tol {report.tolerance})"]
    if report.parameters:
        lines.append("parameters: " +
                     ", ".join(f"{k}={v}" for k, v in sorted(report.parameters.items())))
    for r in report.records:
        cert = ""
        if r.certificate is not None:
            cert = f" [{r.certificate.kind}"
            if r.certificate.bound is not None:
                cert += f", bound {r.certificate.bound:.3e}"
            cert += "]"
        note = f"  -- {r.notes}" if r.notes else ""
        lines.append(f"  {r.status:9s} {r.name}{cert} ({r.wall_ms:.1f} ms){note}")
    return "\n".join(lines) + "\n"


def _read_manifest(path: Path) -> Manifest:
    try:
        return load_manifest(path.read_text())
    except OSError as exc:
        raise SystemExit(f"error: cannot read manifest {path}: {exc.strerror}")
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"error: malformed manifest {path}: {exc}")
    except ZeroDivisionError:
        raise SystemExit(f"error: malformed manifest {path}: division by zero")
    except RecursionError:
        raise SystemExit(f"error: malformed manifest {path}: nested too deeply")


def _write_report(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise SystemExit(f"error: cannot write report {path}: {exc.strerror}")


def _mapping_torus_input(tgt: Manifest, grid: int,
                         tol: float) -> geiges.MappingTorusInput:
    mt = tgt.mapping_torus
    if mt is None:
        raise PreconditionError("target carries no mapping-torus data")
    return geiges.MappingTorusInput(space=tgt.space, V=mt["V"], X=mt["X"],
                                    J=tgt.J, t=mt["coordinate"], grid=grid, tol=tol)


def _build_family(family: str, params: Mapping[str, str]) -> catalog.FamilySpec:
    try:
        return catalog.build_family(family, params)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc.args[0]}")


def _resolve_target(
    target: str, params: Mapping[str, str],
) -> tuple[Manifest, catalog.FamilySpec | None]:
    """The target as a manifest, with its family spec when it is a family."""
    if target in catalog.FAMILIES:
        spec = _build_family(target, params)
        return Manifest(target, spec.space, spec.J, spec.d1, spec.d2,
                        spec.parameters, None), spec
    path = Path(target)
    if not path.exists():
        raise SystemExit(f"error: target {target!r} is neither a catalog family "
                         f"nor a manifest file")
    if params:
        raise SystemExit(f"error: --params applies to catalog families only; "
                         f"{target!r} is a manifest")
    mf = _read_manifest(path)
    return (mf if mf.name else replace(mf, name=path.stem)), None


class _Runner:
    """Executes suites in dependency order against one target."""

    def __init__(self, tgt: Manifest, spec: catalog.FamilySpec | None,
                 grid: int, tol: float):
        self.tgt, self.spec = tgt, spec
        self.ctx = Derivation(tgt.d1, tgt.d2, tgt.J, tgt.space, grid, tol)
        self.records: list[CheckRecord] = []

    def _certified(self, name: str, cert: Certificate) -> CheckRecord:
        """The record of a certificate: PASS unless it failed."""
        return CheckRecord(name, "PASS" if cert.passed else "FAIL", cert)

    def _run(self, name: str, fn, *, status_of=None) -> object:
        """Record ``fn()``: the certificate it is decides the status unless
        ``status_of`` does."""
        t0 = time.perf_counter()
        result = None
        try:
            result = fn()
            record = (self._certified(name, result) if isinstance(result, Certificate)
                      else CheckRecord(name, "PASS"))
            if status_of is not None:
                record.status, record.notes = status_of(result)
        except PreconditionError as exc:
            record = CheckRecord(name, "REJECTED", notes=str(exc))
        except ValueError as exc:
            # ValueError: data the certifiers cannot handle, e.g. sampling
            # without a declarable period; report instead of crashing the batch
            record = CheckRecord(name, "FAIL", notes=str(exc))
        record.wall_ms = (time.perf_counter() - t0) * 1e3
        self.records.append(record)
        return result

    # -- suites ---------------------------------------------------------------

    def suite_engel(self):
        tgt, spec, ctx = self.tgt, self.spec, self.ctx
        # the Jacobi identity and J*J = -id hold by construction: FramedSpace
        # and ComplexStructure raise on a violation
        if tgt.J is not None:
            expected = spec.j_integrable if spec is not None else True

            def _nij_status(cert):
                if cert.passed:
                    return "PASS", ""
                if not expected:
                    return "DEVIATION", (spec.notes or
                                         "quoted pairing is almost complex only")
                return "FAIL", "Nijenhuis tensor does not vanish"

            self._run("engel.nijenhuis", lambda: ctx.nijenhuis,
                      status_of=_nij_status)
        if tgt.d1 is None or tgt.d2 is None:
            self.records.append(CheckRecord(
                "engel.rank", "REJECTED",
                notes="manifest declares no distribution"))
            return
        t0 = time.perf_counter()
        flag = ctx.flag
        # the flag's time goes on its first record, as the forms' goes on
        # forms.construction
        wall_ms = (time.perf_counter() - t0) * 1e3
        for key in ("rank_d", "rank_e", "rank_tm"):
            cert = flag.certificates.get(key)
            record = (CheckRecord(f"engel.{key}", "FAIL", notes="not reached")
                      if cert is None else self._certified(f"engel.{key}", cert))
            record.wall_ms, wall_ms = wall_ms, 0.0
            self.records.append(record)
        if flag.passed:
            self._run("engel.characteristic", lambda: ctx.w,
                      status_of=lambda w: (
                          "PASS",
                          f"flag: W = {_vec_str(w)} inside D = "
                          f"<{_vec_str(tgt.d1)}, {_vec_str(tgt.d2)}>; "
                          f"E adds [D1,D2] = {_vec_str(flag.e3)}"))
        if spec is not None and spec.expected_brackets:
            for rec in catalog.check_quoted_brackets(spec, flag.e3):
                note = rec.note
                if rec.status == "DEVIATION":
                    note += (f"; computed {_vec_str(rec.computed)}, "
                             f"quoted {_vec_str(rec.quoted)}")
                self.records.append(CheckRecord(
                    f"engel.bracket.{rec.name}", rec.status, notes=note))

    def suite_jengel(self):
        ctx = self.ctx
        self._run("jengel.j_invariance", lambda: ctx.j_invariance)
        self._run("jengel.complex_framing", lambda: complex_framing(ctx),
                  status_of=lambda frame: (
                      "PASS", f"complex frame (W, [W,JW]) of (TM, J): "
                              f"[W,JW] = {_vec_str(frame[1])}"))

    def suite_forms(self):
        def _report(forms):
            alpha = _form_str(forms.alpha)
            beta = _form_str(forms.beta)
            return "PASS", f"alpha = {alpha}; beta = {beta}; {forms.normalization}"

        forms = self._run("forms.construction", lambda: self.ctx.forms,
                          status_of=_report)
        if forms is None:
            return
        self._run("forms.structure_functions", lambda: self.ctx.sf,
                  status_of=lambda sf: ("PASS",
                                        f"c_WX = {sf.c_WX}, d_XT = {sf.d_XT}, "
                                        f"d_WR = {sf.d_WR}, d_XR = {sf.d_XR}"))

    def suite_jofreeb(self):
        def _report(r):
            # q1 and q2 are printed only as trig polynomials: unreduced
            # quotients over abdb^2 c_WX can run to hundreds of kilobytes
            q1, q2 = r.q1.as_trig(), r.q2.as_trig()
            values = (f"q1 = {q1}, q2 = {q2}" if q1 is not None and q2 is not None
                      else "q1 = (d_WR + d_XT)/c_WX, q2 = d_XR/c_WX "
                           "(forms.structure_functions)")
            return "PASS", f"J(T) = R + q1 W + q2 JW, J(R) = -T + q2 W - q1 JW: {values}"

        result = self._run("jofreeb.rotation", lambda: jofreeb_residual(self.ctx),
                           status_of=_report)
        if result is not None:
            self.records.append(self._certified("jofreeb.dalpha_squared",
                                                result.dalpha_identity))

    def suite_kengel(self):
        ctx = self.ctx

        def _status(rep):
            if rep.passed:
                return "PASS", "R commutes with W, X and T"
            obs = ", ".join(f"{k} = {v}" for k, v in sorted(rep.obstructions.items()))
            return "FAIL", f"nonzero commutator coefficients: {obs}"

        rep = self._run("kengel.commutators", lambda: k_engel_check(ctx),
                        status_of=_status)
        if rep is None:
            return
        if rep.rescaling_solvable:
            rescale_note = "a_WR = 0"
        else:
            rescale_note = rep.note or \
                f"a_WR = {rep.obstructions.get('WR.W', '0')} is a nonzero constant"
        self.records.append(CheckRecord(
            "kengel.rescaling",
            "PASS" if rep.rescaling_solvable else
            ("FAIL" if rep.rescaling_solvable is False else "REJECTED"),
            notes=rescale_note))
        self.records.append(CheckRecord(
            "kengel.dbeta_squared",
            "PASS" if rep.dbeta_squared_zero else "FAIL",
            notes="d(beta)^2 = 0" if rep.dbeta_squared_zero else
                  "d(beta)^2 is not zero"))
        if rep.passed:
            self._run("kengel.transverse_engel_field",
                      lambda: transverse_engel_check(ctx))

    def suite_splitting(self):
        # W and JW are over 1, J K_R and K_R over abdb
        self._run("splitting.fields", lambda: j_engel_splitting(self.ctx),
                  status_of=lambda fields: ("PASS", "TM = " + " + ".join(
                      f"<{label} = {_vec_str(f, den)}>" for label, f, den in zip(
                          ("W", "JW", "JR", "R"), fields,
                          (None, None) + (self.ctx.forms.abdb,) * 2))))

    def suite_geiges(self):
        inp = _mapping_torus_input(self.tgt, self.ctx.grid, self.ctx.tol)
        n_max = 8

        def _status(res):
            if res.n_star is None:
                return "FAIL", f"no passing level up to n = {n_max}"
            return "PASS", f"minimal passing level n* = {res.n_star}"

        self._run("geiges.minimal_n", lambda: geiges.minimal_n_search(inp, n_max),
                  status_of=_status)

    def suite_equivariance(self):
        if self.spec is None or self.spec.family != "hyperelliptic_product":
            self.records.append(CheckRecord(
                "equivariance", "REJECTED",
                notes="only defined for hyperelliptic_product"))
            return
        self._run("equivariance.rotation",
                  lambda: catalog.hyperelliptic_equivariance_check(
                      self.spec, self.ctx.grid))


def _vec_str(v: VecField, den=None) -> str:
    """v, or v / den one exact coefficient at a time when each divides out."""
    coeffs = v.coeffs if den is None else [Frac(c, den).as_trig() for c in v.coeffs]
    if None in coeffs:
        return f"{_vec_str(v)} / ({den})"
    return "(" + ", ".join(str(c) for c in coeffs) + ")"


def _form_str(form) -> str:
    parts = []
    for (i,), c in sorted(form.terms.items()):
        parts.append(f"({c})*a{i + 1}")
    return " + ".join(parts) if parts else "0"


def run_verify(
    target: str,
    suites: Sequence[str] | None = None,
    grid: int = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
    params: Mapping[str, str] | None = None,
) -> Report:
    """Run the selected suites against a catalog family or manifest path.

    A suite named twice runs once and is listed once, where first named; a
    blank name is an error.
    """
    if suites is None:
        chosen = SUITES
    else:
        chosen = tuple(dict.fromkeys(suites))
        if not any(s.strip() for s in chosen):
            raise SystemExit("error: empty suite selection")
        if not all(s.strip() for s in chosen):
            raise SystemExit(f"error: blank suite name in {','.join(chosen)!r}")
    bad = [s for s in chosen if s not in SUITES]
    if bad:
        raise SystemExit(f"error: unknown suite(s) {', '.join(bad)}; "
                         f"choose from {', '.join(SUITES)}")
    tgt, spec = _resolve_target(target, params or {})
    runner = _Runner(tgt, spec, grid, tol)
    for suite in SUITES:  # canonical order regardless of request order
        if suite not in chosen:
            continue
        if suite in PLANE_AND_J_SUITES and any(
                part is None for part in (tgt.d1, tgt.d2, tgt.J)):
            runner.records.append(CheckRecord(suite, "REJECTED",
                                              notes="needs a plane field and J"))
            continue
        try:
            getattr(runner, f"suite_{suite}")()
        except PreconditionError as exc:
            runner.records.append(CheckRecord(suite, "REJECTED", notes=str(exc)))
        except ValueError as exc:
            runner.records.append(CheckRecord(suite, "FAIL", notes=str(exc)))
    parameters = {k: str(v) for k, v in tgt.parameters.items()}
    return Report(tgt.name, parameters, chosen, grid, tol, runner.records)


def _parse_params(text: str | None) -> dict[str, str]:
    if not text:
        return {}
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise SystemExit(f"error: bad parameter {item!r}; expected key=value")
        k, v = (part.strip() for part in item.split("=", 1))
        if k in out:
            raise SystemExit(f"error: parameter {k!r} given twice")
        out[k] = v
    return out


def _checked(kind, ok, expected: str):
    """An argparse ``type`` that parses with ``kind`` and requires ``ok``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_tolerance = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                      "a finite number >= 0")


def main(argv: Sequence[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="engelcalc",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("catalog", help="list or print the example families")
    c.add_argument("action", choices=("list", "show"))
    c.add_argument("family", nargs="?")
    c.add_argument("--params", default=None)

    v = sub.add_parser("verify", help="run check suites on a target")
    v.add_argument("target")
    v.add_argument("--suite", default=None,
                   help="comma-separated subset of: " + ", ".join(SUITES))
    v.add_argument("--grid", type=_positive_int, default=DEFAULT_GRID)
    v.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    v.add_argument("--json", dest="json_path", default=None)
    v.add_argument("--params", default=None)

    g = sub.add_parser("geiges", help="mapping-torus construction and search")
    src = g.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", dest="input_path")
    src.add_argument("--builtin", choices=("flat", "twisted"))
    g.add_argument("--nmax", type=_positive_int, default=16)
    g.add_argument("--grid", type=_positive_int, default=DEFAULT_GRID,
                   help="samples per level-1 period, scaled by the level n")
    g.add_argument("--json", dest="json_path", default=None)

    args = ap.parse_args(argv)

    if args.verb == "catalog":
        if args.action == "list":
            if args.family or args.params is not None:
                raise SystemExit("error: catalog list takes no family or --params")
            for fam in catalog.FAMILIES:
                spec = catalog.build_family(fam)
                params = ", ".join(f"{k}={v}" for k, v in
                                   sorted(spec.parameters.items()))
                print(f"{fam:24s} {params}")
            return 0
        if not args.family:
            raise SystemExit("error: catalog show needs a family id")
        spec = _build_family(args.family, _parse_params(args.params))
        doc = manifest_from_parts(spec.family, spec.space, spec.J, spec.d1,
                                  spec.d2, spec.parameters)
        sys.stdout.write(dump_json(doc))
        return 0

    if args.verb == "verify":
        suites = None if args.suite is None else \
            tuple(s.strip() for s in args.suite.split(","))
        report = run_verify(args.target, suites, args.grid, args.tol,
                            _parse_params(args.params))
        sys.stdout.write(emit_report(report, "text"))
        if args.json_path:
            _write_report(args.json_path, emit_report(report, "json"))
        return 0 if report.overall == "PASS" else 1

    if args.verb == "geiges":
        if args.builtin:
            make = geiges.flat_torus_input if args.builtin == "flat" \
                else geiges.twisted_torus_input
            inp = replace(make(), grid=args.grid)
            name = f"builtin:{args.builtin}"
        else:
            mf = _read_manifest(Path(args.input_path))
            try:
                inp = _mapping_torus_input(mf, args.grid, DEFAULT_TOL)
            except PreconditionError as exc:
                raise SystemExit(f"error: {exc}")
            name = mf.name
        result = geiges.minimal_n_search(inp, args.nmax)
        doc = {
            "artifact": {"name": "engelcalc", "version": __version__},
            "input": name,
            "n_max": args.nmax,
            "n_star": result.n_star,
            "trace": list(result.trace),
        }
        if result.n_star is not None:
            ctx = geiges.level_derivation(inp, result.n_star, "totally_real")
            cert = totally_real_check(ctx)
            doc["totally_real"] = {
                "rank_certificate": cert.to_json(),
                "j_invariant": ctx.j_invariance.passed,
                "engel": ctx.flag.passed,
                "engel_certificates": {k: c.to_json()
                                       for k, c in ctx.flag.certificates.items()},
            }
        text = dump_json(doc)
        sys.stdout.write(text)
        if args.json_path:
            _write_report(args.json_path, text)
        return 0 if result.n_star is not None else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
