"""Command-line verification driver.

Loads chart-germ descriptions from JSON, dispatches the check suites, and
emits reports as aligned text tables or schema-stable JSON (the JSON payload
is byte-reproducible for identical inputs).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from decimal import Decimal

import numpy as np

from . import chern, geodesic, normal
from .forms import FrameCalculus, fundamental_identities_check
from .jets import Jet, JetError, JetMatrix, QC, nan_max, zero_coefficients
from .structure import (AlmostComplexStructure, ValidationReport,
                        structure_from_deformation, torsion_tensor,
                        nijenhuis_check)

REPORT_SCHEMA = "acgeom-report/1"
STRUCTURE_KINDS = ("J0", "B-normal", "deformation")


class SpecError(ValueError):
    """Manifold-spec parsing or validation failure, with a path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class ManifoldSpec:
    n: int
    order: int
    kind: str
    structure_entries: list = field(default_factory=list)
    metric_entries: list = field(default_factory=list)
    seed: int = 0
    name: str = "inline"

    @functools.cached_property
    def structure(self) -> AlmostComplexStructure:
        """The structure the spec describes, built once."""
        return build_structure(self)

    @functools.cached_property
    def validation(self) -> ValidationReport:
        """The J^2 report of ``structure``, which parsing checks once."""
        return self.structure.validate()

    def to_document(self):
        return {
            "n": self.n,
            "order": self.order,
            "seed": self.seed,
            "structure": {"kind": self.kind,
                          "entries": sorted(self.structure_entries,
                                            key=_entry_key)},
            "metric": {"entries": sorted(self.metric_entries, key=_entry_key)},
        }


def _entry_key(e):
    return (sum(e["alpha"]) + sum(e["beta"]), tuple(e["alpha"]),
            tuple(e["beta"]), e["k"], e["l"])


def _is_int(x):
    """A JSON integer.  JSON booleans load as ``bool``, a subclass of ``int``."""
    return isinstance(x, int) and not isinstance(x, bool)


def _finite_number(path, x):
    if _is_int(x) or isinstance(x, float):
        try:
            value = float(x)
        except OverflowError:
            value = float("inf")
        if np.isfinite(value):
            return value
    raise SpecError(path, "must be a finite number")


def _check_entry(path, e, n, order):
    if not isinstance(e, dict):
        raise SpecError(path, "must be an object")
    for key in ("alpha", "beta", "re", "im", "k", "l"):
        if key not in e:
            raise SpecError(path, f"missing field {key!r}")
    for key in ("alpha", "beta"):
        vec = e[key]
        if not isinstance(vec, list) or len(vec) != n \
                or any(not _is_int(x) or x < 0 for x in vec):
            raise SpecError(f"{path}.{key}",
                            f"must be {n} non-negative integers")
    if sum(e["alpha"]) + sum(e["beta"]) > order:
        raise SpecError(path, f"total degree exceeds order {order}")
    for key in ("k", "l"):
        if not _is_int(e[key]) or not 1 <= e[key] <= n:
            raise SpecError(f"{path}.{key}", f"must be an integer index in 1..{n}")
    return {"alpha": list(e["alpha"]), "beta": list(e["beta"]),
            "k": e["k"], "l": e["l"], "re": _finite_number(f"{path}.re", e["re"]),
            "im": _finite_number(f"{path}.im", e["im"])}


def _object(path, x):
    if not isinstance(x, dict):
        raise SpecError(path, "must be an object")
    return x


def _list(path, x):
    if not isinstance(x, list):
        raise SpecError(path, "must be a list")
    return x


def parse_manifold_spec(text, name) -> ManifoldSpec:
    """Parse and validate a chart-germ document (JSON text)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("$", f"not valid JSON: {exc}") from exc
    _object("$", doc)
    for key in ("n", "order", "structure"):
        if key not in doc:
            raise SpecError("$", f"missing top-level field {key!r}")
    n, order = doc["n"], doc["order"]
    if not _is_int(n) or not 1 <= n <= 4:
        raise SpecError("$.n", "dimension must be an integer in 1..4")
    if not _is_int(order) or not 2 <= order <= 6:
        raise SpecError("$.order", "truncation order must be an integer in 2..6")
    seed = doc.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise SpecError("$.seed", "must be a non-negative integer")
    sblock = _object("$.structure", doc["structure"])
    kind = sblock.get("kind")
    if kind not in STRUCTURE_KINDS:
        raise SpecError("$.structure.kind", f"must be one of {STRUCTURE_KINDS}")
    entries = []
    for i, e in enumerate(_list("$.structure.entries", sblock.get("entries", []))):
        cleaned = _check_entry(f"$.structure.entries[{i}]", e, n, order)
        if kind == "B-normal":
            if sum(cleaned["alpha"]) < 1:
                raise SpecError(f"$.structure.entries[{i}].alpha",
                                "B coefficients need |alpha| >= 1")
            if cleaned["l"] - 1 >= normal.lmax(cleaned["alpha"]):
                raise SpecError(
                    f"$.structure.entries[{i}]",
                    "entry violates the normal-form vanishing pattern")
        entries.append(cleaned)
    metric_entries = []
    mblock = _object("$.metric", doc.get("metric", {}))
    for i, e in enumerate(_list("$.metric.entries", mblock.get("entries", []))):
        metric_entries.append(_check_entry(f"$.metric.entries[{i}]", e, n, order))
    ms = ManifoldSpec(n=n, order=order, kind=kind, structure_entries=entries,
                      metric_entries=metric_entries,
                      seed=seed, name=name)
    residual = ms.validation.max_residual
    if not residual <= 1e-9:   # a NaN residual fails too
        raise SpecError("$.structure",
                        f"J^2 residual {residual:.2e} over threshold")
    return ms


def serialize_manifold_spec(ms: ManifoldSpec) -> str:
    return json.dumps(ms.to_document(), sort_keys=True, indent=2) + "\n"


def _family_from_entries(entries, n, exact=False):
    """{(alpha, beta): n x n array} of the entries' values, summed in entry
    order at their one-based (k, l).  Exact values are the rationals that the
    entries' shortest decimal reprs spell."""
    fam = {}
    for e in entries:
        key = (tuple(e["alpha"]), tuple(e["beta"]))
        if key not in fam:
            fam[key] = zero_coefficients((n, n), exact)
        if exact:
            c = QC(Decimal(repr(e["re"])), Decimal(repr(e["im"])))
        else:
            c = complex(e["re"], e["im"])
        fam[key][e["k"] - 1, e["l"] - 1] += c
    return fam


def build_structure(ms: ManifoldSpec) -> AlmostComplexStructure:
    if ms.kind == "J0":
        return AlmostComplexStructure.standard(ms.n, ms.order)
    if ms.kind == "B-normal":
        fam = _family_from_entries(ms.structure_entries, ms.n)
        return normal.structure_from_b_family(fam, ms.n, ms.order)
    return structure_from_deformation(ms.n, ms.order, seed=ms.seed)


def build_metric(ms: ManifoldSpec) -> chern.HermitianData:
    """Identity plus the listed h_{k,l} perturbations (one-based row/column);
    the result is hermitian-symmetrized."""
    zero = [0] * ms.n
    ident = [{"alpha": zero, "beta": zero, "k": k, "l": k, "re": 1.0, "im": 0.0}
             for k in range(1, ms.n + 1)]
    fam = _family_from_entries(ident + ms.metric_entries, ms.n)
    h = JetMatrix.from_coefficients(fam, ms.n, ms.n, ms.n, ms.order)
    return chern.HermitianData.from_matrix(h)


# -- reports ------------------------------------------------------------------

@dataclass
class ReportRow:
    check: str
    residual: float | None
    tolerance: float | None
    value: str | None = None

    @property
    def passed(self):
        if self.tolerance is None or self.residual is None:
            return True
        return self.residual <= self.tolerance


@dataclass
class Report:
    command: str
    fixture: str
    rows: list
    wall_time: float = 0.0

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def to_document(self):
        return {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "fixture": self.fixture,
            "pass": self.passed,
            "rows": [{
                "check": r.check,
                "residual": r.residual,
                "tolerance": r.tolerance,
                "value": r.value,
                "pass": r.passed,
            } for r in self.rows],
        }


def emit_report(report: Report, fmt, payload) -> str:
    """The report as ``fmt`` "text" or "json"; a JSON document carries a
    non-empty ``payload`` under "data"."""
    if fmt == "json":
        doc = report.to_document()
        if payload:
            doc["data"] = payload
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = [f"# {report.command} on {report.fixture}"]
    width = max([44] + [len(r.check) for r in report.rows])
    header = f"{'check':<{width}} {'residual':>12} {'tolerance':>12} {'value':>14} {'status':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.rows:
        res = "-" if r.residual is None else f"{r.residual:.3e}"
        tol = "-" if r.tolerance is None else f"{r.tolerance:.1e}"
        val = "-" if r.value is None else str(r.value)
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.check:<{width}} {res:>12} {tol:>12} {val:>14} {status:>7}")
    lines.append(f"[{'PASS' if report.passed else 'FAIL'}] "
                 f"{len(report.rows)} checks in {report.wall_time:.2f}s")
    return "\n".join(lines) + "\n"


# -- command implementations ---------------------------------------------------

def _row(check, residual, tol, value=None):
    return ReportRow(check, None if residual is None else float(residual),
                     tol, value)


def _cmd_validate(ms, opts, payload):
    s, rep = ms.structure, ms.validation
    rows = [
        _row("J^2 square-block residual", rep.residual_square, opts.tol),
        _row("J^2 mixed-block residual", rep.residual_mixed, opts.tol),
        _row("adapted at origin", 0.0 if s.is_adapted(1e-10) else 1.0, 0.0),
    ]
    if opts.exact and ms.kind == "B-normal":
        fam = _family_from_entries(ms.structure_entries, ms.n, exact=True)
        b = JetMatrix.from_coefficients(fam, ms.n, ms.n, ms.n, ms.order, exact=True)
        a = normal.solve_a_degree_by_degree(b)
        rows.append(_row("parsed A vs exact solver", _parsed_a_deviation(s.A, a),
                         opts.tol))
        rows.append(_row("closed-form A vs exact solver",
                         _exact_a_crosscheck(fam, a), 0.0))
    return rows


def _parsed_a_deviation(parsed, exact):
    """Largest |parsed - exact rounded to complex| over the terms of either
    A, entry by entry."""
    n = parsed.rows
    return nan_max(abs(p.get(key, 0) - complex(q.get(key, 0)))
                   for k in range(n) for l in range(n)
                   for p, q in [(parsed[k, l].terms, exact[k, l].terms)]
                   for key in p.keys() | q.keys())


def _exact_a_crosscheck(fam, a):
    n = a.rows
    # every term of the solver's A, the constant iI included, must equal the
    # closed form's; a term the closed form does not have is a mismatch
    want = normal.a_from_b_family(fam, n, a.order)
    same = all(a[k, l] == want[k, l] for k in range(n) for l in range(n))
    return 0.0 if same else 1.0


def _cmd_torsion(ms, opts, payload):
    s = ms.structure
    tors = torsion_tensor(s)
    rows = [
        _row("frame torsion vs bracket identity", nijenhuis_check(s, tors),
             opts.tol),
    ]
    anti = nan_max((tors.nbar[r] + tors.nbar[r].T).max_abs() for r in range(s.n))
    rows.append(_row("antisymmetry of coefficients", anti, opts.tol))
    for r in range(s.n):
        for k in range(s.n):
            for l in range(k + 1, s.n):
                c = tors.coefficient(r, k, l).constant_term
                if abs(c) > opts.tol:
                    rows.append(_row(f"nbar[{r + 1};{k + 1},{l + 1}](0)", None,
                                     None, f"{c.real:+.6f}{c.imag:+.6f}i"))
    return rows


def _cmd_normalize(ms, opts, payload):
    target = ms.order if opts.order is None else opts.order
    if not _is_int(target) or not 1 <= target <= ms.order:
        raise SpecError("--order", f"must be an integer in 1..{ms.order}")
    res = normal.normalize_to_order(ms.structure, target)
    rows = [
        _row("vanishing-pattern violation", res.violation, opts.tol),
        _row("output J^2 residual", res.structure.validate().max_residual,
             opts.tol),
    ]
    rerun = normal.normalize_to_order(res.structure, target)
    ident = [Jet.variable(ms.n, target + 1, k) for k in range(ms.n)]
    drift = nan_max((p - i).max_abs() for p, i in zip(rerun.phi, ident))
    rows.append(_row("idempotence (second pass is identity)", drift, opts.tol))
    payload["phi"] = [p.to_records() for p in res.phi]
    payload["phi_stages"] = [[p.to_records() for p in stage]
                             for stage in res.phi_stages]
    payload["b_family"] = _family_records(res.b_family())
    payload["a_family"] = _family_records(res.a_family())
    return rows


def _family_records(fam):
    out = []
    for (alpha, beta) in sorted(fam, key=lambda k: (sum(k[0]) + sum(k[1]), k)):
        mat = fam[(alpha, beta)]
        for k in range(mat.shape[0]):
            for l in range(mat.shape[1]):
                c = mat[k, l]
                if abs(c) > 1e-13:
                    out.append({"alpha": list(alpha), "beta": list(beta),
                                "k": k + 1, "l": l + 1,
                                "re": c.real, "im": c.imag})
    return out


def _identity_forms(calc, seed):
    rng = np.random.default_rng(seed)
    forms = []
    for base in calc.monomial_forms(2):
        terms = {}
        for _ in range(3):
            d = int(rng.integers(0, calc.order + 1))
            exps = [0] * (2 * calc.n)
            for _ in range(d):
                exps[int(rng.integers(0, 2 * calc.n))] += 1
            c = complex(int(rng.integers(-256, 257)),
                        int(rng.integers(-256, 257))) / 256
            terms[(tuple(exps[:calc.n]), tuple(exps[calc.n:]))] = c
        forms.append(base * Jet(calc.n, calc.order, terms))
    return forms


def _cmd_identities(ms, opts, payload):
    calc = FrameCalculus(ms.structure)
    forms = _identity_forms(calc, opts.seed)
    table = fundamental_identities_check(calc, forms)
    return [_row(rowd["identity"], rowd["max_residual"], opts.tol,
                 value=f"deg<={rowd['order_checked']}") for rowd in table]


def _cmd_curvature(ms, opts, payload):
    s = ms.structure
    calc = FrameCalculus(s)
    hd = build_metric(ms)
    conn = chern.chern_connection(calc, hd)
    blocks = chern.curvature(calc, conn)
    rows = [_row("hermitian symmetry of C(0)",
                 chern.hermitian_curvature_symmetry(blocks), opts.tol)]
    try:
        c_direct = chern.curvature_origin_formula(hd, s)
        c = blocks.c_tensor_at_origin()
        diff = np.abs(c - c_direct).max()
        rows.append(_row("operator curvature vs origin formula", diff, opts.tol))
        idx = np.unravel_index(np.argmax(np.abs(c)), c.shape)
        cv = c[idx]
        rows.append(_row(
            f"C[{idx[0] + 1},{idx[1] + 1};{idx[2] + 1},{idx[3] + 1}](0)",
            None, None, f"{cv.real:+.6f}{cv.imag:+.6f}i"))
    except JetError as exc:
        rows.append(_row(f"origin formula inapplicable: {exc}", 1.0, 0.0))
    try:
        rows.append(_row("pointwise curvature expression",
                         chern.pointwise_curvature_residual(calc, hd, conn,
                                                            blocks), opts.tol))
    except JetError:
        rows.append(_row("pointwise expression skipped (frame not "
                         "delbar-flat at 0)", None, None))
    rows.append(_row("hermitian compatibility of the connection",
                     chern.hermitian_compat_residual(calc, hd, conn), opts.tol))
    return rows


def _iff(a, b, tol):
    """0.0 when a and b are both within tol or both above it, else 1.0; NaN
    when either is NaN, so that an undefined side never passes."""
    if math.isnan(a) or math.isnan(b):
        return math.nan
    return 0.0 if (a <= tol) == (b <= tol) else 1.0


def _cmd_decompose(ms, opts, payload):
    calc = FrameCalculus(ms.structure)
    hd = build_metric(ms)
    dec = chern.ChernLeviCivita(calc, hd)
    rows = [
        _row("connection decomposition residual",
             dec.decomposition_residual(), opts.tol),
        _row("torsion formula residual", dec.torsion_formula_residual(),
             opts.tol),
    ]
    domega = dec.domega_max()
    delta = dec.delta_max()
    nmax = dec.n_omega_max()
    tmax = torsion_tensor(ms.structure, calc.frame, calc.bc).max_abs()
    rows.append(_row("delta = 0 iff d omega = 0", _iff(delta, domega, opts.tol),
                     0.0, value=f"delta={delta:.2e}"))
    rows.append(_row("N = 0 iff torsion = 0", _iff(nmax, tmax, opts.tol),
                     0.0, value=f"N={nmax:.2e}"))
    if tmax <= opts.tol:
        rows.append(_row("gamma^{0,2} vanishes (integrable case)",
                         dec.gamma02_max(), opts.tol))
    return rows


def _cmd_asymptotics(ms, opts, payload):
    calc = FrameCalculus(ms.structure)
    hd = build_metric(ms)
    rows = [
        _row("coefficient families vs full connection",
             chern.asymptotics_vs_full_connection(calc, hd), opts.tol),
        _row("normal-form metric expansion",
             chern.metric_coordinate_residual(calc, hd), opts.tol),
    ]
    return rows


def _parse_floats(text, flag):
    try:
        vals = [float(p) for p in text.split(",")]
    except ValueError:
        raise SpecError(flag, "must be comma-separated numbers") from None
    if not all(np.isfinite(vals)):
        raise SpecError(flag, "components must be finite")
    return vals


def _parse_vector(text, n, flag):
    vals = _parse_floats(text, flag)
    if len(vals) != 2 * n:
        raise SpecError(flag, f"need {2 * n} comma-separated floats "
                        f"(re,im per component)")
    return np.array([complex(vals[2 * i], vals[2 * i + 1]) for i in range(n)])


def _cmd_geodesic(ms, opts, payload):
    if not _is_int(opts.steps) or opts.steps < 1:
        raise SpecError("--steps", "must be a positive integer")
    scales = geodesic.SCALE_LADDER
    if opts.scales:
        scales = tuple(_parse_floats(opts.scales, "--scales"))
        if not all(s > 0 for s in scales):
            raise SpecError("--scales", "scales must be positive")
        if len(set(scales)) < len(scales):
            raise SpecError("--scales", "scales must be distinct")
        if len(scales) < 2:
            raise SpecError("--scales", "need at least two distinct scales")
    z = _parse_vector(opts.z, ms.n, "--z") if opts.z else np.zeros(ms.n, complex)
    v = _parse_vector(opts.v, ms.n, "--v") if opts.v else \
        np.full(ms.n, 0.04 / max(ms.n, 1), dtype=complex)
    calc = FrameCalculus(ms.structure)
    hd = build_metric(ms)
    lab = geodesic.GeodesicLab(calc, hd)
    probe = geodesic.error_scaling_probe(lab, z, v, scales, opts.steps)
    rows = []
    payload["scales"] = [{"s": r["scale"], "e": r["error"],
                          "slope_partial": r.get("slope_partial")}
                         for r in probe["rows"]]
    for r in probe["rows"]:
        extra = f"slope={r['slope_partial']:.3f}" if "slope_partial" in r else ""
        rows.append(_row(f"scale {r['scale']:g}", None, None,
                         value=f"e={r['error']:.3e} {extra}".strip()))
    if not probe["finite"]:
        rows.append(_row("non-finite endpoint error", 1.0, 0.0))
    elif probe["exact"]:
        rows.append(_row("error at integrator noise floor (exact)", 0.0, 0.0))
    elif probe["slope"] is None:
        rows.append(_row("too few scales above the noise floor to fit a "
                         "slope", 1.0, 0.0))
    else:
        slope = probe["slope"]
        rows.append(_row(f"fitted slope >= {opts.slope_bound}",
                         max(0.0, opts.slope_bound - slope), 0.0,
                         value=f"slope={slope:.3f}"))
    return rows


@dataclass
class Options:
    tol: float = 1e-10
    order: int | None = None
    seed: int = 0
    exact: bool = False
    z: str | None = None
    v: str | None = None
    scales: str | None = None
    steps: int = 256
    slope_bound: float = 2.8


_HANDLERS = {"validate": _cmd_validate, "torsion": _cmd_torsion,
             "normalize": _cmd_normalize, "identities": _cmd_identities,
             "curvature": _cmd_curvature, "decompose": _cmd_decompose,
             "asymptotics": _cmd_asymptotics, "geodesic": _cmd_geodesic}
COMMANDS = tuple(_HANDLERS)


def _check_options(opts: Options):
    """Reject the flags that would make every verdict meaningless or crash a
    command: a non-finite or negative ``--tol``, a negative ``--seed`` and a
    non-finite ``--slope-bound``."""
    if not math.isfinite(opts.tol) or opts.tol < 0:
        raise SpecError("--tol", "must be a finite non-negative number")
    if not _is_int(opts.seed) or opts.seed < 0:
        raise SpecError("--seed", "must be a non-negative integer")
    if not math.isfinite(opts.slope_bound):
        raise SpecError("--slope-bound", "must be a finite number")


def run_command(command, ms: ManifoldSpec, opts: Options) -> tuple[Report, dict]:
    """Dispatch a verification command; deterministic given (spec, flags)."""
    if command not in _HANDLERS:
        raise SpecError("$", f"unknown command {command!r}")
    payload = {}
    start = time.perf_counter()
    try:
        _check_options(opts)
        rows = _HANDLERS[command](ms, opts, payload)
    except (JetError, SpecError) as exc:
        rows = [_row(f"error: {exc}", 1.0, 0.0)]
    report = Report(command, ms.name, rows, time.perf_counter() - start)
    return report, payload


def _run_file(args_tuple):
    command, path, opts_dict = args_tuple
    opts = Options(**opts_dict)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            ms = parse_manifold_spec(fh.read(), name=os.path.basename(path))
    except (OSError, SpecError) as exc:
        report = Report(command, os.path.basename(path),
                        [_row(f"spec error: {exc}", 1.0, 0.0)])
        return report, {}
    return run_command(command, ms, opts)


def main(argv=None):
    defaults = Options()
    parser = argparse.ArgumentParser(
        prog="acgeom",
        description="verification suites for almost complex chart germs")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("paths", nargs="+",
                        help="manifold spec files or a directory of them")
    parser.add_argument("--tol", type=float, default=defaults.tol)
    parser.add_argument("--order", type=int, default=defaults.order,
                        help="normalization order, 1..N (default N)")
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument("--exact", action="store_true",
                        help="rational-arithmetic cross-checks where supported")
    parser.add_argument("--z", type=str, default=defaults.z,
                        help="base point: re,im pairs, comma separated")
    parser.add_argument("--v", type=str, default=defaults.v,
                        help="tangent vector: re,im pairs, comma separated")
    parser.add_argument("--scales", type=str, default=defaults.scales)
    parser.add_argument("--steps", type=int, default=defaults.steps)
    parser.add_argument("--slope-bound", type=float, default=defaults.slope_bound,
                        dest="slope_bound")
    parser.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    args = parser.parse_args(argv)

    paths = []
    for p in args.paths:
        if os.path.isdir(p):
            paths.extend(sorted(
                os.path.join(p, f) for f in os.listdir(p) if f.endswith(".json")))
        else:
            paths.append(p)
    if not paths:
        print("no spec files found", file=sys.stderr)
        return 2

    opts_dict = {f.name: getattr(args, f.name) for f in fields(Options)}
    tasks = [(args.command, p, opts_dict) for p in paths]
    if len(tasks) > 1 and args.jobs > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            results = list(pool.map(_run_file, tasks))
    else:
        results = [_run_file(t) for t in tasks]

    fmt = "json" if args.as_json else "text"
    out = [emit_report(report, fmt, payload) for report, payload in results]
    # text reports are separated by a blank line; JSON documents are not
    sys.stdout.write(("" if args.as_json else "\n").join(out))
    return 0 if all(report.passed for report, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
