"""Workloads of the verification benchmark: seeded germs and task lists.

A task is one verification command on one germ.  It returns the command's
report and JSON payload, built from acgeom's public API only.  Tasks on the
shipped manifests and on generated B-normal specs go through
``cli.parse_manifold_spec`` and ``cli.run_command`` exactly as the CLI does.
Generated full-support germs cannot be written as a spec, so their tasks call
the library functions behind the ``normalize``, ``decompose``, ``identities``
and ``torsion`` commands and assemble the same report rows.

The seed changes coefficient values, never the amount of work: the monomials
present in every generated germ are fixed by the workload, and every value
drawn from the seed is nonzero.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from acgeom import chern, cli, forms, normal, structure
from acgeom.jets import Jet, JetMatrix

TOL = cli.Options().tol

# The shipped deformation manifest is not in normal coordinates and the CLI
# never normalizes, so these three commands FAIL on it (ROADMAP item 4).  They
# stay in the sweep and count against pass_ratio; a PASS there is a fix.
KNOWN_FAILS = frozenset({
    ("curvature", "deformation_n2.json"),
    ("asymptotics", "deformation_n2.json"),
    ("geodesic", "deformation_n2.json"),
})


@dataclass
class Task:
    id: str
    n: int
    order: int
    b_terms: int
    metric_terms: int
    run: Callable[[], tuple]          # () -> (cli.Report, payload dict)
    may_fail: bool = False
    check: Callable[[object], str | None] | None = None


def term_count(m: JetMatrix) -> int:
    return sum(len(m[i, j].terms) for i in range(m.rows) for j in range(m.cols))


def full_support_b_terms(n, order):
    """B terms of a germ whose B entries carry every monomial of degree 1..N."""
    return n * n * (math.comb(2 * n + order, 2 * n) - 1)


# -- germ generators -----------------------------------------------------------

def _value(rng, magnitude):
    return magnitude * complex(rng.normal(), rng.normal())


def _unit(n, var):
    e = [0] * (2 * n)
    e[var] = 1
    return tuple(e[:n]), tuple(e[n:])


def deformation_germ(n, order, slots, rng, magnitude=0.08):
    """J = (I+P) J0 (I+P)^{-1} with P linear in z, zbar.

    ``slots`` lists (row, col, variable) positions of P's linear terms; P is
    then made conjugate-symmetric so that J is real.  With every slot filled,
    B carries every monomial of degree 1..N.
    """
    size = 2 * n
    terms = [[{} for _ in range(size)] for _ in range(size)]
    for i, j, var in slots:
        key = _unit(n, var)
        terms[i][j][key] = terms[i][j].get(key, 0) + _value(rng, magnitude)
    p = JetMatrix([[Jet(n, order, t) for t in row] for row in terms])
    swapped = JetMatrix([[p[(i + n) % size, (j + n) % size].conj()
                          for j in range(size)] for i in range(size)])
    p = (p + swapped) * 0.5
    ident = JetMatrix.identity(size, n, order)
    j0 = JetMatrix.from_constant(np.diag([1j] * n + [-1j] * n), n, order)
    m = (ident + p) @ j0 @ (ident + p).inverse()
    a = JetMatrix([[m[i, j] for j in range(n)] for i in range(n)])
    b = JetMatrix([[m[n + i, j] for j in range(n)] for i in range(n)])
    return structure.AlmostComplexStructure(a, b)


def full_slots(rows, cols, n):
    """Every (row, col, variable) slot: all linear terms in every entry."""
    return [(i, j, v) for i in range(rows) for j in range(cols)
            for v in range(2 * n)]


def metric_germ(n, order, slots, rng, magnitude=0.05):
    """Identity plus linear terms at the (row, col, variable) ``slots``,
    hermitian-symmetrized.  Off-diagonal z-dependent slots make d omega, and
    with it delta, nonzero."""
    terms = [[{} for _ in range(n)] for _ in range(n)]
    for k in range(n):
        terms[k][k][((0,) * n, (0,) * n)] = 1.0
    for k, l, var in slots:
        terms[k][l][_unit(n, var)] = _value(rng, magnitude)
    h = JetMatrix([[Jet(n, order, t) for t in row] for row in terms])
    return chern.HermitianData.from_matrix(h, symmetrize=True)


def _exponents(n, degree):
    """Exponent vectors over the 2n variables with total degree ``degree``."""
    out = []
    for combo in combinations_with_replacement(range(2 * n), degree):
        e = [0] * (2 * n)
        for var in combo:
            e[var] += 1
        out.append((tuple(e[:n]), tuple(e[n:])))
    return sorted(out)


def _dyadic(rng):
    """A nonzero k / 1024 with k odd and 9 <= |k| <= 15.  Every value has the
    same denominator and a numerator of the same bit length, so exact-mode
    arithmetic on it costs the same for every seed."""
    sign = 1 if rng.random() < 0.5 else -1
    return sign * (9 + 2 * int(rng.integers(0, 4))) / 1024


def b_normal_document(n, order, max_degree, rng):
    """Spec with a B entry in every slot the normal-form pattern allows up
    to ``max_degree``, each with nonzero dyadic real and imaginary parts."""
    entries = []
    for d in range(1, max_degree + 1):
        for alpha, beta in _exponents(n, d):
            if sum(alpha) < 1:
                continue
            for k in range(n):
                for l in range(normal.lmax(alpha)):
                    entries.append({"alpha": list(alpha), "beta": list(beta),
                                    "k": k + 1, "l": l + 1,
                                    "re": _dyadic(rng), "im": _dyadic(rng)})
    return {"n": n, "order": order, "seed": 0,
            "structure": {"kind": "B-normal", "entries": entries},
            "metric": {"entries": []}}


# -- report rows mirroring the CLI commands ---------------------------------------

def _row(check, residual, tol, value=None):
    return cli.ReportRow(check, None if residual is None else float(residual),
                         tol, value)


def _family_records(fam):
    """The family records of the CLI's ``normalize`` payload (the CLI's own
    helper is private)."""
    out = []
    for alpha, beta in sorted(fam, key=lambda k: (sum(k[0]) + sum(k[1]), k)):
        mat = fam[(alpha, beta)]
        for k in range(mat.shape[0]):
            for l in range(mat.shape[1]):
                c = mat[k, l]
                if abs(c) > 1e-13:
                    out.append({"alpha": list(alpha), "beta": list(beta),
                                "k": k + 1, "l": l + 1,
                                "re": c.real, "im": c.imag})
    return out


def normalize_task(s, name):
    """``normalize``: normal coordinates plus the command's three checks."""
    res = normal.normalize_to_order(s, s.order)
    rows = [_row("vanishing-pattern violation", res.violation, TOL),
            _row("output J^2 residual", res.structure.validate().max_residual,
                 TOL)]
    rerun = normal.normalize_to_order(res.structure, s.order)
    ident = [Jet.variable(s.n, s.order + 1, k) for k in range(s.n)]
    drift = max((p - i).max_abs() for p, i in zip(rerun.phi, ident))
    rows.append(_row("idempotence (second pass is identity)", drift, TOL))
    payload = {"phi": [p.to_records() for p in res.phi],
               "phi_stages": [[p.to_records() for p in stage]
                              for stage in res.phi_stages],
               "b_family": _family_records(res.b_family()),
               "a_family": _family_records(res.a_family())}
    return cli.Report("normalize", name, rows), payload


def decompose_task(s, hd, name):
    """``decompose``: Chern / Levi-Civita decomposition and torsion formula."""
    calc = forms.FrameCalculus(s)
    dec = chern.ChernLeviCivita(calc, hd)
    rows = [_row("connection decomposition residual",
                 dec.decomposition_residual(), TOL),
            _row("torsion formula residual", dec.torsion_formula_residual(),
                 TOL)]
    domega = chern.domega_max(calc, hd)
    delta = dec.delta_max()
    nmax = dec.n_omega_max()
    tmax = structure.torsion_tensor(s).max_abs()
    rows.append(_row("delta = 0 iff d omega = 0",
                     0.0 if (delta <= TOL) == (domega <= TOL) else 1.0, 0.0,
                     value=f"delta={delta:.2e}"))
    rows.append(_row("N = 0 iff torsion = 0",
                     0.0 if (nmax <= TOL) == (tmax <= TOL) else 1.0, 0.0,
                     value=f"N={nmax:.2e}"))
    if tmax <= TOL:
        rows.append(_row("gamma^{0,2} vanishes (integrable case)",
                         dec.gamma02_max(), TOL))
    return cli.Report("decompose", name, rows), {}


def identity_test_forms(calc, rng):
    """One test form per basis monomial of degree <= 2, with fixed exponents
    of degree 0, 1 and 2 and dyadic coefficients from ``rng``."""
    n, width = calc.n, 2 * calc.n
    out = []
    for i, base in enumerate(calc.monomial_forms(2)):
        terms = {}
        for d in range(min(3, calc.order + 1)):
            e = [0] * width
            for t in range(d):
                e[(i + 3 * t + d) % width] += 1
            terms[(tuple(e[:n]), tuple(e[n:]))] = complex(_dyadic(rng),
                                                          _dyadic(rng))
        out.append(base * Jet(n, calc.order, terms))
    return out


def identities_task(s, form_seed, name):
    """``identities``: the seven operator identities on seeded test forms."""
    calc = forms.FrameCalculus(s)
    test_forms = identity_test_forms(calc, np.random.default_rng(form_seed))
    table = forms.fundamental_identities_check(calc, test_forms)
    rows = [_row(r["identity"], r["max_residual"], TOL,
                 value=f"deg<={r['order_checked']}") for r in table]
    return cli.Report("identities", name, rows), {}


def torsion_task(s, name):
    """``torsion``: frame torsion against the bracket identity."""
    tors = structure.torsion_tensor(s)
    rows = [_row("frame torsion vs bracket identity",
                 structure.nijenhuis_check(s, tors), TOL)]
    anti = max((tors.nbar[r] + tors.nbar[r].T).max_abs() for r in range(s.n))
    rows.append(_row("antisymmetry of coefficients", anti, TOL))
    for r in range(s.n):
        for k in range(s.n):
            for l in range(k + 1, s.n):
                c = tors.coefficient(r, k, l).constant_term
                if abs(c) > TOL:
                    rows.append(_row(f"nbar[{r + 1};{k + 1},{l + 1}](0)", None,
                                     None, f"{c.real:+.6f}{c.imag:+.6f}i"))
    return cli.Report("torsion", name, rows), {}


def delta_nonzero(report):
    """The frame-calculus germs are chosen so that delta != 0."""
    for r in report.rows:
        if r.value and r.value.startswith("delta="):
            if float(r.value[len("delta="):]) > TOL:
                return None
            return f"delta vanishes ({r.value}); the germ lost its d omega"
    return "decompose report has no delta row"


def cli_task(command, text, name, opts):
    """One CLI command as ``acgeom <command> <spec> --json`` runs it."""
    ms = cli.parse_manifold_spec(text, name=name)
    return cli.run_command(command, ms, opts)


# -- workloads ---------------------------------------------------------------------

def _spec_tasks(commands, text, name, may_fail=()):
    """Tasks running each command on one spec, as the CLI does."""
    ms = cli.parse_manifold_spec(text, name=name)
    meta = (ms.n, ms.order, term_count(cli.build_structure(ms).B),
            term_count(cli.build_metric(ms).H))
    return [Task(f"{command}:{name}", *meta,
                 functools.partial(cli_task, command, text, name,
                                   cli.Options(exact=command == "validate")),
                 may_fail=command in may_fail)
            for command in commands]


def fixtures_sweep(seed, tiny, root):
    """Every CLI command on every shipped manifest; the seed fixes the order."""
    texts = {p.name: p.read_text(encoding="utf-8")
             for p in sorted((root / "manifests").glob("*.json"))}
    if tiny:
        return _spec_tasks(["validate"], texts["fix_j0.json"], "fix_j0.json")
    tasks = []
    for name, text in texts.items():
        tasks += _spec_tasks(cli.COMMANDS, text, name,
                             may_fail={c for c, f in KNOWN_FAILS if f == name})
    order = np.random.default_rng(seed).permutation(len(tasks))
    return [tasks[i] for i in order]


def normalize_dense(seed, tiny, root):
    """``normalize`` on full-support germs of three sizes."""
    cells = [(1, 4)] if tiny else [(1, 6), (2, 2), (2, 3)]
    tasks = []
    for n, order in cells:
        rng = np.random.default_rng([seed, n, order])
        s = deformation_germ(n, order, full_slots(2 * n, 2 * n, n), rng)
        name = f"deform-n{n}N{order}"
        tasks.append(Task(f"normalize:{name}", n, order, term_count(s.B), 0,
                          functools.partial(normalize_task, s, name)))
    return tasks


# (label, n, N, slots of P, slots of the metric).  The first germ is
# full-support with a full linear metric; the second is a sparse n = 3 germ
# with two off-diagonal metric slots.
FRAME_GERMS = (
    ("full-n2N2", 2, 2, full_slots(4, 4, 2), full_slots(2, 2, 2)),
    ("sparse-n3N2", 3, 2, ((3, 0, 0), (4, 1, 2), (5, 2, 4), (0, 4, 3)),
     ((0, 1, 0), (1, 2, 4))),
)


def frame_calculus(seed, tiny, root):
    """decompose, identities and torsion on two germs with a z-dependent,
    non-diagonal metric."""
    tasks = []
    germs = FRAME_GERMS[:1] if tiny else FRAME_GERMS
    for idx, (label, n, order, p_slots, h_slots) in enumerate(germs):
        rng = np.random.default_rng([seed, idx])
        s = deformation_germ(n, order, p_slots, rng)
        hd = metric_germ(n, order, h_slots, rng)
        meta = (n, order, term_count(s.B), term_count(hd.H))
        tasks.append(Task(f"torsion:{label}", *meta,
                          functools.partial(torsion_task, s, label)))
        if tiny:
            continue
        tasks.append(Task(f"decompose:{label}", *meta,
                          functools.partial(decompose_task, s, hd, label),
                          check=delta_nonzero))
        tasks.append(Task(f"identities:{label}", *meta,
                          functools.partial(identities_task, s,
                                            [seed, idx, 1], label)))
    return tasks


def exact_oracle(seed, tiny, root):
    """``validate --exact`` on dense normal-form B families (n, N, degree)."""
    cells = [(2, 3, 1)] if tiny else [(3, 2, 2), (2, 4, 3), (2, 5, 2)]
    tasks = []
    for n, order, max_degree in cells:
        rng = np.random.default_rng([seed, n, order, max_degree])
        doc = b_normal_document(n, order, max_degree, rng)
        name = f"bnormal-n{n}N{order}d{max_degree}.json"
        tasks += _spec_tasks(["validate"], json.dumps(doc), name)
    return tasks


WORKLOADS = {
    "fixtures-sweep": fixtures_sweep,
    "normalize-dense": normalize_dense,
    "frame-calculus": frame_calculus,
    "exact-oracle": exact_oracle,
}


def build(workload, seed, tiny, root):
    return WORKLOADS[workload](seed, tiny, root)


def self_check(workload, seed, tiny, root, tasks):
    """Problems with the generated inputs: term counts must not depend on the
    seed, and the normalize-dense germs must be full-support."""
    problems = []
    if workload != "fixtures-sweep":
        ref = build(workload, seed + 1, tiny, root)
        if [(t.id, t.b_terms, t.metric_terms) for t in tasks] != \
                [(t.id, t.b_terms, t.metric_terms) for t in ref]:
            problems.append("term counts depend on the seed")
    if workload == "normalize-dense":
        problems += [f"{t.id}: germ is not full-support" for t in tasks
                     if t.b_terms != full_support_b_terms(t.n, t.order)]
    return problems
