"""Shared test germs: the flat structure, the minimal torsion fixture,
deterministic random deformations, the flat metric, metrics built from
coefficient families and the frame covectors as forms; plus point values of
jet matrices and vector fields, rescaled frames, the largest coefficients
and trusted degree of bracket tables and form matrices, the bits of a form
matrix, the per-field oracle of ``chern.derive_matrix``, the
field-evaluation oracle of ``ChernLeviCivita.gamma``, and the plain-loop
oracles of a coordinate change (``series_inverse``, the Jacobian,
``transform_structure``) and of ``JetMatrix.coefficients``, and the
repeat-work oracles of the frame layer (``Jet`` sums and differences,
``Jet.dot``, ``JetMatrix.inverse``, ``VectorField.bracket``,
``LeviCivita.derivative``, ``chern.chern_derivative`` and
``ConnectionForms.pair_with``), the oracles of the frame layer's shortcuts
(``Jet.dot`` as its fold, ``VectorField.derive`` over all its pairs,
``forms.apply_operator`` with a scaling per sign), exact copies of a frame
calculus, and a power-table evaluator of the geodesic connection, the
oracle of ``geodesic.PackedConnection``."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from acgeom.chern import (ChernLeviCivita, ConnectionForms, HermitianData, LeviCivita,
                          MatrixForm)
from acgeom.forms import _OPERATORS, FrameCalculus, PQForm, _plan, _sum_terms
from acgeom.jets import (PRUNE_EPS, QC, Jet, JetError, JetMatrix, SingularMatrixError,
                         Substitution, _as_qc, _check_operand, _exact_inverse, _exact_sum, _index,
                         multi_index, nan_max, zero_coefficients)
from acgeom.normal import lmax, structure_from_b_family
from acgeom.structure import (AlmostComplexStructure, BracketCoefficients,
                              ChartChange, Frame, VectorField,
                              structure_from_deformation)

FIX_B_VALUE = 0.3 + 0.1j
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _bench_workloads():
    """``perfbench/workloads.py``, loaded read-only once per process."""
    name = "perfbench_workloads"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module     # dataclasses look their module up here
        spec.loader.exec_module(module)
    return module


def bench_b_normal_spec(n, order, max_degree, seed):
    """JSON text of the benchmark's dense dyadic B-normal spec for the cell
    (n, N, degree) and ``seed``, as ``perfbench/workloads.py`` (loaded
    read-only) draws it for its ``exact-oracle`` tasks."""
    rng = np.random.default_rng([seed, n, order, max_degree])
    return json.dumps(_bench_workloads().b_normal_document(n, order, max_degree, rng))


def bench_frame_germ(index, seed):
    """The structure and metric of germ ``index`` of the benchmark's
    ``frame-calculus`` tasks for ``seed`` (0: the full-support (2, 2) germ,
    1: the sparse (3, 2) one), as ``perfbench/workloads.py`` draws them."""
    module = _bench_workloads()
    _, n, order, p_slots, h_slots = module.FRAME_GERMS[index]
    rng = np.random.default_rng([seed, index])
    s = module.deformation_germ(n, order, p_slots, rng)
    return s, module.metric_germ(n, order, h_slots, rng)


def bench_frame_structure(index, seed) -> AlmostComplexStructure:
    """The structure of ``bench_frame_germ(index, seed)``."""
    return bench_frame_germ(index, seed)[0]


def b_normal(fam, n, order) -> AlmostComplexStructure:
    """``structure_from_b_family``, raising ``JetError`` unless the
    reconstructed structure meets J^2 = -I to within 1e-10."""
    s = structure_from_b_family(fam, n, order)
    residual = s.validate().max_residual
    if not residual <= 1e-10:   # a NaN residual fails too
        raise JetError(f"reconstructed structure violates J^2 = -I ({residual:.2e})")
    return s


def jets_sha256(*groups):
    """sha256 over each group of jets of (order, effective order, terms) per
    jet; ``repr`` of a float round-trips, so equal digests mean equal bits."""
    h = hashlib.sha256()
    for jets in groups:
        h.update(repr([(e.order, e.effective_order, e.terms) for e in jets]).encode())
    return h.hexdigest()


def flat_entries(m: JetMatrix):
    """The entries of a jet matrix, row by row."""
    return [e for row in m.entries for e in row]


def fix_j0(n=2, order=4) -> AlmostComplexStructure:
    """Flat integrable structure: A = iI, B = 0."""
    return AlmostComplexStructure.standard(n, order)


def fix_b(order=4, b=FIX_B_VALUE) -> AlmostComplexStructure:
    """Smallest torsion-carrying normal-form germ: n = 2, B(z) = b z_2 E11.

    The single family entry sits at (alpha, beta) = ((0,1), (0,0)), row 1,
    column 1 (one-based), which respects the vanishing pattern; A follows
    from the closed-form reconstruction.
    """
    fam = {((0, 1), (0, 0)): np.array([[b, 0], [0, 0]], dtype=complex)}
    return b_normal(fam, 2, order)


def fix_b2(order=4, b=FIX_B_VALUE) -> AlmostComplexStructure:
    """Variant with vanishing torsion at the origin: B(z) = b z_2^2 E11."""
    fam = {((0, 2), (0, 0)): np.array([[b, 0], [0, 0]], dtype=complex)}
    return b_normal(fam, 2, order)


def fix_b3(order=4, b=0.2 - 0.15j) -> AlmostComplexStructure:
    """Variant with vanishing torsion 1-jet: B(z) = b z_2^2 zbar_1 E11."""
    fam = {((0, 2), (1, 0)): np.array([[b, 0], [0, 0]], dtype=complex)}
    return b_normal(fam, 2, order)


def random_deformation(seed, n=2, order=4) -> AlmostComplexStructure:
    return structure_from_deformation(n, order, seed=seed)


def random_b_normal(seed, n=2, order=4, magnitude=0.15) -> AlmostComplexStructure:
    """Random normal-form structure: a few B family entries respecting the
    vanishing pattern, A reconstructed from them."""
    rng = np.random.default_rng(seed)
    fam = {}
    placed = 0
    while placed < 3:
        d = int(rng.integers(1, 3))
        exps = [0] * (2 * n)
        exps[int(rng.integers(1, n))] += 1      # ensures lmax(alpha) >= 1
        for _ in range(d - 1):
            exps[int(rng.integers(0, 2 * n))] += 1
        alpha, beta = tuple(exps[:n]), tuple(exps[n:])
        big = lmax(alpha)
        if big < 1:
            continue
        k = int(rng.integers(0, n))
        l = int(rng.integers(0, big))
        mat = np.zeros((n, n), dtype=complex)
        mat[k, l] = magnitude * complex(rng.normal(), rng.normal())
        key = (alpha, beta)
        fam[key] = fam.get(key, np.zeros((n, n), dtype=complex)) + mat
        placed += 1
    return b_normal(fam, n, order)


def identity_metric(n, order) -> HermitianData:
    """The flat metric h = I."""
    return HermitianData(JetMatrix.identity(n, n, order))


def metric_from_families(n, order, lin=None, quad_zz=None, quad_mixed=None):
    """Metric with prescribed coefficient families around the identity.

    lin[p,l,m] sets the z_p coefficient of h_{l,m} (conjugate partners
    are filled in); quad_zz must be symmetric in its first two slots;
    quad_mixed is hermitian-averaged on ingestion.
    """
    h = JetMatrix.identity(n, n, order)

    def part(tensor, deg_z, deg_zbar):
        return JetMatrix.from_family(tensor, deg_z, deg_zbar, n, order)

    if lin is not None:
        lin = np.asarray(lin, dtype=complex)
        h = h + part(lin, 1, 0) + part(np.conj(lin).transpose(0, 2, 1), 0, 1)
    if quad_zz is not None:
        quad_zz = np.asarray(quad_zz, dtype=complex)
        quad_zz = 0.5 * (quad_zz + quad_zz.transpose(1, 0, 2, 3))
        h = h + part(quad_zz, 2, 0) \
            + part(np.conj(quad_zz).transpose(0, 1, 3, 2), 0, 2)
    if quad_mixed is not None:
        quad_mixed = np.asarray(quad_mixed, dtype=complex)
        herm = 0.5 * (quad_mixed
                      + np.conj(quad_mixed.transpose(1, 0, 3, 2)))
        h = h + part(herm, 1, 1)
    return HermitianData(h)


def frame_covector(calc: FrameCalculus, k, conjugate=False) -> PQForm:
    """The frame covector zeta*_k, or zetabar*_k with ``conjugate``, as a form."""
    if conjugate:
        return PQForm(calc, 0, 1, {((), (k,)): Jet.one(calc.n, calc.order)})
    return PQForm(calc, 1, 0, {((k,), ()): Jet.one(calc.n, calc.order)})


def matrix_eval(m: JetMatrix, point):
    """Value of every entry of ``m`` at ``point`` (zbar_k = conj(z_k))."""
    return np.array([[e.eval(point) for e in row] for row in m.entries], dtype=complex)


def field_eval(v: VectorField, point):
    """Value of every component of ``v`` at ``point``."""
    return np.array([c.eval(point) for c in v.components])


def scaled_frame(frame: Frame, factors) -> Frame:
    """The frame with zeta_k replaced by factors[k] * zeta_k (factors[k](0) != 0)."""
    n = frame.n
    diag = JetMatrix.zeros(2 * n, 2 * n, n, frame.order)
    for k in range(n):
        diag.entries[k][k] = factors[k]
        diag.entries[n + k][n + k] = factors[k].conj()
    g = frame.G @ diag
    return Frame(g, g.inverse())


def brackets_max_abs(bc: BracketCoefficients):
    """Largest coefficient over the four bracket tables; NaN if any is NaN."""
    return nan_max(fam.max_abs() for tab in (bc.M, bc.N, bc.U, bc.V) for fam in tab)


def brackets_effective_order(bc: BracketCoefficients):
    """Least trusted degree over the four bracket tables."""
    return min(fam.effective_order for tab in (bc.M, bc.N, bc.U, bc.V) for fam in tab)


def form_matrix_max_abs(m: MatrixForm, max_degree=None):
    """Largest coefficient over the entries of a form matrix."""
    return nan_max(e.max_abs(max_degree) for row in m.entries for e in row)


def derive_matrix_per_field(calc: FrameCalculus, jm: JetMatrix, kind) -> MatrixForm:
    """The oracle of ``chern.derive_matrix``: per entry f, a loop over the
    frame fields puts zeta_r(f) on zeta*_r ("del") or zetabar_r(f) on
    zetabar*_r ("delbar"), each derivative taken by ``VectorField.derive``."""
    field, p, q = {"del": (calc.frame.zeta, 1, 0),
                   "delbar": (calc.frame.zeta_bar, 0, 1)}[kind]

    def entry(f):
        coeffs = {}
        for r in range(calc.n):
            jet = field(r).derive(f, f.gradient())
            if jet:
                coeffs[((r,), ()) if p else ((), (r,))] = jet
        return PQForm(calc, p, q, coeffs)
    return MatrixForm([[entry(jm[i, j]) for j in range(jm.cols)] for i in range(jm.rows)])


def form_matrix_bits(m: MatrixForm):
    """Per entry: the bidegree, then each coefficient's key, ``repr`` of its
    terms and effective order, in the entry's key order."""
    return [[((e.p, e.q), [(key, repr(c._terms), c.effective_order)
                           for key, c in e.coeffs.items()]) for e in row]
            for row in m.entries]


def domega_value(dec: ChernLeviCivita, x, y, z) -> Jet:
    """d omega(x, y, z) on any three fields: each part of d omega evaluated
    by ``PQForm.evaluate``, summed from ``Jet.zero``."""
    return sum((part.evaluate([x, y, z]) for part in dec._domega_parts),
               Jet.zero(dec.n, dec.calc.order))


def gamma_on_fields(dec: ChernLeviCivita, x, y) -> VectorField:
    """gamma(x, y) solved from d omega(x, y, .) evaluated on the frame
    fields: the oracle of ``ChernLeviCivita.gamma``, which reads d omega on
    frame triples from its coefficients."""
    n, frame = dec.n, dec.calc.frame
    rhs10 = [domega_value(dec, x, y, frame.zeta_bar(m)) for m in range(n)]
    rhs01 = [domega_value(dec, x, y, frame.zeta(m)) for m in range(n)]
    return dec._solve_omega_pairing(rhs10, rhs01)


def coefficients_per_entry(m: JetMatrix):
    """The oracle of ``JetMatrix.coefficients``: each entry's ``terms``
    decoded and written into its key's array one coefficient at a time."""
    fam = {}
    for k, row in enumerate(m.entries):
        for l, e in enumerate(row):
            for key, c in e.terms.items():
                mat = fam.get(key)
                if mat is None:
                    mat = fam[key] = zero_coefficients((m.rows, m.cols), m.exact)
                mat[k, l] = c
    return fam


def series_inverse_composing(phi):
    """The oracle of ``jets.series_inverse``: every Newton step composes
    phi through psi, the first one through the inverse of the linear part
    even when that is the identity."""
    n = len(phi)
    order = phi[0].order
    phi = [p.with_order(order) for p in phi]
    lin = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        for l in range(n):
            ek, zz = multi_index(n, l), (0,) * n
            lin[k, l] = complex(phi[k].coeff(ek, zz))
            lin[k, n + l] = complex(phi[k].coeff(zz, ek))
            lin[n + k, l] = lin[k, n + l].conjugate()
            lin[n + k, n + l] = lin[k, l].conjugate()
    if abs(np.linalg.det(lin)) < 1e-12:
        raise SingularMatrixError("coordinate change has a singular linear part")
    lin_inv = np.linalg.inv(lin)
    ident = [Jet.variable(n, order, k) for k in range(n)]

    def linear_inverse(jets):
        both = [p for l, j in enumerate(jets) for p in ((j, l), (j.conj(), n + l))]
        return [Jet.dot([(j, lin_inv[k, col]) for j, col in both], n, order)
                for k in range(n)]

    psi = linear_inverse(ident)
    for _ in range(order):
        sub = Substitution(psi)
        err = [phi[k].compose(sub) - ident[k] for k in range(n)]
        if nan_max(e.max_abs() for e in err) < PRUNE_EPS:
            break
        psi = [p - c for p, c in zip(psi, linear_inverse(err))]
    return [p.trusted(order) for p in psi]


def jacobian_per_partial(phi, order) -> JetMatrix:
    """The oracle of ``structure._jacobian``: every partial taken on its own,
    and again for the conjugate bottom rows."""
    n = len(phi)
    rows = []
    for k in range(n):
        rows.append([phi[k].dz(s).trusted(order) for s in range(n)]
                    + [phi[k].dzbar(s).trusted(order) for s in range(n)])
    for k in range(n):
        rows.append([phi[k].dzbar(s).conj().trusted(order) for s in range(n)]
                    + [phi[k].dz(s).conj().trusted(order) for s in range(n)])
    return JetMatrix(rows)


def chart_change_by_oracles(phi, order) -> ChartChange:
    """A ``ChartChange`` for ``order`` whose inverse germ and Jacobians come
    from ``series_inverse_composing`` and ``jacobian_per_partial``."""
    change = ChartChange.__new__(ChartChange)
    w = change.working_order = order + 1
    phi_w = [p.padded(w) for p in phi]
    psi = series_inverse_composing(phi_w)
    change.order = order
    change.dphi, change.dpsi = (jacobian_per_partial(jets, w) for jets in (phi_w, psi))
    change.sub = Substitution(psi)
    return change


def transform_structure_full_product(s: AlmostComplexStructure, change: ChartChange):
    """The oracle of ``structure.transform_structure``: the full 2n x 2n
    product dphi o psi @ M o psi @ dpsi, then its first n columns."""
    m_of_psi = s.matrix().with_order(change.working_order).compose(change.sub)
    dphi_of_psi = change.dphi.compose(change.sub)
    m_new = dphi_of_psi @ m_of_psi @ change.dpsi
    n = s.n
    a_new = JetMatrix([[m_new[i, j].truncated(s.order) for j in range(n)]
                       for i in range(n)])
    b_new = JetMatrix([[m_new[n + i, j].truncated(s.order) for j in range(n)]
                       for i in range(n)])
    return AlmostComplexStructure(a_new, b_new)


def jet_sum_pruning_every_key(a: Jet, b: Jet) -> Jet:
    """The oracle of ``Jet.__add__``: every key of ``b`` added into a copy of
    a's terms (a new key from the ``0`` of the mode), then every term pruned
    and all of them sorted."""
    terms = dict(a._terms)
    zero = QC(0) if a.exact else 0
    for k, c in b._terms.items():
        terms[k] = terms.get(k, zero) + c
    if a.exact:
        kept = {k: c for k, c in sorted(terms.items()) if c}
    else:
        kept = {k: c for k, c in sorted(terms.items()) if not abs(c) < PRUNE_EPS}
    return Jet._make(a.n, a.order, kept, min(a.effective_order, b.effective_order), a.exact)


def jet_difference_by_negation(a: Jet, b: Jet) -> Jet:
    """The oracle of ``Jet.__sub__``: a + (-b), through
    ``jet_sum_pruning_every_key``."""
    return jet_sum_pruning_every_key(a, -b)


def dot_by_parts(pairs, n, order, exact=False, start=None) -> Jet:
    """The oracle of ``Jet.dot``: every operand checked by
    ``_check_operand``, and the products of a (jet, scalar) pair gathered
    in a list before they are folded into the accumulator."""
    idx = _index(n, order)
    shape = (n, order, exact)
    eff = order
    acc = {}
    if start is not None:
        _check_operand(start, shape)
        eff = start.effective_order
        acc = dict(start._terms)
    products = []
    for a, b in pairs:
        _check_operand(a, shape)
        eff = min(eff, a.effective_order)
        if isinstance(b, Jet):
            _check_operand(b, shape)
            eff = min(eff, b.effective_order)
            if not (a._terms and b._terms):
                continue
            if exact:
                products.append((a._terms, b._terms))
                continue
            if len(a._terms) * len(b._terms) > idx.dense_min_pairs:
                vec = idx.mul(a._dense(), b._dense())
                slots = np.flatnonzero(~(np.abs(vec) < PRUNE_EPS))
                items = zip(idx.codes[slots].tolist(), vec[slots].tolist())
            else:
                items = a._dict_product(b).items()
        elif exact:
            products.append((a._terms, {0: _as_qc(b)}))
            continue
        else:
            scalar = complex(b)
            items = [(k, v * scalar) for k, v in a._terms.items()]
        for k, c in items:
            if not abs(c) < PRUNE_EPS:
                c = acc.get(k, 0) + c
                if not abs(c) < PRUNE_EPS:
                    acc[k] = c
                else:
                    del acc[k]
    if exact:
        return Jet._make(n, order, _exact_sum(acc, products, n, order), eff, True)
    return Jet._make(n, order, dict(sorted(acc.items())), eff, False)


def dot_by_fold(pairs, n, order, exact=False, start=None) -> Jet:
    """The definition of ``Jet.dot``: acc = start (``Jet.zero`` without
    one), then acc = acc + a * b over the pairs, each product a jet."""
    acc = Jet.zero(n, order, exact) if start is None else start
    for a, b in pairs:
        acc = acc + a * b
    return acc


def apply_operator_scaling_each_sign(kind, u: PQForm) -> PQForm:
    """The oracle of ``forms.apply_operator``: each piece term scaled by its
    piece's sign as a jet, (c * entry) * piece sign, before the sign of its
    word scales it again, and each derivative term formed by
    ``derive_over_pairs``, a constant coefficient's too."""
    calc = u.calc
    op = _OPERATORS[kind]
    n, bc = calc.n, calc.bc
    acc = {}
    for (kk, ll), c in u.coeffs.items():
        derive, pieces = _plan(kind, n, kk, ll)
        for r, sign, key in derive:
            field = (calc.frame.zeta, calc.frame.zeta_bar)[op.derive](r)
            if jet := derive_over_pairs(field, c):
                acc.setdefault(key, []).append((jet, sign))
        for table, conj, i, piece_sign, entries in pieces:
            fam = (bc.conj_table(table) if conj else getattr(bc, table))[i]
            for row, col, sign, key in entries:
                entry = fam[row, col]
                if entry and (jet := (c * entry) * piece_sign):
                    acc.setdefault(key, []).append((jet, sign))
    return PQForm(calc, u.p + op.shift[0], u.q + op.shift[1],
                  _sum_terms(acc, n, calc.order))


def exact_jet(jet: Jet) -> Jet:
    """An exact jet of the values of a finite float jet, each part read as
    the rational its binary float is, with the same trusted degrees."""
    terms = {key: QC(Fraction(c.real), Fraction(c.imag)) for key, c in jet.terms.items()}
    return Jet(jet.n, jet.order, terms, exact=True).trusted(jet.effective_order)


def exact_frame_calculus(calc: FrameCalculus):
    """The frame and bracket tables of ``calc`` as exact jets of their float
    values, with the attributes ``forms.apply_operator`` reads (``n``,
    ``order``, ``frame``, ``bc``); forms on it hold exact coefficients."""
    def exact(m):
        return m.map(exact_jet)

    bc = calc.bc
    return SimpleNamespace(
        n=calc.n, order=calc.order,
        frame=Frame(exact(calc.frame.G), exact(calc.frame.Ginv)),
        bc=BracketCoefficients(*([exact(m) for m in getattr(bc, name)]
                                 for name in "MNUV")))


def inverse_through_identity(m: JetMatrix) -> JetMatrix:
    """The oracle of ``JetMatrix.inverse``: the Neumann series of
    X = M0^-1 (M - M0) from the power I, every power a product with X, and
    the sum multiplied by M0^-1 even when M0 is the identity."""
    size, n, order, exact = m.rows, m.n, m.order, m.exact
    m0 = m.constant()
    if exact:
        m0_inv = _exact_inverse(m0, size)
    else:
        if not np.isfinite(m0).all():
            raise SingularMatrixError("constant term is not finite")
        cond = np.linalg.cond(m0)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularMatrixError(f"constant term is numerically singular "
                                      f"(cond={cond:.3e})", cond)
        m0_inv = np.linalg.inv(m0)
    m0_inv_mat = JetMatrix.from_constant(m0_inv, n, order, exact=exact)
    x = m0_inv_mat @ (m - JetMatrix.from_constant(m0, n, order, exact=exact))
    acc = power = JetMatrix.identity(size, n, order, exact=exact)
    for _ in range(order):
        power = -(power @ x)
        if power.max_abs() == 0:
            break
        acc = acc + power
    eff = m.effective_order
    return (acc @ m0_inv_mat).map(lambda e: e.trusted(eff))


def bracket_without_memo(x: VectorField, y: VectorField) -> VectorField:
    """The oracle of ``VectorField.bracket``: X . grad Y - Y . grad X, each
    derivative by ``VectorField.derive`` on a gradient of its own."""
    return VectorField([x.derive(c, c.gradient()) for c in y.components]) - \
        VectorField([y.derive(c, c.gradient()) for c in x.components])


def lc_derivative_without_memo(lc: LeviCivita, xi: VectorField, eta: VectorField):
    """The oracle of ``LeviCivita.derivative``: every product
    Gamma^c_ab xi^a formed again for each output index c, and the gradient
    of each component of eta taken again."""
    n = lc.calc.n
    live = [(a, b, xa, eb) for a, xa in enumerate(xi.components) if xa
            for b, eb in enumerate(eta.components) if eb]
    return VectorField([Jet.dot([(lc.gamma[c][a][b] * xa, eb) for a, b, xa, eb in live],
                                n, lc.calc.order, start=xi.derive(f, f.gradient()))
                        for c, f in enumerate(eta.components)])


def pairing_without_memo(conn: ConnectionForms, x: VectorField) -> JetMatrix:
    """The oracle of ``ConnectionForms.pair_with``: every entry of A' and
    A'' evaluated on x again."""
    n = conn.aprime.rows
    return JetMatrix([[conn.aprime[k, l].evaluate([x]) + conn.asecond[k, l].evaluate([x])
                       for l in range(n)] for k in range(n)])


def derive_over_pairs(x: VectorField, f: Jet) -> Jet:
    """The oracle of ``VectorField.derive``: ``Jet.dot`` over the pairs of
    each nonzero component of x with f's partial, a constant f too."""
    return Jet.dot([(comp, g) for comp, g in zip(x.components, f.gradient()) if comp],
                   f.n, f.order, f.exact)


def chern_derivative_without_memo(calc: FrameCalculus, conn: ConnectionForms,
                                  xi: VectorField, eta: VectorField) -> VectorField:
    """The oracle of ``chern.chern_derivative``: the gradient of each frame
    component of eta taken again, every derivative over all its pairs, and
    xi paired with the connection again."""
    n = calc.n
    comps = calc.frame.to_frame_components(eta)
    start = [derive_over_pairs(xi, c) for c in comps]
    a_of_xi = pairing_without_memo(conn, xi)
    out = [Jet.dot([(a_of_xi[k, l], comps[l]) for l in range(n)], n, calc.order,
                   start=start[k]) for k in range(n)]
    out += [Jet.dot([(a_of_xi[k, l].conj(), comps[n + l]) for l in range(n)], n, calc.order,
                    start=start[n + k]) for k in range(n)]
    return calc.frame.from_frame_components(out)


class PowerTableConnection:
    """The oracle of ``geodesic.PackedConnection``, built from the coordinate
    connection matrices ``a_z`` (2n matrices 2n x 2n): per term, the flat
    positions of its factors in a power table of u = (gamma, gdot,
    conj gamma, conj gdot), as pairs (z_k, zbar_k) of exponents followed by
    the pair of velocity components (a, j) at power one.  A term is
    ((c (z^alpha zbar^beta)) v_a) v_j, with z^alpha and zbar^beta each
    ((f_0 f_1) f_2) ... over the powers ``u ** degrees``.  It has the
    attributes and methods the RK4 loop reads (``n``, ``flat``, ``rate``)."""

    def __init__(self, n, a_z):
        self.n = n
        terms = []
        for a, mat in enumerate(a_z):
            for i in range(2 * n):
                for j in range(2 * n):
                    for (alpha, beta), c in mat[i, j].terms.items():
                        terms.append((i, j, a, alpha + beta, c))
        terms.sort(key=lambda t: t[0])
        rows = np.array([t[0] for t in terms], dtype=np.intp)
        exps = np.array([t[3] for t in terms], dtype=np.intp).reshape(-1, 2 * n)
        self.degrees = np.arange(max(exps.max(initial=0), 1) + 1)
        width = len(self.degrees)
        var_pos = np.concatenate([np.arange(n), 2 * n + np.arange(n)])
        vel_pos = var_pos + n
        comps = np.array([t[2] for t in terms], dtype=np.intp)
        cols = np.array([t[1] for t in terms], dtype=np.intp)
        var_at = (var_pos * width + exps).reshape(-1, 2, n).transpose(0, 2, 1)
        vel_at = np.stack([vel_pos[comps], vel_pos[cols]], axis=-1) * width + 1
        gather = np.concatenate([var_at, vel_at[:, None]], axis=1).transpose(1, 2, 0)
        coeffs = np.array([t[4] for t in terms], dtype=complex)
        scatter = np.zeros((len(terms), 2 * n), dtype=complex)
        scatter[np.arange(len(terms)), rows] = -1.0
        first = int(np.count_nonzero(rows < n))
        self.flat = not terms
        self.tables = {
            n: (coeffs[:first], np.ascontiguousarray(gather[..., :first]),
                np.ascontiguousarray(scatter[:first, :n])),
            2 * n: (coeffs, np.ascontiguousarray(gather), scatter),
        }

    def terms(self, y, nrows):
        """The terms of the first ``nrows`` rows at the states y, (..., terms),
        and the scatter (terms, nrows) that sums them with the minus sign."""
        n = self.n
        coeffs, gather, scatter = self.tables[nrows]
        u = np.concatenate([y, y.conj()], axis=-1)
        powers = (u[..., None] ** self.degrees).reshape(
            u.shape[:-1] + (u.shape[-1] * len(self.degrees),))
        f = powers.take(gather, axis=-1)
        mono = f[..., 0, :, :]
        for k in range(1, n):
            mono = mono * f[..., k, :, :]
        vals = coeffs * (mono[..., 0, :] * mono[..., 1, :]) \
            * f[..., n, 0, :] * f[..., n, 1, :]
        return vals, scatter

    def rate(self, y):
        vals, scatter = self.terms(y, self.n)
        return np.concatenate([y[..., self.n:], vals @ scatter], axis=-1)

    def action(self, gamma, gdot):
        vals, scatter = self.terms(np.concatenate([gamma, gdot], axis=-1), 2 * self.n)
        return vals @ scatter
