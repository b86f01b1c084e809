"""Hermitian metrics and connections on the tangent bundle of a chart germ.

Covers the canonical (0,1)-connection, the hermitian connection it induces,
curvature in all three bidegree blocks with an independent origin formula,
the Levi-Civita connection, the decomposition relating the two connections,
special frames, normal asymptotic expansions of the connection and metric,
and the symplectic refinement of normal coordinates.  The del and delbar of
a matrix of functions apply ``forms.apply_operator`` to each entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .forms import (FrameCalculus, PQForm, apply_operator, exterior_derivative,
                    to_coordinate_form)
from .jets import Jet, JetError, JetMatrix, SingularMatrixError, Substitution, nan_max
from .normal import normalize_to_order, require_normal_form
from .structure import (AlmostComplexStructure, ChartChange, VectorField, _sorted_sign,
                        transform_structure)


def sample_points(n):
    """Evaluation points for residual sweeps: the origin plus two fixed
    pseudo-random points of norm 0.05."""
    rng = np.random.default_rng(20240805)
    pts = [np.zeros(n, dtype=complex)]
    for _ in range(2):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        pts.append(0.05 * v / np.linalg.norm(v))
    return pts


def _hermitian_part(h: JetMatrix) -> JetMatrix:
    """(h + h^*) / 2 entrywise: (h[l, m] + conj-jet of h[m, l]) * 0.5."""
    return JetMatrix([[(h[l, m] + h[m, l].conj()) * 0.5 for m in range(h.cols)]
                      for l in range(h.rows)])


class HermitianData:
    """Metric coefficient matrix h_{l,m} = h(zeta_l, zeta_m) in the frame."""

    def __init__(self, h: JetMatrix, check=True):
        if h.rows != h.cols or h.rows != h.n:
            raise JetError("metric matrix must be n x n in n variables")
        self.H = h
        self.n = h.rows
        self.order = h.order
        if check:
            # hermitian symmetry coefficientwise: h_{l,m} = conj-jet of h_{m,l}
            herm = nan_max((h[l, m] - h[m, l].conj()).max_abs()
                           for l in range(self.n) for m in range(self.n))
            if not herm <= 1e-10:   # a NaN coefficient fails too
                raise JetError(f"metric matrix is not hermitian ({herm:.2e})")
            eig = np.linalg.eigvalsh(np.asarray(h.constant()))
            if not eig.min() > 0:
                raise JetError("metric constant term is not positive definite")

    @classmethod
    def from_matrix(cls, h: JetMatrix, symmetrize=True):
        return cls(_hermitian_part(h) if symmetrize else h)

    def is_orthonormal_at_origin(self):
        """H(0) = I to within 1e-10."""
        return np.abs(np.asarray(self.H.constant()) - np.eye(self.n)).max() <= 1e-10


def metric_form(calc: FrameCalculus, hd: HermitianData) -> PQForm:
    """The positive (1,1)-form (i/2) sum h_{l,m} zeta*_l wedge zetabar*_m."""
    coeffs = {}
    for l in range(calc.n):
        for m in range(calc.n):
            jet = hd.H[l, m] * 0.5j
            if jet:
                coeffs[((l,), (m,))] = jet
    return PQForm(calc, 1, 1, coeffs)


def metric_exterior_derivative(calc, hd):
    """d(omega) as its nonzero signed bidegree parts (``exterior_derivative``);
    omega is closed iff there are none."""
    return exterior_derivative(metric_form(calc, hd))


def domega_max(calc, hd):
    """Largest coefficient of d(omega) over its parts, up to the order every
    part trusts."""
    return _parts_max(metric_exterior_derivative(calc, hd), calc.order)


def _parts_max(parts, order):
    """Largest coefficient over the forms ``parts``, up to the order every
    part trusts (``order`` when there are none)."""
    eff = min((part.effective_order for part in parts), default=order)
    return nan_max(part.max_abs(eff) for part in parts)


class MatrixForm:
    """Matrix with PQForm entries of one common bidegree; its products with
    form and jet matrices share one fold, ``_product``."""

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0])
        probe = self.entries[0][0]
        self.calc = probe.calc
        self.p, self.q = probe.p, probe.q

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def map(self, fn):
        return MatrixForm([[fn(e) for e in row] for row in self.entries])

    def __add__(self, other):
        return MatrixForm([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return MatrixForm([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    @staticmethod
    def _product(rows, cols, inner, term):
        """The rows x cols matrix of sum_s term(i, j, s): the terms for s > 0
        are added in ascending order to the s = 0 term."""
        return MatrixForm([[sum((term(i, j, s) for s in range(1, inner)), term(i, j, 0))
                            for j in range(cols)] for i in range(rows)])

    def wedge(self, other):
        return self._product(self.rows, other.cols, self.cols,
                             lambda i, j, s: self.entries[i][s].wedge(other.entries[s][j]))

    def transpose(self):
        return MatrixForm(list(zip(*self.entries)))

    def left_mul_jets(self, jm: JetMatrix):
        """jm @ self; entry (i, j) sums self[s, j] * jm[i, s] over s."""
        return self._product(jm.rows, self.cols, self.rows,
                             lambda i, j, s: self.entries[s][j] * jm[i, s])

    def right_mul_jets(self, jm: JetMatrix):
        """self @ jm; entry (i, j) sums self[i, s] * jm[s, j] over s."""
        return self._product(self.rows, jm.cols, self.cols,
                             lambda i, j, s: self.entries[i][s] * jm[s, j])

    def conj_transpose(self):
        return self.transpose().map(lambda e: e.conj())

    def apply(self, kind):
        return self.map(lambda e: apply_operator(kind, e))


@dataclass
class ConnectionForms:
    aprime: MatrixForm        # (1,0)-form entries
    asecond: MatrixForm       # (0,1)-form entries

    def __post_init__(self):
        self._pairing = (None, None)

    def pair_with(self, x: VectorField):
        """Matrix of jets A_{k,l}(x) = A'_{k,l}(x) + A''_{k,l}(x).

        Forms and fields are never changed after construction, so the
        matrix of the last field paired is kept, as ``LeviCivita`` keeps its
        last xi's products: the derivatives along one field (one per eta in
        ``ChernLeviCivita``) pair it once."""
        if self._pairing[0] is not x:
            n = self.aprime.rows
            self._pairing = (x, JetMatrix([[self.aprime[k, l].evaluate([x])
                                            + self.asecond[k, l].evaluate([x])
                                            for l in range(n)] for k in range(n)]))
        return self._pairing[1]


def canonical_delbar_connection(calc: FrameCalculus) -> MatrixForm:
    """(0,1)-connection of the (1,0)-tangent bundle: (A'')^r_{k,j} = -U^k_{j,r}."""
    n = calc.n
    entries = []
    for k in range(n):
        row = []
        for j in range(n):
            coeffs = {}
            for r in range(n):
                jet = -calc.bc.U[k][j, r]
                if jet:
                    coeffs[((), (r,))] = jet
            row.append(PQForm(calc, 0, 1, coeffs))
        entries.append(row)
    return MatrixForm(entries)


def derive_matrix(calc, jm: JetMatrix, kind) -> MatrixForm:
    """Entrywise ``kind`` derivative of a matrix of jet functions, by
    ``apply_operator`` on each entry as a 0-form: "del" gives a (1,0)-form
    per entry, "delbar" a (0,1)-form."""
    return MatrixForm([[apply_operator(kind, calc.function(f)) for f in row]
                       for row in jm.entries])


def chern_connection(calc: FrameCalculus, hd: HermitianData) -> ConnectionForms:
    """Hermitian connection with the canonical (0,1)-part.

    A' = conj(H)^{-1} (del conj(H) - conj(A'')^t conj(H)).
    """
    asecond = canonical_delbar_connection(calc)
    hbar = hd.H.conj()
    hbar_inv = hbar.inverse()
    rhs = derive_matrix(calc, hbar, "del") - asecond.conj_transpose().right_mul_jets(hbar)
    aprime = rhs.left_mul_jets(hbar_inv)
    return ConnectionForms(aprime, asecond)


def hermitian_compat_residual(calc, hd, conn: ConnectionForms):
    """Largest deviation in xi.h(s,t) = h(D_xi s, t) + h(s, D_conj(xi) t)
    over frame sections and frame directions."""
    n = calc.n
    h = hd.H
    residuals = []
    ap = [[[conn.aprime[s, l].coefficient((p,), ()) for p in range(n)]
           for l in range(n)] for s in range(n)]
    asec = [[[conn.asecond[s, l].coefficient((), (r,)) for r in range(n)]
             for l in range(n)] for s in range(n)]
    for p in range(n):
        for l in range(n):
            for m in range(n):
                lhs = calc.frame.zeta(p).derive(h[l, m])
                rhs = Jet.dot([t for s in range(n)
                               for t in ((ap[s][l][p], h[s, m]),
                                         (asec[s][m][p].conj(), h[l, s]))], n, calc.order)
                eff = min(lhs.effective_order, rhs.effective_order)
                residuals.append((lhs - rhs).max_abs(eff))
                lhs2 = calc.frame.zeta_bar(p).derive(h[l, m])
                rhs2 = Jet.dot([t for s in range(n)
                                for t in ((asec[s][l][p], h[s, m]),
                                          (ap[s][m][p].conj(), h[l, s]))], n, calc.order)
                eff2 = min(lhs2.effective_order, rhs2.effective_order)
                residuals.append((lhs2 - rhs2).max_abs(eff2))
    return nan_max(residuals)


@dataclass
class CurvatureBlocks:
    theta20: MatrixForm
    theta11: MatrixForm
    theta02: MatrixForm

    def c_tensor_at_origin(self):
        """C[j, k, m, l]: zeta*_j wedge zetabar*_k coefficient of entry (m, l)
        of the (1,1)-block, evaluated at the origin."""
        calc = self.theta11.calc
        n = calc.n
        out = np.zeros((n, n, n, n), dtype=complex)
        for m in range(n):
            for l in range(n):
                for (kk, ll), c in self.theta11[m, l].coeffs.items():
                    out[kk[0], ll[0], m, l] = c.constant_term
        return out


def curvature(calc: FrameCalculus, conn: ConnectionForms) -> CurvatureBlocks:
    """Bidegree blocks of the curvature of A' + A''."""
    ap, asec = conn.aprime, conn.asecond
    theta20 = ap.apply("del") + ap.wedge(ap) - asec.apply("theta")
    theta02 = asec.apply("delbar") + asec.wedge(asec) - ap.apply("thetabar")
    theta11 = ap.apply("delbar") + asec.apply("del") + ap.wedge(asec) \
        + asec.wedge(ap)
    return CurvatureBlocks(theta20, theta11, theta02)


def curvature_origin_formula(hd: HermitianData, s: AlmostComplexStructure):
    """Closed-form curvature coefficients at the origin from the metric and
    structure coefficient families (normal coordinates, orthonormal frame).

    C[j,k,m,l] = -Hmix[j,k,l,m] + (1/4) sum_r [ 4 Hlin[j,l,r] conj(Hlin[k,m,r])
                 + (conj(B^k)_{m,r} - conj(B^r)_{m,k}) B^j_{r,l}
                 + (B^j_{l,r} - B^r_{l,j}) conj(B^k)_{r,m} ].
    """
    n = hd.n
    require_normal_form(s, "origin formula needs normal coordinates of order >= 2")
    if not hd.is_orthonormal_at_origin():
        raise JetError("origin formula needs an orthonormal frame at 0")
    lin = hd.H.family(1, 0)
    mix = hd.H.family(1, 1)
    b1 = s.B.family(1, 0)
    out = np.zeros((n, n, n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            for m in range(n):
                for l in range(n):
                    val = -mix[j, k, l, m]
                    for r in range(n):
                        val += lin[j, l, r] * np.conj(lin[k, m, r])
                        val += 0.25 * (np.conj(b1[k][m, r]) - np.conj(b1[r][m, k])) \
                            * b1[j][r, l]
                        val += 0.25 * (b1[j][l, r] - b1[r][l, j]) \
                            * np.conj(b1[k][r, m])
                    out[j, k, m, l] = val
    return out


def pointwise_hermitian_residual(calc, hd, blocks: CurvatureBlocks):
    """i Theta^{1,1}(xi, eta) is h-hermitian for real xi, eta:
    h(i Theta(xi,eta) s_l, s_m) = conj(h(i Theta(xi,eta) s_m, s_l)).

    The pairing is formed at the jet level so both sides share a truncation,
    then the trusted part is evaluated at the sample points."""
    n = calc.n
    points = sample_points(n)
    fr = calc.frame
    residuals = []
    for a in range(n):
        for b in range(n):
            xi = fr.real_frame_field(a)
            eta = fr.real_frame_field(b)
            theta_val = [[1j * blocks.theta11[k, l].evaluate([xi, eta])
                          for l in range(n)] for k in range(n)]
            pair = [[Jet.dot([(theta_val[s][l], hd.H[s, m]) for s in range(n)], n, calc.order)
                     for m in range(n)] for l in range(n)]
            for l in range(n):
                for m in range(n):
                    diff = pair[l][m] - pair[m][l].conj()
                    trusted = diff.truncated(max(diff.effective_order, 0))
                    residuals.extend(abs(trusted.eval(p)) for p in points)
    return nan_max(residuals)


def hermitian_curvature_symmetry(blocks: CurvatureBlocks):
    """Max violation of conj(C^{j,k}_{m,l}) = C^{k,j}_{l,m} at the origin."""
    c = blocks.c_tensor_at_origin()
    slots = range(c.shape[0])
    return nan_max(abs(np.conj(c[j, k, m, l]) - c[k, j, l, m])
                   for j, k, m, l in itertools.product(slots, repeat=4))


def pointwise_curvature_residual(calc, hd, conn, blocks):
    """Cross-check of the (1,1)-block at the origin against
    (delbar del conj(H) - delbar conj(H) wedge del conj(H)
     + del A'' - delbar conj(A'')^t)(0); needs A''(0) = 0 and H(0) = I."""
    n = calc.n
    asec0 = nan_max(abs(conn.asecond[k, l].coefficient((), (r,)).constant_term)
                    for k in range(n) for l in range(n) for r in range(n))
    if asec0 > 1e-10:
        raise JetError("pointwise formula needs a delbar-flat frame at 0")
    hbar = hd.H.conj()
    d_h, db_h = derive_matrix(calc, hbar, "del"), derive_matrix(calc, hbar, "delbar")
    expr = d_h.apply("delbar") - db_h.wedge(d_h) + conn.asecond.apply("del") \
        - conn.asecond.conj_transpose().apply("delbar")
    diff = expr - blocks.theta11
    return nan_max(abs(c.constant_term) for m in range(n) for l in range(n)
                   for c in diff[m, l].coeffs.values())


# -- covariant derivatives ---------------------------------------------------

def chern_derivative(calc, conn: ConnectionForms, xi: VectorField,
                     eta: VectorField) -> VectorField:
    """D_xi eta through the frame-block connection diag(A, conj(A))."""
    n = calc.n
    frame = calc.frame
    comps = frame.to_frame_components(eta)
    a_of_xi = conn.pair_with(xi)
    start = [xi.derive(c) for c in comps]
    out = [Jet.dot([(a_of_xi[k, l], comps[l]) for l in range(n)], n, calc.order,
                   start=start[k]) for k in range(n)]
    out += [Jet.dot([(a_of_xi[k, l].conj(), comps[n + l]) for l in range(n)], n, calc.order,
                    start=start[n + k]) for k in range(n)]
    return frame.from_frame_components(out)


def _omega_matrix(calc, hd, order) -> JetMatrix:
    """The antisymmetric 2n x 2n matrix of omega's coordinate components,
    with entries re-embedded at ``order``."""
    dim = 2 * calc.n
    w = JetMatrix.zeros(dim, dim, calc.n, order)
    for (a, b), jet in to_coordinate_form(metric_form(calc, hd)).coeffs.items():
        w.entries[a][b] = jet.with_order(order)
        w.entries[b][a] = -w.entries[a][b]
    return w


class LeviCivita:
    """Christoffel data of g = omega(., J.) in the complexified basis."""

    def __init__(self, calc: FrameCalculus, hd: HermitianData):
        n, order = calc.n, calc.order
        dim = 2 * n
        self.g = _omega_matrix(calc, hd, order) @ calc.structure.matrix()
        g0 = np.asarray(self.g.constant())
        sym_err = np.abs(g0 - g0.T).max()
        if not sym_err <= 1e-10:   # a NaN defect fails too
            raise JetError(f"metric tensor is not symmetric ({sym_err:.2e})")
        try:
            self.ginv = self.g.inverse()
        except SingularMatrixError as exc:
            raise JetError("degenerate riemannian metric at the origin") from exc
        self.calc = calc
        derivs = [[self.g[a, b].gradient() for b in range(dim)] for a in range(dim)]
        # the first-kind sums d_b g_{da} + d_a g_{db} - d_d g_{ab} over d,
        # formed once for every output index c
        first = {(a, b): [derivs[b][d][a] + derivs[a][d][b] - derivs[a][b][d]
                          for d in range(dim)]
                 for a in range(dim) for b in range(a, dim)}
        self.gamma = [[[None] * dim for _ in range(dim)] for _ in range(dim)]
        for c in range(dim):
            for a in range(dim):
                for b in range(a, dim):
                    acc = Jet.dot(zip(self.ginv.entries[c], first[a, b]), n, order) * 0.5
                    self.gamma[c][a][b] = acc
                    self.gamma[c][b][a] = acc
        self._xi_products = (None, {})

    def derivative(self, xi: VectorField, eta: VectorField) -> VectorField:
        """LC_xi eta = xi(eta^c) + sum over a, b of Gamma^c_ab xi^a eta^b.

        The products Gamma^c_ab xi^a are kept, keyed by (c, a, b), for the
        last ``xi`` derived along, so the calls along one xi (one per eta in
        ``decomposition_residual``) form each of them once."""
        n = self.calc.n
        if self._xi_products[0] is not xi:
            self._xi_products = (xi, {})
        products = self._xi_products[1]
        live = [(a, b, xa, eb) for a, xa in enumerate(xi.components) if xa
                for b, eb in enumerate(eta.components) if eb]
        out = []
        for c, f in enumerate(eta.components):
            pairs = []
            for a, b, xa, eb in live:
                p = products.get((c, a, b))
                if p is None:
                    p = products[c, a, b] = self.gamma[c][a][b] * xa
                pairs.append((p, eb))
            out.append(Jet.dot(pairs, n, self.calc.order,
                               start=xi.derive(f)))
        return VectorField(out)

    def torsion_free_residual(self, xi, eta):
        lhs = self.derivative(xi, eta) - self.derivative(eta, xi) - xi.bracket(eta)
        return lhs.max_abs(lhs.effective_order)


# -- Chern vs Levi-Civita -----------------------------------------------------

class ChernLeviCivita:
    """Tensors relating the hermitian and riemannian connections.

    gamma is solved from d omega on triples of frame fields f = (zeta_0..,
    zetabar_0..).  A frame field pairs with the dual frame to a unit jet,
    zeta*_k(zeta_l) = delta_kl, so d omega(f_i, f_j, f_m) is read from one
    map of its parts' coefficients instead of being evaluated on the fields:
    the sign of sorting (i, j, m) times the coefficient of the sorted word.
    """

    def __init__(self, calc: FrameCalculus, hd: HermitianData):
        self.calc = calc
        self.hd = hd
        self.conn = chern_connection(calc, hd)
        self.lc = LeviCivita(calc, hd)
        n = calc.n
        self.n = n
        self._h_t_inv = hd.H.T.inverse()
        self._h_inv = hd.H.inverse()
        self._domega_parts = metric_exterior_derivative(calc, hd)
        # the parts' bidegrees, hence their words, are distinct
        self._domega = {key: c for part in self._domega_parts
                        for key, c in part.coeffs.items()}
        # Jet.dot's rule: the pairing of frame field f_i with the dual
        # covector s trusts the degrees that row s of Ginv and column i of G
        # (the field's components) both trust; d omega's bound is the least
        # trust of its coefficients and of the pairings their words read
        frame = calc.frame
        rows = [min(e.effective_order for e in row) for row in frame.Ginv.entries]
        self._field_trust = [min(row[i].effective_order for row in frame.G.entries)
                             for i in range(2 * n)]
        self._domega_trust = min((min([c.effective_order]
                                      + [rows[s] for s in k + tuple(n + i for i in l)])
                                  for (k, l), c in self._domega.items()), default=calc.order)
        self._points = sample_points(n)
        self._tables = {}

    def domega_max(self):
        """``domega_max`` of this object's metric, read from the d(omega)
        parts it holds."""
        return _parts_max(self._domega_parts, self.calc.order)

    def _memo(self, key, compute):
        """Value of ``compute()`` under ``key``, computed once per object."""
        val = self._tables.get(key)
        if val is None:
            val = self._tables[key] = compute()
        return val

    def _domega_frame(self, i, j, m) -> Jet:
        """d omega(f_i, f_j, f_m), memoized per sorted word and sign: the
        coefficient of the sorted word times the sign of the sort (nothing
        on a repeated field), trusted to the least of the fields' trust and
        the precomputed bound of d omega's coefficients.  A closed omega
        gives ``Jet.zero`` trusted to the full order."""
        sign = _sorted_sign((i, j, m))[0]
        fields = tuple(sorted({i, j, m}))

        def compute():
            n, order = self.n, self.calc.order
            if not self._domega:
                return Jet.zero(n, order)
            key = (tuple(s for s in fields if s < n), tuple(s - n for s in fields if s >= n))
            c = self._domega.get(key) if sign else None
            trust = min([self._domega_trust] + [self._field_trust[f] for f in fields])
            return Jet.dot([(c, sign)] if c else [], n, order).trusted(trust)
        return self._memo(("domega", fields, sign), compute)

    def _solve_omega_pairing(self, rhs10, rhs01) -> VectorField:
        """Vector V with omega(V, zetabar_m) = rhs10[m], omega(V, zeta_m) = rhs01[m]."""
        n, order = self.n, self.calc.order
        rhs10 = [r * (-2j) for r in rhs10]
        rhs01 = [r * 2j for r in rhs01]
        v = [Jet.dot(zip(self._h_t_inv.entries[k], rhs10), n, order) for k in range(n)]
        w = [Jet.dot(zip(self._h_inv.entries[k], rhs01), n, order) for k in range(n)]
        return self.calc.frame.from_frame_components(v + w)

    def gamma(self, i, j) -> VectorField:
        """gamma(f_i, f_j) on frame fields: solve omega(gamma, .) =
        d omega(f_i, f_j, .) over the frame."""
        n = self.n
        rhs10 = [self._domega_frame(i, j, n + m) for m in range(n)]
        rhs01 = [self._domega_frame(i, j, m) for m in range(n)]
        return self._solve_omega_pairing(rhs10, rhs01)

    def frame_gamma(self, i, j) -> VectorField:
        """gamma(f_i, f_j) on frame fields f = (zeta_0.., zetabar_0..), memoized."""
        return self._memo(("gamma", i, j), lambda: self.gamma(i, j))

    def gamma_20_plus_02(self, a, b) -> VectorField:
        """[gamma^{2,0} + gamma^{0,2}](e_a, e_b) on real frame fields."""
        n = self.n
        return self.frame_gamma(a, b) + self.frame_gamma(n + a, n + b)

    def gamma_11_j(self, a, b) -> VectorField:
        """J gamma^{1,1}(e_a, J e_b) on real frame fields."""
        n = self.n
        mixed = -1j * self.frame_gamma(a, n + b) \
            + 1j * self.frame_gamma(n + a, b)
        return self.calc.structure.apply(mixed)

    def delta(self, a, b) -> VectorField:
        """delta(e_a, e_b) = (1/2)[gamma^{2,0}+gamma^{0,2} + J gamma^{1,1}(., J.)]."""
        def compute():
            total = self.gamma_20_plus_02(a, b) + self.gamma_11_j(a, b)
            return VectorField([0.5 * c for c in total.components])
        return self._memo(("delta", a, b), compute)

    def tau_omega(self, k, l) -> VectorField:
        """tau(zetabar_k, zetabar_l): omega(tau, zetabar_m) = omega(zetabar_k,
        [zetabar_l, zetabar_m]^{1,0})."""
        n = self.n
        h = self.hd.H
        rhs10 = [Jet.dot([(self.calc.bc.N[s][l, m], h[s, k]) for s in range(n)],
                         n, self.calc.order) * (-0.5j) for m in range(n)]
        zero = [Jet.zero(n, self.calc.order)] * n
        return self._solve_omega_pairing(rhs10, zero)

    def n_omega(self, a, b) -> VectorField:
        def compute():
            t = self.tau_omega(a, b)
            return t + t.conj()
        return self._memo(("n_omega", a, b), compute)

    def gamma02_max(self):
        """Largest (1,0)-output of gamma on conjugate frame pairs: vanishes
        exactly when the (0,2)-component is absent."""
        residuals = []
        for a in range(self.n):
            for b in range(self.n):
                if a == b:
                    continue
                g = self.frame_gamma(self.n + a, self.n + b)
                comps = self.calc.frame.to_frame_components(g)
                residuals.extend(c.max_abs(c.effective_order) for c in comps[:self.n])
        return nan_max(residuals)

    def _chern_pair(self, a, b) -> VectorField:
        """D_xi eta on the real frame fields xi = e_a, eta = e_b, memoized."""
        fr = self.calc.frame
        return self._memo(("chern", a, b), lambda: chern_derivative(
            self.calc, self.conn, fr.real_frame_field(a), fr.real_frame_field(b)))

    def _pair_max(self, field):
        """Largest trusted value of ``field(a, b)`` over the real frame pairs
        (a, b) at the sample points; each pair's field is built once."""
        residuals = []
        for a in range(self.n):
            for b in range(self.n):
                trusted = [c.truncated(max(c.effective_order, 0))
                           for c in field(a, b).components]
                residuals.extend(np.abs(np.array([c.eval(p) for c in trusted])).max()
                                 for p in self._points)
        return nan_max(residuals)

    def decomposition_residual(self):
        """Max deviation of D_xi eta = LC_xi eta + delta(xi,eta) - N(xi,eta)
        over real frame pairs at the sample points."""
        fr = self.calc.frame

        def resid(a, b):
            lc = self.lc.derivative(fr.real_frame_field(a), fr.real_frame_field(b))
            return self._chern_pair(a, b) - lc - self.delta(a, b) + self.n_omega(a, b)
        return self._pair_max(resid)

    def torsion_formula_residual(self):
        """Torsion of the hermitian connection against
        [gamma^{2,0}+gamma^{0,2}](xi,eta) - N(xi,eta) + N(eta,xi).

        The gamma sign follows from the connection decomposition plus the
        symmetry of gamma^{1,1}(., J.); both fixtures with an active gamma
        pin it numerically."""
        fr = self.calc.frame

        def diff(a, b):
            tors = self._chern_pair(a, b) - self._chern_pair(b, a) \
                - fr.real_frame_field(a).bracket(fr.real_frame_field(b))
            rhs = self.gamma_20_plus_02(a, b) - self.n_omega(a, b) \
                + self.n_omega(b, a)
            return tors - rhs
        return self._pair_max(diff)

    def delta_max(self):
        return self._pair_max(self.delta)

    def n_omega_max(self):
        pairs = [self.n_omega(a, b) for a in range(self.n) for b in range(self.n)]
        return nan_max(nw.max_abs(nw.effective_order) for nw in pairs)


# -- special frames -----------------------------------------------------------

def _transform_connection(calc, conn: ConnectionForms, g: JetMatrix):
    """Connection forms after the frame change sigma = e . g."""
    ginv = g.inverse()
    ap = derive_matrix(calc, g, "del") + conn.aprime.right_mul_jets(g)
    asec = derive_matrix(calc, g, "delbar") + conn.asecond.right_mul_jets(g)
    return ConnectionForms(ap.left_mul_jets(ginv), asec.left_mul_jets(ginv))


def _transform_metric_matrix(hd: HermitianData, g: JetMatrix) -> JetMatrix:
    return g.T @ hd.H @ g.conj()


@dataclass
class SpecialFrameResult:
    g: JetMatrix                  # total frame change sigma = zeta . g
    conn: ConnectionForms         # connection forms in the sigma frame
    h: JetMatrix                  # metric coefficients in the sigma frame
    a_second_origin: float        # |A''_sigma(0)|
    del_a_second_origin: float    # |del A''_sigma(0)|
    h_pattern_violation: float    # linear / zz / zbzb coefficients of h_sigma


def special_frame(calc: FrameCalculus, hd: HermitianData) -> SpecialFrameResult:
    """Frame that is almost-holomorphic special at 0 with quadratic-only
    normal metric expansion.

    Stage one kills the connection form at the origin; stage two removes the
    holomorphic-quadratic metric terms and the (1,1)-derivative of the
    (0,1)-connection form at the origin.
    """
    n, order = calc.n, calc.order
    if not hd.is_orthonormal_at_origin():
        raise JetError("special frame construction needs H(0) = I")
    conn = chern_connection(calc, hd)
    # stage 1: g0 = I - sum_p A^{(p)}(0) z_p - sum_r A^{(rbar)}(0) zbar_r
    a10 = np.array([[[conn.aprime[k, l].coefficient((p,), ()).constant_term
                      for l in range(n)] for k in range(n)] for p in range(n)])
    a01 = np.array([[[conn.asecond[k, l].coefficient((), (p,)).constant_term
                      for l in range(n)] for k in range(n)] for p in range(n)])
    g0 = JetMatrix.identity(n, n, order) - JetMatrix.from_family(a10, 1, 0, n, order) \
        - JetMatrix.from_family(a01, 0, 1, n, order)
    conn1 = _transform_connection(calc, conn, g0)
    h1 = _transform_metric_matrix(hd, g0)
    # stage 2: subtract H^{j,k} z_j z_k and (del A'')^{j,kbar}(0) z_j zbar_k
    # (the families are indexed [j, k, m, l] for the entry (m, l) of g2)
    quad = h1.family(2, 0).transpose(0, 1, 3, 2)
    del_a2 = conn1.asecond.apply("del")
    mixed = np.array([[[[del_a2[m, l].coefficient((j,), (k,)).constant_term
                         for l in range(n)] for m in range(n)] for k in range(n)]
                      for j in range(n)])
    g2 = JetMatrix.identity(n, n, order) - (JetMatrix.from_family(quad, 2, 0, n, order)
                                            + JetMatrix.from_family(mixed, 1, 1, n, order))
    g_total = g0 @ g2
    conn2 = _transform_connection(calc, conn, g_total)
    h2 = _transform_metric_matrix(hd, g_total)
    a2_origin = nan_max(abs(conn2.asecond[k, l].coefficient((), (r,)).constant_term)
                        for k in range(n) for l in range(n) for r in range(n))
    del_a2_final = conn2.asecond.apply("del")
    del_a2_origin = nan_max(
        abs(del_a2_final[m, l].coefficient((j,), (k,)).constant_term)
        for m in range(n) for l in range(n) for j in range(n) for k in range(n))
    # metric pattern: no linear terms, no zz / zbzb quadratic terms
    viol = nan_max(abs(c) for l in range(n) for m in range(n)
                   for (alpha, beta), c in h2[l, m].terms.items()
                   if (sum(alpha), sum(beta)) in ((1, 0), (0, 1), (2, 0), (0, 2)))
    return SpecialFrameResult(g_total, conn2, h2, a2_origin, del_a2_origin, viol)


def almost_holomorphic_identities(calc, hd, sf: SpecialFrameResult):
    """Residuals at the origin, in the special frame, of the curvature
    pairing against second metric derivatives and of the i del delbar
    |sigma_k|^2 display.  The frame is orthonormal at 0, so the hermitian
    pairing picks out single output components there."""
    n = calc.n
    blocks = curvature(calc, sf.conn)
    fr = calc.frame
    h_jets = sf.h
    scal, psh = [], []
    for a in range(n):
        for b in range(n):
            xi10, eta10 = fr.zeta(a), fr.zeta(b)
            eta01 = fr.zeta_bar(b)
            for k in range(n):
                u = [sf.conn.aprime[m, k].evaluate([xi10]).constant_term
                     for m in range(n)]
                for l in range(n):
                    lhs = blocks.theta11[l, k].evaluate([xi10, eta01]).constant_term
                    ddh = apply_operator("delbar", apply_operator(
                        "del", calc.function(h_jets[k, l])))
                    rhs = ddh.evaluate([xi10, eta01]).constant_term
                    w = [sf.conn.aprime[m, l].evaluate([eta10]).constant_term
                         for m in range(n)]
                    rhs += sum(ui * np.conj(wi) for ui, wi in zip(u, w))
                    scal.append(abs(lhs - rhs))
        # i del delbar |sigma_k|^2 (xi, J xi) at 0
        xi = fr.real_frame_field(a)
        jxi = calc.structure.apply(xi)
        xi10, xi01 = fr.zeta(a), fr.zeta_bar(a)
        for k in range(n):
            f = calc.function(h_jets[k, k])
            ddbar = apply_operator("del", apply_operator("delbar", f))
            lhs = 1j * ddbar.evaluate([xi, jxi]).constant_term
            cval = blocks.theta11[k, k].evaluate([xi10, xi01]).constant_term
            u = [sf.conn.aprime[m, k].evaluate([xi10]).constant_term
                 for m in range(n)]
            rhs = -2 * cval + 2 * sum(abs(ui) ** 2 for ui in u)
            psh.append(abs(lhs - rhs))
    return {"pairing_residual": nan_max(scal), "psh_residual": nan_max(psh)}


# -- normal asymptotic expansions ---------------------------------------------

def connection_matrix_coordinate(calc, conn: ConnectionForms):
    """Coordinate-frame connection matrix A_z = g^{-1}(dg + A g) with
    g = Ginv, returned as one 2n x 2n JetMatrix per coordinate covector."""
    n, order = calc.n, calc.order
    dim = 2 * n
    g = calc.frame.Ginv
    g_inv = calc.frame.G
    # frame-form entries converted to coordinate components
    a_coord = [JetMatrix.zeros(dim, dim, n, order) for _ in range(dim)]
    for k in range(n):
        for l in range(n):
            rows = [(c, kk[0]) for (kk, _), c in conn.aprime[k, l].coeffs.items()] \
                + [(c, n + ll[0]) for (_, ll), c in conn.asecond[k, l].coeffs.items()]
            comp = [Jet.dot([(c, g[row, a]) for c, row in rows], n, order)
                    for a in range(dim)]
            for a in range(dim):
                a_coord[a].entries[k][l] = comp[a]
                # conjugate block: swap dz <-> dzbar components and conjugate
                a_coord[a].entries[n + k][n + l] = comp[
                    (a + n) % dim].conj()
    out = []
    for a in range(dim):
        dg = g.map(lambda e, a=a: e.partial(a))
        out.append(g_inv @ (dg + a_coord[a] @ g))
    return out


@dataclass
class AsymptoticCoefficients:
    s_zbar_z: np.ndarray     # S^{pbar,h}
    s_zbar_zbar: np.ndarray  # S^{pbar,hbar}
    s_z_z: np.ndarray        # S^{p,h}
    s_z_zbar: np.ndarray     # S^{p,hbar}
    s_hat: np.ndarray        # Shat^{p,h}
    h_lin: np.ndarray        # H^p_{l,m}
    b_lin: np.ndarray        # B^p matrices
    b_zz: np.ndarray
    b_mixed: np.ndarray
    c_origin: np.ndarray


def connection_asymptotics(calc: FrameCalculus, hd: HermitianData) -> AsymptoticCoefficients:
    """Closed-form first-order coefficient families of the coordinate-frame
    hermitian connection in normal coordinates with orthonormal frame."""
    s = calc.structure
    require_normal_form(s, "asymptotic families need normal coordinates of order >= 2")
    if not hd.is_orthonormal_at_origin():
        raise JetError("asymptotic families need an orthonormal frame at 0")
    n = calc.n
    lin = hd.H.family(1, 0)
    quad_zz = hd.H.family(2, 0)
    b1 = s.B.family(1, 0)
    b_zz = s.B.family(2, 0)
    b_mixed = s.B.family(1, 1)
    c0 = curvature_origin_formula(hd, s)
    s_zbar_z = np.zeros((n, n, n, n), dtype=complex)
    s_zbar_zbar = np.zeros((n, n, n, n), dtype=complex)
    s_z_z = np.zeros((n, n, n, n), dtype=complex)
    s_z_zbar = np.zeros((n, n, n, n), dtype=complex)
    s_hat = np.zeros((n, n, n, n), dtype=complex)
    # Signs of the two pure-B terms below are pinned by the assembled
    # coordinate connection matrix (bracket tables, hermitian relation,
    # frame change), slot by slot.
    for p in range(n):
        for h in range(n):
            for k in range(n):
                for l in range(n):
                    s_zbar_z[p, h, k, l] = -0.25 * sum(
                        (np.conj(b1[j][k, p]) - np.conj(b1[p][k, j]))
                        * b1[h][j, l] for j in range(n))
                    s_zbar_zbar[p, h, k, l] = -0.5j * np.conj(b_mixed[h, l][k, p]) \
                        - 0.5j * sum(lin[j, l, k] * np.conj(b1[h][j, p])
                                     for j in range(n))
                    s_hat[p, h, k, l] = 2 * quad_zz[p, h, l, k] \
                        - 0.5j * b_mixed[h, k][l, p] \
                        - 0.5j * sum(np.conj(lin[j, k, l]) * b1[h][j, p]
                                     for j in range(n))
                    s_z_z[p, h, k, l] = s_hat[p, h, k, l] - sum(
                        lin[p, l, j] * lin[h, j, k] for j in range(n))
                    s_z_zbar[p, h, k, l] = -c0[p, h, k, l] - 0.25 * sum(
                        np.conj(b1[j][k, h]) * b1[p][j, l] for j in range(n))
    return AsymptoticCoefficients(s_zbar_z, s_zbar_zbar, s_z_z, s_z_zbar, s_hat,
                                  lin, b1, b_zz, b_mixed, c0)


def asymptotics_vs_full_connection(calc, hd):
    """Compare the closed-form families against the order-one expansion of
    the numerically assembled coordinate connection matrix."""
    coeffs = connection_asymptotics(calc, hd)
    conn = chern_connection(calc, hd)
    a_z = connection_matrix_coordinate(calc, conn)
    n = calc.n

    def block(first, deg_z, deg_zbar):
        """[p, <slots>, k, l]: the (k, l) < n block of the given family of the
        coordinate covector first + p (dz_p for first = 0, dzbar_p for n)."""
        return np.array([a_z[first + p].family(deg_z, deg_zbar)[..., :n, :n]
                         for p in range(n)])

    diffs = [block(0, 0, 0) - coeffs.h_lin.transpose(0, 2, 1),
             block(n, 0, 0),
             block(0, 1, 0) - coeffs.s_z_z,
             block(0, 0, 1) - coeffs.s_z_zbar,
             block(n, 1, 0) - coeffs.s_zbar_z,
             block(n, 0, 1) - coeffs.s_zbar_zbar]
    # np.max, unlike max(), propagates NaN
    return float(np.max([np.abs(d).max() for d in diffs]))


def metric_coordinate_residual(calc, hd):
    """Compare the coordinate expansion of omega with its normal form:
    (i/2)[h_{l,m} - (1/4) sum B^j_{r,l} conj(B^k_{r,m}) z_j zbar_k]
    dz_l dzbar_m - (1/4) jet_2 B_{l,m} dz_l dz_m - conjugate, through
    degree 2.  (The quarter-term factor follows from the dual-frame
    expansion; pinned by the flat-frame fixture.)"""
    s = calc.structure
    n, order = calc.n, calc.order
    omega_c = to_coordinate_form(metric_form(calc, hd))
    b1 = s.B.family(1, 0)
    residuals = []
    # (1,1)-slots: key (l, n+m); corr[j, k, l, m] is the z_j zbar_k coefficient
    corr = np.array([[[[0.5j * (-0.25) * sum(b1[j][r, l] * np.conj(b1[k][r, m])
                                             for r in range(n))
                        for m in range(n)] for l in range(n)] for k in range(n)]
                     for j in range(n)])
    want = hd.H * 0.5j + JetMatrix.from_family(corr, 1, 1, n, order)
    for l in range(n):
        for m in range(n):
            got = omega_c.coeffs.get((min(l, n + m), max(l, n + m)),
                                     Jet.zero(n, order))
            residuals.append((got - want[l, m]).max_abs(2))
    # (2,0)-slots: -(1/4) (h . jet2 B) antisymmetrized; the matrix factor h
    # reduces to the identity in the orthonormal-to-second-order frame, which
    # is where the plain jet2 B display lives
    jet2b = s.B.map(lambda e: e.truncated(2).with_order(order))
    hb = (hd.H @ jet2b).map(lambda e: e.truncated(2).with_order(order))
    for l in range(n):
        for m in range(l + 1, n):
            got = omega_c.coeffs.get((l, m), Jet.zero(n, order))
            want = (hb[l, m] - hb[m, l]) * (-0.25)
            residuals.append((got - want).max_abs(2))
            got_bar = omega_c.coeffs.get((n + l, n + m), Jet.zero(n, order))
            residuals.append((got_bar - want.conj()).max_abs(2))
    return nan_max(residuals)


# -- metric transport and symplectic refinement --------------------------------

def transform_metric(calc_old: FrameCalculus, hd: HermitianData, change,
                     calc_new: FrameCalculus) -> HermitianData:
    """Metric coefficients in the new chart/frame after Z = phi(z).

    ``change`` is a ``ChartChange`` built for ``calc_new.order`` or the n
    jets of phi, which are wrapped in one.  The coordinate components of
    omega are pulled back by psi at the change's working order
    ``calc_new.order + 1`` and paired with the new frame.
    """
    n = calc_old.n
    order = calc_new.order
    change = ChartChange.at(change, order)
    w = change.working_order
    dim = 2 * n
    dpsi = change.dpsi
    w_comp = _omega_matrix(calc_old, hd, w).compose(change.sub)
    w_new = dpsi.T @ w_comp @ dpsi
    g_new = calc_new.frame.G.with_order(w)
    h_entries = []
    for l in range(n):
        row = []
        for m in range(n):
            acc = Jet.dot([(w_new[a, b] * g_new[a, l], g_new[b, n + m])
                           for a in range(dim) if g_new[a, l]
                           for b in range(dim) if g_new[b, n + m]], n, w)
            row.append((acc * (-2j)).truncated(order))
        h_entries.append(row)
    h = JetMatrix(h_entries)
    # clean rounding noise with an exact hermitian symmetrization
    return HermitianData(_hermitian_part(h), check=False)


@dataclass
class QuadraticChangeResult:
    structure: AlmostComplexStructure
    metric: HermitianData
    phi: list
    h_linear_max: float
    b1_deviation: float


def _apply_quadratic_change(calc, hd, sym_part, n_order):
    """Holomorphic change Z_m = z_m + (1/2) sum sym[p,l,m] z_p z_l followed by
    re-normalization of the structure; degree-one B data survives."""
    s = calc.structure
    n = s.n
    target = n_order + 1
    quad = JetMatrix.from_family((0.5 * sym_part).reshape(n, n, 1, n), 2, 0, n, target)
    phi = [Jet.variable(n, target, m) + quad[0, m] for m in range(n)]
    change = ChartChange(phi, s.order)
    s1 = transform_structure(s, change)
    calc1 = FrameCalculus(s1)
    hd1 = transform_metric(calc, hd, change, calc1)
    res = normalize_to_order(s1, n_order)
    s2 = res.structure
    calc2 = FrameCalculus(s2)
    hd2 = transform_metric(calc1, hd1, res.phi, calc2)
    sub = Substitution(phi)
    full_phi = [p.compose(sub) for p in res.phi]
    b1_dev = np.abs(s2.B.family(1, 0) - s.B.family(1, 0)).max()
    lin = hd2.H.family(1, 0)
    return QuadraticChangeResult(s2, hd2, full_phi, np.abs(lin).max(), b1_dev)


def symplectic_normalize(calc: FrameCalculus, hd: HermitianData,
                         n_order=None) -> QuadraticChangeResult:
    """Kill the linear metric terms of a closed hermitian form by the
    quadratic holomorphic change, preserving the degree-one structure data.

    The enabling condition is the symmetry H^p_{l,m} = H^l_{p,m} of the
    linear family, which is what closedness contributes at this order; its
    violation is reported as a non-closed metric.
    """
    n_order = calc.order if n_order is None else n_order
    lin = hd.H.family(1, 0)
    sym_err = np.abs(lin - lin.transpose(1, 0, 2)).max()
    if not sym_err <= 1e-9:   # a NaN defect fails too
        raise JetError(
            f"metric is not symplectic: linear-family symmetry defect "
            f"{sym_err:.2e} signals d omega != 0")
    if np.abs(lin).max() == 0:
        ident = [Jet.variable(calc.n, n_order + 1, m) for m in range(calc.n)]
        return QuadraticChangeResult(calc.structure, hd, ident, 0.0, 0.0)
    return _apply_quadratic_change(calc, hd, lin, n_order)


def antisymmetrize_metric_linear(calc: FrameCalculus, hd: HermitianData,
                                 n_order=None) -> QuadraticChangeResult:
    """Remove the symmetric part of the linear metric terms (general metric):
    afterwards H^p_{l,m} = -H^l_{p,m}, the convention under which the
    second-order geodesic expansion drops its velocity-squared constant."""
    n_order = calc.order if n_order is None else n_order
    lin = hd.H.family(1, 0)
    sym = 0.5 * (lin + lin.transpose(1, 0, 2))
    if np.abs(sym).max() == 0:
        ident = [Jet.variable(calc.n, n_order + 1, m) for m in range(calc.n)]
        return QuadraticChangeResult(calc.structure, hd, ident,
                                     np.abs(lin).max(), 0.0)
    return _apply_quadratic_change(calc, hd, sym, n_order)
