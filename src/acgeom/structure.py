"""Almost complex structures as truncated jet data.

A structure is stored through the two n x n blocks A(z), B(z) of its matrix
in the complexified coordinate frame (d/dz, d/dzbar),

    M(z) = [[A, conj(B)], [B, conj(A)]],

adapted so that A(0) = i I and B(0) = 0.  This module builds the canonical
(1,0)-frame and its dual, Lie-bracket coefficient tables, the torsion tensor
with an independent cross-check, and transport under coordinate changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import (Jet, JetError, JetMatrix, SingularMatrixError, Substitution,
                   block2x2, nan_max, series_inverse)


class VectorField:
    """Complexified vector field: 2n jet components on (d/dz_k, d/dzbar_k)."""

    __slots__ = ("n", "order", "components")

    def __init__(self, components):
        self.components = list(components)
        self.n = len(self.components) // 2
        self.order = self.components[0].order
        if len(self.components) != 2 * self.n:
            raise JetError("vector field needs 2n components")

    @classmethod
    def coordinate(cls, n, order, a):
        """The coordinate field d/dz_a (a < n) or d/dzbar_{a-n} (a >= n)."""
        comps = [Jet.zero(n, order) for _ in range(2 * n)]
        comps[a] = Jet.one(n, order)
        return cls(comps)

    def __add__(self, other):
        return VectorField([x + y for x, y in zip(self.components, other.components)])

    def __sub__(self, other):
        return VectorField([x - y for x, y in zip(self.components, other.components)])

    def __mul__(self, f):
        return VectorField([f * x for x in self.components])

    __rmul__ = __mul__

    def conj(self):
        comps = [c.conj() for c in self.components]
        return VectorField(comps[self.n:] + comps[: self.n])

    def derive(self, f: Jet, grad=None) -> Jet:
        """Directional derivative of a jet function along this field.

        ``grad`` may hold f's 2n partials (``f.gradient()``) when the caller
        derives f along several fields; otherwise each partial the field
        needs is taken here."""
        n = self.n
        pairs = []
        for a, comp in enumerate(self.components):
            if comp:
                if grad is not None:
                    d = grad[a]
                else:
                    d = f.dz(a) if a < n else f.dzbar(a - n)
                pairs.append((comp, d))
        return Jet.dot(pairs, f.n, f.order, f.exact)

    def bracket(self, other: "VectorField") -> "VectorField":
        """Lie bracket [X, Y] = X . grad Y - Y . grad X, componentwise."""
        return VectorField([self.derive(c) for c in other.components]) - \
            VectorField([other.derive(c) for c in self.components])

    def max_abs(self, max_degree=None):
        return nan_max(c.max_abs(max_degree) for c in self.components)

    @property
    def effective_order(self):
        return min(c.effective_order for c in self.components)


@dataclass
class ValidationReport:
    residual_square: float          # A^2 + I + conj(B) B
    residual_mixed: float           # conj(A) B + B A
    checked_order: int

    @property
    def max_residual(self):
        return nan_max((self.residual_square, self.residual_mixed))


class AlmostComplexStructure:
    """Blocks A, B of an almost complex structure in a coordinate chart germ."""

    def __init__(self, A: JetMatrix, B: JetMatrix):
        if A.rows != A.cols or B.rows != B.cols or A.rows != B.rows:
            raise JetError("A and B must be square of equal size")
        if A.order != B.order or A.n != B.n or A.rows != A.n:
            raise JetError("A, B must be n x n jet matrices in n variables")
        self.n = A.rows
        self.order = A.order
        self.A = A
        self.B = B
        self._matrix = None

    @classmethod
    def standard(cls, n, order):
        a = JetMatrix.identity(n, n, order) * 1j
        b = JetMatrix.zeros(n, n, n, order)
        return cls(a, b)

    def matrix(self) -> JetMatrix:
        """Full 2n x 2n complexified matrix of J, built on first use: a
        structure's blocks are never changed after construction."""
        if self._matrix is None:
            self._matrix = block2x2(self.A, self.B.conj(), self.B, self.A.conj())
        return self._matrix

    def apply(self, x: VectorField) -> VectorField:
        m = self.matrix()
        return VectorField([Jet.dot(zip(row, x.components), self.n, self.order)
                            for row in m.entries])

    def validate(self) -> ValidationReport:
        eff = min(self.A.effective_order, self.B.effective_order)
        ident = JetMatrix.identity(self.n, self.n, self.order)
        r1 = (self.A @ self.A + ident + self.B.conj() @ self.B).max_abs(eff)
        r2 = (self.A.conj() @ self.B + self.B @ self.A).max_abs(eff)
        return ValidationReport(r1, r2, eff)

    def is_adapted(self, tol):
        a0 = self.A.constant().astype(complex)
        b0 = self.B.constant().astype(complex)
        return (np.abs(a0 - 1j * np.eye(self.n)).max() <= tol
                and np.abs(b0).max() <= tol)

    def truncated(self, new_order):
        return AlmostComplexStructure(self.A.truncated(new_order),
                                      self.B.truncated(new_order))


class Frame:
    """Canonical (1,0)-frame zeta and its dual, as 2n x 2n change matrices.

    Columns 0..n-1 of ``G`` carry the components of zeta_k on the coordinate
    fields; columns n..2n-1 carry conj(zeta_k).  Rows of ``Ginv`` carry the
    dual covectors on (dz, dzbar).

    The 2n frame fields are built once; ``zeta``/``zeta_bar`` return those
    same objects, and ``real_frame_field`` builds each of its n fields once,
    on first use.  The frame components of all 3n fields are paired once, on
    first use.
    """

    def __init__(self, g: JetMatrix, ginv: JetMatrix):
        self.G = g
        self.Ginv = ginv
        self.n = g.rows // 2
        self.order = g.order
        dim = 2 * self.n
        self._fields = tuple(VectorField([g[i, a] for i in range(dim)])
                             for a in range(dim))
        self._real_fields = [None] * self.n
        self._field_slot = {id(f): a for a, f in enumerate(self._fields)}
        self._field_comps = [None] * (dim + self.n)

    def zeta(self, k) -> VectorField:
        return self._fields[k]

    def zeta_bar(self, k) -> VectorField:
        return self._fields[self.n + k]

    def real_frame_field(self, k) -> VectorField:
        """zeta_k + conj(zeta_k), a real tangent field."""
        x = self._real_fields[k]
        if x is None:
            x = self._real_fields[k] = self.zeta(k) + self.zeta_bar(k)
            self._field_slot[id(x)] = 2 * self.n + k
        return x

    def dual_pair(self, k, x: VectorField) -> Jet:
        """Pairing of zeta*_k (k < n) or its conjugate (k >= n) with x."""
        return Jet.dot(zip(self.Ginv.entries[k], x.components), self.n, self.order)

    def to_frame_components(self, x: VectorField):
        """The 2n pairings of x with the dual frame, as a tuple."""
        a = self._field_slot.get(id(x))
        if a is None:
            return tuple(self.dual_pair(k, x) for k in range(2 * self.n))
        comps = self._field_comps[a]
        if comps is None:
            comps = self._field_comps[a] = tuple(
                self.dual_pair(k, x) for k in range(2 * self.n))
        return comps

    def from_frame_components(self, comps) -> VectorField:
        return VectorField([Jet.dot(zip(row, comps), self.n, self.order)
                            for row in self.G.entries])


def frame_and_dual(s: AlmostComplexStructure) -> Frame:
    """Frame zeta_k = (d/dz_k)^{1,0} and dual via the 2n x 2n inverse."""
    n, order = s.n, s.order
    ident = JetMatrix.identity(n, n, order)
    fz = (ident - 1j * s.A) * 0.5
    fzb = s.B * (-0.5j)
    g = block2x2(fz, fzb.conj(), fzb, fz.conj())
    try:
        ginv = g.inverse()
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            "frame matrix singular at the origin; structure is not adapted") from exc
    return Frame(g, ginv)


class BracketCoefficients:
    """Tables M, N, U, V of frame-bracket coefficients.

    Families are indexed by the output direction k; entries by the bracket
    arguments (j, r):

        [zetabar_j, zetabar_r]^{1,0} = sum_k N^k_{j,r} zeta_k
        [zetabar_j, zetabar_r]^{0,1} = sum_k M^k_{j,r} zetabar_k
        [zeta_j, zetabar_r]^{1,0}    = sum_k U^k_{j,r} zeta_k
        [zeta_j, zetabar_r]^{0,1}    = sum_k V^k_{j,r} zetabar_k
    """

    def __init__(self, M, N, U, V):
        self.M = M
        self.N = N
        self.U = U
        self.V = V
        self._conj = {}

    def conj_table(self, name):
        """Table ``name`` ("M", "N", "U" or "V") with every entry
        conjugated, built on first use."""
        got = self._conj.get(name)
        if got is None:
            got = self._conj[name] = [fam.conj() for fam in getattr(self, name)]
        return got


def bracket_coefficients(s: AlmostComplexStructure, frame: Frame):
    """Coefficient tables of the frame-field Lie brackets."""
    n, order = s.n, s.order
    mbar = [JetMatrix.zeros(n, n, n, order) for _ in range(n)]
    nbar = [JetMatrix.zeros(n, n, n, order) for _ in range(n)]
    u = [JetMatrix.zeros(n, n, n, order) for _ in range(n)]
    v = [JetMatrix.zeros(n, n, n, order) for _ in range(n)]
    zetas = [frame.zeta(k) for k in range(n)]
    zetabars = [frame.zeta_bar(k) for k in range(n)]
    for j in range(n):
        for r in range(n):
            if r > j:
                fc = frame.to_frame_components(zetas[j].bracket(zetas[r]))
                for k in range(n):
                    mbar[k].entries[j][r] = fc[k]
                    mbar[k].entries[r][j] = -fc[k]
                    nbar[k].entries[j][r] = fc[n + k]
                    nbar[k].entries[r][j] = -fc[n + k]
            fc = frame.to_frame_components(zetas[j].bracket(zetabars[r]))
            for k in range(n):
                u[k].entries[j][r] = fc[k]
                v[k].entries[j][r] = fc[n + k]
    m = [mb.conj() for mb in mbar]
    nn = [nb.conj() for nb in nbar]
    return BracketCoefficients(m, nn, u, v)


class TorsionTensor:
    """Components Nbar^r_{k,l} of the torsion in the zeta-frame."""

    def __init__(self, nbar, frame: Frame):
        self.nbar = nbar          # list over r of antisymmetric n x n JetMatrix
        self.frame = frame
        self.n = len(nbar)

    def max_abs(self, max_degree=None):
        return nan_max(m.max_abs(max_degree) for m in self.nbar)

    def coefficient(self, r, k, l) -> Jet:
        return self.nbar[r][k, l]

    def nijenhuis(self, xi: VectorField, eta: VectorField) -> VectorField:
        """N_J = tau_J + conj(tau_J) evaluated on (complexified) fields."""
        fr = self.frame
        n, order = self.n, fr.order
        xi_c = fr.to_frame_components(xi)
        eta_c = fr.to_frame_components(eta)
        terms = [[] for _ in range(2 * n)]
        for k in range(n):
            for l in range(k + 1, n):
                pair10 = xi_c[k] * eta_c[l] - eta_c[k] * xi_c[l]
                pair01 = (xi_c[n + k] * eta_c[n + l] - eta_c[n + k] * xi_c[n + l])
                for r in range(n):
                    if pair10:
                        terms[n + r].append((self.nbar[r][k, l], pair10))
                    if pair01:
                        terms[r].append((self.nbar[r][k, l].conj(), pair01))
        return fr.from_frame_components([Jet.dot(t, n, order) for t in terms])


def torsion_tensor(s: AlmostComplexStructure, frame: Frame | None = None,
                   bc: BracketCoefficients | None = None) -> TorsionTensor:
    frame = frame_and_dual(s) if frame is None else frame
    bc = bracket_coefficients(s, frame) if bc is None else bc
    nbar = [b.conj() for b in bc.N]
    return TorsionTensor(nbar, frame)


def nijenhuis_bracket_formula(s: AlmostComplexStructure, xi: VectorField,
                              eta: VectorField) -> VectorField:
    """4 N_J(xi, eta) = [xi,eta] + J[xi,J eta] + J[J xi,eta] - [J xi,J eta]."""
    jxi, jeta = s.apply(xi), s.apply(eta)
    total = (xi.bracket(eta) + s.apply(xi.bracket(jeta))
             + s.apply(jxi.bracket(eta)) - jxi.bracket(jeta))
    return VectorField([0.25 * c for c in total.components])


def nijenhuis_check(s: AlmostComplexStructure, tors: TorsionTensor):
    """Max deviation between frame-bracket torsion and the 4N_J identity.

    Both paths are evaluated on all coordinate-field pairs and compared up to
    the joint effective order.
    """
    n, order = s.n, s.order
    residuals = []
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            xi = VectorField.coordinate(n, order, a)
            eta = VectorField.coordinate(n, order, b)
            via_tensor = tors.nijenhuis(xi, eta)
            via_brackets = nijenhuis_bracket_formula(s, xi, eta)
            diff = via_tensor - via_brackets
            eff = min(via_tensor.effective_order, via_brackets.effective_order)
            residuals.append(diff.max_abs(eff))
    return nan_max(residuals)


def _jacobian(phi, order):
    """Complexified 2n x 2n Jacobian of a polynomial coordinate change."""
    n = len(phi)
    rows = []
    for k in range(n):
        rows.append([phi[k].dz(s).trusted(order) for s in range(n)]
                    + [phi[k].dzbar(s).trusted(order) for s in range(n)])
    for k in range(n):
        rows.append([phi[k].dzbar(s).conj().trusted(order) for s in range(n)]
                    + [phi[k].dz(s).conj().trusted(order) for s in range(n)])
    return JetMatrix(rows)


class ChartChange:
    """One coordinate change Z = phi(z), built once for outputs of order
    ``order`` and shared by every transport through it.

    Transports keep degrees <= ``order``.  A degree-d coefficient of a
    derivative needs its input through degree d + 1, so the Jacobians need
    phi and psi through ``order + 1`` and M o psi needs psi through
    ``order``: every part works at ``working_order`` = ``order + 1``.  phi
    is re-embedded there (padded as an exact polynomial when shorter,
    truncated when longer), and the change holds both Jacobians ``dphi`` and
    ``dpsi`` and one ``Substitution`` of psi = ``series_inverse(phi)``, whose
    image memo the composes of the structure and of the metric share.
    """

    __slots__ = ("order", "working_order", "dphi", "dpsi", "sub")

    def __init__(self, phi, order):
        w = self.working_order = order + 1
        phi_w = [p.padded(w) for p in phi]
        psi = series_inverse(phi_w)
        self.order = order
        self.dphi, self.dpsi = (_jacobian(jets, w) for jets in (phi_w, psi))
        self.sub = Substitution(psi)

    @classmethod
    def at(cls, change, order):
        """``change`` if it is a ChartChange for ``order``; a list of n jets
        is wrapped in a new one."""
        if not isinstance(change, cls):
            return cls(change, order)
        if change.order != order:
            raise JetError(f"chart change built for order {change.order}, "
                           f"used at order {order}")
        return change


def transform_structure(s: AlmostComplexStructure, change) -> AlmostComplexStructure:
    """Push the structure through the coordinate change Z = phi(z).

    ``change`` is a ``ChartChange`` built for ``s.order`` or the n jets of
    the new coordinates (polynomial germs), which are wrapped in one.  The
    matrix transforms by conjugation with the Jacobian and composition with
    the inverse germ, at the change's working order ``s.order + 1``, which
    keeps every degree <= ``s.order`` trustworthy.
    """
    change = ChartChange.at(change, s.order)
    m_of_psi = s.matrix().with_order(change.working_order).compose(change.sub)
    dphi_of_psi = change.dphi.compose(change.sub)
    m_new = dphi_of_psi @ m_of_psi @ change.dpsi
    n = s.n
    a_new = JetMatrix([[m_new[i, j].truncated(s.order) for j in range(n)]
                       for i in range(n)])
    b_new = JetMatrix([[m_new[n + i, j].truncated(s.order) for j in range(n)]
                       for i in range(n)])
    return AlmostComplexStructure(a_new, b_new)


def adapt_linear(s: AlmostComplexStructure):
    """Complex-linear change making A(0) = i I, B(0) = 0.

    Returns (adapted structure, phi) where phi is the linear change germ.
    Built from a basis of the +i eigenspace of the constant matrix.
    """
    n, order = s.n, s.order
    m0 = s.matrix().constant()
    if np.abs(m0 @ m0 + np.eye(2 * n)).max() > 1e-8:
        raise JetError("constant term does not square to -identity")
    w, vecs = np.linalg.eig(m0)
    plus = [vecs[:, i] for i in range(2 * n) if abs(w[i] - 1j) < 1e-6]
    if len(plus) != n:
        raise JetError("defective eigenstructure: +i eigenspace has wrong dimension")
    q = np.zeros((2 * n, 2 * n), dtype=complex)
    for j, vec in enumerate(plus):
        q[:, j] = vec
        q[:, n + j] = np.concatenate([vec[n:], vec[:n]]).conjugate()
    if abs(np.linalg.det(q)) < 1e-10:
        raise JetError("eigenvectors do not span; cannot adapt")
    lin = np.linalg.inv(q)
    zs = [Jet.variable(n, order, l) for l in range(n)]
    zbs = [Jet.variable(n, order, l, conjugate=True) for l in range(n)]
    phi = [Jet.dot([t for l in range(n) for t in ((zs[l], lin[k, l]), (zbs[l], lin[k, n + l]))],
                   n, order)
           for k in range(n)]
    return transform_structure(s, phi), phi


def structure_from_deformation(n, order, seed):
    """Seeded test generator: J = (I+P) J0 (I+P)^{-1} with P a small real
    perturbation (six terms of degree <= 2, coefficients 0.08 times a
    complex normal), then a linear adaptation at the origin."""
    rng = np.random.default_rng(seed)
    fam = {}
    for _ in range(6):
        i = int(rng.integers(0, 2 * n))
        j = int(rng.integers(0, 2 * n))
        d = int(rng.integers(0, 3))
        exps = [0] * (2 * n)
        for _ in range(d):
            exps[int(rng.integers(0, 2 * n))] += 1
        c = 0.08 * complex(rng.normal(), rng.normal())
        key = (tuple(exps[:n]), tuple(exps[n:]))
        fam.setdefault(key, np.zeros((2 * n, 2 * n), dtype=complex))[i, j] += c
    p = JetMatrix.from_coefficients(fam, 2 * n, 2 * n, n, order)
    # conjugate-symmetrize for reality of J
    swapped = JetMatrix([[p[(i + n) % (2 * n), (j + n) % (2 * n)].conj()
                          for j in range(2 * n)] for i in range(2 * n)])
    p = (p + swapped) * 0.5
    p0 = np.abs(p.constant())
    if p0.sum(axis=1).max() >= 1.0:
        raise JetError("perturbation too large: I+P may be singular")
    ident = JetMatrix.identity(2 * n, n, order)
    j0 = JetMatrix.from_constant(
        np.diag([1j] * n + [-1j] * n), n, order)
    m = (ident + p) @ j0 @ (ident + p).inverse()
    a = JetMatrix([[m[i, j] for j in range(n)] for i in range(n)])
    b = JetMatrix([[m[n + i, j] for j in range(n)] for i in range(n)])
    raw = AlmostComplexStructure(a, b)
    adapted, _ = adapt_linear(raw)
    return adapted
