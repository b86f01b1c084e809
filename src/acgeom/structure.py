"""Almost complex structures as truncated jet data.

A structure is stored through the two n x n blocks A(z), B(z) of its matrix
in the complexified coordinate frame (d/dz, d/dzbar),

    M(z) = [[A, conj(B)], [B, conj(A)]],

adapted so that A(0) = i I and B(0) = 0.  This module builds the canonical
(1,0)-frame and its dual, Lie-bracket coefficient tables, the torsion tensor
with an independent cross-check, and transport under coordinate changes.
``word_value`` is the one pairing of a wedge word with vector fields, which
the torsion tensor and every form evaluator share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .jets import (Jet, JetError, JetMatrix, SingularMatrixError, Substitution,
                   block2x2, nan_max, series_inverse)


def _sorted_sign(seq):
    """Sign of the permutation sorting seq; 0 on duplicates."""
    arr = list(seq)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j] < arr[j - 1]:
            arr[j], arr[j - 1] = arr[j - 1], arr[j]
            sign = -sign
            j -= 1
    for a, b in zip(arr, arr[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(arr)


@lru_cache(maxsize=None)
def _signed_permutations(deg):
    """(perm, sign) over the permutations of range(deg), in
    ``itertools.permutations`` order; the int sign scales float and exact
    jets alike."""
    return tuple((perm, _sorted_sign(perm)[0])
                 for perm in permutations(range(deg)))


def word_value(comps, slots, n, order) -> Jet:
    """Value of the wedge word of the covectors ``slots`` on the
    k = len(slots) fields whose components are ``comps[field][slot]``: the
    determinant det[comps[j][slots[i]]] (Spivak, Calculus on Manifolds, ch. 4).

    Each permutation's product sign * comps[perm[0]][slots[0]] * ... is
    multiplied left to right and stops at its first zero partial product;
    the value trusts no degree beyond the least effective order of its
    entries.  A slot that is empty in every field makes every product
    vanish, so the value is then the empty jet at once.  The empty word is
    the constant 1.  The value has the mode of the components; with no
    fields it is a float jet.
    """
    exact = bool(comps) and comps[0][0].exact
    if not slots:
        return Jet.one(n, order, exact)
    # a product that stops early, or vanishes, drops factors whose orders
    # still bound the value
    floor = min(row[s].effective_order for row in comps for s in slots)
    if not all(any(row[s] for row in comps) for s in slots):
        return Jet._make(n, order, {}, floor, exact)
    terms = []
    for perm, sign in _signed_permutations(len(slots)):
        prod = None
        for slot, field in zip(slots, perm):
            factor = comps[field][slot]
            prod = factor if prod is None else prod * factor
            if not prod:
                break
        if prod:
            terms.append((prod, sign))
    value = Jet.dot(terms, n, order, exact)
    return value if value.effective_order <= floor else value.trusted(floor)


class _Partials:
    """The partials of one jet, each taken on first use and kept in a memo
    under (index, variable); ``VectorField.derive`` reads it as a gradient."""

    __slots__ = ("jet", "memo", "index")

    def __init__(self, jet, memo, index):
        self.jet, self.memo, self.index = jet, memo, index

    def __getitem__(self, a):
        d = self.memo.get((self.index, a))
        if d is None:
            f, n = self.jet, self.jet.n
            d = self.memo[self.index, a] = f.dz(a) if a < n else f.dzbar(a - n)
        return d


class VectorField:
    """Complexified vector field: 2n jet components on (d/dz_k, d/dzbar_k).

    Fields are never changed after construction, so three memos live on the
    field itself: ``Frame.to_frame_components`` keeps the field's pairings
    with the dual frame, as (frame, components, partials), and ``partials``
    keeps each partial of a coordinate component once taken, in
    ``_partials``, keyed by (component, variable); ``Frame.frame_partials``
    keeps those of the frame components beside them.  So a field bracketed
    with, or derived along, many others takes each partial once."""

    __slots__ = ("n", "order", "components", "_frame_comps", "_partials")

    def __init__(self, components):
        self.components = list(components)
        self._frame_comps = None
        self._partials = {}
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

    def derive(self, f: Jet, grad) -> Jet:
        """Directional derivative of a jet function along this field.

        ``grad[a]`` is f's partial along coordinate field a: ``grad`` holds
        f's 2n partials (``f.gradient()``), or reads them from a field's memo
        (``partials``, ``Frame.frame_partials``), which takes each on first
        use.  A constant f (no term above degree 0) has no partial to read:
        its derivative is the empty jet at once, trusted as ``Jet.dot`` over
        the pairs would trust it, to the least of f's order and, over the
        nonzero components, their trust and f's less one."""
        if f._terms.keys() <= {0}:
            eff = f.order
            for comp in self.components:
                if comp:
                    eff = min(eff, comp.effective_order, f.effective_order - 1)
            return Jet._make(f.n, f.order, {}, eff, f.exact)
        pairs = [(comp, grad[a]) for a, comp in enumerate(self.components) if comp]
        return Jet.dot(pairs, f.n, f.order, f.exact)

    def partials(self, i):
        """The partials of component i, from this field's memo, as a
        gradient for ``derive``."""
        return _Partials(self.components[i], self._partials, i)

    def bracket(self, other: "VectorField") -> "VectorField":
        """Lie bracket [X, Y] = X . grad Y - Y . grad X, componentwise; the
        partials of each field's components come from its memo."""
        return VectorField(self._along(other)) - VectorField(other._along(self))

    def _along(self, other):
        """X . grad Y for X = self and Y = other."""
        return [self.derive(f, other.partials(i)) for i, f in enumerate(other.components)]

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
    on first use.  Any field is paired with the dual frame once, on first
    use (see ``VectorField``).
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

    def zeta(self, k) -> VectorField:
        return self._fields[k]

    def zeta_bar(self, k) -> VectorField:
        return self._fields[self.n + k]

    def real_frame_field(self, k) -> VectorField:
        """zeta_k + conj(zeta_k), a real tangent field."""
        x = self._real_fields[k]
        if x is None:
            x = self._real_fields[k] = self.zeta(k) + self.zeta_bar(k)
        return x

    def dual_pair(self, k, x: VectorField) -> Jet:
        """Pairing of zeta*_k (k < n) or its conjugate (k >= n) with x."""
        return Jet.dot(zip(self.Ginv.entries[k], x.components), self.n, self.order)

    def to_frame_components(self, x: VectorField):
        """The 2n pairings of x with the dual frame, as a tuple, kept on x."""
        return self._frame_memo(x)[1]

    def frame_partials(self, x: VectorField, k):
        """The partials of x's frame component k, kept on x beside the
        components, as a gradient for ``VectorField.derive``."""
        _, comps, memo = self._frame_memo(x)
        return _Partials(comps[k], memo, k)

    def _frame_memo(self, x):
        memo = x._frame_comps
        if memo is None or memo[0] is not self:
            memo = x._frame_comps = (
                self, tuple(self.dual_pair(k, x) for k in range(2 * self.n)), {})
        return memo

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


def _zeta_brackets(frame: Frame, n, order):
    """The tables mbar, nbar over k of the n(n-1)/2 brackets of (1,0)-frame
    fields, [zeta_j, zeta_r] = sum_k mbar^k_{j,r} zeta_k + nbar^k_{j,r}
    zetabar_k, each bracket formed once for j < r and entered at both
    (j, r) and (r, j)."""
    mbar = [JetMatrix.zeros(n, n, n, order) for _ in range(n)]
    nbar = [JetMatrix.zeros(n, n, n, order) for _ in range(n)]
    for j in range(n):
        for r in range(j + 1, n):
            fc = frame.to_frame_components(frame.zeta(j).bracket(frame.zeta(r)))
            for k in range(n):
                mbar[k].entries[j][r] = fc[k]
                mbar[k].entries[r][j] = -fc[k]
                nbar[k].entries[j][r] = fc[n + k]
                nbar[k].entries[r][j] = -fc[n + k]
    return mbar, nbar


def bracket_coefficients(s: AlmostComplexStructure, frame: Frame):
    """Coefficient tables of the frame-field Lie brackets."""
    n, order = s.n, s.order
    mbar, nbar = _zeta_brackets(frame, n, order)
    u = [JetMatrix.zeros(n, n, n, order) for _ in range(n)]
    v = [JetMatrix.zeros(n, n, n, order) for _ in range(n)]
    for j in range(n):
        for r in range(n):
            fc = frame.to_frame_components(frame.zeta(j).bracket(frame.zeta_bar(r)))
            for k in range(n):
                u[k].entries[j][r] = fc[k]
                v[k].entries[j][r] = fc[n + k]
    bc = BracketCoefficients([mb.conj() for mb in mbar], [nb.conj() for nb in nbar], u, v)
    bc._conj.update(M=mbar, N=nbar)     # conj is exact: the tables conjugated back
    return bc


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
        comps = [fr.to_frame_components(xi), fr.to_frame_components(eta)]
        terms = [[] for _ in range(2 * n)]
        for k in range(n):
            for l in range(k + 1, n):
                pair10 = word_value(comps, (k, l), n, order)
                pair01 = word_value(comps, (n + k, n + l), n, order)
                for r in range(n):
                    if pair10:
                        terms[n + r].append((self.nbar[r][k, l], pair10))
                    if pair01:
                        terms[r].append((self.nbar[r][k, l].conj(), pair01))
        return fr.from_frame_components([Jet.dot(t, n, order) for t in terms])


def torsion_tensor(s: AlmostComplexStructure, frame: Frame | None = None,
                   bc: BracketCoefficients | None = None) -> TorsionTensor:
    """The torsion tensor, read from the bracket tables ``bc`` when given;
    without them only the n(n-1)/2 brackets [zeta_j, zeta_r] that its
    coefficients come from are formed."""
    frame = frame_and_dual(s) if frame is None else frame
    nbar = _zeta_brackets(frame, s.n, s.order)[1] if bc is None else bc.conj_table("N")
    return TorsionTensor(nbar, frame)


def nijenhuis_bracket_formula(s: AlmostComplexStructure, xi: VectorField,
                              eta: VectorField, jxi: VectorField,
                              jeta: VectorField) -> VectorField:
    """4 N_J(xi, eta) = [xi,eta] + J[xi,J eta] + J[J xi,eta] - [J xi,J eta],
    given jxi = J xi and jeta = J eta."""
    total = (xi.bracket(eta) + s.apply(xi.bracket(jeta))
             + s.apply(jxi.bracket(eta)) - jxi.bracket(jeta))
    return VectorField([0.25 * c for c in total.components])


def nijenhuis_check(s: AlmostComplexStructure, tors: TorsionTensor):
    """Max deviation between frame-bracket torsion and the 4N_J identity.

    Both paths are evaluated on all coordinate-field pairs and compared up to
    the joint effective order; J is applied to each coordinate field once.
    """
    n, order = s.n, s.order
    coords = [VectorField.coordinate(n, order, a) for a in range(2 * n)]
    j_coords = [s.apply(x) for x in coords]
    residuals = []
    for a, xi in enumerate(coords):
        for b in range(a + 1, 2 * n):
            eta = coords[b]
            via_tensor = tors.nijenhuis(xi, eta)
            via_brackets = nijenhuis_bracket_formula(s, xi, eta, j_coords[a], j_coords[b])
            diff = via_tensor - via_brackets
            eff = min(via_tensor.effective_order, via_brackets.effective_order)
            residuals.append(diff.max_abs(eff))
    return nan_max(residuals)


def _jacobian(phi, order):
    """Complexified 2n x 2n Jacobian of a polynomial coordinate change.

    Row k holds the gradient of phi_k, one ``gradient()`` per jet; row n + k
    is the conjugate of that row with its z and zbar halves swapped.
    """
    n = len(phi)
    top = [[t.trusted(order) for t in p.gradient()] for p in phi]
    bottom = [[t.conj() for t in g[n:] + g[:n]] for g in top]
    return JetMatrix(top + bottom)


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
    ``dpsi`` stays full 2n x 2n: ``transform_structure`` reads only its first
    n columns, but ``chern.transform_metric`` reads all of them.
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
    keeps every degree <= ``s.order`` trustworthy.  Only the first n columns
    of the new matrix, [A; B], are kept, so the product is formed as
    ``(dphi o psi @ M o psi) @ dpsi[:, :n]``; each kept entry sums the same
    pairs as in the full product.
    """
    change = ChartChange.at(change, s.order)
    n = s.n
    m_of_psi = s.matrix().with_order(change.working_order).compose(change.sub)
    dphi_of_psi = change.dphi.compose(change.sub)
    dpsi_kept = JetMatrix([row[:n] for row in change.dpsi.entries])
    m_new = dphi_of_psi @ m_of_psi @ dpsi_kept
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
    if not np.abs(m0 @ m0 + np.eye(2 * n)).max() <= 1e-8:   # a NaN fails too
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
