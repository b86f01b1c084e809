"""(p,q)-forms with jet coefficients in the canonical frame.

Forms live in the zeta-frame of a structure; the four first-order operators
(types (1,0), (0,1), (2,-1), (-1,2)) act through the bracket-coefficient
tables.  A conversion to the coordinate covector basis provides the oracle
path for the exterior-derivative decomposition and for metric work.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from .jets import Jet, JetError, nan_max
from .structure import (AlmostComplexStructure, Frame, bracket_coefficients,
                        frame_and_dual)

OPERATOR_KINDS = ("del", "delbar", "theta", "thetabar")


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


def normalize_factors(factors):
    """Canonicalize a wedge word of tagged covectors.

    ``factors`` lists (tag, index) with tag 0 for zeta*_i and 1 for its
    conjugate.  Returns (sign, K, L) with strictly increasing tuples, or
    sign 0 when a factor repeats.
    """
    sign, arr = _sorted_sign(factors)
    if sign == 0:
        return 0, (), ()
    k = tuple(i for t, i in arr if t == 0)
    l = tuple(i for t, i in arr if t == 1)
    return sign, k, l


class FrameCalculus:
    """Frame, bracket tables and directional derivatives for one structure."""

    def __init__(self, s: AlmostComplexStructure, frame: Frame | None = None):
        self.structure = s
        self.frame = frame_and_dual(s) if frame is None else frame
        self.bc = bracket_coefficients(s, self.frame)
        self.n = s.n
        self.order = s.order
        self._zetas = [self.frame.zeta(k) for k in range(s.n)]
        self._zetabars = [self.frame.zeta_bar(k) for k in range(s.n)]

    def zeta_derive(self, r, f: Jet) -> Jet:
        return self._zetas[r].derive(f)

    def zetabar_derive(self, r, f: Jet) -> Jet:
        return self._zetabars[r].derive(f)

    def function(self, f: Jet):
        return PQForm(self, 0, 0, {((), ()): f})

    def frame_covector(self, k, conjugate=False):
        if conjugate:
            return PQForm(self, 0, 1, {((), (k,)): Jet.one(self.n, self.order)})
        return PQForm(self, 1, 0, {((k,), ()): Jet.one(self.n, self.order)})

    def monomial_forms(self, max_degree=2):
        """All basis wedge monomials of total degree <= max_degree."""
        out = []
        for p in range(max_degree + 1):
            for q in range(max_degree + 1 - p):
                for kk in combinations(range(self.n), p):
                    for ll in combinations(range(self.n), q):
                        out.append(PQForm(self, p, q, {
                            (kk, ll): Jet.one(self.n, self.order)}))
        return out


class PQForm:
    """Form of fixed bidegree: coefficients u_{K,L} on zeta*_K wedge zetabar*_L."""

    __slots__ = ("calc", "p", "q", "coeffs")

    def __init__(self, calc: FrameCalculus, p, q, coeffs):
        self.calc = calc
        self.p = p
        self.q = q
        self.coeffs = {}
        if (p < 0 or q < 0) and coeffs:
            raise JetError("negative bidegree forms must be empty")
        for (k, l), jet in coeffs.items():
            if len(k) != p or len(l) != q:
                raise JetError(f"index tuples {(k, l)} do not match bidegree ({p},{q})")
            if list(k) != sorted(set(k)) or list(l) != sorted(set(l)):
                raise JetError("index tuples must be strictly increasing")
            if jet.terms:
                self.coeffs[(tuple(k), tuple(l))] = jet

    def _compat(self, other):
        if self.calc is not other.calc:
            raise JetError("forms live in different frames")
        if self.p != other.p or self.q != other.q:
            raise JetError(f"bidegree mismatch ({self.p},{self.q}) vs "
                           f"({other.p},{other.q})")

    def __add__(self, other):
        self._compat(other)
        coeffs = dict(self.coeffs)
        for key, jet in other.coeffs.items():
            coeffs[key] = coeffs[key] + jet if key in coeffs else jet
        return PQForm(self.calc, self.p, self.q, coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PQForm(self.calc, self.p, self.q,
                      {k: -v for k, v in self.coeffs.items()})

    def __mul__(self, scalar):
        return PQForm(self.calc, self.p, self.q,
                      {k: v * scalar for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def conj(self):
        """Conjugate form, of bidegree (q, p)."""
        sign = (-1) ** (self.p * self.q)
        coeffs = {(l, k): sign * jet.conj() for (k, l), jet in self.coeffs.items()}
        return PQForm(self.calc, self.q, self.p, coeffs)

    def max_abs(self, max_degree=None):
        return nan_max(j.max_abs(max_degree) for j in self.coeffs.values())

    @property
    def effective_order(self):
        if not self.coeffs:
            return self.calc.order
        return min(j.effective_order for j in self.coeffs.values())

    def coefficient(self, k, l) -> Jet:
        return self.coeffs.get((tuple(k), tuple(l)),
                               Jet.zero(self.calc.n, self.calc.order))

    def wedge(self, other: "PQForm") -> "PQForm":
        if self.calc is not other.calc:
            raise JetError("forms live in different frames")
        p, q = self.p + other.p, self.q + other.q
        acc = {}
        for (k1, l1), c1 in self.coeffs.items():
            w1 = [(0, i) for i in k1] + [(1, i) for i in l1]
            for (k2, l2), c2 in other.coeffs.items():
                word = w1 + [(0, i) for i in k2] + [(1, i) for i in l2]
                sign, kk, ll = normalize_factors(word)
                if sign == 0:
                    continue
                contrib = (c1 * c2) * float(sign)
                key = (kk, ll)
                acc[key] = acc[key] + contrib if key in acc else contrib
        return PQForm(self.calc, p, q, acc)

    def evaluate(self, fields) -> Jet:
        """Evaluate on p+q vector fields (antisymmetrized pairing)."""
        deg = self.p + self.q
        if len(fields) != deg:
            raise JetError(f"need {deg} fields, got {len(fields)}")
        n, order = self.calc.n, self.calc.order
        fr = self.calc.frame
        comps = [fr.to_frame_components(x) for x in fields]
        total = Jet.zero(n, order)
        for (k, l), c in self.coeffs.items():
            covs = list(k) + [n + i for i in l]
            if not deg:
                total = total + c
                continue
            det = _determinant([[comps[fi][cov] for fi in range(deg)]
                                for cov in covs], n, order)
            total = total + c * det
        return total

    def __repr__(self):
        return f"PQForm(({self.p},{self.q}), {len(self.coeffs)} terms)"


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def _signed_permutations(deg):
    """(perm, float sign) over the permutations of range(deg), in
    ``itertools.permutations`` order."""
    return tuple((perm, float(_perm_sign(perm))) for perm in permutations(range(deg)))


def _determinant(rows, n, order) -> Jet:
    """Determinant of a square jet matrix, sum over perm of
    sign * rows[0][perm[0]] * rows[1][perm[1]] * ..., multiplied left to
    right; a product stops at its first zero partial product."""
    det = Jet.zero(n, order)
    for perm, sign in _signed_permutations(len(rows)):
        prod = None
        for row, col in zip(rows, perm):
            factor = row[col]
            prod = factor if prod is None else prod * factor
            if not prod.terms:
                break
        if prod is not None and prod.terms:
            det = det + prod * sign
    return det


def apply_operator(kind: str, u: PQForm, calc: FrameCalculus | None = None) -> PQForm:
    """One of the four frame-local first-order operators.

    Output bidegrees: (p+1,q), (p,q+1), (p+2,q-1), (p-1,q+2); a shift below
    zero yields the empty form.
    """
    calc = u.calc if calc is None else calc
    if calc is not u.calc:
        raise JetError("form does not live in the operator's frame")
    if kind == "del":
        return _op_del(u, calc)
    if kind == "delbar":
        return _op_delbar(u, calc)
    if kind == "theta":
        return _op_theta(u, calc)
    if kind == "thetabar":
        return _op_thetabar(u, calc)
    raise JetError(f"unknown operator kind {kind!r}")


def _accumulate(acc, word, jet):
    sign, kk, ll = normalize_factors(word)
    if sign == 0 or not jet.terms:
        return
    key = (kk, ll)
    contrib = jet * float(sign)
    acc[key] = acc[key] + contrib if key in acc else contrib


def _op_del(u, calc):
    n = calc.n
    acc = {}
    for (kk, ll), c in u.coeffs.items():
        base = [(0, i) for i in kk] + [(1, i) for i in ll]
        for r in range(n):
            _accumulate(acc, [(0, r)] + base, calc.zeta_derive(r, c))
        for j, kj in enumerate(kk, start=1):
            khat = [(0, i) for i in kk if i != kj] + [(1, i) for i in ll]
            for r in range(n):
                for t in range(r + 1, n):
                    coeff = c * calc.bc.M[kj][r, t].conj()
                    _accumulate(acc, [(0, r), (0, t)] + khat, coeff * float((-1) ** j))
        for j, lj in enumerate(ll, start=1):
            lhat = [(0, i) for i in kk] + [(1, i) for i in ll if i != lj]
            for r in range(n):
                for t in range(n):
                    coeff = c * calc.bc.U[lj][t, r].conj()
                    sign = -((-1) ** u.p) * ((-1) ** j)
                    _accumulate(acc, [(0, r), (1, t)] + lhat, coeff * float(sign))
    return PQForm(calc, u.p + 1, u.q, acc)


def _op_delbar(u, calc):
    n = calc.n
    acc = {}
    for (kk, ll), c in u.coeffs.items():
        base = [(0, i) for i in kk] + [(1, i) for i in ll]
        for r in range(n):
            _accumulate(acc, [(1, r)] + base, calc.zetabar_derive(r, c))
        for j, kj in enumerate(kk, start=1):
            khat = [(0, i) for i in kk if i != kj] + [(1, i) for i in ll]
            for r in range(n):
                for t in range(n):
                    coeff = c * calc.bc.U[kj][r, t]
                    _accumulate(acc, [(0, r), (1, t)] + khat, coeff * float((-1) ** j))
        for j, lj in enumerate(ll, start=1):
            lhat = [(0, i) for i in kk] + [(1, i) for i in ll if i != lj]
            for r in range(n):
                for t in range(r + 1, n):
                    coeff = c * calc.bc.M[lj][r, t]
                    sign = ((-1) ** u.p) * ((-1) ** j)
                    _accumulate(acc, [(1, r), (1, t)] + lhat, coeff * float(sign))
    return PQForm(calc, u.p, u.q + 1, acc)


def _op_theta(u, calc):
    n = calc.n
    if u.q - 1 < 0:
        return PQForm(calc, u.p + 2, u.q - 1, {})
    acc = {}
    for (kk, ll), c in u.coeffs.items():
        for j, lj in enumerate(ll, start=1):
            lhat = [(0, i) for i in kk] + [(1, i) for i in ll if i != lj]
            for r in range(n):
                for t in range(r + 1, n):
                    coeff = c * calc.bc.N[lj][r, t].conj()
                    sign = -((-1) ** u.p) * ((-1) ** j)
                    _accumulate(acc, [(0, r), (0, t)] + lhat, coeff * float(sign))
    return PQForm(calc, u.p + 2, u.q - 1, acc)


def _op_thetabar(u, calc):
    n = calc.n
    if u.p - 1 < 0:
        return PQForm(calc, u.p - 1, u.q + 2, {})
    acc = {}
    for (kk, ll), c in u.coeffs.items():
        for j, kj in enumerate(kk, start=1):
            khat = [(0, i) for i in kk if i != kj] + [(1, i) for i in ll]
            for r in range(n):
                for t in range(r + 1, n):
                    coeff = c * calc.bc.N[kj][r, t]
                    sign = -((-1) ** j)
                    _accumulate(acc, [(1, r), (1, t)] + khat, coeff * float(sign))
    return PQForm(calc, u.p - 1, u.q + 2, acc)


def canonical_p0_connection(u: PQForm) -> PQForm:
    """Canonical (0,1)-connection on (p,0)-forms: (-1)^p times delbar."""
    if u.q != 0:
        raise JetError("canonical connection acts on (p,0)-forms")
    return apply_operator("delbar", u) * float((-1) ** u.p)


class MixedForm:
    """Sum of forms of distinct bidegrees (the four-operator image of a
    pure-bidegree form is of this shape)."""

    __slots__ = ("calc", "components")

    def __init__(self, calc, components=()):
        self.calc = calc
        self.components = {}
        for form in components:
            self._absorb(form)

    def _absorb(self, form, sign=1.0):
        if not form.coeffs:
            return
        key = (form.p, form.q)
        if key in self.components:
            self.components[key] = self.components[key] + form * sign
        else:
            self.components[key] = form * sign

    def __add__(self, other):
        out = MixedForm(self.calc, self.components.values())
        for form in other.components.values():
            out._absorb(form)
        return out

    def component(self, p, q) -> PQForm:
        return self.components.get((p, q), PQForm(self.calc, p, q, {}))

    def evaluate(self, fields) -> Jet:
        total = Jet.zero(self.calc.n, self.calc.order)
        deg = len(fields)
        for (p, q), form in self.components.items():
            if p + q == deg:
                total = total + form.evaluate(fields)
        return total

    def max_abs(self, max_degree=None):
        return nan_max(f.max_abs(max_degree) for f in self.components.values())

    @property
    def effective_order(self):
        if not self.components:
            return self.calc.order
        return min(f.effective_order for f in self.components.values())


def exterior_derivative(u: PQForm) -> MixedForm:
    """d = del + delbar - theta - thetabar as a mixed form."""
    out = MixedForm(u.calc)
    for kind, sign in (("del", 1.0), ("delbar", 1.0), ("theta", -1.0),
                       ("thetabar", -1.0)):
        out._absorb(apply_operator(kind, u), sign)
    return out


# -- coordinate-basis forms (oracle path) -----------------------------------

class CoordForm:
    """Form in the coordinate covector basis (dz_0..dz_{n-1}, dzbar_0..)."""

    __slots__ = ("n", "order", "degree", "coeffs")

    def __init__(self, n, order, degree, coeffs):
        self.n = n
        self.order = order
        self.degree = degree
        self.coeffs = {}
        for key, jet in coeffs.items():
            if len(key) != degree or list(key) != sorted(set(key)):
                raise JetError(f"bad covector tuple {key}")
            if jet.terms:
                self.coeffs[tuple(key)] = jet

    @classmethod
    def function(cls, f: Jet):
        return cls(f.n, f.order, 0, {(): f})

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for key, jet in other.coeffs.items():
            coeffs[key] = coeffs[key] + jet if key in coeffs else jet
        return CoordForm(self.n, self.order, self.degree, coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CoordForm(self.n, self.order, self.degree,
                         {k: -v for k, v in self.coeffs.items()})

    def __mul__(self, scalar):
        return CoordForm(self.n, self.order, self.degree,
                         {k: v * scalar for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def wedge_covector(self, comps):
        """Wedge on the right with a 1-form given by its 2n jet components."""
        acc = {}
        for key, c in self.coeffs.items():
            for a in range(2 * self.n):
                jet = comps[a]
                if not jet.terms:
                    continue
                if a in key:
                    continue
                merged = sorted(key + (a,))
                pos = merged.index(a)
                sign = (-1) ** (len(key) - pos)  # moved left past trailing factors
                contrib = (c * jet) * float(sign)
                k2 = tuple(merged)
                acc[k2] = acc[k2] + contrib if k2 in acc else contrib
        return CoordForm(self.n, self.order, self.degree + 1, acc)

    def d(self):
        """Textbook exterior derivative on jet coefficients."""
        acc = {}
        for key, c in self.coeffs.items():
            for a in range(2 * self.n):
                dc = c.dz(a) if a < self.n else c.dzbar(a - self.n)
                if not dc.terms or a in key:
                    continue
                merged = sorted(key + (a,))
                pos = merged.index(a)
                sign = (-1) ** pos   # dx_a moved from the front past pos factors
                k2 = tuple(merged)
                contrib = dc * float(sign)
                acc[k2] = acc[k2] + contrib if k2 in acc else contrib
        return CoordForm(self.n, self.order, self.degree + 1, acc)

    def max_abs(self, max_degree=None):
        return nan_max(j.max_abs(max_degree) for j in self.coeffs.values())

    @property
    def effective_order(self):
        if not self.coeffs:
            return self.order
        return min(j.effective_order for j in self.coeffs.values())

    def evaluate(self, fields) -> Jet:
        deg = self.degree
        total = Jet.zero(self.n, self.order)
        for key, c in self.coeffs.items():
            if not deg:
                total = total + c
                continue
            det = _determinant([[fields[fi].components[cov] for fi in range(deg)]
                                for cov in key], self.n, self.order)
            total = total + c * det
        return total


def to_coordinate_form(u: PQForm) -> CoordForm:
    """Expand frame covectors through the dual-frame rows."""
    calc = u.calc
    n, order = calc.n, calc.order
    ginv = calc.frame.Ginv
    out = CoordForm(n, order, u.p + u.q, {})
    for (kk, ll), c in u.coeffs.items():
        form = CoordForm.function(c)
        for i in kk:
            form = form.wedge_covector([ginv[i, a] for a in range(2 * n)])
        for i in ll:
            form = form.wedge_covector([ginv[n + i, a] for a in range(2 * n)])
        out = out + form
    return out


def exterior_derivative_check(u: PQForm) -> float:
    """Residual between the coordinate-basis exterior derivative and the
    four-operator decomposition, compared through the coordinate basis."""
    calc = u.calc
    du_coord = to_coordinate_form(u).d()
    pieces = None
    for kind, sgn in (("del", 1.0), ("delbar", 1.0), ("theta", -1.0),
                      ("thetabar", -1.0)):
        tu = apply_operator(kind, u, calc)
        if tu.p < 0 or tu.q < 0:
            continue
        cf = to_coordinate_form(tu) * sgn
        pieces = cf if pieces is None else pieces + cf
    diff = du_coord - pieces
    eff = min(du_coord.effective_order, pieces.effective_order)
    return diff.max_abs(eff)


FUNDAMENTAL_IDENTITIES = (
    "del^2 = delbar theta + theta delbar",
    "delbar^2 = del thetabar + thetabar del",
    "del delbar + delbar del = -(theta thetabar + thetabar theta)",
    "del theta = -theta del",
    "delbar thetabar = -thetabar delbar",
    "theta^2 = 0",
    "thetabar^2 = 0",
)


def fundamental_identities_check(calc: FrameCalculus, test_forms):
    """Residuals of the seven operator identities over the given forms.

    Each residual is the largest coefficient of LHS - RHS across the sweep,
    compared up to the order both sides still trust.  Each operator is
    applied to a test form once; every composition reuses those images.
    """
    residuals = {name: 0.0 for name in FUNDAMENTAL_IDENTITIES}
    orders = {name: calc.order for name in FUNDAMENTAL_IDENTITIES}

    def record(name, lhs, rhs):
        diff = lhs - rhs
        eff = min(lhs.effective_order, rhs.effective_order)
        residuals[name] = nan_max((residuals[name], diff.max_abs(eff)))
        orders[name] = min(orders[name], eff)

    for u in test_forms:
        image = {kind: apply_operator(kind, u, calc) for kind in OPERATOR_KINDS}

        def op(outer, inner):
            return apply_operator(outer, image[inner], calc)

        dd = op("del", "del")
        record(FUNDAMENTAL_IDENTITIES[0], dd,
               op("delbar", "theta") + op("theta", "delbar"))
        bb = op("delbar", "delbar")
        record(FUNDAMENTAL_IDENTITIES[1], bb,
               op("del", "thetabar") + op("thetabar", "del"))
        mixed = op("del", "delbar") + op("delbar", "del")
        record(FUNDAMENTAL_IDENTITIES[2], mixed,
               -(op("theta", "thetabar") + op("thetabar", "theta")))
        record(FUNDAMENTAL_IDENTITIES[3], op("del", "theta"), -op("theta", "del"))
        record(FUNDAMENTAL_IDENTITIES[4], op("delbar", "thetabar"),
               -op("thetabar", "delbar"))
        t2 = op("theta", "theta")
        record(FUNDAMENTAL_IDENTITIES[5], t2, PQForm(calc, t2.p, t2.q, {}))
        tb2 = op("thetabar", "thetabar")
        record(FUNDAMENTAL_IDENTITIES[6], tb2, PQForm(calc, tb2.p, tb2.q, {}))
    return [{"identity": name, "max_residual": residuals[name],
             "order_checked": orders[name]} for name in FUNDAMENTAL_IDENTITIES]
