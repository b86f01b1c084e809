"""(p,q)-forms with jet coefficients in the canonical frame.

Forms live in the zeta-frame of a structure.  The four first-order operators
del, delbar, theta, thetabar (types (1,0), (0,1), (2,-1), (-1,2)) are the
bidegree parts of d = del + delbar - theta - thetabar, and one kernel applies
them all from one table, ``_OPERATORS``: a row gives an operator's shift, its
sign in d, the frame fields of its derivative term, and which bracket table
(M, N or U, plain or conjugated) replaces a removed zeta*_i or zetabar*_i by
which covector pair.  A conversion to the coordinate covector basis provides
the oracle path for the exterior-derivative decomposition and metric work.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, permutations

from .jets import Jet, JetError, nan_max
from .structure import AlmostComplexStructure, bracket_coefficients, frame_and_dual

# On u_{K,L} times the word zeta*_K ^ zetabar*_L: shift of the bidegree; sign in
# d; derive, the tag of the derivative terms zeta_r(u) zeta*_r ^ word (0) or
# zetabar_r(u) zetabar*_r ^ word (1); pieces, (remove zeta*_i, remove zetabar*_i).
_Operator = namedtuple("_Operator", "shift sign derive pieces")
# A piece puts sign * (-1)^j * entry * (tags[0])*_r ^ (tags[1])*_t in place of
# the factor at one-based word position j, so (-1)^(p+j) for the j-th
# zetabar*; entry is table^i[r, t] (conjugated if conj, read at [t, r] if
# transposed), over r < t only if upper.
_Piece = namedtuple("_Piece", "table conj tags upper transposed sign")
_OPERATORS = {
    "del": _Operator((1, 0), 1.0, 0, (_Piece("M", True, (0, 0), True, False, 1),
                                      _Piece("U", True, (0, 1), False, True, -1))),
    "delbar": _Operator((0, 1), 1.0, 1, (_Piece("U", False, (0, 1), False, False, 1),
                                         _Piece("M", False, (1, 1), True, False, 1))),
    "theta": _Operator((2, -1), -1.0, None,
                       (None, _Piece("N", True, (0, 0), True, False, -1))),
    "thetabar": _Operator((-1, 2), -1.0, None,
                          (_Piece("N", False, (1, 1), True, False, -1), None)),
}
OPERATOR_KINDS = tuple(_OPERATORS)


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

    def __init__(self, s: AlmostComplexStructure):
        self.structure = s
        self.frame = frame_and_dual(s)
        self.bc = bracket_coefficients(s, self.frame)
        self.n = s.n
        self.order = s.order
        self._zetas = [self.frame.zeta(k) for k in range(s.n)]
        self._zetabars = [self.frame.zeta_bar(k) for k in range(s.n)]

    def zeta_derive(self, r, f: Jet, grad=None) -> Jet:
        return self._zetas[r].derive(f, grad)

    def zetabar_derive(self, r, f: Jet, grad=None) -> Jet:
        return self._zetabars[r].derive(f, grad)

    def function(self, f: Jet):
        return PQForm(self, 0, 0, {((), ()): f})

    def monomial_forms(self, max_degree):
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
            if jet:
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
        terms = {}
        for (k1, l1), c1 in self.coeffs.items():
            w1 = [(0, i) for i in k1] + [(1, i) for i in l1]
            for (k2, l2), c2 in other.coeffs.items():
                word = w1 + [(0, i) for i in k2] + [(1, i) for i in l2]
                sign, kk, ll = normalize_factors(word)
                if sign == 0:
                    continue
                terms.setdefault((kk, ll), []).append((c1 * c2, float(sign)))
        return PQForm(self.calc, p, q, _sum_terms(terms, self.calc.n, self.calc.order))

    def evaluate(self, fields) -> Jet:
        """Evaluate on p+q vector fields (antisymmetrized pairing)."""
        deg = self.p + self.q
        if len(fields) != deg:
            raise JetError(f"need {deg} fields, got {len(fields)}")
        n, order = self.calc.n, self.calc.order
        fr = self.calc.frame
        if not deg:
            return sum(self.coeffs.values(), Jet.zero(n, order))
        comps = [fr.to_frame_components(x) for x in fields]
        return Jet.dot([(c, _determinant([[comps[fi][cov] for fi in range(deg)]
                                          for cov in list(k) + [n + i for i in l]],
                                         n, order))
                        for (k, l), c in self.coeffs.items()], n, order)

    def __repr__(self):
        return f"PQForm(({self.p},{self.q}), {len(self.coeffs)} terms)"


@lru_cache(maxsize=None)
def _signed_permutations(deg):
    """(perm, float sign) over the permutations of range(deg), in
    ``itertools.permutations`` order."""
    return tuple((perm, float(_sorted_sign(perm)[0]))
                 for perm in permutations(range(deg)))


def _determinant(rows, n, order) -> Jet:
    """Determinant of a square jet matrix, sum over perm of
    sign * rows[0][perm[0]] * rows[1][perm[1]] * ..., multiplied left to
    right; a product stops at its first zero partial product."""
    terms = []
    for perm, sign in _signed_permutations(len(rows)):
        prod = None
        for row, col in zip(rows, perm):
            factor = row[col]
            prod = factor if prod is None else prod * factor
            if not prod:
                break
        if prod:
            terms.append((prod, sign))
    return Jet.dot(terms, n, order)


def _sum_terms(terms, n, order):
    """``{key: sum of jet * scalar over the (jet, scalar) list of the key}``.
    The first product is built by ``*`` and the rest are added to it by
    ``Jet.dot``, which equals the fold ``acc[key] = acc[key] + jet * scalar``
    that starts from the first product."""
    out = {}
    for key, ((jet, c), *rest) in terms.items():
        first = jet * c
        out[key] = Jet.dot(rest, n, order, start=first) if rest else first
    return out


def _accumulate(terms, word, jet):
    """Record jet times the sign of the wedge word under the word's key."""
    sign, kk, ll = normalize_factors(word)
    if sign == 0 or not jet:
        return
    terms.setdefault((kk, ll), []).append((jet, float(sign)))


def apply_operator(kind: str, u: PQForm) -> PQForm:
    """One of the four frame-local first-order operators, from its
    ``_OPERATORS`` row.

    Output bidegrees: (p+1,q), (p,q+1), (p+2,q-1), (p-1,q+2); a shift below
    zero yields the empty form.  Each u_{K,L} gives its derivative terms,
    then one piece per factor of its word in word order, over r, then t.
    """
    calc = u.calc
    op = _OPERATORS.get(kind)
    if op is None:
        raise JetError(f"unknown operator kind {kind!r}")
    n, bc = calc.n, calc.bc
    derive = (calc.zeta_derive, calc.zetabar_derive)
    acc = {}
    for (kk, ll), c in u.coeffs.items():
        word = [(0, i) for i in kk] + [(1, i) for i in ll]
        if op.derive is not None:
            grad = c.gradient()
            for r in range(n):
                _accumulate(acc, [(op.derive, r)] + word, derive[op.derive](r, c, grad))
        for pos, (tag, i) in enumerate(word):
            pc = op.pieces[tag]
            if pc is None:
                continue
            table = (bc.conj_table(pc.table) if pc.conj else getattr(bc, pc.table))[i]
            (a, b), hat = pc.tags, word[:pos] + word[pos + 1:]
            sign = float(pc.sign * (-1) ** (pos + 1))
            for r in range(n):
                for t in range(r + 1 if pc.upper else 0, n):
                    entry = table[t, r] if pc.transposed else table[r, t]
                    _accumulate(acc, [(a, r), (b, t)] + hat, (c * entry) * sign)
    return PQForm(calc, u.p + op.shift[0], u.q + op.shift[1],
                  _sum_terms(acc, n, calc.order))


def canonical_p0_connection(u: PQForm) -> PQForm:
    """Canonical (0,1)-connection on (p,0)-forms: (-1)^p times delbar."""
    if u.q != 0:
        raise JetError("canonical connection acts on (p,0)-forms")
    return apply_operator("delbar", u) * float((-1) ** u.p)


class MixedForm:
    """Sum of forms of distinct bidegrees (the four-operator image of a
    pure-bidegree form is of this shape)."""

    __slots__ = ("calc", "components")

    def __init__(self, calc):
        self.calc = calc
        self.components = {}

    def _absorb(self, form, sign):
        if not form.coeffs:
            return
        key = (form.p, form.q)
        if key in self.components:
            self.components[key] = self.components[key] + form * sign
        else:
            self.components[key] = form * sign

    def evaluate(self, fields) -> Jet:
        deg = len(fields)
        return sum((form.evaluate(fields) for (p, q), form in self.components.items()
                    if p + q == deg), Jet.zero(self.calc.n, self.calc.order))

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
    for kind, op in _OPERATORS.items():
        out._absorb(apply_operator(kind, u), op.sign)
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
            if jet:
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
                if not jet:
                    continue
                if a in key:
                    continue
                merged = sorted(key + (a,))
                pos = merged.index(a)
                sign = (-1) ** (len(key) - pos)  # moved left past trailing factors
                acc.setdefault(tuple(merged), []).append((c * jet, float(sign)))
        return CoordForm(self.n, self.order, self.degree + 1,
                         _sum_terms(acc, self.n, self.order))

    def d(self):
        """Textbook exterior derivative on jet coefficients."""
        acc = {}
        for key, c in self.coeffs.items():
            for a in range(2 * self.n):
                dc = c.dz(a) if a < self.n else c.dzbar(a - self.n)
                if not dc or a in key:
                    continue
                merged = sorted(key + (a,))
                pos = merged.index(a)
                sign = (-1) ** pos   # dx_a moved from the front past pos factors
                acc.setdefault(tuple(merged), []).append((dc, float(sign)))
        return CoordForm(self.n, self.order, self.degree + 1,
                         _sum_terms(acc, self.n, self.order))

    def max_abs(self, max_degree=None):
        return nan_max(j.max_abs(max_degree) for j in self.coeffs.values())

    @property
    def effective_order(self):
        if not self.coeffs:
            return self.order
        return min(j.effective_order for j in self.coeffs.values())

    def evaluate(self, fields) -> Jet:
        deg = self.degree
        if not deg:
            return sum(self.coeffs.values(), Jet.zero(self.n, self.order))
        return Jet.dot([(c, _determinant([[fields[fi].components[cov] for fi in range(deg)]
                                          for cov in key], self.n, self.order))
                        for key, c in self.coeffs.items()], self.n, self.order)


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
    for kind, op in _OPERATORS.items():
        tu = apply_operator(kind, u)
        if tu.p < 0 or tu.q < 0:
            continue
        cf = to_coordinate_form(tu) * op.sign
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
        image = {kind: apply_operator(kind, u) for kind in OPERATOR_KINDS}

        def op(outer, inner):
            return apply_operator(outer, image[inner])

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
