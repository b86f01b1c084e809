"""Graded arithmetic of truncated power series in conjugate-pair variables.

A jet is a polynomial in (z_1..z_n, zbar_1..zbar_n) truncated at a fixed total
degree.  Coefficients are ``complex`` by default; an exact rational-complex
mode (:class:`QC`) is available for oracle computations that must be checked
with zero discrepancy.

A jet stores its nonzero coefficients in the dict ``terms``, keyed by
``(alpha, beta)`` and kept in graded order (total degree, then alpha, then
beta).  Float arithmetic on large jets runs on a second view of the same
data: a coefficient vector over the graded monomial index of (n, order),
built once per (n, order) and cached for the life of the process.  The index
lists every monomial of degree <= order in graded order and every product
pair (I, J) of total degree <= order, sorted by the slot K of I + J, so one
product is a gather, a multiply and one ``np.add.reduceat``.  A jet computes
its vector on first use and keeps it, since jets are immutable.

Which path runs:

- ``Jet.__mul__``: the dense kernel when both jets are float and the product
  of their term counts exceeds the index's ``dense_min_pairs``
  (``_DENSE_MUL_MIN_PAIRS`` plus a share of the product table's size);
  otherwise the dict convolution over the stored terms.  Exact jets always
  take the dict path.
- ``Jet.compose``: float jets build the substituted monomials on dense
  vectors, each one from a monomial of one degree less, and sum them in one
  matrix-vector product; exact jets use dict products.
- ``JetMatrix.__matmul__``: per output entry, the dense kernel summed over the
  inner index when the entry's pair count exceeds ``dense_min_pairs`` (float
  only); otherwise a sum of ``Jet`` products.

Coefficient families of a ``JetMatrix`` go out and come back in one way each:
``coefficients`` / ``from_coefficients`` map every monomial to a rows x cols
array (complex, or ``QC`` when exact), and ``family`` / ``from_family`` hold
one bidegree as a tensor over slot orderings, where a monomial reached by r
orderings puts c / r in each and building back sums its r slots.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

# Coefficients smaller than this are dropped after float arithmetic; the value
# sits below every test tolerance in the suite.
PRUNE_EPS = 1e-14

# A float product runs on the dense kernel when its operands' term counts
# multiply to more than this plus one per 250 pairs of the (n, order) product
# table, and on the dict convolution otherwise.  The dict path costs about
# 5 us per pair; a dense product costs a fixed ~40 us plus ~20 ns per table
# pair.  Measured crossovers (fresh low-degree operands, 2-vCPU Xeon VM):
# 9-16 pairs for n <= 3, 16-25 at (n, N) = (4, 4), 64-144 at (4, 5) and
# about 300 at (4, 6).
_DENSE_MUL_MIN_PAIRS = 12


class JetError(ValueError):
    """Structural misuse: dimension/order mismatch or bad variable index."""


class SingularMatrixError(JetError):
    """Constant term of a jet matrix is not invertible."""

    def __init__(self, message: str, cond: float | None = None):
        super().__init__(message)
        self.cond = cond


class QC:
    """Exact complex scalar with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other):
        other = _coerce_qc(other)
        if other is None:
            return NotImplemented
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_qc(other)
        if other is None:
            return NotImplemented
        return QC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce_qc(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_qc(other)
        if other is None:
            return NotImplemented
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_qc(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return QC((self.re * other.re + self.im * other.im) / d,
                  (self.im * other.re - self.re * other.im) / d)

    def __neg__(self):
        return QC(-self.re, -self.im)

    def conjugate(self):
        return QC(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"


def _coerce_qc(x):
    if isinstance(x, QC):
        return x
    if isinstance(x, (int, Fraction)):
        return QC(x)
    if isinstance(x, str):
        return QC(Fraction(x))
    return None


def _as_qc(x):
    got = _coerce_qc(x)
    if got is None:
        raise JetError(f"cannot mix exact jets with coefficient {x!r}")
    return got


def zero_coefficients(shape, exact=False):
    """Array of zero coefficients: complex, or of ``QC(0)`` when exact."""
    if exact:
        return np.full(shape, QC(0), dtype=object)
    return np.zeros(shape, dtype=complex)


def multi_index(n, *slots):
    """Exponent tuple of length n counting each of ``slots``:
    ``multi_index(3, 1) == (0, 1, 0)``, ``multi_index(3, 0, 2, 0) == (2, 0, 1)``."""
    return tuple(slots.count(i) for i in range(n))


def _slot_orderings(exponents):
    """Distinct orderings of the multiset in which slot i appears exponents[i] times."""
    return sorted(set(itertools.permutations(
        [i for i, e in enumerate(exponents) for _ in range(e)])))


def _degree(key):
    alpha, beta = key
    return sum(alpha) + sum(beta)


def _grade_key(key):
    return (_degree(key), key[0], key[1])


def _bad_key_message(key, n, order):
    try:
        alpha, beta = key
        if len(alpha) != n or len(beta) != n:
            return f"multi-index length mismatch for n={n}: {key}"
        if _degree(key) > order:
            return f"term {key} exceeds truncation order {order}"
    except (TypeError, ValueError):
        pass
    return f"term key {key!r} is not a pair of {n} non-negative integer exponents"


def nan_max(values):
    """Largest of the non-negative ``values``; 0.0 if there are none and NaN
    as soon as one is NaN.  The builtin ``max`` keeps a NaN only when it comes
    first (``max(0.0, nan) == 0.0``), so residual reductions use this."""
    worst = 0.0
    for v in values:
        if v > worst:
            worst = v
        elif v != v:
            return math.nan
    return worst


def _exponent_vectors(length, max_degree):
    """Every non-negative integer vector of this length and sum <= max_degree."""
    if length == 0:
        yield ()
        return
    for e in range(max_degree + 1):
        for rest in _exponent_vectors(length - 1, max_degree - e):
            yield (e,) + rest


class _Index:
    """Graded monomial index of one (n, order), with its product table.

    ``monos`` lists every ``(alpha, beta)`` of total degree <= order in
    ``_grade_key`` order and ``pos`` maps each back to its slot.  The product
    table ``_pairs`` is (left, right, starts): every slot pair (left[p],
    right[p]) whose monomials multiply to degree <= order, sorted by the slot
    of the product, and where each output slot's pairs begin.  Slot 0 is the
    constant monomial, so every output slot has at least one pair.
    ``factors`` and ``conj_perm`` serve ``Jet.compose``.  The tables are
    built on first use, since most indices only ever sort the terms of small
    jets.
    """

    def __init__(self, n, order):
        self.n, self.order = n, order
        self.monos = sorted(((v[:n], v[n:]) for v in _exponent_vectors(2 * n, order)),
                            key=_grade_key)
        self.pos = {m: i for i, m in enumerate(self.monos)}
        self.size = len(self.monos)
        # the product table holds every monomial of degree <= order in 4n variables
        self.dense_min_pairs = _DENSE_MUL_MIN_PAIRS + math.comb(4 * n + order, order) // 250

    @functools.cached_property
    def _codes(self):
        """(exponents, radix powers, codes, slots sorted by code)."""
        exps = np.array([a + b for a, b in self.monos],
                        dtype=np.int64).reshape(self.size, 2 * self.n)
        # Exponents never exceed the order, so these codes add without carries.
        radix = (self.order + 1) ** np.arange(2 * self.n, dtype=np.int64)
        codes = exps @ radix
        return exps, radix, codes, np.argsort(codes)

    def _slot_of_code(self, code):
        _, _, codes, by_code = self._codes
        return by_code[np.searchsorted(codes, code, sorter=by_code)]

    @functools.cached_property
    def _pairs(self):
        exps, _, codes, _ = self._codes
        order = self.order
        ends = np.searchsorted(exps.sum(axis=1), np.arange(order + 1), side="right")
        left, right = [], []
        for d in range(order + 1):
            rows = np.arange(ends[d - 1] if d else 0, ends[d])
            cols = np.arange(ends[order - d])
            left.append(np.repeat(rows, len(cols)))
            right.append(np.tile(cols, len(rows)))
        left, right = np.concatenate(left), np.concatenate(right)
        out = self._slot_of_code(codes[left] + codes[right])
        perm = np.argsort(out, kind="stable")
        return left[perm], right[perm], np.flatnonzero(np.diff(out[perm], prepend=-1))

    @functools.cached_property
    def factors(self):
        """(parent, var): the monomial of slot s > 0 is that of slot parent[s]
        times variable var[s], numbered z_1..z_n, zbar_1..zbar_n."""
        exps, radix, codes, _ = self._codes
        var = np.argmax(exps > 0, axis=1)
        parent = self._slot_of_code(codes - radix[var])
        return parent.tolist(), var.tolist()

    @functools.cached_property
    def conj_perm(self):
        """Slot of (beta, alpha) for the monomial (alpha, beta) of each slot."""
        return np.array([self.pos[(b, a)] for a, b in self.monos])

    def mul(self, a, b):
        """Truncated product of two coefficient vectors."""
        left, right, starts = self._pairs
        return np.add.reduceat(a[left] * b[right], starts)

    def mul_sum(self, a, b):
        """Sum over rows of the truncated products of two stacks of vectors."""
        left, right, starts = self._pairs
        return np.add.reduceat((a[:, left] * b[:, right]).sum(axis=0), starts)


@functools.lru_cache(maxsize=None)
def _index(n, order):
    return _Index(n, order)


class Jet:
    """Truncated power series; immutable value type.

    ``terms`` maps ``(alpha, beta)`` exponent-tuple pairs to nonzero
    coefficients; no stored key exceeds total degree ``order``.
    ``effective_order`` tracks the degree up to which coefficients are
    trusted (differentiation decrements it).
    """

    __slots__ = ("n", "order", "effective_order", "exact", "terms", "_pack")

    def __init__(self, n, order, terms=None, effective_order=None, exact=False):
        if order < 0:
            raise JetError("order must be >= 0")
        self.n = n
        self.order = order
        self.exact = exact
        self.effective_order = order if effective_order is None else min(effective_order, order)
        self._pack = None
        if not terms:
            self.terms = {}
            return
        idx = _index(n, order)
        pos = idx.pos
        kept = []
        for key, c in terms.items():
            if (not c) if exact else abs(c) < PRUNE_EPS:
                continue
            slot = pos.get(key)
            if slot is None:
                raise JetError(_bad_key_message(key, n, order))
            kept.append((slot, c if exact else complex(c)))
        kept.sort()
        monos = idx.monos
        self.terms = {monos[slot]: c for slot, c in kept}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n, order, exact=False):
        return cls(n, order, {}, exact=exact)

    @classmethod
    def constant(cls, n, order, c, exact=False):
        z = (0,) * n
        return cls(n, order, {(z, z): c}, exact=exact)

    @classmethod
    def one(cls, n, order, exact=False):
        return cls.constant(n, order, QC(1) if exact else 1.0, exact=exact)

    @classmethod
    def variable(cls, n, order, k, conjugate=False, exact=False):
        if not 0 <= k < n:
            raise JetError(f"variable index {k} out of range for n={n}")
        unit, zero = multi_index(n, k), (0,) * n
        key = (zero, unit) if conjugate else (unit, zero)
        return cls(n, order, {key: QC(1) if exact else 1.0}, exact=exact)

    @classmethod
    def monomial(cls, n, order, alpha, beta, c, exact=False):
        return cls(n, order, {(tuple(alpha), tuple(beta)): c}, exact=exact)

    # -- bookkeeping --------------------------------------------------------

    def _check_binary(self, other):
        if self.n != other.n or self.order != other.order:
            raise JetError(
                f"jet mismatch: (n={self.n}, order={self.order}) vs "
                f"(n={other.n}, order={other.order})")
        if self.exact != other.exact:
            raise JetError("cannot mix exact and floating jets")

    def truncated(self, new_order):
        """Copy truncated to a (usually lower) order."""
        terms = {k: c for k, c in self.terms.items() if _degree(k) <= new_order}
        return Jet(self.n, new_order, terms,
                   effective_order=min(self.effective_order, new_order),
                   exact=self.exact)

    def with_order(self, new_order):
        """Re-embed at a higher truncation order; trusted degrees unchanged."""
        if new_order < self.order:
            return self.truncated(new_order)
        return Jet(self.n, new_order, self.terms,
                   effective_order=self.effective_order, exact=self.exact)

    def padded(self, new_order):
        """Re-embed treating the content as an exact polynomial: every degree
        up to the new order is trusted.  Only valid for germ data that really
        is polynomial (coordinate changes, constructed fixtures)."""
        if new_order < self.order:
            return self.truncated(new_order)
        return Jet(self.n, new_order, self.terms,
                   effective_order=new_order, exact=self.exact)

    def trusted(self, eff):
        """Copy with the stated effective order (caller vouches for it)."""
        return Jet(self.n, self.order, self.terms, effective_order=eff,
                   exact=self.exact)

    def coeff(self, alpha, beta):
        default = QC(0) if self.exact else 0j
        return self.terms.get((tuple(alpha), tuple(beta)), default)

    @property
    def constant_term(self):
        z = (0,) * self.n
        return self.coeff(z, z)

    def max_abs(self, max_degree=None):
        """Largest coefficient modulus; NaN if any coefficient is NaN."""
        return nan_max(abs(c) for k, c in self.terms.items()
                       if max_degree is None or _degree(k) <= max_degree)

    def is_zero(self, tol=0.0, max_degree=None):
        return self.max_abs(max_degree) <= tol

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(self.n, self.order, other, exact=self.exact)
        self._check_binary(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0 if not self.exact else QC(0)) + c
        return Jet(self.n, self.order, terms,
                   effective_order=min(self.effective_order, other.effective_order),
                   exact=self.exact)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.n, self.order, {k: -c for k, c in self.terms.items()},
                   effective_order=self.effective_order, exact=self.exact)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(self.n, self.order, other, exact=self.exact)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._scale(other)
        self._check_binary(other)
        pairs = len(self.terms) * len(other.terms)
        if not self.exact and pairs > _DENSE_MUL_MIN_PAIRS:
            idx = _index(self.n, self.order)
            if pairs > idx.dense_min_pairs:
                return Jet._from_dense(idx, idx.mul(self._dense(), other._dense()),
                                       min(self.effective_order, other.effective_order))
        terms = {}
        zero = QC(0) if self.exact else 0j
        for (a1, b1), c1 in self.terms.items():
            d1 = sum(a1) + sum(b1)
            for (a2, b2), c2 in other.terms.items():
                if d1 + sum(a2) + sum(b2) > self.order:
                    continue
                key = (tuple(x + y for x, y in zip(a1, a2)),
                       tuple(x + y for x, y in zip(b1, b2)))
                terms[key] = terms.get(key, zero) + c1 * c2
        return Jet(self.n, self.order, terms,
                   effective_order=min(self.effective_order, other.effective_order),
                   exact=self.exact)

    def _scale(self, c):
        if self.exact:
            c = _as_qc(c)
        elif isinstance(c, (int, float, complex, np.integer, np.floating,
                            np.complexfloating)):
            c = complex(c)
        else:
            return NotImplemented
        return Jet(self.n, self.order, {k: v * c for k, v in self.terms.items()},
                   effective_order=self.effective_order, exact=self.exact)

    __rmul__ = __mul__

    def _dense(self):
        """Coefficient vector over the graded index of (n, order); cached."""
        if self._pack is None:
            idx = _index(self.n, self.order)
            vec = np.zeros(idx.size, dtype=complex)
            if self.terms:
                vec[[idx.pos[k] for k in self.terms]] = list(self.terms.values())
            vec.flags.writeable = False
            self._pack = vec
        return self._pack

    @classmethod
    def _from_dense(cls, idx, vec, effective_order):
        """Float jet from a coefficient vector over ``idx``.

        Applies the same pruning as ``__init__``: coefficients below
        PRUNE_EPS are dropped and non-finite ones kept.  The slots come in
        graded order already, so the terms need no sort.
        """
        keep = ~(np.abs(vec) < PRUNE_EPS)
        slots = np.flatnonzero(keep)
        jet = cls.__new__(cls)
        jet.n, jet.order, jet.exact = idx.n, idx.order, False
        jet.effective_order = min(effective_order, idx.order)
        monos = idx.monos
        jet.terms = dict(zip([monos[i] for i in slots.tolist()], vec[slots].tolist()))
        vec = np.where(keep, vec, 0)
        vec.flags.writeable = False
        jet._pack = vec
        return jet

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.n == other.n and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.order, tuple(self.terms.items())))

    # -- calculus -----------------------------------------------------------

    def conj(self):
        """Anti-involution: (alpha, beta, c) -> (beta, alpha, conj c)."""
        terms = {(b, a): c.conjugate() for (a, b), c in self.terms.items()}
        return Jet(self.n, self.order, terms,
                   effective_order=self.effective_order, exact=self.exact)

    def dz(self, k):
        """Formal partial derivative with respect to z_k."""
        return self._partial(k, conjugate=False)

    def dzbar(self, k):
        """Formal partial derivative with respect to zbar_k."""
        return self._partial(k, conjugate=True)

    def _partial(self, k, conjugate):
        if not 0 <= k < self.n:
            raise JetError(f"variable index {k} out of range for n={self.n}")
        terms = {}
        for (a, b), c in self.terms.items():
            e = b[k] if conjugate else a[k]
            if e == 0:
                continue
            if conjugate:
                key = (a, b[:k] + (e - 1,) + b[k + 1:])
            else:
                key = (a[:k] + (e - 1,) + a[k + 1:], b)
            terms[key] = c * e
        return Jet(self.n, self.order, terms,
                   effective_order=self.effective_order - 1, exact=self.exact)

    def eval(self, point):
        """Evaluate with zbar_k = conj(z_k)."""
        z = np.asarray(point, dtype=complex)
        if z.shape != (self.n,):
            raise JetError(f"point must have {self.n} complex components")
        zb = z.conjugate()
        total = 0j
        for (a, b), c in self.terms.items():
            m = complex(c)
            for i in range(self.n):
                if a[i]:
                    m *= z[i] ** a[i]
                if b[i]:
                    m *= zb[i] ** b[i]
            total += m
        return total

    def compose(self, subs: Sequence["Jet"], allow_affine=False):
        """Substitute z_k -> subs[k] and zbar_k -> conj(subs[k]).

        ``subs`` may also carry 2n jets, the last n of which must be the
        conjugates of the first n.
        """
        subs = list(subs)
        if len(subs) == 2 * self.n:
            for k in range(self.n):
                if (subs[self.n + k] - subs[k].conj()).max_abs() > 1e-12:
                    raise JetError(
                        f"substitution for zbar_{k} is not the conjugate of the one for z_{k}")
            subs = subs[: self.n]
        if len(subs) != self.n:
            raise JetError(f"expected {self.n} substitution jets, got {len(subs)}")
        subs = [s.truncated(self.order) if s.order > self.order else s for s in subs]
        for k, s in enumerate(subs):
            if s.order != self.order:
                raise JetError("substitution jets must match the composed jet's order")
            if s.exact != self.exact:
                raise JetError("cannot mix exact and floating jets")
            if not allow_affine and abs(s.constant_term) > (0 if self.exact else PRUNE_EPS):
                raise JetError(
                    f"substitution for z_{k} has a nonzero constant term; "
                    "pass allow_affine=True to opt in")
        eff = min([self.effective_order] + [s.effective_order for s in subs])
        if not self.exact:
            return self._compose_dense(subs, eff)
        conj_subs = [s.conj() for s in subs]
        out = Jet.zero(subs[0].n, self.order, exact=True)
        pow_cache = {}

        def power(base_jet, tag, e):
            if e == 0:
                return None
            got = pow_cache.get((tag, e))
            if got is None:
                lower = power(base_jet, tag, e - 1)
                got = base_jet if lower is None else lower * base_jet
                pow_cache[(tag, e)] = got
            return got

        for (a, b), c in self.terms.items():
            term = None
            for k in range(self.n):
                for tag, base, e in (("z", subs[k], a[k]), ("zb", conj_subs[k], b[k])):
                    p = power(base, (tag, k), e)
                    if p is not None:
                        term = p if term is None else term * p
            if term is None:
                out = out + Jet.constant(subs[0].n, self.order, c, exact=True)
            else:
                out = out + term * c
        return Jet(out.n, out.order, out.terms, effective_order=eff, exact=True)

    def _compose_dense(self, subs, eff):
        """Float ``compose`` on coefficient vectors.

        The images of z_1..z_n are ``subs`` and those of zbar_1..zbar_n their
        conjugates.  Each monomial of ``self`` is the image of a monomial one
        degree lower times one of these, so the table of images is filled
        from its parents.
        """
        out_idx = _index(subs[0].n, self.order)
        if not self.terms:
            return Jet._from_dense(out_idx, np.zeros(out_idx.size, dtype=complex), eff)
        idx = _index(self.n, self.order)
        parents, variables = idx.factors
        vecs = [s._dense() for s in subs]
        vecs += [v[out_idx.conj_perm].conj() for v in vecs]
        unit = np.zeros(out_idx.size, dtype=complex)
        unit[0] = 1.0
        table = {0: unit}

        def image(slot):
            got = table.get(slot)
            if got is None:
                parent, base = parents[slot], vecs[variables[slot]]
                got = base if parent == 0 else out_idx.mul(image(parent), base)
                table[slot] = got
            return got

        images = np.array([image(idx.pos[key]) for key in self.terms])
        coeffs = np.fromiter(self.terms.values(), dtype=complex, count=len(self.terms))
        return Jet._from_dense(out_idx, coeffs @ images, eff)

    # -- serialization ------------------------------------------------------

    def to_records(self):
        """Graded-lex sorted list of {alpha, beta, re, im} records."""
        recs = []
        for (a, b) in sorted(self.terms, key=_grade_key):
            c = complex(self.terms[(a, b)])
            recs.append({"alpha": list(a), "beta": list(b), "re": c.real, "im": c.imag})
        return recs

    @classmethod
    def from_records(cls, n, order, records):
        terms = {}
        for r in records:
            key = (tuple(r["alpha"]), tuple(r["beta"]))
            terms[key] = complex(r["re"], r["im"])
        return cls(n, order, terms)

    def __repr__(self):
        if not self.terms:
            return f"Jet(n={self.n}, N={self.order}; 0)"
        bits = []
        for key in list(self.terms)[:4]:
            a, b = key
            mono = "".join(f"z{i + 1}^{e}" for i, e in enumerate(a) if e)
            mono += "".join(f"zb{i + 1}^{e}" for i, e in enumerate(b) if e)
            bits.append(f"({self.terms[key]})*{mono or '1'}")
        more = " + ..." if len(self.terms) > 4 else ""
        return f"Jet(n={self.n}, N={self.order}; {' + '.join(bits)}{more})"


class JetMatrix:
    """Dense matrix with Jet entries, all sharing (n, order)."""

    __slots__ = ("rows", "cols", "n", "order", "exact", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        probe = self.entries[0][0]
        self.n, self.order, self.exact = probe.n, probe.order, probe.exact
        for row in self.entries:
            if len(row) != self.cols:
                raise JetError("ragged jet matrix")
            for e in row:
                if e.n != self.n or e.order != self.order or e.exact != self.exact:
                    raise JetError("jet matrix entries must share (n, order, mode)")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols, n, order, exact=False):
        return cls([[Jet.zero(n, order, exact=exact) for _ in range(cols)]
                    for _ in range(rows)])

    @classmethod
    def identity(cls, size, n, order, exact=False):
        m = cls.zeros(size, size, n, order, exact=exact)
        for i in range(size):
            m.entries[i][i] = Jet.one(n, order, exact=exact)
        return m

    @classmethod
    def from_constant(cls, array, n, order, exact=False):
        if exact:
            return cls([[Jet.constant(n, order, c, exact=True) for c in row]
                        for row in array])
        array = np.asarray(array, dtype=complex)
        return cls([[Jet.constant(n, order, array[i, j])
                     for j in range(array.shape[1])] for i in range(array.shape[0])])

    @classmethod
    def from_coefficients(cls, fam, rows, cols, n, order, exact=False):
        """Inverse of ``coefficients``: entry (k, l) is the jet whose
        z^alpha zbar^beta coefficient is ``fam[(alpha, beta)][k, l]``.

        ``fam`` maps each ``(alpha, beta)`` to a rows x cols array, complex or
        (exact) of ``QC``; zero coefficients are dropped as ``Jet`` drops
        them.  The shape is passed so that an empty family still builds.
        """
        return cls([[Jet(n, order, {key: mat[k, l] for key, mat in fam.items()},
                         exact=exact) for l in range(cols)] for k in range(rows)])

    @classmethod
    def from_family(cls, tensor, deg_z, deg_zbar, n, order):
        """Inverse of ``family``: the float matrix of bidegree (deg_z, deg_zbar)
        whose tensor of coefficients is ``tensor``.

        ``tensor`` has the shape ``(n,) * (deg_z + deg_zbar) + (rows, cols)``.
        The coefficient of a monomial is the sum of the tensor over every slot
        ordering that reaches it, added in ``_slot_orderings`` order, so a
        tensor symmetric in its z slots and in its zbar slots, as ``family``
        returns, comes back to the coefficients it was split from.
        """
        tensor = np.asarray(tensor, dtype=complex)
        rows, cols = tensor.shape[-2:]
        fam = {}
        for exps in _exponent_vectors(n, deg_z):
            if sum(exps) != deg_z:
                continue
            for bexps in _exponent_vectors(n, deg_zbar):
                if sum(bexps) != deg_zbar:
                    continue
                fam[(exps, bexps)] = sum(tensor[zs + zbs]
                                         for zs in _slot_orderings(exps)
                                         for zbs in _slot_orderings(bexps))
        return cls.from_coefficients(fam, rows, cols, n, order)

    # -- structure ----------------------------------------------------------

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    @property
    def effective_order(self):
        return min(e.effective_order for row in self.entries for e in row)

    def map(self, fn):
        return JetMatrix([[fn(e) for e in row] for row in self.entries])

    def truncated(self, new_order):
        return self.map(lambda e: e.truncated(new_order))

    def with_order(self, new_order):
        return self.map(lambda e: e.with_order(new_order))

    def conj(self):
        return self.map(lambda e: e.conj())

    @property
    def T(self):
        return JetMatrix([[self.entries[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    @property
    def H(self):
        return self.conj().T

    def dz(self, k):
        return self.map(lambda e: e.dz(k))

    def dzbar(self, k):
        return self.map(lambda e: e.dzbar(k))

    def compose(self, subs, allow_affine=False):
        return self.map(lambda e: e.compose(subs, allow_affine=allow_affine))

    def eval(self, point):
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = self.entries[i][j].eval(point)
        return out

    def constant(self):
        """Constant-term matrix as a numpy array (or QC nested list when exact)."""
        if self.exact:
            return [[e.constant_term for e in row] for row in self.entries]
        return np.array([[e.constant_term for e in row] for row in self.entries],
                        dtype=complex)

    def coefficients(self):
        """Every stored coefficient as ``{(alpha, beta): rows x cols array}``:
        complex arrays, or object arrays of ``QC`` for an exact matrix."""
        fam = {}
        for k, row in enumerate(self.entries):
            for l, e in enumerate(row):
                for key, c in e.terms.items():
                    mat = fam.get(key)
                    if mat is None:
                        mat = fam[key] = zero_coefficients((self.rows, self.cols), self.exact)
                    mat[k, l] = c
        return fam

    def family(self, deg_z, deg_zbar):
        """Coefficients of bidegree (deg_z, deg_zbar) as one float tensor.

        The shape is ``(n,) * (deg_z + deg_zbar) + (rows, cols)``: the first
        deg_z slots index z variables, the next deg_zbar slots zbar
        variables.  The tensor is symmetric within its z slots and within its
        zbar slots.  A monomial that r slot orderings reach puts c / r in
        each of them, so contracting the tensor with deg_z copies of z and
        deg_zbar copies of zbar gives that bidegree's part of each entry.
        For example ``family(1, 0)[p]`` holds the z_p coefficients, while
        ``family(2, 0)[p, q]`` holds the z_p z_q coefficient when p == q and
        half of it when p != q.  ``from_family`` builds the matrix back.
        """
        if self.exact:
            raise JetError("coefficient families are defined for float jets only")
        out = np.zeros((self.n,) * (deg_z + deg_zbar) + (self.rows, self.cols),
                       dtype=complex)
        slots = {}
        for k, row in enumerate(self.entries):
            for l, e in enumerate(row):
                for (alpha, beta), c in e.terms.items():
                    if sum(alpha) != deg_z or sum(beta) != deg_zbar:
                        continue
                    got = slots.get((alpha, beta))
                    if got is None:
                        got = [zs + zbs for zs in _slot_orderings(alpha)
                               for zbs in _slot_orderings(beta)]
                        slots[(alpha, beta)] = got
                    if len(got) > 1:
                        c = c / len(got)
                    for slot in got:
                        out[slot + (k, l)] = c
        return out

    def max_abs(self, max_degree=None):
        """Largest entry ``max_abs``; NaN if any entry holds NaN."""
        return nan_max(e.max_abs(max_degree) for row in self.entries for e in row)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        self._shape_check(other)
        return JetMatrix([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._shape_check(other)
        return JetMatrix([[a - b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return self.map(lambda e: -e)

    def __mul__(self, scalar):
        return self.map(lambda e: e * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise JetError(f"matmul shape mismatch {self.rows}x{self.cols} @ "
                           f"{other.rows}x{other.cols}")
        idx = None if self.exact else _index(self.n, self.order)
        columns = list(zip(*other.entries))
        out = []
        for row_in in self.entries:
            row = []
            for col in columns:
                eff = self.order
                live = []
                for a, b in zip(row_in, col):
                    eff = min(eff, a.effective_order, b.effective_order)
                    if a.terms and b.terms:
                        live.append((a, b))
                if idx is not None and sum(len(a.terms) * len(b.terms) for a, b in live) \
                        > idx.dense_min_pairs:
                    vec = idx.mul_sum(np.array([a._dense() for a, _ in live]),
                                      np.array([b._dense() for _, b in live]))
                    row.append(Jet._from_dense(idx, vec, eff))
                    continue
                acc = Jet.zero(self.n, self.order, exact=self.exact)
                for a, b in live:
                    acc = acc + a * b
                row.append(acc.trusted(eff) if acc.effective_order != eff else acc)
            out.append(row)
        return JetMatrix(out)

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise JetError("jet matrix shape mismatch")

    def inverse(self):
        """Neumann-series inverse; requires an invertible constant term."""
        if self.rows != self.cols:
            raise JetError("only square jet matrices can be inverted")
        size = self.rows
        if self.exact:
            m0_inv = _exact_inverse(self.constant(), size)
            m0_inv_mat = JetMatrix.from_constant(m0_inv, self.n, self.order, exact=True)
        else:
            m0 = self.constant()
            cond = np.linalg.cond(m0)
            if not np.isfinite(cond) or cond > 1e12:
                raise SingularMatrixError(
                    f"constant term is numerically singular (cond={cond:.3e})", cond)
            m0_inv_mat = JetMatrix.from_constant(np.linalg.inv(m0), self.n, self.order)
        # M = M0 (I + M0^-1 (M - M0));  (I + X)^-1 = sum (-X)^k, X nilpotent mod order.
        const = JetMatrix.from_constant(self.constant(), self.n, self.order,
                                        exact=self.exact)
        x = m0_inv_mat @ (self - const)
        acc = JetMatrix.identity(size, self.n, self.order, exact=self.exact)
        power = JetMatrix.identity(size, self.n, self.order, exact=self.exact)
        for _ in range(self.order):
            power = -(power @ x)
            if power.max_abs() == 0:
                break
            acc = acc + power
        out = acc @ m0_inv_mat
        eff = self.effective_order
        return out.map(lambda e: Jet(e.n, e.order, e.terms, effective_order=eff,
                                     exact=e.exact))

    def __repr__(self):
        return f"JetMatrix({self.rows}x{self.cols}, n={self.n}, N={self.order})"


def _exact_inverse(rows, size):
    """Gauss-Jordan inverse of a QC matrix given as nested lists."""
    a = [[QC(0) + rows[i][j] for j in range(size)] for i in range(size)]
    inv = [[QC(1) if i == j else QC(0) for j in range(size)] for i in range(size)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col]), None)
        if pivot is None:
            raise SingularMatrixError("exact constant term is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        a[col] = [v / p for v in a[col]]
        inv[col] = [v / p for v in inv[col]]
        for r in range(size):
            if r == col or not a[r][col]:
                continue
            f = a[r][col]
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
            inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return inv


def block2x2(tl, tr, bl, br):
    """Assemble a 2x2 block JetMatrix."""
    rows = []
    for i in range(tl.rows):
        rows.append(tl.entries[i] + tr.entries[i])
    for i in range(bl.rows):
        rows.append(bl.entries[i] + br.entries[i])
    return JetMatrix(rows)


def series_inverse(phi: Sequence[Jet], order=None):
    """Compositional inverse of a coordinate-change germ.

    ``phi`` lists the images of z_1..z_n (conjugates implicit); the linear
    part must be invertible.  Returns psi with phi(psi(Z)) = Z up to order.
    """
    n = len(phi)
    order = phi[0].order if order is None else order
    phi = [p.with_order(order) for p in phi]
    lin = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        for l in range(n):
            ek = multi_index(n, l)
            zz = (0,) * n
            lin[k, l] = complex(phi[k].coeff(ek, zz))
            lin[k, n + l] = complex(phi[k].coeff(zz, ek))
            lin[n + k, l] = lin[k, n + l].conjugate()
            lin[n + k, n + l] = lin[k, l].conjugate()
    if abs(np.linalg.det(lin)) < 1e-12:
        raise SingularMatrixError("coordinate change has a singular linear part")
    lin_inv = np.linalg.inv(lin)
    ident = [Jet.variable(n, order, k) for k in range(n)]
    # start from the inverse of the linear part, then sharpen degree by degree
    psi = []
    for k in range(n):
        acc = Jet.zero(n, order)
        for l in range(n):
            acc = acc + lin_inv[k, l] * ident[l] + lin_inv[k, n + l] * ident[l].conj()
        psi.append(acc)
    for _ in range(order):
        err = [phi[k].compose(psi) - ident[k] for k in range(n)]
        if max(e.max_abs() for e in err) < PRUNE_EPS:
            break
        new_psi = []
        for k in range(n):
            corr = Jet.zero(n, order)
            for l in range(n):
                corr = corr + lin_inv[k, l] * err[l] + lin_inv[k, n + l] * err[l].conj()
            new_psi.append(psi[k] - corr)
        psi = new_psi
    # the inverse germ is polynomial-exact through the truncation order
    return [p.trusted(order) for p in psi]
