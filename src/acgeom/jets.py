"""Graded arithmetic of truncated power series in conjugate-pair variables.

A jet is a polynomial in (z_1..z_n, zbar_1..zbar_n) truncated at a fixed total
degree.  Coefficients are ``complex`` by default; an exact rational-complex
mode (:class:`QC`) is available for oracle computations that must be checked
with zero discrepancy.

A jet stores its nonzero coefficients in one dict, keyed by each monomial's
integer code and sorted by it.  A code holds base-16 digits, from the most
significant down: the total degree, then alpha_1..alpha_n, then
beta_1..beta_n.  With order <= 15 no digit overflows, and with n <= 7 the
2n + 1 digits fit an int64, so codes add without carries (code(I) + code(J)
= code(I + J) within the order), ascend in graded order (degree, then alpha,
then beta), and carry their degree in the top digit: "degree <= d" is
"code < (d + 1) << 8n".  The layout does not depend on the order, so a jet
re-embedded at another order keeps its dict.  ``Jet.terms`` is a copy keyed
by ``(alpha, beta)``, built on demand, and ``Jet(n, N, terms)`` takes such
keys, checked against the monomials of (n, N).

Large float products and every ``compose`` run on coefficient vectors over
the graded monomial index of (n, order), cached for the life of the process.
It lists every monomial of degree <= order in code order, so a code's slot is
its ``searchsorted`` position, and every product pair (I, J) of degree
<= order, sorted by the slot of I + J, so one product is a gather, a
multiply and one ``np.add.reduceat``.  A jet computes its vector (complex,
or an object array of ``QC`` when exact) on first use and keeps it, since
jets are immutable.

Which path runs:

- ``Jet.__mul__``: the dense kernel when both jets are float and the product
  of their term counts exceeds the index's ``dense_min_pairs``
  (``_DENSE_MUL_MIN_PAIRS`` plus a share of the product table's size);
  otherwise the dict convolution over the stored terms, which keys its
  partial sums by code(I) + code(J) and sorts the result by code once.
- ``Jet.dot``: every sum of products, acc = acc + a * b, over (jet, jet) or
  (jet, scalar) pairs.  Each product runs on the path ``*`` would take, but
  no product or partial-sum jet is built: the products' terms go into one
  code-keyed dict with the fold's pruning, and one jet is built at the end,
  equal bit for bit to the fold.
- ``Jet.compose``: one path for both modes.  The substituted monomials are
  built on coefficient vectors, each one from a monomial of one degree less,
  and summed in one vector-matrix product.  The images live in a
  ``Substitution``: built once per coordinate change, it holds the checks,
  the vectors of the substitution jets and of their conjugates, and a memo
  of images per order, so every compose of the same germ (the entries of
  ``JetMatrix.compose``, the components of a Newton step of
  ``series_inverse``) builds each image once.  A list passed to ``compose``
  is wrapped in a new one.
- ``JetMatrix.__matmul__``: per output entry, the dense kernel summed over the
  inner index when the entry's pair count exceeds ``dense_min_pairs`` (float
  only); otherwise ``Jet.dot`` over the inner index.

Results are built by ``Jet._make`` on terms pruned and sorted already.

Exact operands of ``*`` and ``@`` stay on the dict path.  The dense kernel
does run on ``QC`` object arrays, but it forms every pair of the product
table, and a ``QC`` product costs four ``Fraction`` products: at the float
threshold it made ``validate --exact`` 3-14x slower on (n, N, degree) =
(3, 2, 2), (2, 5, 2) and (4, 3, 2).

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
# table, and on the dict convolution otherwise.  When this was set, the dict
# path cost about 5 us per pair and a dense product a fixed ~40 us plus
# ~20 ns per table pair, with crossovers (fresh low-degree operands, 2-vCPU
# Xeon VM) of 9-16 pairs for n <= 3, 16-25 at (n, N) = (4, 4), 64-144 at
# (4, 5) and about 300 at (4, 6).  The code-keyed dict product moved them:
# on the same operands it costs 7-15 us for up to 16 pairs, and the
# crossover is now about 250 pairs at (2, 3) and (3, 3) and above 256 at
# (4, 4) and (4, 5).  The threshold stays, since the path decides the order
# of summation and with it the last bits of every report.
_DENSE_MUL_MIN_PAIRS = 12

# Monomial codes (see the module docstring) have 4-bit digits.
_DIGIT_BITS = 4
MAX_ORDER = (1 << _DIGIT_BITS) - 1
MAX_N = 7


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

    def __init__(self, re, im=0):
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


def zero_coefficients(shape, exact):
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


def _bad_key_message(key, n, order):
    try:
        alpha, beta = key
        if len(alpha) != n or len(beta) != n:
            return f"multi-index length mismatch for n={n}: {key}"
        if sum(alpha) + sum(beta) > order:
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


def _check_layout(n, order):
    """Raise unless the monomials of (n, order) have codes."""
    if order < 0:
        raise JetError("order must be >= 0")
    if order > MAX_ORDER or n > MAX_N:
        raise JetError(f"(n={n}, order={order}) is out of range: monomial codes "
                       f"hold n <= {MAX_N} and order <= {MAX_ORDER}")


def _code(exponents):
    """Code of the monomial with these 2n exponents (alpha, then beta)."""
    code = sum(exponents)
    for e in exponents:
        code = code << _DIGIT_BITS | e
    return code


def _degree_shift(n):
    """Bit position of the degree digit in an n-variable code."""
    return _DIGIT_BITS * 2 * n


def _unit_code(n, var):
    """Code of variable ``var`` of z_1..z_n, zbar_1..zbar_n (int or int64 array)."""
    return 1 << _degree_shift(n) | 1 << _DIGIT_BITS * (2 * n - 1 - var)


def _conj_code(code, n):
    """Code of (beta, alpha) from that of (alpha, beta) (int or int64 array)."""
    half = _DIGIT_BITS * n
    low = (1 << half) - 1
    return code >> 2 * half << 2 * half | (code & low) << half | code >> half & low


class _Index:
    """Graded monomial index of one (n, order), with its product table.

    ``monos`` lists every ``(alpha, beta)`` of total degree <= order in
    graded order and ``codes`` their (ascending) codes; ``code_of`` and
    ``key_of`` map one to the other.  The product table ``_pairs`` is (left,
    right, starts): every slot pair (left[p], right[p]) whose monomials
    multiply to degree <= order, sorted by the slot of the product, and
    where each output slot's pairs begin.  Slot 0 is the constant monomial,
    so every output slot has at least one pair.  ``factors`` and
    ``conj_perm`` serve ``Jet.compose``.  The tables are built on first use.
    """

    def __init__(self, n, order):
        _check_layout(n, order)
        self.n, self.order = n, order
        by_code = sorted((_code(v), v) for v in _exponent_vectors(2 * n, order))
        self.monos = [(v[:n], v[n:]) for _, v in by_code]
        self.codes = np.array([c for c, _ in by_code], dtype=np.int64)
        self.size = len(self.monos)
        # the product table holds every monomial of degree <= order in 4n variables
        self.dense_min_pairs = _DENSE_MUL_MIN_PAIRS + math.comb(4 * n + order, order) // 250

    @functools.cached_property
    def code_of(self):
        """Code of each ``(alpha, beta)`` of the index."""
        return dict(zip(self.monos, self.codes.tolist()))

    @functools.cached_property
    def key_of(self):
        """``(alpha, beta)`` of each code of the index."""
        return dict(zip(self.codes.tolist(), self.monos))

    def slots(self, codes):
        """Slots of an iterable of codes of the index."""
        return np.searchsorted(self.codes, np.fromiter(codes, dtype=np.int64))

    @functools.cached_property
    def _pairs(self):
        codes, order = self.codes, self.order
        # ends[d]: the number of slots of degree <= d
        ends = np.searchsorted(codes, np.arange(1, order + 2) << _degree_shift(self.n))
        left, right = [], []
        for d in range(order + 1):
            rows = np.arange(ends[d - 1] if d else 0, ends[d])
            cols = np.arange(ends[order - d])
            left.append(np.repeat(rows, len(cols)))
            right.append(np.tile(cols, len(rows)))
        left, right = np.concatenate(left), np.concatenate(right)
        out = np.searchsorted(codes, codes[left] + codes[right])
        perm = np.argsort(out, kind="stable")
        return left[perm], right[perm], np.flatnonzero(np.diff(out[perm], prepend=-1))

    @functools.cached_property
    def factors(self):
        """(parent, var): the monomial of slot s > 0 is that of slot parent[s]
        times variable var[s], numbered z_1..z_n, zbar_1..zbar_n."""
        exps = np.array([a + b for a, b in self.monos],
                        dtype=np.int64).reshape(self.size, 2 * self.n)
        var = np.argmax(exps > 0, axis=1)
        parent = np.searchsorted(self.codes, self.codes - _unit_code(self.n, var))
        return parent.tolist(), var.tolist()

    @functools.cached_property
    def conj_perm(self):
        """Slot of (beta, alpha) for the monomial (alpha, beta) of each slot."""
        return np.searchsorted(self.codes, _conj_code(self.codes, self.n))

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


def _pruned(items, exact):
    """Dict of the (code, coefficient) ``items`` that pruning keeps: nonzero
    ones when exact; float ones of modulus >= PRUNE_EPS or NaN."""
    if exact:
        return {k: c for k, c in items if c}
    return {k: c for k, c in items if not abs(c) < PRUNE_EPS}


def _check_operand(jet, shape):
    """Raise unless ``jet`` has the (n, order, exact) of ``shape``."""
    if (jet.n, jet.order, jet.exact) != shape:
        n, order, _ = shape
        if (jet.n, jet.order) != (n, order):
            raise JetError(f"jet mismatch: (n={n}, order={order}) vs "
                           f"(n={jet.n}, order={jet.order})")
        raise JetError("cannot mix exact and floating jets")


class Jet:
    """Truncated power series; immutable value type.

    ``_terms`` maps the codes of monomials of total degree <= ``order`` to
    nonzero coefficients, in ascending code order; ``terms`` is the same
    keyed by ``(alpha, beta)``.  ``effective_order`` tracks the degree up to
    which coefficients are trusted (differentiation decrements it); a new
    jet trusts every degree, and ``trusted`` restates it.
    """

    __slots__ = ("n", "order", "effective_order", "exact", "_terms", "_pack")

    def __init__(self, n, order, terms, exact=False):
        _check_layout(n, order)
        self.n, self.order, self.exact = n, order, exact
        self.effective_order = order
        self._pack = None
        if not terms:
            self._terms = {}
            return
        code_of = _index(n, order).code_of
        kept = []
        for key, c in terms.items():
            if (not c) if exact else abs(c) < PRUNE_EPS:
                continue
            code = code_of.get(key)
            if code is None:
                raise JetError(_bad_key_message(key, n, order))
            kept.append((code, c if exact else complex(c)))
        kept.sort()
        self._terms = dict(kept)

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
    def variable(cls, n, order, k, conjugate=False):
        if not 0 <= k < n:
            raise JetError(f"variable index {k} out of range for n={n}")
        unit, zero = multi_index(n, k), (0,) * n
        key = (zero, unit) if conjugate else (unit, zero)
        return cls(n, order, {key: 1.0})

    # -- bookkeeping --------------------------------------------------------

    @property
    def terms(self):
        """The nonzero coefficients keyed by ``(alpha, beta)``, in graded
        order.  A new dict on every read: changing it leaves the jet as it is."""
        key_of = _index(self.n, self.order).key_of
        return {key_of[k]: c for k, c in self._terms.items()}

    def __bool__(self):
        return bool(self._terms)

    def truncated(self, new_order):
        """Copy truncated to a (usually lower) order."""
        _check_layout(self.n, new_order)
        end = (new_order + 1) << _degree_shift(self.n)
        terms = {k: c for k, c in self._terms.items() if k < end}
        return Jet._make(self.n, new_order, terms, self.effective_order, self.exact)

    def with_order(self, new_order):
        """Re-embed at a higher truncation order; trusted degrees unchanged."""
        if new_order < self.order:
            return self.truncated(new_order)
        _check_layout(self.n, new_order)
        return Jet._make(self.n, new_order, self._terms, self.effective_order, self.exact)

    def padded(self, new_order):
        """Re-embed treating the content as an exact polynomial: every degree
        up to the new order is trusted.  Only valid for germ data that really
        is polynomial (coordinate changes, constructed fixtures)."""
        if new_order < self.order:
            return self.truncated(new_order)
        _check_layout(self.n, new_order)
        return Jet._make(self.n, new_order, self._terms, new_order, self.exact)

    def trusted(self, eff):
        """Copy with the stated effective order (caller vouches for it)."""
        return Jet._make(self.n, self.order, self._terms, eff, self.exact, self._pack)

    def coeff(self, alpha, beta):
        code = _index(self.n, self.order).code_of.get((tuple(alpha), tuple(beta)))
        return self._terms.get(code, QC(0) if self.exact else 0j)

    @property
    def constant_term(self):
        return self._terms.get(0, QC(0) if self.exact else 0j)

    def max_abs(self, max_degree=None):
        """Largest coefficient modulus; NaN if any coefficient is NaN."""
        if max_degree is None:
            return nan_max(map(abs, self._terms.values()))
        end = (max_degree + 1) << _degree_shift(self.n)
        return nan_max(abs(c) for k, c in self._terms.items() if k < end)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(self.n, self.order, other, exact=self.exact)
        _check_operand(other, (self.n, self.order, self.exact))
        terms = dict(self._terms)
        zero = QC(0) if self.exact else 0
        for k, c in other._terms.items():
            terms[k] = terms.get(k, zero) + c
        return Jet._make(self.n, self.order, _pruned(sorted(terms.items()), self.exact),
                         min(self.effective_order, other.effective_order), self.exact)

    __radd__ = __add__

    def __neg__(self):
        return Jet._make(self.n, self.order, {k: -c for k, c in self._terms.items()},
                         self.effective_order, self.exact)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(self.n, self.order, other, exact=self.exact)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._scale(other)
        _check_operand(other, (self.n, self.order, self.exact))
        idx = _index(self.n, self.order)
        eff = min(self.effective_order, other.effective_order)
        if not self.exact and len(self._terms) * len(other._terms) > idx.dense_min_pairs:
            return Jet._from_dense(idx, idx.mul(self._dense(), other._dense()), eff)
        terms = self._dict_product(other)
        return Jet._make(self.n, self.order, _pruned(sorted(terms.items()), self.exact),
                         eff, self.exact)

    def _dict_product(self, other):
        """Unpruned product as ``{code: coefficient}``.  The pairs are visited
        left term by left term, each against the right terms in ascending
        code order up to the first whose degree overflows the order."""
        shift = _degree_shift(self.n)
        top = (self.order + 1) << shift
        right = other._terms.items()
        zero = QC(0) if self.exact else 0j
        terms = {}
        get = terms.get
        for k1, c1 in self._terms.items():
            end = top - (k1 >> shift << shift)
            for k2, c2 in right:
                if k2 >= end:
                    break
                k = k1 + k2
                terms[k] = get(k, zero) + c1 * c2
        return terms

    def _scale(self, c):
        if self.exact:
            c = _as_qc(c)
        elif isinstance(c, (int, float, complex, np.integer, np.floating,
                            np.complexfloating)):
            c = complex(c)
        else:
            return NotImplemented
        terms = _pruned(((k, v * c) for k, v in self._terms.items()), self.exact)
        return Jet._make(self.n, self.order, terms, self.effective_order, self.exact)

    __rmul__ = __mul__

    def _dense(self):
        """Coefficient vector over the graded index of (n, order): complex, or
        an object array of ``QC`` when exact; cached."""
        if self._pack is None:
            idx = _index(self.n, self.order)
            vec = zero_coefficients(idx.size, self.exact)
            if self._terms:
                vec[idx.slots(self._terms)] = list(self._terms.values())
            vec.flags.writeable = False
            self._pack = vec
        return self._pack

    @classmethod
    def _make(cls, n, order, terms, effective_order, exact, pack=None):
        """Jet on the ``{code: coefficient}`` ``terms`` as given: pruned,
        within (n, order) and sorted by code already, so ``__init__``'s key
        lookup and sort are skipped.  ``terms`` is not copied; no jet mutates
        its terms."""
        jet = cls.__new__(cls)
        jet.n, jet.order, jet.exact = n, order, exact
        jet.effective_order = effective_order if effective_order < order else order
        jet._terms = terms
        jet._pack = pack
        return jet

    @classmethod
    def _from_dense(cls, idx, vec, effective_order, exact=False):
        """Jet from a coefficient vector over ``idx``.

        Applies the same pruning as ``__init__``: exact zeros are dropped
        from an exact vector, and coefficients below PRUNE_EPS from a float
        one, whose non-finite coefficients are kept.  The slots come in code
        order already, so the terms need no sort.
        """
        keep = vec.astype(bool) if exact else ~(np.abs(vec) < PRUNE_EPS)
        slots = np.flatnonzero(keep)
        terms = dict(zip(idx.codes[slots].tolist(), vec[slots].tolist()))
        if not exact:
            vec = np.where(keep, vec, 0)
        vec.flags.writeable = False
        return cls._make(idx.n, idx.order, terms, effective_order, exact, vec)

    @classmethod
    def dot(cls, pairs, n, order, exact=False, start=None):
        """Sum of the products ``a * b`` over ``pairs``, added to ``start``.

        Each pair is (jet, jet) or (jet, scalar).  The result equals the fold
        ``acc = start`` (default ``Jet.zero``), ``acc = acc + a * b`` bit for
        bit, without building a product or a partial-sum jet: each product is
        pruned as its own jet would be, its terms are added in fold order to
        one code-keyed dict (a new key starts at the ``0`` of ``__add__``),
        every touched sum below PRUNE_EPS (exact: zero) is dropped at once,
        and the effective order is the least over ``start`` and the products.
        """
        idx = _index(n, order)
        shape = (n, order, exact)
        eff = order
        acc = {}
        if start is not None:
            _check_operand(start, shape)
            eff = start.effective_order
            acc = dict(start._terms)
        zero = QC(0) if exact else 0
        get = acc.get
        for a, b in pairs:
            _check_operand(a, shape)
            if a.effective_order < eff:
                eff = a.effective_order
            if isinstance(b, Jet):
                _check_operand(b, shape)
                if b.effective_order < eff:
                    eff = b.effective_order
                if not (a._terms and b._terms):
                    continue
                if not exact and len(a._terms) * len(b._terms) > idx.dense_min_pairs:
                    vec = idx.mul(a._dense(), b._dense())
                    slots = np.flatnonzero(~(np.abs(vec) < PRUNE_EPS))
                    items = zip(idx.codes[slots].tolist(), vec[slots].tolist())
                else:
                    items = a._dict_product(b).items()
            else:
                scalar = _as_qc(b) if exact else complex(b)
                items = [(k, v * scalar) for k, v in a._terms.items()]
            # a key absent from acc gets 0 + c, which is nonzero (exact) or
            # of modulus |c| (float), so only held keys are ever dropped
            if exact:
                for k, c in items:
                    if c:
                        c = get(k, zero) + c
                        if c:
                            acc[k] = c
                        else:
                            del acc[k]
            else:
                for k, c in items:
                    if not abs(c) < PRUNE_EPS:
                        c = get(k, zero) + c
                        if not abs(c) < PRUNE_EPS:
                            acc[k] = c
                        else:
                            del acc[k]
        return cls._make(n, order, dict(sorted(acc.items())), eff, exact)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.n == other.n and self.order == other.order
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.n, self.order, tuple(self._terms.items())))

    # -- calculus -----------------------------------------------------------

    def conj(self):
        """Anti-involution: (alpha, beta, c) -> (beta, alpha, conj c)."""
        n = self.n
        terms = sorted((_conj_code(k, n), c.conjugate()) for k, c in self._terms.items())
        return Jet._make(n, self.order, dict(terms), self.effective_order, self.exact)

    def dz(self, k):
        """Formal partial derivative with respect to z_k."""
        return self._partial(k, conjugate=False)

    def dzbar(self, k):
        """Formal partial derivative with respect to zbar_k."""
        return self._partial(k, conjugate=True)

    def gradient(self):
        """The 2n partials: d/dz_1..d/dz_n, then d/dzbar_1..d/dzbar_n."""
        return ([self._partial(k, False) for k in range(self.n)]
                + [self._partial(k, True) for k in range(self.n)])

    def _partial(self, k, conjugate):
        if not 0 <= k < self.n:
            raise JetError(f"variable index {k} out of range for n={self.n}")
        n = self.n
        var = n + k if conjugate else k
        at = _DIGIT_BITS * (2 * n - 1 - var)
        unit = _unit_code(n, var)
        # e: the exponent digit of var; lowering it keeps the terms' code order
        items = ((code - unit, c * e) for code, c in self._terms.items()
                 if (e := code >> at & MAX_ORDER))
        return Jet._make(n, self.order, _pruned(items, self.exact),
                         self.effective_order - 1, self.exact)

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

    def compose(self, subs: Sequence["Jet"] | "Substitution"):
        """Substitute z_k -> subs[k] and zbar_k -> conj(subs[k]).

        ``subs`` is a list of n jets with zero constant terms or a
        ``Substitution`` of them; a list is wrapped in a new one.  Float and
        exact jets run the same code on coefficient vectors: each monomial
        of ``self`` is the image of a monomial one degree lower times the
        image of one variable, so the images are filled from their parents
        into the substitution's memo and summed in one vector-matrix product.
        """
        if not isinstance(subs, Substitution):
            subs = Substitution(subs)
        out_idx, vecs, table = subs._sweep(self)
        exact = self.exact
        eff = min(self.effective_order, subs.effective_order)
        if not self._terms:
            return Jet._from_dense(out_idx, zero_coefficients(out_idx.size, exact), eff, exact)
        idx = _index(self.n, self.order)
        parents, variables = idx.factors

        def image(slot):
            got = table.get(slot)
            if got is None:
                parent, base = parents[slot], vecs[variables[slot]]
                got = base if parent == 0 else out_idx.mul(image(parent), base)
                table[slot] = got
            return got

        images = np.array([image(slot) for slot in idx.slots(self._terms).tolist()])
        coeffs = np.fromiter(self._terms.values(), dtype=images.dtype, count=len(self._terms))
        return Jet._from_dense(out_idx, coeffs @ images, eff, exact)

    # -- serialization ------------------------------------------------------

    def to_records(self):
        """Graded-lex sorted list of {alpha, beta, re, im} records."""
        recs = []
        for (a, b), c in self.terms.items():
            c = complex(c)
            recs.append({"alpha": list(a), "beta": list(b), "re": c.real, "im": c.imag})
        return recs

    def __repr__(self):
        if not self._terms:
            return f"Jet(n={self.n}, N={self.order}; 0)"
        bits = []
        for (a, b), c in list(self.terms.items())[:4]:
            mono = "".join(f"z{i + 1}^{e}" for i, e in enumerate(a) if e)
            mono += "".join(f"zb{i + 1}^{e}" for i, e in enumerate(b) if e)
            bits.append(f"({c})*{mono or '1'}")
        more = " + ..." if len(self._terms) > 4 else ""
        return f"Jet(n={self.n}, N={self.order}; {' + '.join(bits)}{more})"


class Substitution:
    """The substitution z_k -> jets[k], zbar_k -> conj(jets[k]) of one germ,
    checked once and shared by every ``compose`` through it.

    The jets must share their number of variables and their mode, and have
    constant terms that are zero (exact) or of modulus <= PRUNE_EPS (float;
    NaN and inf are not).  A jet composed through them has one variable per
    jet, their mode, and an order N no higher than theirs: it composes
    through the jets truncated to N.  Per order N, the substitution keeps
    the coefficient vectors of the truncated jets and of their conjugates,
    and a memo ``{slot: image}`` of the substituted monomials built so far.  The composes of one germ (the
    entries of a ``JetMatrix``, the components of a Newton step) then build
    each image once.  An image depends only on its slot, so sharing leaves
    every coefficient's bits as they are.  The memo lives as long as the
    substitution.
    """

    __slots__ = ("jets", "exact", "effective_order", "_sweeps")

    def __init__(self, jets: Sequence[Jet]):
        self.jets = list(jets)
        if not self.jets:
            raise JetError("a substitution needs at least one jet")
        n, self.exact = self.jets[0].n, self.jets[0].exact
        for k, s in enumerate(self.jets):
            if s.exact != self.exact:
                raise JetError("cannot mix exact and floating jets")
            if s.n != n:
                raise JetError("substitution jets must share their number of variables")
            c = s.constant_term
            if (c != 0) if self.exact else not abs(c) <= PRUNE_EPS:
                raise JetError(f"substitution for z_{k} has a nonzero constant term")
        self.effective_order = min(s.effective_order for s in self.jets)
        self._sweeps = {}

    def _sweep(self, jet):
        """(output index, vectors of the jets then of their conjugates,
        memo) at the order of ``jet``, once ``jet`` is checked against the
        substitution."""
        if len(self.jets) != jet.n:
            raise JetError(f"expected {jet.n} substitution jets, got {len(self.jets)}")
        if jet.exact != self.exact:
            raise JetError("cannot mix exact and floating jets")
        order = jet.order
        sweep = self._sweeps.get(order)
        if sweep is None:
            if any(s.order < order for s in self.jets):
                raise JetError("substitution jets must match the composed jet's order")
            out_idx = _index(self.jets[0].n, order)
            vecs = [(s.truncated(order) if s.order > order else s)._dense()
                    for s in self.jets]
            vecs += [v[out_idx.conj_perm].conj() for v in vecs]
            unit = zero_coefficients(out_idx.size, self.exact)
            unit[0] = QC(1) if self.exact else 1.0
            sweep = self._sweeps[order] = (out_idx, vecs, {0: unit})
        return sweep


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
        array = np.asarray(array, dtype=object if exact else complex)
        return cls([[Jet.constant(n, order, c, exact=exact) for c in row] for row in array])

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

    def compose(self, subs):
        """Every entry composed through one ``Substitution`` of ``subs``."""
        if not isinstance(subs, Substitution):
            subs = Substitution(subs)
        return self.map(lambda e: e.compose(subs))

    def constant(self):
        """Constant-term matrix: complex, or an object array of ``QC`` when exact."""
        return np.array([[e.constant_term for e in row] for row in self.entries],
                        dtype=object if self.exact else complex)

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
                pairs = list(zip(row_in, col))
                if idx is not None and sum(len(a._terms) * len(b._terms) for a, b in pairs) \
                        > idx.dense_min_pairs:
                    live = [(a, b) for a, b in pairs if a and b]
                    eff = min([self.order] + [min(a.effective_order, b.effective_order)
                                              for a, b in pairs])
                    vec = idx.mul_sum(np.array([a._dense() for a, _ in live]),
                                      np.array([b._dense() for _, b in live]))
                    row.append(Jet._from_dense(idx, vec, eff))
                else:
                    row.append(Jet.dot(pairs, self.n, self.order, self.exact))
            out.append(row)
        return JetMatrix(out)

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise JetError("jet matrix shape mismatch")

    def inverse(self):
        """Neumann-series inverse; requires an invertible constant term."""
        if self.rows != self.cols:
            raise JetError("only square jet matrices can be inverted")
        size, n, order, exact = self.rows, self.n, self.order, self.exact
        m0 = self.constant()
        if exact:
            m0_inv = _exact_inverse(m0, size)
        else:
            cond = np.linalg.cond(m0)
            if not np.isfinite(cond) or cond > 1e12:
                raise SingularMatrixError(
                    f"constant term is numerically singular (cond={cond:.3e})", cond)
            m0_inv = np.linalg.inv(m0)
        m0_inv_mat = JetMatrix.from_constant(m0_inv, n, order, exact=exact)
        # M = M0 (I + M0^-1 (M - M0));  (I + X)^-1 = sum (-X)^k, X nilpotent mod order.
        x = m0_inv_mat @ (self - JetMatrix.from_constant(m0, n, order, exact=exact))
        acc = power = JetMatrix.identity(size, n, order, exact=exact)
        for _ in range(order):
            power = -(power @ x)
            if power.max_abs() == 0:
                break
            acc = acc + power
        eff = self.effective_order
        return (acc @ m0_inv_mat).map(lambda e: e.trusted(eff))

    def __repr__(self):
        return f"JetMatrix({self.rows}x{self.cols}, n={self.n}, N={self.order})"


def _exact_inverse(rows, size):
    """Gauss-Jordan inverse of a square array of QC, as nested lists."""
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


def series_inverse(phi: Sequence[Jet]):
    """Compositional inverse of a coordinate-change germ.

    ``phi`` lists the images of z_1..z_n (conjugates implicit); the linear
    part must be invertible.  Returns psi with phi(psi(Z)) = Z up to the
    order of ``phi[0]``.
    """
    n = len(phi)
    order = phi[0].order
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

    def linear_inverse(jets):
        """The first n components of lin_inv applied to (jets, conj(jets))."""
        both = [p for l, j in enumerate(jets) for p in ((j, l), (j.conj(), n + l))]
        return [Jet.dot([(j, lin_inv[k, col]) for j, col in both], n, order)
                for k in range(n)]

    # start from the inverse of the linear part, then sharpen degree by degree
    psi = linear_inverse(ident)
    for _ in range(order):
        sub = Substitution(psi)
        err = [phi[k].compose(sub) - ident[k] for k in range(n)]
        if max(e.max_abs() for e in err) < PRUNE_EPS:
            break
        psi = [p - c for p, c in zip(psi, linear_inverse(err))]
    # the inverse germ is polynomial-exact through the truncation order
    return [p.trusted(order) for p in psi]
