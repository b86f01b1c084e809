"""Property tests of the jet ring on both sides of the dense-kernel threshold.

Coefficients are small dyadic rationals, so every float sum and product in
these checks is exact and the ring laws can be compared with ``==``.  The
coefficient-family round trips also run on exact jets, with thirds.
"""

from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from acgeom.jets import QC, Jet, JetMatrix, _index, series_inverse

N_VARS, ORDER = 2, 3
MONOS = _index(N_VARS, ORDER).monos
THRESHOLD = _index(N_VARS, ORDER).dense_min_pairs
# (min, max) term counts: two sparse operands multiply on the dict path, two
# dense ones on the kernel.
SPARSE = (1, 3)
DENSE = (THRESHOLD + 1, len(MONOS))

# Shrinking is off: on a failure it spent minutes on these jet-valued
# examples, and derandomized examples reproduce without it.
PROPERTY = settings(derandomize=True, database=None, max_examples=20, deadline=None,
                    phases=(Phase.explicit, Phase.generate))

dyadic = st.builds(lambda re, im: complex(re / 8, im / 8),
                   st.integers(-8, 8), st.integers(-8, 8)).filter(bool)


def jets(size):
    lo, hi = size
    return st.dictionaries(st.sampled_from(MONOS), dyadic, min_size=lo,
                           max_size=hi).map(lambda t: Jet(N_VARS, ORDER, t))


def operands(size):
    return st.tuples(jets(size), jets(size), jets(size))


@pytest.mark.parametrize("size", [SPARSE, DENSE], ids=["dict", "dense"])
def test_associative_and_distributive(size):
    @PROPERTY
    @given(operands(size))
    def check(fgh):
        f, g, h = fgh
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
    check()


@pytest.mark.parametrize("size", [SPARSE, DENSE], ids=["dict", "dense"])
def test_leibniz_rule(size):
    @PROPERTY
    @given(operands(size), st.integers(0, N_VARS - 1))
    def check(fgh, k):
        f, g, _ = fgh
        for d in (lambda u: u.dz(k), lambda u: u.dzbar(k)):
            lhs, rhs = d(f * g), d(f) * g + f * d(g)
            assert (lhs - rhs).max_abs(ORDER - 1) == 0
    check()


@pytest.mark.parametrize("size", [SPARSE, DENSE], ids=["dict", "dense"])
def test_conj_is_an_anti_involution(size):
    @PROPERTY
    @given(operands(size), dyadic)
    def check(fgh, c):
        f, g, _ = fgh
        assert f.conj().conj() == f
        assert (f * g).conj() == f.conj() * g.conj()
        assert (c * f).conj() == c.conjugate() * f.conj()
    check()


HIGHER = [m for m in MONOS if sum(m[0]) + sum(m[1]) >= 2]


def coordinate_changes(size):
    """phi_k = z_k plus a small dyadic higher-order tail."""
    lo, hi = size
    tail = st.dictionaries(st.sampled_from(HIGHER), dyadic, min_size=min(lo, len(HIGHER)),
                           max_size=min(hi, len(HIGHER)))

    def build(tails):
        out = []
        for k, t in enumerate(tails):
            z_k = (tuple(int(i == k) for i in range(N_VARS)), (0,) * N_VARS)
            out.append(Jet(N_VARS, ORDER, {**{m: c / 4 for m, c in t.items()}, z_k: 1.0}))
        return out
    return st.tuples(*[tail] * N_VARS).map(build)


@pytest.mark.parametrize("size", [SPARSE, DENSE], ids=["dict", "dense"])
def test_series_inverse_composes_to_identity(size):
    @PROPERTY
    @given(coordinate_changes(size))
    def check(phi):
        psi = series_inverse(phi)
        for k in range(N_VARS):
            ident = Jet.variable(N_VARS, ORDER, k)
            assert (phi[k].compose(psi) - ident).max_abs() < 1e-12
    check()


def jet_matrices(size):
    """2 x 2 jet matrices with an invertible constant term.

    On the dict side the constant term is 2 I and each entry carries one
    monomial of degree >= 2, so every entry of M^-1 M multiplies a few terms;
    on the dense side the constant has off-diagonal entries and each entry a
    dense tail."""
    dense = size is DENSE
    tail_monos = [m for m in MONOS if sum(m[0]) + sum(m[1]) >= (1 if dense else 2)]
    lo, hi = (THRESHOLD + 1, len(tail_monos)) if dense else (1, 1)
    tail = st.dictionaries(st.sampled_from(tail_monos), dyadic, min_size=lo, max_size=hi)
    const = dyadic if dense else st.just(0)
    zero = ((0,) * N_VARS, (0,) * N_VARS)

    def build(parts):
        (t00, t01, t10, t11), (c01, c10) = parts
        consts = ((2, c01), (c10, 2))
        tails = ((t00, t01), (t10, t11))
        return JetMatrix([[Jet(N_VARS, ORDER, {**tails[i][j], zero: consts[i][j]})
                           for j in range(2)] for i in range(2)])
    return st.tuples(st.tuples(*[tail] * 4), st.tuples(const, const)).map(build)


def _entry_pairs(a, b):
    """Per-entry counts of term pairs in the product a @ b."""
    return [sum(len(x.terms) * len(y.terms) for x, y in zip(row, col))
            for row in a.entries for col in zip(*b.entries)]


@pytest.mark.parametrize("size", [SPARSE, DENSE], ids=["dict", "dense"])
def test_matrix_inverse_is_two_sided(size):
    @PROPERTY
    @given(jet_matrices(size))
    def check(m):
        inv = m.inverse()
        ident = JetMatrix.identity(2, N_VARS, ORDER)
        for a, b in ((inv, m), (m, inv)):
            pairs = _entry_pairs(a, b)
            if size is DENSE:
                assert min(pairs) > THRESHOLD
            else:
                assert max(pairs) <= THRESHOLD
            assert (a @ b - ident).max_abs() < 1e-12
    check()


# Exact coefficients with denominator 3, which a float cannot hold.
thirds = st.builds(lambda re, im: QC(Fraction(re, 3), Fraction(im, 3)),
                   st.integers(-8, 8), st.integers(-8, 8)).filter(bool)


def grids(size, exact=False):
    """2 x 3 jet matrices whose entries draw their term counts from ``size``."""
    lo, hi = size
    entry = st.dictionaries(st.sampled_from(MONOS), thirds if exact else dyadic,
                            min_size=lo, max_size=hi).map(
        lambda t: Jet(N_VARS, ORDER, t, exact=exact))
    return st.lists(st.lists(entry, min_size=3, max_size=3),
                    min_size=2, max_size=2).map(JetMatrix)


def _same(a, b):
    return a.rows == b.rows and a.cols == b.cols and all(
        x == y for r1, r2 in zip(a.entries, b.entries) for x, y in zip(r1, r2))


@pytest.mark.parametrize("size, exact", [(SPARSE, False), (DENSE, False), (SPARSE, True)],
                         ids=["dict", "dense", "exact"])
def test_from_coefficients_inverts_coefficients(size, exact):
    @PROPERTY
    @given(grids(size, exact))
    def check(m):
        fam = m.coefficients()
        if exact:
            assert all(isinstance(c, QC) for mat in fam.values() for c in mat.flat)
        assert _same(JetMatrix.from_coefficients(fam, 2, 3, N_VARS, ORDER, exact=exact), m)
    check()


BIDEGREES = [(p, q) for p in range(ORDER + 1) for q in range(ORDER + 1 - p)]


@pytest.mark.parametrize("size", [SPARSE, DENSE], ids=["dict", "dense"])
def test_from_family_inverts_family(size):
    @PROPERTY
    @given(grids(size))
    def check(m):
        for p, q in BIDEGREES:
            got = JetMatrix.from_family(m.family(p, q), p, q, N_VARS, ORDER)
            want = m.map(lambda e: Jet(N_VARS, ORDER, {
                key: c for key, c in e.terms.items()
                if (sum(key[0]), sum(key[1])) == (p, q)}))
            if p + q <= 2:
                # a monomial reached by r <= 2 slot orderings splits and sums exactly
                assert _same(got, want)
            else:
                assert (got - want).max_abs() <= 1e-14
    check()


def test_empty_family_builds_zero_matrix():
    for exact in (False, True):
        m = JetMatrix.from_coefficients({}, 2, 3, N_VARS, ORDER, exact=exact)
        assert (m.rows, m.cols, m.exact) == (2, 3, exact)
        assert all(not e.terms for row in m.entries for e in row)
