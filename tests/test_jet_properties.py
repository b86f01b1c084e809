"""Property tests of the jet ring on both sides of the dense-kernel threshold.

Coefficients are small dyadic rationals, so every float sum and product in
these checks is exact and the ring laws can be compared with ``==``.  The
coefficient-family round trips also run on exact jets, with thirds.
"""

from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from acgeom.jets import QC, Jet, JetError, JetMatrix, _index, series_inverse

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


# -- exact and float agree -----------------------------------------------------
#
# On dyadic data every float operation is exact, so the float result of each
# operation must equal the exact one coefficient for coefficient, with the
# same effective order.  Exact products and matmuls always take the dict path,
# so the dense sizes compare the float kernel with it.

def exact_copy(jet):
    return Jet(jet.n, jet.order, {k: QC(Fraction(c.real), Fraction(c.imag))
                                  for k, c in jet.terms.items()},
               exact=True).trusted(jet.effective_order)


def exact_matrix(m):
    return m.map(exact_copy)


def assert_agree(got, want):
    assert not got.exact and want.exact
    assert got.terms == {k: complex(c) for k, c in want.terms.items()}
    assert got.effective_order == want.effective_order


def assert_matrices_agree(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    for r1, r2 in zip(got.entries, want.entries):
        for x, y in zip(r1, r2):
            assert_agree(x, y)


def trusted_jets(size):
    """Jets whose effective order is drawn from 1..ORDER."""
    return st.tuples(jets(size), st.integers(1, ORDER)).map(lambda t: t[0].trusted(t[1]))


@pytest.mark.parametrize("size", [SPARSE, DENSE], ids=["dict", "dense"])
def test_exact_and_float_products_agree(size):
    @PROPERTY
    @given(trusted_jets(size), trusted_jets(size))
    def check(f, g):
        assert_agree(f * g, exact_copy(f) * exact_copy(g))
    check()


@pytest.mark.parametrize("size", [SPARSE, DENSE], ids=["dict", "dense"])
def test_exact_and_float_matmul_agree(size):
    @PROPERTY
    @given(grids(size), grids(size))
    def check(a, b):
        if size is DENSE:
            assert min(_entry_pairs(a, b.T)) > THRESHOLD
        assert_matrices_agree(a @ b.T, exact_matrix(a) @ exact_matrix(b).T)
    check()


@pytest.mark.parametrize("size", [SPARSE, DENSE], ids=["dict", "dense"])
def test_exact_and_float_compose_agree(size):
    @PROPERTY
    @given(trusted_jets(size), coordinate_changes(size))
    def check(f, phi):
        assert_agree(f.compose(phi), exact_copy(f).compose([exact_copy(p) for p in phi]))
    check()


def unit_triangular(size):
    """2 x 2 jet matrices with constant term [[1, c], [0, 1]], c dyadic, so
    that the constant's inverse [[1, -c], [0, 1]] and the Neumann series stay
    dyadic."""
    lo, hi = size
    tail = st.dictionaries(st.sampled_from(HIGHER if size is SPARSE else MONOS[1:]), dyadic,
                           min_size=lo, max_size=hi)
    zero = ((0,) * N_VARS, (0,) * N_VARS)

    def build(parts):
        tails, c = parts
        consts = ((1, c), (0, 1))
        return JetMatrix([[Jet(N_VARS, ORDER, {**tails[2 * i + j], zero: consts[i][j]})
                           for j in range(2)] for i in range(2)])
    return st.tuples(st.tuples(*[tail] * 4), dyadic).map(build)


@pytest.mark.parametrize("size", [SPARSE, DENSE], ids=["dict", "dense"])
def test_exact_and_float_inverse_agree(size):
    @PROPERTY
    @given(unit_triangular(size))
    def check(m):
        assert_matrices_agree(m.inverse(), exact_matrix(m).inverse())
    check()


# -- Jet.dot against the fold it replaces ----------------------------------------
#
# ``Jet.dot`` must equal ``acc = acc + a * b`` bit for bit.  These coefficients
# are not dyadic, so sums round and their order shows; a zero real part is
# -0.0, which the fold's ``0 + c`` turns into 0.0.

def fold(pairs, n, order, exact=False, start=None):
    """Reference: the left fold of products that ``Jet.dot`` replaces."""
    acc = Jet.zero(n, order, exact=exact) if start is None else start
    for a, b in pairs:
        acc = acc + a * b
    return acc


def assert_same_bits(got, want):
    assert got == want
    assert [(k, repr(c)) for k, c in got.terms.items()] == \
        [(k, repr(c)) for k, c in want.terms.items()]
    assert got.effective_order == want.effective_order


rounding = st.builds(lambda re, im: complex(re / 7 if re else -0.0, im / 3),
                     st.integers(-8, 8), st.integers(-8, 8)).filter(bool)


def dot_operands(size, exact):
    lo, hi = size
    coeff = thirds if exact else rounding
    jet = st.tuples(st.dictionaries(st.sampled_from(MONOS), coeff, min_size=lo, max_size=hi),
                    st.integers(0, ORDER)).map(
        lambda t: Jet(N_VARS, ORDER, t[0], exact=exact).trusted(t[1]))
    scalar = thirds if exact else st.one_of(rounding, st.integers(-3, 3))
    pair = st.one_of(st.tuples(jet, jet), st.tuples(jet, scalar))
    return st.tuples(st.lists(pair, max_size=6), st.none() | jet)


@pytest.mark.parametrize("size, exact", [(SPARSE, False), (DENSE, False), (SPARSE, True)],
                         ids=["dict", "dense", "exact"])
def test_dot_equals_fold(size, exact):
    @PROPERTY
    @given(dot_operands(size, exact))
    def check(operands):
        pairs, start = operands
        assert_same_bits(Jet.dot(pairs, N_VARS, ORDER, exact, start),
                         fold(pairs, N_VARS, ORDER, exact, start))
    check()


# Exact coefficients over denominators 1, 2^k, 3, 7, 10 and 3^20, negative
# ones included; half of them pure imaginary.
fractions = st.builds(Fraction, st.integers(-12, 12),
                      st.sampled_from([1, 2, 8, 1024, 3, 7, 10, 3 ** 20]))
exact_values = st.builds(lambda re, im, imaginary: QC(0 if imaginary else re, im),
                         fractions, fractions, st.booleans()).filter(bool)


def qc_fold(pairs, n, order, start=None):
    """Reference for exact sums: ``start`` plus every truncated product of
    terms, folded with ``QC`` arithmetic over the ``terms`` dicts, with the
    zero sums left out."""
    acc = {} if start is None else start.terms
    one = ((0,) * n, (0,) * n)
    for a, b in pairs:
        right = b.terms if isinstance(b, Jet) else {one: QC(0) + b}
        for (a1, b1), c1 in a.terms.items():
            for (a2, b2), c2 in right.items():
                key = (tuple(x + y for x, y in zip(a1, a2)), tuple(x + y for x, y in zip(b1, b2)))
                if sum(key[0]) + sum(key[1]) <= order:
                    acc[key] = acc.get(key, QC(0)) + c1 * c2
    return {key: c for key, c in acc.items() if c}


@st.composite
def exact_sums(draw):
    """(n, order, pairs, start): exact jets at small (n, order), with pairs
    whose products cancel, (f + g, f - g) (the cross terms of its product
    cancel) and (a, b) next to (a, -b)."""
    n, order = draw(st.sampled_from([(1, 4), (2, 2), (2, 3)]))
    monos = _index(n, order).monos
    jet = st.tuples(st.dictionaries(st.sampled_from(monos), exact_values, min_size=1,
                                    max_size=5),
                    st.integers(0, order)).map(
        lambda t: Jet(n, order, t[0], exact=True).trusted(t[1]))
    scalar = exact_values | st.integers(-3, 3) | fractions
    pairs = []
    for kind in draw(st.lists(st.sampled_from(["jets", "scalar", "cancel", "conjugate"]),
                              max_size=5)):
        a, b = draw(jet), draw(jet)
        if kind == "scalar":
            pairs.append((a, draw(scalar)))
        elif kind == "cancel":
            pairs += [(a, b), (a, -b)]
        elif kind == "conjugate":
            pairs.append((a + b, a - b))
        else:
            pairs.append((a, b))
    return n, order, pairs, draw(st.none() | jet)


def assert_exact_terms(got, want, eff):
    assert got.exact and all(type(c) is QC for c in got.terms.values())
    assert set(got.terms) == set(want)
    assert {key: (c.a, c.b, c.d) for key, c in got.terms.items()} == \
        {key: (c.a, c.b, c.d) for key, c in want.items()}
    assert got.effective_order == eff


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(exact_sums())
def test_exact_sums_equal_the_qc_fold(operands):
    n, order, pairs, start = operands
    for left, right in (pair for pair in pairs if isinstance(pair[1], Jet)):
        assert_exact_terms(left * right, qc_fold([(left, right)], n, order),
                           min(left.effective_order, right.effective_order))
    effs = [order] + [x.effective_order for pair in pairs for x in pair if isinstance(x, Jet)]
    assert_exact_terms(Jet.dot(pairs, n, order, True), qc_fold(pairs, n, order), min(effs))
    if start is not None:
        assert_exact_terms(Jet.dot(pairs, n, order, True, start),
                           qc_fold(pairs, n, order, start), min(effs + [start.effective_order]))


# -- a jet keeps its partials ---------------------------------------------------
# ``Jet.partial`` keeps each partial on the jet; ``dz`` and ``dzbar`` keep
# nothing, so they are the oracle.  A copy starts with no partials: its own
# effective order decides theirs.

def memo_jets(exact):
    """Jets of every size, float or exact, trusted to a degree drawn from
    0..ORDER."""
    return st.tuples(jets((0, len(MONOS))), st.integers(0, ORDER)).map(
        lambda t: (exact_copy(t[0]) if exact else t[0]).trusted(t[1]))


def fresh_partial(jet, a):
    return jet.dz(a) if a < jet.n else jet.dzbar(a - jet.n)


def partial_bits(jet):
    return repr(jet._terms), jet.effective_order, jet.exact


COPIES = {
    "trusted": lambda f: f.trusted(ORDER - f.effective_order),
    "with_order": lambda f: f.with_order(ORDER + 1),
    "padded": lambda f: f.padded(ORDER + 1),
    "truncated": lambda f: f.truncated(ORDER - 1),
    "conj": lambda f: f.conj(),
}


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_partial_is_dz_or_dzbar(exact):
    @PROPERTY
    @given(memo_jets(exact))
    def check(f):
        for a in range(2 * N_VARS):
            assert partial_bits(f.partial(a)) == partial_bits(fresh_partial(f, a))
        assert f.gradient() == [f.partial(a) for a in range(2 * N_VARS)]
    check()


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("copy", sorted(COPIES))
def test_a_copy_takes_partials_of_its_own(copy, exact):
    @PROPERTY
    @given(memo_jets(exact))
    def check(f):
        f.gradient()
        g = COPIES[copy](f)
        for a in range(2 * N_VARS):
            got = g.partial(a)
            assert got.effective_order == g.effective_order - 1
            assert partial_bits(got) == partial_bits(fresh_partial(g, a))
    check()


@pytest.mark.parametrize("a", [-1, 2 * N_VARS])
def test_partial_index_out_of_range(a):
    with pytest.raises(JetError, match="out of range"):
        Jet.one(N_VARS, ORDER).partial(a)


def test_a_partial_is_taken_once(monkeypatch):
    partial, calls = Jet._partial, []

    def counting(jet, k, conjugate):
        calls.append((k, conjugate))
        return partial(jet, k, conjugate)
    monkeypatch.setattr(Jet, "_partial", counting)

    @PROPERTY
    @given(memo_jets(False) | memo_jets(True))
    def check(f):
        first = [f.partial(a) for a in range(2 * N_VARS)]
        calls.clear()
        assert all(f.partial(a) is d for a, d in enumerate(first))
        assert all(g is d for g, d in zip(f.gradient(), first)) and calls == []
    check()
