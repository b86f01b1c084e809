"""The frame layer does each jet operation once, with the bits of the plain
code: ``Jet.__sub__`` folds held - c with no negated copy, and it and
``__add__`` prune only the keys they touch; ``Jet.dot`` checks its operands
by attribute and folds a scalar pair straight into its sum;
``JetMatrix.inverse`` starts an identity constant term from X = M - I;
``VectorField.bracket`` reads each field's partials from that field's memo;
``LeviCivita.derivative`` keeps the products Gamma^c_ab xi^a of its last xi
and, like ``chern.chern_derivative``, reads the partials of eta's
components from eta's memo (coordinate and frame components apart); a
0-form keeps its gradient for del and delbar.  Each is compared with its
oracle in ``germs.py`` on ``repr`` of ``_terms`` (zero signs included) and
effective orders, and count pins show the work each one no longer
repeats."""

import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from acgeom.chern import (ChernLeviCivita, LeviCivita, chern_connection, chern_derivative,
                          curvature, function_matrix, hermitian_compat_residual,
                          pointwise_curvature_residual)
from acgeom.forms import FrameCalculus
from acgeom.jets import QC, Jet, JetMatrix, SingularMatrixError
from acgeom.structure import (VectorField, bracket_coefficients, frame_and_dual,
                              nijenhuis_check, torsion_tensor)

from germs import (bench_frame_germ, bench_frame_structure, bracket_without_memo,
                   chern_derivative_without_memo, dot_by_parts, inverse_through_identity,
                   jet_difference_by_negation, jet_sum_pruning_every_key,
                   lc_derivative_without_memo, metric_from_families, random_b_normal,
                   random_deformation)

CELLS = [(1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]
MODES = ("complex", "real", "exact")
CONSTANTS = ("identity", "signed-zero identity", "near identity", "general")


def _settings(check):
    return settings(derandomize=True, database=None, max_examples=10, deadline=None,
                    phases=(Phase.explicit, Phase.generate))(check)


def _bits(jets):
    return [(repr(j._terms), j.effective_order) for j in jets]


def _matrix_bits(m: JetMatrix):
    return _bits(e for row in m.entries for e in row)


def _coefficient(rng, mode):
    """A complex normal (a third of them with a -0.0 part), a real one
    (imaginary part 0.0 or -0.0), or a dyadic ``QC``."""
    if mode == "exact":
        return QC(int(rng.integers(-64, 65)), int(rng.integers(-64, 65))) / QC(64)
    re, im = rng.normal(), rng.normal()
    pick = int(rng.integers(0, 6))
    if mode == "real":
        return complex(re, -0.0 if pick < 3 else 0.0)
    return complex(-0.0 if pick == 0 else re, -0.0 if pick == 1 else im)


def _key(rng, n, low, high):
    exps = [0] * (2 * n)
    for _ in range(int(rng.integers(low, high + 1))):
        exps[int(rng.integers(0, 2 * n))] += 1
    return tuple(exps[:n]), tuple(exps[n:])


def _jet(rng, n, order, mode, nterms, low=0):
    """A jet of ``nterms`` draws of degree ``low``..order; one in four
    trusts one degree less."""
    terms = {_key(rng, n, low, order): _coefficient(rng, mode) for _ in range(nterms)}
    jet = Jet(n, order, terms, exact=mode == "exact")
    return jet.trusted(order - 1) if rng.integers(0, 4) == 0 else jet


def _pair(rng, n, order, mode):
    """Two jets that share some keys: b repeats, negates or perturbs a few
    of a's coefficients, so that sums and differences cancel some of them."""
    a = _jet(rng, n, order, mode, int(rng.integers(0, 12)))
    b_terms = {}
    for key, c in a.terms.items():
        pick = int(rng.integers(0, 4))
        if pick == 0:
            b_terms[key] = c
        elif pick == 1:
            b_terms[key] = -c
        elif pick == 2:
            b_terms[key] = _coefficient(rng, mode)
    b = Jet(n, order, b_terms, exact=mode == "exact") + _jet(rng, n, order, mode, 4)
    return a, b


@pytest.mark.parametrize("n, order", CELLS)
def test_sums_and_differences_match_the_pruning_fold(n, order):
    @_settings
    @given(st.integers(0, 2 ** 16), st.sampled_from(MODES))
    @example(0, "exact")
    def check(seed, mode):
        rng = np.random.default_rng(seed)
        a, b = _pair(rng, n, order, mode)
        for x, y in ((a, b), (b, a), (a, a), (a, Jet.zero(n, order, mode == "exact"))):
            assert _bits([x - y]) == _bits([jet_difference_by_negation(x, y)])
            assert _bits([x + y]) == _bits([jet_sum_pruning_every_key(x, y)])
        c = _coefficient(rng, mode)
        const = Jet.constant(n, order, c, exact=mode == "exact")
        assert _bits([a - c]) == _bits([jet_difference_by_negation(a, const)])
        assert _bits([a + c]) == _bits([jet_sum_pruning_every_key(a, const)])
    check()


@pytest.mark.parametrize("n, order", CELLS)
def test_dot_matches_the_checked_loop(n, order):
    @_settings
    @given(st.integers(0, 2 ** 16), st.sampled_from(MODES), st.booleans())
    def check(seed, mode, with_start):
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(int(rng.integers(1, 7))):
            a = _jet(rng, n, order, mode, int(rng.integers(0, 9)))
            if rng.integers(0, 2):
                # dense products too: 8 x 8 terms exceed every cell's threshold
                pairs.append((a, _jet(rng, n, order, mode, int(rng.integers(0, 9)))))
            elif mode == "exact":
                pairs.append((a, _coefficient(rng, mode)))
            else:
                pairs.append((a, [_coefficient(rng, mode), complex(-0.0, 1.0), 0.0,
                                  2][int(rng.integers(0, 4))]))
        start = _jet(rng, n, order, mode, 5) if with_start else None
        exact = mode == "exact"
        got = Jet.dot(pairs, n, order, exact, start=start)
        assert _bits([got]) == _bits([dot_by_parts(pairs, n, order, exact, start=start)])
    check()


def _matrix(rng, size, n, order, mode, constant):
    """A size x size jet matrix with terms of degree 1..order and the
    constant term ``constant``: exactly I; I with -0.0 imaginary parts on
    the diagonal; I with 1 + 2**-52 in one diagonal slot, near I but not
    equal; or I plus a random matrix of norm < 1/2."""
    exact = mode == "exact"
    one = QC(1) if exact else 1.0
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            jet = _jet(rng, n, order, mode, int(rng.integers(0, 6)), low=1)
            c = one if i == j else 0
            if constant == "signed-zero identity" and i == j:
                c = complex(1.0, -0.0)
            elif constant == "near identity" and i == j == size - 1:
                c = 1 + 2 ** -52
            elif constant == "general":
                c = c + _coefficient(rng, mode) / (4 * size)
            row.append(jet + Jet.constant(n, order, c, exact=exact) if c else jet)
        rows.append(row)
    return JetMatrix(rows)


@pytest.mark.parametrize("n, order", CELLS)
def test_inverse_matches_the_series_through_identity(n, order):
    @_settings
    @given(st.integers(0, 2 ** 16), st.sampled_from(MODES), st.sampled_from(CONSTANTS),
           st.sampled_from([1, 2, 2 * n]))
    @example(1, "complex", "near identity", 2)
    @example(2, "exact", "identity", 2)
    def check(seed, mode, constant, size):
        if mode == "exact" and constant != "identity":
            constant = "general"
        m = _matrix(np.random.default_rng(seed), size, n, order, mode, constant)
        assert _matrix_bits(m.inverse()) == _matrix_bits(inverse_through_identity(m))
    check()


def _field(rng, n, order, mode):
    """A vector field whose components are random jets, a third of them zero."""
    return VectorField([_jet(rng, n, order, mode, int(rng.integers(1, 6)))
                        if rng.integers(0, 3) else Jet.zero(n, order, mode == "exact")
                        for _ in range(2 * n)])


@pytest.mark.parametrize("n, order", CELLS)
def test_brackets_match_the_memo_free_bracket(n, order):
    @_settings
    @given(st.integers(0, 2 ** 16), st.sampled_from(MODES))
    def check(seed, mode):
        rng = np.random.default_rng(seed)
        x, y, z = (_field(rng, n, order, mode) for _ in range(3))
        # each field is bracketed several times, on both sides, so its memo
        # serves brackets with different partners
        for u, v in ((x, y), (z, y), (y, x), (x, z), (z, x), (y, z), (x, x)):
            assert _bits(u.bracket(v).components) == \
                _bits(bracket_without_memo(u, v).components)
    check()


def _germ(seed, n, order):
    """A random deformation and a z-dependent metric."""
    s = random_deformation(seed % 8, n=n, order=order)
    rng = np.random.default_rng(seed)
    lin = 0.1 * (rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n)))
    return FrameCalculus(s), metric_from_families(n, order, lin=lin)


def _levi_civita(seed, n, order):
    return LeviCivita(*_germ(seed, n, order))


@pytest.mark.parametrize("n, order", CELLS)
def test_levi_civita_derivative_matches_the_memo_free_sum(n, order):
    @settings(derandomize=True, database=None, max_examples=4, deadline=None,
              phases=(Phase.explicit, Phase.generate))
    @given(st.integers(0, 2 ** 16), st.sampled_from(MODES[:2]))
    def check(seed, mode):
        lc = _levi_civita(seed, n, order)
        rng = np.random.default_rng(seed + 1)
        xi, zeta, e1, e2 = (_field(rng, n, order, mode) for _ in range(4))
        frame = lc.calc.frame
        # along xi twice, then zeta, then xi again, as decomposition_residual
        # calls it along each real frame field
        for u, v in ((xi, e1), (xi, e2), (zeta, e1), (xi, e1),
                     (frame.real_frame_field(0), e2), (frame.real_frame_field(0), xi)):
            assert _bits(lc.derivative(u, v).components) == \
                _bits(lc_derivative_without_memo(lc, u, v).components)
    check()


@pytest.mark.parametrize("n, order", CELLS)
def test_chern_derivative_matches_the_memo_free_sum(n, order):
    @settings(derandomize=True, database=None, max_examples=4, deadline=None,
              phases=(Phase.explicit, Phase.generate))
    @given(st.integers(0, 2 ** 16), st.sampled_from(MODES[:2]))
    def check(seed, mode):
        calc, hd = _germ(seed, n, order)
        other, other_hd = _germ(seed + 1, n, order)
        conns = {calc: chern_connection(calc, hd), other: chern_connection(other, other_hd)}
        rng = np.random.default_rng(seed + 1)
        xi, zeta, e1, e2 = (_field(rng, n, order, mode) for _ in range(4))
        # each eta along several fields, and in a second frame in between, so
        # that its frame memo is replaced and built again
        for c, u, v in ((calc, xi, e1), (calc, zeta, e1), (calc, xi, e2),
                        (other, xi, e1), (calc, zeta, e1),
                        (calc, calc.frame.real_frame_field(0), e2),
                        (calc, calc.frame.real_frame_field(1 % n), e2)):
            assert _bits(chern_derivative(c, conns[c], u, v).components) == \
                _bits(chern_derivative_without_memo(c, conns[c], u, v).components)
    check()


def _has_nan(jets):
    return any(math.isnan(j.max_abs()) for j in jets)


class TestNaNStaysVisible:
    def test_difference_and_dot(self):
        a = Jet(2, 2, {((1, 0), (0, 0)): 1.0})
        b = Jet(2, 2, {((1, 0), (0, 0)): complex(math.nan, 0.0)})
        assert _has_nan([a - b, b - a, a + b])
        assert _has_nan([Jet.dot([(a, math.nan)], 2, 2)])
        assert _has_nan([Jet.dot([(a, 1.0), (b, 2.0)], 2, 2)])

    def test_inverse(self):
        m = JetMatrix.identity(2, 2, 3)
        m.entries[0][1] = Jet(2, 3, {((0, 1), (0, 0)): math.nan})
        assert _has_nan(e for row in m.inverse().entries for e in row)
        m.entries[1][1] = Jet.constant(2, 3, math.nan)
        with pytest.raises(SingularMatrixError):
            m.inverse()

    def test_bracket_and_levi_civita(self):
        x = VectorField.coordinate(2, 2, 0)
        y = VectorField([Jet(2, 2, {((1, 0), (0, 0)): math.nan})] + [Jet.zero(2, 2)] * 3)
        assert _has_nan(x.bracket(y).components)
        lc = _levi_civita(3, 2, 2)
        assert _has_nan(lc.derivative(y, x).components)
        assert _has_nan(lc.derivative(x, y).components)


class TestEachOperationOnce:
    def test_inverse_from_identity_makes_n_minus_1_products(self, monkeypatch):
        # (n, N) = (2, 3): the powers -X, X^2 and -X^3 take 2 products, where
        # M0^-1 @ (M - M0), I @ X and the final @ M0^-1 took 3 more
        rng = np.random.default_rng(2)
        m = _matrix(rng, 2, 2, 3, "complex", "identity")
        matmul, calls = JetMatrix.__matmul__, []

        def counting(a, b):
            calls.append(a)
            return matmul(a, b)
        monkeypatch.setattr(JetMatrix, "__matmul__", counting)
        m.inverse()
        assert len(calls) == 2

    def test_difference_negates_nothing(self, monkeypatch):
        a, b = _pair(np.random.default_rng(3), 2, 3, "complex")
        neg, calls = Jet.__neg__, []

        def counting(jet):
            calls.append(jet)
            return neg(jet)
        monkeypatch.setattr(Jet, "__neg__", counting)
        _ = a - b, a - 0.5
        assert calls == []

    @staticmethod
    def _count_partials(monkeypatch):
        partial, calls = Jet._partial, []

        def counting(jet, k, conjugate):
            calls.append(jet)
            return partial(jet, k, conjugate)
        monkeypatch.setattr(Jet, "_partial", counting)
        return calls

    # the benchmark's frame-calculus germs at seed 1: (2, 2) full support and
    # (3, 2) sparse; each frame field takes each partial of its components
    # once, and none of a constant component (64 and 216 brackets, 128 and
    # 432 Nijenhuis partials when constants were derived too)
    @pytest.mark.parametrize("index, brackets, nijenhuis", [(0, 64, 64), (1, 96, 96)])
    def test_bracket_partials(self, monkeypatch, index, brackets, nijenhuis):
        s = bench_frame_structure(index, 1)
        frame = frame_and_dual(s)
        calls = self._count_partials(monkeypatch)
        bc = bracket_coefficients(s, frame)
        assert len(calls) == brackets
        calls.clear()
        nijenhuis_check(s, torsion_tensor(s, frame, bc))
        assert len(calls) == nijenhuis

    def test_one_gradient_per_metric_entry(self, monkeypatch):
        # (3, 3): 9 entries of 6 partials each
        s = random_deformation(1, n=3, order=3)
        rng = np.random.default_rng(5)
        lin = 0.1 * (rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3)))
        calc, hd = FrameCalculus(s), metric_from_families(3, 3, lin=lin)
        conn = chern_connection(calc, hd)
        calls = self._count_partials(monkeypatch)
        hermitian_compat_residual(calc, hd, conn)
        assert len(calls) == 54

    # the seed-1 frame-calculus germs: each real frame field takes the
    # partials of its coordinate and frame components once over all xi, and
    # none of a constant one (128 and 288 when every derivative took its
    # own, 64 and 216 when constants were derived too)
    @pytest.mark.parametrize("index, partials", [(0, 32), (1, 48)])
    def test_decomposition_partials(self, monkeypatch, index, partials):
        s, hd = bench_frame_germ(index, 1)
        dec = ChernLeviCivita(FrameCalculus(s), hd)
        calls = self._count_partials(monkeypatch)
        dec.decomposition_residual()
        assert len(calls) == partials

    def test_del_and_delbar_share_each_gradient(self, monkeypatch):
        # (3, 3): 9 entries of conj(H), 6 partials each (108 when del and
        # delbar took their own)
        calc, hd = _germ(1, 3, 3)
        hbar = function_matrix(calc, hd.H.conj())
        calls = self._count_partials(monkeypatch)
        hbar.apply("del"), hbar.apply("delbar")
        assert len(calls) == 54

    def test_pointwise_curvature_partials(self, monkeypatch):
        # a (3, 3) normal-form germ (A''(0) = 0) and a z-dependent metric:
        # 342 before forms kept their gradients, when del and delbar of
        # conj(H) and of A'' (after ``curvature``) each took their own
        s = random_b_normal(0, n=3, order=3)
        rng = np.random.default_rng(5)
        lin = 0.1 * (rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3)))
        calc, hd = FrameCalculus(s), metric_from_families(3, 3, lin=lin)
        conn = chern_connection(calc, hd)
        blocks = curvature(calc, conn)
        calls = self._count_partials(monkeypatch)
        assert pointwise_curvature_residual(calc, hd, conn, blocks) < 1e-10
        assert len(calls) == 252
