import itertools
import math

import numpy as np
import pytest

from fractions import Fraction

from acgeom.jets import (Jet, JetError, JetMatrix, QC, SingularMatrixError,
                         Substitution, _Index, _conj_code, _index, block2x2,
                         multi_index, series_inverse)

from conftest import random_jet, random_point


def z(n, order, k, exact=False, conjugate=False):
    """z_k (zbar_k with ``conjugate``), with the exact unit when ``exact``."""
    var = Jet.variable(n, order, k, conjugate=conjugate)
    return Jet(n, order, {key: QC(1) for key in var.terms}, exact=True) if exact else var


def zb(n, order, k, exact=False):
    return z(n, order, k, exact, conjugate=True)


class TestMul:
    def test_binomial_product(self):
        f = Jet.one(2, 3) + z(2, 3, 0)
        g = Jet.one(2, 3) + zb(2, 3, 0)
        h = f * g
        assert h.coeff((0, 0), (0, 0)) == 1
        assert h.coeff((1, 0), (0, 0)) == 1
        assert h.coeff((0, 0), (1, 0)) == 1
        assert h.coeff((1, 0), (1, 0)) == 1
        assert len(h.terms) == 4

    def test_identity_element(self, rng):
        for _ in range(5):
            f = random_jet(rng, 3, 4)
            assert (f * Jet.one(3, 4) - f).max_abs() == 0

    def test_truncation_kills_high_degree(self):
        # oracle: expand (z1+z2)^3 exactly in rational arithmetic, truncate
        s3 = z(2, 3, 0, exact=True) + z(2, 3, 1, exact=True)
        cube = s3 * s3 * s3
        assert all(sum(a) + sum(b) == 3 for a, b in cube.terms)
        truncated = cube.truncated(2)
        assert not truncated.terms
        # floating path at order 2 agrees with the truncated oracle
        s2 = z(2, 2, 0) + z(2, 2, 1)
        assert not (s2 * s2 * s2).terms

    def test_order_mismatch_rejected(self):
        with pytest.raises(JetError):
            z(2, 3, 0) * z(2, 4, 0)
        with pytest.raises(JetError):
            z(2, 3, 0) + z(3, 3, 0)

    def test_numpy_and_dict_paths_agree(self, rng):
        # oracle: term-by-term convolution written out here, on both sides of
        # the dense-kernel threshold and at a padded order N+1
        for order in (5, 6):
            threshold = _index(3, order).dense_min_pairs
            for nterms in (3, 40):
                f = random_jet(rng, 3, 5, nterms=nterms).padded(order)
                g = random_jet(rng, 3, 5, nterms=nterms).padded(order)
                assert (len(f.terms) * len(g.terms) > threshold) == (nterms == 40)
                want = naive_product(f, g)
                got = f * g
                assert set(got.terms) <= set(want)
                assert max(abs(got.coeff(*k) - c) for k, c in want.items()) < 1e-12
                # dyadic data: every sum is exact, so the terms agree exactly
                fd = random_jet(rng, 3, 5, nterms=nterms, dyadic=True).padded(order)
                gd = random_jet(rng, 3, 5, nterms=nterms, dyadic=True).padded(order)
                assert (fd * gd).terms == {k: c for k, c in naive_product(fd, gd).items() if c}

    def test_kernel_result_hashes_like_constructed_jet(self, rng):
        f = random_jet(rng, 2, 4, nterms=30)
        g = random_jet(rng, 2, 4, nterms=30)
        got = f * g
        shuffled = dict(reversed(list(got.terms.items())))
        rebuilt = Jet(2, 4, shuffled)
        assert got == rebuilt
        assert hash(got) == hash(rebuilt)
        assert list(got.terms) == list(rebuilt.terms)

    @pytest.mark.parametrize("nterms", [2, 30])
    def test_nan_survives_product(self, rng, nterms):
        # nterms=2 stays on the dict path, nterms=30 runs the dense kernel
        f = Jet.constant(2, 4, complex("nan")) + random_jet(rng, 2, 4, nterms=nterms - 1)
        g = random_jet(rng, 2, 4, nterms=30) + 10.0
        h = f * g
        assert np.isnan(h.max_abs())
        assert not h.max_abs() <= 1.0


def naive_product(f, g):
    """Convolution of two jets' terms, truncated at f.order, keyed by
    exponent tuples and summed in the order the pairs are visited."""
    out = {}
    zero = QC(0) if f.exact else 0j
    for (a1, b1), c1 in f.terms.items():
        for (a2, b2), c2 in g.terms.items():
            key = (tuple(x + y for x, y in zip(a1, a2)),
                   tuple(x + y for x, y in zip(b1, b2)))
            if sum(key[0]) + sum(key[1]) <= f.order:
                out[key] = out.get(key, zero) + c1 * c2
    return out


def bits(jet):
    return [(k, repr(c)) for k, c in jet.terms.items()]


class TestDot:
    def test_code_keyed_product_matches_tuple_keyed(self, rng):
        # the dict path keys its sums by monomial code; the reference keys
        # them by exponent tuples, then prunes and sorts through Jet(...)
        for n, order in ((1, 6), (2, 3), (3, 4)):
            threshold = _index(n, order).dense_min_pairs
            for nterms in (1, 2, 3):
                f = random_jet(rng, n, order, nterms=nterms)
                g = random_jet(rng, n, order, nterms=nterms + 1)
                assert len(f.terms) * len(g.terms) <= threshold
                want = Jet(n, order, naive_product(f, g))
                assert f * g == want
                assert bits(f * g) == bits(want)
                fq, gq = (Jet(n, order, {k: QC(Fraction(c.real).limit_denominator(99),
                                                Fraction(c.imag).limit_denominator(99))
                                          for k, c in h.terms.items()}, exact=True)
                          for h in (f, g))
                want = Jet(n, order, naive_product(fq, gq), exact=True)
                assert fq * gq == want
                assert list((fq * gq).terms) == list(want.terms)

    def test_partial_sum_below_prune_is_dropped(self):
        # the fold prunes every partial sum: 1 - (1 - 5e-15) falls below
        # PRUNE_EPS and is dropped, so the sum restarts at 2e-14; adding the
        # three products without that prune would give 2e-14 + 5e-15
        one = Jet.one(1, 1)
        pairs = [(one, 1.0), (one, -(1.0 - 5e-15)), (one, 2e-14)]
        got = Jet.dot(pairs, 1, 1)
        assert got.constant_term == 2e-14
        partial = Jet.zero(1, 1)
        for a, c in pairs:
            partial = partial + a * c
        assert got == partial
        jet_pairs = [(one, one * c) for _, c in pairs]
        assert Jet.dot(jet_pairs, 1, 1).constant_term == 2e-14

    def test_nan_survives(self, rng):
        f = Jet.constant(2, 3, complex("nan")) + random_jet(rng, 2, 3, nterms=2)
        g = random_jet(rng, 2, 3, nterms=2) + 1.0
        for pairs in ([(f, g), (g, g)], [(f, 2.0), (f, -2.0)], [(g, f), (g, -1.0)]):
            got = Jet.dot(pairs, 2, 3)
            assert np.isnan(got.max_abs())
            assert bits(got) == bits(sum((a * b for a, b in pairs), Jet.zero(2, 3)))

    def test_start_and_effective_order(self):
        f = z(2, 3, 0).trusted(2)
        start = zb(2, 3, 1).trusted(1)
        assert Jet.dot([], 2, 3).effective_order == 3
        assert Jet.dot([(f, 2.0)], 2, 3).effective_order == 2
        got = Jet.dot([(f, f)], 2, 3, start=start)
        assert got == start + f * f
        assert got.effective_order == 1

    def test_mismatch_rejected(self):
        with pytest.raises(JetError):
            Jet.dot([(z(2, 3, 0), z(2, 4, 0))], 2, 3)
        with pytest.raises(JetError):
            Jet.dot([(z(2, 3, 0), 1.0)], 3, 3)
        with pytest.raises(JetError):
            Jet.dot([(z(2, 3, 0, exact=True), 1)], 2, 3)
        with pytest.raises(JetError):
            Jet.dot([], 2, 3, exact=True, start=z(2, 3, 0))


class TestMaxAbs:
    def test_nan_coefficient_is_not_zero(self):
        f = Jet(2, 3, {((1, 0), (0, 0)): 2.0, ((0, 0), (0, 1)): complex("nan")})
        assert np.isnan(f.max_abs())
        assert not f.max_abs() <= 0.0

    def test_nan_propagates_through_matrix(self):
        m = JetMatrix.identity(2, 2, 3)
        m.entries[1][1] = Jet.constant(2, 3, complex("nan"))
        assert np.isnan(m.max_abs())


class TestFamily:
    N_VARS, ORDER = 3, 4

    @pytest.fixture
    def mat(self, rng):
        """Random 2 x 3 float matrix with every monomial of degree <= 4 in every
        entry, so each bidegree below is populated."""
        monos = _index(self.N_VARS, self.ORDER).monos
        return JetMatrix([[Jet(self.N_VARS, self.ORDER,
                               {m: complex(rng.normal(), rng.normal()) for m in monos})
                           for _ in range(3)] for _ in range(2)])

    @pytest.mark.parametrize("deg_z, deg_zbar",
                             [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 1)])
    def test_contraction_is_bidegree_part(self, mat, rng, deg_z, deg_zbar):
        fam = mat.family(deg_z, deg_zbar)
        assert fam.shape == (self.N_VARS,) * (deg_z + deg_zbar) + (2, 3)
        point = random_point(rng, self.N_VARS, radius=0.7)
        got = fam
        for v in [point] * deg_z + [point.conjugate()] * deg_zbar:
            got = np.tensordot(v, got, axes=(0, 0))
        for k in range(2):
            for l in range(3):
                part = Jet(self.N_VARS, self.ORDER,
                           {(a, b): c for (a, b), c in mat[k, l].terms.items()
                            if sum(a) == deg_z and sum(b) == deg_zbar})
                assert abs(got[k, l] - part.eval(point)) < 1e-14

    def test_symmetric_in_z_and_in_zbar_slots(self, mat):
        fam = mat.family(3, 1)
        for perm in [(1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]:
            assert np.array_equal(fam.transpose(perm + (3, 4, 5)), fam)
        fam = mat.family(1, 2)
        assert np.array_equal(fam.transpose(0, 2, 1, 3, 4), fam)

    def test_split_between_slot_orderings(self):
        # c sits whole on a slot that one ordering reaches, c / r on each of r
        f = Jet(3, 4, {((1, 1, 0), (0, 0, 0)): 4.0, ((2, 0, 0), (0, 0, 0)): 3.0,
                       ((2, 1, 0), (0, 0, 1)): 6.0})
        m = JetMatrix([[f]])
        quad = m.family(2, 0)[..., 0, 0]
        assert quad[0, 0] == 3.0 and quad[0, 1] == quad[1, 0] == 2.0
        cubic = m.family(3, 1)[..., 0, 0]
        for slot in [(0, 0, 1, 2), (0, 1, 0, 2), (1, 0, 0, 2)]:
            assert cubic[slot] == 2.0
        assert np.count_nonzero(cubic) == 3

    def test_coefficients_match_terms(self, rng):
        m = JetMatrix([[random_jet(rng, 2, 3, nterms=6) for _ in range(3)]
                       for _ in range(2)])
        fam = m.coefficients()
        assert set(fam) == {key for row in m.entries for e in row for key in e.terms}
        for key, arr in fam.items():
            assert arr.shape == (2, 3)
            for k in range(2):
                for l in range(3):
                    assert arr[k, l] == m[k, l].terms.get(key, 0)

    def test_exact_family_rejected(self):
        with pytest.raises(JetError):
            JetMatrix.identity(2, 2, 3, exact=True).family(0, 0)

    def test_multi_index(self):
        assert multi_index(3, 1) == (0, 1, 0)
        assert multi_index(3, 0, 2, 0) == (2, 0, 1)
        assert multi_index(2) == (0, 0)


class TestConj:
    def test_single_term(self):
        f = 1j * z(2, 3, 0)
        g = f.conj()
        assert g.coeff((0, 0), (1, 0)) == -1j
        assert len(g.terms) == 1

    def test_involution(self, rng):
        f = random_jet(rng, 2, 4)
        assert f.conj().conj() == f

    def test_multiplicative(self, rng):
        f, g = random_jet(rng, 2, 4), random_jet(rng, 2, 4)
        lhs = (f * g).conj()
        rhs = f.conj() * g.conj()
        assert (lhs - rhs).max_abs() < 1e-13


class TestPartial:
    def test_monomial_rule(self):
        f = Jet(2, 4, {((2, 0), (0, 1)): 1.0})
        d = f.dz(0)
        assert d.coeff((1, 0), (0, 1)) == 2
        assert len(d.terms) == 1
        assert d.effective_order == 3

    def test_independent_variable(self):
        f = Jet(2, 4, {((2, 0), (0, 0)): 1.0})
        assert not f.dzbar(0).terms

    def test_leibniz(self, rng):
        f, g = random_jet(rng, 2, 4), random_jet(rng, 2, 4)
        for op in (lambda u: u.dz(1), lambda u: u.dzbar(0)):
            lhs = op(f * g)
            rhs = op(f) * g + f * op(g)
            eff = min(lhs.effective_order, rhs.effective_order)
            assert (lhs - rhs).max_abs(eff) < 1e-12

    def test_mixed_partials_commute_exactly(self, rng):
        f = random_jet(rng, 3, 5, nterms=12, dyadic=True)
        assert f.dz(0).dzbar(2) == f.dzbar(2).dz(0)
        assert f.dz(1).dz(2) == f.dz(2).dz(1)

    def test_bad_index(self):
        with pytest.raises(JetError):
            z(2, 3, 0).dz(2)


class TestCompose:
    def test_direct_substitution(self):
        f = z(2, 3, 0)
        phi = [z(2, 3, 0) + z(2, 3, 1) * z(2, 3, 1), z(2, 3, 1)]
        g = f.compose(phi)
        assert g.coeff((1, 0), (0, 0)) == 1
        assert g.coeff((0, 2), (0, 0)) == 1
        assert len(g.terms) == 2

    def test_identity_substitution(self, rng):
        f = random_jet(rng, 2, 4)
        ident = [z(2, 4, 0), z(2, 4, 1)]
        assert (f.compose(ident) - f).max_abs() < 1e-13

    def test_inverse_roundtrip(self, rng):
        # series-inversion oracle: psi solves phi(psi) = id degree by degree
        n, order = 2, 4
        phi = [z(n, order, 0) + 0.3 * z(n, order, 1) * z(n, order, 1)
               + 0.1j * z(n, order, 0) * zb(n, order, 1),
               z(n, order, 1) - 0.2 * z(n, order, 0) * z(n, order, 0)]
        psi = series_inverse(phi)
        for k, ident in enumerate([z(n, order, 0), z(n, order, 1)]):
            assert (phi[k].compose(psi) - ident).max_abs() < 1e-12
        f = random_jet(rng, n, order)
        back = f.compose(phi).compose(psi)
        eff = back.effective_order
        assert (back - f).max_abs(eff) < 1e-11

    def test_affine_guard(self):
        f = z(2, 3, 0)
        shifted = [z(2, 3, 0) + 0.5, z(2, 3, 1)]
        with pytest.raises(JetError):
            f.compose(shifted)

    def test_dense_compose_matches_exact(self, rng):
        # oracle: naive substitution, sum of c * prod subs_k^alpha_k *
        # conj(subs_k)^beta_k over the terms, in exact dict products; on
        # dyadic data the float sums are exact too
        n, order = 2, 4

        def naive_compose(f, subs):
            out = Jet.zero(n, order, exact=True)
            for (a, b), c in f.terms.items():
                term = Jet.constant(n, order, c, exact=True)
                for bases, exps in ((subs, a), ([s.conj() for s in subs], b)):
                    for base, e in zip(bases, exps):
                        for _ in range(e):
                            term = term * base
                out = out + term
            return out

        def dyadic_jet(nterms, max_degree, min_degree=0):
            terms = {}
            for m in _index(n, order).monos:
                d = sum(m[0]) + sum(m[1])
                if min_degree <= d <= max_degree and len(terms) < nterms:
                    terms[m] = complex(int(rng.integers(-8, 9)) / 8,
                                       int(rng.integers(-8, 9)) / 8)
            return terms

        def both(terms):
            exact = {k: QC(Fraction(c.real), Fraction(c.imag)) for k, c in terms.items()}
            return Jet(n, order, terms), Jet(n, order, exact, exact=True)

        f, fe = both(dyadic_jet(70, order))
        z_key = [(tuple(int(i == k) for i in range(n)), (0,) * n) for k in range(n)]
        phi, phie = zip(*[both({**dyadic_jet(6, 3, min_degree=2), z_key[k]: 1.0})
                          for k in range(n)])
        assert len(fe.terms) == 70
        want = naive_compose(fe, phie)
        got, got_exact = f.compose(phi), fe.compose(phie)
        assert got_exact == want
        assert got.terms == {k: complex(c) for k, c in want.terms.items()}
        assert got.effective_order == got_exact.effective_order == want.effective_order

    def test_two_n_substitutions_rejected(self):
        n, order = 2, 3
        f = z(n, order, 0)
        phi = [z(n, order, 0), z(n, order, 1)]
        with pytest.raises(JetError):
            f.compose(phi + [p.conj() for p in phi])

    def test_functoriality(self, rng):
        n, order = 2, 4
        f = random_jet(rng, n, order)
        phi = [z(n, order, 0) + 0.2 * z(n, order, 1) * z(n, order, 1), z(n, order, 1)]
        psi = [z(n, order, 0), z(n, order, 1) + 0.1 * z(n, order, 0) * zb(n, order, 0)]
        lhs = f.compose(phi).compose(psi)
        rhs = f.compose([p.compose(psi) for p in phi])
        eff = min(lhs.effective_order, rhs.effective_order)
        assert (lhs - rhs).max_abs(eff) < 1e-11


def dyadic_jet(rng, n, order, nterms, min_degree=0, exact=False):
    """Jet on the first ``nterms`` monomials of degree >= min_degree, with
    dyadic coefficients, so exact and float arithmetic agree; ``nterms``
    above the index size gives full support."""
    terms = {}
    for m in _index(n, order).monos:
        if sum(m[0]) + sum(m[1]) >= min_degree and len(terms) < nterms:
            re, im = (int(v) for v in rng.integers(-64, 65, size=2))
            terms[m] = QC(Fraction(re, 64), Fraction(im, 64)) if exact \
                else complex(re / 64, im / 64)
    return Jet(n, order, terms, exact=exact)


class TestSubstitution:
    """One ``Substitution`` shared by many composes gives each the bits of a
    compose through a fresh one."""

    N_VARS, ORDER = 2, 4

    def germ(self, rng, order, exact=False):
        """z_k plus full-support terms of degree 2..order; the second
        component trusted to degree 3 only."""
        n = self.N_VARS
        psi = [z(n, order, k, exact) + dyadic_jet(rng, n, order, 10 ** 3, 2, exact)
               for k in range(n)]
        return [psi[0], psi[1].trusted(3)]

    def matrix(self, rng, exact=False):
        """4 x 4 entries from one to every monomial of (2, 4): rows of 1, 3,
        20 and 70 terms, the sizes of dict-path and of dense-kernel jets."""
        n, order = self.N_VARS, self.ORDER
        assert _index(n, order).size == 70
        return JetMatrix([[dyadic_jet(rng, n, order, nterms, exact=exact) for _ in range(4)]
                          for nterms in (1, 3, 20, 70)])

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_shared_compose_keeps_every_bit(self, rng, exact):
        m = self.matrix(rng, exact)
        psi = self.germ(rng, self.ORDER + 1, exact)
        got = m.compose(psi)
        for row, got_row in zip(m.entries, got.entries):
            for e, g in zip(row, got_row):
                want = e.compose(list(psi))
                assert bits(g) == bits(want)
                assert g.effective_order == want.effective_order == 3

    def test_one_substitution_serves_every_order(self, rng):
        n = self.N_VARS
        psi = self.germ(rng, 5)
        sub = Substitution(psi)
        for order in (5, 3, 4, 5, 2):
            f = dyadic_jet(rng, n, order, 10 ** 3)
            assert bits(f.compose(sub)) == bits(f.compose(psi))

    def test_float_and_exact_images_stay_apart(self, rng):
        # the same dyadic germ in both modes, so only the mode tells the
        # two substitutions apart
        n, order = self.N_VARS, self.ORDER
        def exact(jet):
            return Jet(n, order, {k: QC(Fraction(c.real), Fraction(c.imag))
                                  for k, c in jet.terms.items()}, exact=True)

        psi = [z(n, order, k) + dyadic_jet(rng, n, order, 10 ** 3, 2) for k in range(n)]
        f = dyadic_jet(rng, n, order, 10 ** 3)
        got = f.compose(Substitution(psi))
        got_exact = exact(f).compose(Substitution([exact(p) for p in psi]))
        assert got_exact.exact and all(isinstance(c, QC) for c in got_exact.terms.values())
        assert got.terms == {k: complex(c) for k, c in got_exact.terms.items()}

    def test_one_matrix_compose_shares_images(self, rng, monkeypatch):
        m = self.matrix(rng)
        psi = self.germ(rng, self.ORDER)
        calls = []
        mul = _Index.mul
        monkeypatch.setattr(_Index, "mul", lambda idx, a, b: calls.append(1) or mul(idx, a, b))
        m.compose(psi)
        shared = len(calls)
        for row in m.entries:
            for e in row:
                e.compose(psi)
        assert shared < len(calls) - shared
        assert shared <= _index(self.N_VARS, self.ORDER).size

    @pytest.mark.parametrize("jet", [
        z(2, 3, 0, exact=True),
        Jet.variable(3, 3, 0),
        z(2, 4, 0),
    ], ids=["exact-vs-float", "wrong-count", "order-above"])
    def test_rejections(self, jet):
        sub = Substitution([z(2, 3, 0), z(2, 3, 1)])
        with pytest.raises(JetError):
            jet.compose(sub)
        with pytest.raises(JetError):
            JetMatrix([[jet]]).compose(sub)

    @pytest.mark.parametrize("c", [math.nan, math.inf, complex(0, -math.inf),
                                   complex(math.nan, 1)])
    def test_non_finite_constant_term_rejected(self, c):
        f = Jet(2, 3, {((1, 0), (0, 0)): 2.0})
        subs = [Jet(2, 3, {((0, 0), (0, 0)): c, ((1, 0), (0, 0)): 1.0}), z(2, 3, 1)]
        with pytest.raises(JetError, match="constant term"):
            Substitution(subs)
        with pytest.raises(JetError, match="constant term"):
            f.compose(subs)


class TestMatrixInverse:
    def test_identity(self):
        m = JetMatrix.identity(3, 2, 3)
        inv = m.inverse()
        assert (inv - m).max_abs() == 0

    def test_nilpotent_perturbation(self):
        m = JetMatrix.identity(2, 2, 3)
        m.entries[0][1] = z(2, 3, 0)
        inv = m.inverse()
        assert (inv[0, 1] + z(2, 3, 0)).max_abs() < 1e-14
        assert (inv[0, 0] - Jet.one(2, 3)).max_abs() < 1e-14

    def test_neumann_series_entry(self):
        # H = I + 0.2(z1+zb1) E11; verify H Hinv = I to truncation order
        order = 4
        h = JetMatrix.identity(2, 2, order)
        bump = 0.2 * (z(2, order, 0) + zb(2, order, 0))
        h.entries[0][0] = h.entries[0][0] + bump
        inv = h.inverse()
        resid = h @ inv - JetMatrix.identity(2, 2, order)
        assert resid.max_abs() < 1e-13
        # leading expansion 1 - 0.2 u + 0.04 u^2 with u = z1 + zb1
        e = inv[0, 0]
        assert abs(e.coeff((0, 0), (0, 0)) - 1) < 1e-14
        assert abs(e.coeff((1, 0), (0, 0)) + 0.2) < 1e-14
        assert abs(e.coeff((2, 0), (0, 0)) - 0.04) < 1e-14
        assert abs(e.coeff((1, 0), (1, 0)) - 0.08) < 1e-14

    def test_singular_reported(self):
        m = JetMatrix.zeros(2, 2, 2, 3)
        m.entries[0][1] = Jet.one(2, 3)
        m.entries[1][0] = Jet.zero(2, 3)
        with pytest.raises(SingularMatrixError):
            m.inverse()

    def test_exact_inverse(self):
        m = JetMatrix.identity(2, 2, 3, exact=True)
        m.entries[0][1] = Jet(2, 3, {((1, 0), (0, 0)): QC("1/3")}, exact=True)
        inv = m.inverse()
        resid = m @ inv - JetMatrix.identity(2, 2, 3, exact=True)
        assert resid.max_abs() == 0


class TestEval:
    def test_simple(self):
        f = z(2, 3, 0) * zb(2, 3, 0)
        assert abs(f.eval([0.5, 0]) - 0.25) < 1e-15

    def test_constant(self):
        f = Jet.constant(2, 3, 2 - 1j)
        assert f.eval([0.3 + 0.2j, -0.1]) == 2 - 1j

    def test_against_naive_sum(self, rng):
        f = random_jet(rng, 3, 4, nterms=10)
        p = random_point(rng, 3, radius=0.3)
        naive = 0j
        for (a, b), c in f.terms.items():
            term = c
            for i in range(3):
                term *= p[i] ** a[i] * np.conj(p[i]) ** b[i]
            naive += term
        assert abs(f.eval(p) - naive) < 1e-13

    def test_conj_commutes_with_eval(self, rng):
        f = random_jet(rng, 2, 4)
        p = random_point(rng, 2, radius=0.4)
        assert abs(f.conj().eval(p) - np.conj(f.eval(p))) < 1e-13


class TestRingAxioms:
    def test_ring_axioms_random(self, rng):
        n, order = 3, 5
        for _ in range(3):
            f = random_jet(rng, n, order)
            g = random_jet(rng, n, order)
            h = random_jet(rng, n, order)
            assert ((f * g) * h - f * (g * h)).max_abs() < 1e-12
            assert (f * g - g * f).max_abs() == 0
            assert (f * (g + h) - (f * g + f * h)).max_abs() < 1e-12


class TestSeriesInverse:
    def test_linear_mixing(self):
        n, order = 2, 3
        phi = [z(n, order, 0) + 0.2 * zb(n, order, 1), z(n, order, 1)]
        psi = series_inverse(phi)
        for k, ident in enumerate([z(n, order, 0), z(n, order, 1)]):
            assert (phi[k].compose(psi) - ident).max_abs() < 1e-12
            assert (psi[k].compose(phi) - ident).max_abs() < 1e-12


def graded_monomials(n, order):
    """Every (alpha, beta) of degree <= order, sorted by (degree, alpha, beta)."""
    monos = []
    for d in range(order + 1):
        for slots in itertools.combinations_with_replacement(range(2 * n), d):
            e = multi_index(2 * n, *slots)
            monos.append((e[:n], e[n:]))
    return sorted(monos, key=lambda m: (sum(m[0]) + sum(m[1]), m[0], m[1]))


def layout_codes(exps):
    """Codes of the rows of a (count, 2n) exponent array, from the layout:
    base-16 digits holding the degree, then alpha, then beta."""
    digits = np.column_stack([exps.sum(axis=1), exps])
    return digits @ (16 ** np.arange(digits.shape[1] - 1, -1, -1, dtype=np.int64))


LAYOUT_SHAPES = ([(n, order) for n in range(1, 5) for order in range(9)]
                 + [(1, 15), (7, 1), (7, 2)])


class TestMonomialCodes:
    @pytest.mark.parametrize("n, order", LAYOUT_SHAPES)
    def test_ascending_codes_are_graded_order(self, n, order):
        idx = _index(n, order)
        want = graded_monomials(n, order)
        assert idx.monos == want
        codes = [idx.code_of[m] for m in want]
        assert codes == sorted(codes) == idx.codes.tolist()
        exps = np.array([a + b for a, b in want]).reshape(len(want), 2 * n)
        assert codes == layout_codes(exps).tolist()

    @pytest.mark.parametrize("n, order", LAYOUT_SHAPES)
    def test_codes_add(self, n, order):
        # code(I) + code(J) = code(I + J) for every pair within the order
        idx = _index(n, order)
        exps = np.array([a + b for a, b in idx.monos]).reshape(idx.size, 2 * n)
        degree = exps.sum(axis=1)
        codes = idx.codes
        for d in range(order + 1):
            left, right = np.meshgrid(np.flatnonzero(degree == d),
                                      np.flatnonzero(degree <= order - d), indexing="ij")
            left, right = left.ravel(), right.ravel()
            assert np.array_equal(codes[left] + codes[right],
                                  layout_codes(exps[left] + exps[right]))

    @pytest.mark.parametrize("n, order", [(1, 15), (2, 4), (3, 3), (7, 2)])
    def test_conj_code_swaps_alpha_and_beta(self, n, order):
        code_of = _index(n, order).code_of
        for a, b in code_of:
            assert _conj_code(code_of[(a, b)], n) == code_of[(b, a)]

    def test_conj_keys(self, rng):
        f = random_jet(rng, 3, 4, nterms=12)
        got = f.conj().terms
        assert got == {(b, a): c.conjugate() for (a, b), c in f.terms.items()}
        assert list(got) == [m for m in _index(3, 4).monos if m in got]

    def test_terms_view_is_graded_and_detached(self, rng):
        f = random_jet(rng, 2, 4, nterms=10)
        view = f.terms
        assert list(view) == [m for m in _index(2, 4).monos if m in view]
        before = dict(view)
        view[((0, 0), (0, 0))] = 99.0
        del view[next(iter(before))]
        assert f.terms == before
        assert f == Jet(2, 4, before)

    def test_bool(self):
        assert not Jet.zero(2, 3)
        assert not Jet(2, 3, {((1, 0), (0, 0)): 1e-20})
        assert Jet.one(2, 3)
        assert not Jet.one(2, 3).dz(0)

    def test_deepest_codes(self):
        # order 15 fills a digit; n = 7 fills the int64 code
        x = Jet.variable(1, 15, 0)
        top = x
        for _ in range(14):
            top = top * x
        assert top.terms == {((15,), (0,)): 1}
        assert (top * x).max_abs() == 0
        assert top.conj().terms == {((0,), (15,)): 1}
        assert top.dz(0).terms == {((14,), (0,)): 15}
        w = Jet.variable(7, 2, 6) * Jet.variable(7, 2, 6, conjugate=True)
        assert w.terms == {(multi_index(7, 6), multi_index(7, 6)): 1}

    @pytest.mark.parametrize("build", [
        lambda: Jet(1, 16, {}),
        lambda: Jet(8, 2, {}),
        lambda: Jet.constant(8, 2, 1.0),
        lambda: Jet.variable(1, 15, 0).with_order(16),
        lambda: Jet.variable(1, 15, 0).padded(16),
        lambda: Jet.variable(1, 4, 0).truncated(-1),
    ], ids=["init-order", "init-n", "constant-n", "with_order", "padded", "truncated"])
    def test_out_of_range_raises(self, build):
        with pytest.raises(JetError):
            build()


class TestSerialization:
    def test_roundtrip_sorted(self, rng):
        f = random_jet(rng, 2, 4, nterms=8)
        recs = f.to_records()
        degs = [sum(r["alpha"]) + sum(r["beta"]) for r in recs]
        assert degs == sorted(degs)
        g = Jet(2, 4, {(tuple(r["alpha"]), tuple(r["beta"])): complex(r["re"], r["im"])
                       for r in recs})
        assert f == g


def test_block2x2_shape():
    a = JetMatrix.identity(2, 2, 3)
    b = JetMatrix.zeros(2, 2, 2, 3)
    m = block2x2(a, b, b, a)
    assert m.rows == m.cols == 4
    assert (m - JetMatrix.identity(4, 2, 3)).max_abs() == 0

