"""A coordinate change forms only what its callers read, with the bits of the
plain loops: ``series_inverse`` starts an identity-tangent germ without a
compose, ``_jacobian`` takes one gradient per jet, ``transform_structure``
forms the n kept columns of its second product, and
``JetMatrix.coefficients`` fills its arrays in one pass.  Each is compared
with its oracle in ``germs.py`` on ``repr`` of ``_terms`` (zero signs
included) and effective orders."""

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from acgeom.jets import Jet, JetMatrix, series_inverse
from acgeom.structure import ChartChange, _jacobian, adapt_linear, transform_structure

from germs import (chart_change_by_oracles, coefficients_per_entry, jacobian_per_partial,
                   random_deformation, series_inverse_composing,
                   transform_structure_full_product)

LINEAR_KINDS = ("identity", "signed-zero identity", "general")


def _bits(jets):
    return [(repr(j._terms), j.effective_order) for j in jets]


def _matrix_bits(m: JetMatrix):
    return _bits(e for row in m.entries for e in row)


def _coefficient(rng):
    """A complex normal times 0.2; a third of them carry a -0.0 part."""
    re, im = 0.2 * rng.normal(), 0.2 * rng.normal()
    pick = int(rng.integers(0, 6))
    return complex(-0.0 if pick == 0 else re, -0.0 if pick == 1 else im)


def _change(seed, n, order, linear):
    """n jets z_k + a few terms of degree 2..order.  The linear part is the
    identity, the identity with -0.0 imaginary parts on its diagonal, or
    the identity plus small z and zbar terms."""
    rng = np.random.default_rng(seed)
    phi = []
    for k in range(n):
        zero = (0,) * n
        unit = tuple(int(i == k) for i in range(n))
        terms = {(unit, zero): complex(1.0, -0.0) if linear == "signed-zero identity" else 1.0}
        if linear == "general":
            for l in range(n):
                key = (tuple(int(i == l) for i in range(n)), zero)
                terms[key] = terms.get(key, 0) + 0.1 * _coefficient(rng)
                terms[(zero, key[0])] = 0.1 * _coefficient(rng)
        for _ in range(2 * n):
            exps = [0] * (2 * n)
            for _ in range(int(rng.integers(2, order + 1))):
                exps[int(rng.integers(0, 2 * n))] += 1
            terms[(tuple(exps[:n]), tuple(exps[n:]))] = _coefficient(rng)
        phi.append(Jet(n, order, terms))
    return phi


def _check_change(s, phi):
    """Each piece of a chart change for ``s.order`` against its oracle."""
    w = s.order + 1
    phi_w = [p.padded(w) for p in phi]
    psi = series_inverse(phi_w)
    assert _bits(psi) == _bits(series_inverse_composing(phi_w))
    for jets in (phi_w, psi):
        assert _matrix_bits(_jacobian(jets, w)) == _matrix_bits(jacobian_per_partial(jets, w))
    got = transform_structure(s, ChartChange(phi, s.order))
    want = transform_structure_full_product(s, chart_change_by_oracles(phi, s.order))
    assert _matrix_bits(got.A) == _matrix_bits(want.A)
    assert _matrix_bits(got.B) == _matrix_bits(want.B)
    _check_coefficients(got.B)
    _check_coefficients(got.matrix())


def _check_coefficients(m: JetMatrix):
    got, want = m.coefficients(), coefficients_per_entry(m)
    assert list(got) == list(want)
    for key, mat in got.items():
        assert mat.dtype == want[key].dtype and mat.shape == want[key].shape
        if mat.dtype == object:     # QC values
            assert mat.tolist() == want[key].tolist(), key
        else:                       # the bits, zero signs and NaNs included
            assert mat.tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("n, order", [(1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_property(n, order):
    @settings(derandomize=True, database=None, max_examples=10, deadline=None,
              phases=(Phase.explicit, Phase.generate))
    @given(st.integers(0, 47), st.integers(0, 2 ** 16), st.sampled_from(LINEAR_KINDS))
    # a -0.0 imaginary part on the diagonal still reads as the identity, so
    # the first error is phi - z, whose zero signs must not reach psi
    @example(3, 5, "signed-zero identity")
    def check(germ_seed, change_seed, linear):
        _check_change(random_deformation(germ_seed, n=n, order=order),
                      _change(change_seed, n, order + 1, linear))
    check()


def test_adapt_linear_change_matches_the_oracles():
    # a structure whose constant is not i I: the phi of adapt_linear has a
    # linear part that is not the identity, and series_inverse composes at
    # its first step
    s = random_deformation(2, n=2, order=3)
    raw = transform_structure(s, _change(11, 2, 4, "general"))
    _, phi = adapt_linear(raw)
    lin = np.array([[p.coeff(a, b) for a, b in (((1, 0), (0, 0)), ((0, 1), (0, 0)),
                                                ((0, 0), (1, 0)), ((0, 0), (0, 1)))]
                    for p in phi])
    assert not np.array_equal(lin, np.eye(2, 4))
    _check_change(raw, phi)


def test_coefficients_of_an_exact_and_an_empty_matrix():
    m = JetMatrix([[Jet(2, 2, {((1, 0), (0, 1)): "1/3", ((0, 0), (0, 0)): 2}, exact=True),
                    Jet.zero(2, 2, exact=True)],
                   [Jet.zero(2, 2, exact=True),
                    Jet(2, 2, {((1, 0), (0, 1)): "-1/2"}, exact=True)]])
    _check_coefficients(m)
    _check_coefficients(JetMatrix.zeros(2, 3, 2, 2))
    fam = m.coefficients()
    mats = list(fam.values())
    assert not np.shares_memory(mats[0], mats[1])


class TestFormsOnlyWhatItKeeps:
    def test_second_product_has_n_columns(self, monkeypatch):
        # (2, 3) germ: dphi o psi @ M o psi forms 4 x 4 = 16 entries, the
        # product with the kept columns of dpsi 4 x 2 = 8
        s = random_deformation(1, n=2, order=3)
        change = ChartChange(_change(1, 2, 4, "identity"), 3)
        matmul, formed = JetMatrix.__matmul__, []

        def counting(a, b):
            formed.append(a.rows * b.cols)
            return matmul(a, b)
        monkeypatch.setattr(JetMatrix, "__matmul__", counting)
        transform_structure(s, change)
        assert formed == [16, 8]

    @pytest.mark.parametrize("linear, composes", [("identity", 0), ("general", 2)])
    def test_no_compose_through_an_identity_start(self, monkeypatch, linear, composes):
        # phi linear at order 1: one Newton step, whose error is zero
        phi = [p.truncated(1).padded(3) for p in _change(4, 2, 3, linear)]
        compose, calls = Jet.compose, []

        def counting(jet, subs):
            calls.append(jet)
            return compose(jet, subs)
        monkeypatch.setattr(Jet, "compose", counting)
        series_inverse(phi)
        assert len(calls) == composes

    def test_one_gradient_per_jet(self, monkeypatch):
        phi = _change(6, 3, 3, "general")
        gradient, partial, calls = Jet.gradient, Jet._partial, []

        def counting_gradient(jet):
            calls.append("gradient")
            return gradient(jet)

        def counting_partial(jet, k, conjugate):
            calls.append("partial")
            return partial(jet, k, conjugate)
        monkeypatch.setattr(Jet, "gradient", counting_gradient)
        monkeypatch.setattr(Jet, "_partial", counting_partial)
        _jacobian(phi, 3)
        assert calls.count("gradient") == 3 and calls.count("partial") == 18
