"""The frame layer skips work whose result is known, and each shortcut
gives its oracle's result: ``VectorField.derive`` of a constant is the
empty jet at once, with the trust of ``Jet.dot`` over its pairs;
``forms.apply_operator`` enters a piece term with one sign;
``Jet.dot`` seeds an empty sum with one product's kept items and prunes a
dense product's nonzero slots in its loop; ``ConnectionForms.pair_with``
keeps the pairing of the last field.  The oracles live in ``germs.py``.
``Jet.dot`` and ``derive`` are compared on ``repr`` of ``_terms`` (zero
signs included) and effective orders; the operators by value, since one
sign per term may flip the sign of a zero part."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from acgeom.chern import ConnectionForms, chern_connection
from acgeom.forms import OPERATOR_KINDS, FrameCalculus, PQForm, apply_operator
from acgeom.jets import PRUNE_EPS, QC, Jet, _index
from acgeom.structure import VectorField

from germs import (apply_operator_scaling_each_sign, derive_over_pairs, dot_by_fold,
                   exact_frame_calculus, metric_from_families, pairing_without_memo,
                   random_deformation)

CELLS = [(2, 2), (2, 3), (3, 2), (3, 3)]
MODES = ("complex", "real", "exact")


def _settings(max_examples):
    return settings(derandomize=True, database=None, max_examples=max_examples,
                    deadline=None, phases=(Phase.explicit, Phase.generate))


def _bits(jets):
    return [(repr(j._terms), j.effective_order) for j in jets]


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


def _jet(rng, n, order, mode, nterms, fixed=None):
    """A jet of ``nterms`` draws of any degree and the ``fixed`` terms; one
    in four trusts one degree less."""
    monos = _index(n, order).monos
    terms = {monos[int(rng.integers(0, len(monos)))]: _coefficient(rng, mode)
             for _ in range(nterms)}
    terms.update(fixed or {})
    jet = Jet(n, order, terms, exact=mode == "exact")
    return jet.trusted(order - 1) if rng.integers(0, 4) == 0 else jet


def _constant(rng, n, order, mode):
    """A jet with no term above degree 0: empty, a constant, or (float) a
    NaN constant; one in three trusts fewer degrees."""
    exact = mode == "exact"
    pick = int(rng.integers(0, 3))
    if pick == 0:
        jet = Jet.zero(n, order, exact)
    elif pick == 1 or exact:
        jet = Jet.constant(n, order, _coefficient(rng, mode), exact)
    else:
        jet = Jet.constant(n, order, complex(math.nan, rng.normal()))
    return jet.trusted(int(rng.integers(-1, order))) if rng.integers(0, 3) == 0 else jet


def _field(rng, n, order, mode):
    """A vector field with random components, a third of them empty; one in
    five has every component empty."""
    empty = rng.integers(0, 5) == 0
    return VectorField([Jet.zero(n, order, mode == "exact")
                        if empty or rng.integers(0, 3) == 0
                        else _jet(rng, n, order, mode, int(rng.integers(1, 6)))
                        for _ in range(2 * n)])


# -- VectorField.derive of a constant -------------------------------------------

@pytest.mark.parametrize("n, order", CELLS)
def test_derive_of_a_constant_matches_the_dot_over_its_pairs(n, order):
    @_settings(25)
    @given(st.integers(0, 2 ** 16), st.sampled_from(MODES))
    @example(0, "complex")
    def check(seed, mode):
        rng = np.random.default_rng(seed)
        x = _field(rng, n, order, mode)
        for f in (_constant(rng, n, order, mode), _jet(rng, n, order, mode, 4)):
            got = x.derive(f, f.gradient())
            assert got.exact == f.exact
            assert _bits([got]) == _bits([derive_over_pairs(x, f)])
    check()


def test_derive_of_a_constant_takes_no_partial():
    # the gradient is read from a field's memo, which stays empty
    rng = np.random.default_rng(4)
    x = _field(rng, 2, 3, "complex")
    const = Jet.constant(2, 3, 2.5).trusted(1)
    y = VectorField([const] + [Jet.zero(2, 3)] * 3)
    got = x.derive(const, y.partials(0))
    assert y._partials == {}
    assert not got and _bits([got]) == _bits([derive_over_pairs(x, const)])


# -- Jet.dot seeds its sum --------------------------------------------------------

def _dense_operands(rng, n, order, mode):
    """Two jets whose product runs on the dense kernel, each with a constant
    term (the product's constant is its one pair, signed zeros kept) and two
    tiny coefficients (whose products fall below PRUNE_EPS) and, in float
    modes, a NaN part or a signed-zero part in one term of one of them."""
    idx = _index(n, order)
    tiny = QC(1) / QC(10 ** 8) if mode == "exact" else 1e-8
    zero, unit = (0,) * n, (1,) + (0,) * (n - 1)
    fixed = {(unit, zero): tiny, (zero, unit): tiny, (zero, zero): _coefficient(rng, mode)}
    a = _jet(rng, n, order, mode, idx.dense_min_pairs, fixed)
    fixed[zero, zero] = _coefficient(rng, mode)
    if mode != "exact":
        special = [complex(math.nan, 0.0), complex(-0.0, 1.0), complex(1.0, -0.0)]
        fixed = dict(fixed)
        fixed[idx.monos[int(rng.integers(1, idx.size))]] = special[int(rng.integers(0, 3))]
    b = _jet(rng, n, order, mode, idx.dense_min_pairs, fixed)
    assert len(a._terms) * len(b._terms) > idx.dense_min_pairs
    return a, b


@pytest.mark.parametrize("n, order", CELLS)
def test_dot_matches_the_fold(n, order):
    @_settings(25)
    @given(st.integers(0, 2 ** 16), st.sampled_from(MODES), st.booleans())
    def check(seed, mode, with_start):
        rng = np.random.default_rng(seed)
        exact = mode == "exact"
        a, b = _dense_operands(rng, n, order, mode)
        start = _jet(rng, n, order, mode, 3) if with_start else None
        pairs = [(a, b)]
        for _ in range(int(rng.integers(0, 5))):
            c = _jet(rng, n, order, mode, int(rng.integers(0, 6)))
            pick = int(rng.integers(0, 3))
            if pick == 0:
                # a product that cancels every held key of the fold so far
                pairs.append((dot_by_fold(pairs, n, order, exact, start=start), -1))
            elif pick == 1:
                pairs.append((c, _coefficient(rng, mode)))
            else:
                pairs.append((c, _jet(rng, n, order, mode, int(rng.integers(0, 6)))))
        got = Jet.dot(pairs, n, order, exact, start=start)
        assert _bits([got]) == _bits([dot_by_fold(pairs, n, order, exact, start=start)])
    check()


def test_dot_after_a_cancelling_product_seeds_again():
    # (a, 1) then (a, -1) empties the sum; the next product, dense, starts
    # it again from the 0 of __add__, which turns the -0.0 imaginary part of
    # its constant term, (1 - 0j)(2 - 0j), into 0.0
    n, order = 2, 2
    zero = (0, 0)
    a = Jet(n, order, {((1, 0), zero): 1.5, (zero, (0, 1)): -2.0})
    b, c = (Jet(n, order, {(zero, zero): complex(k, -0.0), ((1, 0), zero): 1.0,
                           ((0, 1), zero): 1.0, (zero, (1, 0)): 1.0})
            for k in (1.0, 2.0))
    assert len(b._terms) * len(c._terms) > _index(n, order).dense_min_pairs
    pairs = [(a, 1.0), (a, -1.0), (b, c)]
    got = Jet.dot(pairs, n, order)
    assert _bits([got]) == _bits([dot_by_fold(pairs, n, order)])
    assert repr(got._terms[0]) == repr(2 + 0j)


def test_dense_slots_below_prune_eps_are_dropped():
    rng = np.random.default_rng(11)
    a, b = _dense_operands(rng, 2, 2, "complex")
    got = Jet.dot([(a, b)], 2, 2)
    assert all(not abs(c) < PRUNE_EPS for c in got._terms.values())
    assert _bits([got]) == _bits([a * b])


# -- apply_operator: one sign per term ------------------------------------------

def _form(calc, rng, n, order, mode, p, q):
    """A form of bidegree (p, q) on ``calc`` whose coefficients are random
    jets, constants (which derive to nothing) or absent."""
    coeffs = {}
    for kk in combinations(range(n), p):
        for ll in combinations(range(n), q):
            pick = int(rng.integers(0, 4))
            if pick == 0:
                continue
            coeffs[kk, ll] = (Jet.constant(n, order, _coefficient(rng, mode), mode == "exact")
                              if pick == 1 else _jet(rng, n, order, mode, 4))
    return PQForm(calc, p, q, coeffs)


def _same_values(got: PQForm, want: PQForm):
    assert (got.p, got.q) == (want.p, want.q)
    assert got.coeffs.keys() == want.coeffs.keys()
    for key, jet in got.coeffs.items():
        other = want.coeffs[key]
        assert jet.exact == other.exact
        assert jet._terms == other._terms
        assert jet.effective_order == other.effective_order


@pytest.fixture(scope="module")
def calculi():
    """Per cell: a seed-1 random deformation's frame calculus, in float and
    as an exact copy."""
    out = {}
    for n, order in CELLS:
        calc = FrameCalculus(random_deformation(1, n=n, order=order))
        out[n, order] = {"complex": calc, "real": calc, "exact": exact_frame_calculus(calc)}
    return out


@pytest.mark.parametrize("n, order", CELLS)
def test_operators_match_the_sign_by_sign_scaling(calculi, n, order):
    @_settings(15)
    @given(st.integers(0, 2 ** 16), st.sampled_from(MODES),
           st.integers(0, 2), st.integers(0, 2))
    @example(0, "exact", 1, 1)
    def check(seed, mode, p, q):
        rng = np.random.default_rng(seed)
        calc = calculi[n, order][mode]
        u = _form(calc, rng, n, order, mode, min(p, n), min(q, n))
        for kind in OPERATOR_KINDS:
            _same_values(apply_operator(kind, u), apply_operator_scaling_each_sign(kind, u))
    check()


# -- PQForm.coefficient in the form's mode --------------------------------------

@pytest.mark.parametrize("mode", ["complex", "exact"])
def test_missing_coefficient_has_the_forms_mode(calculi, mode):
    calc = calculi[2, 3][mode]
    exact = mode == "exact"
    held = Jet(2, 3, {((1, 0), (0, 0)): QC(1) if exact else 1.0}, exact=exact)
    form = PQForm(calc, 1, 0, {((0,), ()): held})
    missing = form.coefficient((1,), ())
    assert not missing and missing.exact == exact
    assert (held + missing) == held
    assert not PQForm(calc, 1, 0, {}).coefficient((0,), ()).exact


# -- ConnectionForms.pair_with keeps its last field -------------------------------

@pytest.mark.parametrize("n, order", [(2, 2), (3, 2)])
def test_pairing_follows_the_field(n, order):
    s = random_deformation(2, n=n, order=order)
    rng = np.random.default_rng(3)
    lin = 0.1 * (rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n)))
    calc = FrameCalculus(s)
    conn = chern_connection(calc, metric_from_families(n, order, lin=lin))
    fr = calc.frame
    x, y = fr.real_frame_field(0), fr.zeta(n - 1) + 2 * fr.zeta_bar(0)
    want = {id(f): _bits(e for row in pairing_without_memo(conn, f).entries for e in row)
            for f in (x, y)}
    assert want[id(x)] != want[id(y)]
    for f in (x, y, x, x, y):
        got = conn.pair_with(f)
        assert _bits(e for row in got.entries for e in row) == want[id(f)]
    # the same field again reads the kept matrix; a new connection keeps none
    assert conn.pair_with(y) is got
    fresh = ConnectionForms(conn.aprime, conn.asecond)
    assert _bits(e for row in fresh.pair_with(x).entries for e in row) == want[id(x)]
