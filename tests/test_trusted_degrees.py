"""Trusted degrees, tested from above the input's order.

An output that trusts its degrees <= e must not move there when the input
gains data it could not see.  An order-N germ is re-embedded at order N + 1
with ``padded`` and random terms of degree N + 1 are added to its A and B
blocks; ``transform_structure`` and ``normalize_to_order`` must give the same
coefficients on every degree the unperturbed output trusts.  Terms of degree
>= N + 2 in a coordinate change must not move ``transform_structure``'s output
on degrees <= N either.  The torsion tensor takes one derivative of the
frame, so its coefficients state N - 1 and must keep every degree up to what
they state.  So must the Chern connection's forms A' and A'', with the
metric re-embedded and perturbed at degree N + 1 as well.  The oracle needs
no formula from the paper, and it fails when a transport works at order N
instead of N + 1 or an output states one degree more than it has.
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from acgeom.chern import HermitianData, chern_connection
from acgeom.forms import FrameCalculus
from acgeom.jets import Jet, JetMatrix, _index
from acgeom.normal import normalize_to_order
from acgeom.structure import AlmostComplexStructure, torsion_tensor, transform_structure

from germs import flat_entries, random_deformation

N_VARS = 2
# The dense kernel's threshold depends on the order, so different working
# orders may sum some products in another order: degrees are compared to
# rounding, not to the bit.
TOL = 1e-13

PROPERTY = settings(derandomize=True, database=None, max_examples=12, deadline=None,
                    phases=(Phase.explicit, Phase.generate))

small = st.builds(lambda re, im: complex(re / 64, im / 64),
                  st.integers(-8, 8), st.integers(-8, 8)).filter(bool)


def of_degree(order, lo, hi):
    """The monomials of (N_VARS, ``order``) with total degree in [lo, hi]."""
    return [m for m in _index(N_VARS, order).monos if lo <= sum(m[0]) + sum(m[1]) <= hi]


def terms(order, lo, hi, min_size):
    return st.dictionaries(st.sampled_from(of_degree(order, lo, hi)), small,
                           min_size=min_size, max_size=6)


def perturbed(s, tails):
    """``s`` re-embedded at order N + 1 with the degree-(N + 1) ``tails``
    (one per entry of A, then of B) added."""
    w = s.order + 1
    tails = iter(tails)

    def lift(m):
        return JetMatrix([[e.padded(w) + Jet(N_VARS, w, next(tails)) for e in row]
                          for row in m.entries])
    return AlmostComplexStructure(lift(s.A), lift(s.B))


def changes(order):
    """z_k plus terms of degrees 2..N + 1, with at least one of degree N + 1."""
    def build(parts):
        return [Jet.variable(N_VARS, order + 1, k) + Jet(N_VARS, order + 1, {**low, **top})
                for k, (low, top) in enumerate(parts)]
    part = st.tuples(terms(order + 1, 2, order, 0), terms(order + 1, order + 1, order + 1, 1))
    return st.tuples(*[part] * N_VARS).map(build)


def germs_and_tails(order):
    top = terms(order + 1, order + 1, order + 1, 0)
    return st.tuples(st.integers(0, 30), st.lists(top, min_size=2 * N_VARS ** 2,
                                                    max_size=2 * N_VARS ** 2))


def assert_same_through(got, want, degree):
    """Entries of ``got`` match ``want`` (order ``degree`` or more) on every
    degree <= ``degree``."""
    for g, w in zip(got, want):
        assert (g.truncated(degree) - w.truncated(degree)).max_abs() <= TOL


def blocks(s):
    return flat_entries(s.A) + flat_entries(s.B)


def trusted(s):
    return min(s.A.effective_order, s.B.effective_order)


@pytest.mark.parametrize("order", [2, 3])
def test_transform_ignores_input_above_its_order(order):
    @PROPERTY
    @given(germs_and_tails(order), changes(order))
    def check(germ, phi):
        seed, tails = germ
        s = random_deformation(seed, n=N_VARS, order=order)
        want = transform_structure(s, phi)
        got = transform_structure(perturbed(s, tails), phi)
        assert trusted(want) == order
        assert_same_through(blocks(got), blocks(want), order)
    check()


@pytest.mark.parametrize("order", [2, 3])
def test_transform_ignores_change_above_working_order(order):
    @PROPERTY
    @given(st.integers(0, 30), changes(order),
           st.lists(terms(order + 2, order + 2, order + 2, 1),
                    min_size=N_VARS, max_size=N_VARS))
    def check(seed, phi, tails):
        s = random_deformation(seed, n=N_VARS, order=order)
        longer = [p.padded(order + 2) + Jet(N_VARS, order + 2, t) for p, t in zip(phi, tails)]
        want = transform_structure(s, phi)
        got = transform_structure(s, longer)
        assert_same_through(blocks(got), blocks(want), order)
    check()


@pytest.mark.parametrize("order", [2, 3])
def test_normalize_ignores_input_above_its_order(order):
    @PROPERTY
    @given(germs_and_tails(order))
    def check(germ):
        seed, tails = germ
        s = random_deformation(seed, n=N_VARS, order=order)
        want = normalize_to_order(s, order)
        got = normalize_to_order(perturbed(s, tails), order)
        assert trusted(want.structure) == order
        assert_same_through(blocks(got.structure), blocks(want.structure), order)
        # stage m reads B at degree m only, so phi matches through N + 1
        assert_same_through(got.phi, want.phi, order + 1)
    check()


@pytest.mark.parametrize("order", [2, 3])
def test_torsion_ignores_input_above_its_order(order):
    @PROPERTY
    @given(germs_and_tails(order))
    def check(germ):
        seed, tails = germ
        s = random_deformation(seed, n=N_VARS, order=order)
        want = [e for m in torsion_tensor(s).nbar for e in flat_entries(m)]
        got = [e for m in torsion_tensor(perturbed(s, tails)).nbar for e in flat_entries(m)]
        # the off-diagonal entries state N - 1; the diagonal ones are empty
        assert [e.effective_order for e in want if e] == [order - 1] * len([e for e in want if e])
        for g, w in zip(got, want):
            assert_same_through([g], [w], w.effective_order)
    check()


def metric(entries, order):
    """The hermitian part of I + P, P holding the given terms of degree
    1..N, one dict per entry."""
    entries = iter(entries)
    p = JetMatrix([[Jet(N_VARS, order, next(entries)) for _ in range(N_VARS)]
                   for _ in range(N_VARS)])
    return HermitianData.from_matrix(JetMatrix.identity(N_VARS, N_VARS, order) + p)


def lifted(hd, tails):
    """``hd`` re-embedded at order N + 1 with the degree-(N + 1) ``tails``
    added and the sum made hermitian again; an exactly hermitian h keeps its
    degrees <= N, since (c + c) / 2 == c."""
    w = hd.order + 1
    tails = iter(tails)
    h = JetMatrix([[e.padded(w) + Jet(N_VARS, w, next(tails)) for e in row]
                   for row in hd.H.entries])
    return HermitianData.from_matrix(h)


@pytest.mark.parametrize("order", [2, 3])
def test_chern_connection_ignores_input_above_its_order(order):
    @PROPERTY
    @given(germs_and_tails(order),
           st.lists(terms(order, 1, order, 1), min_size=N_VARS ** 2, max_size=N_VARS ** 2),
           st.lists(terms(order + 1, order + 1, order + 1, 0),
                    min_size=N_VARS ** 2, max_size=N_VARS ** 2))
    def check(germ, entries, metric_tails):
        seed, tails = germ
        s = random_deformation(seed, n=N_VARS, order=order)
        hd = metric(entries, order)
        want = chern_connection(FrameCalculus(s), hd)
        got = chern_connection(FrameCalculus(perturbed(s, tails)), lifted(hd, metric_tails))
        for w_forms, g_forms in ((want.aprime, got.aprime), (want.asecond, got.asecond)):
            for w_row, g_row in zip(w_forms.entries, g_forms.entries):
                for w, g in zip(w_row, g_row):
                    # a coefficient states its own order and an absent one
                    # the entry's.  Known exception (FOUND 39): an empty
                    # entry states N, though degree N + 1 input reaches its
                    # degree N through the frame's derivative; it is held
                    # to the N - 1 that derivative trusts
                    for key in set(w.coeffs) | set(g.coeffs):
                        stated = w.coeffs[key].effective_order if key in w.coeffs \
                            else w.effective_order if w.coeffs else order - 1
                        assert stated <= order
                        assert_same_through([g.coefficient(*key)], [w.coefficient(*key)],
                                            stated)
    check()
