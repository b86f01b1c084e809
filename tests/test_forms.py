import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from acgeom import forms as forms_module
from acgeom.forms import (FUNDAMENTAL_IDENTITIES, OPERATOR_KINDS, CoordForm,
                          FrameCalculus, PQForm,
                          apply_operator, normalize_factors, canonical_p0_connection,
                          exterior_derivative_check, fundamental_identities_check,
                          to_coordinate_form)
from acgeom.jets import QC, Jet, JetError, _index
from acgeom.structure import (VectorField, _signed_permutations, torsion_tensor,
                              word_value)

from conftest import random_jet
from germs import fix_b, fix_j0, frame_covector, random_deformation


@pytest.fixture(scope="module")
def calc_j0():
    return FrameCalculus(fix_j0())


@pytest.fixture(scope="module")
def calc_b():
    return FrameCalculus(fix_b())


def random_form(calc, rng, p, q, dyadic=False):
    from itertools import combinations
    coeffs = {}
    for kk in combinations(range(calc.n), p):
        for ll in combinations(range(calc.n), q):
            coeffs[(kk, ll)] = random_jet(rng, calc.n, calc.order, nterms=3,
                                          dyadic=dyadic)
    return PQForm(calc, p, q, coeffs)


class TestOperators:
    def test_delbar_on_function_flat(self, calc_j0, rng):
        f = random_jet(rng, 2, 4)
        u = calc_j0.function(f)
        du = apply_operator("delbar", u)
        assert du.p == 0 and du.q == 1
        for k in range(2):
            got = du.coefficient((), (k,))
            diff = got - f.dzbar(k)
            assert diff.max_abs(got.effective_order) == 0

    def test_theta_kills_functions(self, calc_b, rng):
        u = calc_b.function(random_jet(rng, 2, 4))
        assert apply_operator("theta", u).max_abs() == 0
        assert apply_operator("thetabar", u).max_abs() == 0

    def test_thetabar_of_frame_covector(self, calc_b):
        # thetabar zeta*_k = sum_{l<t} N^k_{l,t} zetabar*_l wedge zetabar*_t
        u = frame_covector(calc_b, 0)
        tu = apply_operator("thetabar", u)
        assert tu.p == 0 and tu.q == 2
        want = calc_b.bc.N[0][0, 1]
        got = tu.coefficient((), (0, 1))
        assert (got - want).max_abs(got.effective_order) < 1e-13
        # tie to the torsion tensor: N = conj(Nbar)
        tors = torsion_tensor(calc_b.structure, calc_b.frame, calc_b.bc)
        diff = got - tors.coefficient(0, 0, 1).conj()
        assert diff.max_abs(got.effective_order) < 1e-13

    def test_bidegrees(self, calc_b, rng):
        u = random_form(calc_b, rng, 1, 1)
        shifts = {"del": (2, 1), "delbar": (1, 2), "theta": (3, 0),
                  "thetabar": (0, 3)}
        for kind, (p, q) in shifts.items():
            tu = apply_operator(kind, u)
            assert (tu.p, tu.q) == (p, q)

    def test_canonical_p0_sign(self, calc_b, rng):
        u = random_form(calc_b, rng, 2, 0)
        conn = canonical_p0_connection(u)
        ref = apply_operator("delbar", u)
        assert (conn - ref * float((-1) ** 2)).max_abs() == 0
        v = random_form(calc_b, rng, 1, 0)
        assert (canonical_p0_connection(v) + apply_operator("delbar", v)).max_abs() == 0
        with pytest.raises(JetError):
            canonical_p0_connection(random_form(calc_b, rng, 0, 1))


# sha256 over every basis bidegree p, q <= n of (p, q, coefficient keys,
# repr of each coefficient's terms, effective order) of one operator's image
# of a random form with a coefficient on every basis monomial of (p, q)
OPERATOR_DIGESTS = {
    ("deformation", "del"):
        "208e6a630aedf5f1b91b75849dba8791441efe6442401c54cafae183714fa430",
    ("deformation", "delbar"):
        "7ce73a6018201d9b5f9c230cea26200136d77eea1dbe1f328ac0e36b6a3092bb",
    ("deformation", "theta"):
        "131583b05f80f38583c89896413e2efdd0243bf58deb0cdbb184c33404ff3cdb",
    ("deformation", "thetabar"):
        "3546cd82310b5f93649e1d8d81bea4197162c3ee09ee49e142f0e5172e80d4b1",
    ("fix_b", "del"):
        "9775b4981211cf385926def38911cd7b103a211760d5cd4c15134afc5df7fe36",
    ("fix_b", "delbar"):
        "ea9f80109f6bff660e9b0de3abeadcf310f9c4b028093314c1358dfc4908853c",
    ("fix_b", "theta"):
        "c0a299d15529ea08ab81dbce7ae81d9c111be076436838fa49d5248e2854346b",
    ("fix_b", "thetabar"):
        "9b70d257e063b1a8d5d07cc3ddf5c6975ffd8298f501eb248f165f3fe9cb5865",
}


@pytest.fixture(scope="module")
def digest_calcs():
    """The seed-2 deformation germ at n = 3, N = 3, and fix_b."""
    return {"deformation": FrameCalculus(random_deformation(2, n=3, order=3)),
            "fix_b": FrameCalculus(fix_b())}


class TestOperatorDigests:
    @pytest.mark.parametrize("germ, kind", sorted(OPERATOR_DIGESTS))
    def test_every_bidegree(self, digest_calcs, germ, kind):
        calc = digest_calcs[germ]
        rng = np.random.default_rng(7)
        h = hashlib.sha256()
        for p in range(calc.n + 1):
            for q in range(calc.n + 1):
                out = apply_operator(kind, random_form(calc, rng, p, q))
                h.update(repr((out.p, out.q,
                               [(key, c.terms) for key, c in out.coeffs.items()],
                               out.effective_order)).encode())
        assert h.hexdigest() == OPERATOR_DIGESTS[(germ, kind)]

    def test_table_covers_every_kind(self):
        assert {kind for _, kind in OPERATOR_DIGESTS} == set(OPERATOR_KINDS)


def _apply_operator_term_by_term(kind, u):
    """``apply_operator`` as it was before per-word plans: every derivative
    and piece is formed first, and the sign of its output word is tested
    after."""
    calc = u.calc
    op = forms_module._OPERATORS[kind]
    n, bc = calc.n, calc.bc
    acc = {}

    def accumulate(word, jet):
        sign, kk, ll = normalize_factors(word)
        if sign != 0 and jet:
            acc.setdefault((kk, ll), []).append((jet, float(sign)))

    for (kk, ll), c in u.coeffs.items():
        word = [(0, i) for i in kk] + [(1, i) for i in ll]
        if op.derive is not None:
            field = (calc.frame.zeta, calc.frame.zeta_bar)[op.derive]
            for r in range(n):
                accumulate([(op.derive, r)] + word, field(r).derive(c))
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
                    accumulate([(a, r), (b, t)] + hat, (c * entry) * sign)
    return PQForm(calc, u.p + op.shift[0], u.q + op.shift[1],
                  forms_module._sum_terms(acc, n, calc.order))


def _bits(form):
    return (form.p, form.q, form.effective_order,
            [(key, repr(c.terms), c.effective_order) for key, c in form.coeffs.items()])


class TestOperatorPlans:
    @pytest.mark.parametrize("n, order", [(1, 4), (2, 4), (3, 3), (4, 2)])
    def test_plans_match_term_by_term(self, n, order):
        calc = FrameCalculus(random_deformation(5, n=n, order=order))
        rng = np.random.default_rng(11)
        for p in range(n + 1):
            for q in range(n + 1):
                u = random_form(calc, rng, p, q)
                for kind in OPERATOR_KINDS:
                    want = _apply_operator_term_by_term(kind, u)
                    assert _bits(apply_operator(kind, u)) == _bits(want), (kind, p, q)

    def test_vanishing_words_cost_nothing(self, calc_b, rng, monkeypatch):
        # delbar of a (0, n)-form: every derivative and every piece wedges a
        # zetabar* onto n of them, so none is formed
        n = calc_b.n
        u = PQForm(calc_b, 0, n, {((), tuple(range(n))): random_jet(rng, n, calc_b.order)})
        calls = []
        for owner, name in ((Jet, "__mul__"), (Jet, "partial"), (VectorField, "derive")):
            def counting(*args, _name=name, _orig=getattr(owner, name), **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)
            monkeypatch.setattr(owner, name, counting)
        out = apply_operator("delbar", u)
        monkeypatch.undo()
        assert (out.p, out.q, out.coeffs) == (0, n + 1, {})
        assert calls == []


class TestWedge:
    def test_self_wedge_vanishes(self, calc_b):
        u = frame_covector(calc_b, 0)
        assert u.wedge(u).max_abs() == 0

    def test_mixed_basis_form(self, calc_b):
        u = frame_covector(calc_b, 0)
        v = frame_covector(calc_b, 0, conjugate=True)
        w = u.wedge(v)
        assert (w.p, w.q) == (1, 1)
        got = w.coefficient((0,), (0,))
        assert (got - Jet.one(2, 4)).max_abs() == 0

    def test_graded_commutativity(self, calc_b, rng):
        a = random_form(calc_b, rng, 1, 1)
        b = random_form(calc_b, rng, 1, 0)
        lhs = a.wedge(b)
        rhs = b.wedge(a) * float((-1) ** ((a.p + a.q) * (b.p + b.q)))
        assert (lhs - rhs).max_abs() < 1e-12
        c = random_form(calc_b, rng, 1, 0)
        assert (b.wedge(c) + c.wedge(b)).max_abs() < 1e-12

    def test_leibniz_for_operators(self, calc_b, rng):
        u = random_form(calc_b, rng, 1, 0)
        v = random_form(calc_b, rng, 0, 1)
        sign = float((-1) ** (u.p + u.q))
        for kind in ("del", "delbar", "theta", "thetabar"):
            lhs = apply_operator(kind, u.wedge(v))
            rhs = apply_operator(kind, u).wedge(v) + u.wedge(
                apply_operator(kind, v)) * sign
            eff = min(lhs.effective_order, rhs.effective_order)
            assert (lhs - rhs).max_abs(eff) < 1e-11, kind


class TestConjugation:
    def test_conj_relations(self, calc_b, rng):
        u = random_form(calc_b, rng, 1, 1)
        pairs = [("del", "delbar"), ("theta", "thetabar")]
        for kind, conj_kind in pairs:
            lhs = apply_operator(kind, u).conj()
            rhs = apply_operator(conj_kind, u.conj())
            eff = min(lhs.effective_order, rhs.effective_order)
            assert (lhs - rhs).max_abs(eff) < 1e-12

    def test_conj_involution(self, calc_b, rng):
        u = random_form(calc_b, rng, 2, 1)
        assert (u.conj().conj() - u).max_abs() == 0


class TestExteriorDerivative:
    def test_function_flat_exact(self, calc_j0, rng):
        u = calc_j0.function(random_jet(rng, 2, 4, dyadic=True))
        assert exterior_derivative_check(u) == 0

    def test_frame_covector_fix_b(self, calc_b):
        u = frame_covector(calc_b, 0)
        assert exterior_derivative_check(u) < 1e-11

    def test_random_form_random_structure(self, rng):
        calc = FrameCalculus(random_deformation(17))
        u = random_form(calc, rng, 1, 1)
        assert exterior_derivative_check(u) < 1e-10

    def test_every_bidegree_n3(self, digest_calcs, rng):
        # at n = 3 theta and thetabar of a form of degree <= 2 can be nonzero,
        # so their signs in d are checked too
        calc = digest_calcs["deformation"]
        for p in range(3):
            for q in range(3 - p):
                u = random_form(calc, rng, p, q)
                assert exterior_derivative_check(u) < 1e-10, (p, q)


def _compose_ops(u, *kinds):
    out = u
    for kind in reversed(kinds):
        out = apply_operator(kind, out)
    return out


def _identities_from_scratch(calc, test_forms):
    """The seven identity residuals with both operators of every composition
    applied afresh."""
    names = FUNDAMENTAL_IDENTITIES
    residuals = {name: 0.0 for name in names}
    orders = {name: calc.order for name in names}

    def record(name, lhs, rhs):
        diff = lhs - rhs
        eff = min(lhs.effective_order, rhs.effective_order)
        residuals[name] = max(residuals[name], diff.max_abs(eff))
        orders[name] = min(orders[name], eff)

    for u in test_forms:
        record(names[0], _compose_ops(u, "del", "del"),
               _compose_ops(u, "delbar", "theta")
               + _compose_ops(u, "theta", "delbar"))
        record(names[1], _compose_ops(u, "delbar", "delbar"),
               _compose_ops(u, "del", "thetabar")
               + _compose_ops(u, "thetabar", "del"))
        record(names[2], _compose_ops(u, "del", "delbar")
               + _compose_ops(u, "delbar", "del"),
               -(_compose_ops(u, "theta", "thetabar")
                 + _compose_ops(u, "thetabar", "theta")))
        record(names[3], _compose_ops(u, "del", "theta"),
               -_compose_ops(u, "theta", "del"))
        record(names[4], _compose_ops(u, "delbar", "thetabar"),
               -_compose_ops(u, "thetabar", "delbar"))
        t2 = _compose_ops(u, "theta", "theta")
        record(names[5], t2, PQForm(calc, t2.p, t2.q, {}))
        tb2 = _compose_ops(u, "thetabar", "thetabar")
        record(names[6], tb2, PQForm(calc, tb2.p, tb2.q, {}))
    return [{"identity": name, "max_residual": residuals[name],
             "order_checked": orders[name]} for name in names]


class TestFundamentalIdentities:
    def test_flat_exactly_zero(self, calc_j0, rng):
        forms = []
        for base in calc_j0.monomial_forms(2):
            f = random_jet(rng, 2, 4, nterms=3, dyadic=True)
            forms.append(base * f)
        rows = fundamental_identities_check(calc_j0, forms)
        for row in rows:
            assert row["max_residual"] == 0, row

    def test_fix_b(self, calc_b, rng):
        forms = []
        for base in calc_b.monomial_forms(2):
            f = random_jet(rng, 2, 4, nterms=3)
            forms.append(base * f)
        rows = fundamental_identities_check(calc_b, forms)
        for row in rows:
            assert row["max_residual"] < 1e-10, row

    def test_shared_images_match_composing_from_scratch(self, calc_b, rng,
                                                         monkeypatch):
        forms = [base * random_jet(rng, 2, 4, nterms=3)
                 for base in calc_b.monomial_forms(2)]
        calls = []

        def recording(kind, u):
            out = apply_operator(kind, u)
            calls.append((kind, u, out))
            return out
        monkeypatch.setattr(forms_module, "apply_operator", recording)
        rows = fundamental_identities_check(calc_b, forms)
        monkeypatch.undo()
        assert rows == _identities_from_scratch(calc_b, forms)
        # the residuals are exactly 0 here, so compare every composition too
        assert len(calls) == len(forms) * (4 + 16)
        image_of = {id(out): (kind, u) for kind, u, out in calls
                    if any(u is f for f in forms)}
        pairs = set()
        for kind, u, out in calls:
            if id(u) in image_of:
                inner, f = image_of[id(u)]
                want = _compose_ops(f, kind, inner)
                pairs.add((id(f), kind, inner))
            else:
                want = apply_operator(kind, u)
            assert (out.p, out.q, out.coeffs) == (want.p, want.q, want.coeffs)
        assert len(pairs) == len(forms) * 16

    def test_theta_zero_iff_torsion_zero(self, calc_j0, calc_b, rng):
        # integrable: theta annihilates every test form
        for base in calc_j0.monomial_forms(2):
            assert apply_operator("theta", base).max_abs() == 0
        # FIX-B: theta must NOT vanish (torsion is nonzero)
        u = frame_covector(calc_b, 0, conjugate=True)
        assert apply_operator("theta", u).max_abs() > 1e-3
        tors = torsion_tensor(calc_b.structure, calc_b.frame, calc_b.bc)
        assert tors.max_abs() > 1e-3


class TestCoordinateConversion:
    def test_flat_identity(self, calc_j0, rng):
        u = random_form(calc_j0, rng, 1, 1)
        cf = to_coordinate_form(u)
        for (kk, ll), c in u.coeffs.items():
            key = (kk[0], 2 + ll[0])
            assert (cf.coeffs[key] - c).max_abs() < 1e-13

    def test_evaluation_matches(self, calc_b, digest_calcs, rng):
        # every bidegree p + q <= 2 at n = 2 and 3; the 0-form is the empty word
        for calc in (calc_b, digest_calcs["deformation"]):
            n, order = calc.n, calc.order
            for p in range(3):
                for q in range(3 - p):
                    u = random_form(calc, rng, p, q)
                    cf = to_coordinate_form(u)
                    fields = [VectorField([random_jet(rng, n, order, nterms=2)
                                           for _ in range(2 * n)])
                              for _ in range(p + q)]
                    v1 = u.evaluate(fields)
                    v2 = cf.evaluate(fields)
                    assert v1, (n, p, q)
                    eff = min(v1.effective_order, v2.effective_order)
                    assert (v1 - v2).max_abs(eff) < 1e-11, (n, p, q)


class TestDeterminant:
    def test_constant_matrices_match_numpy(self, rng):
        for size in (0, 1, 2, 3):
            m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            comps = [[Jet.constant(2, 3, m[i, j]) for i in range(size)]
                     for j in range(size)]
            det = word_value(comps, tuple(range(size)), 2, 3)
            assert abs(det.constant_term - np.linalg.det(m)) < 1e-12
            assert det.max_abs(3) == abs(det.constant_term)

    def test_slots_pick_the_word(self, rng):
        # a word reads only its own slots, in its own order
        comps = [[Jet.constant(2, 3, complex(rng.normal())) for _ in range(4)]
                 for _ in range(2)]
        det = word_value(comps, (3, 1), 2, 3)
        want = comps[0][3].constant_term * comps[1][1].constant_term \
            - comps[1][3].constant_term * comps[0][1].constant_term
        assert abs(det.constant_term - want) < 1e-15
        swapped = word_value(comps, (1, 3), 2, 3)
        assert (det + swapped).max_abs() < 1e-15

    def test_trusts_least_entry_order(self):
        # the entries of z are zero and trusted to degree 3 only, so every
        # product vanishes; the value still trusts no more than degree 3
        calc = FrameCalculus(random_deformation(1, n=2, order=4))
        z = VectorField([Jet.zero(2, 4).dz(0) for _ in range(4)])
        u = PQForm(calc, 2, 0, {((0, 1), ()): Jet.one(2, 4)})
        value = u.evaluate([z, calc.frame.zeta(1)])
        assert not value
        assert value.effective_order == 3

    def test_repeated_field_vanishes(self, rng):
        x = VectorField([random_jet(rng, 2, 3, nterms=3, dyadic=True) for _ in range(4)])
        y = VectorField([random_jet(rng, 2, 3, nterms=3, dyadic=True) for _ in range(4)])
        form = CoordForm(2, 3, 2, {(0, 3): Jet.one(2, 3)})
        assert form.evaluate([x, x]).max_abs() == 0
        want = x.components[0] * y.components[3] - y.components[0] * x.components[3]
        assert form.evaluate([x, y]) == want

    def test_exact_fields_give_exact_values(self):
        # the value takes the mode of the components: the determinant, the
        # empty word and an unreached slot on exact fields are exact jets
        n, order = 2, 3
        zero = Jet.zero(n, order, exact=True)
        third_z1 = Jet(n, order, {((1, 0), (0, 0)): QC("1/3")}, exact=True)
        comps = [[Jet.constant(n, order, QC("1/2"), exact=True), third_z1, zero, zero],
                 [Jet.constant(n, order, QC(0, "2/7"), exact=True),
                  Jet.constant(n, order, 3, exact=True), zero, zero]]
        # (1/2) 3 - (2i/7)(z1/3)
        want = Jet(n, order, {((0, 0), (0, 0)): QC("3/2"),
                              ((1, 0), (0, 0)): QC(0, "-2/21")}, exact=True)
        for value, expected in [(word_value(comps, (0, 1), n, order), want),
                                (word_value(comps, (), n, order), Jet.one(n, order, exact=True)),
                                (word_value(comps, (0, 2), n, order), zero)]:
            assert value.exact and value == expected

    def test_exact_coord_form_evaluates(self):
        n, order = 2, 3
        one, zero = Jet.one(n, order, exact=True), Jet.zero(n, order, exact=True)
        z1 = Jet(n, order, {((1, 0), (0, 0)): 1}, exact=True)
        x = VectorField([one, z1, zero, zero])
        y = VectorField([z1, Jet.constant(n, order, QC("1/2"), exact=True), zero, one])
        got = CoordForm(n, order, 1, {(0,): one}).evaluate([x])
        assert got.exact and got == one
        # i (x_0 y_1 - y_0 x_1) + (x_0 y_3 - y_0 x_3) = i/2 - i z1^2 + 1
        form = CoordForm(n, order, 2, {(0, 1): Jet.constant(n, order, QC(0, 1), exact=True),
                                       (0, 3): one})
        got = form.evaluate([x, y])
        assert got.exact and got == Jet(n, order, {((0, 0), (0, 0)): QC(1, "1/2"),
                                                   ((2, 0), (0, 0)): QC(0, -1)}, exact=True)

    def test_field_count_checked(self):
        d0, d1 = (VectorField.coordinate(2, 3, a) for a in range(2))
        with pytest.raises(JetError):
            CoordForm(2, 3, 1, {(0,): Jet.one(2, 3)}).evaluate([d0, d1])
        with pytest.raises(JetError):
            CoordForm.function(Jet.one(2, 3)).evaluate([d0])


def _exact_copy(jet):
    """``jet`` (dyadic coefficients) as an exact jet of the same values."""
    return Jet(jet.n, jet.order, {key: QC(Fraction(c.real), Fraction(c.imag))
                                  for key, c in jet.terms.items()}, exact=True)


def _same_values(exact, floating):
    """An exact jet and a float jet with equal coefficients and orders."""
    assert exact.exact and not floating.exact
    assert {key: complex(c) for key, c in exact.terms.items()} == floating.terms
    assert exact.effective_order == floating.effective_order


class TestExactForms:
    """Exact forms give the float forms' values: signs are ints, and a 0-form
    evaluates to a jet of its coefficients' mode."""

    def test_coord_form_d_and_wedge(self, rng):
        n, order = 2, 3
        jets = [random_jet(rng, n, order, nterms=4, dyadic=True) for _ in range(8)]
        floating = CoordForm(n, order, 1, {(a,): jet for a, jet in enumerate(jets[:4])})
        exact = CoordForm(n, order, 1, {(a,): _exact_copy(jet)
                                        for a, jet in enumerate(jets[:4])})
        pairs = [(exact.d(), floating.d()),
                 (exact.wedge_covector([_exact_copy(j) for j in jets[4:]]),
                  floating.wedge_covector(jets[4:])),
                 (CoordForm.function(_exact_copy(jets[0])).d(),
                  CoordForm.function(jets[0]).d())]
        for got, want in pairs:
            assert got.coeffs.keys() == want.coeffs.keys()
            for key in want.coeffs:
                _same_values(got.coeffs[key], want.coeffs[key])

    def test_pq_form_wedge(self, calc_b, rng):
        jets = [random_jet(rng, 2, 4, nterms=3, dyadic=True) for _ in range(2)]
        u = PQForm(calc_b, 1, 0, {((0,), ()): jets[0]})
        v = PQForm(calc_b, 0, 1, {((), (1,)): jets[1]})
        got = PQForm(calc_b, 1, 0, {((0,), ()): _exact_copy(jets[0])}).wedge(
            PQForm(calc_b, 0, 1, {((), (1,)): _exact_copy(jets[1])}))
        want = v.wedge(u)       # -(u ^ v): the float side sorts with sign -1
        _same_values(got.coeffs[((0,), (1,))], -want.coeffs[((0,), (1,))])

    def test_zero_forms_evaluate_in_their_mode(self, calc_b, rng):
        jet = random_jet(rng, 2, 4, nterms=5, dyadic=True)
        for exact_form, float_form in [
                (CoordForm.function(_exact_copy(jet)), CoordForm.function(jet)),
                (calc_b.function(_exact_copy(jet)), calc_b.function(jet))]:
            got = exact_form.evaluate([])
            _same_values(got, float_form.evaluate([]))
            assert got == _exact_copy(jet)


def _word_value_expanded(comps, slots, n, order):
    """``word_value`` as it was before its early return: every permutation's
    product is formed whatever the slots hold."""
    if not slots:
        return Jet.one(n, order)
    terms = []
    for perm, sign in _signed_permutations(len(slots)):
        prod = None
        for slot, field in zip(slots, perm):
            factor = comps[field][slot]
            prod = factor if prod is None else prod * factor
            if not prod:
                break
        if prod:
            terms.append((prod, sign))
    value = Jet.dot(terms, n, order)
    floor = min(row[s].effective_order for row in comps for s in slots)
    return value if value.effective_order <= floor else value.trusted(floor)


WORD_ORDER = 3


@st.composite
def unreached_words(draw):
    """(comps, slots, n): 1-3 fields on n = 2 or 3 variables, whose entries
    are empty, empty with a lowered effective order, or random jets, with
    at least one slot of the word empty in every field."""
    n = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 3))
    slots = tuple(draw(st.permutations(range(2 * n)))[:k])
    empty = draw(st.sets(st.sampled_from(slots), min_size=1))
    monos = _index(n, WORD_ORDER).monos
    coefficient = st.builds(lambda re, im: complex(re / 8, im / 8),
                            st.integers(-8, 8), st.integers(-8, 8)).filter(bool)
    lowered = st.integers(0, WORD_ORDER - 1).map(
        lambda e: Jet.zero(n, WORD_ORDER).trusted(e))
    nonzero = st.tuples(st.dictionaries(st.sampled_from(monos), coefficient,
                                        min_size=1, max_size=4),
                        st.integers(0, WORD_ORDER)).map(
        lambda te: Jet(n, WORD_ORDER, te[0]).trusted(te[1]))
    blank = st.just(Jet.zero(n, WORD_ORDER)) | lowered
    comps = [[draw(blank if s in empty else blank | nonzero) for s in range(2 * n)]
             for _ in range(k)]
    return comps, slots, n


def _assert_matches_expansion(comps, slots, n):
    got = word_value(comps, slots, n, WORD_ORDER)
    want = _word_value_expanded(comps, slots, n, WORD_ORDER)
    assert (repr(got.terms), got.effective_order) == \
        (repr(want.terms), want.effective_order)


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(unreached_words())
def test_unreached_word_matches_the_expansion(word):
    _assert_matches_expansion(*word)


def test_unreached_word_keeps_the_floor_of_an_unread_entry():
    # slot 0 is empty in both fields, so the expansion never reads slot 1,
    # whose empty entry trusts degree 1 only: the value still trusts no more
    x = Jet(2, WORD_ORDER, {((1, 0), (0, 0)): 1.0})
    comps = [[Jet.zero(2, WORD_ORDER), x, x, x],
             [Jet.zero(2, WORD_ORDER), Jet.zero(2, WORD_ORDER).trusted(1), x, x]]
    _assert_matches_expansion(comps, (0, 1), 2)
    assert word_value(comps, (0, 1), 2, WORD_ORDER).effective_order == 1
