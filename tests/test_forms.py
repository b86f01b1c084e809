import hashlib

import numpy as np
import pytest

from acgeom import forms as forms_module
from acgeom.forms import (FUNDAMENTAL_IDENTITIES, OPERATOR_KINDS, CoordForm,
                          FrameCalculus, PQForm,
                          _determinant, apply_operator, canonical_p0_connection,
                          exterior_derivative_check, fundamental_identities_check,
                          to_coordinate_form)
from acgeom.jets import Jet, JetError
from acgeom.structure import VectorField, torsion_tensor

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

    def test_evaluation_matches(self, calc_b, rng):
        from acgeom.structure import VectorField
        u = random_form(calc_b, rng, 1, 1)
        cf = to_coordinate_form(u)
        fields = [VectorField([random_jet(rng, 2, 4, nterms=2) for _ in range(4)])
                  for _ in range(2)]
        v1 = u.evaluate(fields)
        v2 = cf.evaluate(fields)
        eff = min(v1.effective_order, v2.effective_order)
        assert (v1 - v2).max_abs(eff) < 1e-11


class TestDeterminant:
    def test_constant_matrices_match_numpy(self, rng):
        for size in (1, 2, 3):
            m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            rows = [[Jet.constant(2, 3, m[i, j]) for j in range(size)]
                    for i in range(size)]
            det = _determinant(rows, 2, 3)
            assert abs(det.constant_term - np.linalg.det(m)) < 1e-12
            assert det.max_abs(3) == abs(det.constant_term)

    def test_repeated_field_vanishes(self, rng):
        x = VectorField([random_jet(rng, 2, 3, nterms=3, dyadic=True) for _ in range(4)])
        y = VectorField([random_jet(rng, 2, 3, nterms=3, dyadic=True) for _ in range(4)])
        form = CoordForm(2, 3, 2, {(0, 3): Jet.one(2, 3)})
        assert form.evaluate([x, x]).max_abs() == 0
        want = x.components[0] * y.components[3] - y.components[0] * x.components[3]
        assert form.evaluate([x, y]) == want
