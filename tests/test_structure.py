import numpy as np
import pytest

from acgeom import structure as structure_module
from acgeom.jets import QC, Jet, JetError, JetMatrix
from acgeom.normal import normalize_to_order
from acgeom.structure import (AlmostComplexStructure, ChartChange, VectorField, adapt_linear,
                              bracket_coefficients, frame_and_dual,
                              nijenhuis_check, torsion_tensor, transform_structure)

from conftest import random_jet, random_point
from germs import (FIX_B_VALUE, brackets_effective_order, brackets_max_abs,
                   field_eval, fix_b, fix_j0, random_deformation, scaled_frame)


class TestValidate:
    def test_j0_exact(self):
        rep = fix_j0().validate()
        assert rep.max_residual == 0

    def test_fix_b(self):
        rep = fix_b().validate()
        assert rep.max_residual < 1e-12

    def test_inconsistent_structure_flagged(self):
        s = fix_j0()
        b = JetMatrix.zeros(2, 2, 2, 4)
        b.entries[0][0] = Jet.variable(2, 4, 0)
        bad = AlmostComplexStructure(s.A, b)
        rep = bad.validate()
        assert rep.max_residual > 0.5


class TestAdapted:
    def test_exact_standard_structure_is_adapted(self):
        s = AlmostComplexStructure(JetMatrix.identity(2, 2, 3, exact=True) * QC(0, 1),
                                   JetMatrix.zeros(2, 2, 2, 3, exact=True))
        assert s.is_adapted(1e-12)
        assert normalize_to_order(s, s.order).violation == 0

    def test_exact_b0_is_not_adapted(self):
        b = JetMatrix.from_constant([[QC(0), QC(1, 2)], [QC(0), QC(0)]], 2, 3, exact=True)
        s = AlmostComplexStructure(JetMatrix.identity(2, 2, 3, exact=True) * QC(0, 1), b)
        assert not s.is_adapted(1e-12)


class TestDeformation:
    def test_random_structures_validate(self):
        for seed in range(3):
            s = random_deformation(seed, n=2)
            assert s.validate().max_residual < 1e-12
            assert s.is_adapted(tol=1e-12)
        s3 = random_deformation(7, n=3)
        assert s3.validate().max_residual < 1e-12


class TestFrame:
    def test_j0_frame_is_coordinates(self):
        fr = frame_and_dual(fix_j0())
        z1 = fr.zeta(0)
        assert (z1.components[0] - Jet.one(2, 4)).max_abs() == 0
        assert max(c.max_abs() for c in z1.components[1:]) == 0

    def test_dual_pairing_identity(self):
        s = fix_b()
        fr = frame_and_dual(s)
        for k in range(2):
            for l in range(2):
                want = 1.0 if k == l else 0.0
                got = fr.dual_pair(k, fr.zeta(l))
                assert abs(got.constant_term - want) < 1e-13
                assert (got - Jet.constant(2, 4, want)).max_abs() < 1e-12
                cross = fr.dual_pair(k, fr.zeta_bar(l))
                assert cross.max_abs() < 1e-12

    def test_frame_field_components_computed_once(self):
        fr = frame_and_dual(random_deformation(3, n=2))
        n = fr.n
        fields = [fr.zeta(k) for k in range(n)] + [fr.zeta_bar(k) for k in range(n)]
        for a, x in enumerate(fields):
            assert x is (fr.zeta(a) if a < n else fr.zeta_bar(a - n))
            comps = fr.to_frame_components(x)
            fresh = [fr.dual_pair(k, x) for k in range(2 * n)]
            assert len(comps) == len(fresh)
            for got, want in zip(comps, fresh):
                assert got == want
                assert got.effective_order == want.effective_order
            with pytest.raises(TypeError):
                comps[0] = Jet.zero(2, fr.order)
            mutated = list(comps)
            mutated[0] = Jet.zero(2, fr.order)
            again = fr.to_frame_components(x)
            assert list(again) == fresh
            # a copy of a frame field is not a frame field: it is paired afresh
            copy = VectorField(list(x.components))
            assert fr.to_frame_components(copy) is not again
            assert list(fr.to_frame_components(copy)) == fresh

    def test_real_frame_fields_built_and_paired_once(self):
        fr = frame_and_dual(random_deformation(3, n=2))
        for a in range(fr.n):
            x = fr.real_frame_field(a)
            assert x is fr.real_frame_field(a)
            want = (fr.zeta(a) + fr.zeta_bar(a)).components
            assert all(c == w for c, w in zip(x.components, want))
            comps = fr.to_frame_components(x)
            assert fr.to_frame_components(x) is comps
            assert list(comps) == [fr.dual_pair(k, x) for k in range(2 * fr.n)]

    def test_dual_pair_and_derive_build_one_jet(self, monkeypatch, rng):
        # regression guard: a fold acc = acc + a * b builds a product and a
        # partial sum per step; Jet.dot builds only the result
        fr = frame_and_dual(random_deformation(3, n=2))
        x = VectorField([random_jet(rng, 2, 4, nterms=4) for _ in range(4)])
        f = random_jet(rng, 2, 4, nterms=6)
        grad = f.gradient()
        built = []
        init, make = Jet.__init__, Jet._make.__func__

        def counting_init(jet, *args, **kwargs):
            built.append(jet)
            init(jet, *args, **kwargs)

        def counting_make(cls, *args, **kwargs):
            built.append(cls)
            return make(cls, *args, **kwargs)
        # every jet is built by __init__ or by the internal constructor _make
        monkeypatch.setattr(Jet, "__init__", counting_init)
        monkeypatch.setattr(Jet, "_make", classmethod(counting_make))
        for k in range(2 * fr.n):
            built.clear()
            fr.dual_pair(k, x)
            assert len(built) == 1
        for a in range(2 * fr.n):
            built.clear()
            fr.zeta(a % fr.n).derive(f, grad)
            assert len(built) == 1

    def test_fix_b_dual_matches_expansion(self):
        # zeta*_1 = dz_1 - (i/2) conj(jet_2 B)_{1,t} dzbar_t + O(3)
        s = fix_b()
        fr = frame_and_dual(s)
        expected = -0.5j * np.conj(FIX_B_VALUE)
        row = fr.Ginv[0, 2]  # dzbar_1 component of zeta*_1
        assert abs(row.coeff((0, 0), (0, 1)) - expected) < 1e-12
        assert fr.Ginv[0, 3].max_abs(1) < 1e-12

    def test_frame_fields_are_j_eigenvectors(self):
        # J zeta_k = i zeta_k and J zetabar_k = -i zetabar_k
        s = random_deformation(11)
        fr = frame_and_dual(s)
        for k in range(s.n):
            for field, eigenvalue in ((fr.zeta(k), 1j), (fr.zeta_bar(k), -1j)):
                diff = s.apply(field) - field * eigenvalue
                assert diff.max_abs(diff.effective_order) < 1e-11


class TestBrackets:
    def test_j0_all_zero(self):
        s = fix_j0()
        bc = bracket_coefficients(s, frame_and_dual(s))
        assert brackets_max_abs(bc) == 0

    def test_relations(self):
        for seed in (3, 4):
            s = random_deformation(seed)
            bc = bracket_coefficients(s, frame_and_dual(s))
            n = s.n
            eff = brackets_effective_order(bc)
            for k in range(n):
                for j in range(n):
                    for r in range(n):
                        anti_m = bc.M[k][j, r] + bc.M[k][r, j]
                        anti_n = bc.N[k][j, r] + bc.N[k][r, j]
                        rel_v = bc.V[k][j, r] + bc.U[k][r, j].conj()
                        assert anti_m.max_abs(eff) < 1e-11
                        assert anti_n.max_abs(eff) < 1e-11
                        assert rel_v.max_abs(eff) < 1e-11

    def test_fix_b_u_matches_first_order(self):
        # U^r_{k,h} = sum_l [ (1/4) sum_j (conj(B)^j_{r,h} - conj(B)^h_{r,j}) B^l_{j,k} z_l
        #                     + (i/2) conj(B)^{l, kbar}_{r,h} zbar_l ] + O(2)
        s = fix_b()
        bc = bracket_coefficients(s, frame_and_dual(s))
        n = 2
        b1 = np.zeros((n, n, n), dtype=complex)   # B^l
        b1[1][0, 0] = FIX_B_VALUE
        for r in range(n):
            for k in range(n):
                for h in range(n):
                    u = bc.U[r][k, h]
                    assert abs(u.constant_term) < 1e-12
                    for l in range(n):
                        expect = 0.25 * sum(
                            (np.conj(b1[j][r, h]) - np.conj(b1[h][r, j])) * b1[l][j, k]
                            for j in range(n))
                        got = u.coeff(tuple(1 if i == l else 0 for i in range(n)),
                                      (0,) * n)
                        assert abs(got - expect) < 1e-11
                        # no quadratic family present: zbar term vanishes
                        got_bar = u.coeff((0,) * n,
                                          tuple(1 if i == l else 0 for i in range(n)))
                        assert abs(got_bar) < 1e-11


class TestTorsion:
    def test_j0_integrable(self):
        tors = torsion_tensor(fix_j0())
        assert tors.max_abs() == 0

    def test_fix_b_value_at_origin(self):
        tors = torsion_tensor(fix_b())
        got = tors.coefficient(0, 0, 1).constant_term
        want = 0.5j * FIX_B_VALUE      # = -0.05 + 0.15i
        assert abs(got - want) < 1e-12
        assert abs(got - (-0.05 + 0.15j)) < 1e-12

    def test_cross_check_against_bracket_identity(self):
        for s in (fix_b(), random_deformation(5), random_deformation(6)):
            assert nijenhuis_check(s, torsion_tensor(s)) < 1e-11

    def test_cross_check_builds_j_once(self, monkeypatch):
        s = fix_b()
        builds = []
        block2x2 = structure_module.block2x2

        def counting(tl, tr, bl, br):
            if tl is s.A:
                builds.append(tl)
            return block2x2(tl, tr, bl, br)
        monkeypatch.setattr(structure_module, "block2x2", counting)
        nijenhuis_check(s, torsion_tensor(s))
        assert len(builds) == 1

    def test_antisymmetry(self):
        tors = torsion_tensor(fix_b())
        for r in range(2):
            anti = tors.nbar[r] + tors.nbar[r].T
            assert anti.max_abs() < 1e-13

    def test_tensoriality_under_frame_scaling(self, rng):
        # scaling a frame field changes the bracket tables but not the tensor
        s = fix_b()
        fr = frame_and_dual(s)
        f = Jet.one(2, 4) + 0.3 * Jet.variable(2, 4, 0) \
            + 0.2j * Jet.variable(2, 4, 1, conjugate=True)
        scaled = scaled_frame(fr, [f, Jet.one(2, 4)])
        t_plain = torsion_tensor(s, fr)
        t_scaled = torsion_tensor(s, scaled)
        assert (t_plain.nbar[0][0, 1] - t_scaled.nbar[0][0, 1]).max_abs() > 1e-3
        xi = VectorField.coordinate(2, 4, 0)
        eta = VectorField.coordinate(2, 4, 1)
        for _ in range(3):
            p = random_point(rng, 2, radius=0.05)
            # N_J = tau + conj(tau) with tau in T^{0,1}, which both frames share
            v1 = field_eval(t_plain.nijenhuis(xi, eta), p)
            v2 = field_eval(t_scaled.nijenhuis(xi, eta), p)
            assert np.abs(v1 - v2).max() < 1e-10


class TestTransform:
    def test_identity_change(self):
        s = fix_b()
        phi = [Jet.variable(2, 4, k) for k in range(2)]
        t = transform_structure(s, phi)
        assert (t.A - s.A).max_abs() < 1e-12
        assert (t.B - s.B).max_abs() < 1e-12

    def test_biholomorphism_preserves_j0(self):
        s = fix_j0()
        phi = [Jet.variable(2, 4, 0) + 0.4 * Jet(2, 4, {((0, 2), (0, 0)): 1.0}),
               Jet.variable(2, 4, 1) - 0.25 * Jet(2, 4, {((2, 0), (0, 0)): 1.0})]
        t = transform_structure(s, phi)
        assert (t.A - s.A).max_abs() < 1e-12
        assert t.B.max_abs() < 1e-12

    def test_transform_validates(self):
        s = random_deformation(8)
        phi = [Jet.variable(2, 4, 0) + 0.2 * Jet(2, 4, {((0, 1), (1, 0)): 1.0}),
               Jet.variable(2, 4, 1)]
        t = transform_structure(s, phi)
        assert t.validate().max_residual < 1e-11

    def test_chart_change_for_another_order_rejected(self):
        phi = [Jet.variable(2, 4, k) for k in range(2)]
        with pytest.raises(JetError, match="built for order 3"):
            transform_structure(fix_b(), ChartChange(phi, 3))

    def test_singular_jacobian_rejected(self):
        s = fix_j0()
        phi = [Jet.variable(2, 4, 0), Jet.variable(2, 4, 0)]
        with pytest.raises(JetError):
            transform_structure(s, phi)


class TestAdaptLinear:
    def test_already_adapted_is_identity(self):
        s = fix_b()
        adapted, phi = adapt_linear(s)
        ident = [Jet.variable(2, 4, k) for k in range(2)]
        assert max((p - i).max_abs() for p, i in zip(phi, ident)) < 1e-10
        assert (adapted.B - s.B).max_abs() < 1e-10

    def test_conjugated_j0_recovers_adapted_form(self):
        rng = np.random.default_rng(3)
        n, order = 2, 3
        while True:
            l = rng.normal(size=(2 * n, 2 * n))
            if abs(np.linalg.det(l)) > 0.3:
                break
        # complexified matrix of a real linear map
        c = np.zeros((2 * n, 2 * n), dtype=complex)
        w = np.block([[np.eye(n), np.eye(n)], [-1j * np.eye(n), 1j * np.eye(n)]])
        c = np.linalg.inv(w) @ l @ w
        j0 = np.diag([1j] * n + [-1j] * n)
        m0 = np.linalg.inv(c) @ j0 @ c
        a = JetMatrix.from_constant(m0[:n, :n], n, order)
        b = JetMatrix.from_constant(m0[n:, :n], n, order)
        s = AlmostComplexStructure(a, b)
        adapted, _ = adapt_linear(s)
        assert adapted.is_adapted(tol=1e-12)
        assert np.abs(adapted.B.constant()).max() < 1e-13
        assert adapted.validate().max_residual < 1e-12
