import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from acgeom.cli import parse_manifold_spec
from acgeom.jets import Jet, JetError, JetMatrix, QC
from acgeom.normal import (ClosedFormA, _same_sweep, a_from_b_closed_form,
                           a_from_b_family, lmax, normalize_to_order, pattern_violation,
                           solve_a_degree_by_degree,
                           torsion_jet_equivalence, torsion_jet_normal,
                           verify_holomorphic_invariance)
from acgeom.structure import torsion_tensor

from germs import (FIX_B_VALUE, b_normal, bench_b_normal_spec, fix_b, fix_b2,
                   fix_b3, fix_j0, flat_entries, jets_sha256, random_b_normal,
                   random_deformation)


def exact_b_family(n=2):
    """Rational B family respecting the normal pattern, degrees 1..3."""
    def m(entries):
        out = np.full((n, n), QC(0), dtype=object)
        for (k, l), v in entries.items():
            out[k, l] = v
        return out
    return {
        ((0, 1), (0, 0)): m({(0, 0): QC("3/10", "1/10")}),
        ((0, 1), (1, 0)): m({(0, 0): QC("-1/4", "1/7"), (1, 0): QC("1/5")}),
        ((0, 2), (0, 0)): m({(1, 0): QC("1/3", "-1/6")}),
        ((0, 1), (0, 2)): m({(0, 0): QC("2/9")}),
    }


def to_float_family(fam):
    return {k: np.array([[complex(c) for c in row] for row in mat], dtype=complex)
            for k, mat in fam.items()}


def exponent_pairs(n, max_degree):
    """Every (alpha, beta) with |alpha| + |beta| <= max_degree."""
    monos = [m for m in itertools.product(range(max_degree + 1), repeat=n)
             if sum(m) <= max_degree]
    return [(a, b) for a in monos for b in monos if sum(a) + sum(b) <= max_degree]


def dense_exact_family(n, max_degree, seed=0, denominator=1024):
    """Rational B family with a nonzero entry in every slot the normal
    pattern allows (row k, column l < lmax(alpha)), degrees 1..max_degree;
    values k / denominator with k odd, 9 <= |k| <= 15."""
    rng = np.random.default_rng(seed)

    def value():
        sign = 1 if rng.random() < 0.5 else -1
        return Fraction(sign * (9 + 2 * int(rng.integers(0, 4))), denominator)

    fam = {}
    for alpha, beta in exponent_pairs(n, max_degree):
        if sum(alpha) < 1 or lmax(alpha) < 1:
            continue
        mat = np.full((n, n), QC(0), dtype=object)
        for k in range(n):
            for l in range(lmax(alpha)):
                mat[k, l] = QC(value(), value())
        fam[(alpha, beta)] = mat
    return fam


def exact_b_matrix(fam, n, order):
    return JetMatrix([[Jet(n, order, {key: mat[k, l] for key, mat in fam.items()},
                           exact=True) for l in range(n)] for k in range(n)])


# Values over 3 * 5 * 7 * 1024: k / LCM_DENOMINATOR reduces to denominators
# that differ from entry to entry, so ``ClosedFormA`` puts the family over
# their lcm.
LCM_DENOMINATOR = 3 * 5 * 7 * 1024


# C_{k-1} (-4)^{-(k-1)} for chains of k = 1, 2, 3 factors
CATALAN_WEIGHTS = {1: Fraction(1), 2: Fraction(-1, 4), 3: Fraction(1, 8)}


def brute_force_closed_form(fam, n, order):
    """{(alpha, beta): A^{alpha,beta}} of the closed formula through degree
    ``order`` <= 7, by enumeration: every ordered tuple of factors
    conj(B)^{lam,mu} B^{rho,gam} at exponent (rho + mu, lam + gam), each
    multiplied out left to right."""
    keys = [k for k in fam if sum(k[0]) >= 1]
    factors = [((tuple(r + m for r, m in zip(rho_gam[0], lam_mu[1])),
                 tuple(l + g for l, g in zip(lam_mu[0], rho_gam[1]))),
                fam[lam_mu].conjugate() @ fam[rho_gam])
               for lam_mu in keys for rho_gam in keys]
    out = {}
    for k, weight in CATALAN_WEIGHTS.items():
        for chain in itertools.product(factors, repeat=k):
            alpha = tuple(map(sum, zip(*(ze for (ze, _), _ in chain))))
            beta = tuple(map(sum, zip(*(zbe for (_, zbe), _ in chain))))
            if sum(alpha) + sum(beta) > order:
                continue
            mat = chain[0][1]
            for _, factor in chain[1:]:
                mat = mat @ factor
            out[(alpha, beta)] = out.get((alpha, beta), 0) + QC(weight) * mat
    return out


def closed_form_a(s):
    """The A block iI + (i/2) sum A^{alpha,beta} z^alpha zbar^beta of the
    closed form on the float B family of ``s``, each coefficient from
    ``a_from_b_closed_form``."""
    n, order, bfam = s.n, s.order, s.B.coefficients()
    fam = {(alpha, beta): 0.5j * a_from_b_closed_form(bfam, alpha, beta, n)
           for alpha, beta in exponent_pairs(n, order)
           if sum(alpha) >= 1 and sum(beta) >= 1}
    fam[((0,) * n, (0,) * n)] = 1j * np.eye(n)
    return JetMatrix.from_coefficients(fam, n, n, n, order)


class TestLmax:
    def test_convention(self):
        assert lmax((0, 0)) == -1
        assert lmax((1, 0)) == 0
        assert lmax((2, 3)) == 1


class TestFormA:
    def test_degree_two_single_pair(self):
        # alpha = delta_s, beta = delta_r: single k=1 chain conj(B^r) B^s
        fam = to_float_family(exact_b_family())
        got = a_from_b_closed_form(fam, (0, 1), (0, 1), 2)
        b2 = fam[((0, 1), (0, 0))]
        want = b2.conjugate() @ b2
        assert np.abs(got - want).max() < 1e-14

    def test_fix_b_quadratic_coefficient(self):
        # coefficient of z_2 zbar_2 in A_{1,1} is (i/2)|b|^2 = 0.05i
        s = fix_b()
        a11 = s.A[0, 0]
        got = a11.coeff((0, 1), (0, 1))
        assert abs(got - 0.5j * abs(FIX_B_VALUE) ** 2) < 1e-14
        assert abs(got - 0.05j) < 1e-14

    def test_matches_degree_by_degree_solver_float(self):
        # the parsed A is the solver's; the closed form checks it
        s = fix_b()
        assert (closed_form_a(s) - s.A).max_abs() < 1e-13

    def test_constraints_satisfied_for_random_family(self):
        for seed in (1, 2):
            s = random_b_normal(seed)
            assert s.validate().max_residual < 1e-12
            assert (closed_form_a(s) - s.A).max_abs() < 1e-12

    def test_exact_agreement_with_solver(self):
        # rational-arithmetic: closed formula == degree-by-degree solver,
        # coefficient for coefficient, with zero discrepancy; order 6 is the
        # first order with chains of three factors (Catalan weight 2)
        cases = [(2, 4, exact_b_family(2)), (2, 6, exact_b_family(2)),
                 (3, 3, dense_exact_family(3, 3)),
                 (2, 5, dense_exact_family(2, 3, seed=4, denominator=LCM_DENOMINATOR))]
        half_i = QC(0, "1/2")
        for n, order, fam in cases:
            a = solve_a_degree_by_degree(exact_b_matrix(fam, n, order))
            table = ClosedFormA(fam, n, order)
            for alpha, beta in exponent_pairs(n, order):
                if sum(alpha) < 1 or sum(beta) < 1:
                    continue
                closed = table(alpha, beta)
                for k in range(n):
                    for l in range(n):
                        want = half_i * closed[k, l]
                        got = a[k, l].coeff(alpha, beta)
                        assert got == want, (n, order, alpha, beta, k, l)


class TestClosedFormTable:
    # dense families with keys up to degree 3: at order 6 chains of two and
    # three factors (Catalan weight 2) occur, at n = 3 and order 4 chains of
    # two
    CELLS = [(2, 6, dense_exact_family(2, 3, seed=1)),
             (3, 4, dense_exact_family(3, 3, seed=2)),
             (2, 5, dense_exact_family(2, 3, seed=3, denominator=LCM_DENOMINATOR))]

    # the ids keep the names the exact cases had beside their float twins
    IDS = ["2-6-fam0-True", "3-4-fam1-True", "2-5-lcm"]

    @pytest.mark.parametrize("n, order, fam", CELLS, ids=IDS)
    def test_shared_table_equals_one_target_evaluation(self, n, order, fam):
        # ``a_from_b_closed_form`` builds its table to the degree of its one
        # target: on every target of degree d, the table built to the order
        # equals the one built to d
        table = ClosedFormA(fam, n, order)
        for d in range(2, order + 1):
            one = ClosedFormA(fam, n, d)
            for alpha, beta in exponent_pairs(n, order):
                if sum(alpha) >= 1 and sum(beta) >= 1 and sum(alpha) + sum(beta) == d:
                    assert (table(alpha, beta) == one(alpha, beta)).all(), (alpha, beta)

    @pytest.mark.parametrize("n, order, fam", CELLS, ids=IDS)
    def test_pruned_table_equals_unpruned(self, n, order, fam):
        pruned = ClosedFormA(fam, n, order)
        # the keys have degree <= 3, so every factor has degree <= 6 and
        # order + 2 >= 6 keeps them all
        full = ClosedFormA(fam, n, order + 2)
        for alpha, beta in exponent_pairs(n, order):
            assert (pruned(alpha, beta) == full(alpha, beta)).all(), (alpha, beta)

    def test_family_matches_exact_solver_at_order_six(self):
        # chains of up to three factors, each memo entry read for every
        # number of remaining factors
        n, order, fam = self.CELLS[0]
        a = solve_a_degree_by_degree(exact_b_matrix(fam, n, order))
        want = a_from_b_family(fam, n, order)
        for k in range(n):
            for l in range(n):
                assert a[k, l] == want[k, l], (k, l)

    def test_table_equals_brute_force_enumeration(self):
        # a sparse family at order 6: chains of one, two and three factors
        n, order, fam = 2, 6, exact_b_family(2)
        want = brute_force_closed_form(fam, n, order)
        assert max(sum(a) + sum(b) for a, b in want) == order
        table = ClosedFormA(fam, n, order)
        assert len(table.chains) == 3
        zero = np.full((n, n), QC(0), dtype=object)
        targets = [(a, b) for a, b in exponent_pairs(n, order)
                   if sum(a) >= 1 and sum(b) >= 1]
        assert set(want) <= set(targets)
        for alpha, beta in targets:
            got = table(alpha, beta)
            assert (got == want.get((alpha, beta), zero)).all(), (alpha, beta)

    def test_target_above_max_degree_rejected(self):
        table = ClosedFormA(exact_b_family(), 2, 3)
        with pytest.raises(JetError):
            table((1, 1), (0, 2))


class TestParsedA:
    def test_dyadic_cell_equals_exact_closed_form(self):
        # the benchmark's seed-1 (2, 6, 6) cell: degree-6 targets carry
        # chains of three factors (Catalan weight 2); on its dyadic B the
        # float A that parsing solves has the exact closed form's keys and
        # values
        n, order = 2, 6
        text = bench_b_normal_spec(n, order, 6, seed=1)
        parsed = parse_manifold_spec(text, name="bnormal-n2N6d6.json").structure.A
        fam = {}
        for e in json.loads(text)["structure"]["entries"]:
            key = (tuple(e["alpha"]), tuple(e["beta"]))
            mat = fam.setdefault(key, np.full((n, n), QC(0), dtype=object))
            mat[e["k"] - 1, e["l"] - 1] = QC(Fraction(e["re"]), Fraction(e["im"]))
        want = a_from_b_family(fam, n, order)
        for k in range(n):
            for l in range(n):
                assert parsed[k, l].terms == \
                    {key: complex(c) for key, c in want[k, l].terms.items()}, (k, l)


def exact_copy(m: JetMatrix) -> JetMatrix:
    """The exact matrix of the binary values of a float one."""
    return m.map(lambda e: Jet(e.n, e.order, {
        key: QC(Fraction(c.real), Fraction(c.imag)) for key, c in e.terms.items()},
        exact=True))


def all_sweeps(b: JetMatrix) -> JetMatrix:
    """A = iI + S from all ``order`` sweeps of S = (i/2)(conj(B) B + S^2)."""
    n, order, exact = b.rows, b.order, b.exact
    r = b.conj() @ b
    half_i = QC(0, "1/2") if exact else 0.5j
    s = JetMatrix.zeros(n, n, b.n, order, exact=exact)
    for _ in range(order):
        s = (r + s @ s) * half_i
    i_unit = QC(0, 1) if exact else 1j
    return JetMatrix.identity(n, b.n, order, exact=exact) * i_unit + s


def matrix_bits(m: JetMatrix):
    """Each entry's effective order, keys and coefficient bits, signed zeros
    told apart."""
    def bits(c):
        return (c.re, c.im) if isinstance(c, QC) else (c.real.hex(), c.imag.hex())
    return [(e.effective_order, [(key, bits(c)) for key, c in e.terms.items()])
            for row in m.entries for e in row]


def bench_cell_b(n, order, degree):
    text = bench_b_normal_spec(n, order, degree, seed=1)
    return parse_manifold_spec(text, name="bnormal.json").structure.B


class TestSameSweep:
    # the solver's stop test: a sweep that returns its input bit for bit
    KEY = ((1, 0), (0, 0))

    def matrix(self, c, exact=False):
        return JetMatrix([[Jet(2, 2, {self.KEY: c}, exact=exact), Jet.zero(2, 2, exact)]])

    def test_signed_zero_tells_float_sweeps_apart(self):
        plus, minus = self.matrix(complex(0.5, 0.0)), self.matrix(complex(0.5, -0.0))
        assert plus[0, 0] == minus[0, 0]
        assert _same_sweep(plus, self.matrix(complex(0.5, 0.0)))
        assert not _same_sweep(plus, minus)
        assert not _same_sweep(self.matrix(complex(-0.0, 1.0)), self.matrix(1j))

    def test_nan_term_is_never_the_same(self):
        m = self.matrix(complex("nan"))
        assert not _same_sweep(m, m)
        assert not _same_sweep(m, self.matrix(complex("nan")))

    def test_exact_sweeps(self):
        assert _same_sweep(self.matrix(QC("1/3", -2), True), self.matrix(QC("2/6", -2), True))
        assert not _same_sweep(self.matrix(QC("1/3"), True), self.matrix(QC("1/3", 1), True))

    def test_effective_order_counts(self):
        m = self.matrix(QC(1), True)
        assert not _same_sweep(m, m.map(lambda e: e.trusted(1)))


class TestSolverFixedPoint:
    # sweep j settles every degree through 2j + 1, so after conj(B) B the
    # solver runs the N // 2 sweeps that settle A and one that returns its
    # input; all N sweeps give the same A, bit for bit
    def check(self, b, monkeypatch):
        calls = []
        matmul = JetMatrix.__matmul__

        def counting(self, other):
            calls.append(other)
            return matmul(self, other)
        monkeypatch.setattr(JetMatrix, "__matmul__", counting)
        got = solve_a_degree_by_degree(b)
        monkeypatch.undo()
        assert len(calls) == 2 + b.order // 2
        assert matrix_bits(got) == matrix_bits(all_sweeps(b))

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("make_b", [
        lambda: fix_b(4).B, lambda: fix_b(6).B,
        lambda: bench_cell_b(2, 6, 6), lambda: bench_cell_b(3, 6, 4)],
        ids=["fix_b-4", "fix_b-6", "cell-2-6-6", "cell-3-6-4"])
    def test_equals_all_sweeps(self, monkeypatch, make_b, exact):
        self.check(exact_copy(make_b()) if exact else make_b(), monkeypatch)

    def test_random_float_family_equals_all_sweeps(self, monkeypatch):
        self.check(random_b_normal(3, n=3, order=5).B, monkeypatch)


class TestNormalize:
    def test_j0_identity(self):
        res = normalize_to_order(fix_j0(), 3)
        assert res.violation == 0
        ident = [Jet.variable(2, 4, k) for k in range(2)]
        for p, i in zip(res.phi, ident):
            assert (p - i.with_order(p.order)).max_abs() == 0

    def test_random_deformation_reaches_pattern(self):
        for seed in (1, 9):
            s = random_deformation(seed, n=2, order=3)
            assert pattern_violation(s) > 1e-4   # generic start is not normal
            res = normalize_to_order(s, 3)
            assert res.violation < 1e-11
            assert res.structure.validate().max_residual < 1e-11

    def test_generic_n3_bits(self):
        # sha256 of phi and of B's coefficients, from ``germs.jets_sha256``:
        # the report-byte pins cover n <= 2 only
        res = normalize_to_order(random_deformation(1, n=3, order=4), 4)
        assert jets_sha256(res.phi, flat_entries(res.structure.B)) == \
            "b8935b4b386b70e48ba757836a0d4ab56dc73f405e573c638e38fa1a667b728c"

    def test_idempotent_on_normal_input(self):
        s = fix_b()
        res = normalize_to_order(s, 4)
        ident = [Jet.variable(2, 5, k) for k in range(2)]
        for p, i in zip(res.phi, ident):
            assert (p - i).max_abs() < 1e-13
        assert (res.structure.B - s.B).max_abs() < 1e-12

    def test_stages_preserve_lower_degrees(self):
        s = random_deformation(5, n=2, order=3)
        from acgeom.normal import stage_change
        from acgeom.structure import transform_structure
        cur = s
        prev_families = []
        for m in range(1, 4):
            phi, changed = stage_change(cur, m, 4)
            if changed:
                nxt = transform_structure(cur, phi)
            else:
                nxt = cur
            before = cur.B.coefficients()
            after = nxt.B.coefficients()
            for key in set(before) | set(after):
                if sum(key[0]) + sum(key[1]) < m:
                    d = np.abs(before.get(key, 0) - after.get(key, 0)).max()
                    assert d < 1e-11
            cur = nxt

    def test_formA_consistency_after_normalization(self):
        s = random_deformation(12, n=2, order=3)
        res = normalize_to_order(s, 3)
        bfam = res.b_family()
        afam = res.a_family()
        for key, mat in afam.items():
            closed = a_from_b_closed_form(bfam, key[0], key[1], 2)
            assert np.abs(closed - mat).max() < 1e-10, key
        # A expansion only carries |alpha|, |beta| >= 1 entries
        for key in afam:
            assert sum(key[0]) >= 1 and sum(key[1]) >= 1

    def test_requires_adapted_input(self):
        import numpy
        from acgeom.jets import JetMatrix
        from acgeom.structure import AlmostComplexStructure
        a = JetMatrix.from_constant(numpy.diag([1j, 1j]) + 0.05, 2, 3)
        b = JetMatrix.zeros(2, 2, 2, 3)
        with pytest.raises(JetError):
            normalize_to_order(AlmostComplexStructure(a, b), 3)


class TestTorsionJet:
    def test_j0_zero(self):
        jets = torsion_jet_normal(fix_j0())
        assert all(jets[r][k][l].max_abs() == 0
                   for r in range(2) for k in range(2) for l in range(2))

    def test_fix_b_value_and_linear_part(self):
        jets = torsion_jet_normal(fix_b())
        j = jets[0][0][1]
        assert abs(j.constant_term - (-0.05 + 0.15j)) < 1e-12
        assert j.max_abs(1) == abs(j.constant_term)  # no linear terms

    def test_cross_check_against_frame_brackets(self):
        for s in (fix_b(), fix_b2(), random_b_normal(4)):
            jets = torsion_jet_normal(s)
            tors = torsion_tensor(s)
            for r in range(2):
                for k in range(2):
                    for l in range(k + 1, 2):
                        diff = jets[r][k][l] - tors.coefficient(r, k, l).truncated(1)
                        assert diff.max_abs(1) < 1e-11

    def test_quadratic_family_gives_zbar_linear_term(self):
        # single B^{2,1bar} entry: linear zbar_1 term (i/2) * value
        val = 0.4 - 0.05j
        fam = {((0, 1), (1, 0)): np.array([[val, 0], [0, 0]], dtype=complex)}
        s = b_normal(fam, 2, 4)
        jets = torsion_jet_normal(s)
        j = jets[0][0][1]   # Nbar^1_{1,2}
        assert abs(j.coeff((0, 0), (1, 0)) - 0.5j * val) < 1e-12
        tors = torsion_tensor(s)
        ref = tors.coefficient(0, 0, 1)
        assert abs(ref.coeff((0, 0), (1, 0)) - 0.5j * val) < 1e-11

    def test_equivalence_diagnostic_four_cases(self):
        cases = [
            (fix_b(), 0, False),    # torsion at origin nonzero
            (fix_b2(), 0, True),    # B quadratic: 0-jet of torsion vanishes
            (fix_b2(), 1, False),   # but 1-jet does not
            (fix_b3(), 1, True),    # B cubic: 1-jet vanishes too
        ]
        for s, k, expected_zero in cases:
            out = torsion_jet_equivalence(s, k)
            assert out["torsion_jet_zero"] == expected_zero
            assert out["b_vanishes"] == expected_zero
            assert out["consistent"]


class TestHolomorphicInvariance:
    def test_zero_change(self):
        out = verify_holomorphic_invariance(fix_b(order=4), {}, n_order=3)
        assert out["deviation"] == 0

    def test_fix_b_degree_four_change(self):
        change = {(1, (4, 0)): 0.1}
        out = verify_holomorphic_invariance(fix_b(order=4), change, n_order=3)
        assert out["deviation"] < 1e-11
        assert out["pattern_violation"] < 1e-11

    def test_j0_stays_flat(self):
        change = {(0, (2, 2)): 0.3 - 0.2j, (1, (0, 4)): 0.15}
        out = verify_holomorphic_invariance(fix_j0(order=4), change, n_order=3)
        assert out["deviation"] < 1e-12
        assert out["structure"].B.max_abs() < 1e-12

    def test_rejects_wrong_degree(self):
        with pytest.raises(JetError):
            verify_holomorphic_invariance(fix_b(), {(0, (1, 0)): 0.1}, n_order=3)
