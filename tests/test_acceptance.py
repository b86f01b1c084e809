"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import os

import numpy as np

from acgeom import chern, geodesic, normal
from acgeom.cli import Options, emit_report, main, parse_manifold_spec, run_command
from acgeom.forms import FrameCalculus, fundamental_identities_check
from acgeom.jets import Jet, JetMatrix, QC, _exponent_vectors
from acgeom.structure import torsion_tensor, nijenhuis_check

from germs import (fix_b, fix_b2, fix_b3, fix_j0, identity_metric,
                   metric_from_families, random_b_normal, random_deformation)

MANIFESTS = os.path.join(os.path.dirname(__file__), "..", "manifests")


def _report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert ok, line


def _dyadic_forms(calc, seed):
    rng = np.random.default_rng(seed)
    forms = []
    for base in calc.monomial_forms(2):
        terms = {}
        for _ in range(3):
            d = int(rng.integers(0, calc.order + 1))
            exps = [0] * (2 * calc.n)
            for _ in range(d):
                exps[int(rng.integers(0, 2 * calc.n))] += 1
            c = complex(int(rng.integers(-256, 257)),
                        int(rng.integers(-256, 257))) / 256
            terms[(tuple(exps[:calc.n]), tuple(exps[calc.n:]))] = c
        forms.append(base * Jet(calc.n, calc.order, terms))
    return forms


def test_criterion_1_fundamental_identities():
    calc0 = FrameCalculus(fix_j0())
    rows = fundamental_identities_check(calc0, _dyadic_forms(calc0, 1))
    flat_exact = all(r["max_residual"] == 0 for r in rows)
    worst = 0.0
    fixtures = [fix_b()] + [random_deformation(s, n=2, order=4)
                            for s in (101, 102, 103)] \
        + [random_deformation(s, n=3, order=4) for s in (104, 105)]
    for i, s in enumerate(fixtures):
        calc = FrameCalculus(s)
        rows = fundamental_identities_check(calc, _dyadic_forms(calc, 10 + i))
        worst = max(worst, max(r["max_residual"] for r in rows))
    _report("criterion 1 (fundamental identities)",
            flat_exact and worst < 1e-10,
            f"flat exactly zero: {flat_exact}, max residual elsewhere "
            f"{worst:.2e} < 1e-10")


def test_criterion_2_structure_constraints():
    worst = 0.0
    for s in (fix_b(), fix_b2(), fix_b3(), random_b_normal(201),
              random_b_normal(202), random_deformation(203),
              random_deformation(204, n=3)):
        worst = max(worst, s.validate().max_residual)
    # exact-arithmetic agreement of the closed formula with the
    # degree-by-degree solver, all |alpha+beta| <= 4, n = 2
    n, order = 2, 4
    fam = {
        ((0, 1), (0, 0)): [[QC("3/10", "1/10"), QC(0)], [QC(0), QC(0)]],
        ((0, 1), (1, 0)): [[QC("-1/4", "1/7"), QC(0)], [QC("1/5"), QC(0)]],
        ((0, 2), (0, 0)): [[QC(0), QC(0)], [QC("1/3", "-1/6"), QC(0)]],
        ((0, 1), (0, 2)): [[QC("2/9"), QC(0)], [QC(0), QC(0)]],
    }
    fam = {k: np.array(v, dtype=object) for k, v in fam.items()}
    b = JetMatrix.from_coefficients(fam, n, n, n, order, exact=True)
    a = normal.solve_a_degree_by_degree(b)
    half_i = QC(0, "1/2")
    closed_form = normal.ClosedFormA(fam, n, order)
    mismatches = 0
    for alpha in _exponent_vectors(n, order):
        if sum(alpha) < 1:
            continue
        for beta in _exponent_vectors(n, order - sum(alpha)):
            if sum(beta) < 1:
                continue
            closed = closed_form(alpha, beta)
            for k in range(n):
                for l in range(n):
                    if a[k, l].coeff(alpha, beta) != half_i * closed[k, l]:
                        mismatches += 1
    _report("criterion 2 (structure constraints)",
            worst < 1e-11 and mismatches == 0,
            f"max J^2 residual {worst:.2e} < 1e-11, exact formula/solver "
            f"mismatches: {mismatches}")


def test_criterion_3_normal_form():
    worst_pattern = 0.0
    worst_idem = 0.0
    for seed in (301, 302):
        s = random_deformation(seed, n=2, order=3)
        res = normal.normalize_to_order(s, 3)
        worst_pattern = max(worst_pattern, res.violation)
        rerun = normal.normalize_to_order(res.structure, 3)
        ident = [Jet.variable(2, 4, k) for k in range(2)]
        worst_idem = max(worst_idem,
                         max((p - i).max_abs() for p, i in zip(rerun.phi, ident)))
    out = normal.verify_holomorphic_invariance(
        fix_b(order=4), {(1, (4, 0)): 0.1}, n_order=3)
    _report("criterion 3 (normal form)",
            worst_pattern < 1e-11 and worst_idem < 1e-11
            and out["deviation"] < 1e-11,
            f"pattern {worst_pattern:.2e}, idempotence {worst_idem:.2e}, "
            f"holomorphic invariance {out['deviation']:.2e}, all < 1e-11")


def test_criterion_4_torsion():
    worst_agree = max(nijenhuis_check(s, torsion_tensor(s)) for s in
                      (fix_b(), random_deformation(401),
                       random_deformation(402, n=3)))
    got = torsion_tensor(fix_b()).coefficient(0, 0, 1).constant_term
    value_err = abs(got - (-0.05 + 0.15j))
    cases = [(fix_b(), 0, False), (fix_b2(), 0, True),
             (fix_b2(), 1, False), (fix_b3(), 1, True)]
    diag_ok = True
    for s, k, expected in cases:
        out = normal.torsion_jet_equivalence(s, k)
        diag_ok = diag_ok and out["consistent"] \
            and out["torsion_jet_zero"] == expected
    _report("criterion 4 (torsion)",
            worst_agree < 1e-11 and value_err < 1e-12 and diag_ok,
            f"cross-check {worst_agree:.2e} < 1e-11, origin value error "
            f"{value_err:.2e} < 1e-12, jet diagnostics consistent: {diag_ok}")


def _symplectic_metric():
    lin = np.zeros((2, 2, 2), dtype=complex)
    lin[0, 0, 0] = 0.2
    lin[0, 1, 1] = 0.15
    sym = 0.5 * (lin + lin.transpose(1, 0, 2))
    return metric_from_families(2, 4, lin=sym)


def _nonclosed_metric():
    lin = np.zeros((2, 2, 2), dtype=complex)
    lin[0, 1, 0] = 0.2
    return metric_from_families(2, 4, lin=lin)


def test_criterion_5_chern_levi_civita():
    calc0 = FrameCalculus(fix_j0())
    calcb = FrameCalculus(fix_b())
    calcr = FrameCalculus(random_deformation(501))
    fixtures = [
        ("kahler", calc0, identity_metric(2, 4)),
        ("symplectic", calc0, _symplectic_metric()),
        ("nonclosed", calc0, _nonclosed_metric()),
        ("fix-b", calcb, identity_metric(2, 4)),
        ("deformation", calcr,
         metric_from_families(2, 4, lin=0.05 * np.ones((2, 2, 2)))),
    ]
    worst_dec = worst_tor = 0.0
    delta_sym = delta_open = None
    n_integrable = 0.0
    for name, calc, hd in fixtures:
        dec = chern.ChernLeviCivita(calc, hd)
        worst_dec = max(worst_dec, dec.decomposition_residual())
        worst_tor = max(worst_tor, dec.torsion_formula_residual())
        if name == "symplectic":
            delta_sym = dec.delta_max()
        if name == "nonclosed":
            delta_open = dec.delta_max()
        if name in ("kahler", "symplectic", "nonclosed"):
            n_integrable = max(n_integrable, dec.n_omega_max())
    ok = (worst_dec < 1e-10 and worst_tor < 1e-10 and delta_sym < 1e-10
          and delta_open > 1e-3 and n_integrable == 0.0)
    _report("criterion 5 (connection decomposition)", ok,
            f"formula {worst_dec:.2e} < 1e-10, torsion form {worst_tor:.2e} "
            f"< 1e-10, delta(symplectic) {delta_sym:.2e}, "
            f"delta(non-closed) {delta_open:.2e} > 1e-3, "
            f"N on integrable = {n_integrable}")


def test_criterion_6_curvature():
    fixtures = [
        (FrameCalculus(fix_b()), identity_metric(2, 4)),
        (FrameCalculus(fix_b2()), identity_metric(2, 4)),
        (FrameCalculus(fix_j0()), metric_from_families(
            2, 4, quad_mixed=0.2 * np.ones((2, 2, 2, 2)))),
        (FrameCalculus(random_b_normal(601)), metric_from_families(
            2, 4, lin=0.05 * np.ones((2, 2, 2)))),
    ]
    worst_origin = worst_sym = worst_point = 0.0
    for calc, hd in fixtures:
        conn = chern.chern_connection(calc, hd)
        blocks = chern.curvature(calc, conn)
        c_direct = chern.curvature_origin_formula(hd, calc.structure)
        worst_origin = max(worst_origin,
                           np.abs(blocks.c_tensor_at_origin() - c_direct).max())
        worst_sym = max(worst_sym, chern.hermitian_curvature_symmetry(blocks))
        worst_point = max(worst_point, chern.pointwise_curvature_residual(
            calc, hd, conn, blocks))
    calcb = FrameCalculus(fix_b())
    blocks = chern.curvature(calcb, chern.chern_connection(
        calcb, identity_metric(2, 4)))
    c_val = blocks.c_tensor_at_origin()[1, 1, 0, 0]
    value_err = abs(c_val - 0.05)
    ok = (worst_origin < 1e-11 and value_err < 1e-12 and worst_sym < 1e-11
          and worst_point < 1e-10)
    _report("criterion 6 (curvature)", ok,
            f"origin formula {worst_origin:.2e} < 1e-11, C[2,2;1,1](0) error "
            f"{value_err:.2e} < 1e-12, hermitian symmetry {worst_sym:.2e} "
            f"< 1e-11, pointwise {worst_point:.2e} < 1e-10")


def test_criterion_7_special_frame():
    quad = np.zeros((2, 2, 2, 2), dtype=complex)
    quad[0, 1, 0, 0] = 0.3 - 0.1j
    quad[1, 1, 1, 0] = 0.2
    fixtures = [
        (FrameCalculus(fix_j0()), metric_from_families(
            2, 4, lin=0.1 * np.ones((2, 2, 2)), quad_zz=quad,
            quad_mixed=0.12 * np.ones((2, 2, 2, 2)))),
        (FrameCalculus(fix_b()), identity_metric(2, 4)),
        (FrameCalculus(fix_b()), metric_from_families(
            2, 4, quad_mixed=0.2 * np.ones((2, 2, 2, 2)))),
    ]
    worst_cond = worst_h = worst_lem = 0.0
    for calc, hd in fixtures:
        sf = chern.special_frame(calc, hd)
        worst_cond = max(worst_cond, sf.a_second_origin, sf.del_a_second_origin)
        worst_h = max(worst_h, sf.h_pattern_violation)
        out = chern.almost_holomorphic_identities(calc, hd, sf)
        worst_lem = max(worst_lem, out["pairing_residual"], out["psh_residual"])
    ok = worst_cond < 1e-12 and worst_h < 1e-12 and worst_lem < 1e-10
    _report("criterion 7 (special frames)", ok,
            f"special conditions {worst_cond:.2e} < 1e-12, metric pattern "
            f"{worst_h:.2e} < 1e-12, pairing identities {worst_lem:.2e} < 1e-10")


def test_criterion_8_asymptotics():
    rng = np.random.default_rng(801)
    fixtures = [(FrameCalculus(fix_b()), identity_metric(2, 4))]
    for seed in (802, 803, 804):
        s = random_b_normal(seed)
        lin = 0.1 * (rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
        qm = 0.1 * (rng.normal(size=(2, 2, 2, 2))
                    + 1j * rng.normal(size=(2, 2, 2, 2)))
        fixtures.append((FrameCalculus(s), metric_from_families(
            2, 4, lin=lin, quad_mixed=qm)))
    worst_s = worst_m = 0.0
    for calc, hd in fixtures:
        worst_s = max(worst_s, chern.asymptotics_vs_full_connection(calc, hd))
        worst_m = max(worst_m, chern.metric_coordinate_residual(calc, hd))
    ok = worst_s < 1e-11 and worst_m < 1e-11
    _report("criterion 8 (normal asymptotics)", ok,
            f"coefficient families vs connection {worst_s:.2e} < 1e-11, "
            f"metric expansion {worst_m:.2e} < 1e-11")


def test_criterion_9_geodesics():
    flat = geodesic.GeodesicLab(FrameCalculus(fix_j0()),
                                identity_metric(2, 4))
    z = np.array([0.03 + 0.01j, -0.02j])
    v = np.array([0.05 - 0.01j, 0.04j])
    end = geodesic.integrate_geodesic(flat.packed, z, v, steps=256)
    flat_err = max(np.abs(end - (z + v)).max(),
                   np.abs(geodesic.exp_asymptotic(flat.coeffs, z, v)
                          - (z + v)).max())
    lab = geodesic.GeodesicLab(FrameCalculus(fix_b()),
                               identity_metric(2, 4))
    probe = geodesic.error_scaling_probe(lab, [0.0, 0.0], [0.04, 0.02],
                                         geodesic.SCALE_LADDER, 256)
    ratio = geodesic.integrator_convergence_ratio(
        lab, np.array([0.05 + 0.03j, -0.04j]),
        np.array([0.12 - 0.02j, 0.1 + 0.05j]), coarse=4, reference=512)
    ok = flat_err < 1e-12 and probe["slope"] >= 2.8 \
        and 16 * 0.8 <= ratio <= 16 * 1.2
    _report("criterion 9 (geodesic flow)", ok,
            f"flat endpoint error {flat_err:.2e} < 1e-12, error slope "
            f"{probe['slope']:.3f} >= 2.8, step-halving ratio {ratio:.2f} "
            f"in 16 +/- 20%")


def test_criterion_10_cli():
    with open(os.path.join(MANIFESTS, "fix_b.json"), encoding="utf-8") as fh:
        text = fh.read()
    ms = parse_manifold_spec(text, name="fix_b")
    json_outs = []
    for _ in range(2):
        report, payload = run_command("identities", ms, Options())
        json_outs.append(emit_report(report, "json", payload))
    deterministic = json_outs[0] == json_outs[1]
    from acgeom.cli import serialize_manifold_spec
    round_trip = serialize_manifold_spec(
        parse_manifold_spec(serialize_manifold_spec(ms), name="fix_b")) \
        == serialize_manifold_spec(ms)
    rc_pass = main(["validate", os.path.join(MANIFESTS, "fix_b.json")])
    rc_fail = main(["geodesic", os.path.join(MANIFESTS, "fix_b.json"),
                    "--slope-bound", "5.0", "--steps", "64"])
    ok = deterministic and round_trip and rc_pass == 0 and rc_fail == 1
    _report("criterion 10 (cli)", ok,
            f"byte-identical json: {deterministic}, spec round-trip: "
            f"{round_trip}, exit codes (pass/fail): {rc_pass}/{rc_fail}")
