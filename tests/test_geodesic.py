import os

import numpy as np
import pytest

from acgeom.chern import antisymmetrize_metric_linear
from acgeom import geodesic
from acgeom.forms import FrameCalculus
from acgeom.cli import Options, parse_manifold_spec, run_command
from acgeom.geodesic import (NOISE_FLOOR, SCALE_LADDER, GeodesicLab,
                             TrustRadiusExit, _rk4_sweep,
                             error_scaling_probe, exp_asymptotic,
                             integrate_geodesic,
                             integrate_geodesic_checked,
                             integrator_convergence_ratio)
from acgeom.jets import JetError

from germs import (FIX_B_VALUE, fix_b, fix_b2, fix_b3, fix_j0, identity_metric,
                   matrix_eval, metric_from_families, random_b_normal)


def rk4_states(packed, z, v, steps):
    """(gamma, gamma-dot) at t = 1 of the RK4 oracle, for one state (n,) or
    a batch (S, n), as ``integrate_geodesic`` computes them."""
    y = np.concatenate([np.asarray(z, complex), np.asarray(v, complex)], axis=-1)
    y = _rk4_sweep(packed, np.atleast_2d(y), steps).reshape(y.shape)
    return y[..., :packed.n], y[..., packed.n:]


@pytest.fixture(scope="module")
def lab_flat():
    return GeodesicLab(FrameCalculus(fix_j0()), identity_metric(2, 4))


@pytest.fixture(scope="module")
def lab_b():
    return GeodesicLab(FrameCalculus(fix_b()), identity_metric(2, 4))


@pytest.fixture(scope="module")
def lab_b2():
    return GeodesicLab(FrameCalculus(fix_b2()), identity_metric(2, 4))


class TestFlatCase:
    def test_straight_lines(self, lab_flat):
        z = np.array([0.03 + 0.01j, -0.02j])
        v = np.array([0.05 - 0.01j, 0.04j])
        end = integrate_geodesic(lab_flat.packed, z, v, steps=64)
        assert np.abs(end - (z + v)).max() < 1e-14
        asym = exp_asymptotic(lab_flat.coeffs, z, v)
        assert np.abs(asym - (z + v)).max() == 0

    def test_probe_reports_exact(self, lab_flat):
        out = error_scaling_probe(lab_flat, [0.02, 0.0], [0.03, 0.01],
                                  SCALE_LADDER, 64)
        assert out["exact"] is True


    def test_flat_connection_takes_no_step(self, lab_flat, monkeypatch):
        def evaluated(*args):
            raise AssertionError("flat connection evaluated")

        monkeypatch.setattr(lab_flat.packed, "rate", evaluated)
        monkeypatch.setattr(lab_flat.packed, "acceleration", evaluated)
        z = np.array([0.03 + 0.01j, -0.02j])
        v = np.array([0.05 - 0.01j, 0.04j])
        end, vel = rk4_states(lab_flat.packed, z, v, 64)
        assert np.array_equal(end, z + v) and np.array_equal(vel, v)
        zs, vs = np.array([z, 2 * z]), np.array([v, -v])
        assert np.array_equal(integrate_geodesic(lab_flat.packed, zs, vs, 256),
                              zs + vs)

    @pytest.mark.parametrize("z, v", [
        ([0.19, 0.0], [0.5, 0.0]),            # leaves early
        ([0.25, 0.0], [-0.1, 0.0]),           # outside at t = 0
        ([-0.15, 0.1j], [0.4, 0.0]),          # inside, then leaves late
        ([-0.15, 0.0], [0.3, 0.0]),           # passes near 0, stays inside
        ([0.0, 0.0], [0.201, 0.0]),           # outside only at t = 1
        ([[0.0, 0.0], [0.19, 0.0]], [[0.01, 0.0], [0.5, 0.0]]),   # batch
    ])
    def test_flat_trust_radius_exit_on_step_grid(self, lab_flat, z, v):
        # the RK4 loop checks |gamma| <= 0.2 before each step, at t = k / steps
        # for k < steps; on a flat connection gamma(t) = z + t v
        z, v = np.asarray(z, complex), np.asarray(v, complex)
        steps = 64
        outside = [k for k in range(steps)
                   if np.abs(z + (k / steps) * v).max() > 0.2]
        if not outside:
            end = integrate_geodesic(lab_flat.packed, z, v, steps=steps)
            assert np.array_equal(end, z + v)
            return
        with pytest.raises(TrustRadiusExit) as err:
            integrate_geodesic(lab_flat.packed, z, v, steps=steps)
        assert err.value.time == outside[0] * (1.0 / steps)


class TestExpAsymptotic:
    def test_zero_vector_fixed_point(self, lab_b):
        z = np.array([0.02, -0.01 + 0.005j])
        assert np.abs(exp_asymptotic(lab_b.coeffs, z, [0, 0]) - z).max() == 0

    def test_origin_term_enumeration(self, lab_b):
        # exp_0(v)_k = v_k + (i/4) sum conj(B^p)_{k,l} vbar_p vbar_l:
        # single contribution from (p, l) = (2, 1) in the first component
        v = np.array([0.03 - 0.01j, 0.02 + 0.015j])
        got = exp_asymptotic(lab_b.coeffs, [0, 0], v)
        want0 = v[0] + 0.25j * np.conj(FIX_B_VALUE) * np.conj(v[1]) * np.conj(v[0])
        assert abs(got[0] - want0) < 1e-16
        assert abs(got[1] - v[1]) < 1e-16

    def test_quadratic_part_matches_connection(self, lab_b):
        # second differences of the ODE endpoint reproduce the asymptotic
        # quadratic form at z = 0
        v = np.array([0.01, 0.006 - 0.004j])
        end = integrate_geodesic(lab_b.packed, np.zeros(2, complex), v,
                                 steps=512)
        asym = exp_asymptotic(lab_b.coeffs, [0, 0], v)
        assert np.abs(end - asym).max() < 5 * np.abs(v).max() ** 3

    def test_conjugate_block_reality(self, lab_b):
        # the complexified connection acts block-diagonally: the conjugate
        # half of the acceleration mirrors the first half exactly
        from acgeom.geodesic import conjugate_block_residual
        z = np.array([0.02 + 0.01j, -0.015j])
        v = np.array([0.03, 0.02 + 0.01j])
        assert conjugate_block_residual(lab_b.packed, z, v) < 1e-15


LADDER = (1.0, 0.5, 0.25, 0.125, 0.0625)
Z_OFF = np.array([0.05 + 0.02j, -0.03j])
V_OFF = np.array([0.12, 0.1j])


def per_scale_checked(packed, z, v, steps, tol=1e-12, max_doublings=4):
    """The step-doubling loop run one state at a time, each run after the
    other: (endpoint, steps, converged)."""
    end = integrate_geodesic(packed, z, v, steps)
    if not np.isfinite(end).all():
        return end, steps, False
    for _ in range(max_doublings):
        steps *= 2
        refined = integrate_geodesic(packed, z, v, steps)
        drift = np.abs(refined - end).max()
        end = refined
        if drift < tol:
            return end, steps, True
        if not np.isfinite(drift):
            break
    return end, steps, False


class TestBatchedOracle:
    def test_batch_equals_single_runs(self, lab_b):
        zs = np.array([Z_OFF * s for s in LADDER])
        vs = np.array([V_OFF * s for s in LADDER])
        ends, vels = rk4_states(lab_b.packed, zs, vs, 64)
        assert ends.shape == vels.shape == (len(LADDER), 2)
        assert np.array_equal(ends, integrate_geodesic(lab_b.packed, zs, vs, 64))
        for zi, vi, end, vel in zip(zs, vs, ends, vels):
            one, one_vel = rk4_states(lab_b.packed, zi, vi, 64)
            assert np.abs(end - one).max() < 1e-15
            assert np.abs(vel - one_vel).max() < 1e-15

    def test_acceleration_matches_pointwise_jets(self, lab_b):
        from acgeom.chern import connection_matrix_coordinate
        a_z = connection_matrix_coordinate(lab_b.calc, lab_b.conn)
        rng = np.random.default_rng(5)
        zs = 0.05 * (rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
        vs = 0.1 * (rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
        got = lab_b.packed.acceleration(zs, vs)
        assert got.shape == (6, 2)
        for z, v, acc in zip(zs, vs, got):
            vf = np.concatenate([v, np.conj(v)])
            want = -sum(matrix_eval(a_z[a], z) @ vf * vf[a] for a in range(4))
            assert np.abs(want[2:] - np.conj(want[:2])).max() < 1e-15
            assert np.abs(acc - want[:2]).max() < 1e-15
            assert np.abs(lab_b.packed.acceleration(z, v) - acc).max() < 1e-15

    def test_flat_acceleration_is_zero(self, lab_flat):
        acc = lab_flat.packed.acceleration(np.zeros((3, 2), complex),
                                           np.ones((3, 2), complex))
        assert acc.shape == (3, 2) and not acc.any()

    @pytest.mark.parametrize("steps", [1, 2])
    def test_probe_step_counts_match_per_scale_loop(self, lab_b, steps):
        out = error_scaling_probe(lab_b, Z_OFF, V_OFF, scales=LADDER,
                                  steps=steps)
        for row in out["rows"]:
            s = row["scale"]
            end, k, ok = per_scale_checked(lab_b.packed, Z_OFF * s,
                                           V_OFF * s, steps)
            asym = exp_asymptotic(lab_b.coeffs, Z_OFF * s, V_OFF * s)
            assert row["steps"] == k
            assert row["converged"] is ok is True
            assert abs(row["error"] - np.abs(asym - end).max()) < 1e-15
        # the ladder needs a different number of doublings per scale here
        assert len({row["steps"] for row in out["rows"]}) > 1

    def test_unconverged_rows_reported(self, lab_b, monkeypatch):
        monkeypatch.setattr(geodesic, "MAX_DOUBLINGS", 1)
        ends, steps, converged = integrate_geodesic_checked(
            lab_b.packed, [Z_OFF, Z_OFF / 16], [V_OFF, V_OFF / 16], steps=1)
        assert list(steps) == [2, 2]
        assert list(converged) == [False, True]

    def test_nan_is_a_failure_not_exact(self, lab_b):
        out = error_scaling_probe(lab_b, [0.0, 0.0], [np.nan, 0.0],
                                  SCALE_LADDER, 64)
        assert out["finite"] is False
        assert out["exact"] is False and out["slope"] is None
        # a non-finite endpoint never settles, so it is not doubled
        assert all(r["steps"] == 64 and not r["converged"]
                   for r in out["rows"])


class TestMergedSweep:
    """The first step doubling shares one RK4 sweep with the undoubled run:
    it must give the bits, step counts, flags and trust-radius exits of the
    two runs made one after the other."""

    @pytest.mark.parametrize("steps", [1, 2, 256])
    def test_ladder_matches_per_scale_loop(self, lab_b, steps):
        zs = np.array([Z_OFF * s for s in LADDER])
        vs = np.array([V_OFF * s for s in LADDER])
        ends, counts, converged = integrate_geodesic_checked(
            lab_b.packed, zs, vs, steps=steps)
        want = [per_scale_checked(lab_b.packed, zi, vi, steps)
                for zi, vi in zip(zs, vs)]
        assert np.array_equal(ends, np.array([w[0] for w in want]))
        assert np.array_equal(counts, [w[1] for w in want])
        assert np.array_equal(converged, [w[2] for w in want])

    @staticmethod
    def exits(packed, z, v, steps):
        """The TrustRadiusExit of the merged sweep, checked against the one
        of the per-scale loop."""
        with pytest.raises(TrustRadiusExit) as seq:
            for zi, vi in zip(np.atleast_2d(z), np.atleast_2d(v)):
                per_scale_checked(packed, zi, vi, steps)
        with pytest.raises(TrustRadiusExit) as merged:
            integrate_geodesic_checked(packed, z, v, steps=steps)
        assert merged.value.time == seq.value.time
        assert str(merged.value) == str(seq.value)
        return merged.value.time

    @pytest.mark.parametrize("z, v, steps, time", [
        ([0.19, 0.0], [0.5, 0.0], 64, 2 / 64),
        # the four-step run would leave at t = 0.25, but the two-step run,
        # made first, leaves at t = 0.5
        ([0.0, 0.0], [1.0, 0.0], 2, 0.5),
    ])
    def test_exit_by_undoubled_row(self, lab_b, z, v, steps, time):
        assert self.exits(lab_b.packed, [z, Z_OFF / 16], [v, V_OFF / 16],
                          steps) == time

    @pytest.mark.parametrize("batch", [False, True])
    def test_exit_by_doubled_row_only(self, lab_b, batch):
        # the one-step run checks only t = 0; the two-step run leaves at 0.5
        z, v = np.zeros(2, complex), np.array([0.5, 0.0])
        assert np.isfinite(integrate_geodesic(lab_b.packed, z, v, 1)).all()
        if batch:
            z, v = np.array([Z_OFF / 16, z]), np.array([V_OFF / 16, v])
        assert self.exits(lab_b.packed, z, v, 1) == 0.5

    def test_exit_by_doubled_row_before_undoubled_run_is_done(self):
        # the two-step run stays inside at t = 0.5; the four-step run is
        # outside at t = 0.25, a step the sweep reaches before the two-step
        # run is done
        lab = GeodesicLab(FrameCalculus(fix_b(b=5.0)),
                          identity_metric(2, 4))
        z = np.array([0.05 - 0.06j, -0.075j])
        v = np.array([-0.27 - 0.64j, 0.52 - 0.93j])
        assert np.isfinite(integrate_geodesic(lab.packed, z, v, 2)).all()
        assert self.exits(lab.packed, z, v, 2) == 0.25

    def test_doubled_row_after_non_finite_endpoint_never_exits(self, lab_b):
        # the one-step endpoint overflows, so the two-step run, which would
        # leave the radius at t = 0.5, is never made
        zs, vs = np.zeros((2, 2), complex), np.array([[0.0, 5e62], V_OFF])
        with np.errstate(all="ignore"):
            with pytest.raises(TrustRadiusExit) as err:
                integrate_geodesic(lab_b.packed, zs[0], vs[0], 2)
            assert err.value.time == 0.5
            ends, counts, converged = integrate_geodesic_checked(
                lab_b.packed, zs, vs, steps=1)
        assert not np.isfinite(ends[0]).all()
        assert counts[0] == 1 and not converged[0]
        end, k, ok = per_scale_checked(lab_b.packed, zs[1], vs[1], 1)
        assert np.array_equal(ends[1], end)
        assert counts[1] == k and converged[1] == ok

    def test_nan_row_not_doubled(self, lab_b):
        zs = np.array([Z_OFF, Z_OFF / 4])
        vs = np.array([[np.nan, 0], V_OFF / 4])
        ends, counts, converged = integrate_geodesic_checked(
            lab_b.packed, zs, vs, steps=64)
        assert np.isnan(ends[0]).all() and counts[0] == 64 and not converged[0]
        end, k, ok = per_scale_checked(lab_b.packed, zs[1], vs[1], 64)
        assert np.array_equal(ends[1], end)
        assert counts[1] == k and converged[1] == ok


class TestIntegrator:
    def test_reversibility(self, lab_b):
        z = np.array([0.02 + 0.01j, -0.01 + 0.02j])
        v = np.array([0.04 - 0.01j, 0.03j])
        end, vel = rk4_states(lab_b.packed, z, v, 512)
        back = integrate_geodesic(lab_b.packed, end, -vel, steps=512)
        assert np.abs(back - z).max() < 1e-10

    def test_order_four_convergence(self, lab_b):
        ratio = integrator_convergence_ratio(
            lab_b, np.array([0.05 + 0.03j, -0.04j]),
            np.array([0.12 - 0.02j, 0.1 + 0.05j]), coarse=4, reference=512)
        assert 16 * 0.8 <= ratio <= 16 * 1.2

    def test_noise_floor_guard(self, lab_flat):
        from acgeom.jets import JetError
        with pytest.raises(JetError):
            integrator_convergence_ratio(lab_flat, [0.01, 0.0], [0.02, 0.0])

    def test_trust_radius_guard(self, lab_b):
        with pytest.raises(TrustRadiusExit):
            integrate_geodesic(lab_b.packed, [0.19, 0.0], [0.5, 0.0], steps=64)
        assert issubclass(TrustRadiusExit, JetError)

    def test_trust_radius_guard_batched(self, lab_b):
        with pytest.raises(TrustRadiusExit):
            integrate_geodesic(lab_b.packed, [[0.0, 0.0], [0.19, 0.0]],
                               [[0.01, 0.0], [0.5, 0.0]], steps=64)

    @pytest.mark.parametrize("lab", ["lab_flat", "lab_b"])
    def test_nan_row_hides_no_exit(self, lab, request):
        # a NaN state is never outside the radius, and must not mask the
        # exit of another state of its batch
        packed = request.getfixturevalue(lab).packed
        zs = np.zeros((2, 2), complex)
        vs = np.array([[1.0, 0.0], [np.nan, 0.0]], complex)
        with pytest.raises(TrustRadiusExit) as alone:
            integrate_geodesic(packed, zs[0], vs[0], 64)
        assert alone.value.time == 13 / 64
        with pytest.raises(TrustRadiusExit) as batch:
            integrate_geodesic(packed, zs, vs, 64)
        assert batch.value.time == alone.value.time
        with pytest.raises(TrustRadiusExit) as checked:
            integrate_geodesic_checked(packed, zs, vs, steps=64)
        assert checked.value.time == alone.value.time

    def test_endpoint_drift_below_machine_scale(self, lab_b):
        # endpoint is stable under step doubling at 1e-12 (Richardson check)
        from acgeom.geodesic import integrate_geodesic_checked
        z = np.array([0.02 + 0.01j, -0.015j])
        v = np.array([0.03, 0.02 + 0.01j])
        a = integrate_geodesic(lab_b.packed, z, v, steps=256)
        b, steps, converged = integrate_geodesic_checked(lab_b.packed, z, v,
                                                         steps=256)
        assert np.abs(a - b).max() < 1e-12
        assert converged and steps == 512


class TestErrorScaling:
    def test_fix_b_cubic_at_origin(self, lab_b):
        out = error_scaling_probe(lab_b, [0.0, 0.0], [0.04, 0.02],
                                  SCALE_LADDER, 256)
        assert not out["exact"]
        assert out["slope"] >= 2.8

    def test_fix_b_away_from_origin(self, lab_b):
        out = error_scaling_probe(lab_b, [0.02, 0.01], [0.04, 0.02],
                                  SCALE_LADDER, 256)
        assert out["slope"] >= 2.8

    def test_refined_slope_reported_not_gated(self, lab_b2):
        # torsion vanishing at the origin only: still generic cubic scaling
        # (the quadratic structure jets feed back through the moving point);
        # gate at the generic error bound and report the measured slope
        out = error_scaling_probe(lab_b2, [0.0, 0.0], [0.04, 0.02],
                                  SCALE_LADDER, 256)
        assert out["slope"] >= 2.8

    def test_refined_slope_with_vanishing_torsion_one_jet(self):
        lab = GeodesicLab(FrameCalculus(fix_b3()), identity_metric(2, 4))
        out = error_scaling_probe(lab, [0.0, 0.0], [0.04, 0.02],
                                  SCALE_LADDER, 256)
        assert out["slope"] >= 3.8

    def test_with_metric_after_antisymmetrization(self):
        lin = np.zeros((2, 2, 2), dtype=complex)
        lin[0, 1, 0] = 0.15
        lin[1, 0, 1] = -0.08 + 0.03j
        calc = FrameCalculus(fix_b())
        hd = metric_from_families(2, 4, lin=lin)
        fixed = antisymmetrize_metric_linear(calc, hd, n_order=3)
        calc2 = FrameCalculus(fixed.structure)
        lab = GeodesicLab(calc2, fixed.metric)
        out = error_scaling_probe(lab, [0.015, -0.01], [0.03, 0.02],
                                  SCALE_LADDER, 256)
        assert out["slope"] >= 2.8

    def test_one_scale_above_noise_floor_is_not_exact(self, lab_b):
        out = error_scaling_probe(lab_b, [0.0, 0.0], [0.04, 0.02],
                                  scales=(1.0, 1e-4), steps=64)
        assert out["rows"][0]["error"] > NOISE_FLOOR
        assert out["rows"][1]["error"] <= NOISE_FLOOR
        assert out["finite"] and not out["exact"] and out["slope"] is None


class TestQuadraticConsistency:
    def test_exp_quadratic_equals_connection_action(self, lab_b):
        # the v-quadratic part of the endpoint is -(1/2) the order-one
        # connection matrix applied to v (x) v, coefficient for coefficient
        from acgeom.chern import connection_matrix_coordinate
        a_z = connection_matrix_coordinate(lab_b.calc, lab_b.conn)
        n = 2
        z = np.array([0.02 + 0.005j, 0.01 - 0.01j])
        a_vals = np.zeros((2 * n, 2 * n, 2 * n), dtype=complex)
        for a in range(2 * n):
            for i in range(2 * n):
                for j in range(2 * n):
                    a_vals[a, i, j] = a_z[a][i, j].truncated(1).eval(z)
        rng = np.random.default_rng(9)
        for _ in range(4):
            v = 0.03 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            vf = np.concatenate([v, np.conj(v)])
            gdd = np.zeros(2 * n, dtype=complex)
            for a in range(2 * n):
                gdd -= a_vals[a] @ vf * vf[a]
            quad = exp_asymptotic(lab_b.coeffs, z, v) - z - v
            assert np.abs(quad - 0.5 * gdd[:n]).max() < 1e-11

    def test_exp_quadratic_with_metric_families(self):
        # quadratic metric families only: the linear ones are removed by the
        # refined normalization in this regime, and with them the
        # off-diagonal metric-structure cross terms the closed forms omit
        from acgeom.chern import connection_matrix_coordinate
        calc = FrameCalculus(random_b_normal(77))
        rng = np.random.default_rng(78)
        qm = 0.1 * (rng.normal(size=(2, 2, 2, 2))
                    + 1j * rng.normal(size=(2, 2, 2, 2)))
        hd = metric_from_families(2, 4, quad_mixed=qm)
        lab = GeodesicLab(calc, hd)
        a_z = connection_matrix_coordinate(calc, lab.conn)
        n = 2
        z = np.array([0.015 - 0.01j, -0.02j])
        a_vals = np.zeros((2 * n, 2 * n, 2 * n), dtype=complex)
        for a in range(2 * n):
            for i in range(2 * n):
                for j in range(2 * n):
                    a_vals[a, i, j] = a_z[a][i, j].truncated(1).eval(z)
        v = np.array([0.02 + 0.01j, -0.015 + 0.005j])
        vf = np.concatenate([v, np.conj(v)])
        gdd = np.zeros(2 * n, dtype=complex)
        for a in range(2 * n):
            gdd -= a_vals[a] @ vf * vf[a]
        quad = exp_asymptotic(lab.coeffs, z, v) - z - v
        assert np.abs(quad - 0.5 * gdd[:2]).max() < 1e-11


MANIFESTS = os.path.join(os.path.dirname(__file__), "..", "manifests")


class TestGeodesicCommandInputs:
    @pytest.fixture(scope="class")
    def spec(self):
        with open(os.path.join(MANIFESTS, "fix_b.json"), encoding="utf-8") as fh:
            return parse_manifold_spec(fh.read(), name="fix_b.json")

    def fail_row(self, spec, **opts):
        report, payload = run_command("geodesic", spec, Options(**opts))
        assert not report.passed
        assert len(report.rows) == 1 and payload == {}
        return report.rows[0].check

    @pytest.mark.parametrize("text", ["nan,0,0,0", "0,inf,0,0"])
    def test_non_finite_vector(self, spec, text):
        assert self.fail_row(spec, v=text).startswith("error: --v: ")
        assert self.fail_row(spec, z=text).startswith("error: --z: ")

    def test_trust_radius_exit_is_a_fail_row(self, spec):
        check = self.fail_row(spec, v="1,0,1,0")
        assert check.startswith("error: geodesic left |z| <= 0.2")

    @pytest.mark.parametrize("steps", [0, -4])
    def test_non_positive_steps(self, spec, steps):
        assert self.fail_row(spec, steps=steps).startswith("error: --steps: ")

    @pytest.mark.parametrize("scales", ["1,0", "1,-0.5", "1,nan", "1,x",
                                        "1", "1,1"])
    def test_bad_scales(self, spec, scales):
        check = self.fail_row(spec, scales=scales)
        assert check.startswith("error: --scales: ")

    def test_one_scale_above_noise_floor_fails(self, spec):
        report, _ = run_command("geodesic", spec, Options(scales="1,0.0001"))
        assert not report.passed
        assert report.rows[-1].check.startswith("too few scales above")
