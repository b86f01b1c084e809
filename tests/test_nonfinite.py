"""NaN never passes: non-finite residuals reach the report and fail there.

The builtin ``max`` drops a NaN that does not come first
(``max(0.0, nan) == 0.0``), so every residual reduction behind a report row
must propagate it.  Most germs below come from one spec: the ``fix_b``
structure at N = 3 with the metric entry 1e200 z_1 at (1, 2).  Its curvature
and connection overflow to NaN, while its J^2 residual stays finite.  Its
metric is finite through degree 2, so the normal-form metric expansion is a
real comparison there; that reducer is tested on a metric holding a NaN.
"""

import dataclasses
import json
import math

import pytest

from acgeom import chern
from acgeom.cli import Options, SpecError, parse_manifold_spec, run_command
from acgeom.forms import FrameCalculus, PQForm, fundamental_identities_check
from acgeom.jets import (Jet, JetError, JetMatrix, SingularMatrixError, Substitution,
                         series_inverse)
from acgeom.normal import normalize_to_order, pattern_violation, torsion_jet_normal
from acgeom.structure import (AlmostComplexStructure, ValidationReport, adapt_linear,
                              nijenhuis_check, torsion_tensor, transform_structure)

from germs import fix_b

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

NAN_METRIC_SPEC = json.dumps({
    "n": 2, "order": 3,
    "structure": {"kind": "B-normal", "entries": [
        {"alpha": [0, 1], "beta": [0, 0], "k": 1, "l": 1, "re": 0.3, "im": 0.1}]},
    "metric": {"entries": [
        {"alpha": [1, 0], "beta": [0, 0], "k": 1, "l": 2, "re": 1e200, "im": 0}]}})

# B = 1e160 z_2 E11: the closed-form A overflows, so both J^2 residuals are NaN
NAN_J2_SPEC = json.dumps({
    "n": 2, "order": 4,
    "structure": {"kind": "B-normal", "entries": [
        {"alpha": [0, 1], "beta": [0, 0], "k": 1, "l": 1, "re": 1e160, "im": 0.1}]}})


def _nan_coefficient(jet, alpha, beta):
    """``jet`` plus a NaN coefficient at z^alpha zbar^beta."""
    return jet + Jet(jet.n, jet.order, {(alpha, beta): complex(math.nan, 0)})


def _nan_metric(n, order):
    """Identity metric whose (1, 2) entry carries a NaN z_1 coefficient."""
    h = JetMatrix.identity(n, n, order)
    h.entries[0][1] = _nan_coefficient(h[0, 1], (1, 0), (0, 0))
    return chern.HermitianData(h, check=False)


class TestNanJ2Residual:
    def test_rejected_at_parse(self):
        with pytest.raises(SpecError) as err:
            parse_manifold_spec(NAN_J2_SPEC, name="nan-j2")
        assert err.value.path == "$.structure"

    @pytest.mark.parametrize("square, mixed", [(math.nan, 0.0), (0.0, math.nan)])
    def test_max_residual_propagates(self, square, mixed):
        assert math.isnan(ValidationReport(square, mixed, 4).max_residual)


@pytest.mark.parametrize("command, check", [
    ("curvature", "hermitian symmetry of C(0)"),
    ("curvature", "pointwise curvature expression"),
    ("curvature", "hermitian compatibility of the connection"),
    ("decompose", "connection decomposition residual"),
    ("decompose", "torsion formula residual"),
    ("decompose", "delta = 0 iff d omega = 0"),
    ("decompose", "N = 0 iff torsion = 0"),
])
def test_row_fails_on_overflowing_metric(command, check):
    ms = parse_manifold_spec(NAN_METRIC_SPEC, name="nan-metric")
    report, _ = run_command(command, ms, Options())
    row = next(r for r in report.rows if r.check == check)
    assert math.isnan(row.residual) and not row.passed


def test_hermitian_check_rejects_nan_metric():
    # h_{1,2} - conj-jet of h_{2,1} is NaN z_1, and the check must see it
    h = JetMatrix.identity(2, 2, 3)
    h.entries[0][1] = _nan_coefficient(h[0, 1], (1, 0), (0, 0))
    h.entries[1][0] = _nan_coefficient(h[1, 0], (0, 0), (1, 0))
    with pytest.raises(JetError, match="not hermitian"):
        chern.HermitianData(h)


def test_metric_expansion_propagates_nan():
    calc = FrameCalculus(fix_b(order=3))
    assert math.isnan(chern.metric_coordinate_residual(calc, _nan_metric(2, 3)))


def test_gamma02_propagates_nan():
    calc = FrameCalculus(fix_b(order=3))
    dec = chern.ChernLeviCivita(calc, _nan_metric(2, 3))
    assert math.isnan(dec.gamma02_max())


def _nan_b_structure():
    """fix_b with a NaN B coefficient where the normal form demands zero."""
    s = fix_b(order=3)
    b = JetMatrix([row[:] for row in s.B.entries])
    b.entries[0][1] = _nan_coefficient(b[0, 1], (1, 0), (0, 0))
    return AlmostComplexStructure(s.A, b)


def test_pattern_violation_propagates_nan():
    assert math.isnan(pattern_violation(_nan_b_structure()))


def _identity_metric():
    return chern.HermitianData(JetMatrix.identity(2, 2, 3))


@pytest.mark.parametrize("guarded", [
    lambda s: chern.curvature_origin_formula(_identity_metric(), s),
    lambda s: chern.connection_asymptotics(FrameCalculus(s), _identity_metric()),
    torsion_jet_normal,
], ids=["curvature_origin_formula", "connection_asymptotics", "torsion_jet_normal"])
def test_normal_form_guard_rejects_nan_violation(guarded):
    with pytest.raises(JetError, match="normal"):
        guarded(_nan_b_structure())


def test_nijenhuis_check_propagates_nan():
    s = _nan_b_structure()
    assert math.isnan(nijenhuis_check(s, torsion_tensor(s)))


def test_identities_propagate_nan():
    calc = FrameCalculus(fix_b(order=3))
    function = calc.monomial_forms(2)[0]       # the (0, 0)-form 1
    u = function * _nan_coefficient(Jet.one(2, 3), (1, 0), (0, 0))
    table = fundamental_identities_check(calc, [function, u])
    assert all(math.isnan(row["max_residual"]) for row in table[:3])


def test_series_inverse_refuses_nan():
    # phi = (z_1, z_2 + NaN z_1^2): the first residual of the Newton step is
    # exactly 0, and the NaN of the second must not stop the iteration with
    # the finite linear inverse; the next step's substitution refuses it
    z1, z2 = Jet.variable(2, 3, 0), Jet.variable(2, 3, 1)
    with pytest.raises(JetError, match="constant term"):
        series_inverse([z1, _nan_coefficient(z2, (2, 0), (0, 0))])


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("component, alpha, beta", [
    (0, (1, 0), (0, 0)),        # the diagonal z slot
    (0, (0, 1), (0, 0)),        # an off-diagonal z slot
    (1, (0, 0), (0, 1)),        # the diagonal zbar slot
    (1, (0, 0), (1, 0)),        # an off-diagonal zbar slot
], ids=["z-diagonal", "z-off-diagonal", "zbar-diagonal", "zbar-off-diagonal"])
def test_series_inverse_names_a_non_finite_linear_part(component, alpha, beta, value):
    # a NaN on the diagonal is not "singular", and a NaN or inf elsewhere
    # must not surface as a non-finite constant term of a substitution
    z = [Jet.variable(2, 3, 0), Jet.variable(2, 3, 1)]
    z[component] = z[component] + Jet(2, 3, {(alpha, beta): complex(value, 0)})
    with pytest.raises(SingularMatrixError, match="linear part is not finite"):
        series_inverse(z)


def test_nan_germ_is_refused_through_its_chart_changes():
    # a NaN degree-1 coefficient of B reaches the first stage's change; the
    # identity start takes phi - z without a compose, and the Newton steps
    # after it still refuse the NaN
    s = fix_b(order=3)
    b = JetMatrix([row[:] for row in s.B.entries])
    b.entries[0][0] = _nan_coefficient(b[0, 0], (1, 0), (0, 0))
    with pytest.raises(JetError, match="non-finite constant term"):
        normalize_to_order(AlmostComplexStructure(s.A, b), 3)
    z1, z2 = Jet.variable(2, 4, 0), Jet.variable(2, 4, 1)
    with pytest.raises(JetError, match="non-finite constant term"):
        transform_structure(s, [z1, _nan_coefficient(z2, (1, 0), (1, 0))])


@pytest.mark.parametrize("c, named", [(math.nan, "non-finite"), (math.inf, "non-finite"),
                                      (1e-3, "nonzero")])
def test_substitution_names_a_non_finite_constant(c, named):
    # a NaN or inf constant term is not "nonzero": the message names it
    z1, z2 = Jet.variable(2, 3, 0), Jet.variable(2, 3, 1)
    with pytest.raises(JetError, match=f"z_1 has a {named} constant term"):
        Substitution([z1, z2 + c])


def _nan_zbar_structure():
    """fix_b with a NaN zbar_1 coefficient of B_{2,2}, which reaches the
    (0,1)-connection form at the origin."""
    s = fix_b(order=3)
    b = JetMatrix([row[:] for row in s.B.entries])
    b.entries[1][1] = _nan_coefficient(b[1, 1], (0, 0), (1, 0))
    return AlmostComplexStructure(s.A, b)


def test_special_frame_propagates_nan():
    sf = chern.special_frame(FrameCalculus(_nan_zbar_structure()), _identity_metric())
    assert math.isnan(sf.a_second_origin) and math.isnan(sf.del_a_second_origin)


def test_almost_holomorphic_identities_propagate_nan():
    # a NaN z_2 zbar_2 coefficient of h_{2,2} reaches both displays at the
    # origin, after finite residuals
    calc = FrameCalculus(fix_b(order=3))
    hd = _identity_metric()
    sf = chern.special_frame(calc, hd)
    h = JetMatrix([row[:] for row in sf.h.entries])
    h.entries[1][1] = _nan_coefficient(h[1, 1], (0, 1), (0, 1))
    out = chern.almost_holomorphic_identities(calc, hd, dataclasses.replace(sf, h=h))
    assert math.isnan(out["pairing_residual"]) and math.isnan(out["psh_residual"])


def test_pointwise_curvature_gate_passes_nan_on():
    # A''(0) holds 1e-3 and, later in the scan, NaN: the gate must not read
    # 1e-3 and skip the check, but hand the NaN on to a NaN residual
    calc = FrameCalculus(fix_b(order=3))
    hd = _identity_metric()
    nan = Jet(2, 3, {(alpha, beta): complex(math.nan, 0) for alpha, beta in
                     [((0, 0), (0, 0)), ((1, 0), (0, 0)), ((0, 0), (1, 0))]})
    entries = {(0, 0): Jet.one(2, 3) * 1e-3, (1, 1): nan}
    asecond = chern.MatrixForm([[PQForm(calc, 0, 1, {((), (0,)): entries[k, l]}
                                        if (k, l) in entries else {})
                                 for l in range(2)] for k in range(2)])
    conn = dataclasses.replace(chern.chern_connection(calc, hd), asecond=asecond)
    blocks = chern.curvature(calc, conn)
    assert math.isnan(chern.pointwise_curvature_residual(calc, hd, conn, blocks))


def _nan_constant(jet):
    """``jet`` plus a NaN constant term."""
    return _nan_coefficient(jet, (0,) * jet.n, (0,) * jet.n)


class TestGuardsRefuseNan:
    """A guard written ``x > tol`` lets a NaN through; each guard below must
    refuse it with a ``JetError`` naming its own check."""

    def test_inverse_of_nan_constant_term(self):
        m = JetMatrix.identity(2, 2, 3)
        m.entries[0][1] = _nan_constant(m[0, 1])
        with pytest.raises(SingularMatrixError, match="not finite"):
            m.inverse()

    def test_adapt_linear_on_nan_constant_term(self):
        s = fix_b(order=3)
        b = JetMatrix([row[:] for row in s.B.entries])
        b.entries[0][1] = _nan_constant(b[0, 1])
        with pytest.raises(JetError, match="square to -identity"):
            adapt_linear(AlmostComplexStructure(s.A, b))

    def test_levi_civita_on_nan_metric_constant(self):
        h = JetMatrix.identity(2, 2, 3)
        h.entries[0][1] = _nan_constant(h[0, 1])
        calc = FrameCalculus(fix_b(order=3))
        with pytest.raises(JetError, match="not symmetric"):
            chern.LeviCivita(calc, chern.HermitianData(h, check=False))

    def test_symplectic_normalize_on_nan_linear_family(self):
        calc = FrameCalculus(fix_b(order=3))
        with pytest.raises(JetError, match="not symplectic"):
            chern.symplectic_normalize(calc, _nan_metric(2, 3))
