"""NaN never passes: non-finite residuals reach the report and fail there.

The builtin ``max`` drops a NaN that does not come first
(``max(0.0, nan) == 0.0``), so every residual reduction behind a report row
must propagate it.  Most germs below come from one spec: the ``fix_b``
structure at N = 3 with the metric entry 1e200 z_1 at (1, 2).  Its curvature
and connection overflow to NaN, while its J^2 residual stays finite.  Its
metric is finite through degree 2, so the normal-form metric expansion is a
real comparison there; that reducer is tested on a metric holding a NaN.
"""

import json
import math

import pytest

from acgeom import chern
from acgeom.cli import Options, SpecError, parse_manifold_spec, run_command
from acgeom.forms import FrameCalculus, fundamental_identities_check
from acgeom.jets import Jet, JetError, JetMatrix
from acgeom.normal import pattern_violation, torsion_jet_normal
from acgeom.structure import (AlmostComplexStructure, ValidationReport, nijenhuis_check,
                              torsion_tensor)

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
