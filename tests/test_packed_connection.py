"""The RK4 oracle's connection kernel, ``geodesic.PackedConnection``: one
chain of factors per term, against a power-table evaluator
(``germs.PowerTableConnection``).  Random connections of degree 0-5 in
n = 1, 2, 3 variables, with signed-zero parts in coefficients and states,
give the oracle's action to rounding, and a state has the same bits in
every batch of two or more states; the buffered RK4 loop gives the bits
and exits of one that makes a new array per rate
(``germs.rk4_steps_reference``); overflowing velocities on two shipped
manifests end as the oracle's runs end.  A count pin holds the number of
kernel calls of each shipped manifest's ``geodesic`` run."""

import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from acgeom import geodesic
from acgeom.chern import connection_matrix_coordinate
from acgeom.cli import Options, build_metric, parse_manifold_spec, run_command
from acgeom.forms import FrameCalculus
from acgeom.geodesic import (GeodesicLab, PackedConnection, TrustRadiusExit,
                             integrate_geodesic_checked)
from acgeom.jets import Jet, JetMatrix

from germs import PowerTableConnection, packed_states, rk4_steps_reference

MANIFESTS = os.path.join(os.path.dirname(__file__), "..", "manifests")
ORDER = 5


def _spec(name):
    with open(os.path.join(MANIFESTS, name), encoding="utf-8") as fh:
        return parse_manifold_spec(fh.read(), name=name)


def _part(rng):
    """A normal draw, or 0.0 or -0.0 one time in eight each."""
    pick = int(rng.integers(0, 8))
    return (0.0, -0.0)[pick] if pick < 2 else float(rng.normal())


def _complex(rng, shape):
    return np.array([complex(_part(rng), _part(rng))
                     for _ in range(int(np.prod(shape)))]).reshape(shape)


def _connection(rng, n, degree):
    """2n matrices 2n x 2n of jets in n variables with terms of degree
    0..``degree``; about a third of the entries hold terms."""
    def entry():
        terms = {}
        if rng.integers(0, 3) == 0:
            for _ in range(int(rng.integers(1, 4))):
                exps = [0] * (2 * n)
                for _ in range(int(rng.integers(0, degree + 1))):
                    exps[int(rng.integers(0, 2 * n))] += 1
                terms[tuple(exps[:n]), tuple(exps[n:])] = complex(_part(rng), _part(rng))
        return Jet(n, ORDER, terms)
    return [JetMatrix([[entry() for _ in range(2 * n)] for _ in range(2 * n)])
            for _ in range(2 * n)]


def _packed(n, a_z):
    """``PackedConnection`` built on the coordinate matrices ``a_z``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geodesic, "connection_matrix_coordinate", lambda calc, conn: a_z)
        return PackedConnection(SimpleNamespace(n=n), None)


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(st.integers(0, 2 ** 16), st.sampled_from([1, 2, 3]), st.integers(0, 5),
       st.integers(2, 4))
def test_action_matches_the_power_table(seed, n, degree, batch):
    rng = np.random.default_rng(seed)
    a_z = _connection(rng, n, degree)
    packed, oracle = _packed(n, a_z), PowerTableConnection(n, a_z)
    gamma, gdot = 0.3 * _complex(rng, (batch, n)), _complex(rng, (batch, n))
    got = packed.action(gamma, gdot)
    y = np.concatenate([gamma, gdot], axis=-1)
    vals, scatter = oracle.terms(packed_states(y), 2 * n)
    # each entry within 1e-15 of the sum of the magnitudes of its terms
    assert (np.abs(got - vals @ scatter) <= 1e-15 * (np.abs(vals) @ np.abs(scatter))).all()
    assert packed.flat == oracle.flat
    # a state has the bits of the batch of it twice, for the action and the
    # RK4 acceleration.  One state alone is summed by BLAS's vector kernel,
    # which may round, and sign zeros, otherwise: the scatter matmul's, not
    # the chains'
    acc = packed.evaluate(packed_states(y), n)
    for s in range(batch):
        twice = np.stack([y[s], y[s]])
        assert got[s].tobytes() == packed.action(twice[:, :n], twice[:, n:])[1].tobytes()
        assert acc[s].tobytes() == packed.evaluate(packed_states(twice), n)[1].tobytes()


def _steps_or_exit(run, *args):
    """The states after an RK4 run as bytes, or its exit time."""
    try:
        with np.errstate(all="ignore"):
            return run(*args).tobytes()
    except TrustRadiusExit as exc:
        return exc.time


@settings(derandomize=True, database=None, max_examples=80, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(st.integers(0, 2 ** 16), st.sampled_from([1, 2, 3]), st.integers(0, 5),
       st.integers(1, 8), st.booleans())
def test_rk4_steps_have_the_reference_bits(seed, n, degree, batch, per_state):
    # the buffered loop against the one that allocates every rate and stage
    # state: equal bytes at the end, or the exit at the same step.  Of the
    # 80 runs 33 exit within their 8 steps and 21 end with inf or NaN
    # states, where a speed of 1e160 overflows
    rng = np.random.default_rng(seed)
    packed = _packed(n, _connection(rng, n, degree))
    speed = rng.choice([0.02, 0.2, 2.0, 1e160])
    y = np.concatenate([0.05 * _complex(rng, (batch, n)), speed * _complex(rng, (batch, n))],
                       axis=1)
    h = rng.choice([0.125, 0.0625], size=(batch, 1)) if per_state else 0.125
    args = (packed, y, h, range(8), 0.125)
    assert _steps_or_exit(geodesic._rk4_steps, *args) == _steps_or_exit(rk4_steps_reference, *args)


def _outcome(packed, zs, vs, steps):
    """The exit time of ``integrate_geodesic_checked``, or which endpoint
    parts are finite and which NaN, with the step counts and verdicts."""
    try:
        with np.errstate(all="ignore"):
            ends, counts, converged = integrate_geodesic_checked(packed, zs, vs, steps)
    except TrustRadiusExit as exc:
        return "exit", exc.time
    return ("end", np.isfinite(ends).tolist(), np.isnan(ends).tolist(),
            counts.tolist(), converged.tolist())


@pytest.fixture(scope="module", params=["fix_b.json", "j0_symplectic.json"])
def shipped(request):
    """The packed connection of a shipped manifest (``j0_symplectic``'s has
    terms up to degree 4) and its power-table oracle."""
    ms = _spec(request.param)
    calc = FrameCalculus(ms.structure)
    lab = GeodesicLab(calc, build_metric(ms))
    return lab.packed, PowerTableConnection(calc.n, connection_matrix_coordinate(calc, lab.conn))


@pytest.mark.parametrize("v", [[0, 5e62], [0, 5e62j], [5e62, 0], [5e62j, 0], [5e62, 5e62]])
@pytest.mark.parametrize("z", [[0, 0], [0.1, 0.05j]])
@pytest.mark.parametrize("steps", [1, 2, 64])
def test_overflowing_velocity_ends_as_the_oracle_does(shipped, z, v, steps):
    # a second, ordinary state rides in the batch
    zs = np.array([z, [0.01, 0.0]], complex)
    vs = np.array([v, [0.04, 0.02]], complex)
    packed, oracle = shipped
    assert _outcome(packed, zs, vs, steps) == _outcome(oracle, zs, vs, steps)


# kernel calls (one per RK4 rate) of one ``geodesic`` run with its defaults,
# and the states they rate: the runs of 256 and 512 steps on the 4 scales
# share their first 256 steps as one batch of 8 states, the last 256 steps
# rate the 4 doubled states, and every endpoint settles there; a flat
# connection and a failed run rate nothing
@pytest.mark.parametrize("name, calls, states", [
    ("fix_b.json", 2048, 12288), ("fix_b2.json", 2048, 12288),
    ("j0_symplectic.json", 2048, 12288), ("fix_j0.json", 0, 0),
    ("deformation_n2.json", 0, 0)])
def test_rate_calls_per_geodesic_run(monkeypatch, name, calls, states):
    evaluate, seen = PackedConnection.evaluate, []

    def counting(self, u, nrows):
        seen.append(len(u))
        return evaluate(self, u, nrows)
    monkeypatch.setattr(PackedConnection, "evaluate", counting)
    run_command("geodesic", _spec(name), Options())
    assert (len(seen), sum(seen)) == (calls, states)
