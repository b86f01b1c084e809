"""Geodesic flow of the hermitian tangent connection.

Two routes to the endpoint exp_z(v): the second-order normal asymptotic
expansion assembled from closed-form coefficient families, and a classical
fourth-order Runge-Kutta integration of the full jet connection, which
serves as the independent oracle.  A scaling probe fits the error exponent
between the two.

The oracle integrates the whole scale ladder of the probe as one batch: RK4
runs on an (S, 2n) array of states (gamma, gamma-dot) and exits at the first
step that starts with a state outside the trust radius.  The first step
doubling makes its first s steps in the same batch as the undoubled run, and
makes the two runs one after the other when a state leaves the radius there.
Each later doubling re-runs only the scales whose endpoint has not settled.
The connection is evaluated on the packed state from tables precomputed once
per germ (``PackedConnection``), the same ones for the RK4 rate, the
acceleration and the reality check of its conjugate block: each term of
-(A_z(v) v) is one chain of factors of the state, so a rate is one gather,
one product along the chains and one matmul.
"""

from __future__ import annotations

import numpy as np

from .chern import (AsymptoticCoefficients, ConnectionForms, HermitianData,
                    chern_connection, connection_asymptotics,
                    connection_matrix_coordinate)
from .forms import FrameCalculus
from .jets import JetError

TRUST_RADIUS = 0.2      # |z| beyond which the jet data is not trusted
SETTLE_TOL = 1e-12      # endpoint drift under one doubling that counts as settled
MAX_DOUBLINGS = 4       # step doublings before an endpoint counts as unsettled


class TrustRadiusExit(JetError):
    """Trajectory left the region where the jet data is trusted."""

    def __init__(self, time):
        super().__init__(f"geodesic left |z| <= {TRUST_RADIUS} at t = {time:.4f}")
        self.time = time


class PackedConnection:
    """Coordinate connection matrix flattened for fast pointwise evaluation.

    Every monomial c z^alpha zbar^beta of every entry A_z[a][i, j] is one
    term of -(A_z(v) v), and a term is one chain of factors: its positions
    in u = (gamma, gdot, conj gamma, conj gdot, 1), z_k repeated alpha_k
    times for each k, then zbar_k repeated beta_k times, then the velocity
    components v_a and v_j.  Each chain is left-padded with the position of
    the constant 1 up to one common width, at least 1 so that a flat
    connection (no terms) builds too.  With the chains, the coefficients and
    a dense row-scatter matrix carrying the minus sign, built once, the
    action on a batch of states is one gather, one product along the chains
    and one matmul.
    """

    def __init__(self, calc: FrameCalculus, conn: ConnectionForms):
        a_z = connection_matrix_coordinate(calc, conn)
        n = self.n = calc.n
        var = [*range(n), *range(2 * n, 3 * n)]    # z_k, zbar_k in u
        vel = [p + n for p in var]                  # v = (gdot, conj gdot)
        terms = []
        for a, mat in enumerate(a_z):
            for i in range(2 * n):
                for j in range(2 * n):
                    for (alpha, beta), c in mat[i, j].terms.items():
                        chain = [p for p, e in zip(var, alpha + beta)
                                 for _ in range(e)] + [vel[a], vel[j]]
                        terms.append((i, chain, c))
        terms.sort(key=lambda t: t[0])          # stable: first block first
        width = max((len(t[1]) for t in terms), default=1)
        one = 4 * n                             # the constant 1 in u
        gather = np.array([[one] * (width - len(chain)) + chain
                           for _, chain, _ in terms], dtype=np.intp)
        gather = gather.reshape(len(terms), width).T    # (width, terms)
        rows = np.array([t[0] for t in terms], dtype=np.intp)
        coeffs = np.array([t[2] for t in terms], dtype=complex)
        scatter = np.zeros((len(terms), 2 * n), dtype=complex)
        scatter[np.arange(len(terms)), rows] = -1.0
        first = int(np.count_nonzero(rows < n))
        self.flat = not terms
        self.tables = {
            n: (coeffs[:first], np.ascontiguousarray(gather[:, :first]),
                np.ascontiguousarray(scatter[:first, :n])),
            2 * n: (coeffs, np.ascontiguousarray(gather), scatter),
        }

    def _evaluate(self, y, nrows):
        """The first ``nrows`` rows of -(A_z(v) v) at the states y = (gamma,
        gdot), (2n,) or (S, 2n).  A term is the product of its chain from
        the left with the coefficient multiplied into the first factor,
        (((c 1) ... f_0) f_1) ... v_a) v_j, and the scatter sums the terms.

        The coefficient comes first, where it scales every partial product:
        multiplied in last, a state whose terms overflow (|v| near 1e62 on
        fix_b) reaches inf before a zero velocity factor and ends in NaN
        instead of its trust-radius exit.  It stays out of the scatter,
        whose entries of +-1 and 0 keep every product of the matmul exact,
        whatever kernel BLAS picks for the batch's shape."""
        coeffs, gather, scatter = self.tables[nrows]
        u = np.concatenate([y, y.conj(), np.ones_like(y[..., :1])], axis=-1)
        f = u.take(gather, axis=-1)             # (..., width, terms)
        f[..., 0, :] *= coeffs
        return np.multiply.reduce(f, axis=-2) @ scatter

    def rate(self, y):
        """(gamma-dot, gamma-ddot) at the states y = (gamma, gamma-dot)."""
        return np.concatenate([y[..., self.n:], self._evaluate(y, self.n)],
                              axis=-1)

    def action(self, gamma, gdot, nrows=None):
        """-(A_z(v) v) at z = gamma, v = (gdot, conj gdot): the first block
        for ``nrows`` = n, all 2n rows by default; gamma and gdot are (n,)
        or (S, n)."""
        return self._evaluate(np.concatenate([gamma, gdot], axis=-1),
                              nrows or 2 * self.n)

    def acceleration(self, gamma, gdot):
        """Second derivative of the curve: -(A_z(gdot) gdot) on the first
        block; the conjugate block is determined by reality."""
        return self.action(gamma, gdot, self.n)


def integrate_geodesic(packed: PackedConnection, z, v, steps):
    """Classical RK4 on (gamma, gamma-dot) over [0, 1]; returns the endpoint.

    ``z`` and ``v`` are one state (n,) or a batch (S, n) integrated together;
    the trust-radius check (|z| <= ``TRUST_RADIUS``) covers every state of
    the batch, and a non-finite state hides no other state's exit.  On a
    flat connection the curve is z + t v exactly and no step is taken."""
    n = packed.n
    y = np.concatenate([np.asarray(z, dtype=complex),
                        np.asarray(v, dtype=complex)], axis=-1)
    y = _rk4_sweep(packed, np.atleast_2d(y), steps).reshape(y.shape)
    return y[..., :n]


def _rk4_sweep(packed: PackedConnection, y, steps):
    """RK4 over [0, 1] in ``steps`` steps on the states y (S, 2n); returns
    the endpoint states, or raises the ``TrustRadiusExit`` of the first step
    that starts with a state outside the radius."""
    n = packed.n
    if not packed.flat:
        return _rk4_steps(packed, y, 1.0 / steps, range(steps), 1.0 / steps)
    exit_step = _first_exit(y[:, :n], y[:, n:], steps)
    if exit_step is not None:
        raise TrustRadiusExit(exit_step * (1.0 / steps))
    return np.concatenate([y[:, :n] + y[:, n:], y[:, n:]], axis=1)


def _rk4_steps(packed, y, h, steps, dt):
    """The RK4 steps numbered ``steps`` on the states y with step size h, a
    scalar or one per state (S, 1); returns the states after them.  Before
    each step it raises ``TrustRadiusExit`` at time step * dt if any state
    is outside the radius; a non-finite state is never outside and hides no
    other state's exit."""
    n = packed.n
    half, sixth = 0.5 * h, h / 6
    for step in steps:
        if not np.abs(y[:, :n]).max(initial=0.0) <= TRUST_RADIUS \
                and (np.abs(y[:, :n]) > TRUST_RADIUS).any():
            raise TrustRadiusExit(step * dt)
        k1 = packed.rate(y)
        k2 = packed.rate(y + half * k1)
        k3 = packed.rate(y + half * k2)
        k4 = packed.rate(y + h * k3)
        y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def _first_exit(z, v, steps):
    """First step k < steps at which a straight line z + t v is outside the
    trust radius at t = k / steps, or None.  Each |z_i + t v_i| is convex in
    t, so once inside at t = 0 the steps at which some state is outside
    form one run that ends at the last step, found by bisection.  A NaN
    state is never outside and hides no other state's exit."""
    def outside(k):
        return (np.abs(z + (k / steps) * v) > TRUST_RADIUS).any()

    if outside(0):
        return 0
    lo, hi = 0, steps - 1
    if not outside(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outside(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _first_doubling(packed: PackedConnection, y, steps):
    """The run in ``steps`` steps on the states y (S, 2n), then the run in
    2 * ``steps`` steps on the ``active`` states, those with a finite first
    endpoint; returns ``(ends, active, refined)``.  Both runs make their
    first ``steps`` steps as one batch, each row with its own step size.
    When a state leaves the radius there, or on a flat connection, the runs
    are made one after the other, so the exit raised is always theirs."""
    n = packed.n
    if not packed.flat:
        h = np.repeat([[1.0 / (2 * steps)], [1.0 / steps]], len(y), axis=0)
        try:
            both = _rk4_steps(packed, np.concatenate([y, y]), h, range(steps),
                              1.0 / steps)
        except TrustRadiusExit:
            pass
        else:
            ends = both[len(y):]
            active = np.flatnonzero(np.isfinite(ends[:, :n]).all(axis=1))
            refined = _rk4_steps(packed, both[active], h[active],
                                 range(steps, 2 * steps), 1.0 / (2 * steps))
            return ends, active, refined
    ends = _rk4_sweep(packed, y, steps)
    active = np.flatnonzero(np.isfinite(ends[:, :n]).all(axis=1))
    return ends, active, _rk4_sweep(packed, y[active], 2 * steps)


def integrate_geodesic_checked(packed: PackedConnection, z, v, steps):
    """Integrate, doubling the step count until the endpoint is stable.

    Each state of a batch (S, n) stops doubling on its own once two
    successive endpoints agree within ``SETTLE_TOL``, or after
    ``MAX_DOUBLINGS`` doublings; only the states still unsettled are
    integrated again.  A state whose endpoint is not finite can never settle
    and stops at once.  Results and exits are those of the runs made one
    after the other, the first two shared as ``_first_doubling`` says.
    Returns ``(endpoints, steps, converged)``: the last endpoint of each
    state, the step count it came from and whether it settled, shaped like
    the input (scalars for one state).
    """
    n = packed.n
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    zs = np.atleast_2d(z)
    vs = np.atleast_2d(np.asarray(v, dtype=complex))
    y = np.concatenate([zs, vs], axis=1)
    end, active, refined = _first_doubling(packed, y, steps)
    end, refined = end[:, :n], refined[:, :n]
    counts = np.full(len(zs), steps)
    converged = np.zeros(len(zs), dtype=bool)
    for doubling in range(MAX_DOUBLINGS):
        if not active.size:
            break
        steps *= 2
        if doubling:
            refined = integrate_geodesic(packed, zs[active], vs[active], steps)
        drift = np.abs(refined - end[active]).max(axis=1)
        end[active] = refined
        counts[active] = steps
        converged[active] = drift < SETTLE_TOL
        active = active[np.isfinite(drift) & ~(drift < SETTLE_TOL)]
    if single:
        return end[0], int(counts[0]), bool(converged[0])
    return end, counts, converged


def exp_asymptotic(coeffs: AsymptoticCoefficients, z, v):
    """Second-order endpoint from the closed-form coefficient families.

    Mirrors the displayed expansion (velocity-squared terms through the
    linear coefficients of the connection, plus the conjugate-velocity
    block from the structure jets) and carries the zbar v vbar completion
    term of the off-diagonal block, so the quadratic part agrees with the
    full connection matrix whenever the families do.
    """
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = len(z)
    vb = np.conj(v)
    zb = np.conj(z)
    b1 = coeffs.b_lin
    out = z + v
    for k in range(n):
        acc = 0j
        for p in range(n):
            for l in range(n):
                e_dz = coeffs.h_lin[p, l, k]
                for h in range(n):
                    e_dz += coeffs.s_z_z[p, h, k, l] * z[h] \
                        + coeffs.s_z_zbar[p, h, k, l] * zb[h]
                acc -= 0.5 * e_dz * v[p] * v[l]
                e_dzb = 0j
                for h in range(n):
                    e_dzb += coeffs.s_zbar_z[p, h, k, l] * z[h] \
                        + coeffs.s_zbar_zbar[p, h, k, l] * zb[h]
                acc -= 0.5 * e_dzb * vb[p] * v[l]
                bterm = np.conj(b1[p][k, l])
                for h in range(n):
                    bterm += np.conj(coeffs.b_mixed[p, h][k, l]) * z[h] \
                        + 2 * np.conj(coeffs.b_zz[p, h][k, l]) * zb[h]
                acc += 0.25j * bterm * vb[p] * vb[l]
                for h in range(n):
                    acc += 0.25j * np.conj(coeffs.b_mixed[p, h][k, l]) \
                        * zb[p] * v[h] * vb[l]
        out[k] += acc
    return out


class GeodesicLab:
    """Bundles the asymptotic families and the packed oracle for one germ."""

    def __init__(self, calc: FrameCalculus, hd: HermitianData):
        self.calc = calc
        self.hd = hd
        self.conn = chern_connection(calc, hd)
        self.packed = PackedConnection(calc, self.conn)
        self.coeffs = connection_asymptotics(calc, hd)


NOISE_FLOOR = 1e-13
SCALE_LADDER = (1.0, 0.5, 0.25, 0.125)    # the CLI's scales unless --scales


def error_scaling_probe(lab: GeodesicLab, z, v, scales, steps):
    """Fit the error exponent of |exp_asym - ode| under joint scaling.

    The whole ladder is integrated as one batch.  Returns rows per scale
    (with the RK4 step count each endpoint came from and whether its
    step doubling converged) and the fitted log-log slope; scales whose
    error sits at the integrator noise floor are excluded from the fit.  A
    ladder whose every error is at the floor is reported as exact; one with
    fewer than two distinct scales above it has no slope and is not exact.
    A non-finite error anywhere on the ladder is a failure (``finite``
    False, no slope, not exact).
    """
    z = np.asarray(z, complex)
    v = np.asarray(v, complex)
    zs = np.array([z * s for s in scales])
    vs = np.array([v * s for s in scales])
    numeric, counts, converged = integrate_geodesic_checked(
        lab.packed, zs, vs, steps=steps)
    rows = []
    for s, zi, vi, end, k, ok in zip(scales, zs, vs, numeric, counts,
                                     converged):
        error = np.abs(exp_asymptotic(lab.coeffs, zi, vi) - end).max()
        rows.append({"scale": s, "error": error, "steps": int(k),
                     "converged": bool(ok)})
    if not all(np.isfinite(r["error"]) for r in rows):
        return {"rows": rows, "slope": None, "exact": False, "finite": False}
    for i in range(1, len(rows)):
        e0, e1 = rows[i - 1]["error"], rows[i]["error"]
        s0, s1 = rows[i - 1]["scale"], rows[i]["scale"]
        if e0 > NOISE_FLOOR and e1 > NOISE_FLOOR:
            rows[i]["slope_partial"] = np.log(e0 / e1) / np.log(s0 / s1)
    usable = [(np.log(r["scale"]), np.log(r["error"])) for r in rows
              if r["error"] > NOISE_FLOOR]
    if len({x for x, _ in usable}) < 2:
        return {"rows": rows, "slope": None, "exact": not usable,
                "finite": True}
    xs = np.array([u[0] for u in usable])
    ys = np.array([u[1] for u in usable])
    slope = np.polyfit(xs, ys, 1)[0]
    return {"rows": rows, "slope": float(slope), "exact": False,
            "finite": True}


def integrator_convergence_ratio(lab: GeodesicLab, z, v, coarse=4,
                                 reference=1024):
    """Endpoint-error ratio under step halving; ~16 for a fourth-order rule."""
    ref = integrate_geodesic(lab.packed, z, v, steps=reference)
    e_coarse = np.abs(integrate_geodesic(lab.packed, z, v, steps=coarse)
                      - ref).max()
    e_fine = np.abs(integrate_geodesic(lab.packed, z, v, steps=2 * coarse)
                    - ref).max()
    if e_fine < 1e-14:
        raise JetError("convergence probe hit the noise floor; use coarser steps")
    return e_coarse / e_fine


def conjugate_block_residual(packed: PackedConnection, z, v):
    """Reality of the connection action: the conjugate block of the assembled
    acceleration must mirror the first block."""
    n = packed.n
    full = packed.action(z, v)
    return float(np.abs(full[n:] - np.conj(full[:n])).max())
