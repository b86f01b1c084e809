"""Shared test germs: the flat structure, the minimal torsion fixture,
deterministic random deformations, the flat metric, metrics built from
coefficient families and the frame covectors as forms; plus point values of
jet matrices and vector fields, rescaled frames, and the largest
coefficients and trusted degree of bracket tables and form matrices."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from acgeom.chern import HermitianData, MatrixForm
from acgeom.forms import FrameCalculus, PQForm
from acgeom.jets import Jet, JetError, JetMatrix, nan_max
from acgeom.normal import lmax, structure_from_b_family
from acgeom.structure import (AlmostComplexStructure, BracketCoefficients,
                              Frame, VectorField,
                              structure_from_deformation)

FIX_B_VALUE = 0.3 + 0.1j
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def bench_b_normal_spec(n, order, max_degree, seed):
    """JSON text of the benchmark's dense dyadic B-normal spec for the cell
    (n, N, degree) and ``seed``, as ``perfbench/workloads.py`` (loaded
    read-only) draws it for its ``exact-oracle`` tasks."""
    name = "perfbench_workloads"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module     # dataclasses look their module up here
        spec.loader.exec_module(module)
    rng = np.random.default_rng([seed, n, order, max_degree])
    return json.dumps(module.b_normal_document(n, order, max_degree, rng))


def b_normal(fam, n, order) -> AlmostComplexStructure:
    """``structure_from_b_family``, raising ``JetError`` unless the
    reconstructed structure meets J^2 = -I to within 1e-10."""
    s = structure_from_b_family(fam, n, order)
    residual = s.validate().max_residual
    if not residual <= 1e-10:   # a NaN residual fails too
        raise JetError(f"reconstructed structure violates J^2 = -I ({residual:.2e})")
    return s


def jets_sha256(*groups):
    """sha256 over each group of jets of (order, effective order, terms) per
    jet; ``repr`` of a float round-trips, so equal digests mean equal bits."""
    h = hashlib.sha256()
    for jets in groups:
        h.update(repr([(e.order, e.effective_order, e.terms) for e in jets]).encode())
    return h.hexdigest()


def flat_entries(m: JetMatrix):
    """The entries of a jet matrix, row by row."""
    return [e for row in m.entries for e in row]


def fix_j0(n=2, order=4) -> AlmostComplexStructure:
    """Flat integrable structure: A = iI, B = 0."""
    return AlmostComplexStructure.standard(n, order)


def fix_b(order=4, b=FIX_B_VALUE) -> AlmostComplexStructure:
    """Smallest torsion-carrying normal-form germ: n = 2, B(z) = b z_2 E11.

    The single family entry sits at (alpha, beta) = ((0,1), (0,0)), row 1,
    column 1 (one-based), which respects the vanishing pattern; A follows
    from the closed-form reconstruction.
    """
    fam = {((0, 1), (0, 0)): np.array([[b, 0], [0, 0]], dtype=complex)}
    return b_normal(fam, 2, order)


def fix_b2(order=4, b=FIX_B_VALUE) -> AlmostComplexStructure:
    """Variant with vanishing torsion at the origin: B(z) = b z_2^2 E11."""
    fam = {((0, 2), (0, 0)): np.array([[b, 0], [0, 0]], dtype=complex)}
    return b_normal(fam, 2, order)


def fix_b3(order=4, b=0.2 - 0.15j) -> AlmostComplexStructure:
    """Variant with vanishing torsion 1-jet: B(z) = b z_2^2 zbar_1 E11."""
    fam = {((0, 2), (1, 0)): np.array([[b, 0], [0, 0]], dtype=complex)}
    return b_normal(fam, 2, order)


def random_deformation(seed, n=2, order=4) -> AlmostComplexStructure:
    return structure_from_deformation(n, order, seed=seed)


def random_b_normal(seed, n=2, order=4, magnitude=0.15) -> AlmostComplexStructure:
    """Random normal-form structure: a few B family entries respecting the
    vanishing pattern, A reconstructed from them."""
    rng = np.random.default_rng(seed)
    fam = {}
    placed = 0
    while placed < 3:
        d = int(rng.integers(1, 3))
        exps = [0] * (2 * n)
        exps[int(rng.integers(1, n))] += 1      # ensures lmax(alpha) >= 1
        for _ in range(d - 1):
            exps[int(rng.integers(0, 2 * n))] += 1
        alpha, beta = tuple(exps[:n]), tuple(exps[n:])
        big = lmax(alpha)
        if big < 1:
            continue
        k = int(rng.integers(0, n))
        l = int(rng.integers(0, big))
        mat = np.zeros((n, n), dtype=complex)
        mat[k, l] = magnitude * complex(rng.normal(), rng.normal())
        key = (alpha, beta)
        fam[key] = fam.get(key, np.zeros((n, n), dtype=complex)) + mat
        placed += 1
    return b_normal(fam, n, order)


def identity_metric(n, order) -> HermitianData:
    """The flat metric h = I."""
    return HermitianData(JetMatrix.identity(n, n, order))


def metric_from_families(n, order, lin=None, quad_zz=None, quad_mixed=None):
    """Metric with prescribed coefficient families around the identity.

    lin[p,l,m] sets the z_p coefficient of h_{l,m} (conjugate partners
    are filled in); quad_zz must be symmetric in its first two slots;
    quad_mixed is hermitian-averaged on ingestion.
    """
    h = JetMatrix.identity(n, n, order)

    def part(tensor, deg_z, deg_zbar):
        return JetMatrix.from_family(tensor, deg_z, deg_zbar, n, order)

    if lin is not None:
        lin = np.asarray(lin, dtype=complex)
        h = h + part(lin, 1, 0) + part(np.conj(lin).transpose(0, 2, 1), 0, 1)
    if quad_zz is not None:
        quad_zz = np.asarray(quad_zz, dtype=complex)
        quad_zz = 0.5 * (quad_zz + quad_zz.transpose(1, 0, 2, 3))
        h = h + part(quad_zz, 2, 0) \
            + part(np.conj(quad_zz).transpose(0, 1, 3, 2), 0, 2)
    if quad_mixed is not None:
        quad_mixed = np.asarray(quad_mixed, dtype=complex)
        herm = 0.5 * (quad_mixed
                      + np.conj(quad_mixed.transpose(1, 0, 3, 2)))
        h = h + part(herm, 1, 1)
    return HermitianData(h)


def frame_covector(calc: FrameCalculus, k, conjugate=False) -> PQForm:
    """The frame covector zeta*_k, or zetabar*_k with ``conjugate``, as a form."""
    if conjugate:
        return PQForm(calc, 0, 1, {((), (k,)): Jet.one(calc.n, calc.order)})
    return PQForm(calc, 1, 0, {((k,), ()): Jet.one(calc.n, calc.order)})


def matrix_eval(m: JetMatrix, point):
    """Value of every entry of ``m`` at ``point`` (zbar_k = conj(z_k))."""
    return np.array([[e.eval(point) for e in row] for row in m.entries], dtype=complex)


def field_eval(v: VectorField, point):
    """Value of every component of ``v`` at ``point``."""
    return np.array([c.eval(point) for c in v.components])


def scaled_frame(frame: Frame, factors) -> Frame:
    """The frame with zeta_k replaced by factors[k] * zeta_k (factors[k](0) != 0)."""
    n = frame.n
    diag = JetMatrix.zeros(2 * n, 2 * n, n, frame.order)
    for k in range(n):
        diag.entries[k][k] = factors[k]
        diag.entries[n + k][n + k] = factors[k].conj()
    g = frame.G @ diag
    return Frame(g, g.inverse())


def brackets_max_abs(bc: BracketCoefficients):
    """Largest coefficient over the four bracket tables; NaN if any is NaN."""
    return nan_max(fam.max_abs() for tab in (bc.M, bc.N, bc.U, bc.V) for fam in tab)


def brackets_effective_order(bc: BracketCoefficients):
    """Least trusted degree over the four bracket tables."""
    return min(fam.effective_order for tab in (bc.M, bc.N, bc.U, bc.V) for fam in tab)


def form_matrix_max_abs(m: MatrixForm, max_degree=None):
    """Largest coefficient over the entries of a form matrix."""
    return nan_max(e.max_abs(max_degree) for row in m.entries for e in row)
