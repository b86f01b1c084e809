"""Almost-complex normal coordinates of order N.

Implements the stagewise normalization of the structure blocks, the
degree-by-degree solver of A^2 = -I - conj(B) B that builds A from a normal
B family and stops at its fixed point, the paper's closed combinatorial
formula for A, kept as the exact check of that solver, the order-one torsion
jet in normal coordinates, and invariance under top-degree holomorphic
changes.

The closed formula is exact only and is evaluated from one table per B
family (``ClosedFormA``), built forward by chain length: its conj(B) B
factor products and its chain sums serve every target coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .jets import (Jet, JetError, JetMatrix, QC, Substitution, _exponent_vectors,
                   multi_index, nan_max, zero_coefficients)
from .structure import AlmostComplexStructure, transform_structure


def lmax(alpha):
    """Largest index carrying a nonzero exponent; -1 for the zero multi-index."""
    out = -1
    for i, a in enumerate(alpha):
        if a:
            out = i
    return out


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sum_per_exponent(terms):
    """{exponent pair: sum of the matrices} of (exponent pair, matrix) pairs."""
    out = {}
    for key, mat in terms:
        out[key] = out[key] + mat if key in out else mat
    return out


class ClosedFormA:
    """Closed-form A coefficients of one B family, shared by every target.

    ``bfam`` maps (alpha, beta) multi-index pairs to n x n matrices of exact
    ``QC`` entries; pairs with a vanishing first index are treated as
    absent.  The coefficient of z^alpha zbar^beta is the sum over ordered
    chains of two-sided factors conj(B)^{lam,mu} B^{rho,gam}, each at
    exponent (rho + mu, lam + gam), with the weight C_{k-1} (-4)^{-(k-1)}
    per chain length k, where C_m is the m-th Catalan number.  That weight
    solves X = R - X^2 / 4, which is the recursion S = (i/2)(R + S^2) for
    S = (i/2) X and R = conj(B) B: a chain of k factors arises once per
    bracketing of the k-fold product.  C_{k-1} = 1 for k <= 2, so the weight
    differs from (-4)^{-(k-1)} only from chains of three factors on, which
    first occur at degree 6.

    The table is built forward, one chain length at a time: ``chains[k-1]``
    maps each exponent pair of total degree <= ``max_degree`` that a chain
    of k factors reaches to the sum of those chains.  The one-factor chains
    are the factors, and a k-factor chain is a factor times a (k-1)-factor
    chain, each factor fitting the degree left; a factor above
    ``max_degree`` is left out.  Every factor is the product of its own key
    pair: factors of one exponent are not summed before the chain products,
    so the table shares no step with the solver's recursion on R.  Every
    factor has degree >= 2, so there are at most ``max_degree // 2``
    lengths.
    """

    def __init__(self, bfam, n, max_degree):
        self.n, self.max_degree = n, max_degree
        keys = [k for k in bfam if sum(k[0]) >= 1]
        mats = [np.asarray(bfam[k], dtype=object) for k in keys]
        factors = []
        for lam_mu, left in zip(keys, mats):
            conj = left.conjugate()
            for rho_gam, right in zip(keys, mats):
                degree = sum(map(sum, lam_mu + rho_gam))
                if degree <= max_degree:
                    # z-exponent rho + mu, zbar-exponent lam + gam
                    key = (_add(rho_gam[0], lam_mu[1]), _add(lam_mu[0], rho_gam[1]))
                    factors.append((degree, key, conj @ right))
        # within[d]: the factors of degree <= d, as (exponent pair, matrix)
        within = [[(key, mat) for degree, key, mat in factors if degree <= d]
                  for d in range(max_degree + 1)]
        chains = _sum_per_exponent(within[max_degree])
        self.chains = []
        while chains:
            self.chains.append(chains)
            chains = _sum_per_exponent(
                ((_add(ze, a), _add(zbe, b)), mat @ rest)
                for (a, b), rest in chains.items()
                for (ze, zbe), mat in within[max_degree - sum(a) - sum(b)])

    def __call__(self, alpha, beta):
        """n x n coefficient matrix A^{alpha,beta} (the i/2-scaled part)."""
        alpha, beta = tuple(alpha), tuple(beta)
        total = sum(alpha) + sum(beta)
        if total > self.max_degree:
            raise JetError(f"target degree {total} exceeds the table's "
                           f"max_degree {self.max_degree}")
        out = zero_coefficients((self.n, self.n), True)
        for k, chains in enumerate(self.chains, start=1):
            chain = chains.get((alpha, beta))
            if chain is not None:
                catalan = math.comb(2 * (k - 1), k - 1) // k
                out = out + QC(Fraction(catalan, (-4) ** (k - 1))) * chain
        return out


def a_from_b_closed_form(bfam, alpha, beta, n):
    """Complex matrix A^{alpha,beta} of a float B family: the exact table
    (``ClosedFormA``) built to this one target's degree, on the exact binary
    values of the floats, with only the result rounded.  It stays because
    the benchmark's tracer spans it by name; the tool does not call it."""
    exact = {key: [[QC(Fraction(c.real), Fraction(c.imag)) for c in row]
                   for row in np.asarray(mat, dtype=complex)]
             for key, mat in bfam.items()}
    table = ClosedFormA(exact, n, sum(alpha) + sum(beta))
    return np.array([[complex(c) for c in row] for row in table(alpha, beta)],
                    dtype=complex)


def _sweep_input(s: JetMatrix):
    """All a sweep reads of S: each entry's effective order and terms, the
    signed zeros of float terms told apart."""
    return [(e.effective_order, repr(e.terms)) for row in s.entries for e in row]


def solve_a_degree_by_degree(b: JetMatrix) -> JetMatrix:
    """Solve A^2 = -I - conj(B) B for A = iI + S degree by degree.

    It runs the recursion S = (i/2)(R + S^2), R = conj(B) B.  R and S have
    no terms below degree 2, so sweep j settles every degree up to 2j + 1;
    it runs at most ``order`` sweeps and stops at the first that returns
    its input bit for bit, since every later sweep would return it too.
    In float it builds A for ``structure_from_b_family``; in rational mode
    it is the exact oracle that ``validate --exact`` checks against the
    closed formula.
    """
    n, order, exact = b.rows, b.order, b.exact
    r = b.conj() @ b
    half_i = QC(0, Fraction(1, 2)) if exact else 0.5j
    s = JetMatrix.zeros(n, n, b.n, order, exact=exact)
    seen = _sweep_input(s)
    for _ in range(order):
        s = (r + s @ s) * half_i
        now = _sweep_input(s)
        if now == seen:
            break
        seen = now
    ident = JetMatrix.identity(n, b.n, order, exact=exact)
    i_unit = QC(0, 1) if exact else 1j
    return ident * i_unit + s


def structure_from_b_family(bfam, n, order) -> AlmostComplexStructure:
    """Build the structure whose B expansion is the given normal family.

    A is solved from B by ``solve_a_degree_by_degree``; the result
    satisfies both block constraints of J^2 = -I up to truncation, which
    ``cli.parse_manifold_spec`` checks.
    """
    for alpha, beta in bfam:
        if sum(alpha) + sum(beta) > order:
            raise JetError("B family entry exceeds truncation order")
        if sum(alpha) < 1:
            raise JetError("B family entries need |alpha| >= 1")
    b = JetMatrix.from_coefficients(
        {key: np.asarray(mat, dtype=complex) for key, mat in bfam.items()},
        n, n, n, order)
    return AlmostComplexStructure(solve_a_degree_by_degree(b), b)


def a_from_b_family(bfam, n, order) -> JetMatrix:
    """The exact A block iI + (i/2) sum A^{alpha,beta} z^alpha zbar^beta of
    the closed form through degree ``order``, read from one table of the
    exact family at every exponent pair a chain reaches."""
    table = ClosedFormA(bfam, n, order)
    fam = {key: table(*key)
           for key in dict.fromkeys(key for chains in table.chains for key in chains)}
    s = JetMatrix.from_coefficients(fam, n, n, n, order, exact=True)
    ident = JetMatrix.identity(n, n, order, exact=True)
    return ident * QC(0, 1) + s * QC(0, Fraction(1, 2))


def extract_a_family(s: AlmostComplexStructure):
    """A^{alpha,beta} matrices of the structure's A-expansion (the i/2-scaled
    coefficients beyond the constant iI)."""
    zero_key = ((0,) * s.n, (0,) * s.n)
    return {key: -2j * mat for key, mat in s.A.coefficients().items()
            if key != zero_key}


def pattern_violation(s: AlmostComplexStructure, max_degree=None):
    """Largest B coefficient sitting where the normal form demands zero.

    The pattern: B^{alpha,beta}_{k,l} = 0 whenever l >= lmax(alpha), which in
    particular kills every coefficient with alpha = 0.
    """
    eff = s.B.effective_order
    cap = eff if max_degree is None else min(max_degree, eff)
    return nan_max(abs(c) for k in range(s.n) for l in range(s.n)
                   for (alpha, beta), c in s.B[k, l].terms.items()
                   if sum(alpha) + sum(beta) <= cap and l >= lmax(alpha))


def require_normal_form(s: AlmostComplexStructure, message):
    """Raise ``JetError(message)`` unless B keeps the normal-form pattern
    through degree 2 to within 1e-9; a NaN violation raises too."""
    if not pattern_violation(s, max_degree=2) <= 1e-9:
        raise JetError(message)


@dataclass
class NormalCoordinateResult:
    structure: AlmostComplexStructure
    phi: list                      # accumulated change, n jets of order N+1, the
                                   # working order of a ChartChange for order N
    phi_stages: list = field(default_factory=list)
    violation: float = 0.0

    def b_family(self):
        return self.structure.B.coefficients()

    def a_family(self):
        return extract_a_family(self.structure)


def stage_change(s: AlmostComplexStructure, m: int, target_order: int):
    """Coordinate change killing the non-normal degree-m part of B."""
    n = s.n
    bcoef = s.B.coefficients()
    fam = {}
    for alpha in _exponent_vectors(n, m + 1):
        da = sum(alpha)
        if da < 1:
            continue
        big_l = lmax(alpha)
        for beta in _exponent_vectors(n, m + 1 - da):
            if da + sum(beta) != m + 1:
                continue
            ref_key = (_sub(alpha, multi_index(n, big_l)), beta)
            mat = bcoef.get(ref_key)
            if mat is None:
                continue
            for k in range(n):
                c = mat[k, big_l]
                if c:
                    fam.setdefault((beta, alpha), np.zeros((1, n), dtype=complex))[0, k] = \
                        -0.5j * np.conj(c) / alpha[big_l]
    return _identity_plus(fam, n, target_order), bool(fam)


def _identity_plus(fam, n, order):
    """The coordinate change z_k + sum over ``fam`` of fam[key][0, k] z^alpha
    zbar^beta, as n jets; ``fam`` maps keys of degree >= 2 to 1 x n arrays."""
    zero = (0,) * n
    ident = {(multi_index(n, k), zero): np.eye(1, n, k) for k in range(n)}
    return JetMatrix.from_coefficients({**ident, **fam}, 1, n, n, order).entries[0]


def normalize_to_order(s: AlmostComplexStructure, n_order) -> NormalCoordinateResult:
    """Iterative normalization: for m = 1..``n_order`` the degree-m part of B
    is pushed into the vanishing pattern by a degree-(m+1) change tangent to
    the identity; earlier degrees are untouched."""
    if not s.is_adapted(1e-10):
        raise JetError("structure must be adapted at the origin (A(0)=iI, B(0)=0)")
    if n_order > s.order:
        raise JetError("cannot normalize beyond the truncation order")
    n = s.n
    target = n_order + 1
    total = [Jet.variable(n, target, k) for k in range(n)]
    stages = []
    cur = s
    for m in range(1, n_order + 1):
        phi, changed = stage_change(cur, m, target)
        stages.append(phi)
        if changed:
            cur = transform_structure(cur, phi)
            sub = Substitution(total)
            total = [p.compose(sub) for p in phi]
    return NormalCoordinateResult(cur, total, stages, pattern_violation(cur))


def torsion_jet_normal(s_normal: AlmostComplexStructure):
    """Order-one jets of the torsion coefficients from the B families.

    Returns nbar[r][k][l] (k < l) as jets of order 1 built out of the linear
    and quadratic coefficient families of B in normal coordinates.
    """
    require_normal_form(s_normal, "structure is not in normal form through degree 2")
    n = s_normal.n
    b1 = s_normal.B.family(1, 0)
    b2 = s_normal.B.family(2, 0)
    b2bar = s_normal.B.family(1, 1)
    zero = (0,) * n

    def antisymmetric(upper):
        """The k < l part of upper[..., k, l], negated into the l < k slots."""
        upper = np.triu(upper, 1)
        return upper - np.swapaxes(upper, -1, -2)

    out = []
    for r in range(n):
        quad = b2[:, :, r, :].transpose(1, 2, 0)          # [t, k, l] = b2[l, t, r, k]
        fam = {(zero, zero): antisymmetric(0.5j * b1[:, r, :].T)}
        cz = 0.5j * (2 * (quad - quad.transpose(0, 2, 1)))
        czb = antisymmetric(0.5j * b2bar[:, :, r, :].transpose(1, 2, 0))
        for t in range(n):
            fam[(multi_index(n, t), zero)] = cz[t]
            fam[(zero, multi_index(n, t))] = czb[t]
        out.append(JetMatrix.from_coefficients(fam, n, n, n, 1).entries)
    return out


def torsion_jet_equivalence(s_normal: AlmostComplexStructure, k: int):
    """Diagnostic for: the order-k torsion jet vanishes iff B vanishes at
    order k+1 (k in {0, 1}), each to within 1e-11."""
    from .structure import torsion_tensor
    if k not in (0, 1):
        raise JetError("diagnostic defined for jet orders 0 and 1")
    tors = torsion_tensor(s_normal)
    torsion_jet_zero = tors.max_abs(max_degree=k) <= 1e-11
    b_zero = s_normal.B.max_abs(max_degree=k + 1) <= 1e-11
    return {"torsion_jet_zero": torsion_jet_zero,
            "b_vanishes": b_zero,
            "consistent": torsion_jet_zero == b_zero}


def verify_holomorphic_invariance(s_normal: AlmostComplexStructure, change,
                                  n_order=None):
    """Transform by Z_k = z_k + sum_{|alpha| = N+1} C^k_alpha z^alpha and
    report how much the degree <= N B coefficients moved.

    ``change`` maps (k, alpha) to a complex coefficient with |alpha| = N+1.
    """
    n = s_normal.n
    n_order = s_normal.order if n_order is None else n_order
    target = n_order + 1
    zero = (0,) * n
    fam = {}
    for (k, alpha), c in change.items():
        if sum(alpha) != n_order + 1:
            raise JetError("holomorphic change must be homogeneous of degree N+1")
        fam.setdefault((tuple(alpha), zero), np.zeros((1, n), dtype=complex))[0, k] += c
    phi = _identity_plus(fam, n, target)
    base = s_normal.truncated(n_order)
    moved = transform_structure(base, phi)
    before = base.B.coefficients()
    after = moved.B.coefficients()
    none = np.zeros((n, n))
    worst = nan_max(np.abs(after.get(key, none) - before.get(key, none)).max()
                    for key in set(before) | set(after)
                    if sum(key[0]) + sum(key[1]) <= n_order)
    return {"deviation": worst,
            "pattern_violation": pattern_violation(moved),
            "structure": moved}
