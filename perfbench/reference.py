"""Reference kernel: fixed work, independent of acgeom, that tracks host speed.

The benchmark shares a few cores of a host with other tenants, and that
host's speed changes by up to a factor of two over seconds to minutes.  The
change outlasts a run, so no estimator over one run's samples can remove it.
What does remove it is timing a fixed piece of work beside every task and
scaling the task's time by the ratio of that work's nominal time to its
measured time.  A change to acgeom still moves a task's scaled time in full,
because the reference work never calls acgeom.

The work mixes the three kinds of computation acgeom spends its time on:
dict-of-monomials products of complex coefficients (sparse jets), Fraction
arithmetic (exact-mode jets) and small numpy pack/unique/scatter-add steps
(dense jet products).
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Nominal time of one ``sample()``: its typical time on a 2-vCPU Xeon VM
# (Python 3.11, numpy 2.4).  Scaled times are wall times at that speed.
REF_S = 0.02

_POLY = {((i, 0), (j, 1)): complex(i + 1, j - 1)
         for i in range(8) for j in range(8)}
_FRACTIONS = [Fraction(k if k % 2 else -k, 1024) for k in range(1, 33)]
_RNG = np.random.default_rng(0)
_EXPONENTS = _RNG.integers(0, 4, size=(40, 4))
_COEFFS = _RNG.normal(size=40) + 1j
_RADIX = np.array([1, 7, 49, 343])


def _poly_product():
    out = {}
    for _ in range(2):
        for (a1, b1), c1 in _POLY.items():
            for (a2, b2), c2 in _POLY.items():
                key = ((a1[0] + a2[0], a1[1] + a2[1]),
                       (b1[0] + b2[0], b1[1] + b2[1]))
                out[key] = out.get(key, 0) + c1 * c2
    return len(out)


def _fraction_sums():
    acc = Fraction(0)
    for x in _FRACTIONS:
        for y in _FRACTIONS:
            acc += x * y - y / 3
    return acc


def _packed_products():
    total = 0j
    for _ in range(60):
        exps = (_EXPONENTS[:, None, :] + _EXPONENTS[None, :, :]).reshape(-1, 4)
        coeffs = (_COEFFS[:, None] * _COEFFS[None, :]).ravel()
        uniq, inv = np.unique(exps @ _RADIX, return_inverse=True)
        acc = np.zeros(len(uniq), dtype=complex)
        np.add.at(acc, inv, coeffs)
        total += acc[0]
    return total


_KERNELS = (_poly_product, _fraction_sums, _packed_products)


def sample():
    """Wall time of one pass over the reference work."""
    start = time.perf_counter()
    for kernel in _KERNELS:
        kernel()
    return time.perf_counter() - start


def scaled(seconds, ref_s):
    """A wall time measured while ``sample()`` took ``ref_s``, at the nominal
    reference speed."""
    return seconds * REF_S / ref_s
