"""Mutation catalogue: faults that the tests must catch, kept and re-run.

Each mutant names a file under ``src/``, an exact source snippet in it, the
text that replaces the snippet, and the test node ids of which at least one
must fail once the snippet is replaced.  ``tests/test_mutants.py`` checks in
tier-1 that every snippet occurs exactly once in ``src/``, so a change that
moves mutated code must update its mutant too.

Run from anywhere, with pytest installed::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

The runner copies ``src/`` to a temporary directory and first runs every
listed node id on the unchanged copy, which must pass.  Then, one mutant at
a time, it applies the replacement to a fresh copy and runs that mutant's
node ids in one pytest subprocess, with the copy on ``pythonpath`` in place
of ``src/``.  It prints each mutant as killed (a listed test failed) or
survived (all passed), and exits nonzero if any survived or a run errored.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

Mutant = namedtuple("Mutant", "name path snippet replacement node_ids")

MUTANTS = (
    Mutant("trusted hands its partials to the copy",
           "acgeom/jets.py",
           "        return Jet._make(self.n, self.order, self._terms, eff, self.exact, "
           "self._pack)\n",
           "        jet = Jet._make(self.n, self.order, self._terms, eff, self.exact, "
           "self._pack)\n"
           "        jet._grad = self._grad\n"
           "        return jet\n",
           ("tests/test_jet_properties.py::test_a_copy_takes_partials_of_its_own",)),
    Mutant("the partial memo keys dz and dzbar alike",
           "acgeom/jets.py",
           "        d = self._grad[a]\n"
           "        if d is None:\n"
           "            d = self._grad[a] = ",
           "        d = self._grad[a % n]\n"
           "        if d is None:\n"
           "            d = self._grad[a % n] = ",
           ("tests/test_jet_properties.py::test_partial_is_dz_or_dzbar",)),
    Mutant("a partial keeps its jet's effective order",
           "acgeom/jets.py",
           "                         self.effective_order - 1, self.exact)\n",
           "                         self.effective_order, self.exact)\n",
           ("tests/test_jets.py::TestPartial::test_monomial_rule",
            "tests/test_trusted_degrees.py::test_torsion_ignores_input_above_its_order")),
    Mutant("an exact sum skips its final reduction",
           "acgeom/jets.py",
           "    return {k: _reduced(a, b, d) for k, (a, b, d) in sorted(acc.items()) "
           "if a or b}\n",
           "    def unreduced(a, b, d):\n"
           "        z = object.__new__(QC)\n"
           "        z.a, z.b, z.d = a, b, d\n"
           "        return z\n"
           "    return {k: unreduced(a, b, d) for k, (a, b, d) in sorted(acc.items()) "
           "if a or b}\n",
           ("tests/test_jets.py::TestDot::test_code_keyed_product_matches_tuple_keyed",
            "tests/test_jets.py::TestExactJetHoldsQC::test_arithmetic_with_plain_exact_values")),
    Mutant("word_value drops every permutation sign",
           "acgeom/structure.py",
           "            terms.append((prod, sign))\n",
           "            terms.append((prod, 1))\n",
           ("tests/test_forms.py::TestDeterminant::test_constant_matrices_match_numpy",
            "tests/test_structure.py::TestTorsion::test_cross_check_against_bracket_identity")),
    Mutant("a wrong sign in _zeta_brackets",
           "acgeom/structure.py",
           "                mbar[k].entries[r][j] = -fc[k]\n",
           "                mbar[k].entries[r][j] = fc[k]\n",
           ("tests/test_structure.py::TestBrackets::test_relations",)),
    Mutant("transform_structure keeps the last n columns of dpsi",
           "acgeom/structure.py",
           "    dpsi_kept = JetMatrix([row[:n] for row in change.dpsi.entries])\n",
           "    dpsi_kept = JetMatrix([row[n:] for row in change.dpsi.entries])\n",
           ("tests/test_chart_change.py::test_adapt_linear_change_matches_the_oracles",
            "tests/test_structure.py::TestDeformation::test_random_structures_validate")),
    Mutant("pair_with keeps one matrix whatever the field",
           "acgeom/chern.py",
           "        if self._pairing[0] is not x:\n",
           "        if self._pairing[0] is None:\n",
           ("tests/test_frame_shortcuts.py::test_pairing_follows_the_field",
            "tests/test_chern.py::TestChernLeviCivita::test_fix_b_identity_metric")),
    Mutant("LeviCivita keeps its products whatever the xi",
           "acgeom/chern.py",
           "        if self._xi_products[0] is not xi:\n",
           "        if self._xi_products[0] is None:\n",
           ("tests/test_chern.py::TestLeviCivita::test_torsion_free",
            "tests/test_frame_jets.py::"
            "test_levi_civita_derivative_matches_the_memo_free_sum[2-2]")),
    Mutant("the chain coefficient multiplied after the product",
           "acgeom/geodesic.py",
           "        f[..., 0, :] *= coeffs\n"
           "        return np.multiply.reduce(f, axis=-2) @ scatter\n",
           "        return (np.multiply.reduce(f, axis=-2) * coeffs) @ scatter\n",
           ("tests/test_packed_connection.py::test_overflowing_velocity_ends_as_the_oracle_does",)),
    Mutant("the fourth RK4 stage steps by half",
           "acgeom/geodesic.py",
           "        for s, c in enumerate((None, half, half, h)):\n",
           "        for s, c in enumerate((None, half, half, half)):\n",
           ("tests/test_packed_connection.py::test_rk4_steps_have_the_reference_bits",
            "tests/test_report_bytes.py::test_json_report_bytes[geodesic-fix_b.json-flags16]")),
)


def apply(root, mutant):
    """Replace the mutant's snippet in the copy of ``src/`` at ``root``."""
    path = os.path.join(root, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: snippet does not occur exactly once")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.snippet, mutant.replacement))


def run_tests(src, node_ids):
    """pytest's exit code on ``node_ids`` with ``src`` as the package root."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *node_ids]
    return subprocess.run(cmd, cwd=REPO, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def copy_src(tmp, name):
    dest = os.path.join(tmp, name)
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        every = sorted({i for m in chosen for i in m.node_ids})
        if run_tests(copy_src(tmp, "plain"), every) != 0:
            sys.exit("the listed tests do not all pass on the unchanged source")
        failed = False
        for k, mutant in enumerate(chosen):
            src = copy_src(tmp, f"mutant{k}")
            apply(src, mutant)
            code = run_tests(src, mutant.node_ids)
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            failed |= code != 1
            print(f"{verdict:9} {mutant.name}", flush=True)
    print(f"{len(chosen)} mutants in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
