"""Work-count ratchet: the jet-level work of every CLI command on every
shipped manifest, counted by call, is pinned as a ceiling.

Each command runs as ``acgeom <command> <manifest>`` runs it, with the CLI
defaults and ``--exact`` for ``validate`` (the ``fixtures-sweep`` tasks of
``perfbench``).  The counted operations are wrapped for the run, and each
count must be at most its pin: a count may fall, and a rise fails.  Counts
do not move with host speed, so they show a change in work where timings
cannot.  When a change lowers a count, or raises one for a stated reason,
regenerate the table: ``python tests/test_work_counts.py`` (with ``src`` on
``PYTHONPATH``) prints it for the current tree.
"""

import contextlib
import os
from collections import Counter

import pytest

from acgeom import cli
from acgeom.jets import Jet, JetMatrix, _Index

MANIFESTS = os.path.join(os.path.dirname(__file__), "..", "manifests")

# (name, owner, attribute) of each counted operation, in the order of a pin
COUNTED = (("Jet._partial", Jet, "_partial"), ("Jet._scale", Jet, "_scale"),
           ("Jet.dot", Jet, "dot"), ("_Index.mul", _Index, "mul"),
           ("_Index.mul_sum", _Index, "mul_sum"),
           ("JetMatrix.inverse", JetMatrix, "inverse"))

# (command, manifest) -> calls of each COUNTED operation
COUNTS = {
    ("validate", "deformation_n2.json"): (0, 0, 0, 0, 0, 0),
    ("validate", "fix_b.json"): (0, 24, 16, 0, 0, 0),
    ("validate", "fix_b2.json"): (0, 20, 12, 0, 0, 0),
    ("validate", "fix_j0.json"): (0, 0, 0, 0, 0, 0),
    ("validate", "j0_symplectic.json"): (0, 0, 0, 0, 0, 0),
    ("torsion", "deformation_n2.json"): (28, 36, 209, 0, 0, 1),
    ("torsion", "fix_b.json"): (18, 36, 210, 0, 0, 1),
    ("torsion", "fix_b2.json"): (18, 36, 194, 0, 0, 1),
    ("torsion", "fix_j0.json"): (0, 36, 134, 0, 0, 1),
    ("torsion", "j0_symplectic.json"): (0, 36, 134, 0, 0, 1),
    ("normalize", "deformation_n2.json"): (48, 0, 97, 86, 5, 0),
    ("normalize", "fix_b.json"): (0, 0, 16, 0, 0, 0),
    ("normalize", "fix_b2.json"): (0, 0, 16, 0, 0, 0),
    ("normalize", "fix_j0.json"): (0, 0, 16, 0, 0, 0),
    ("normalize", "j0_symplectic.json"): (0, 0, 16, 0, 0, 0),
    ("identities", "deformation_n2.json"): (200, 95, 193, 48, 0, 1),
    ("identities", "fix_b.json"): (182, 87, 181, 2, 0, 1),
    ("identities", "fix_b2.json"): (170, 76, 146, 0, 0, 1),
    ("identities", "fix_j0.json"): (128, 48, 79, 0, 0, 1),
    ("identities", "j0_symplectic.json"): (128, 48, 79, 0, 0, 1),
    ("curvature", "deformation_n2.json"): (88, 76, 133, 20, 0, 2),
    ("curvature", "fix_b.json"): (70, 44, 118, 0, 0, 2),
    ("curvature", "fix_b2.json"): (58, 24, 88, 0, 0, 2),
    ("curvature", "fix_j0.json"): (32, 16, 36, 0, 0, 2),
    ("curvature", "j0_symplectic.json"): (40, 21, 61, 3, 0, 2),
    ("decompose", "deformation_n2.json"): (116, 218, 494, 44, 0, 5),
    ("decompose", "fix_b.json"): (102, 211, 507, 6, 0, 5),
    ("decompose", "fix_b2.json"): (102, 210, 471, 0, 0, 5),
    ("decompose", "fix_j0.json"): (80, 204, 372, 0, 0, 5),
    ("decompose", "j0_symplectic.json"): (80, 205, 459, 12, 2, 5),
    ("asymptotics", "deformation_n2.json"): (20, 16, 67, 0, 0, 1),
    ("asymptotics", "fix_b.json"): (86, 32, 227, 0, 0, 2),
    ("asymptotics", "fix_b2.json"): (86, 31, 211, 0, 0, 2),
    ("asymptotics", "fix_j0.json"): (72, 29, 168, 0, 0, 2),
    ("asymptotics", "j0_symplectic.json"): (72, 30, 178, 2, 4, 2),
    ("geodesic", "deformation_n2.json"): (92, 19, 195, 2, 16, 2),
    ("geodesic", "fix_b.json"): (86, 18, 222, 0, 0, 2),
    ("geodesic", "fix_b2.json"): (86, 17, 206, 0, 0, 2),
    ("geodesic", "fix_j0.json"): (72, 16, 164, 0, 0, 2),
    ("geodesic", "j0_symplectic.json"): (72, 17, 174, 2, 4, 2),
}


def _counting(counts, name, raw):
    """``raw``, a function or classmethod, with each call counted under
    ``name``."""
    if isinstance(raw, classmethod):
        func = raw.__func__

        def method(cls, *args, **kwargs):
            counts[name] += 1
            return func(cls, *args, **kwargs)
        return classmethod(method)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return raw(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def counted(counts):
    """Count the COUNTED operations into ``counts`` while the block runs."""
    raws = [(owner, attr, vars(owner)[attr]) for _, owner, attr in COUNTED]
    try:
        for (name, _, _), (owner, attr, raw) in zip(COUNTED, raws):
            setattr(owner, attr, _counting(counts, name, raw))
        yield counts
    finally:
        for owner, attr, raw in raws:
            setattr(owner, attr, raw)


def work_counts(command, manifest):
    """Calls of each COUNTED operation, in order, while ``command`` runs on
    ``manifest`` as the CLI runs it."""
    with open(os.path.join(MANIFESTS, manifest), encoding="utf-8") as fh:
        ms = cli.parse_manifold_spec(fh.read(), name=manifest)
    with counted(Counter()) as counts:
        cli.run_command(command, ms, cli.Options(exact=command == "validate"))
    return tuple(counts[name] for name, _, _ in COUNTED)


def test_table_covers_every_command_and_manifest():
    names = sorted(f for f in os.listdir(MANIFESTS) if f.endswith(".json"))
    assert set(COUNTS) == {(c, m) for c in cli.COMMANDS for m in names}


@pytest.mark.parametrize("command, manifest", sorted(COUNTS))
def test_work_counts_do_not_rise(command, manifest):
    got = work_counts(command, manifest)
    pinned = COUNTS[command, manifest]
    risen = {name: (pin, count) for (name, _, _), pin, count in zip(COUNTED, pinned, got)
             if count > pin}
    assert not risen, f"counts above their pins, as (pin, count): {risen}"


def test_counting_restores_the_operations():
    raws = [vars(owner)[attr] for _, owner, attr in COUNTED]
    with counted(Counter()) as counts:
        Jet.dot([(Jet.one(1, 2), 2.0)], 1, 2).gradient()
    assert counts == Counter({"Jet.dot": 1, "Jet._partial": 2})
    assert [vars(owner)[attr] for _, owner, attr in COUNTED] == raws


if __name__ == "__main__":
    print("COUNTS = {")
    for command in cli.COMMANDS:
        for manifest in sorted(f for f in os.listdir(MANIFESTS) if f.endswith(".json")):
            print(f"    ({command!r}, {manifest!r}): {work_counts(command, manifest)},"
                  .replace("'", '"'))
    print("}")
