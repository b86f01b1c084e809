"""Byte-stability guard for generated germs: the sha256 of every seed-1
and seed-7 report of the benchmark's ``frame-calculus`` and
``normalize-dense`` tasks.

``test_report_bytes.py`` pins the reports on the shipped manifests, which are
small and sparse.  The benchmark's full-support germs drive the dense kernel,
``compose``, ``series_inverse`` and the frame calculus on many more terms, so
their reports are pinned here as well.  The task lists come from
``perfbench/workloads.py``, loaded read-only; each document is serialized as
``cli.emit_report`` does, with the task's payload under ``data``.  When a
change to these reports is intended, ``python tests/test_generated_report_bytes.py``
(with ``src`` on ``PYTHONPATH``) prints the tables for the current tree, every
task of each pinned workload and seed in build order.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

# seed -> (workload, task id) -> sha256 of the task's report document
DIGESTS = {1: {
    ("frame-calculus", "torsion:full-n2N2"):
        "4e99856b4bd2e6a3a0c1ee3a1b874123c87177a4424bcd0f4390ad259b54fbcb",
    ("frame-calculus", "decompose:full-n2N2"):
        "4051cac247002f441cf34ef43663b11f6bc7a7c4f09e78aea20313d98bb82a12",
    ("frame-calculus", "identities:full-n2N2"):
        "70fee068b2f41e46165c545d1dca76764d77e68b4ab6bc7b03b22951cedf7f94",
    ("frame-calculus", "torsion:sparse-n3N2"):
        "319e3d1717f956f31a64d2a7e169c8642b961b1716cea83b7a5043a19292035f",
    ("frame-calculus", "decompose:sparse-n3N2"):
        "054c9ee28e42ab90e90f482798532682ccdd811db21484152b4b7d248ab47502",
    ("frame-calculus", "identities:sparse-n3N2"):
        "c4b661fc4e1afd01eed307410ee083d600f377c481706ed36b2bce0809ad7575",
    ("normalize-dense", "normalize:deform-n1N6"):
        "a702d1ced0e5a63994e3b992c7ffb1ce1b44574b3b540486e99102428d984f95",
    ("normalize-dense", "normalize:deform-n2N2"):
        "0e39ba8def82bab3251041102ea14f64428146b0a93dd24dfa08b28b0eada743",
    ("normalize-dense", "normalize:deform-n2N3"):
        "d4e156378ad368afb6bd2911ba7b0fff51c55330f29d5b6709f6178961dff8a0",
}, 7: {
    ("frame-calculus", "torsion:full-n2N2"):
        "22cb3b910ac6f8e81826419fe78bbda04e576f0f3fb016134197fd461f9a123e",
    ("frame-calculus", "decompose:full-n2N2"):
        "afabb9990a8c468ac28b810fcc0a263d7238d29ba9149054399d36cf27cd61dd",
    ("frame-calculus", "identities:full-n2N2"):
        "70fee068b2f41e46165c545d1dca76764d77e68b4ab6bc7b03b22951cedf7f94",
    ("frame-calculus", "torsion:sparse-n3N2"):
        "c0f621fb970f853ad2927bfe00b0b0a96544b05c0c09ec82d1d089f8683399d7",
    ("frame-calculus", "decompose:sparse-n3N2"):
        "423b27cd03b4623fefd9b7af42ed0ed4bfe1fbe60c6e7d90fd2a2b522db09cc3",
    ("frame-calculus", "identities:sparse-n3N2"):
        "c4b661fc4e1afd01eed307410ee083d600f377c481706ed36b2bce0809ad7575",
    ("normalize-dense", "normalize:deform-n1N6"):
        "4e9f08d43946c18bd62ec8383cbe9eba92abc922ea02cab89adf77900959b088",
    ("normalize-dense", "normalize:deform-n2N2"):
        "10045bd28dfea0bb442bd465b64b04cc5602aacf19e9067b827d0fa8d3cbe78c",
    ("normalize-dense", "normalize:deform-n2N3"):
        "e0c737173c9a847ba83dbb03fc820d30d097871a14087f44994a89f52507726e",
}}
# (seed, workload) for every pinned table; seed-1 cases keep the bare
# workload as their id
CASES = [(seed, w) for seed, table in DIGESTS.items() for w in sorted({w for w, _ in table})]


def _document(report, payload):
    doc = report.to_document()
    if payload:
        doc["data"] = payload
    return json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("seed, workload", CASES,
                         ids=[w if seed == 1 else f"{w}-seed{seed}" for seed, w in CASES])
def test_generated_report_bytes(seed, workload):
    table = DIGESTS[seed]
    tasks = workloads.build(workload, seed, False, ROOT)
    assert sorted(t.id for t in tasks) == sorted(i for w, i in table if w == workload)
    for task in tasks:
        text = _document(*task.run())
        assert hashlib.sha256(text.encode()).hexdigest() == table[(workload, task.id)], \
            task.id


if __name__ == "__main__":
    print("DIGESTS = {", end="")
    for n, seed in enumerate(DIGESTS):
        print(f"{'}, ' if n else ''}{seed}: {{")
        for workload in sorted({w for w, _ in DIGESTS[seed]}):
            for task in workloads.build(workload, seed, False, ROOT):
                print(f"    ({workload!r}, {task.id!r}):".replace("'", '"'))
                print(f'        "{hashlib.sha256(_document(*task.run()).encode()).hexdigest()}",')
    print("}}")
