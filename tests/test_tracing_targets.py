"""Every name the benchmark tracer spans still exists.

``perfbench/tracing.py`` patches the functions and methods listed in its
``SPAN_TARGETS`` by name.  A rename or deletion in ``acgeom`` would otherwise
surface only when a traced benchmark run fails to install its spans.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name, module, path", tracing.SPAN_TARGETS,
                         ids=[t[0] for t in tracing.SPAN_TARGETS])
def test_span_target_resolves(name, module, path):
    importlib.import_module(module)
    _owner, target = tracing._resolve(module, path)
    assert callable(target)


def test_traced_geodesic_emits_the_same_document():
    """The spans wrap the RK4 oracle without changing a byte of its report."""
    from acgeom import cli

    path = TRACING.parents[1] / "manifests" / "fix_b.json"
    spec = cli.parse_manifold_spec(path.read_text(encoding="utf-8"),
                                   name="fix_b.json")

    def document():
        """The ``--json`` document, payload included, as the CLI prints it."""
        report, payload = cli.run_command("geodesic", spec, cli.Options())
        doc = report.to_document()
        doc["data"] = payload
        return json.dumps(doc, sort_keys=True, indent=2)

    plain = document()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = document()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.totals()["cli.run_command"][0] == 1


def test_traced_decompose_solves_gamma_once_per_frame_pair():
    """``decompose`` on ``fix_b`` with a non-closed metric calls
    ``ChernLeviCivita.gamma`` once per ordered pair of the 2n frame fields,
    so the ``chern.ChernLeviCivita.gamma`` span counts (2n)^2 calls."""
    from acgeom import cli

    doc = json.loads((TRACING.parents[1] / "manifests" / "fix_b.json")
                     .read_text(encoding="utf-8"))
    # h_{2,1} gains 0.2 z_1: d omega != 0
    doc["metric"]["entries"] = [{"alpha": [1, 0], "beta": [0, 0], "k": 2, "l": 1,
                                 "re": 0.2, "im": 0.0}]
    spec = cli.parse_manifold_spec(json.dumps(doc), name="fix_b-nonclosed.json")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report, _ = cli.run_command("decompose", spec, cli.Options())
    finally:
        tracer.uninstall()
    delta = next(r for r in report.rows if r.check == "delta = 0 iff d omega = 0")
    assert report.passed and float(delta.value.split("=")[1]) > 1e-3
    assert tracer.totals()["chern.ChernLeviCivita.gamma"][0] == (2 * spec.n) ** 2
