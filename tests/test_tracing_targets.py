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
