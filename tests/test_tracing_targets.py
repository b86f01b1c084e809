"""Every name the benchmark tracer spans still exists.

``perfbench/tracing.py`` patches the functions and methods listed in its
``SPAN_TARGETS`` by name.  A rename or deletion in ``acgeom`` would otherwise
surface only when a traced benchmark run fails to install its spans.
"""

import importlib
import importlib.util
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
