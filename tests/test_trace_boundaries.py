"""Every function the benchmark tracer wraps still exists in the package.

`perfbench/spans.py` lists its traced functions by module and name; a
renamed or deleted one breaks `perfbench/run.py --trace 1`.  spans.py
imports only the standard library, so it is loaded here by file path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGE, module.BOUNDARIES


_PACKAGE, _BOUNDARIES = _boundaries()


@pytest.mark.parametrize("home,name", [(home, name) for _, home, name in _BOUNDARIES],
                         ids=[f"{home}.{name}" for _, home, name in _BOUNDARIES])
def test_boundary_resolves(home, name):
    assert callable(getattr(importlib.import_module(f"{_PACKAGE}.{home}"), name))
