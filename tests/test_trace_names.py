"""The benchmark's per-layer metrics name functions that exist.

``bench/tracer.py`` wraps the public functions of each layer module by name;
a stage or operation renamed in the program but not there would leave its
metric at 0 without any error.  The tracer is read as source, not imported.
"""

import ast
import inspect
from pathlib import Path

import pytest

from engelcalc import engelcheck, framecalc

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_constant(name):
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not defined in {TRACER.name}")


def _public_functions(module):
    # the tracer's own criterion for what it wraps
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


@pytest.mark.parametrize("constant, module", [("ENGEL_STAGES", engelcheck),
                                              ("FRAMECALC_OPS", framecalc)])
def test_traced_names_are_public_functions(constant, module):
    names = _tracer_constant(constant)
    assert names
    assert sorted(set(names) - _public_functions(module)) == []
