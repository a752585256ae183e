"""The benchmark's per-layer metrics name functions that exist.

``bench/tracer.py`` wraps the public functions of each layer module by name;
a stage or operation renamed in the program but not there would leave its
metric at 0 without any error.  That holds for its stage and operation
tuples, the TrigScalar methods it wraps, and the names its post-call hooks
and metrics read.  The tracer is read as source, not imported.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

from engelcalc import engelcheck, framecalc
from engelcalc.trigring import TrigScalar

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


def test_traced_trig_methods_are_trigscalar_attributes():
    methods = _tracer_constant("TRIG_METHODS")
    assert methods
    assert sorted(m for m in methods if not callable(getattr(TrigScalar, m, None))) == []


def _tracer_method(name):
    tracer = next(node for node in ast.parse(TRACER.read_text()).body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer")
    return next(node for node in tracer.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _spelled_names(method):
    """The "layer.name" strings a tracer method spells out: the keys of the
    dict it returns, the names it reads totals under, and each name it builds
    in a loop over a tuple of strings, as "layer.{op}" or as "{name}...".
    """
    found = []
    for node in ast.walk(method):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            found += [k.value for k in node.value.keys]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("_calls", "_self_ms") \
                and isinstance(node.args[0], ast.Constant):
            found.append(node.args[0].value)
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            items = ast.literal_eval(node.iter)
            for text in ast.walk(ast.Module(body=node.body, type_ignores=[])):
                if not isinstance(text, ast.JoinedStr):
                    continue
                loop_var = [isinstance(part, ast.FormattedValue)
                            and ast.unparse(part.value) == node.target.id
                            for part in text.values]
                if loop_var[0]:
                    found += items
                elif loop_var == [False, True]:
                    found += [text.values[0].value + item for item in items]
    return found


@pytest.mark.parametrize("method", ("_post_hooks", "metrics"))
def test_hooked_and_measured_names_exist(method):
    layers = _tracer_constant("LAYERS")
    ops = set(_tracer_constant("TRIG_METHODS").values())

    def exists(name):
        layer, attr = name.split(".")
        if layer == "trigring" and attr in ops:
            return True
        if name == "framecalc.validate":  # the one method wrapped by name
            return inspect.isfunction(framecalc.FramedSpace.validate)
        return attr in _public_functions(importlib.import_module(f"engelcalc.{layer}"))

    names = {n for n in _spelled_names(_tracer_method(method))
             if re.fullmatch(r"\w+\.\w+", n) and n.split(".")[0] in layers}
    assert names
    assert sorted(n for n in names if not exists(n)) == []


def test_every_engel_stage_takes_the_derivation():
    # one calling convention: each stage, and the totally-real check, reads
    # its target from the Derivation
    for name in (*_tracer_constant("ENGEL_STAGES"), "totally_real_check"):
        params = list(inspect.signature(getattr(engelcheck, name)).parameters)
        assert params == ["ctx"], name
