"""Names that code outside the package binds to must exist.

perfbench/tracer.py wraps nashprox functions, methods and constructors by
name, and the benchmark smoke run fails when one of them is gone. These
tests read its binding tables, without installing the tracer, so that a
deletion or rename fails here first. Every name in nashprox.__all__ must
resolve too.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import nashprox

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _tracer()


@pytest.mark.parametrize("mod,name,span,amount", _TRACER.FUNCTIONS,
                         ids=[f"{m}.{n}" for m, n, _, _ in _TRACER.FUNCTIONS])
def test_traced_function_exists_on_its_module(mod, name, span, amount):
    assert callable(getattr(importlib.import_module(f"nashprox.{mod}"), name))


@pytest.mark.parametrize("mod,cls,attr,span", _TRACER.METHODS,
                         ids=[f"{c}.{a}" for _, c, a, _ in _TRACER.METHODS])
def test_traced_method_is_defined_on_its_class(mod, cls, attr, span):
    assert attr in vars(getattr(importlib.import_module(f"nashprox.{mod}"),
                                cls))


@pytest.mark.parametrize("mod,cls,counter", _TRACER.CONSTRUCTORS,
                         ids=[c for _, c, _ in _TRACER.CONSTRUCTORS])
def test_counted_constructor_exists(mod, cls, counter):
    assert isinstance(getattr(importlib.import_module(f"nashprox.{mod}"), cls),
                      type)


def test_every_public_name_resolves():
    missing = [name for name in nashprox.__all__
               if not hasattr(nashprox, name)]
    assert missing == []
    assert len(set(nashprox.__all__)) == len(nashprox.__all__)
