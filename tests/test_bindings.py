"""Names that code outside the package binds to must exist.

perfbench/tracer.py wraps nashprox functions, methods and constructors by
name, and the benchmark smoke run fails when one of them is gone. These
tests read its binding tables, without installing the tracer, so that a
deletion or rename fails here first, and so does a reordered parameter that
an amount extractor reads by position. Every name in nashprox.__all__ must
resolve too.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
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


# the parameter each amount extractor reads, by name or by position
_AMOUNTS = {"sampling.sample_batch_gradient": "batch",
            "graphs.consensus_apply": "tau"}
_EXTRACTORS = [(m, n, a) for m, n, _, a in _TRACER.FUNCTIONS if a is not None]


@pytest.mark.parametrize("mod,name,amount", _EXTRACTORS,
                         ids=[f"{m}.{n}" for m, n, _ in _EXTRACTORS])
def test_amount_extractor_reads_its_parameter_by_position_and_name(
        mod, name, amount):
    """The extractors read a[2] when the amount is passed by position, so
    a reordered signature would count the wrong argument."""
    param = _AMOUNTS[f"{mod}.{name}"]
    params = list(inspect.signature(getattr(
        importlib.import_module(f"nashprox.{mod}"), name)).parameters)
    position = amount(tuple(range(len(params))), {})
    assert params[position] == param
    assert amount((), {param: 7}) == 7


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
