"""Every name that ``perfbench/tracer.py`` patches still exists in cnfgrad.

The tracer replaces package functions and methods by name, so a deleted
or renamed one would otherwise fail only in a traced benchmark run. The
tracer is read from its file and left as it is.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"))
HINT = "perfbench/tracer.py patches it by name, so a benchmark change must drop its span first (ROADMAP item 7)"


@pytest.mark.parametrize("module,name,span", TRACER["FUNCTIONS"], ids=[span for *_, span in TRACER["FUNCTIONS"]])
def test_traced_function_exists(module, name, span):
    owner = importlib.import_module(f"cnfgrad.{module}")
    assert callable(getattr(owner, name, None)), f"cnfgrad.{module}.{name} is gone, but {HINT}"


# "TaskSpec" entries wrap whichever task classes define the method, so none is required.
CLASS_METHODS = [entry for entry in TRACER["METHODS"] if entry[1] != "TaskSpec"]


@pytest.mark.parametrize("module,cls,name,span", CLASS_METHODS, ids=[span for *_, span in CLASS_METHODS])
def test_traced_method_exists(module, cls, name, span):
    owner = getattr(importlib.import_module(f"cnfgrad.{module}"), cls, None)
    assert owner is not None and callable(vars(owner).get(name)), f"cnfgrad.{module}.{cls}.{name} is gone, but {HINT}"
