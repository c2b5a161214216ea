"""The names the benchmark in perfbench/ calls or traces still resolve.

perfbench/ lives outside the package and is not run by this suite, so a
rename or deletion in harborth would otherwise break it silently.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from harborth.pipeline import Pipeline

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    """TARGETS of perfbench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS in %s" % TRACING)


@pytest.mark.parametrize("metric, module, attr", _targets())
def test_traced_target_resolves(metric, module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), metric


@pytest.mark.parametrize("method, params", [
    ("_witness", ["self", "spec", "prec"]),
    ("_witness_fn", ["self", "spec"]),
    ("_select_bivariate", ["self", "parent", "main", "param", "spec"]),
])
def test_pipeline_method_signature(method, params):
    assert list(inspect.signature(getattr(Pipeline, method)).parameters) \
        == params
