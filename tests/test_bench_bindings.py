"""The traced benchmark rebinds the module attributes listed in
perfbench/spans.py; each must still exist as a binding of its owner, or
every traced benchmark run fails."""

import importlib.util
from pathlib import Path

import pytest

import pipestab
import pipestab.cli  # noqa: F401  (the cli module is not imported by the package)

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("owner_path,attr,name", load_spans())
def test_span_binding_resolves(owner_path, attr, name):
    owner = pipestab
    for part in owner_path.split("."):
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{owner_path}.{attr} (span {name}) is not bound"
    assert callable(getattr(owner, attr))
