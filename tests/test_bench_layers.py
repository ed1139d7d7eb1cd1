"""The traced benchmark wraps library functions by name (`SPANNED` in
`bench/layers.py`); a renamed or deleted one must fail here, not only in
a traced run."""

import importlib.util
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_layers", Path(__file__).resolve().parents[1] / "bench" / "layers.py"
)
bench_layers = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_layers
_spec.loader.exec_module(bench_layers)


@pytest.mark.parametrize(
    "span, owner, attr", bench_layers.SPANNED, ids=[span for span, _, _ in bench_layers.SPANNED]
)
def test_every_spanned_function_exists(span, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"
