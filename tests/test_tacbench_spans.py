"""Every span target tacbench patches must still exist.

``benchmarks/tacbench/spec.py::SPANS`` names the callables the traced pass
wraps as ``"module:qualname"`` strings; ``tracing.install`` degrades a
target that no longer resolves to a ``trace_missing`` row instead of
failing, so a rename under ``src/`` can blind the per-layer metrics
without any test noticing.  This reads the table (and changes nothing
there) and resolves each target the way ``tracing._resolve`` does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPEC_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tacbench" / "spec.py"


def _load_spec():
    module_spec = importlib.util.spec_from_file_location("tacbench_spec", SPEC_PATH)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


SPANS = _load_spec().SPANS


def test_span_table_is_well_formed():
    names = [name for name, _target, _envelope in SPANS]
    assert len(names) == len(set(names)) > 0
    assert all(isinstance(envelope, bool) for _name, _target, envelope in SPANS)


@pytest.mark.parametrize("name,target", [(name, target) for name, target, _envelope in SPANS])
def test_span_target_resolves(name, target):
    module_name, _, qualname = target.partition(":")
    assert module_name.startswith("repro.") and qualname, target
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        assert hasattr(owner, part), f"span {name!r}: {target} has no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner), f"span {name!r}: {target} is not callable"
