"""The engine names that the benchmark's tracer wraps must keep existing."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        name
        for name, (owner, attr) in tracing.ENTRY_POINTS.items()
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
