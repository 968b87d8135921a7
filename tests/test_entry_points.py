"""The engine names and signatures that the benchmark's tracer relies on."""
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, monkeypatch):
    """perfbench/<name>.py as a module, registered until the test ends
    (dataclasses look their module up in sys.modules)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    missing = [
        name
        for name, (owner, attr) in tracing.ENTRY_POINTS.items()
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_traced_ops_fire_the_required_spans(monkeypatch, tmp_path):
    """One point, one h1 and one psi op under the installed tracer.

    Every hook runs without raising, enveloping.column fires and its hook
    sees its arguments, and so does every span the scan-slice-p5 and
    points-mixed workloads require.  The tracer's rebinding is undone at
    the end of the test.
    """
    tracing, workloads = _load("tracing", monkeypatch), _load("workloads", monkeypatch)
    originals = {id(getattr(owner, attr)) for owner, attr in tracing.ENTRY_POINTS.values()}
    for owner, attr in tracing.ENTRY_POINTS.values():
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    for name, mod in list(sys.modules.items()):
        if name == "d21alpha" or name.startswith("d21alpha."):
            for key, value in list(vars(mod).items()):
                if id(value) in originals:
                    monkeypatch.setattr(mod, key, value)
    tracer = tracing.Tracer()
    tracer.install()
    Op = workloads.Op
    ops = [
        Op("point", 5, 2, (1, 2, 3), (0, 0, 0)),
        Op("h1", 5, 3, (1, 4, 2), (1, 0, 3)),
        Op("psi", 5, 2, (3, 2, 2), (0, 0, 0), 4),
    ]
    for index, op in enumerate(ops):
        answer = tracer.run_op(index, workloads.run_op, op, str(tmp_path))
        workloads.check_op(op, answer)
    summary = tracer.summary()
    fired = {name for name, span in summary.items() if span["calls"]}
    required = set(workloads.REQUIRED_SPANS["scan-slice-p5"])
    required |= set(workloads.REQUIRED_SPANS["points-mixed"])
    assert sorted(required - fired) == []
    assert summary["enveloping.column"]["calls"] > 0
    assert tracer.columns_built > 0
