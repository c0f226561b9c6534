"""Package-wide contracts: no asserts in the library, and the benchmark's
tracer still finds every module attribute it wraps."""

import ast
from pathlib import Path

import qrl

PACKAGE = Path(qrl.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_package_has_no_assert_statements():
    # invariant checks must survive python -O, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    modules = (qrl.capacity, qrl.fisher, qrl.harness)
    before = [dict(vars(m)) for m in modules]
    tr = tracer.Tracer()
    tr.install(qrl)
    try:
        wrapped = [(m.__name__, k) for m, b in zip(modules, before) for k, v in b.items() if vars(m)[k] is not v]
    finally:
        tr.uninstall()
    assert ("qrl.harness", "best_probe_h2") in wrapped
    assert ("qrl.capacity", "h2_conditional") in wrapped
    for m, b in zip(modules, before):
        assert vars(m).keys() == b.keys()
        assert all(vars(m)[k] is v for k, v in b.items()), m.__name__
