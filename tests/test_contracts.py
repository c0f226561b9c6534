"""Package-wide contracts: no asserts in the library, and the benchmark's
tracer still finds every module attribute it wraps and still sees the
averaged QFI's base and ladder calls."""

import ast
import math
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


def test_benchmark_tracer_sees_base_and_ladder_calls(monkeypatch):
    # the traced benchmark reads (nr, n1, n2) from each avg_trace_qfi call;
    # a changed signature or a dropped QuadSpec field must fail here too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    tr = tracer.Tracer()
    tr.install(qrl)
    try:
        qrl.fisher.avg_qfi_at_probe(qrl.VERTICES["C"], qrl.ProbeState(math.pi, 0.0))
    finally:
        tr.uninstall()
    base = qrl.QuadSpec()
    grid = (base.nr, base.n_theta1, base.n_theta2)
    infos = [info for name, *_, info in tr.spans if name == "fisher.avg_trace_qfi"]
    assert infos and all(len(info) == 3 and info[0] == base.nr for info in infos)
    metrics, _, _ = tracer.analyse(tr.spans, 1, grid, 0)
    assert metrics["fisher.avg_trace_qfi.base.calls"][0] > 0
    assert metrics["fisher.avg_trace_qfi.ladder.calls"][0] > 0
