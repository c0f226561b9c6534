"""Package-wide contracts: no asserts in the library, no definition that only
tests use, a public API that is exactly what the package imports, and the
benchmark's tracer still finds every module attribute it wraps and still
sees the averaged QFI's base and ladder calls, and traced h2 and qfi runs
enter every layer the benchmark requires and match their untraced rows."""

import ast
import math
from collections import Counter
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


def _names_read(node) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_definition_is_used_by_the_package():
    # reference routes live in tests/oracles.py; a def, class or method that
    # only tests call does not belong in the library.  Dunder methods are
    # called by Python itself, and the console entry is the one definition
    # the package itself need not call.
    trees = [
        (path.stem, ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]
    reads = sum((_names_read(tree) for _, tree in trees), Counter())
    kinds = (ast.FunctionDef, ast.ClassDef)
    defs = [(mod, stmt) for mod, tree in trees for stmt in tree.body if isinstance(stmt, kinds)]
    defs += [
        (f"{mod}.{cls.name}", stmt)
        for mod, cls in defs
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, kinds) and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
    ]
    unused = [
        f"{mod}.{stmt.name}"
        for mod, stmt in defs
        if f"{mod}.{stmt.name}" != "cli.main"
        and reads[stmt.name] == _names_read(stmt)[stmt.name]
    ]
    assert unused == []


def test_public_api_is_what_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(qrl.__all__) == sorted(imported)
    assert len(set(qrl.__all__)) == len(qrl.__all__)


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


def _must_enter(workload: str) -> tuple:
    """The benchmark's MUST_ENTER entry, read from the source: importing
    perfbench/run.py would pin the BLAS thread variables of this process."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "MUST_ENTER" for t in node.targets):
            return ast.literal_eval(node.value)[workload]
    raise LookupError("perfbench/run.py defines no MUST_ENTER")


def test_benchmark_tracer_enters_every_h2_layer(monkeypatch):
    # a traced h2-sweep run is incorrect when a MUST_ENTER metric reads 0,
    # for instance when the sigma solve stops calling capacity.nelder_mead,
    # or when a traced row differs from its untraced twin
    names = _must_enter("h2-sweep")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    cfg = qrl.harness.SweepConfig(edge="CS", metric="h2", samples=2, workers=1)
    plain = qrl.harness._eval_point(cfg, 0.5)
    tr = tracer.Tracer()
    tr.install(qrl)
    try:
        traced = qrl.harness._eval_point(cfg, 0.5)
    finally:
        tr.uninstall()
    assert traced.status == "ok"
    assert traced.csv_fields()[:-1] == plain.csv_fields()[:-1]  # all but wall_time_ms
    base = qrl.QuadSpec()
    metrics, _, _ = tracer.analyse(tr.spans, 1, (base.nr, base.n_theta1, base.n_theta2), 0)
    assert names and [n for n in names if not metrics[n][0] > 0] == []


def test_benchmark_tracer_enters_every_qfi_layer(monkeypatch):
    # a traced qfi run is incorrect when a MUST_ENTER metric reads 0 or when
    # a traced row differs from its untraced twin.  The probe scan and the
    # simplex evaluate the batched kernel directly, so the base-grid calls
    # must still come through avg_qfi_at_probe
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    cfg = qrl.harness.SweepConfig(edge="CS", metric="qfi", samples=2, workers=1)
    runs = {
        "qfi-sweep": lambda: qrl.harness._eval_point(cfg, 0.5),
        "qfi-fixed-probe": lambda: qrl.harness.point_report(qrl.VERTICES["C"], qrl.ProbeState(math.pi, 0.0)),
    }
    base = qrl.QuadSpec()
    for workload, run in runs.items():
        plain = run()
        tr = tracer.Tracer()
        tr.install(qrl)
        try:
            traced = run()
        finally:
            tr.uninstall()
        assert traced.status == "ok", workload
        assert traced.csv_fields()[:-1] == plain.csv_fields()[:-1], workload  # all but wall_time_ms
        metrics, _, _ = tracer.analyse(tr.spans, 1, (base.nr, base.n_theta1, base.n_theta2), 0)
        names = _must_enter(workload)
        assert names and [n for n in names if not metrics[n][0] > 0] == [], workload
