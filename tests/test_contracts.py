"""Package-wide contracts: no asserts in the library, no definition that only
tests use, a public API that is exactly what the package imports, and the
benchmark's tracer still finds every module attribute it wraps and still
sees the averaged QFI's base and ladder calls, traced h2 and qfi runs
enter every layer the benchmark requires and match their untraced rows, and
the L1 bench scripts still import against the package."""

import ast
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import qrl

PACKAGE = Path(qrl.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_package_has_no_assert_statements():
    # invariant checks must survive python -O, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _names_read(node, modules) -> Counter:
    """Names and attributes read under node; an attribute of a module, such
    as np.linalg.norm or math.isinf, reads no package member of that name."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name)
        or (isinstance(n, ast.Attribute) and getattr(_root(n), "id", None) not in modules)
    )


def _decorator(node) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _fields_read(tree) -> set:
    """Attribute names loaded under tree, and the names getattr reads."""
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)} | {
        n.args[1].value
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr"
        and len(n.args) > 1 and isinstance(n.args[1], ast.Constant)
    }


def test_every_definition_is_used_by_the_package():
    # reference routes live in tests/oracles.py; a def, class or method that
    # only tests call does not belong in the library.  Dunder methods are
    # called by Python itself, and the console entry is the one definition
    # the package itself need not call.  A dataclass field must be read, by
    # an attribute load or a getattr string, in the package or in the
    # benchmark, whose tracer alone reads OptResult.iterations and QuadSpec.nr
    trees = [
        (path.stem, ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]
    # the names that import statements bind: numpy as np, math, os, ...
    modules = {
        (alias.asname or alias.name).split(".")[0]
        for _, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    reads = sum((_names_read(tree, modules) for _, tree in trees), Counter())
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
        and reads[stmt.name] == _names_read(stmt, modules)[stmt.name]
    ]
    read = set().union(*(_fields_read(tree) for _, tree in trees))
    read |= set().union(*(_fields_read(ast.parse(path.read_text())) for path in PERFBENCH.glob("*.py")))
    unread = [
        f"{mod}.{cls.name}.{stmt.target.id}"
        for mod, cls in defs
        if isinstance(cls, ast.ClassDef) and "dataclass" in map(_decorator, cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read
    ]
    assert (unused, unread) == ([], [])


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
    # or when a traced row differs from its untraced twin.  A face row (IS,
    # where H2 < 0 at t = 0.5) makes its one sigma solve through the traced
    # h2_conditional too
    names = _must_enter("h2-sweep")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    base = qrl.QuadSpec()
    for edge, status in (("CD", "ok"), ("IS", "clamped")):
        cfg = qrl.harness.SweepConfig(edge=edge, metric="h2", samples=2, workers=1)
        plain = qrl.harness._eval_point(cfg, 0.5)
        tr = tracer.Tracer()
        tr.install(qrl)
        try:
            traced = qrl.harness._eval_point(cfg, 0.5)
        finally:
            tr.uninstall()
        assert traced.status == status, edge
        assert traced.csv_fields()[:-1] == plain.csv_fields()[:-1], edge  # all but wall_time_ms
        metrics, _, _ = tracer.analyse(tr.spans, 1, (base.nr, base.n_theta1, base.n_theta2), 0)
        if edge == "CD":
            assert names and [n for n in names if not metrics[n][0] > 0] == []
        else:
            assert metrics["capacity.h2_conditional.final.calls"][0] > 0


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


def test_bench_scripts_import_against_the_package():
    # each script builds its gates, grids and configs when loaded, and a run
    # name other than __main__ skips main().  A child process, because the
    # scripts pin the BLAS thread variables of the process that loads them
    scripts = sorted(str(path) for path in BENCH.glob("*.py"))
    code = "import runpy, sys\nfor path in sys.argv[1:]:\n    runpy.run_path(path, run_name='bench_import')"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, *scripts], capture_output=True, text=True, env=env, timeout=120)
    assert scripts and proc.returncode == 0, proc.stderr
