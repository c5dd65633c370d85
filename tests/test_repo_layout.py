"""The repository's shape, checked statically.

- Which modules of ``src/repro`` the product reaches: a static import
  graph (imports inside functions included) from the entry points a
  deployment runs.  What it cannot reach is test and experiment
  support; the list is pinned so nothing new lands outside the product
  unnoticed.
- ``benchmarks/`` holds one benchmark, the e2e ledger.
- DESIGN.md's package-layout block names exactly the modules that exist.
- Every ``repro`` name the e2e harness imports or reads still exists:
  ``benchmarks/e2e`` runs against each commit as it is, so a rename
  there would only surface when the benchmark runs.  The
  ``ShardRouter`` placeholder the harness's traced pass drives is
  called as the harness calls it.
- The configured warning filters let Hypothesis report a failure.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: the entry points a deployment runs: the library, ``python -m repro``,
#: the CLI, the HTTP server and the query service
PRODUCT_ROOTS = ("repro", "repro.__main__", "repro.cli", "repro.server",
                 "repro.service")

#: modules the product never imports: the closure oracle, the counter
#: split the differentials use, the XSLT stand-in, the streaming
#: broker and projection, the workload generators, and the placeholder
#: for the retired scatter router that the e2e harness still imports
OUTSIDE_THE_PRODUCT = {
    "repro.compiler.reference", "repro.observability.counters",
    "repro.baselines", "repro.baselines.tree_transformer",
    "repro.service.sharding",
    "repro.stream", "repro.stream.automaton", "repro.stream.broker",
    "repro.stream.matcher", "repro.stream.projection",
    "repro.stream.xpath_subset",
    "repro.workloads", "repro.workloads.ebxml", "repro.workloads.messages",
    "repro.workloads.synthetic", "repro.workloads.xmark",
    "repro.workloads.xmark_queries",
}


def _modules() -> dict[str, Path]:
    """Dotted module name → source file, for every module of the package."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(name: str, path: Path, modules: dict[str, Path]) -> set[str]:
    """The package modules ``name`` imports anywhere in its body; a
    dotted import also loads every package above the module."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    targets = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            targets.add(base)
            targets.update(f"{base}.{alias.name}" for alias in node.names)
    found = set()
    for target in targets:
        parts = target.split(".")
        found.update(".".join(parts[:i]) for i in range(1, len(parts) + 1)
                     if ".".join(parts[:i]) in modules)
    return found


def test_modules_outside_the_product_are_pinned():
    modules = _modules()
    reached: set[str] = set()
    todo = list(PRODUCT_ROOTS)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_imports(name, modules[name], modules) - reached)
    assert set(modules) - reached == OUTSIDE_THE_PRODUCT


def test_benchmarks_holds_only_the_e2e_ledger():
    entries = {p.name for p in (ROOT / "benchmarks").iterdir()
               if not p.name.startswith((".", "__pycache__"))}
    assert entries == {"e2e"}


def _design_layout() -> set[str]:
    """The files DESIGN.md's package-layout block names, relative to
    ``src/repro``; a listed package stands for its ``__init__.py`` too."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    block = text.split("## Package layout", 1)[1].split("```")[1]
    files: set[str] = set()
    package = ""
    for line in block.splitlines()[1:]:  # after "src/repro/"
        words = line.split()
        if not words:
            continue
        indent = len(line) - len(line.lstrip())
        if indent == 2 and words[0].endswith("/"):
            package = words[0]
            files.add(package + "__init__.py")
            words = words[1:]
        elif indent == 2:
            package = ""
            words = words[:1]
        files.update(package + w for w in words if re.fullmatch(r"\w+\.py", w))
    return files


def test_design_package_layout_names_every_module():
    actual = {path.relative_to(SRC / "repro").as_posix()
              for path in (SRC / "repro").rglob("*.py")}
    documented = _design_layout()
    assert sorted(documented - actual) == []  # named, but not there
    assert sorted(actual - documented) == []  # there, but not named


def _harness_names() -> set[tuple[str, str]]:
    """``(module, name)`` for every ``from repro... import name`` in the
    e2e harness, at any depth, and every ``repro.<name>`` it reads."""
    names = set()
    for path in sorted((ROOT / "benchmarks" / "e2e").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and not node.level \
                    and (node.module or "").split(".")[0] == "repro":
                names.update((node.module, alias.name)
                             for alias in node.names)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "repro":
                names.add(("repro", node.attr))
    return names


def test_every_repro_name_the_e2e_harness_uses_exists():
    names = _harness_names()
    assert ("repro.service.sharding", "ShardRouter") in names
    missing = []
    for module, name in sorted(names):
        try:
            getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{module}.{name}: {exc}")
    assert missing == []


@pytest.mark.skipif(not hasattr(__import__("os"), "fork"),
                    reason="the worker pool needs os.fork")
def test_shard_router_placeholder_takes_the_harness_calls(tmp_path):
    """``layers.scatter_vs_single`` builds the router over a real core
    and pool, asks it for every collection query, then shuts it down;
    ``None`` sends it to the single-worker ``("execute", ...)`` call."""
    from repro import ExecutionOptions
    from repro.server.tenants import AppCore
    from repro.service import ForkWorkerPool
    from repro.service.sharding import ShardRouter

    core = AppCore(ExecutionOptions(data_dir=str(tmp_path)))
    for name in ("a", "b"):
        core.ingest("t", name, "<r><n>1</n></r>")
    text, declared, bindings = "count(collection()//n)", (), {}
    with ForkWorkerPool(core.handle, workers=2) as pool:
        router = ShardRouter(core, pool)
        try:
            assert router.try_execute("t", text, bindings, declared,
                                      "json") is None
            reply = pool.call(("execute", "t", text, bindings, declared,
                               "json", None, False))
        finally:
            router.shutdown()
    assert reply["status"] == 200 and reply["payload"]["items"] == [2]


def test_configured_warning_filters_let_hypothesis_report(tmp_path):
    """Hypothesis imports libcst to print a falsifying example; under
    ``error::DeprecationWarning`` that import must not raise, or the
    failure is reported as an internal error instead of the example."""
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("libcst is not installed")
    probe = tmp_path / "test_probe.py"
    probe.write_text("import libcst  # noqa: F401\n\n\n"
                     "def test_probe():\n    pass\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
         str(probe)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
