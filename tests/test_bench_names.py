"""The names the benchmark imports and wraps still exist.

``perfbench/`` imports package names and ``perfbench/traced.py``
replaces package functions and methods by name. A rename or removal of
any of them fails here, in the test suite, and not only when the
benchmark runs.
"""

import ast
import importlib.util
from pathlib import Path

import ehrlich.cli as cli
from ehrlich import records

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _imported_names():
    """(file, module, name) for every import from the package in perfbench/*.py;
    ``name`` is None for a plain ``import ehrlich...``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "ehrlich":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "ehrlich":
                        yield path.name, alias.name, None


def test_every_name_perfbench_imports_resolves():
    found = list(_imported_names())
    assert ("run.py", "ehrlich.kernels", "active_backend") in found
    for filename, module_name, name in found:
        module = importlib.import_module(module_name)
        # ``from ehrlich import cli`` may name a submodule not yet imported
        assert name is None or hasattr(module, name) \
            or importlib.util.find_spec(f"{module_name}.{name}") is not None, \
            f"perfbench/{filename} imports {name!r} from {module_name}, which lacks it"


def test_install_finds_every_traced_name_and_unwraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import traced

    def current():
        return (cli.run_presolver, cli.make_run_record, records.unique_flags,
                records.EvalLedger.__dict__["evaluate_batch"])

    before = current()
    tracer = spans.Tracer()
    try:
        traced.install(tracer)  # a missing name raises here
        assert all(now is not old for now, old in zip(current(), before))
    finally:
        tracer.unwrap_all()
    assert current() == before
