"""The names the benchmark imports and wraps still exist.

``perfbench/`` imports package names and ``perfbench/traced.py``
replaces package functions and methods by name. A rename or removal of
any of them fails here, in the test suite, and not only when the
benchmark runs.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np

import ehrlich.cli as cli
from ehrlich import records
from ehrlich.proposers import baseline_mutation_proposer

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


def test_traced_proposals_are_not_ga_mutate_calls(monkeypatch):
    # propose draws through the GA's sampler; ga.mutate.s must still time only the GA
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import traced

    tracer = spans.Tracer()
    try:
        traced.install(tracer)
        baseline_mutation_proposer(0.1, 4, 8).propose(
            np.zeros((3, 8), dtype=np.int64), 1.0, 2, seed=1)
    finally:
        tracer.unwrap_all()
    names = [span[0] for span in tracer.spans]
    assert "proposers.propose" in names
    assert "ga.mutate" not in names


def test_run_ga_reaches_every_traced_record_layer(monkeypatch, tmp_path):
    # perfbench's records.* layer metrics are read from these spans: a write
    # path that no longer calls RunRecord.to_csv and to_json leaves them empty
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import traced

    tracer = spans.Tracer()
    try:
        traced.install(tracer)
        code = cli.main(["run-ga", "--name", "Ehr(4,16)-2-2-2", "--instance-seed", "1",
                         "--budget", "200", "--particles", "20", "--seed-list", "0",
                         "--out-dir", str(tmp_path)])
    finally:
        tracer.unwrap_all()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    assert "records.make_run_record" in names
    [write] = [i for i, name in enumerate(names) if name == "records.write_run_record"]
    for name in ("records.to_csv", "records.to_json"):
        [(parent, counts)] = [(span[3], span[5]) for span in tracer.spans if span[0] == name]
        assert parent == write
        assert counts["bytes"] > 0


def test_each_traced_ledger_batch_has_one_unique_flags_span(monkeypatch, tmp_path):
    # records.unique_flags.s is read from the spans of the one uniqueness
    # pass each batch makes inside the ledger, through the module global
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import traced

    tracer = spans.Tracer()
    try:
        traced.install(tracer)
        code = cli.main(["run-ga", "--name", "Ehr(4,16)-2-2-2", "--instance-seed", "1",
                         "--budget", "200", "--particles", "20", "--seed-list", "0",
                         "--out-dir", str(tmp_path)])
    finally:
        tracer.unwrap_all()
    assert code == 0
    batches = [i for i, span in enumerate(tracer.spans)
               if span[0] == "records.EvalLedger.evaluate_batch"]
    flags = [span[3] for span in tracer.spans if span[0] == "records.unique_flags"]
    assert len(batches) == 10
    assert sorted(flags) == batches
