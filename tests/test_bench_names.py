"""The names the benchmark's traced run wraps still exist.

``perfbench/traced.py`` replaces package functions and methods by
name. A rename or removal of any of them fails here, in the test
suite, and not only when the benchmark runs.
"""

from pathlib import Path

import ehrlich.cli as cli
from ehrlich import records

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
