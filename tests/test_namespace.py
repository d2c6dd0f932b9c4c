"""The package namespace loads submodules on first use.

Each check runs in a fresh interpreter, because this test process has
already imported every submodule.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import ehrlich

SRC = str(Path(ehrlich.__file__).resolve().parents[1])


def run_fresh(code: str):
    """The JSON value that ``code`` prints in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


LOADED = "sorted(m for m in sys.modules if m.startswith('ehrlich.'))"


def test_import_loads_no_submodule():
    assert run_fresh(f"""
        import json, sys
        import ehrlich
        print(json.dumps({LOADED}))
    """) == []


def test_generate_and_score_load_only_the_scoring_modules():
    assert run_fresh(f"""
        import json, sys
        import ehrlich
        fn = ehrlich.generate(ehrlich.EhrlichParams.from_name("Ehr(4,16)-2-2-2", seed=1))
        ehrlich.evaluate_batch(fn, fn.optimum[None, :])
        print(json.dumps({LOADED}))
    """) == ["ehrlich.errors", "ehrlich.function", "ehrlich.kernels", "ehrlich.rng"]


def test_the_loss_lab_is_a_leaf_module():
    assert run_fresh(f"""
        import json, sys
        import ehrlich.losses
        print(json.dumps({LOADED}))
    """) == ["ehrlich.errors", "ehrlich.losses"]


def test_every_public_name_is_the_object_its_module_defines():
    wrong = run_fresh("""
        import importlib, inspect, json
        import ehrlich
        wrong = []
        for name, module_name in ehrlich._EXPORTS.items():
            module = importlib.import_module(f"ehrlich.{module_name}")
            value = getattr(ehrlich, name)
            if value is not getattr(module, name) or inspect.getmodule(value) is not module:
                wrong.append(name)
        if sorted(ehrlich.__all__) != sorted([*ehrlich._EXPORTS, "__version__"]):
            wrong.append("__all__")
        print(json.dumps(wrong))
    """)
    assert wrong == []


def test_submodules_are_attributes_after_a_plain_import():
    assert run_fresh("""
        import json
        import ehrlich
        print(json.dumps([ehrlich.records.read_run_record.__module__,
                          ehrlich.tables.__name__, ehrlich.cli.__name__]))
    """) == ["ehrlich.records", "ehrlich.tables", "ehrlich.cli"]


def test_dir_covers_all_and_an_unknown_name_raises_attribute_error():
    missing, message, private = run_fresh("""
        import json
        import ehrlich
        missing = sorted(set(ehrlich.__all__) - set(dir(ehrlich)))
        try:
            ehrlich.no_such_name
        except AttributeError as exc:
            message = str(exc)
        print(json.dumps([missing, message, hasattr(ehrlich, "_no_such_module")]))
    """)
    assert missing == []
    assert message == "module 'ehrlich' has no attribute 'no_such_name'"
    assert private is False


def test_star_import_binds_every_name():
    assert run_fresh("""
        import json
        from ehrlich import *
        import ehrlich
        print(json.dumps([name for name in ehrlich.__all__ if name not in globals()]))
    """) == []
