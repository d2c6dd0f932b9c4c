"""Layered benchmark of the ehrlich package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ga-1m --seed 0 --seconds 20 --trace 0

``--trace 0`` runs the workload's commands as child processes, one at a
time, for at least ``--seconds`` seconds of whole rounds, and prints the
end-to-end metrics; ``--trace 1`` runs the traced pass and prints the
per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Each run
also writes ``bench_results/BENCH_<workload>_...json`` with the machine
facts, the per-round figures and any failed check. See README.md.
"""

from __future__ import annotations

import os

# One command at a time on one thread: BLAS and OpenMP pools would
# compete with the command for the same cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import datetime  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import traced  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
    "record_mb": "MB",
    "score_seq_per_s": "seq/s",
    "eval_seq_per_s": "seq/s",
}
# The whole run, set-up and checks included, must end within 180 s.
TIME_LIMIT_S = 170
ROUND_DEADLINE_S = 120


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(root: Path) -> dict:
    from ehrlich.kernels import active_backend

    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = done.stdout.strip() if done.returncode == 0 else None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "EHRLICH_BACKEND": os.environ.get("EHRLICH_BACKEND"),
        "active_backend": active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": commit,
        "source_sha256": source_digest(root / "src"),
    }


def _timeout(signum, frame):
    raise TimeoutError(f"benchmark exceeded {TIME_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: solver seed and pool draws (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="minimum measured time of whole rounds (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "ehrlich" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'ehrlich'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ehrlich

    if not Path(ehrlich.__file__).resolve().is_relative_to(src):
        print(f"error: imported ehrlich from {ehrlich.__file__}, not {src}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(TIME_LIMIT_S)
    started = time.time()
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = traced.traced_run(args.workload, work, args.seed)
            tracer = result.pop("tracer")
            units = {k: v[0] for k, v in traced.LAYER_METRICS.items()}
            units.update({k: v[0] for k, v in traced.COMMAND_METRICS.items()})
        else:
            deadline = time.perf_counter() + ROUND_DEADLINE_S
            result = workloads.measured_run(args.workload, root, work, args.seed,
                                            args.seconds, deadline)
            tracer = None
            units = END_TO_END
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    missing = [k for k in units if result["metrics"].get(k) is None]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}; problems: {result['problems']}",
              file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": float(result["metrics"][k]), "unit": units[k]} for k in units},
    }

    out_dir = root / "bench_results"
    out_dir.mkdir(exist_ok=True)
    stamp = datetime.datetime.fromtimestamp(started, datetime.timezone.utc)
    label = (f"{args.workload}_seed{args.seed}_trace{args.trace}_"
             f"{stamp:%Y%m%dT%H%M%SZ}_{os.getpid()}")
    details = {k: v for k, v in result.items() if k not in ("metrics", "attempted", "failed")}
    if tracer is not None:
        spans_path = out_dir / f"SPANS_{label}.json"
        tracer.write(spans_path)
        details["spans_file"] = spans_path.name
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": stamp.isoformat(),
        "wall_s": time.time() - started,
        "machine": machine_facts(root),
        **line,
        **details,
    }
    (out_dir / f"BENCH_{label}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
