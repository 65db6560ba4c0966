"""Repository benchmark: one command, three workloads, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload offline_pipeline --seed 1 \
        --seconds 24 --trace 0

Workloads (see ``perfbench/README.md``):

- ``offline_pipeline`` — generate_trace → SWF write/read →
  build_feature_matrix → train_trout → holdout predict on 30k-job traces;
- ``live_queries``     — a resident model answering ``trout queue --model``
  style questions (runtime predict → live_features → predict_minutes);
- ``serve_http``       — ``trout serve`` in a child process under an
  open-loop Poisson load of real feature rows, plus a short rate ladder.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced pass over the same inputs and prints the per-layer
metrics, writing the traced pass's spans as a telemetry snapshot under
``perfbench/out/`` (render it with ``trout telemetry --format=chrome``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any output failed its correctness check.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP to one thread before anything imports numpy: the NN
# training stage's wall time varies twofold under default threading.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(PINNED_THREADS)
# The program's REPRO_* knobs select engines, dtypes and worker counts;
# the benchmark measures the defaults, whatever the caller exported.
for _name in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_name]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).absolute().parent
WORKLOADS = ("offline_pipeline", "live_queries", "serve_http")


def _parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _import_program(root: Path) -> Path:
    """Put the checkout's ``src/`` first on the path and import from it.

    Refuses to fall back to any other installed copy: the benchmark
    measures the source tree it runs in.
    """
    src = (root / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"benchmark: no program source at {src}/repro; run from the "
            "root of a checkout"
        )
    sys.path.insert(0, str(src))
    import repro

    where = Path(repro.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"benchmark: imported repro from {where}, not {src}")
    return src


def _declared_metrics(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """``name → unit`` of the end-to-end and per-layer metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    # SIGTERM unwinds like an error, so every child process is stopped.
    signal.signal(signal.SIGTERM, lambda _sig, _frm: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    src = _import_program(root)
    e2e_units, layer_units = _declared_metrics(root)

    import numpy as np

    from bench_common import Context

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": PINNED_THREADS,
    }
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)

    ctx = Context(
        seed=args.seed,
        seconds=float(args.seconds),
        traced=bool(args.trace),
        root=root,
        src=src,
        out_dir=BENCH_DIR / "out",
    )
    if args.workload == "offline_pipeline":
        from wl_offline import run
    elif args.workload == "live_queries":
        from wl_live import run
    else:
        from wl_serve import run
    outcome = run(ctx)

    units = layer_units if args.trace else e2e_units
    values = dict(outcome.metrics)
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    if args.trace:
        # A layer this workload never reaches did no work in it.
        for name in units:
            values.setdefault(name, 0.0)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    for line in outcome.notes:
        print(line)
    for name in units:
        print(f"{name:<28} {values[name]:>16.6g} {units[name]}")
    result = {
        "correct": outcome.failed == 0 and not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }
    for err in outcome.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
