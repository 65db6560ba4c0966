"""Record the holdout reference that ``offline_pipeline`` checks against.

Runs the offline pipeline on the first ``--traces`` traces of each seed in
``--seeds`` (trace seeds ``seed*1000 + i``, as the workload draws them)
and merges their holdout accuracy and long-wait MAPE into
``perfbench/holdout_reference.json``.  Run it from the root of a
checkout::

    python3 perfbench/record_reference.py --seeds 0-30

Accuracy is kept to 4 decimals and MAPE to 0.1 %; the check's tolerance
is far wider than that rounding.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

import run as bench  # pins BLAS threads and clears REPRO_* before numpy loads

REFERENCE_PATH = bench.BENCH_DIR / "holdout_reference.json"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-30")
    p.add_argument("--traces", type=int, default=5)
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bench._import_program(Path.cwd())

    from bench_common import Layers
    from wl_offline import N_JOBS, _pipeline

    table = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    out_dir = bench.BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=out_dir)
    try:
        for seed in range(lo, hi + 1):
            for i in range(args.traces):
                s = seed * 1000 + i
                r = _pipeline(s, N_JOBS, workdir, Layers(False))
                table[str(s)] = [round(r.accuracy, 4), round(r.mape_pct, 1)]
                print(s, *table[str(s)], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ordered = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in ordered.items()]
    REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
