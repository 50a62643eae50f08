"""Run one circflow benchmark workload and print its metrics.

    python3 bench/run.py --workload flow-values --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
readable summary goes to standard error.  Artefacts are written under
``.bench_out/`` and removed at the end of the run; a traced run leaves its
spans in ``.bench_out/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("flow-values", "class-colorings", "valuation-bounds")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        child = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace)])
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "circflow" / "__init__.py").is_file():
        print(f"error: the circflow sources are missing from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # numpy reads these once, when it loads: cap its thread pools at the CPUs this process may use
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  loaded once, before the timed set-ups: it cannot be re-imported

    from tracing import function_table
    from workloads import run_workload

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    err = sys.stderr
    print(f"{args.workload} seed={args.seed}: {res['rounds']} round(s) in {res['wall_s']:.1f} s, "
          f"{res['attempted']} operations attempted, {res['failed']} failed, "
          f"correct={not res['wrong']}", file=err)
    for name, (value, unit) in res["end_to_end"].items():
        print(f"  {name:<34} {value:12.4f} {unit}", file=err)
    for name, value in res["wall"].items():
        print(f"  {name + ' (wall, not scaled)':<34} {value:12.4f} s", file=err)
    for name, values in res["per_round"].items():
        print(f"  {name} per round: {' '.join(f'{v:.3f}' for v in values)}", file=err)
    for line in res["errors"][:10] + res["wrong"][:10]:
        print(f"  ! {line}", file=err)

    if args.trace:
        tracer = res["tracer"]
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"  spans written to {path.relative_to(ROOT)}; self time per call site:", file=err)
        for (layer, fn), (count, own) in sorted(function_table(tracer.spans).items()):
            print(f"    {layer + '.' + fn:<58} {count:6d} {own:10.4f} s", file=err)
        for name, value in res["per_layer"].items():
            print(f"  {name:<34} {value}", file=err)
        metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in res["per_layer"].items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["end_to_end"].items()}

    print(json.dumps({"correct": not res["wrong"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
