"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload refactor_seq --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger of a separate traced pass; the names, units and directions are
the ones in ``BENCHMARK.json``. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The line before it records the inputs (pattern
fingerprints and a digest of the seeded value stream). A traced run
also writes its span trees to ``.perfbench_out/``.

The program is imported from ``src/`` of the checkout this file sits
in; without it the run exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread, set before numpy loads: the only threads and processes
# of a run are the ones its workload starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _import_program() -> None:
    pkg = SRC / "repro" / "__init__.py"
    if not pkg.is_file():
        sys.exit(f"perfbench: program source not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != pkg:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {pkg}")


def _catalog(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _write_spans(workload: str, seed: int, outcome) -> None:
    from repro.obs.export import export_json

    OUT_DIR.mkdir(exist_ok=True)
    meta = {"workload": workload, "seed": seed}
    doc = {role: export_json(tr, meta=dict(meta, role=role))
           for role, tr in outcome.tracers.items()}
    (OUT_DIR / f"{workload}-seed{seed}.json").write_text(json.dumps(doc))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from harness import stop_children
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    trace = bool(args.trace)
    catalog = _catalog(trace)
    # A terminated run still stops its children (the ``finally`` below);
    # a forked worker that inherits the handler dies at once, as by default.
    main_pid = os.getpid()

    def on_term(*_):
        code = 128 + signal.SIGTERM
        if os.getpid() != main_pid:
            os._exit(code)
        sys.exit(code)

    signal.signal(signal.SIGTERM, on_term)
    if not trace:
        # Timed work and the host probe share one CPU: the two vCPUs of a
        # shared host slow down independently. The traced pass keeps
        # every CPU for its proc-engine replay.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, trace)
    finally:
        stop_children()

    unknown = set(outcome.metrics) - set(catalog)
    if unknown:
        sys.exit(f"perfbench: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A layer the workload does not exercise reads 0 (see README.md).
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in catalog.items()
    }
    if trace:
        _write_spans(args.workload, args.seed, outcome)
    gate = outcome.gate
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "samples": outcome.samples, "inputs": outcome.inputs,
                      **outcome.info}))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
