"""reluflow benchmark: shipped grid, dynamics bank and moment audit.

Usage, from the root of a reluflow checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Without `--seed`, every workload runs its default inputs: the shipped grid
with each config's own seed, and seed 1 for the dynamics bank and the moment
audit. These are the inputs the recorded reference holds.

`--trace 0` measures the end-to-end metrics with nothing wrapped. `--trace 1`
alternates an untraced and a traced pass and reports the per-layer metrics
from the spans the tracer recorded. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Lines before it
record the environment, failures by check name, the deviation from the
recorded reference and, when tracing, the per-unit costs beside the ROADMAP
baseline.

`--record-reference` runs one pass on the default inputs and stores its
outputs as the reference for that workload under perfbench/reference/.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


# The BLAS/OpenMP thread cap has to be in the environment before NumPy loads.
# One thread: the loops are serial over small arrays, where a second BLAS
# thread buys about 3 % of wall time for 30-50 % more CPU time and ties the
# reading to the load on the other CPU.
NPROC = _nproc()
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREAD_CAP)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("grid", "dynamics", "moments"))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed; without it, the default inputs (see above)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="keep starting passes until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-reference", action="store_true",
                   help="store one pass's outputs on the default inputs as the reference")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "reluflow" / "__init__.py").is_file():
        print(f"error: no reluflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness  # noqa: E402  (imports NumPy and reluflow)
    import workloads  # noqa: E402

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(ROOT, args.seed)
    setup_here = time.perf_counter() - T0
    if args.setup_only:
        print(repr(setup_here))
        return 0
    if args.record_reference:
        if args.seed is not None:
            print("error: the reference is recorded on the default inputs (no --seed)",
                  file=sys.stderr)
            return 2
        return harness.record_reference(workload, inputs, HERE / "reference", OUT)
    return harness.measure(
        workload, inputs, args, setup_cmd=[sys.executable, str(Path(__file__).resolve())],
        root=ROOT, out=OUT, ref_dir=HERE / "reference",
        info=harness.environment(NPROC, THREAD_CAP, THREAD_VARS),
    )


if __name__ == "__main__":
    sys.exit(main())
