"""Command-line front end.

Examples::

    reluflow list-experiments
    reluflow run --config configs/angle-m0-small.cfg --seed 7
    reluflow run --config a.cfg --config b.cfg --out runs/batch
    reluflow run --config configs/reanchor-m1.cfg --out runs/reanchor
    reluflow run --config configs/lemma-verify.cfg --seed 0

Every run starts from a config file; the experiment and its settings are
config keys. Re-anchored bands are the ``reanchor`` experiment, with the
anchor steps under its ``anchors`` key; the Monte Carlo moment check is
``lemma-verify``, with the dimension under ``d`` and the samples per
estimate under ``n``.

An invocation runs its configs one after another. It plans their descents
first and marches the distinct ones together, one batch per dimension,
before the runs start; each distinct descent is computed once. Runs whose
descents have the same inputs (``angle-m0-small`` and
``magnitude-m0-small``, say) share one trajectory, and the line of every
such run after the first ends with ``(descent shared)``. Every artifact is
byte-identical to the run's own. Each run's line prints as that run ends,
and no failure while planning or batching descents stops an earlier run: a
plan or a batch that raises is tried again at its own run's turn.

Exit status is 0 exactly when every check in every run passed, 1 when some
check failed, 2 on a configuration or usage error (two configs writing to
one output directory, an empty ``--out``, or an output that cannot be
written, included), and 3
when a run failed: a trajectory diverged, an iteration did not converge, no
evaluation path exists, a routine was handed an argument outside its
domain, a float operation overflowed or divided by zero, or the run ran out
of memory.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import (ConfigError, ConvergenceError, DimensionError, DivergenceError,
                     DomainError, UnavailableError)
from .experiments import (
    EXPERIMENTS,
    DescentMemo,
    ExperimentResult,
    RunConfig,
    _run_dir,
    parse_config_file,
    plan_descents,
    run_experiment,
)


def _load(path: str, args: argparse.Namespace, multi: bool) -> RunConfig:
    cfg = parse_config_file(path)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.paper_scale:
        cfg = replace(cfg, paper_scale=True)
    if args.out is not None:
        if not args.out:  # Path('') would be the working directory
            raise ConfigError("--out needs a value")
        out = Path(args.out) / Path(path).stem if multi else Path(args.out)
        cfg = replace(cfg, output_dir=str(out))
    return cfg


def _report(res: ExperimentResult) -> bool:
    checks = res.report["checks"]
    status = "PASS" if res.passed else "FAIL"
    shared = " (descent shared)" if res.descent_shared else ""
    print(
        f"[{status}] {res.report['experiment']} seed={res.report['seed']} "
        f"({sum(c['pass'] for c in checks)}/{len(checks)} checks) -> {res.output_dir}{shared}"
    )
    for c in checks:
        if not c["pass"]:
            print(f"    failed: {c['name']} margin={c['margin']:.3g}")
    return res.passed


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reluflow",
        description="single-ReLU-neuron training dynamics: runs, bands, checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one or more experiment configs")
    p_run.add_argument(
        "--config",
        action="append",
        required=True,
        metavar="PATH",
        help="config file; repeat to run several",
    )
    p_run.add_argument("--jobs", type=int, choices=[1], default=1,
                       help="runs are serial; kept for command lines that pass 1")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the full-size problem settings instead of the fast desk defaults",
    )
    p_run.add_argument(
        "--out",
        default=None,
        help="output directory (treated as a base dir when several configs run)",
    )

    sub.add_parser("list-experiments", help="list the available experiment kinds")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "list-experiments":
            width = max(map(len, EXPERIMENTS))
            for name in sorted(EXPERIMENTS):
                print(f"{name:<{width}}  {EXPERIMENTS[name].description}")
            return 0
        cfgs = [_load(p, args, multi=len(args.config) > 1) for p in args.config]
        owners: dict[Path, str] = {}  # two runs into one directory overwrite each other
        for path, cfg in zip(args.config, cfgs):
            out = _run_dir(cfg).resolve()
            if out in owners:
                raise ConfigError(f"{owners[out]} and {path} both write to {_run_dir(cfg)}")
            owners[out] = path
        memo = DescentMemo()  # this invocation's descents, dropped on return
        memo.prefill(plan_descents(cfgs))
        # Each run's line prints as the run ends, so a later run that raises
        # leaves the earlier ones reported.
        flags = [_report(run_experiment(c, memo)) for c in cfgs]
        return 0 if all(flags) else 1
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, DimensionError, ConvergenceError, DivergenceError,
            UnavailableError, ArithmeticError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
