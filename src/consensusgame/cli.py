"""Command-line interface.

One subcommand per claim the library backs:

    simulate            run a scenario, write the trace CSV
    shapley             allocation of a payoff-function file
    core-check          classical core emptiness of a payoff-function file
    bayesian-core       Bayesian-core emptiness across opinion files
    exp-efficiency      average-opinion drift with and without p_i ~ t_i
    exp-core-emptiness  per-n empty-core frequency over sampled opinions
    exp-po-sweep        opinion spread and core verdict across p_o

Exit status: 0 when the run's verdict passes, 1 when it fails, 2 on bad
input or a run that cannot be decided, 3 on an internal error (a fault in
the program rather than in its input).  Errors are reported on stderr.
Verdicts are decided by the harness; this module only formats them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .consensus import ConsensusError
from .core import bayesian_core_is_empty, core_witness
from .harness import (
    ScenarioError,
    core_emptiness_verdict,
    experiment_core_emptiness,
    experiment_efficiency,
    experiment_po_sweep,
    load_scenario,
    po_sweep_verdict,
    run_simulation,
    trace_chunks,
)
from .setfn import SamplerError, SetFunctionError, read_setfn
from .shapley import shapley_value


def _common_flags(default: bool) -> argparse.ArgumentParser:
    # the same flags hang off the main parser and every subcommand, so they
    # are accepted on either side of the command word; the subcommand copy
    # suppresses defaults to avoid clobbering values parsed up front
    holder = argparse.ArgumentParser(add_help=False)
    suppress = argparse.SUPPRESS
    holder.add_argument(
        "--seed",
        type=int,
        default=None if default else suppress,
        help="override the scenario seed",
    )
    holder.add_argument(
        "--out",
        default=None if default else suppress,
        help="output file (default: stdout)",
    )
    holder.add_argument(
        "--tol",
        type=float,
        default=1e-9 if default else suppress,
        help="feasibility tolerance",
    )
    holder.add_argument(
        "--json-summary",
        action="store_true",
        default=False if default else suppress,
        help="emit a machine-readable result record on stdout",
    )
    return holder


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consensusgame",
        description="Coalitional games with strategic opinion exchange.",
        parents=[_common_flags(default=True)],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = [_common_flags(default=False)]

    p = sub.add_parser("simulate", parents=shared, help="run a scenario and emit its trace CSV")
    p.add_argument("scenario")

    p = sub.add_parser("shapley", parents=shared, help="Shapley allocation of a payoff-function file")
    p.add_argument("setfn")

    p = sub.add_parser("core-check", parents=shared, help="classical core emptiness")
    p.add_argument("setfns", nargs=1, metavar="setfn")

    p = sub.add_parser("bayesian-core", parents=shared, help="Bayesian-core emptiness over opinions")
    p.add_argument("setfns", nargs="+")

    p = sub.add_parser("exp-efficiency", parents=shared, help="average-opinion drift experiment")
    p.add_argument("scenario")

    p = sub.add_parser("exp-core-emptiness", parents=shared, help="empty-core frequency experiment")
    p.add_argument("scenario")

    p = sub.add_parser("exp-po-sweep", parents=shared, help="risk-aversion sweep experiment")
    p.add_argument("scenario")

    return parser


def _write(args, chunks) -> None:
    """Write text chunks, as they come, to the --out file or to stdout."""
    if not args.out:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise OSError(f"cannot write {args.out}: {exc}") from exc


def _finish(args, record: dict) -> int:
    """Print the result record if asked; map its pass flag to the exit status."""
    if args.json_summary:
        print(json.dumps(record, sort_keys=True))
    return 0 if record["pass"] else 1


def _check_flags(args) -> None:
    if args.seed is not None and args.seed < 0:
        raise ScenarioError(f"--seed: seed: nonnegative integer required, got {args.seed}")
    if not 0 <= args.tol < float("inf"):  # also false for nan
        raise ScenarioError(f"--tol: finite nonnegative number required, got {args.tol!r}")


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario, seed=args.seed)
    trace = run_simulation(scenario)
    _write(args, trace_chunks(trace))
    return _finish(
        args,
        {
            "command": "simulate",
            "steps": trace.steps,
            "converged_at": trace.converged_at,
            "pass": True,
        },
    )


def _rows_csv(rows: list[dict]) -> str:
    """A header of the row keys, then one line per row: a bool as 0/1,
    every other value as its repr."""
    cells = [[str(int(v)) if isinstance(v, bool) else repr(v) for v in r.values()] for r in rows]
    return "".join(",".join(line) + "\n" for line in [list(rows[0]), *cells])


def _cmd_shapley(args) -> int:
    allocation = shapley_value(read_setfn(args.setfn))
    payoffs = [float(p) for p in allocation.payoffs]
    _write(args, [_rows_csv([{"player": i, "payoff": p} for i, p in enumerate(payoffs)])])
    return _finish(
        args,
        {"command": "shapley", "payoffs": payoffs, "pass": True},
    )


def _cmd_core(args) -> int:
    """core-check (one payoff file) and bayesian-core (one opinion per player)."""
    opinions = [read_setfn(p) for p in args.setfns]
    if args.command == "core-check":
        witness = core_witness(opinions[0], tol=args.tol)
    else:
        witness = bayesian_core_is_empty(opinions, tol=args.tol).witness
    verdict = "empty" if witness is None else "nonempty"
    text = verdict + "\n"
    if witness is not None:
        text += _rows_csv([{"player": i, "payoff": float(p)} for i, p in enumerate(witness)])
    _write(args, [text])
    return _finish(args, {"command": args.command, "verdict": verdict, "pass": True})


def _cmd_exp_efficiency(args) -> int:
    scenario = load_scenario(args.scenario, seed=args.seed)
    report = experiment_efficiency(scenario, tol=args.tol)
    lines = ["key,value"]
    lines += [f"{k},{v!r}" for k, v in report.items()]
    _write(args, ["\n".join(lines) + "\n"])
    return _finish(args, {"command": "exp-efficiency", **report})


def _cmd_exp_core_emptiness(args) -> int:
    scenario = load_scenario(args.scenario, seed=args.seed)
    rows = experiment_core_emptiness(scenario)
    _write(args, [_rows_csv(rows)])
    return _finish(args, {"command": "exp-core-emptiness", **core_emptiness_verdict(rows)})


def _cmd_exp_po_sweep(args) -> int:
    scenario = load_scenario(args.scenario, seed=args.seed)
    rows = experiment_po_sweep(scenario)
    _write(args, [_rows_csv(rows)])
    return _finish(args, {"command": "exp-po-sweep", **po_sweep_verdict(rows)})


_COMMANDS = {
    "simulate": _cmd_simulate,
    "shapley": _cmd_shapley,
    "core-check": _cmd_core,
    "bayesian-core": _cmd_core,
    "exp-efficiency": _cmd_exp_efficiency,
    "exp-core-emptiness": _cmd_exp_core_emptiness,
    "exp-po-sweep": _cmd_exp_po_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return _COMMANDS[args.command](args)
    except (ScenarioError, SetFunctionError, ConsensusError, SamplerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
