"""Run one of the paper's claims from the command line.

Commands, one per claim the library backs:

    simulate            run a scenario file, write the trace CSV
    shapley             Shapley allocation of a payoff-function file
    core-check          classical core emptiness of a payoff-function file
    bayesian-core       Bayesian-core emptiness, one opinion file per player
    exp-efficiency      average-opinion drift with and without p_i ~ t_i
    exp-core-emptiness  per-n empty-core frequency over sampled opinions
    exp-po-sweep        opinion spread and core verdict across p_o

Every command but bayesian-core reads exactly one file.  The flags may
stand before or after the command, or among its files.

Exit status: 0 when the run's verdict passes, 1 when it fails, 2 on bad
input or a run that cannot be decided, 3 on an internal error (a fault in
the program rather than in its input).  Errors are reported on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .consensus import ConsensusError
from .core import DEFAULT_TOL, bayesian_core_is_empty, core_witness
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
from .setfn import SetFunctionError, read_setfn
from .shapley import shapley_value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consensusgame",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="one of the above")
    parser.add_argument("files", nargs="+", metavar="file", help="scenario or payoff-function file")
    parser.add_argument("--seed", type=int, help="stands in for the scenario's seed")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help="core feasibility tolerance; exp-efficiency's drift tolerance",
    )
    parser.add_argument(
        "--json-summary",
        action="store_true",
        help="emit a machine-readable result record on stdout",
    )
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
    """Print the result record, stamped with the command, if asked; map its
    pass flag to the exit status.  The harness decides every verdict."""
    if args.json_summary:
        print(json.dumps({"command": args.command, **record}, sort_keys=True))
    return 0 if record["pass"] else 1


def _check_flags(args) -> None:
    if args.seed is not None and args.seed < 0:
        raise ScenarioError(f"--seed: seed: nonnegative integer required, got {args.seed}")
    if not 0 <= args.tol < float("inf"):  # also false for nan
        raise ScenarioError(f"--tol: finite nonnegative number required, got {args.tol!r}")


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.files[0], seed=args.seed)
    trace = run_simulation(scenario)
    _write(args, trace_chunks(trace))
    return _finish(
        args,
        {"steps": trace.steps, "converged_at": trace.converged_at, "pass": True},
    )


def _rows_csv(rows: list[dict]) -> str:
    """A header of the row keys, then one line per row: a bool as 0/1,
    every other value as its repr."""
    cells = [[str(int(v)) if isinstance(v, bool) else repr(v) for v in r.values()] for r in rows]
    return "".join(",".join(line) + "\n" for line in [list(rows[0]), *cells])


def _cmd_shapley(args) -> int:
    allocation = shapley_value(read_setfn(args.files[0]))
    payoffs = [float(p) for p in allocation.payoffs]
    _write(args, [_rows_csv([{"player": i, "payoff": p} for i, p in enumerate(payoffs)])])
    return _finish(args, {"payoffs": payoffs, "pass": True})


def _cmd_core(args) -> int:
    """core-check (one payoff file) and bayesian-core (one opinion per player)."""
    opinions = [read_setfn(p) for p in args.files]
    if args.command == "core-check":
        witness = core_witness(opinions[0], tol=args.tol)
    else:
        witness = bayesian_core_is_empty(opinions, tol=args.tol).witness
    verdict = "empty" if witness is None else "nonempty"
    text = verdict + "\n"
    if witness is not None:
        text += _rows_csv([{"player": i, "payoff": float(p)} for i, p in enumerate(witness)])
    _write(args, [text])
    return _finish(args, {"verdict": verdict, "pass": True})


def _cmd_exp_efficiency(args) -> int:
    scenario = load_scenario(args.files[0], seed=args.seed)
    report = experiment_efficiency(scenario, tol=args.tol)
    lines = ["key,value"]
    lines += [f"{k},{v!r}" for k, v in report.items()]
    _write(args, ["\n".join(lines) + "\n"])
    return _finish(args, report)


def _cmd_exp_rows(experiment, verdict, args) -> int:
    """An experiment that reports one CSV row per point, and its verdict on the rows."""
    scenario = load_scenario(args.files[0], seed=args.seed)
    rows = experiment(scenario, tol=args.tol)
    _write(args, [_rows_csv(rows)])
    return _finish(args, verdict(rows))


_COMMANDS = {
    "simulate": _cmd_simulate,
    "shapley": _cmd_shapley,
    "core-check": _cmd_core,
    "bayesian-core": _cmd_core,
    "exp-efficiency": _cmd_exp_efficiency,
    "exp-core-emptiness": partial(_cmd_exp_rows, experiment_core_emptiness, core_emptiness_verdict),
    "exp-po-sweep": partial(_cmd_exp_rows, experiment_po_sweep, po_sweep_verdict),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_intermixed_args(argv)
    if args.command != "bayesian-core" and len(args.files) > 1:
        parser.error(f"unrecognized arguments: {' '.join(args.files[1:])}")
    try:
        _check_flags(args)
        return _COMMANDS[args.command](args)
    except (ScenarioError, SetFunctionError, ConsensusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
