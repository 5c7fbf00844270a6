#!/usr/bin/env python3
"""Benchmark for consensusgame: one seeded workload per run, closed loop.

    python3 perfbench/run.py --workload learn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a repository checkout; the package is imported from
its `src/` directory, never from an installed copy.  With `--trace 0` the
run reports the end-to-end metrics; with `--trace 1` it runs the same jobs
with every public callable of the package wrapped in spans and reports the
per-layer metrics instead.  The last line of standard output is one JSON
record: {"correct", "attempted", "failed", "metrics"}.  Lines before it
are for people: the environment, job counts, raw timings, failure reasons.

End-to-end metrics:
    wall_ref      median job time, in units of a fixed reference kernel
                  timed right before and after each job (see
                  `reference_kernel`); raw seconds swing by 20-30% on a
                  shared machine, the ratio by a few percent
    work_per_ref  simulation steps (trials for core-mc) per reference unit
    setup_s       median over fresh processes of a cold package import plus
                  load_scenario of every input
    peak_rss_mb   ru_maxrss of a fresh process that runs one job
    ok_frac       1 - failed / attempted operations

Scratch inputs live in `.perfbench/` under the checkout root; spans and
result records are left there after the run.
"""

import os

# BLAS threads are pinned before numpy loads, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

# Layers named in the per-layer report, as <module>.<callable>.
LAYERS = (
    "agents.EnvironmentModel.update",
    "agents.RLearningAgent.act",
    "agents.step_reward",
    "consensus.step_strategic",
    "consensus.deviation_disutility",
    "consensus.influence_weights",
    "setfn.SetFunction",
    "setfn.sample_supermodular_opinion",
    "setfn.is_supermodular",
    "shapley.shapley_value",
    "shapley.shapley_linear_form",
    "core.bayesian_core_is_empty",
    "core.lp_feasible",
    "harness.load_scenario",
    "harness.run_simulation",
    "harness.dump_trace",
    "harness.parse_trace",
    "cli.main",
)
LAYER_STATS = (
    ("calls", "count/job", "lower"),
    ("total_s", "s/job", "lower"),
    ("self_s", "s/job", "lower"),
    ("p50_us", "us", "lower"),
    ("p99_us", "us", "lower"),
)
EXTRA_LAYER_METRICS = (
    ("setfn.sampler.accept_ratio", "ratio", "higher"),
    ("core.fast_path_ratio", "ratio", "higher"),
    ("harness.trace_bytes", "bytes/job", "lower"),
    ("bench.tracing_overhead_s", "s", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = [(f"{layer}.{stat}", unit, better) for layer in LAYERS for stat, unit, better in LAYER_STATS]
    return out + list(EXTRA_LAYER_METRICS)


# --- environment ---------------------------------------------------------------


def use_checkout_sources() -> None:
    package = SRC / "consensusgame" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from the root of a consensusgame checkout")
    sys.path.insert(0, str(SRC))
    import consensusgame

    if Path(consensusgame.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported consensusgame from {consensusgame.__file__}, not {package}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "consensusgame").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


# --- child-process probes ---------------------------------------------------------


def probe_setup(inputs: list[str]) -> dict:
    """Cold import of the package plus load_scenario of every input."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from consensusgame import load_scenario

    for path in inputs:
        load_scenario(path)
    return {"setup_s": time.perf_counter() - start}


def probe_rss(workload: str, seed: int, toy: bool, workdir: Path) -> dict:
    """Peak resident set size of a fresh process that runs one job."""
    use_checkout_sources()
    from workloads import WORKLOADS

    WORKLOADS[workload](seed, workdir, toy).run()
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_probe(args: list[str]) -> dict:
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if result.returncode != 0:
        raise RuntimeError(f"probe {args[:2]} exited {result.returncode}: {result.stderr.strip()}")
    return json.loads(result.stdout.strip().splitlines()[-1])


# --- the measured loop --------------------------------------------------------------


@functools.cache
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.normal(size=(8, 256, 256)), rng.normal(size=256), rng.normal(size=2000).tolist(), rng.normal(size=1 << 22)


def reference_kernel() -> float:
    """Time one pass of a fixed mix of the work the package does: rank-one
    updates cycling over eight 256x256 matrices (the RLS gains of an n=8
    game, 4 MiB), float repr and parse, interpreter arithmetic, small numpy
    calls, and streaming a 32 MiB array.  It never changes, so job time
    divided by its time cancels most of the speed swings of a shared
    machine.  The two large working sets track contention for the caches
    and memory, which the learn, trace and rational jobs feel; the
    interpreter-bound half tracks the slowdowns that hit core-mc."""
    import numpy as np

    gains0, phi, floats, stream = _reference_inputs()
    start = time.perf_counter()
    gains = gains0.copy()
    for i in range(64):
        k = gains[i % 8] @ phi
        gains[i % 8] -= np.outer(k, phi) * 1e-9
    parsed = [float(x) for x in ",".join(repr(x) for x in floats).split(",")]
    acc = len(parsed)
    for i in range(30000):
        acc += abs(i - 5000)
    base = np.arange(64.0)
    for _ in range(4500):
        c = np.concatenate([base[:10], base[20:]])
        acc += bool(np.all(c >= 0)) + float(c.sum())
    for _ in range(2):
        copy = stream.copy()
        copy += 1.0
    return time.perf_counter() - start


@dataclass
class Timings:
    """Per-job wall times and, for each, the mean time of the reference
    kernel run just before and just after it."""

    wall: list = field(default_factory=list)
    ref: list = field(default_factory=list)

    def normalized(self) -> list:
        return [w / r for w, r in zip(self.wall, self.ref)]


def run_jobs(workload, seconds: float, min_jobs: int, recorder=None):
    """Closed loop: start the next job once the last one is done, until
    `seconds` have passed and at least `min_jobs` jobs ran.  Only the
    workload's `run()` is timed; its checks follow outside the timing."""
    from workloads import Outcome

    timings, outcomes = Timings(), []
    ref_before = reference_kernel()
    start = time.perf_counter()
    while len(outcomes) < min_jobs or time.perf_counter() - start < seconds:
        gc.collect()
        if recorder is not None:
            recorder.install()
            root = recorder.open(recorder.name_index("bench.job"))
        t0 = time.perf_counter()
        try:
            outcome = workload.run()
            raised = None
        except Exception:
            raised = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if recorder is not None:
            recorder.close(root)
            recorder.uninstall()
        ref_after = reference_kernel()
        if raised is None:
            workload.check(outcome)
        else:
            outcome = Outcome(ops=workload.ops, work=0)
            outcome.fail(workload.ops, raised.strip().splitlines()[-1])
        timings.wall.append(elapsed)
        timings.ref.append((ref_before + ref_after) / 2)
        ref_before = ref_after
        outcomes.append(outcome)
    return timings, outcomes


def end_to_end(timings, outcomes, setup_s, peak_rss_mb, attempted, failed) -> dict:
    norm = timings.normalized()
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_ref": (statistics.median(norm), "ref"),
        "work_per_ref": (statistics.median(o.work / t for o, t in zip(outcomes, norm)), "1/ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
    }


def layer_report(recorder, traced: Timings, untraced: Timings, outcomes) -> tuple[dict, list[str]]:
    stats = recorder.stats()
    jobs = len(traced.wall)
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    values = {}
    for layer in LAYERS:
        summary = stats.summary(layer)
        for key in ("calls", "total_s", "self_s"):
            summary[key] /= jobs
        for key, value in summary.items():
            values[f"{layer}.{key}"] = value

    attempts = stats.children_named("setfn.sample_supermodular_opinion", "setfn.is_supermodular")
    draws = attempts.size
    checks = stats.children_named("core.bayesian_core_is_empty", "core.lp_feasible")
    fast = int((checks == 0).sum())
    values["setfn.sampler.accept_ratio"] = draws / attempts.sum() if attempts.sum() else 0.0
    values["core.fast_path_ratio"] = fast / checks.size if checks.size else 0.0
    values["harness.trace_bytes"] = statistics.fmean(o.trace_bytes for o in outcomes)
    # the difference of normalized medians, at the run's median reference
    # speed: raw medians taken seconds apart differ by more than tracing costs
    ref_s = statistics.median(traced.ref + untraced.ref)
    values["bench.tracing_overhead_s"] = ref_s * (
        statistics.median(traced.normalized()) - statistics.median(untraced.normalized())
    )
    notes = [
        f"traced jobs={jobs} untraced jobs={len(untraced.wall)} spans={len(recorder.start)}",
        f"sampler: {draws} draws / {int(attempts.sum())} supermodularity attempts",
        f"core: {fast} fast-path verdicts / {checks.size} bayesian_core_is_empty calls",
    ]
    return {k: (v, units[k]) for k, v in values.items()}, notes


def measure(args) -> int:
    use_checkout_sources()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}"
    workdir = SCRATCH / "work" / f"{tag}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir / "inputs", args.toy)
        common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--toy"] if args.toy else [])
        if not args.trace:
            probes = 2 if args.toy else SETUP_PROBES
            inputs = [str(p) for p in workload.inputs]
            setup_s = [run_probe(["--probe", "setup", *common, "--inputs", *inputs])["setup_s"] for _ in range(probes)]
            rss = run_probe(["--probe", "rss", *common, "--workdir", str(workdir / "rss")])["peak_rss_mb"]

        warm = workload.warmup()
        if not args.trace:
            timings, outcomes = run_jobs(workload, args.seconds, min_jobs=3)
        else:
            from spans import SpanRecorder

            untraced, _ = run_jobs(workload, args.seconds / 2, min_jobs=2)
            recorder = SpanRecorder()
            timings, outcomes = run_jobs(workload, args.seconds / 2, min_jobs=2, recorder=recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = warm.ops + sum(o.ops for o in outcomes)
    failed = warm.failed + sum(o.failed for o in outcomes)
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    wall = timings.wall
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {len(wall)} timed jobs, "
        f"{workload.ops} ops/job, {outcomes[0].work} {workload.work_unit}/job"
    )
    print(
        f"# wall_s median={statistics.median(wall):.4f} min={min(wall):.4f} max={max(wall):.4f}; "
        f"{workload.work_unit}_per_s median={statistics.median(o.work / t for o, t in zip(outcomes, wall)):.1f}; "
        f"reference kernel median={statistics.median(timings.ref) * 1e3:.2f} ms"
    )
    print(f"# failed_frac={failed}/{attempted} operations (warm-up job included)")
    problems = warm.problems + [p for o in outcomes for p in o.problems]
    for problem in dict.fromkeys(problems):
        print(f"# FAILED: {problem}")

    if args.trace:
        metrics, notes = layer_report(recorder, timings, untraced, outcomes)
        for note in notes:
            print("# " + note)
        spans_dir = SCRATCH / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        recorder.write(spans_dir / f"{tag}.npz")
    else:
        metrics = end_to_end(timings, outcomes, setup_s, rss, attempted, failed)
        print(f"# setup_s samples={[round(s, 4) for s in setup_s]}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit}")

    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = SCRATCH / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "wall_s": wall, "ref_s": timings.ref, "problems": problems, **record}, indent=1)
    )
    print(json.dumps(record))
    return 0


# --- smoke mode ---------------------------------------------------------------------


def smoke() -> int:
    """Toy-size run of every workload, untraced and traced; checks that each
    metric BENCHMARK.json names is printed with its unit and that the
    outputs are correct."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"]
            result = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
            problems = []
            if result.returncode != 0:
                problems.append(f"exit {result.returncode}: {result.stderr.strip()[-400:]}")
            else:
                record = json.loads(result.stdout.strip().splitlines()[-1])
                if set(record) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"record keys {sorted(record)}")
                elif not record["correct"] or record["attempted"] < 1:
                    problems.append(f"outputs incorrect: {record['failed']}/{record['attempted']} failed")
                got = {k: v["unit"] for k, v in record.get("metrics", {}).items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace].items()) ^ set(got.items()))
                    problems.append(f"metric names or units differ: {missing[:6]}")
            bad += bool(problems)
            print(f"{workload:<10} trace={trace} {'FAIL ' + '; '.join(problems) if problems else 'ok'}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy-size inputs for the smoke test")
    parser.add_argument("--smoke", action="store_true", help="run every workload at toy size and check the report")
    parser.add_argument("--probe", choices=("setup", "rss"), help=argparse.SUPPRESS)
    parser.add_argument("--inputs", nargs="*", default=[], help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.smoke:
        return smoke()
    if args.probe == "setup":
        print(json.dumps(probe_setup(args.inputs)))
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if args.probe == "rss":
        print(json.dumps(probe_rss(args.workload, args.seed, args.toy, Path(args.workdir))))
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
