"""End-to-end benchmark of the bvlab CLI.

    python3 bench/run.py --workload bv-range --seed 1 --seconds 18 --trace 0

Runs from the root of a source checkout; the CLI is taken from ./src. Each
bvlab command is its own process, started from this one, and all of them
run one after another. A run repeats whole rounds until the measured time
reaches --seconds. A round is: the workload's `sieve-cache` set-up five
times, then its measured commands back to back, then the output checks.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones (medians over
rounds); with --trace 1 every command runs under runner.py's tracer and the
metrics are the per-layer ones. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNNER = BENCH / "runner.py"
SETUP_REPEATS = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

COMMANDS = ["sieve-cache", "bv-sum", "large-sieve-fuzz", "lambda-check",
            "companion-check", "truncation-check", "counterexample", "delta"]
PER_LAYER = {
    "core_arith.build_prime_table.self_s": "s",
    "core_arith.save_prime_table.self_s": "s",
    "core_arith.load_prime_table.self_s": "s",
    "core_arith.load_prime_table.calls": "count",
    "core_arith.factorize.calls": "count",
    "characters.induced_set.self_s": "s",
    "characters.induce.calls": "count",
    "characters.enumerate_characters.self_s": "s",
    "characters.primitive_value_matrix.self_s": "s",
    "characters.primitive_value_matrix.calls": "count",
    "multfun.to_arith.self_s": "s",
    "multfun.to_arith.calls": "count",
    "multfun.to_arith.values": "count",
    "multfun.to_arith.bytes_out": "B",
    "multfun.MultFn.pp_value.calls": "count",
    "multfun.dirichlet_convolve.self_s": "s",
    "multfun.dirichlet_convolve.calls": "count",
    "multfun.truncated_convolution.self_s": "s",
    "multfun.lambda_seq.self_s": "s",
    "multfun.class_c_check.self_s": "s",
    "funcspec.parse_function_spec.self_s": "s",
    "funcspec.save_pp_table.self_s": "s",
    "discrepancy.bv_sum.self_s": "s",
    "discrepancy.residue_buckets.self_s": "s",
    "discrepancy.residue_buckets.calls": "count",
    "discrepancy.residue_buckets.bytes_in": "B",
    "discrepancy.delta.calls": "count",
    "discrepancy.delta_xi.calls": "count",
    "discrepancy.large_sieve_check.self_s": "s",
    "decomposition.truncation_difference_check.self_s": "s",
    "counterexample.plan_counterexample.self_s": "s",
    "counterexample.pointwise_identity_check.self_s": "s",
    "counterexample.range_extension_check.self_s": "s",
    "counterexample.lower_bound_report.self_s": "s",
    "cli.main.self_s": "s",
    "cli.startup_s": "s",
    **{f"cli.{c}.wall_s": "s" for c in COMMANDS},
    "trace.wall_s": "s",
}


@dataclass
class Proc:
    """One finished command process."""

    op: workloads.Op
    outcome: workloads.Outcome
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    stderr: str
    trace: Path | None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # at most two worker threads, also inside numpy's BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    return env


def spawn(op: workloads.Op, work: Path, env: dict, trace: Path | None) -> Proc:
    cmd = [sys.executable, str(RUNNER)]
    if trace is not None:
        cmd += ["--trace-out", str(trace)]
    cmd += ["--", *op.argv]
    with open(work / "stdout.txt", "w+") as out, open(work / "stderr.txt", "w+") as err:
        start = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=work, env=env, stdout=out, stderr=err)
        try:
            # wait4 reaps the child and gives its own CPU time and peak RSS
            _pid, status, usage = os.wait4(p.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            p.kill()
            p.wait()
            raise
        end = time.perf_counter()
        p.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        outcome = workloads.Outcome(rc=p.returncode, stdout=out.read(), cwd=work)
        stderr = err.read()
    return Proc(op, outcome, start, end, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024, stderr, trace)


def check(proc: Proc) -> str:
    """'' when the operation succeeded, else why it failed."""
    try:
        proc.op.check(proc.outcome)
    except Exception as exc:  # any fault in an output fails the operation, not the run
        return f"{type(exc).__name__}: {exc}"
    return ""


def run_round(w: workloads.Workload, env: dict, traced: bool, n: int):
    """(setup procs, measured procs, failures) of one round."""
    def trace_path(i):
        return w.work / f"trace-{n}-{i}.jsonl" if traced else None

    setups, failures = [], []
    for i in range(SETUP_REPEATS):  # each run overwrites the cache: check it at once
        proc = spawn(w.setup(), w.work, env, trace_path(f"s{i}"))
        setups.append(proc)
        failures.append((proc, check(proc)))
    w.after_setup()
    measured = [spawn(op, w.work, env, trace_path(i)) for i, op in enumerate(w.ops())]
    failures += [(p, check(p)) for p in measured]
    return setups, measured, [(p, why) for p, why in failures if why]


def layer_metrics(setups: list[Proc], measured: list[Proc]) -> dict[str, float]:
    """Per-layer figures of one traced round: the measured commands plus the
    set-up run of median wall time."""
    median_setup = sorted(setups, key=lambda p: p.wall_s)[len(setups) // 2]
    figures = dict.fromkeys(PER_LAYER, 0.0)
    for proc in [median_setup, *measured]:
        if not proc.trace.exists():  # the command died before writing it
            continue
        recorded, counts, tracing_s = spans.read(proc.trace)
        for key, value in spans.layer_figures(recorded, counts).items():
            if key in figures:
                figures[key] += value
        figures[f"cli.{proc.op.command}.wall_s"] += proc.wall_s
        if proc.outcome.rc == 0:
            manifest = json.loads(proc.outcome.stdout.strip().splitlines()[-1])
            figures["cli.startup_s"] += proc.wall_s - manifest["wall_time_s"] - tracing_s
    figures["trace.wall_s"] = measured[-1].end - measured[0].start
    return figures


def run_workload(name: str, size: str, seed: int, seconds: float, traced: bool) -> dict:
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[name](workloads.SIZES[size][name], seed, work)
        env = child_env()
        rounds = []
        measured_s = 0.0
        while not rounds or measured_s < seconds:
            setups, measured, failures = run_round(w, env, traced, len(rounds))
            wall = measured[-1].end - measured[0].start
            measured_s += wall
            for proc, why in failures:
                print(f"{name}: {proc.op.command} failed: {why}"
                      + (f" [{proc.op.known_fault}]" if proc.op.known_fault else ""),
                      file=sys.stderr)
                if proc.stderr:
                    print(proc.stderr.rstrip()[-2000:], file=sys.stderr)
            rounds.append({
                "attempted": len(setups) + len(measured),
                "failures": failures,
                "setup_s": [p.wall_s for p in setups],
                "wall_s": wall,
                "cpu_s": sum(p.cpu_s for p in measured),
                "peak_rss_mb": max(p.rss_mb for p in measured),
                "layers": layer_metrics(setups, measured) if traced else None,
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    if traced:
        metrics = {k: {"value": statistics.median(r["layers"][k] for r in rounds), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(s for r in rounds for s in r["setup_s"]),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    failures = [f for r in rounds for f in r["failures"]]
    return {
        "correct": all(p.op.known_fault for p, _why in failures),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'tiny' runs every workload in seconds with the same checks")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind like Ctrl-C so the running child and the work files go too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "bvlab" / "cli.py").is_file():
        print(f"no bvlab source under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.size, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
