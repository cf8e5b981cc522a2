"""Benchmark harness for the schurkit CLI.

    python3 bench/run.py --workload build --seed 1 --seconds 20 --trace 0

--trace 0 runs the workload as users do: one fresh interpreter per
command, one command after another (a closed loop with one client).
Every op's output is checked; wall time, CPU time and peak RSS are taken
per op from os.wait4.  Times are scaled to a reference host speed (see
calibrate).  The last stdout line is the JSON result with the end-to-end
metrics.

--trace 1 runs the first round of the same ops in-process through
schurkit.cli.run, once plain and once under the layer wrappers of
tracing.py, and reports the per-layer metrics.  Spans are written to
.bench_build/trace-<workload>-<seed>.jsonl.

--steadiness N repeats a workload over seeds 1..N and prints each
metric's quartile spread against its bound in BENCHMARK.json.
--baselines times the reference commands listed in README.md.

The exit code is 0 only when every op produced the expected output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import workloads
from workloads import Op, check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"
LAUNCH = "from schurkit.cli import main; main()"
SETUP_REPEATS = 5
STARTUP_PROBES = 24
OP_TIMEOUT_S = 120.0
NOOP = Op(("enumerate", "--m", "1", "--n", "1"), ("stdout", "((1))\n"))
WARMUP = workloads.three_formulas_op(2, 3)


# ---------------------------------------------------------------- children


def child_env() -> dict:
    """A fixed environment: no SCHURKIT_THREADS, pinned hash seed, this checkout's src."""
    return {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


@dataclass(frozen=True, slots=True)
class Sample:
    op: Op
    wall: float
    cpu: float
    rss_kb: int
    error: Optional[str]  # None when the output passed the gate


def run_child(op: Op, env: dict) -> Sample:
    """Run one CLI command in a fresh interpreter and check its output."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child-stderr.txt", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH, *op.argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        wall = time.perf_counter() - t0
        error = check(op, proc.returncode, stdout)
        if error is not None:
            err.seek(0)
            error += " | stderr: " + err.read()[-300:].decode(errors="replace")
    return Sample(op, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, error)


# ---------------------------------------------------------------- metrics


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def report(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def print_failures(samples) -> None:
    for s in samples:
        if s.error is not None:
            print(f"FAILED {' '.join(s.op.argv)}: {s.error}", file=sys.stderr)


# ---------------------------------------------------------------- end to end


# The host's speed drifts by tens of percent over minutes (one command
# took 0.41 s and 0.72 s forty minutes apart, with CPU time tracking wall
# time).  So before every command the harness times a fixed pure-Python
# loop in its own process, and reports times scaled by
# CAL_REF_S / (median loop time of the run): seconds on a host where the
# loop takes CAL_REF_S.  The loop never touches schurkit, so the scaling
# cannot hide a change to the library.  Raw values are printed as well.
CAL_REF_S = 0.005


def calibrate() -> float:
    """Wall time of a fixed loop of Fraction, tuple and dict work."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 1500):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


def end_to_end(workload: str, seed: int, seconds: float) -> int:
    env = child_env()
    cals, setups, warmups = [], [], []
    for _ in range(SETUP_REPEATS):
        cals.append(calibrate())
        t0 = time.perf_counter()
        rounds = workloads.plan(workload, seed, seconds, workloads.load_reference())
        warmups.append(run_child(WARMUP, env))
        setups.append(time.perf_counter() - t0)

    ops = [op for r in rounds for op in r]
    step = -(-len(ops) // STARTUP_PROBES)
    samples, probes = [], []
    for i, op in enumerate(ops):
        if i % step == 0:
            cals.append(calibrate())
            probes.append(run_child(NOOP, env))
        cals.append(calibrate())
        samples.append(run_child(op, env))

    everything = warmups + probes + samples
    failed = sum(s.error is not None for s in everything)
    print_failures(everything)
    walls = [s.wall for s in samples]
    tail_value, tail_pct = tail(walls)
    raw = {
        "ops_per_s": (len(samples) / sum(walls), "1/s", len(samples)),
        "op_p50_s": (statistics.median(walls), "s", len(samples)),
        "op_tail_s": (tail_value, "s", len(samples)),
        "op_cpu_p50_s": (statistics.median(s.cpu for s in samples), "s", len(samples)),
        "peak_rss_mb": (max(s.rss_kb for s in samples) / 1024, "MB", len(samples)),
        "startup_s": (statistics.median(s.wall for s in probes), "s", len(probes)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }
    cal = statistics.median(cals)
    scale = {"s": CAL_REF_S / cal, "1/s": cal / CAL_REF_S, "MB": 1.0}
    metrics = {name: (value * scale[unit], unit) for name, (value, unit, _) in raw.items()}

    print(f"# {workload} seed={seed}: {len(rounds)} rounds, {len(samples)} ops, "
          f"{len(probes)} start-up probes, {len(setups)} set-ups")
    print(f"# calibration loop: median {1000 * cal:.3f} ms of {len(cals)}, "
          f"times scaled by {scale['s']:.4f}")
    print(f"{'metric':>14} {'reported':>12} {'raw':>12}")
    for name, (value, unit, count) in raw.items():
        note = f"p{tail_pct:.1f} of {count} ops" if name == "op_tail_s" else f"n={count}"
        print(f"{name:>14} {metrics[name][0]:12.6f} {value:12.6f} {unit:<4} {note}")
    print(f"{'failed_frac':>14} {failed / len(everything):12.6f} {'':12} "
          f"{failed} of {len(everything)} commands")
    by_label: dict[str, list[float]] = {}
    for s in samples:
        by_label.setdefault(s.op.label, []).append(s.wall)
    for label, label_walls in sorted(by_label.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"# raw {statistics.median(label_walls):8.4f} s median of {len(label_walls):3d}  "
              f"{label}")
    report(failed == 0, len(everything), failed, metrics)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------- traced


def import_schurkit():
    sys.path.insert(0, str(SRC))
    import schurkit
    import schurkit.cli

    origin = Path(schurkit.__file__).resolve()
    if SRC not in origin.parents:
        raise RuntimeError(f"schurkit imported from {origin}, not from {SRC}")
    return schurkit


def run_in_process(run, op: Op) -> tuple[float, Optional[str], int]:
    """(CPU seconds, gate verdict, stdout bytes) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(op.argv))
    except Exception as exc:  # a crash of the library is a failed op, not a harness error
        return time.process_time() - t0, f"raised {exc!r}", 0
    cpu = time.process_time() - t0
    stdout = out.getvalue().encode()
    return cpu, check(op, code, stdout), len(stdout)


def traced(workload: str, seed: int, seconds: float) -> int:
    from tracing import Tracer

    os.environ.pop("SCHURKIT_THREADS", None)
    pkg = import_schurkit()
    ops = workloads.plan(workload, seed, seconds, workloads.load_reference())[0]
    tracer = Tracer()
    plain_cpu = traced_cpu = 0.0
    stdout_bytes = attempted = failed = 0
    origin = time.perf_counter()
    for op_id, op in enumerate(ops):
        # Alternate plain and traced calls so both see the same machine state.
        cpu, error, _ = run_in_process(pkg.cli.run, op)
        plain_cpu += cpu
        failed += error is not None
        tracer.patch(pkg)
        tracer.op_id = op_id
        try:
            cpu, error2, nbytes = run_in_process(tracer.run, op)
        finally:
            tracer.unpatch()
        traced_cpu += cpu
        stdout_bytes += nbytes
        failed += error2 is not None
        attempted += 2
        for e in (error, error2):
            if e is not None:
                print(f"FAILED {' '.join(op.argv)}: {e}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-{seed}.jsonl", origin)
    metrics = tracer.layer_metrics()
    metrics["cli.stdout_bytes"] = (stdout_bytes, "B")
    metrics["trace.overhead_frac"] = (traced_cpu / plain_cpu - 1.0, "ratio")
    print(f"# {workload} seed={seed}: {len(ops)} ops traced in-process")
    print("# self time by layer, share of cli.run:")
    for name, share in tracer.self_shares():
        print(f"{name:>22} {100 * share:6.1f} %")
    for name, (value, unit) in metrics.items():
        print(f"{name:>28} {value:14.6f} {unit}")
    report(failed == 0, attempted, failed, metrics)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------- modes


def run_self(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of this harness in a fresh process; its parsed result line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def steadiness(workload: str, runs: int, seconds: float, trace: int) -> int:
    """Run seeds 1..runs in fresh processes and print each metric's spread.

    A spread is ok below a third of the metric's bound in BENCHMARK.json
    and wide above the bound.  With --trace 1, seed 1 is traced twice and
    its counts must repeat exactly.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    results = []
    for seed in range(1, runs + 1):
        result = run_self(workload, seed, seconds, trace)
        results.append(result)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}"
                                          for k, v in result["metrics"].items()), flush=True)
    print(f"{'metric':>28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            s = spread(vals)
            verdict = "ok" if s <= bound / 3 else "within bound" if s <= bound else "WIDE"
        print(f"{name:>28} {statistics.median(vals):12.6g} {q1:12.6g} {q3:12.6g} "
              f"{100 * spread(vals):7.2f}% {bound if bound is not None else '-':>6} {verdict}")
    if trace:
        again = run_self(workload, 1, seconds, trace)["metrics"]
        counts = {k: v["value"] for k, v in results[0]["metrics"].items() if v["unit"] == "count"}
        repeat = counts == {k: again[k]["value"] for k in counts}
        print(f"per-layer counts of seed 1 repeat exactly: {'yes' if repeat else 'NO'}")
        if not repeat:
            return 1
    return 0 if all(r["correct"] for r in results) else 1


BASELINES = [
    # (ROADMAP figure, op, repetitions)
    ("3.1 s", workloads.criterion_op(3, 6, 1, None, trials=100), 3),
    ("3.1-3.4 s", workloads.trace_identity_op(3, 5), 3),
    ("26.2 s", workloads.trace_identity_op(3, 6), 1),
    ("5.3 s", workloads.beta_shift_op(8), 3),
]


def baselines() -> int:
    """Time the reference commands; the two sweeps are timed in-process as well."""
    env = child_env()
    run_child(WARMUP, env)
    failed = 0
    for roadmap, op, reps in BASELINES:
        samples = [run_child(op, env) for _ in range(reps)]
        failed += sum(s.error is not None for s in samples)
        print_failures(samples)
        walls = ", ".join(f"{s.wall:.2f}" for s in samples)
        print(f"{' '.join(op.argv):<60} roadmap {roadmap:>10}  fresh process: {walls} s",
              flush=True)
    pkg = import_schurkit()
    for formula, roadmap in (("cancellation", "0.10 s"), ("symbol", "0.37 s")):
        walls = []
        for _ in range(5):
            t0 = time.perf_counter()
            count = len([pkg.schur_element(mp, formula)
                         for mp in pkg.enumerate_multipartitions(4, 6)])
            walls.append(time.perf_counter() - t0)
        for fmt in ("text", "json"):
            argv = ("schur", "--m", "4", "--n", "6", "--formula", formula, "--format", fmt)
            sample = run_child(Op(argv, ("sha256", workloads.load_reference()[" ".join(argv)])),
                               env)
            failed += sample.error is not None
            print_failures([sample])
            print(f"{' '.join(argv):<60} fresh process: {sample.wall:.3f} s")
        print(f"{formula} sweep m=4 n=6 ({count} elements) roadmap {roadmap}  in-process: "
              f"median {statistics.median(walls):.3f} s of 5")
    return 0 if failed == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="repeat the workload over seeds 1..RUNS and print spreads")
    parser.add_argument("--baselines", action="store_true",
                        help="time the reference commands of README.md")
    args = parser.parse_args()

    if not (SRC / "schurkit" / "cli.py").is_file():
        print(f"error: no schurkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.baselines:
        return baselines()
    if args.workload is None:
        parser.error("--workload is required")
    if args.steadiness:
        return steadiness(args.workload, args.steadiness, args.seconds, args.trace)
    if args.trace:
        return traced(args.workload, args.seed, args.seconds)
    return end_to_end(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
