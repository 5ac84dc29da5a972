"""Benchmark of the spechtfan command line, end to end and per layer.

    python3 perfbench/run.py --workload fan-n8 [--seed 2024] [--seconds 45] [--trace 0]
    python3 perfbench/run.py --workload all      # every workload in turn

Run from anywhere; the repository root is the parent of this directory.
Each repetition of a workload runs in a fresh interpreter (perfbench/worker.py)
with PYTHONPATH=src, calling `spechtfan.cli.main(argv)` with `--output` into a
temporary directory under the root. Repetitions continue while the next one
is expected to end within --seconds, with at least two. Every output is
checked afterwards: exit code 0, the theorem-level checks in workloads.py,
and, where golden_sha256.json records the call's label (the seed-free fan
outputs and every output of the default seed), the exact bytes.

With --trace 0 the metrics are end to end:
  setup_s       median time of fresh interpreters that import spechtfan.cli
                and call build_parser()
  wall_s        time of one pass over a workload's main() calls, after
                import: the sum over its calls of each call's slowest
                repetition (see call_time)
  peak_rss_mib  median peak RSS (VmHWM) of the worker processes
The share of failed operations (calls whose exit code or output check
failed) is printed as fail_frac and carried by `attempted` and `failed`.

With --trace 1 one traced repetition runs between two untraced ones, and
the metrics are the per_layer entries of BENCHMARK.json, named
<module>.<function>.<stat> (see tracing.py), read from the traced
repetition, and trace.overhead_s, its wall_s minus the mean untraced wall_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden_sha256.json"
IDENTITY_IDEALS = HERE / "identity_ideals.json"
SPEC = ROOT / "BENCHMARK.json"
# The child reports when it is ready: perf_counter is the system-wide monotonic
# clock, and timing the child's exit from here instead would add the polling
# granularity of subprocess's timeout loop (up to 50 ms).
SETUP_CODE = "import time, spechtfan.cli as cli; cli.build_parser(); print(repr(time.perf_counter()))"
# Cold starts are timed in rounds before, between and after the repetitions,
# so that setup_s spans the run as wall_s does.
SETUP_SAMPLES_PER_ROUND = 4
# At least two repetitions; with runs of --seconds, verify-n5 (about 16 s a
# repetition) gets two and the other workloads three or more.
MIN_REPS = 2
DEADLINE_S = 170.0


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": "src"}


def _remaining(deadline: float) -> float:
    return max(1.0, deadline - time.perf_counter())


def measure_setup(samples: int, deadline: float) -> list[float]:
    """Times of fresh interpreters that import spechtfan.cli and build the parser."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        ready = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
            capture_output=True, text=True, check=True, timeout=_remaining(deadline),
        ).stdout
        times.append(float(ready) - start)
    return times


def run_rep(workload: str, seed: int, outdir: Path, trace: bool, deadline: float) -> dict | None:
    """One worker process; None when it crashed or overran the deadline."""
    outdir.mkdir()
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(outdir), str(int(trace))]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired:
        print(f"error: {workload} repetition overran the time limit", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: {workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads((outdir / "result.json").read_text(encoding="utf-8"))


def check_reps(calls, reps, references, golden) -> tuple[int, int, dict]:
    """Check every output of every repetition; identical bytes are checked once.

    Returns (attempted, failed, sha256 per call label)."""
    attempted = failed = 0
    verdicts: dict[tuple[str, str], list[str]] = {}
    hashes = {}
    for result, outdir in reps:
        attempted += len(calls)
        if result is None:
            failed += len(calls)
            continue
        for i, (call, rc) in enumerate(zip(calls, result["codes"])):
            path = outdir / f"{i:02d}.out"
            data = path.read_bytes() if path.exists() else b""
            digest = workloads.sha256(data)
            hashes.setdefault(call.label, digest)
            key = (call.label, digest)
            if key not in verdicts:
                verdicts[key] = workloads.check_call(call, data, references, golden)
            problems = ([f"exit code {rc}"] if rc != 0 else []) + verdicts[key]
            if problems:
                failed += 1
                print(f"FAIL {call.label}: {'; '.join(problems)}", file=sys.stderr)
    return attempted, failed, hashes


def self_test(calls, reps, references) -> list[str]:
    """Each check must reject a tampered copy of a correct output without raising.

    Returns the kinds of output whose check let its tampered copy through."""
    first = next((d for r, d in reps if r is not None), None)
    if first is None:
        return ["all"]
    escaped = []
    for kind in dict.fromkeys(c.kind for c in calls):
        i, call = next((i, c) for i, c in enumerate(calls) if c.kind == kind)
        data = workloads.tamper(call, (first / f"{i:02d}.out").read_bytes())
        try:
            caught = bool(workloads.check_call(call, data, references, {}))
        except Exception as exc:  # a crashing check is itself the finding
            print(f"self-test: check of tampered {call.label} raised {exc!r}", file=sys.stderr)
            caught = False
        if not caught:
            escaped.append(kind)
    return escaped


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else "unknown"


def metadata(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def layer_metrics(reps, calls) -> dict:
    """Per-layer metrics from the traced repetition; the overhead compares
    its wall time with the mean untraced one."""
    if any(r is None for r, _ in reps):
        return {}
    plain = statistics.mean(r["wall_s"] for r, _ in reps if "trace" not in r)
    traced, traced_dir = next((r, d) for r, d in reps if "trace" in r)
    trace = traced["trace"]
    table = tracing.summarize(trace["names"], trace["spans"])
    counts = trace["counts"]
    gens_in = counts["specht.minimalize.gens_in"]
    derived = {
        "specht.minimalize.kept_ratio": counts["specht.minimalize.gens_out"] / gens_in if gens_in else 0.0,
        "cli.main.bytes_out": sum((traced_dir / f"{i:02d}.out").stat().st_size for i in range(len(calls))),
        "trace.wall_s": traced["wall_s"],
        "trace.self_sum_s": sum(row["self_s"] for row in table.values()),
        "trace.overhead_s": traced["wall_s"] - plain,
    }
    print(f"wall_s        {plain:.4f} s untraced (mean), {traced['wall_s']:.4f} s traced, "
          f"overhead {derived['trace.overhead_s']:.4f} s; self times sum to {derived['trace.self_sum_s']:.4f} s")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        if row["calls"]:
            print(f"  {name:44s} calls {row['calls']:9d}  total {row['total_s']:9.4f} s  self {row['self_s']:9.4f} s")
    values = {}
    for metric in json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]:
        name = metric["name"]
        fn, _, stat = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif name in counts:
            value = counts[name]
        elif fn in table:
            value = table[fn][stat]
        else:
            print(f"warning: {fn} was not traced", file=sys.stderr)
            value = 0
        values[name] = {"value": value, "unit": metric["unit"]}
    return values


def call_time(times) -> float:
    """One call's time from its repetitions: the slowest of them.

    On a shared host a call runs at one steady speed most of the time, and
    now and then, for seconds to minutes, up to twice as fast (the same
    call of ideal-n10 took 0.85 s in one repetition and 0.46 s in the
    next). Which repetitions catch such a burst is chance, and their
    median moves with it; the slowest repetition stays at the steady
    speed. Slowdowns beyond it are small: in runs with no burst, the
    repetitions of a call agree within about 10%.
    """
    return max(times)


def end_to_end_metrics(reps, setup_times: list[float]) -> dict:
    done = [r for r, _ in reps if r is not None]
    if not done:
        return {}
    walls = [r["wall_s"] for r in done]
    wall_s = sum(call_time(times) for times in zip(*(r["call_s"] for r in done)))
    rss = [r["peak_rss_kib"] / 1024 for r in done]
    for i, r in enumerate(done):
        print(f"repetition {i}  call_s {' '.join(f'{t:.4f}' for t in r['call_s'])}")
    setup_s = statistics.median(setup_times)
    print(f"setup_s       {setup_s:.4f} s    median of {len(setup_times)} fresh interpreters")
    print(f"wall_s        {wall_s:.4f} s    sum of per-call maxima over {len(walls)} repetitions, "
          f"whole repetitions {min(walls):.4f}..{max(walls):.4f}")
    print(f"peak_rss_mib  {statistics.median(rss):.2f} MiB  median of {len(rss)} repetitions")
    return {
        "wall_s": {"value": wall_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mib": {"value": statistics.median(rss), "unit": "MiB"},
    }


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    calls = workloads.make_calls(workload, seed)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    references = workloads.load_identity_ideals(IDENTITY_IDEALS)
    print(f"workload {workload}: {len(calls)} calls, seed {seed}, trace {int(trace)}")
    print("meta " + json.dumps(metadata(workload, seed)))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        reps = []
        if trace:
            # Untraced, traced, untraced: a steady drift in machine speed
            # cancels out of the overhead.
            for traced in (False, True, False):
                outdir = tmp / f"rep{len(reps)}"
                reps.append((run_rep(workload, seed, outdir, traced, deadline), outdir))
        else:
            measure_setup(1, deadline)  # writes the bytecode cache
            setup_times = []
            start = time.perf_counter()
            while True:
                setup_times += measure_setup(SETUP_SAMPLES_PER_ROUND, deadline)
                outdir = tmp / f"rep{len(reps)}"
                reps.append((run_rep(workload, seed, outdir, False, deadline), outdir))
                elapsed = time.perf_counter() - start
                per_rep = elapsed / len(reps)
                if reps[-1][0] is None or time.perf_counter() + 2 * per_rep > deadline:
                    break
                if len(reps) >= MIN_REPS and elapsed + per_rep > seconds:
                    break
            setup_times += measure_setup(SETUP_SAMPLES_PER_ROUND, deadline)
        attempted, failed, hashes = check_reps(calls, reps, references, golden)
        escaped = self_test(calls, reps, references)
        metrics = layer_metrics(reps, calls) if trace else end_to_end_metrics(reps, setup_times)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for label, digest in hashes.items():
        state = "recorded" if label in golden else "not recorded"
        print(f"output {label}: sha256 {digest} ({state})")
    print(f"self-test     tampered outputs {'rejected' if not escaped else 'NOT rejected: ' + ', '.join(escaped)}")
    print(f"fail_frac     {failed / attempted:.4f}    {failed} of {attempted} operations failed")
    return {
        "correct": failed == 0 and not escaped and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spechtfan" / "cli.py").is_file():
        print(f"error: no spechtfan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        print(json.dumps(bench(name, args.seed, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
