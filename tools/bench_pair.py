"""Benchmark two checkouts of spechtfan against each other in alternating pairs.

    python3 tools/bench_pair.py BASE HEAD --label fan-keys [--pairs 5] [--seconds 45]
        [--workload fan-n8 --workload ideal-n10 ...] [--out DIR]

BASE and HEAD are checkout directories, each with its own perfbench/run.py.
For every workload, pair i runs BASE's perfbench/run.py, then HEAD's, with
the order swapped on odd pairs, so a steady drift in machine speed falls on
both sides alike. Each run is one fresh `perfbench/run.py --workload W
--seconds S --seed 2024 --trace 0` in its own checkout, the seed passed
explicitly so that both sides run the same calls, and its metrics are the
end-to-end metrics of its last output line. Peak RSS depends on the length of the
checkout's path, so give BASE and HEAD paths of equal length.

Writes DIR/BENCH_<label>.json (DIR defaults to the repository this script
is in) with the core count, the Python version, the seed, and for each side its
commit, whether its tree differs from that commit, the line count and
sha256 of its src/ files; then, per workload and metric, each side's runs
with their median and quartiles, and how many pairs HEAD won.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fan-n8", "ideal-n10", "verify-n5")
# perfbench/run.py's own default seed
DEFAULT_SEED = 2024


def git(root: Path, *args: str) -> str | None:
    try:
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, check=True, timeout=60
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def describe(root: Path) -> dict:
    """The side's commit, whether its tracked files differ from it, and its src/ files."""
    files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data + b"\0")
        lines += len(data.decode("utf-8").splitlines())
    top = git(root, "rev-parse", "--show-toplevel")
    inside = top is not None and Path(top).resolve() == root.resolve()
    status = git(root, "status", "--porcelain", "--untracked-files=no") if inside else None
    return {
        "commit": git(root, "rev-parse", "HEAD") if inside else None,
        "modified": bool(status) if inside else None,
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def run_once(root: Path, workload: str, seconds: int) -> dict:
    """One perfbench run in root at DEFAULT_SEED; its last output line, parsed."""
    argv = ["--workload", workload, "--seconds", str(seconds), "--seed", str(DEFAULT_SEED), "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=root, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["metrics"]:
        raise RuntimeError(f"perfbench in {root} measured nothing:\n{proc.stderr[-2000:]}")
    return result


def summary(runs: list[float]) -> dict:
    """The runs with their median and quartiles (inclusive method, so two runs are enough)."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": median, "q1": q1, "q3": q3}


def compare(base: list[dict], head: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' summaries, the pairs HEAD won, and the median change."""
    out = {}
    for name, direction in better.items():
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        sign = 1 if direction == "lower" else -1
        out[name] = {
            "unit": base[0]["metrics"][name]["unit"],
            "better": direction,
            "base": summary(b),
            "head": summary(h),
            "head_won": sum(sign * (y - x) < 0 for x, y in zip(b, h)),
            "median_change": statistics.median(h) / statistics.median(b) - 1,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    spec = json.loads((sides["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {
        "label": args.label,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": DEFAULT_SEED,
        "base": describe(sides["base"]),
        "head": describe(sides["head"]),
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        for i in range(args.pairs):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                result = run_once(sides[side], workload, args.seconds)
                runs[side].append(result)
                wall = result["metrics"].get("wall_s", {}).get("value", float("nan"))
                print(f"{workload} pair {i} {side}: wall_s {wall:.4f} correct {result['correct']}", flush=True)
        report["workloads"][workload] = {
            "correct": {side: [r["correct"] for r in rs] for side, rs in runs.items()},
            "metrics": compare(runs["base"], runs["head"], better),
        }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
