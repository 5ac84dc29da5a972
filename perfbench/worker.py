"""One repetition of a workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD SEED OUTDIR TRACE

Run from the repository root. Imports `spechtfan.cli`, then calls
`spechtfan.cli.main(argv)` once per workload call with `--output
OUTDIR/NN.out`, and writes OUTDIR/result.json: the exit codes, the wall
time of each call and of all calls, the process's peak RSS and, with
TRACE=1, the spans.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import spechtfan.cli
import tracing
import workloads


def peak_rss_kib() -> int:
    """High-water RSS of this process image (Linux).

    ru_maxrss is no use here: Linux carries the parent's peak into a child
    across fork and exec, so a large benchmark parent would show through.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    workload, seed, outdir, trace = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    calls = workloads.make_calls(workload, seed)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install("spechtfan")
    codes = []
    call_s = []
    for i, call in enumerate(calls):
        start = time.perf_counter()
        codes.append(spechtfan.cli.main([*call.argv, "--output", str(outdir / f"{i:02d}.out")]))
        call_s.append(time.perf_counter() - start)
    result = {
        "codes": codes,
        "call_s": call_s,
        "wall_s": sum(call_s),
        "peak_rss_kib": peak_rss_kib(),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    (outdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
