"""Workloads of the spechtfan benchmark and the checks on their outputs.

A workload is a fixed list of CLI calls made from the seed. The program
sees only the generated argv. Each check returns a list of problems with
one call's written output; an empty list means the output is correct.
The checks read only the written files, the theorem statements and the
recorded identity-order ideals, never the package's own code.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import factorial

DEFAULT_SEED = 2024

# Why each workload exists, and which layer it stresses:
# fan-n8     walks all 40,320 orders of n=8 and serializes 8, 336 and 6,720
#            classes (37 MB of JSON for (5,3)): the fan layer and the CLI writer.
# ideal-n10  one initial ideal per call at n=10, where the quadratic
#            minimalize scan dominates and the fan layer is bypassed.
# verify-n5  the full property suite to n=5: the S-pair oracle and the
#            polytope layer, with small fans and small outputs.
WORKLOADS = ("fan-n8", "ideal-n10", "verify-n5")

FAN_SHAPES = ("7,1", "6,2", "5,3")
IDEAL_SHAPES = ("5,3,2", "4,3,2,1", "5,4,1", "6,3,1", "4,3,3")
IDEAL_SIGMAS_PER_SHAPE = 2
VERIFY_N_MAX = 5


@dataclass(frozen=True)
class Call:
    """One CLI call; `label` names its output in reports and in golden_sha256.json."""

    kind: str
    label: str
    argv: tuple[str, ...]
    lam: tuple[int, ...] = ()
    sigma: tuple[int, ...] = ()


def _parts(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def make_calls(workload: str, seed: int) -> list[Call]:
    """The calls of one workload; the fan shapes do not depend on the seed."""
    if workload == "fan-n8":
        return [Call("fan", f"fan {s}", ("fan", "--lambda", s), _parts(s)) for s in FAN_SHAPES]
    if workload == "ideal-n10":
        calls = []
        for s in IDEAL_SHAPES:
            lam = _parts(s)
            rng = random.Random(f"{seed}|initial-ideal|{s}")
            for _ in range(IDEAL_SIGMAS_PER_SHAPE):
                sigma = list(range(1, sum(lam) + 1))
                rng.shuffle(sigma)
                text = _join(sigma)
                argv = ("initial-ideal", "--lambda", s, "--sigma", text)
                calls.append(Call("initial-ideal", f"initial-ideal {s} sigma={text}", argv, lam, tuple(sigma)))
        return calls
    if workload == "verify-n5":
        argv = ("verify", "--n-max", str(VERIFY_N_MAX), "--seed", str(seed))
        return [Call("verify", f"verify n-max={VERIFY_N_MAX} seed={seed}", argv)]
    raise ValueError(f"unknown workload {workload!r}")


def permute(exps, sigma) -> tuple[int, ...]:
    """Move the exponent of variable a to variable sigma(a)."""
    out = [0] * len(exps)
    for a, v in enumerate(sigma):
        out[v - 1] = exps[a]
    return tuple(out)


def _gens(ideal: dict) -> list[tuple[int, ...]]:
    return [tuple(g) for g in ideal["min_gens"]]


def check_fan(doc: dict, lam: tuple[int, ...]) -> list[str]:
    """Class count n!/(k+1)!, class size (k+1)!, and every class ideal equal
    to the identity-order ideal permuted by the class representative."""
    n = sum(lam)
    k = min(a - b for a, b in zip(lam, lam[1:]))
    head = n - k - 1
    classes = doc["classes"]
    want_classes = factorial(n) // factorial(k + 1)
    problems = []
    if doc["lambda"] != list(lam) or doc["n"] != n or doc["k"] != k:
        problems.append(f"header says lambda={doc['lambda']} n={doc['n']} k={doc['k']}")
    if doc["total_orders"] != factorial(n):
        problems.append(f"total_orders={doc['total_orders']}, want {factorial(n)}")
    if doc["distinct_count"] != want_classes or len(classes) != want_classes:
        problems.append(f"distinct_count={doc['distinct_count']} with {len(classes)} classes, want {want_classes}")
    bad_size = sum(c["size"] != factorial(k + 1) for c in classes)
    if bad_size:
        problems.append(f"{bad_size} classes differ from size {factorial(k + 1)}")
    identity = list(range(1, n + 1))
    base = next((c for c in classes if c["representative"] == identity), None)
    if base is None:
        return problems + ["no class has the identity order as representative"]
    base_gens = _gens(base["ideal"])
    mismatched = 0
    bad_rep = 0
    seen = set()
    for c in classes:
        rep = c["representative"]
        if sorted(rep) != identity or rep[head:] != sorted(rep[head:]):
            bad_rep += 1
            continue
        got = _gens(c["ideal"])
        if c["ideal"]["n"] != n or got != sorted(permute(g, rep) for g in base_gens):
            mismatched += 1
        seen.add(tuple(got))
    if bad_rep:
        problems.append(f"{bad_rep} representatives are not the smallest order of a coset")
    if mismatched:
        problems.append(f"{mismatched} class ideals differ from the permuted identity ideal")
    if len(seen) != len(classes) - bad_rep:
        problems.append(f"{len(classes) - bad_rep - len(seen)} class ideals are repeated")
    return problems


def load_identity_ideals(path) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Minimal generators of the identity-order ideal of each IDEAL_SHAPES shape.

    The file was written by `spechtfan initial-ideal --lambda S --sigma 1,...,n`
    at the commit that added the benchmark, so the check needs no run of the
    program under test.
    """
    with open(path, encoding="utf-8") as f:
        return {_parts(s): [tuple(g) for g in gens] for s, gens in json.load(f).items()}


def check_ideal(doc: dict, call: Call, reference: list[tuple[int, ...]]) -> list[str]:
    """The ideal for sigma equals the identity-order ideal permuted by sigma."""
    got = _gens(doc)
    want = sorted(permute(g, call.sigma) for g in reference)
    if doc["n"] != len(call.sigma) or got != want:
        return [f"{len(got)} generators differ from the {len(want)} of the permuted identity ideal"]
    return []


def check_verify(text: str) -> list[str]:
    """A header and at least one row, every row passing."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["check", "instance", "pass"] or len(rows) < 2:
        return ["not a verify CSV report with rows"]
    failing = [r for r in rows[1:] if len(r) != 3 or r[2] != "true"]
    if failing:
        return [f"{len(failing)} of {len(rows) - 1} rows do not pass, first {failing[0]}"]
    return []


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_call(call: Call, data: bytes, references: dict, golden: dict) -> list[str]:
    """Every problem with one call's output: recorded sha256 and content."""
    problems = []
    want_hash = golden.get(call.label)
    if want_hash is not None and sha256(data) != want_hash:
        problems.append("sha256 differs from the recorded output")
    try:
        if call.kind == "fan":
            problems += check_fan(json.loads(data), call.lam)
        elif call.kind == "initial-ideal":
            problems += check_ideal(json.loads(data), call, references[call.lam])
        else:
            problems += check_verify(data.decode("utf-8"))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def tamper(call: Call, data: bytes) -> bytes:
    """A copy of a correct output with one planted defect the check must catch."""
    if call.kind == "verify":
        return data.replace(b",true\n", b",false\n", 1)
    doc = json.loads(data)
    if call.kind == "fan":
        doc["classes"][-1]["ideal"]["min_gens"][0][0] += 1
    else:
        del doc["min_gens"][-1]
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
