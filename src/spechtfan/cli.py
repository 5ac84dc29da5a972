"""Command-line interface.

Exit codes: 0 all claims verified, 1 usage or capacity error, 2 a checked
identity failed on concrete data.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import nullcontext

from .combinatorics import Partition, VariableOrder, enumerate_partitions, min_gap_k
from .errors import CapacityError, TheoremViolationError
from .fan import DEFAULT_ENUMERATION_LIMIT, _order_groups, enumerate_fan, theorem_count
from .oracle import DEFAULT_ORACLE_LIMIT, _specht_basis, certify_groebner
from .polytope import pnk_vertices
from .reporting import csv_text, write_json
from .specht import INITIAL_IDEAL_N_LIMIT, initial_ideal
from .verify import run_verification

__all__ = ["main", "build_parser"]


# An error line shows a number this long by its digit count, not its digits.
_LONG_NUMBER = re.compile(r"\d{31,}")


def _short(message) -> str:
    return _LONG_NUMBER.sub(lambda m: f"<{len(m[0])}-digit number>", str(message))


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for real failures."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {_short(message)}\n")


def _write(report, path: str | None) -> None:
    """A CSV text as it is, a JSON document by write_json; an OSError is one error line."""
    try:
        with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as f:
            if isinstance(report, str):
                f.write(report)
            else:
                write_json(report, f)
            f.flush()
    except OSError as exc:
        if path is None:  # what stdout still buffers would fail again as Python exits
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = "to stdout" if path is None else repr(path)
        raise ValueError(f"cannot write {where}: {exc.strerror or exc}") from exc


def _add_output(p) -> None:
    p.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="spechtfan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="theorem count vs brute-force distinct ideal count")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--lambda", dest="lam", metavar="PARTS", help='partition, e.g. "2,2"')
    target.add_argument("--n-max", dest="n_max", type=int, help="run every shape with up to n boxes")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_output(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("initial-ideal", help="minimal generators of one initial ideal")
    p.add_argument("--lambda", dest="lam", metavar="PARTS", required=True)
    p.add_argument("--sigma", metavar="PERM", required=True, help='one-line order, e.g. "2,3,1"')
    _add_output(p)
    p.set_defaults(func=cmd_initial_ideal)

    p = sub.add_parser("fan", help="all initial ideals grouped by variable order")
    p.add_argument("--lambda", dest="lam", metavar="PARTS", required=True)
    _add_output(p)
    p.set_defaults(func=cmd_fan)

    p = sub.add_parser("polytope", help="vertex set of the predicted state polytope")
    p.add_argument("--lambda", dest="lam", metavar="PARTS", required=True)
    _add_output(p)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("verify", help="run the property suite and report rows")
    p.add_argument("--n-max", dest="n_max", type=int, default=5)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="certify one lex basis by S-pair reduction")
    p.add_argument("--lambda", dest="lam", metavar="PARTS", required=True)
    p.add_argument("--sigma", metavar="PERM", help="defaults to the identity order")
    _add_output(p)
    p.set_defaults(func=cmd_oracle)
    return parser


def cmd_count(args) -> int:
    if args.lam is not None:
        lam = Partition.parse(args.lam)
        # theorem_count takes n!, so n is bounded first, as for --n-max
        if lam.n > INITIAL_IDEAL_N_LIMIT:
            raise CapacityError(f"n={lam.n} exceeds the limit {INITIAL_IDEAL_N_LIMIT}")
        lams = [lam]
    elif args.n_max is not None:
        if args.n_max < 2:
            raise ValueError("--n-max must be at least 2")
        # the shapes are listed before anything else, and there are p(n) of them
        if args.n_max > INITIAL_IDEAL_N_LIMIT:
            raise CapacityError(f"--n-max {args.n_max} exceeds the limit {INITIAL_IDEAL_N_LIMIT}")
        lams = [
            lam
            for n in range(2, args.n_max + 1)
            for lam in enumerate_partitions(n)
            if lam.m >= 2
        ]
    else:
        raise ValueError("count needs --lambda or --n-max")
    records = []
    violation = False
    skipped = 0
    for lam in lams:
        want = theorem_count(lam)
        if lam.n > DEFAULT_ENUMERATION_LIMIT:
            skipped += 1
            brute = agree = None
        else:
            # the fan's own key loop, building no ideal and keeping no order
            brute = len(_order_groups(lam, orders=False)[0])
            agree = brute == want
        violation |= agree is False
        records.append((lam.n, lam, min_gap_k(lam), want, brute, agree))
    if skipped:
        shapes = f"{skipped} shape" + "s" * (skipped > 1)
        limit = f"the enumeration limit n={DEFAULT_ENUMERATION_LIMIT}"
        print(f"warning: brute-force count skipped for {shapes} beyond {limit}", file=sys.stderr)
    header = ["n", "lambda", "k", "theorem_count", "brute_force_count", "agree"]
    if args.format == "json":
        report = [dict(zip(header, (n, list(lam.parts), *rest))) for n, lam, *rest in records]
    else:
        report = csv_text(header, records)
    _write(report, args.output)
    return 2 if violation else 0


def cmd_initial_ideal(args) -> int:
    lam = Partition.parse(args.lam)
    order = VariableOrder.parse(args.sigma)
    ideal = initial_ideal(lam, order)
    _write(ideal.to_json(), args.output)
    return 0


def cmd_fan(args) -> int:
    lam = Partition.parse(args.lam)
    fan = enumerate_fan(lam)
    _write(fan.to_json(), args.output)
    return 0


def cmd_polytope(args) -> int:
    lam = Partition.parse(args.lam)
    k = min_gap_k(lam)
    _write({"n": lam.n, "k": k, "vertices": pnk_vertices(lam.n, k)}, args.output)
    return 0


def cmd_verify(args) -> int:
    rows = run_verification(args.n_max, seed=args.seed)
    if args.format == "json":
        report = [r.to_dict() for r in rows]
    else:
        cells = [(r.check, r.instance, r.passed) for r in rows]
        report = csv_text(["check", "instance", "pass"], cells)
    _write(report, args.output)
    return 0 if all(r.passed for r in rows) else 2


def cmd_oracle(args) -> int:
    lam = Partition.parse(args.lam)
    if lam.n > DEFAULT_ORACLE_LIMIT:
        raise ValueError(f"n={lam.n} exceeds the oracle limit {DEFAULT_ORACLE_LIMIT}")
    order = VariableOrder.identity(lam.n) if args.sigma is None else VariableOrder.parse(args.sigma)
    basis = _specht_basis(lam, order, True)
    cert = certify_groebner(basis)
    obj = {"check": "certify-groebner", "lambda": list(lam.parts), "sigma": list(order.sigma)}
    obj.update(cert.to_json())
    _write(obj, args.output)
    return 0 if cert.passed else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapacityError) as exc:
        print(f"error: {_short(exc)}", file=sys.stderr)
        return 1
    except TheoremViolationError as exc:
        print(f"theorem violation: {_short(exc)}", file=sys.stderr)
        return 2
