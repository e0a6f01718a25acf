"""Command-line interface.

Subcommands:

* ``capacity`` — HD (game LP) or FD (cut minimum) capacity of a network
  file, optionally with the optimal schedule, as JSON.
* ``select``   — run a relay-selection strategy; exits 4 if the kept
  fraction falls below the strategy's proven bound (that would be a bug,
  not a property of the input).
* ``generate`` — write a generated network (worst-case / half-tight /
  random families) as JSON.
* ``verify``   — run one named self-verification suite; nonzero exit iff
  some instance failed.
* ``sweep``    — CSV of full capacity vs. best-subnetwork value across a
  range of sizes for a generated family: one rational
  ``select_k_exhaustive`` per size.

Exit codes: 0 success; 1 a verify suite found failures; 2 bad input or
usage; 3 a size guard refused the computation; 4 a proven bound was
violated numerically; 5 the LP engine failed (``SolverFailure``).  All
outputs are deterministic given the same inputs (verify reports include
wall-clock seconds, which naturally vary).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from contextlib import suppress
from fractions import Fraction

from .capacity import _exact_links, fd_capacity, hd_capacity
from .errors import BoundViolation, GuardExceeded, NetworkFormatError, SolverFailure
from .network import (
    UNBOUNDED,
    DiamondNetwork,
    gen_half_tight,
    gen_random,
    gen_worst_case,
    load_network,
    network_to_dict,
    parse_network,
    render_mask,
    schedule_to_dict,
    value_to_json,
)
from .selection import STRATEGIES, select_k, select_k_exhaustive
from .verify import SUITES, run_suite

__all__ = ["main"]


def _read_network(path: str) -> DiamondNetwork:
    if path == "-":
        return parse_network(sys.stdin.read())
    try:
        return load_network(path)
    except OSError as exc:
        raise NetworkFormatError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_value(text: str):
    """Capacity value from the command line: 'inf', an int, a float, or
    an exact 'p/q'.  A finite decimal past the float range, such as 1e400,
    is kept exactly rather than read as unbounded."""
    if text == "inf":
        return UNBOUNDED
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise NetworkFormatError(f"bad capacity value {text!r}") from None
    try:
        value = float(text)
    except ValueError:
        raise NetworkFormatError(f"bad capacity value {text!r}") from None
    if math.isinf(value):
        with suppress(ValueError):
            return Fraction(text)
    return value


def _emit_json(data: dict) -> None:
    sys.stdout.write(json.dumps(data, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_capacity(args: argparse.Namespace) -> int:
    net = _read_network(args.network)
    if args.big_l is not None:
        net = net.substitute_unbounded(_parse_value(args.big_l))
    if args.mode == "hd":
        res = hd_capacity(net, "rational" if args.exact else "float")
    else:
        res = fd_capacity(_exact_links(net) if args.exact else net)
    out = {
        "value": value_to_json(res.value),
        "mode": args.mode,
        "tight_cuts": [render_mask(a, net.n) for a in res.tight_cuts],
    }
    if args.emit_schedule and res.optimal_schedule is not None:
        out["schedule"] = schedule_to_dict(res.optimal_schedule)
    _emit_json(out)
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    net = _read_network(args.network)
    if args.big_l is not None:
        net = net.substitute_unbounded(_parse_value(args.big_l))
    force = None
    if args.force_remove:
        try:
            force = [int(x) for x in args.force_remove.split(",") if x.strip()]
        except ValueError:
            raise NetworkFormatError(
                f"bad --force-remove list {args.force_remove!r}"
            ) from None
    try:
        report = select_k(
            net,
            args.k,
            args.strategy,
            force_remove=force,
            arithmetic="rational" if args.exact else "float",
        )
    except ValueError as exc:
        raise NetworkFormatError(str(exc)) from exc
    out = {
        "strategy": report.strategy,
        "selected": list(report.selected),
        "k": report.k,
        "value_kind": report.value_kind,
        "value": value_to_json(report.value),
        "full_value": value_to_json(report.full_value),
        "fraction": value_to_json(report.fraction),
        "bound": None if report.bound is None else value_to_json(report.bound),
        "notes": list(report.notes),
    }
    _emit_json(out)
    return 4 if report.below_bound else 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "worst-case":
        net = gen_worst_case(args.n, big_l=_parse_value(args.big_l))
    elif args.family == "half-tight":
        net = gen_half_tight(args.n, big_l=_parse_value(args.big_l))
    else:
        net = gen_random(args.n, seed=args.seed, capacity_range=(args.lo, args.hi))
    _write_text(args.output, json.dumps(network_to_dict(net), indent=2) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        rep = run_suite(args.suite, trials=args.trials, seed=args.seed, n_max=args.n_max)
    except ValueError as exc:
        raise NetworkFormatError(str(exc)) from exc
    _emit_json(rep.to_dict())
    return 0 if rep.ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        lo, hi = args.n_range.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise NetworkFormatError(f"bad --n-range {args.n_range!r}, want A:B") from None
    if not 2 <= lo <= hi:
        raise NetworkFormatError(f"bad --n-range {args.n_range!r}")
    fixed_k = None
    if args.k != "best":
        try:
            fixed_k = int(args.k)
        except ValueError:
            raise NetworkFormatError(f"bad --k {args.k!r}, want 'best' or an integer") from None
    gen = gen_worst_case if args.family == "worst-case" else gen_half_tight
    rows = []
    for n in range(lo, hi + 1):
        k = n - 1 if fixed_k is None else fixed_k
        if not 1 <= k <= n:
            raise NetworkFormatError(f"k={k} out of range for n={n}")
        report = select_k_exhaustive(gen(n), k, arithmetic="rational")
        rows.append(
            (
                n,
                value_to_json(report.full_value),
                value_to_json(report.value),
                value_to_json(report.fraction),
            )
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "C_full", "best_value", "fraction"])
    for row in rows:
        writer.writerow(row)
    _write_text(args.out, buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hddiamond",
        description="Half-duplex diamond network capacities and relay selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="capacity of a network file")
    p.add_argument("--network", required=True, help="network JSON path, or - for stdin")
    p.add_argument("--mode", choices=("hd", "fd"), default="hd")
    p.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    p.add_argument(
        "--emit-schedule", action="store_true", help="include the optimal schedule"
    )
    p.add_argument(
        "--big-l", help="substitute this finite value for unbounded links first"
    )
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("select", help="pick k relays by a named strategy")
    p.add_argument("--network", required=True)
    p.add_argument("-k", "--k", type=int, required=True, dest="k")
    p.add_argument("--strategy", choices=STRATEGIES, default="exhaustive")
    p.add_argument(
        "--force-remove",
        help="comma-separated relay labels to remove first (worst-drop only; "
        "voids the bound)",
    )
    p.add_argument("--exact", action="store_true")
    p.add_argument("--big-l")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("generate", help="write a generated network")
    p.add_argument(
        "--family", choices=("worst-case", "half-tight", "random"), required=True
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--big-l", default="inf", help="'inf' or a number (structured families)")
    p.add_argument("--seed", type=int, default=0, help="random family only")
    p.add_argument("--lo", type=float, default=0.0, help="random link range low end")
    p.add_argument("--hi", type=float, default=4.0, help="random link range high end")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="run a self-verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-max", type=int, default=5, dest="n_max")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="CSV of capacity vs best subnetwork by size")
    p.add_argument("--family", choices=("worst-case", "half-tight"), required=True)
    p.add_argument("--n-range", required=True, help="inclusive A:B", dest="n_range")
    p.add_argument("--k", default="best", help="'best' (= n-1) or an integer")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NetworkFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a link is too large for a float ({exc}); use --exact", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 3
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 4
    except SolverFailure as exc:
        print(f"solver: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
