#!/usr/bin/env python3
"""Evaluate the gates fresh reports declare against their baselines.

Every checked report carries a top-level "gates" array of records
(written by src/support/Gates.h):

    {"name", "kind": "hard"|"advisory", "value", "check",
     "bound"?, "better"?}

Checks: ``min``/``max`` compare the value with the absolute bound;
``equal`` compares it with the baseline gate of the same name;
``factor`` fails when the value is more than ``bound`` times worse than
the baseline, and ``slack`` when it is more than ``bound`` worse, in the
direction ``better`` ("higher" or "lower"). Each fresh report is paired
with the baseline of the same file name in --baseline-dir. This script
reads nothing but the gates.

A failed hard gate, or a baseline hard gate missing from the fresh
report, prints ``FAILED <gate>: baseline X vs current Y (bound)``; those
lines close the log. A failed or missing advisory gate prints the same
line as ``ADVISORY`` and does not change the exit status.

Exit status: 0 = every hard gate holds, 1 = a hard gate failed or is
missing, 2 = unreadable report, duplicate gate name or malformed gate.

Usage: scripts/check_gates.py --baseline-dir DIR FRESH.json [FRESH.json...]
"""

import argparse
import json
import os
import sys

DIRECTIONS = ("higher", "lower")


def worse(value, base, gate):
    """How far ``value`` is worse than ``base`` (negative: better)."""
    return base - value if gate["better"] == "higher" else value - base


CHECKS = {
    "min": lambda v, b, g: v < g["bound"],
    "max": lambda v, b, g: v > g["bound"],
    "equal": lambda v, b, g: v != b,
    "factor": lambda v, b, g: (b > v * g["bound"] if g["better"] == "higher"
                               else v > b * g["bound"]),
    "slack": lambda v, b, g: worse(v, b, g) > g["bound"],
}
NEEDS_BASELINE = ("equal", "factor", "slack")


class Malformed(Exception):
    pass


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_gates(path):
    """name -> gate record of one report; raises Malformed."""
    try:
        with open(path, encoding="utf-8") as f:
            gates = json.load(f).get("gates", [])
    except (OSError, ValueError, AttributeError) as e:
        raise Malformed(f"cannot read {path}: {e}")
    by_name = {}
    for g in gates if isinstance(gates, list) else [None]:
        if not isinstance(g, dict) or not isinstance(g.get("name"), str):
            raise Malformed(f"{path}: gate record without a name: {g!r}")
        name = g["name"]
        if name in by_name:
            raise Malformed(f"{path}: duplicate gate {name!r}")
        if g.get("check") not in CHECKS:
            raise Malformed(f"{path}: {name}: unknown check {g.get('check')!r}")
        if g.get("kind") not in ("hard", "advisory"):
            raise Malformed(f"{path}: {name}: unknown kind {g.get('kind')!r}")
        if not is_number(g.get("value")):
            raise Malformed(f"{path}: {name}: value is not a number")
        if g["check"] != "equal" and not is_number(g.get("bound")):
            raise Malformed(f"{path}: {name}: {g['check']} needs a bound")
        if g["check"] in ("factor", "slack") and \
                g.get("better") not in DIRECTIONS:
            raise Malformed(f"{path}: {name}: {g['check']} needs better "
                            "higher|lower")
        by_name[name] = g
    return by_name


def show(x):
    return "missing" if x is None else f"{x:.6g}" if isinstance(x, float) \
        else str(x)


def describe(g):
    parts = [g["check"]] + [str(g[k]) for k in ("bound", "better") if k in g]
    return " ".join(parts)


def evaluate(fresh, base):
    """(hard failure lines, advisory lines) for one report pair."""
    hard, advisory = [], []
    for name, g in fresh.items():
        b = base.get(name)
        if b is None and g["check"] in NEEDS_BASELINE:
            continue  # a new gate: nothing to compare with yet
        bv = None if b is None else b["value"]
        if CHECKS[g["check"]](g["value"], bv, g):
            line = (f"{name}: baseline {show(bv)} vs current "
                    f"{show(g['value'])} ({describe(g)})")
            (hard if g["kind"] == "hard" else advisory).append(line)
    for name, b in base.items():
        if name not in fresh:
            line = (f"{name}: baseline {show(b['value'])} vs current missing "
                    f"({describe(b)})")
            (hard if b["kind"] == "hard" else advisory).append(line)
    return hard, advisory


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    ap.add_argument("--baseline-dir", required=True,
                    help="directory holding the baseline reports")
    ap.add_argument("fresh", nargs="+", help="fresh report files")
    args = ap.parse_args()

    failed = []
    try:
        for path in args.fresh:
            fresh = load_gates(path)
            base = load_gates(
                os.path.join(args.baseline_dir, os.path.basename(path)))
            hard, advisory = evaluate(fresh, base)
            print(f"check_gates: {path}: {len(fresh)} gates, "
                  f"{len(hard)} hard failed, {len(advisory)} advisory")
            for line in advisory:
                print(f"check_gates: ADVISORY {line}")
            failed += hard
    except Malformed as e:
        print(f"check_gates: {e}", file=sys.stderr)
        return 2
    for line in failed:
        print(f"check_gates: FAILED {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
