#!/usr/bin/env python3
"""Runs scripts/check_gates.py on fixture report pairs.

Usage: check_gates_test.py PATH/TO/check_gates.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECK_GATES = None


def gate(name, value, check, kind="hard", **extra):
    return dict(name=name, kind=kind, value=value, check=check, **extra)


BASELINE = [
    gate("suite.alvinn.steps", 4862118, "equal"),
    gate("suite.alvinn.wall_ms", 53.9, "factor", "advisory", bound=3,
         better="lower"),
    gate("opt.inline_all_verified", 1, "min", bound=1),
    gate("service.bad_responses", 0, "max", bound=0),
    gate("tune.mean_config_overlap", 0.53, "slack", "advisory", bound=0.05,
         better="higher"),
]


def edited(name, **changes):
    """BASELINE with gate ``name`` updated by ``changes``."""
    return [dict(g, **changes) if g["name"] == name else g for g in BASELINE]


class CheckGates(unittest.TestCase):
    def run_pair(self, fresh_gates):
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "base")
            os.mkdir(base_dir)
            with open(os.path.join(base_dir, "report.json"), "w") as f:
                json.dump({"schema": "x", "gates": BASELINE}, f)
            fresh = os.path.join(tmp, "report.json")
            with open(fresh, "w") as f:
                json.dump({"schema": "x", "gates": fresh_gates}, f)
            return subprocess.run(
                [sys.executable, CHECK_GATES, "--baseline-dir", base_dir,
                 fresh], capture_output=True, text=True)

    def test_all_gates_pass(self):
        r = self.run_pair(edited("suite.alvinn.wall_ms", value=150.0))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("FAILED", r.stdout)
        self.assertNotIn("ADVISORY", r.stdout)

    def test_hard_equal_mismatch_exits_1(self):
        r = self.run_pair(edited("suite.alvinn.steps", value=4862119))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("FAILED suite.alvinn.steps: baseline 4862118 vs "
                      "current 4862119 (equal)", r.stdout)

    def test_advisory_factor_miss_exits_0(self):
        r = self.run_pair(edited("suite.alvinn.wall_ms", value=539.0))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("ADVISORY suite.alvinn.wall_ms", r.stdout)
        self.assertNotIn("FAILED", r.stdout)

    def test_missing_hard_gate_exits_1(self):
        fresh = [g for g in BASELINE if g["name"] != "opt.inline_all_verified"]
        r = self.run_pair(fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("FAILED opt.inline_all_verified: baseline 1 vs current "
                      "missing", r.stdout)

    def test_duplicate_or_unknown_check_exits_2(self):
        r = self.run_pair(BASELINE + [BASELINE[0]])
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("duplicate gate", r.stderr)
        r = self.run_pair(edited("service.bad_responses", check="atmost"))
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("unknown check", r.stderr)


if __name__ == "__main__":
    CHECK_GATES = sys.argv.pop(1)
    unittest.main()
