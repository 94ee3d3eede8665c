"""Checks of the benchmark itself, kept out of the repository's tier-1 suite.

    python3 perfbench/selftest.py

Runs every workload at the shortest length in both modes, so it takes
about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import medwit  # noqa: E402
from medwit import cli  # noqa: E402
from medwit.pauli import PauliSum  # noqa: E402
from tracer import LAYERS, TARGETS, Tracer  # noqa: E402
from workloads import PER_LAYER, WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute of medwit's modules and of PauliSum, by owner and name."""
    owners = [medwit] + [getattr(medwit, layer) for layer in LAYERS]
    out = {(o.__name__, attr): value for o in owners for attr, value in vars(o).items()}
    out.update({("PauliSum", attr): value for attr, value in vars(PauliSum).items()})
    return out


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class BenchmarkFileTest(unittest.TestCase):
    def test_names_match_the_code(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(WORKLOADS))
        self.assertEqual([m["name"] for m in BENCH["per_layer"]], PER_LAYER)


class ShortRunTest(unittest.TestCase):
    def _run(self, workload: str, trace: int) -> dict:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
             "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        return json.loads(done.stdout.splitlines()[-1])

    def test_every_named_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self._run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: body["unit"] for name, body in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in BENCH[key]})
                    for body in result["metrics"].values():
                        self.assertIsInstance(body["value"], (int, float))


class TracerTest(unittest.TestCase):
    ARGVS = (["sweep"], ["staged", "--stages", "4", "--patterns", "exhaustive"], ["table"])

    def test_self_times_sum_to_at_most_the_traced_wall_time(self):
        started = time.perf_counter()
        with Tracer() as tracer:
            for argv in self.ARGVS:
                self.assertEqual(_quiet_main(argv), 0)
        wall = time.perf_counter() - started
        summary = tracer.summary()
        self_total = sum(entry["self_s"] for entry in summary.values())
        self.assertLessEqual(self_total, wall)
        self.assertAlmostEqual(self_total, tracer.root_time(), places=9)
        self.assertTrue(all(entry["self_s"] >= 0 for entry in summary.values()))
        self.assertEqual(summary["cli.main"]["calls"], len(self.ARGVS))

    def test_every_patched_attribute_is_restored(self):
        before = _bindings()
        with Tracer():
            during = _bindings()
            self.assertEqual(_quiet_main(["run"]), 0)
        after = _bindings()
        patched = [key for key, value in before.items() if during[key] is not value]
        # each target where it is defined, plus expectation in cli and detect at least
        self.assertGreaterEqual(len(patched), len(TARGETS) + 2)
        self.assertEqual(set(after), set(before))
        self.assertEqual([key for key in before if after[key] is not before[key]], [])

    def test_attributes_are_restored_when_the_traced_code_raises(self):
        before = _bindings()
        with self.assertRaises(RuntimeError):
            with Tracer():
                raise RuntimeError("traced code failed")
        after = _bindings()
        self.assertEqual([key for key in before if after[key] is not before[key]], [])


if __name__ == "__main__":
    unittest.main()
