"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Not collected by pytest (the name does not start with ``test_``), so the
repository's test suite does not pay for these runs.  Traced runs use a
reduced catalog and a fresh interpreter each, so the library's caches
start empty as in a real run.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL_CATALOG = ("simplex(2)", "simplex(3)", "square", "rectangle", "battery.simplex2")
SMALL_BODIES = SMALL_CATALOG[:4]


def _child(kind: str, seed: int) -> dict:
    """Traced per-layer values and outcome of one small run, in a fresh process."""
    code = (
        "import json, sys; sys.path[:0] = [%r, %r]\n"
        "import layers, workloads, selftest\n"
        "print(json.dumps(selftest.traced(%r, %d)))\n" % (HERE, SRC, kind, seed)
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced(kind: str, seed: int) -> dict:
    from tracer import Tracer

    ctx = workloads.Context(trace=True, root=ROOT, src=SRC)
    if kind == "catalog":
        inputs = workloads.catalog_setup(seed, ctx, names=SMALL_CATALOG)
        run_fn = workloads.catalog_run
    else:
        inputs = workloads.spectral_setup(seed, ctx)
        run_fn = workloads.spectral_run
    tracer = Tracer()
    tracer.install(layers.HOOKS)
    ctx.tracer = tracer
    outcome = run_fn(inputs, 0, ctx)
    tracer.uninstall()
    return {
        "per_layer": layers.compute(tracer, ctx.extra),
        "failed": outcome.failed_ops,
        "attempted": len(outcome.ops),
        "fingerprints": outcome.detail.get("fingerprints"),
    }


def _exact_part(per_layer: dict) -> dict:
    """Counts and yields: the metrics that must repeat exactly."""
    return {
        name: per_layer[name]
        for name, unit in layers.PER_LAYER
        if unit in ("count", "rows", "vars") or name.endswith(("_yield", "_ratio"))
        if name != "spectral.max_residual"
    }


class TracedRunsRepeat(unittest.TestCase):
    def test_catalog_counts_repeat_and_verdicts_ignore_the_seed(self):
        a, b, c = _child("catalog", 11), _child("catalog", 11), _child("catalog", 12)
        for out in (a, b, c):
            self.assertEqual(out["failed"], 0)
            self.assertEqual(out["attempted"], len(SMALL_CATALOG))
        self.assertEqual(_exact_part(a["per_layer"]), _exact_part(b["per_layer"]))
        self.assertGreater(a["per_layer"]["exactlp.lp_feasible.calls"], 0)
        self.assertGreater(a["per_layer"]["symmetry.aut_candidates"], 0)
        self.assertEqual(a["per_layer"]["algebra.jordan_product.calls.sym_r"], 0)
        self.assertGreater(a["per_layer"]["classification.verify_s.simplex2"], 0)
        self.assertEqual(a["fingerprints"], c["fingerprints"])
        expected = workloads.expected_catalog()
        self.assertEqual(a["fingerprints"], {n: expected[n] for n in SMALL_BODIES})

    def test_spectral_counts_repeat(self):
        a, b = _child("spectral", 5), _child("spectral", 5)
        self.assertEqual(a["failed"], 0)
        self.assertEqual(_exact_part(a["per_layer"]), _exact_part(b["per_layer"]))
        for fam in layers.FAMILY_NAMES:
            calls = a["per_layer"][f"spectral.spectral_decompose.calls.{fam}"]
            self.assertEqual(calls, 2 * workloads.TRACE_ROUNDS)
        self.assertEqual(a["per_layer"]["exactlp.lp_feasible.calls"], 0)


class ChecksGateTheRun(unittest.TestCase):
    def test_wrong_expected_value_fails_the_body(self):
        ctx = workloads.Context(trace=False, root=ROOT, src=SRC)
        inputs = workloads.catalog_setup(3, ctx, names=("square", "simplex(1)"))
        expected = workloads.expected_catalog()
        expected["square"] = dict(expected["square"], group_order=7)
        outcome = workloads.catalog_run(inputs, 0, ctx, expected=expected)
        self.assertEqual(outcome.failed_ops, 1)
        self.assertIn("square", outcome.failures[0][1])

    def test_wrong_eigenvalues_fail_the_decomposition(self):
        ctx = workloads.Context(trace=False, root=ROOT, src=SRC)
        pool = workloads.spectral_setup(4, ctx)
        x = pool["herm_o"]["degenerate"][0]
        dec = workloads.js.spectral_decompose(x)
        self.assertTrue(workloads.check_decomposition(dec, x, pool["herm_o"]["lam"])[2])
        self.assertFalse(workloads.check_decomposition(dec, x, [1.5, 1.0, -0.5])[2])

    def test_cli_crash_is_not_refuted(self):
        # A relative PYTHONPATH does not resolve from the CLI's working
        # directory, so every child dies with exit 1 before printing JSON;
        # commands whose expected exit is 1 must fail too.
        ctx = workloads.Context(trace=True, root=ROOT, src=SRC)
        inputs = workloads.cli_setup(2, ctx)
        inputs["env"] = dict(inputs["env"], PYTHONPATH="src")
        outcome = workloads.cli_run(inputs, 0, ctx)
        self.assertEqual(outcome.failed_ops, len(outcome.ops))
        self.assertFalse(os.path.exists(inputs["workdir"]))

    def test_failed_ops_make_the_command_fail(self):
        doc = {"ready": 1.0, "numpy": "x", "ops": [["a", 0, 0.5]], "passes": [0.5],
               "reference": [0.2], "reference_s": 0.2, "failures": [[0, "wrong"]],
               "failed_ops": 1, "peak_rss_mb": 1.0, "detail": {}}
        saved = run._worker, run.STATE
        run._worker = lambda args, setup_only=False: (doc, 0.25, 0.2)
        run.STATE = os.path.join(ROOT, ".perfbench", "selftest-state")
        try:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = run.main(["--workload", "spectral-stream", "--seed", "1",
                                 "--seconds", "0", "--trace", "0"])
        finally:
            shutil.rmtree(run.STATE, ignore_errors=True)
            run._worker, run.STATE = saved
        result = json.loads(buf.getvalue().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        # one measuring process and two set-up-only ones, which report no ops
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))


class References(unittest.TestCase):
    def test_scaled_pass_follows_the_work_not_the_host(self):
        ops = [("a", 0, 1.0), ("a", 0, 1.2), ("b", 0, 0.3), ("b", 1, 0.5)]
        ref = [0.1, 0.12, 0.1, 0.1]
        base = run.referenced_pass(ops, ref, 0.1)
        self.assertAlmostEqual(base, 1.0 + 0.4)
        slow_host = [(k, i, 2 * dt) for k, i, dt in ops]
        self.assertAlmostEqual(run.referenced_pass(slow_host, [2 * r for r in ref], 0.1), base)
        self.assertAlmostEqual(run.referenced_pass(slow_host, ref, 0.1), 2 * base)


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(tuple(workloads.WORKLOADS), run.WORKLOADS)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(n, u, layers.better(n)) for n, u in layers.PER_LAYER],
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )

    def test_refuses_without_the_library(self):
        bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "spectral-stream",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
