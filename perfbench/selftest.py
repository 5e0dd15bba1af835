#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic: self-time accounting, the
rejected-level arithmetic, output checks counting a corrupted output as
failed, and BENCHMARK.json agreeing with the metrics the runner prints.

Run from the root of a dpagauss checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_children_only_once(self):
        # a [0, 10] holds b [1, 3], which holds c [2, 2.5], and a second b
        # [4, 5]; a's self time excludes its direct children only
        tracer = tracing.Tracer(FakeClock([0, 1, 2, 2.5, 3, 4, 5, 10]))
        tracer.enter("m.a")
        tracer.enter("m.b")
        tracer.enter("m.c")
        tracer.exit()
        tracer.exit()
        tracer.enter("m.b")
        tracer.exit()
        tracer.exit()
        stats = tracer.stats
        self.assertEqual(stats["m.a"], [1, 10, 7])
        self.assertEqual(stats["m.b"], [2, 3, 2.5])
        self.assertEqual(stats["m.c"], [1, 0.5, 0.5])
        total_self = sum(s[2] for s in stats.values())
        self.assertEqual(total_self, stats["m.a"][1])

    def test_rejected_levels_and_useful_ratio(self):
        tracer = tracing.Tracer()
        tracer.vector_levels(7)  # outside any slab: total only
        tracer.slab_begin(0.05, 2.0)
        for levels in (100, 120):  # attempt 1 at N and N + 20: rejected
            tracer.ladder()
            tracer.vector_levels(levels)
        for levels in (200, 220):  # attempt 2: accepted
            tracer.ladder()
            tracer.vector_levels(levels)
        tracer.vector_levels(30)  # a displacement inside attempt 2
        tracer.slab_end(4.0, accepted=True)
        tracer.slab_begin(0.2, 0.0)
        tracer.ladder()
        tracer.vector_levels(10)
        tracer.ladder()
        tracer.vector_levels(10)
        tracer.slab_end(1.0, accepted=True)
        m = tracer.metrics()
        self.assertEqual(m["fock.vector_levels"], 7 + 100 + 120 + 200 + 220
                         + 30 + 20)
        self.assertEqual(m["verify.truncation_attempts"], 3)
        self.assertAlmostEqual(m["verify.truncation_useful_ratio"], 2 / 3)
        self.assertAlmostEqual(m["verify.rejected_levels_frac"],
                               220 / (220 + 450 + 20))
        self.assertEqual(m["verify.slab.r0.05-u2.s"], 4.0)
        self.assertEqual(m["verify.slab.other.s"], 1.0)
        self.assertEqual(m["verify.slab.r1-u2.s"], 0)

    def test_failed_slab_rejects_every_attempt(self):
        tracer = tracing.Tracer()
        tracer.slab_begin(1.0, 2.0)
        tracer.ladder()
        tracer.vector_levels(50)
        tracer.slab_end(1.0, accepted=False)
        m = tracer.metrics()
        self.assertEqual(m["verify.rejected_levels_frac"], 1.0)
        self.assertEqual(m["verify.truncation_useful_ratio"], 0.0)

    def test_install_counts_from_imports_once_and_restores(self):
        from dpagauss import nonclassicality, statistics
        original = statistics.mandel_q_curve
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            self.assertIs(nonclassicality.mandel_q_curve,
                          statistics.mandel_q_curve)
            nonclassicality.mandel_q_curve(0.2, 0.1, 0.3, [0.0, 0.5, 1.0])
        finally:
            restore()
        self.assertIs(statistics.mandel_q_curve, original)
        self.assertIs(nonclassicality.mandel_q_curve, original)
        self.assertEqual(tracer.stats["statistics.mandel_q_curve"][0], 1)
        self.assertEqual(tracer.counts["statistics.mandel_q_curve.points"], 3)
        # the call reaches model.displacement_amplitude as a child span
        self.assertIn("model.displacement_amplitude", tracer.stats)
        with self.assertRaises(tracing.CoverageError):
            tracing.check_coverage(tracer, "figures")


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def _output(self, call):
        from dpagauss import cli
        out = os.path.join(self.tmp.name, "out")
        code = cli.main(call.argv + ["--out", out])
        with open(out, "rb") as fh:
            return code, fh.read()

    def _check(self, call, code, data, reference):
        """Check ``data`` as if ``call`` had written it."""
        path = os.path.join(self.tmp.name, "check")
        with open(path, "wb") as fh:
            fh.write(data)
        workloads.check(call, code, path, reference)

    def test_one_byte_csv_change_is_failed(self):
        reference = workloads.load_reference()
        call = workloads.build("figures", 0, self.tmp.name)[0]
        code, data = self._output(call)
        self._check(call, code, data, reference)
        # the last digit of the last row: still a valid, plausible CSV
        last = data.rstrip(b"\n").rfind(b",") - 1
        corrupt = data[:last] + (b"1" if data[last:last + 1] != b"1"
                                 else b"0") + data[last + 1:]
        self.assertEqual(len(corrupt), len(data))
        self._check(call, code, corrupt, None)
        with self.assertRaises(workloads.CheckError):
            self._check(call, code, corrupt, reference)
        with self.assertRaises(workloads.CheckError):
            self._check(call, 2, data, reference)

    def test_missing_row_is_failed(self):
        call = workloads.build("figures", 3, self.tmp.name)[0]
        code, data = self._output(call)
        self._check(call, code, data, None)
        cut = data.rstrip(b"\n").rfind(b"\n") + 1
        with self.assertRaises(workloads.CheckError):
            self._check(call, code, data[:cut], None)

    def test_invariants_catch_unphysical_rows(self):
        call = workloads.build("figures", 3, self.tmp.name)[0]
        code, data = self._output(call)
        self._check(call, code, data, None)
        lines = data.decode().splitlines(keepends=True)
        fields = lines[-1].split(",")
        fields[1] = "-1.5"  # Mandel Q below its bound of -1
        lines[-1] = ",".join(fields)
        with self.assertRaises(workloads.CheckError):
            self._check(call, code, "".join(lines).encode(), None)

    def _verify_payload(self, call):
        entries = []
        for params in workloads.expected_params(call.expect):
            quantity = ("wigner_density" if "beta_re" in params else
                        "mean_photon" if "lam" in params else
                        "evolution_trace_distance")
            entries.append({"quantity": quantity, "params": params,
                            "closed_form": 1.0, "oracle": 1.0,
                            "rel_err": 1e-9, "N_used": 40, "pass": True})
        return {"pass": True, "entries": entries}

    def test_pass_false_entry_is_failed(self):
        call = workloads.build("oracle", 5, self.tmp.name)[0]
        payload = self._verify_payload(call)
        self._check(call, 0, json.dumps(payload).encode(), None)
        payload["entries"][3]["pass"] = False
        payload["pass"] = False
        with self.assertRaises(workloads.CheckError):
            self._check(call, 0, json.dumps(payload).encode(), None)
        payload["pass"] = True  # a false entry fails even under pass: true
        with self.assertRaises(workloads.CheckError):
            self._check(call, 0, json.dumps(payload).encode(), None)

    def test_gate_is_fixed_by_the_benchmark(self):
        call = workloads.build("oracle", 5, self.tmp.name)[0]
        payload = self._verify_payload(call)
        payload["entries"][0]["rel_err"] = 2e-6  # the entry itself says pass
        with self.assertRaises(workloads.CheckError):
            self._check(call, 0, json.dumps(payload).encode(), None)

    def test_seed_zero_verify_digest(self):
        call = workloads.build("oracle", 0, self.tmp.name)[0]
        payload = self._verify_payload(call)
        reference = {"verify": {"oracle": workloads.verify_digest(
            payload["entries"])}}
        self._check(call, 0, json.dumps(payload).encode(), reference)
        payload["entries"][0]["oracle"] = 1.5  # oracle bits may change
        payload["entries"][0]["N_used"] = 99
        self._check(call, 0, json.dumps(payload).encode(), reference)
        payload["entries"][0]["closed_form"] = 1.0000000000000002
        with self.assertRaises(workloads.CheckError):
            self._check(call, 0, json.dumps(payload).encode(), reference)


class SeedTest(unittest.TestCase):
    def test_seeds_move_alpha_and_nbar_only(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = workloads.build("figures", 0, tmp)
            again = workloads.build("figures", 7, tmp)
            other = workloads.build("figures", 7, tmp)
            self.assertEqual([c.argv for c in again],
                             [c.argv for c in other])
            self.assertNotEqual([c.argv for c in again],
                                [c.argv for c in base])
            for a, b in zip(base, again):
                for flag in ("--r", "--u", "--u-steps", "--grid-steps"):
                    if flag in a.argv:
                        i = a.argv.index(flag)
                        self.assertEqual(a.argv[i + 1], b.argv[i + 1])
            grid = workloads.build("oracle", 7, tmp)[0].expect
            self.assertEqual(grid["rs"], workloads.ORACLE_RS)
            self.assertEqual(grid["us"], workloads.ORACLE_US)
            self.assertEqual(max(grid["nbars"]), max(workloads.ORACLE_NBARS))
            self.assertEqual(max(grid["alphas"]),
                             max(workloads.ORACLE_ALPHAS))
            self.assertNotEqual(grid["alphas"], workloads.ORACLE_ALPHAS)

    def test_reference_covers_seed_zero(self):
        reference = workloads.load_reference()
        with tempfile.TemporaryDirectory() as tmp:
            keys = {c.key for c in workloads.build("figures", 0, tmp)}
        self.assertEqual(keys, set(reference["figures"]))
        self.assertEqual(set(reference["verify"]), {"oracle"})


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_printed_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
                  encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(tracing.PER_LAYER))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))

    def test_high_percentile_keeps_ten_samples_beyond(self):
        samples = list(range(50))
        self.assertEqual(run.high_percentile(samples), "p80=39 (n=50)")
        self.assertIn("no percentile", run.high_percentile(samples[:10]))


if __name__ == "__main__":
    unittest.main()
