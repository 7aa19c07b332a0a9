"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Checks that a seed always produces byte-identical inputs, that the tail
rule picks the highest percentile with ten queries beyond it, that every
wrapped binding fires on the workloads and that tracing changes no
output, that the reference checks reject wrong answers, and that
BENCHMARK.json names exactly the metrics the harness prints.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import hcc  # noqa: E402
import hcc.cli  # noqa: E402
import references  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _write(inputs, work):
    os.makedirs(work, exist_ok=True)
    for name, text in inputs.files.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for w in workloads.WORKLOADS:
            a, b = workloads.generate(w, 7), workloads.generate(w, 7)
            self.assertEqual(a.files, b.files)
            self.assertEqual([q.argv for q in a.queries], [q.argv for q in b.queries])
            self.assertEqual(a.digest(), b.digest())
            self.assertNotEqual(a.digest(), workloads.generate(w, 8).digest())


class TailRule(unittest.TestCase):
    def test_ten_beyond(self):
        for n in (11, 20, 39, 66, 100):
            values = [float(i) for i in range(n, 0, -1)]
            value, pct = worker.tail(values)
            self.assertEqual(sum(v > value for v in values), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_few_queries_use_the_maximum(self):
        self.assertEqual(worker.tail([3.0, 1.0, 2.0]), (3.0, 100.0))


class Tracing(unittest.TestCase):
    NAMED = ("hcc.covers.fox_derivative", "hcc.covers.complex_summary",
             "hcc.bounds.reidemeister_schreier", "hcc.bounds.complex_summary",
             "hcc.bounds.make_elementary_abelian", "hcc.fpexact.FpMatrix.__matmul__")

    def setUp(self):
        self.work = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def _light_queries(self):
        for w in workloads.WORKLOADS:
            inputs = workloads.generate(w, 3)
            _write(inputs, self.work)
            for q in inputs.queries:
                if not q.heavy:
                    yield [a.replace("{dir}", self.work) for a in q.argv]

    def test_every_binding_fires_and_output_is_unchanged(self):
        queries = list(self._light_queries())
        plain = [worker.call(hcc.cli.main, argv)[:3] for argv in queries]
        rec = trace.Recorder()
        sites = rec.install()
        try:
            for name in self.NAMED:
                self.assertIn(name, sites)
            traced = [worker.call(hcc.cli.main, argv)[:3] for argv in queries]
        finally:
            rec.uninstall()
        self.assertEqual(plain, traced)
        self.assertEqual(sorted(set(sites) - set(rec.site_calls)), sorted(trace.UNREACHABLE))
        fox = [sp for sp in rec.spans if sp.name == "presentations.fox_derivative"]
        self.assertTrue(fox)
        self.assertTrue(all(rec.spans[sp.parent].name == "covers.build_cover" for sp in fox))
        self.assertIs(hcc.covers.fox_derivative, hcc.presentations.fox_derivative)

    def test_self_time_excludes_children(self):
        rec = trace.Recorder()
        rec.install()
        try:
            pres = hcc.parse_presentation("< a, b | a b a^-1 b^-1 >")
            group = hcc.make_elementary_abelian(2, 2)
            hcc.covers.build_cover(pres, hcc.Homomorphism(pres, group, [1, 2]), 2)
        finally:
            rec.uninstall()
        agg = trace.aggregate(rec.spans)["covers.build_cover"]
        children = sum(sp.end - sp.start for sp in rec.spans if sp.parent == 0)
        self.assertAlmostEqual(agg["self_s"], agg["s"] - children, places=9)


class References(unittest.TestCase):
    def setUp(self):
        self.work = os.path.join(HERE, ".work", f"selftest-ref-{os.getpid()}")

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_wrong_answers_are_rejected(self):
        def bump(key):
            def mutate(out):
                out[key] += 1
            return mutate

        mutations = {
            "cover": bump("b1"), "bounds_actual": bump("actual"), "present": bump("rank"),
            "ring": lambda out: out["delta_dims"].pop(),
            "bounds": lambda out: out["best"].update(value=out["best"]["value"] + 1),
            "iterate": lambda out: out["stages"][0].update(b1=out["stages"][0]["b1"] + 1),
            "omega": lambda out: out["rows"][0].update(omega=2),
            "suite": lambda out: out["violations"].append("x"),
        }
        seen = set()
        for w in workloads.WORKLOADS:
            inputs = workloads.generate(w, 5)
            _write(inputs, self.work)
            for q in inputs.queries:
                kind = q.check["kind"]
                if q.heavy or kind in seen:
                    continue
                seen.add(kind)
                code, text, raised, _ = worker.call(hcc.cli.main, [a.replace("{dir}", self.work) for a in q.argv])
                self.assertIsNone(raised)
                self.assertEqual(references.check(q.check, text, code, hcc), [], q.argv)
                out = json.loads(text)
                mutations[kind](out)
                self.assertNotEqual(references.check(q.check, json.dumps(out), 0, hcc), [], kind)
                self.assertNotEqual(references.check(q.check, text, 1, hcc), [], kind)
        self.assertEqual(seen, set(mutations))


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
