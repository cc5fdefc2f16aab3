"""Self-tests of the benchmark: python3 bench/selftest.py

They check the benchmark, not epsitau: case lists are reproducible, the
answer checker rejects mutated outputs, and tracing a pass changes no
outcome of a later untraced pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import unittest
from time import perf_counter

import oracle
import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))


def _cli_output(argv: list[str], files: dict[str, str], tmp) -> tuple[int, str]:
    import contextlib
    import io

    from epsitau.cli import main

    for name, text in files.items():
        (tmp / name).write_text(text)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


class CaseLists(unittest.TestCase):
    def test_same_seed_same_cases(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.build(w, 11), workloads.build(w, 11))

    def test_seed_changes_inputs_not_families(self):
        for w in workloads.WORKLOADS:
            a, b = workloads.build(w, 1), workloads.build(w, 2)
            self.assertNotEqual([c["argv"] for c in a], [c["argv"] for c in b])
            self.assertEqual(sorted(c["id"] for c in a), sorted(c["id"] for c in b))

    def test_case_ids_unique_and_defects_present(self):
        ids = [c["id"] for w in workloads.WORKLOADS for c in workloads.build(w, 3)]
        self.assertEqual(len(ids), len(set(ids)))
        self.assertLessEqual(set(workloads.KNOWN_DEFECTS), set(ids))

    def test_random_answers_come_from_the_evaluator(self):
        for c in workloads.build("certify", 5):
            if c["check"]["type"] == "chain" and c["source"] == "evaluator":
                f = c["check"]["formula"]
                valid = oracle.valid_on_chain(f, oracle.chain_size(c["check"]["logic"], f))
                self.assertEqual(valid, c["expect"] == "valid")


class Checker(unittest.TestCase):
    def setUp(self):
        self.tmp = run.BENCH / ".work" / f"selftest-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.golden = json.loads((run.ROOT / workloads.GOLDEN).read_text())

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _case(self, workload, case_id):
        return next(c for c in workloads.build(workload, 1) if c["id"] == f"{workload}/{case_id}")

    def _judge(self, case, code, out):
        return workloads.outcome(case, code, out, self.golden)

    def test_grid_output_dropped_disjunct(self):
        case = self._case("expand", "grid/lc3-k2")
        code, out = _cli_output(case["argv"], case["files"], self.tmp)
        self.assertEqual(self._judge(case, code, out), "ok")
        result = next(line for line in out.splitlines() if line.startswith("result: "))
        dropped = " | ".join(workloads.split_top(result[len("result: "):])[1:])
        self.assertEqual(self._judge(case, code, out.replace(result, "result: " + dropped)), "wrong")
        self.assertEqual(self._judge(case, 1, out), "wrong")
        self.assertEqual(self._judge(case, 3, ""), "budget")

    def test_flipped_verdicts(self):
        valid = self._case("certify", "check/B3-lc3")
        invalid = self._case("certify", "check/B3-lc4")
        for case in (valid, invalid):
            code, out = _cli_output(case["argv"], case["files"], self.tmp)
            self.assertIn(self._judge(case, code, out), workloads.SOLVED)
            self.assertEqual(self._judge(case, 1 - code, out), "wrong")
        code, out = _cli_output(invalid["argv"], invalid["files"], self.tmp)
        doc = json.loads(out)
        doc["countervaluation"] = {k: 3 for k in doc["countervaluation"]}
        self.assertEqual(self._judge(invalid, code, json.dumps(doc)), "wrong")

    def test_golden_mismatch(self):
        case = self._case("certify", "fixture/chain-witness")
        code, out = _cli_output(case["argv"], case["files"], self.tmp)
        self.assertEqual(self._judge(case, code, out), "ok")
        doc = json.loads(out)
        doc["result"] = doc["result"].rsplit(" | ", 1)[0]
        self.assertEqual(self._judge(case, code, json.dumps(doc)), "wrong")

    def test_translation_counts(self):
        case = self._case("expand", "translate/all-3")
        code, out = _cli_output(case["argv"], case["files"], self.tmp)
        self.assertEqual(self._judge(case, code, out), "ok")
        self.assertEqual(self._judge(case, code, out.replace("tau ", "eps ", 1)), "wrong")

    def test_tail_has_ten_samples_beyond(self):
        values = [float(i) for i in range(100)]
        value, pct = run.tail(values)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertEqual(pct, 90.0)


class Tracing(unittest.TestCase):
    def test_untraced_outcomes_do_not_depend_on_tracing(self):
        cases = [c for c in workloads.build("prove", 1) if "de-bruijn-8" not in c["id"]]
        cases += [c for c in workloads.build("expand", 1)
                  if c["id"].split("/")[1] in ("translate", "reconstruct", "rank", "classify")]
        cases += [c for c in workloads.build("certify", 1)
                  if c["id"].endswith(("classical-k2", "chain-witness", "lc-k1"))]
        work = run.BENCH / ".work" / f"selftest-trace-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            for c in cases:
                for name, text in c["files"].items():
                    (work / name).write_text(text)
            manifest = work / "manifest.json"
            run._manifest(manifest, cases, json.loads((run.ROOT / workloads.GOLDEN).read_text()))
            env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"), PYTHONHASHSEED="0")
            deadline = perf_counter() + 120
            before = run._pass(env, manifest, deadline, False)
            traced = run._pass(env, manifest, deadline, True)
            after = run._pass(env, manifest, deadline, False)
        finally:
            shutil.rmtree(work, ignore_errors=True)

        def classes(doc):
            return [(r["id"], r["class"]) for r in doc["cases"]]

        self.assertEqual(classes(before), classes(after))
        self.assertEqual(classes(before), classes(traced))
        self.assertGreater(traced["layers"]["semantics.prove_calls"], 0)
        self.assertGreater(traced["layers"]["eliminate.steps"], 0)


if __name__ == "__main__":
    unittest.main()
