"""Tests of the benchmark itself (not of sftkit). Run from a checkout root:

    python3 perfbench/selftest.py

Takes a few minutes: it replays every workload once under the tracer and
re-derives the embedded expected counts with the library's oracles.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

sftkit = run._import_program()

import specs  # noqa: E402
import tasks  # noqa: E402
import tracer as tracer_mod  # noqa: E402

_REPLAYS: dict = {}


def replay(workload: str, seed: int = 11):
    """A traced replay of a workload, the fewest rounds a run makes:
    (spec_of, rounds, judged, tracer)."""
    if workload not in _REPLAYS:
        work = tempfile.mkdtemp(prefix="selftest-", dir=_work_dir())
        try:
            manifest = run.write_specs(workload, seed, work)
            spec_of = {
                n: tasks.Spec(n, m["doc"], None if m["bad"] is None else frozenset(map(tuple, m["bad"])), m["path"])
                for n, m in manifest.items()
            }
            generated = [n for n in manifest if n not in tasks.fixed_specs(workload)]
            task_list = tasks.build(workload, generated, seed)
            tr = tracer_mod.Tracer()
            tr.install()
            try:
                rounds, _ = run.run_rounds(task_list, spec_of, work, 0, run.SpeedProbe(), tracer=tr)
            finally:
                tr.uninstall()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        _REPLAYS[workload] = (spec_of, rounds, tasks.judge_rounds(rounds, spec_of), tr)
    return _REPLAYS[workload]


def _bench() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _work_dir() -> str:
    path = os.path.join(run.HERE, ".work")
    os.makedirs(path, exist_ok=True)
    return path


class Determinism(unittest.TestCase):
    def test_same_seed_same_specs_and_tasks(self):
        for w in run.WORKLOADS:
            a, b = specs.generate(w, 5), specs.generate(w, 5)
            self.assertEqual(a, b)
            names = [n for n, _, _ in a]
            ta, tb = tasks.build(w, names, 5), tasks.build(w, names, 5)
            self.assertEqual([(t.id, t.argv) for t in ta], [(t.id, t.argv) for t in tb])

    def test_seeds_change_the_spec_files_not_the_counts(self):
        a, b = specs.generate("ladder_sparse", 1), specs.generate("ladder_sparse", 2)
        self.assertNotEqual([d for _, d, _ in a], [d for _, d, _ in b])
        for (_, _, bad_a), (_, _, bad_b) in zip(a, b):
            ca, cb = specs.Counts(bad_a), specs.Counts(bad_b)
            self.assertEqual([ca(s) for s in ((4, 4), (8, 4), (8, 8))], [cb(s) for s in ((4, 4), (8, 4), (8, 8))])

    def test_task_targets_do_not_depend_on_engine_output(self):
        # the task list is fixed before anything runs; replaying a workload
        # (whatever the engine printed) leaves it unchanged
        spec_of, rounds, _, _ = replay("ladder_dense")
        generated = [n for n in spec_of if n not in tasks.fixed_specs("ladder_dense")]
        rebuilt = tasks.build("ladder_dense", generated, 11)
        self.assertEqual([(t.id, t.argv) for t, _ in rounds[0]], [(t.id, t.argv) for t in rebuilt])
        for t in rebuilt:
            self.assertTrue(t.level is not None or t.shape or t.shapes or t.kind in ("equiv", "chain_stage"), t.id)


class Judging(unittest.TestCase):
    def test_known_defects_fail_and_nothing_else(self):
        for w in run.WORKLOADS:
            _, rounds, judged, _ = replay(w)
            failed = {tid for (_, tid), v in judged.items() if v.failed}
            self.assertEqual(failed, {t for t in tasks.KNOWN_DEFECTS if t in {x.id for x, _ in rounds[0]}}, w)
            for key, v in judged.items():
                self.assertEqual(v.known, v.failed, (w, key, v.reasons))
        self.assertEqual({d.letter for d in tasks.KNOWN_DEFECTS.values()}, {"a", "b", "c"})

    def test_other_symptom_on_a_known_defect_task_is_unexpected(self):
        # compare's 4x2 and 4x4 rows are the only brute-force check of hard
        # squares; a wrong count there is a new failure, not defect (a)
        spec_of, rounds, judged, _ = replay("crosscheck")
        task, o = next((t, o) for t, o in rounds[0] if t.kind == "compare")
        self.assertTrue(judged[(0, task.id)].known)
        self.assertIn("4x4,1234,1234,true", o.out)
        forged = tasks.Outcome(code=o.code, out=o.out.replace("4x4,1234,1234,true", "4x4,1235,1234,false"))
        v = tasks.judge(task, spec_of[task.spec], forged)
        self.assertTrue(v.failed)
        self.assertFalse(v.known, v.reasons)
        crashed = tasks.Outcome(exc="Traceback (most recent call last):\nRuntimeError: boom")
        v = tasks.judge(task, spec_of[task.spec], crashed)
        self.assertTrue(v.failed)
        self.assertFalse(v.known, v.reasons)
        # defect (c) is an exit 3 with the chain's budget message, nothing else
        spec_of, rounds, _, _ = replay("ladder_dense")
        task = next(t for t, _ in rounds[0] if t.id == "d3_hard_cubes_diag:count:matrix:4x2x2")
        v = tasks.judge(task, spec_of[task.spec], tasks.Outcome(code=3, err="budget: witness search hit its node budget\n"))
        self.assertTrue(v.failed)
        self.assertFalse(v.known)

    def test_forged_count_is_a_failure(self):
        spec_of, rounds, judged, _ = replay("ladder_dense")
        for task, o in rounds[0]:
            if task.id in ("hard_squares:analyze:1", "dense0:count:matrix:4x2"):
                self.assertFalse(judged[(0, task.id)].failed)
                rows = o.out.splitlines()
                last = rows[-1].split(",")
                col = 2 if task.kind == "analyze" else -1
                last[col] = str(int(last[col]) + 1)
                forged = tasks.Outcome(code=o.code, out="\n".join(rows[:-1] + [",".join(last)]) + "\n")
                v = tasks.judge(task, spec_of[task.spec], forged)
                self.assertTrue(v.failed, task.id)
                self.assertTrue(any("oracle" in r for r in v.reasons), v.reasons)

    def test_forged_patch_is_a_failure(self):
        spec_of, rounds, _, _ = replay("ladder_dense")
        task = next(t for t, _ in rounds[0] if t.id == "hard_squares:sample:1")
        bad = tasks.Outcome(code=0, out="1100\n0000\n0000\n0000\n")
        self.assertTrue(tasks.judge(task, spec_of[task.spec], bad).failed)

    def test_budget_stop_beyond_caps_is_an_outcome(self):
        spec_of, rounds, judged, _ = replay("crosscheck")
        lit = judged[(0, "hard_squares:analyze:literal:2")]
        self.assertFalse(lit.failed)
        task = next(t for t, _ in rounds[0] if t.id == "hard_squares:analyze:literal:2")
        self.assertFalse(tasks.within_caps(task, spec_of[task.spec]))


class Tracing(unittest.TestCase):
    def test_traced_counts_equal_cli_rows(self):
        for w in run.WORKLOADS:
            _, rounds, judged, tr = replay(w)
            # defect (a), where the CLI prints 0 for a relation its layers
            # computed, is the only disagreement, and it is left out
            self.assertEqual(run.trace_mismatches(tr, rounds, judged), [], w)
            covered = {}
            owner = {}
            for i, sp in enumerate(tr.spans):
                owner[i] = sp.attrs["task"] if sp.name == "task" else owner.get(sp.parent)
                for shape, value in sp.attrs.get("claims", ()):
                    covered.setdefault(owner[i], {}).setdefault(tuple(shape), set()).add(value)
            for task, _ in rounds[0]:
                v = judged[(0, task.id)]
                if v.failed:
                    continue
                for shape, value in v.claims:
                    self.assertIn(value, covered.get(task.id, {}).get(tuple(shape), set()), (task.id, shape))

    def test_layer_split_and_yield(self):
        names = [m["name"] for m in _bench()["per_layer"]]
        got = {}
        for w in run.WORKLOADS:
            _, rounds, _, tr = replay(w)
            got[w] = run.layer_metrics(tr, rounds, names, 1.0)
        for w in ("ladder_dense", "ladder_sparse"):
            for n in names:
                if n.startswith(("matrices.", "oracle.")):
                    self.assertEqual(got[w][n], 0, (w, n))
        self.assertGreater(got["ladder_dense"]["levels.rel.yield"], 0.5)
        self.assertLessEqual(got["ladder_sparse"]["levels.rel.yield"], got["ladder_dense"]["levels.rel.yield"] / 10)
        self.assertGreater(got["crosscheck"]["matrices.step.s"], 0)
        self.assertGreater(got["crosscheck"]["oracle.brute.s"], 0)
        self.assertGreater(got["crosscheck"]["oracle.dp.s"], 0)
        self.assertGreater(got["ladder_dense"]["specio.archive_bytes"], 0)
        self.assertGreater(got["ladder_dense"]["chain.scan.checks"], 0)


class Oracles(unittest.TestCase):
    def test_table_matches_library_oracles(self):
        for name, rows in specs.TABLE.items():
            spec = sftkit.parse_spec(specs.FIXED[name])
            for shape, want in rows.items():
                cand = len(spec.alphabet) ** math.prod(shape)
                if cand <= 2**16:
                    got = sftkit.brute_force_allowed(spec, shape).count
                else:
                    got = sftkit.profile_count(spec, shape)
                self.assertEqual(got, want, (name, shape))

    def test_closed_forms(self):
        for name in ("full_shift", "checkerboard"):
            spec = sftkit.parse_spec(specs.FIXED[name])
            for shape in ((2, 2), (4, 2), (4, 4)):
                self.assertEqual(sftkit.brute_force_allowed(spec, shape).count, specs.closed_form(name, shape))

    def test_strip_counter_matches_library_oracles(self):
        for pool in specs.POOLS:
            bad = specs._unmask(specs.POOLS[pool][0])
            spec = sftkit.parse_spec(specs._square_doc(bad))
            c = specs.Counts(bad)
            for shape in ((2, 2), (4, 2), (4, 4), (2, 8)):
                self.assertEqual(c(shape), sftkit.brute_force_allowed(spec, shape).count, (pool, shape))
            for shape in ((8, 4), (8, 8), (16, 8)):
                self.assertEqual(c(shape), sftkit.profile_count(spec, shape), (pool, shape))

    def test_pools_redraw(self):
        for name in specs.POOL_RULES:
            self.assertEqual(specs.draw_pool(name), specs.POOLS[name], name)


class Contract(unittest.TestCase):
    def test_refuses_without_program(self):
        tmp = tempfile.mkdtemp(prefix="selftest-bare-", dir=_work_dir())
        try:
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"), ignore=shutil.ignore_patterns(".work", "__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ladder_sparse", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn("{", p.stdout)

    def test_result_line(self):
        bench = _bench()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ladder_sparse", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=180,
            )
            self.assertEqual(p.returncode, 0, p.stderr)
            res = json.loads(p.stdout.strip().splitlines()[-1])
            self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(res["correct"])
            self.assertEqual(sorted(res["metrics"]), sorted(m["name"] for m in bench[section]))


if __name__ == "__main__":
    os.chdir(run.ROOT)
    unittest.main()
