"""sftkit benchmark: fixed-question CLI workloads on the doubling ladder and
the literal/oracle cross-check.

    python3 perfbench/run.py --workload ladder_dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is imported from ./src in
this process; each task calls `sftkit.cli.main(argv)` with stdout captured
(or a public library function), single-threaded. Rounds of the workload's
fixed task list repeat until --seconds is used up. The last line of
stdout is one JSON object: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run of the same rounds.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("ladder_dense", "ladder_sparse", "crosscheck")
SETUP_RUNS = 15
# a task's time is its fastest of at least three rounds, so a stall that
# hits it in one round drops out
MIN_ROUNDS = 3
# frontier probe: analyze far past where any spec stops under the default
# caps, except where one more level costs minutes
PROBE_LEVELS = 6
PROBE_CEILING = {"d1_no_adjacent_ones": 3, "d3_hard_cubes": 0}
# Median time of one pass of `SpeedProbe`'s loop at the machine speed that
# times are scaled to (about its median on a 2-core x86-64 VM).
REFERENCE_SAMPLE_S = 0.004
SAMPLES_PER_TASK = 4
# Share of the probe's speed change that the engine's tasks follow; fitted
# on interleaved runs, see README.md.
ELASTICITY = 0.75


class SpeedProbe:
    """A fixed pure-Python loop of tuple slicing, hashing and lookups in a
    dict of 16k 12-tuples (~3 MB, past the core's private caches), the mix
    of the engine's inner loops. It shares no code with sftkit.

    The benchmark's machine is shared, and its speed drifts by tens of
    percent within minutes. The loop is timed before every task, and the
    run's task times are scaled by (REFERENCE_SAMPLE_S / median sample) **
    ELASTICITY, i.e. to seconds at the reference speed; so are the set-up
    interpreters, which run between the same tasks."""

    def __init__(self):
        rng = random.Random(1)
        self.data = tuple(rng.randrange(2) for _ in range(1 << 14))
        self.table = {self.data[i : i + 12]: i for i in range(len(self.data) - 12)}
        self.offsets = [rng.randrange(len(self.data) - 12) for _ in range(6000)]
        self.samples: list[float] = []

    def sample(self) -> None:
        data, get = self.data, self.table.get
        for _ in range(SAMPLES_PER_TASK):
            t0 = time.perf_counter()
            hits = 0
            for o in self.offsets:
                if get(data[o : o + 12], -1) >= 0:
                    hits += 1
            self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return (REFERENCE_SAMPLE_S / statistics.median(self.samples)) ** ELASTICITY


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "sftkit", "__init__.py")):
        sys.exit(f"run.py: no sftkit sources under {SRC}; run from a checkout root")
    sys.path.insert(0, SRC)
    import sftkit

    if not os.path.abspath(sftkit.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: imported sftkit from {sftkit.__file__}, not from {SRC}")
    return sftkit


def write_specs(workload: str, seed: int, out_dir: str) -> dict:
    """Generate the workload's specs, write them as spec files, parse them
    back through the program, and return the manifest."""
    sftkit = _import_program()
    import specs
    import tasks

    os.makedirs(out_dir, exist_ok=True)
    entries = [(n, specs.FIXED[n], None) for n in tasks.fixed_specs(workload)]
    entries += specs.generate(workload, seed)
    manifest = {}
    for name, doc, bad in entries:
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        sftkit.load_spec_file(path)
        manifest[name] = {"path": path, "doc": doc, "bad": None if bad is None else sorted(bad)}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest


class SetupTimer:
    """Times fresh interpreters that import sftkit and write and parse the
    workload's spec files. The machine's speed changes in phases of a few
    seconds, so the SETUP_RUNS interpreters are spread over the measured
    rounds, between tasks, and `setup_s` is the fastest of them at
    reference speed."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload, self.seed, self.work = workload, seed, work
        self.times: list[float] = []

    def run(self) -> str:
        """Time one interpreter; returns the directory it wrote."""
        out_dir = os.path.join(self.work, f"setup{len(self.times)}")
        argv = [sys.executable, os.path.abspath(__file__), "--setup-only", out_dir,
                "--workload", self.workload, "--seed", str(self.seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        self.times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"run.py: setup failed:\n{proc.stderr}")
        return out_dir

    def due(self, elapsed: float, seconds: float) -> bool:
        return len(self.times) < SETUP_RUNS and elapsed >= len(self.times) * seconds / SETUP_RUNS


def fresh_process_state() -> None:
    """Make the next call start as a fresh CLI process would: empty the
    program's memo caches and collect garbage. Without this, a scan cache
    keyed by cube-set value compares each new, equal cube set element by
    element on every lookup, which makes repeated in-process calls on the
    same spec several times slower than the CLI."""
    for name, mod in list(sys.modules.items()):
        if name == "sftkit" or name.startswith("sftkit."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    gc.collect()


def run_rounds(task_list, spec_of, work, seconds, speed, setup=None, tracer=None):
    """Repeat the task list until `seconds` is used up (at least
    MIN_ROUNDS times), sampling the machine's speed before each task and
    running the set-up interpreters that are due.
    Returns per-round lists of (task, outcome) and the peak resident
    memory in MB after the first round: later rounds repeat the same
    questions, and what they add is allocator drift that a fresh CLI
    process per command would not have."""
    import tasks

    rounds = []
    peak_mb = None
    start = time.perf_counter()
    while True:
        done = []
        for task in task_list:
            if setup is not None and setup.due(time.perf_counter() - start, seconds):
                setup.run()
            fresh_process_state()
            speed.sample()
            root = tracer.open("task") if tracer else None
            t0 = time.perf_counter()
            o = tasks.run_task(task, spec_of[task.spec], os.path.join(work, f"{task.spec}.state.json"))
            o.seconds = time.perf_counter() - t0
            if root is not None:
                root.attrs.update(task=task.id, round=len(rounds))
                tracer.close(root)
            done.append((task, o))
        rounds.append(done)
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = sum(o.seconds for _, o in done)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + wall > seconds:
            while setup is not None and len(setup.times) < SETUP_RUNS:
                setup.run()
            return rounds, peak_mb


def task_wall(rounds, scale) -> float:
    """Time to answer the workload's questions once, at reference speed:
    the sum over tasks of each task's fastest time over the rounds."""
    return scale * sum(min(r[i][1].seconds for r in rounds) for i in range(len(rounds[0])))


def frontier_probe(sftkit, spec_of, tracer_mod) -> dict:
    """Deepest level `analyze` certifies per spec under default caps, with
    the cap that stopped it and the amount that cap would have needed."""
    out = {}
    for name, spec in spec_of.items():
        levels = PROBE_CEILING.get(name, PROBE_LEVELS)
        tr = tracer_mod.Tracer()
        fresh_process_state()
        tr.install()
        t0 = time.perf_counter()
        try:
            res = sftkit.analyze(sftkit.parse_spec(spec.doc), levels)
        finally:
            tr.uninstall()
        rows = res.report.rows
        reached = [r.level for r in rows if r.stage in ("squares", "cubes") and r.block_count > 0]
        # the last span carrying a budget stop is where it was raised
        stops = [sp for sp in tr.spans if "budget" in sp.attrs]
        stop = stops[-1] if stops else None
        out[name] = {
            "levels": levels,
            "frontier": max(reached, default=0),
            "verdict": res.report.verdict,
            "stopped_in": stop.name if stop else None,
            "cap": stop.attrs["budget"][0] if stop else None,
            "required": stop.attrs["budget"][1] if stop else None,
            "seconds": round(time.perf_counter() - t0, 3),
        }
    return out


def layer_metrics(tracer, rounds, names, scale) -> dict:
    """Per-round per-layer figures from the spans of the timed tasks,
    median over rounds. Times are self times at reference speed."""
    spans = tracer.spans
    children = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent] += sp.seconds
    root_of = {}
    per_round = [defaultdict(float) for _ in rounds]
    for i, sp in enumerate(spans):
        root = sp if sp.name == "task" else root_of.get(sp.parent)
        root_of[i] = root
        if root is None:
            continue
        acc = per_round[root.attrs["round"]]
        key = "harness" if sp.name == "task" else sp.name
        acc[key + ".s"] += (sp.seconds - children[i]) * scale
        for attr in ("checks", "out", "squares", "nodes", "blocks", "ones", "index", "allowed",
                     "candidates", "states", "row_checks", "bytes"):
            if attr in sp.attrs:
                acc[f"{key}.{attr}"] += sp.attrs[attr]
        if "budget" in sp.attrs and sp.name.startswith("levels.") and sp.name != "levels.analyze":
            acc["levels.budget_stops"] += 1
        if sp.name == "matrices.step" and "budget" in sp.attrs and sp.attrs["budget"][1] == sp.attrs["index"] ** 2:
            # the level-(n+1) vertical matrix was built, then dropped with
            # the horizontal index stop
            acc["matrices.step.dropped"] += 1
    for acc in per_round:
        for lay in ("levels.vrel", "levels.hrel"):
            acc[f"{lay}.yield"] = acc[f"{lay}.out"] / acc[f"{lay}.checks"] if acc[f"{lay}.checks"] else 0.0
        rel_checks = acc["levels.vrel.checks"] + acc["levels.hrel.checks"]
        acc["levels.rel.yield"] = (acc["levels.vrel.out"] + acc["levels.hrel.out"]) / rel_checks if rel_checks else 0.0
        idx = acc["matrices.step.index"]
        acc["matrices.step.allowed_share"] = acc["matrices.step.allowed"] / idx if idx else 0.0
        acc["oracle.brute.rate"] = acc["oracle.brute.candidates"] / acc["oracle.brute.s"] if acc["oracle.brute.s"] else 0.0
        acc["specio.archive_bytes"] = acc["specio.save.bytes"]
    out = {n: statistics.median(acc.get(n, 0.0) for acc in per_round) for n in names}
    out["trace.wall_s"] = task_wall(rounds, scale)
    out["trace.raw_wall_s"] = task_wall(rounds, 1.0)
    return out


def trace_mismatches(tracer, rounds, judged) -> list:
    """CLI-printed counts that disagree with what the task's own layers
    computed for the same block shape (first round), other than the wrong
    count of a known defect that shows exactly its symptom."""
    claims = defaultdict(lambda: defaultdict(set))
    owner = {}
    for i, sp in enumerate(tracer.spans):
        if sp.name == "task":
            owner[i] = sp.attrs["task"] if sp.attrs["round"] == 0 else None
            continue
        owner[i] = owner.get(sp.parent)
        if owner[i] is not None:
            for shape, value in sp.attrs.get("claims", ()):
                claims[owner[i]][tuple(shape)].add(value)
    out = []
    for task, _ in rounds[0]:
        for shape, value in judged[(0, task.id)].claims:
            seen = claims[task.id].get(tuple(shape))
            if seen and value not in seen and not judged[(0, task.id)].expected_mismatch(shape, value):
                out.append((task.id, shape, value, sorted(seen)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        write_specs(args.workload, args.seed, args.setup_only)
        return 0

    sftkit = _import_program()
    import tasks
    import tracer as tracer_mod

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, ".work"))
    try:
        setup = SetupTimer(args.workload, args.seed, work)
        with open(os.path.join(setup.run(), "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        speed = SpeedProbe()
        spec_of = {
            name: tasks.Spec(name, m["doc"], None if m["bad"] is None else frozenset(map(tuple, m["bad"])), m["path"])
            for name, m in manifest.items()
        }
        generated = [n for n in manifest if n not in tasks.fixed_specs(args.workload)]
        task_list = tasks.build(args.workload, generated, args.seed)

        tracer = tracer_mod.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            rounds, peak_mb = run_rounds(task_list, spec_of, work, args.seconds, speed, setup, tracer)
        finally:
            if tracer:
                tracer.uninstall()

        # judging and the frontier probe run after the measured rounds
        judged = tasks.judge_rounds(rounds, spec_of)
        attempted = len(judged)
        failed = [k for k, v in judged.items() if v.failed]
        unexpected = [k for k in failed if not judged[k].known]
        unchecked = [k for k, v in judged.items() if any(x.startswith("no oracle value") for x in v.reasons)]
        scale = speed.scale()
        frontier = frontier_probe(sftkit, spec_of, tracer_mod)

        metrics = {}
        if args.trace:
            names = [m["name"] for m in bench["per_layer"]]
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            values = layer_metrics(tracer, rounds, names, scale)
            mism = trace_mismatches(tracer, rounds, judged)
            values["trace.row_mismatches"] = len(mism)
            unexpected += [(0, m[0]) for m in mism]
        else:
            names = [m["name"] for m in bench["end_to_end"]]
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            values = {
                "setup_s": min(setup.times) * scale,
                "wall_s": task_wall(rounds, scale),
                "peak_rss_mb": peak_mb,
                "pass_ratio": (attempted - len(failed)) / attempted,
                "frontier_sum": sum(p["frontier"] for p in frontier.values()),
            }
        for name in names:
            metrics[name] = {"value": values[name], "unit": units[name]}

        # human-readable summary above the result line
        for task, o in rounds[0]:
            v = judged[(0, task.id)]
            secs = scale * min(oo.seconds for done in rounds for t, oo in done if t.id == task.id)
            mark = "FAIL" if v.failed else "ok"
            note = f" [known defect {task.defect.letter}]" if v.known else ""
            print(f"{secs:8.3f}s  {mark:4}  {task.id}{note}  {'; '.join(v.reasons)}")
        for name, p in frontier.items():
            print(f"probe {name}: frontier {p['frontier']} of {p['levels']} ({p['verdict']}; "
                  f"stopped in {p['stopped_in']} by {p['cap']}, required {p['required']}) {p['seconds']}s")
        if args.trace:
            for m in mism:
                print(f"trace: {m[0]} printed {m[2]} for {m[1]}, its layers computed {m[3]}")
        print("set-up raw seconds: " + " ".join(f"{t:.3f}" for t in setup.times))
        print(f"rounds {len(rounds)}, speed scale {scale:.3f}, attempted {attempted}, failed {len(failed)} "
              f"(unexpected {len(unexpected)}, unchecked {len(unchecked)})")
        print(json.dumps({
            "correct": not unexpected and not unchecked,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
