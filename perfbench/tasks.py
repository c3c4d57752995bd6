"""Workload task lists, how a task runs, and how its outcome is judged.

Every task asks a fixed question: a spec plus a pinned level or block
shape. Targets come from the workload definition alone, never from what
the engine printed, so an engine that certifies deeper does no extra work
on them.

A task fails when the program prints a count that differs from its oracle
value, raises out of the CLI, or refuses (wrong exit code, missing answer)
when the asked answer is within the default caps. A budget stop before an
answer that is out of reach of the caps is an outcome, not a failure.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import traceback
from dataclasses import dataclass, field

import sftkit
from sftkit import cli

import specs


@dataclass(frozen=True)
class Defect:
    """A known defect of the program and the exact symptom it shows: the
    task's failure reasons, and text its stderr holds. A failure with any
    other reasons is counted as unexpected."""

    letter: str
    reasons: frozenset
    err: str = ""


_A_COUNT = "8x4: printed 0, oracle 1095851"
_MISSING = frozenset({"exit 3, expected 0", "asked answer missing from the output"})

# Tasks that reproduce a known defect of the program. They stay in the
# timed workloads and count as failed while the defect lasts.
KNOWN_DEFECTS = {
    # the level-1 vertical relation is dropped when the horizontal
    # relation then budget-stops: prints 0 instead of 1,095,851 for 8x4;
    # compare's 4x2 and 4x4 rows must still match the oracle
    "hard_squares:count:matrix:8x4": Defect("a", frozenset({_A_COUNT})),
    "hard_squares:compare:4x2,4x4,8x4": Defect("a", frozenset({_A_COUNT, "exit 1, expected 0"})),
    # level-0 relations are built eagerly and their budget stop discards
    # the 80 known cubes: exit 3, no rows
    "three_symbol:analyze:0": Defect("b", _MISSING),
    # run_chain runs the whole cycle; its third stage budget-stops after
    # the asked first stage was complete
    "d3_hard_cubes_diag:count:matrix:4x2x2": Defect("c", _MISSING, "budget: chain relation needs"),
}


@dataclass
class Spec:
    name: str
    doc: dict
    bad: frozenset | None = None  # forbidden 2x2 cubes of a generated spec
    path: str = ""
    counts: object = None

    @property
    def dimension(self) -> int:
        return self.doc["dimension"]

    @property
    def side(self) -> int:
        return specs.FIXED_SIDE.get(self.name, 2)

    def count(self, shape):
        """Expected allowed-block count of `shape`, or None if unknown."""
        shape = tuple(shape)
        if self.bad is not None:
            if self.counts is None:
                self.counts = specs.Counts(self.bad)
            return self.counts(shape)
        got = specs.closed_form(self.name, shape)
        return got if got is not None else specs.TABLE.get(self.name, {}).get(shape)


@dataclass
class Task:
    id: str
    spec: str
    kind: str
    argv: list = field(default_factory=list)
    level: int | None = None
    shape: tuple | None = None
    shapes: tuple = ()
    mode: str = "reduced"
    engine: str = ""

    @property
    def defect(self) -> Defect | None:
        return KNOWN_DEFECTS.get(self.id)


def _shape_text(shape) -> str:
    return "x".join(map(str, shape))


def analyze(spec, level, mode="reduced"):
    tag = "" if mode == "reduced" else f"{mode}:"
    argv = ["analyze", "{spec}", "--levels", str(level), "--mode", mode, "--format", "csv"]
    return Task(f"{spec}:analyze:{tag}{level}", spec, "analyze", argv, level=level, mode=mode)


def count(spec, engine, shape):
    text = _shape_text(shape)
    argv = ["count", "{spec}", "--engine", engine, "--shape", text, "--format", "csv"]
    return Task(f"{spec}:count:{engine}:{text}", spec, "count", argv, shape=tuple(shape), engine=engine)


def compare(spec, shapes):
    text = ",".join(_shape_text(s) for s in shapes)
    argv = ["compare", "{spec}", "--shapes", text, "--format", "csv"]
    return Task(f"{spec}:compare:{text}", spec, "compare", argv, shapes=tuple(map(tuple, shapes)))


def sample(spec, level, seed):
    argv = ["sample", "{spec}", "--level", str(level), "--seed", str(seed)]
    return Task(f"{spec}:sample:{level}", spec, "sample", argv, level=level)


def witness(spec, level):
    return Task(f"{spec}:witness:{level}", spec, "witness", ["witness", "{spec}", "--level", str(level)], level=level)


def export_import(spec, level):
    argv = ["export-state", "{spec}", "--levels", str(level), "--out", "{archive}", "--format", "csv"]
    return [
        Task(f"{spec}:export:{level}", spec, "export", argv, level=level),
        Task(f"{spec}:import:{level}", spec, "import", ["import-state", "{archive}", "--format", "csv"], level=level),
    ]


def library(spec, kind):
    return Task(f"{spec}:{kind}", spec, kind)


def build(workload: str, generated: list, seed: int) -> list[Task]:
    """The fixed task list of one workload; `generated` names the
    workload's generated specs in order."""
    ts: list[Task] = []
    if workload == "ladder_dense":
        ts += [analyze("hard_squares", 1), count("hard_squares", "matrix", (4, 4))]
        ts += [count("hard_squares", "matrix", (8, 4)), sample("hard_squares", 1, seed)]
        ts += [witness("hard_squares", 2)] + export_import("hard_squares", 1)
        ts += [analyze("full_shift", 2), count("full_shift", "matrix", (4, 4))]
        ts += [analyze("three_symbol", 0)]
        ts += [analyze("d1_no_adjacent_ones", 3), count("d1_no_adjacent_ones", "matrix", (16,))]
        ts += [sample("d1_no_adjacent_ones", 3, seed)]
        ts += [analyze("d3_hard_cubes", 0), library("d3_hard_cubes", "chain_stage")]
        ts += [analyze("d3_hard_cubes_diag", 0), count("d3_hard_cubes_diag", "matrix", (4, 2, 2))]
        for g in generated:
            ts += [analyze(g, 1), count(g, "matrix", (4, 2)), sample(g, 1, seed), witness(g, 1)]
            ts += export_import(g, 1)
    elif workload == "ladder_sparse":
        ts += [analyze("checkerboard", 3), count("checkerboard", "matrix", (16, 16))]
        ts += [sample("checkerboard", 3, seed), witness("checkerboard", 3)]
        ts += [analyze(g, 3) for g in generated]
    elif workload == "crosscheck":
        ts += [analyze("hard_squares", 2, mode="literal"), library("hard_squares", "equiv")]
        ts += [compare("hard_squares", [(4, 2), (4, 4), (8, 4)])]
        ts += [count("hard_squares", "dp", (8, 8)), count("hard_squares", "dp", (16, 8))]
        for g in generated:
            if g.startswith("lit"):
                ts.append(analyze(g, 2, mode="literal"))
            else:
                ts += [library(g, "equiv"), count(g, "oracle", (8, 2))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ts


def fixed_specs(workload: str) -> list[str]:
    return {
        "ladder_dense": ["hard_squares", "full_shift", "three_symbol", "d1_no_adjacent_ones", "d3_hard_cubes", "d3_hard_cubes_diag"],
        "ladder_sparse": ["checkerboard"],
        "crosscheck": ["hard_squares"],
    }[workload]


# ---------------------------------------------------------------------------
# running


@dataclass
class Outcome:
    code: int | None = None
    out: str = ""
    err: str = ""
    exc: str | None = None
    result: dict | None = None  # library tasks
    seconds: float = 0.0


def run_task(task: Task, spec: Spec, archive: str) -> Outcome:
    o = Outcome()
    if task.kind in ("equiv", "chain_stage"):
        try:
            o.result = _LIBRARY[task.kind](spec)
        except Exception:
            o.exc = traceback.format_exc()
        return o
    argv = [a.replace("{spec}", spec.path).replace("{archive}", archive) for a in task.argv]
    argv += ["--threads", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            o.code = cli.main(argv)
        except SystemExit as e:  # argparse refusal
            o.code = e.code if isinstance(e.code, int) else 1
        except Exception:
            o.exc = traceback.format_exc()
    o.out, o.err = out.getvalue(), err.getvalue()
    return o


def _equiv(spec: Spec) -> dict:
    # criterion-4 path of the acceptance suite: literal matrices over the
    # full cube index (forbidden cubes included), then the level-1
    # vertical matrix without the horizontal one
    caps = sftkit.DEFAULT_CAPS.but(max_index=70000, max_work=10**8)
    sp = sftkit.parse_spec(spec.doc)
    cubes = sftkit.normalize_to_cubes(sp, caps=caps)
    full = tuple(sftkit.normalize.iter_cubes(sp, cubes.side))
    lit0 = sftkit.level0_matrices(full, cubes, caps)
    lit1 = sftkit.step_literal(lit0, caps, compute_h=False)
    return {
        "side": cubes.side,
        "letters": len(full),
        "base_vert": lit0.vert.ones_count(),
        "base_horiz": lit0.horiz.ones_count(),
        "step_index": len(lit1.letters),
        "step_vert": lit1.vert.ones_count(),
    }


def _chain_stage(spec: Spec) -> dict:
    # the first chain stage on its own: run_chain would go on through the
    # whole first cycle, which costs about half a minute for hard cubes
    sp = sftkit.parse_spec(spec.doc)
    cubes = sftkit.normalize_to_cubes(sp)
    index = sftkit.enumerate_allowed_cubes(sp, cubes)
    st = sftkit.chain_start(index, cubes)
    st = sftkit.d_chain_step(sftkit.chain_relation(st, cubes), cubes)
    return {"shape": st.blocks[0].shape if st.blocks else None, "blocks": len(st.blocks)}


_LIBRARY = {"equiv": _equiv, "chain_stage": _chain_stage}


# ---------------------------------------------------------------------------
# judging


def _csv_rows(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return []
    head = lines[0].split(",")
    return [dict(zip(head, ln.split(","))) for ln in lines[1:]]


def _int(text):
    return None if text in (None, "", "-") else int(text)


def _stage_shape(spec: Spec, level: int, stage: int) -> tuple:
    """Block shape of chain stage (level, stage); stage d is the full cube."""
    big, small = spec.side << level, spec.side << max(level - 1, 0)
    d = spec.dimension
    return (big,) * stage + (small,) * (d - stage)


def analysis_claims(task: Task, spec: Spec, rows) -> tuple[list, list]:
    """(claims, problems): the (shape, count) pairs an analyze-style CSV
    report asserts, and rows that break the index arithmetic."""
    claims, problems = [], []
    d, l = spec.dimension, spec.side
    k0 = None
    for r in rows:
        n, stage = int(r["level"]), r["stage"]
        blocks, rel = _int(r["block_count"]), _int(r["relation_count"])
        s = l << n
        if task.mode == "literal":
            if stage == "vert":
                if n == 0:
                    k0 = blocks
                    claims.append(((l, l), blocks))
                elif k0 is not None and blocks != k0 ** (4**n):
                    problems.append(f"level {n} vertical index {blocks} != {k0}^(4^{n})")
                claims.append(((2 * s, s), rel))
            elif stage == "horiz":
                claims.append(((2 * s, 2 * s), rel))
            continue
        if d == 2:
            if stage == "squares":
                claims.append(((s, s), blocks))
                if rel is not None:
                    claims.append(((2 * s, s), rel))
            elif stage == "rects":
                claims.append(((2 * s, s), blocks))
                if rel is not None:
                    claims.append(((2 * s, 2 * s), rel))
            continue
        i = d if stage == "cubes" else int(stage[3:])
        shape = _stage_shape(spec, n, i)
        claims.append((shape, blocks))
        if rel is not None:
            axis = 0 if i == d else i
            claims.append((shape[:axis] + (2 * shape[axis],) + shape[axis + 1 :], rel))
    return claims, problems


def within_caps(task: Task, spec: Spec):
    """Whether the asked answer is reachable under the default caps,
    judged from expected counts and the code's budget formulas."""
    if task.kind in ("equiv", "chain_stage", "witness"):
        return True  # a witness search stopped by its node budget is judged in `judge`
    if task.kind == "count" and task.engine == "oracle":
        return len(spec.doc["symbols"]) ** math.prod(task.shape) <= specs.ORACLE_CANDIDATES
    if task.kind == "count" and task.engine == "dp":
        r, s = task.shape
        return len(spec.doc["symbols"]) ** (s * (spec.side - 1)) <= specs.PROFILE_STATES
    if task.kind == "compare":
        return all(within_caps(count(task.spec, "matrix", s), spec) for s in task.shapes)
    if task.mode == "literal":
        k = spec.count((spec.side,) * 2)
        return task.level <= 1 and k * k <= specs.MAX_INDEX
    if spec.dimension != 2:
        target = task.shape or (spec.side << task.level,) * spec.dimension
        return _chain_within(spec, target)
    if task.kind == "count":
        r, c = task.shape
        n = (c // spec.side).bit_length() - 1
        ok = specs.ladder_plan(spec.count, spec.side, n)[0]
        if r == c or not ok:
            return ok
        sq = spec.count((c, c))
        return sq is not None and sq * sq <= specs.MAX_WORK
    return specs.ladder_plan(spec.count, spec.side, task.level)[0]


def _chain_within(spec: Spec, target) -> bool | None:
    d = spec.dimension
    shape = (spec.side,) * d
    axis = 0
    while tuple(shape) != tuple(target):
        n = spec.count(shape)
        if n is None:
            return None
        if n == 0:
            return True
        if n * n > specs.MAX_WORK:
            return False
        shape = shape[:axis] + (2 * shape[axis],) + shape[axis + 1 :]
        nxt = spec.count(shape)
        if nxt is None:
            return None
        if nxt > specs.MAX_BLOCKS:
            return False
        axis = (axis + 1) % d
    return True


def asked_shape(task: Task, spec: Spec) -> tuple:
    if task.shape is not None:
        return task.shape
    return (spec.side << task.level,) * spec.dimension


@dataclass
class Verdict:
    failed: bool
    reasons: list
    claims: list  # (shape, count) pairs the output asserts
    known: bool = False  # failed with exactly its known defect's symptom

    def expected_mismatch(self, shape, value) -> bool:
        """Whether a printed (shape, value) that its layers contradict is
        the wrong count of this task's known defect."""
        return self.known and any(r.startswith(f"{_shape_text(shape)}: printed {value}, ") for r in self.reasons)


def judge(task: Task, spec: Spec, o: Outcome, export_rows=None) -> Verdict:
    reasons: list[str] = []
    claims: list = []
    if o.exc is not None:
        return Verdict(True, ["traceback: " + o.exc.strip().splitlines()[-1]], [])
    within = within_caps(task, spec)
    answered = False
    if task.kind == "equiv":
        r = o.result
        s = r["side"]
        claims = [((2 * s, s), r["base_vert"]), ((2 * s, 2 * s), r["base_horiz"]), ((4 * s, 2 * s), r["step_vert"])]
        if r["step_index"] != r["letters"] ** 4:
            reasons.append(f"step index {r['step_index']} != {r['letters']}^4")
        answered = True
    elif task.kind == "chain_stage":
        claims = [(o.result["shape"], o.result["blocks"])]
        answered = o.result["shape"] is not None
    elif task.kind in ("analyze", "export", "import"):
        rows = _csv_rows(o.out)
        claims, problems = analysis_claims(task, spec, rows)
        reasons += problems
        if task.kind == "import" and export_rows is not None and rows != export_rows:
            reasons.append("imported report differs from the exported one")
        target = asked_shape(task, spec)
        answered = any(sh == target for sh, _ in claims) or o.code == 2
    elif task.kind == "count":
        rows = _csv_rows(o.out)
        claims = [(task.shape, int(r["count"])) for r in rows]
        answered = bool(claims)
    elif task.kind == "compare":
        for r in _csv_rows(o.out):
            sh = tuple(int(x) for x in r["shape"].split("x"))
            claims += [(sh, int(r["engine_count"])), (sh, int(r["oracle_count"]))]
        answered = len(claims) == 2 * len(task.shapes)
    elif task.kind in ("sample", "witness"):
        block = _read_block(o.out, spec)
        target = asked_shape(task, spec)
        if o.code == 0:
            if block is None or block[0] != target:
                reasons.append(f"printed patch is not a {target} block")
            elif not block_allowed(spec, *block):
                reasons.append("printed patch contains a forbidden pattern")
            answered = True
        elif task.kind == "witness" and o.code == 3 and "node budget" in o.err:
            within = False  # the search budget stopped it: an outcome
    for shape, value in claims:
        want = spec.count(shape)
        if want is None:
            reasons.append(f"no oracle value for {shape}")
        elif value != want:
            reasons.append(f"{_shape_text(shape)}: printed {value}, oracle {want}")
    if task.kind in ("equiv", "chain_stage"):
        pass
    elif within:
        empty = task.kind in ("analyze", "export", "sample", "witness") and spec.count(asked_shape(task, spec)) == 0
        expected = 2 if empty else 0
        if o.code != expected:
            reasons.append(f"exit {o.code}, expected {expected}")
        if not answered and not empty:
            reasons.append("asked answer missing from the output")
    elif o.code not in (0, 2, 3):
        reasons.append(f"exit {o.code}")
    d = task.defect
    known = d is not None and sorted(reasons) == sorted(d.reasons) and d.err in o.err
    return Verdict(bool(reasons), reasons, claims, known)


def judge_rounds(rounds, spec_of) -> dict:
    """Verdicts of every task of every round, keyed by (round, task id).
    An import is compared with the export of the same round."""
    judged = {}
    for r, done in enumerate(rounds):
        exported = {}
        for task, o in done:
            judged[(r, task.id)] = judge(task, spec_of[task.spec], o, exported.get(task.spec))
            if task.kind == "export":
                exported[task.spec] = _csv_rows(o.out)
    return judged


def _read_block(text: str, spec: Spec):
    """(shape, data) of a rendered 1- or 2-dimensional block."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or spec.dimension > 2:
        return None
    sym = {s: i for i, s in enumerate(spec.doc["symbols"])}
    try:
        rows = [[sym[ch] for ch in ln] for ln in lines]
    except KeyError:
        return None
    if spec.dimension == 1:
        return ((len(rows[0]),), tuple(rows[0])) if len(rows) == 1 else None
    if len({len(r) for r in rows}) != 1:
        return None
    return (len(rows), len(rows[0])), tuple(itertools.chain.from_iterable(rows))


def _pattern_cells(node, dimension, sym):
    """Cells of a spec-document pattern, sparse or dense form."""
    if all(
        isinstance(c, list) and len(c) == 2 and isinstance(c[0], list) and len(c[0]) == dimension and isinstance(c[1], str)
        for c in node
    ):
        return [(tuple(c[0]), sym[c[1]]) for c in node]
    cells = []

    def walk(sub, coord):
        if len(coord) == dimension:
            if sub != "*":
                cells.append((tuple(coord), sym[sub]))
            return
        for i, child in enumerate(sub):
            walk(child, coord + [i])

    walk(node, [])
    return cells


def block_allowed(spec: Spec, shape, data) -> bool:
    """Naive check that no forbidden pattern occurs in the block, straight
    from the spec document."""
    d = len(shape)
    sym = {s: i for i, s in enumerate(spec.doc["symbols"])}
    strides = [1] * d
    for i in range(d - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    for node in spec.doc["forbidden"]:
        cells = _pattern_cells(node, d, sym)
        lo = [min(c[i] for c, _ in cells) for i in range(d)]
        cells = [(tuple(c[i] - lo[i] for i in range(d)), s) for c, s in cells]
        ext = [max(c[i] for c, _ in cells) + 1 for i in range(d)]
        for off in itertools.product(*[range(shape[i] - ext[i] + 1) for i in range(d)]):
            if all(data[sum((c[i] + off[i]) * strides[i] for i in range(d))] == s for c, s in cells):
                return False
    return True
