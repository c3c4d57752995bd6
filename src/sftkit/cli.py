"""Command-line surface.

Exit codes: 0 success / nonempty-to-level-N, 2 certified empty,
3 inconclusive (budget or exhausted search), 4 input error,
1 comparison mismatch.
"""
from __future__ import annotations

import argparse
import random
import sys

from .caps import Caps, DEFAULT_CAPS
from .chain import chain_report, chain_start
from .core import SftSpec
from .errors import (
    ArchiveError,
    BudgetError,
    EmptyStateError,
    SftError,
    SpecError,
)
from .levels import LevelReport, analyze, witness_search
from .normalize import (
    MODE_ALL,
    MODE_NON_PROPER,
    build_report,
    enumerate_allowed_cubes,
    forbidden_side,
    normalize_to_cubes,
)
from .oracle import brute_force_allowed, profile_count
from .specio import load_spec_file, load_state, render_block, save_state


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--threads", type=int, default=1, help="worker processes for the oracle")
    p.add_argument("--max-cubes", type=int, default=DEFAULT_CAPS.max_cubes)
    p.add_argument("--max-index", type=int, default=DEFAULT_CAPS.max_index)
    p.add_argument("--max-blocks", type=int, default=DEFAULT_CAPS.max_blocks)
    p.add_argument("--max-work", type=int, default=DEFAULT_CAPS.max_work)


def _caps_of(args) -> Caps:
    if args.threads < 1:
        raise SpecError("--threads must be >= 1")
    return DEFAULT_CAPS.but(
        max_cubes=args.max_cubes,
        max_index=args.max_index,
        max_blocks=args.max_blocks,
        max_work=args.max_work,
        threads=args.threads,
    )


def _parse_shape(text: str, dimension: int) -> tuple[int, ...]:
    try:
        shape = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise SpecError(f"bad shape {text!r}; expected e.g. 4x4") from None
    if len(shape) != dimension or any(s < 1 for s in shape):
        raise SpecError(f"shape {text!r} does not fit dimension {dimension}")
    return shape


def _emit_report(report: LevelReport, fmt: str, out) -> None:
    if fmt == "csv":
        out.write("level,stage,block_count,relation_count,verdict\n")
        for row in report.rows:
            rel = "" if row.relation_count is None else str(row.relation_count)
            out.write(f"{row.level},{row.stage},{row.block_count},{rel},{report.verdict}\n")
        return
    out.write(
        f"side: {report.side}   forbidden cubes: {report.cube_count}   "
        f"allowed cubes: {report.allowed_count}   mode: {report.mode}\n"
    )
    out.write(f"{'level':<6} {'stage':<8} {'blocks':>10} {'relations':>10}\n")
    for row in report.rows:
        rel = "-" if row.relation_count is None else str(row.relation_count)
        out.write(f"{row.level:<6} {row.stage:<8} {row.block_count:>10} {rel:>10}\n")
    out.write(f"verdict: {report.verdict}\n")
    if report.reason:
        out.write(f"reason: {report.reason}\n")


def _cmd_validate(args) -> int:
    spec = load_spec_file(args.spec)
    side = forbidden_side(spec)
    print(
        f"ok: dimension {spec.dimension}, {spec.alphabet_size} symbols, "
        f"{len(spec.forbidden)} forbidden patterns, width {side}"
    )
    return 0


def _cmd_normalize(args) -> int:
    spec = load_spec_file(args.spec)
    caps = _caps_of(args)
    mode = MODE_ALL if args.mode == "all" else MODE_NON_PROPER
    cubes = normalize_to_cubes(spec, mode, caps)
    # allowed cubes are counted against the exact (all-extensions) set
    exact = cubes if mode == MODE_ALL else normalize_to_cubes(spec, MODE_ALL, caps)
    allowed = enumerate_allowed_cubes(spec, exact, caps)
    rep = build_report(spec, cubes, len(allowed))
    if args.format == "csv":
        print("side,cube_count,mode,allowed_count")
        print(f"{rep.side},{rep.cube_count},{rep.mode},{rep.allowed_count}")
    else:
        print(f"side: {rep.side}")
        print(f"cube_count: {rep.cube_count}")
        print(f"mode: {rep.mode}")
        print(f"allowed_count: {rep.allowed_count}")
    return 0


def _cmd_analyze(args) -> int:
    spec = load_spec_file(args.spec)
    result = analyze(spec, args.levels, mode=args.mode, caps=_caps_of(args))
    _emit_report(result.report, args.format, sys.stdout)
    return result.report.exit_code()


def _chain_stage(shape: tuple[int, ...], side: int) -> tuple[int, int]:
    """(level, stage) of the chain stage whose blocks have `shape`."""
    big = max(shape)
    level = 0
    while side << level < big:
        level += 1
    stage = shape.count(big)
    want = (big,) * stage + (big // 2,) * (len(shape) - stage)
    if side << level != big or shape != want or (level == 0 and stage < len(shape)):
        raise SpecError(
            f"shape {shape} is not a doubling stage: the matrix engine counts blocks whose "
            f"first axes are {side}*2^n and whose other axes are half that, in axis order"
        )
    return level, stage


def _matrix_count(spec: SftSpec, shape: tuple[int, ...], caps: Caps) -> int:
    cubes = normalize_to_cubes(spec, MODE_ALL, caps)
    target = _chain_stage(shape, cubes.side)
    start = chain_start(enumerate_allowed_cubes(spec, cubes, caps), cubes)
    st = chain_report(start, cubes, target, caps, build_target=False)[-1]
    # a next-stage count is the size of the relation: that stage is never built
    return len(st.blocks if st.relation is None else st.relation)


def _count_with(spec, engine: str, shape, caps) -> int:
    if engine == "oracle":
        return brute_force_allowed(spec, shape, caps=caps).count
    if engine == "dp":
        return profile_count(spec, shape, caps=caps)
    return _matrix_count(spec, shape, caps)


def _cmd_count(args) -> int:
    spec = load_spec_file(args.spec)
    caps = _caps_of(args)
    shape = _parse_shape(args.shape, spec.dimension)
    count = _count_with(spec, args.engine, shape, caps)
    if args.format == "csv":
        print("shape,engine,count")
        print(f"{args.shape},{args.engine},{count}")
    else:
        print(f"{count}")
    return 0


def _cmd_sample(args) -> int:
    spec = load_spec_file(args.spec)
    caps = _caps_of(args)
    if args.level < 0:
        raise SpecError("level must be >= 0")
    cubes = normalize_to_cubes(spec, MODE_ALL, caps)
    start = chain_start(enumerate_allowed_cubes(spec, cubes, caps), cubes)
    st = chain_report(start, cubes, (args.level, spec.dimension), caps)[-1]
    if not st.blocks:
        raise EmptyStateError(f"no allowed blocks at level {args.level}")
    rng = random.Random(args.seed)
    print(render_block(st.blocks[rng.randrange(len(st.blocks))], spec.alphabet))
    return 0


def _cmd_witness(args) -> int:
    spec = load_spec_file(args.spec)
    caps = _caps_of(args)
    res = witness_search(spec, args.level, caps)
    if res.block is not None:
        print(render_block(res.block, spec.alphabet))
        return 0
    if res.empty:
        print(f"absent: {res.reason}", file=sys.stderr)
        return 2
    print(f"absent: {res.reason} (not an emptiness proof)", file=sys.stderr)
    return 3


def _cmd_compare(args) -> int:
    spec = load_spec_file(args.spec)
    caps = _caps_of(args)
    shapes = [s for s in args.shapes.split(",") if s]
    rows = []
    all_match = True
    for text in shapes:
        shape = _parse_shape(text, spec.dimension)
        engine = _count_with(spec, args.engine, shape, caps)
        try:
            oracle = brute_force_allowed(spec, shape, caps=caps).count
        except BudgetError:
            if spec.dimension != 2:
                raise
            oracle = profile_count(spec, shape, caps=caps)
        match = engine == oracle
        all_match = all_match and match
        rows.append((text, engine, oracle, match))
    if args.format == "csv":
        print("shape,engine_count,oracle_count,match")
        for text, e, o, m in rows:
            print(f"{text},{e},{o},{str(m).lower()}")
    else:
        for text, e, o, m in rows:
            print(f"{text}: engine={e} oracle={o} {'ok' if m else 'MISMATCH'}")
    return 0 if all_match else 1


def _cmd_export(args) -> int:
    spec = load_spec_file(args.spec)
    if spec.dimension != 2:
        raise SpecError("state archives cover the 2-dimensional pipeline only")
    result = analyze(spec, args.levels, mode="reduced", caps=_caps_of(args))
    save_state(result, args.out)
    _emit_report(result.report, args.format, sys.stdout)
    return result.report.exit_code()


def _cmd_import(args) -> int:
    result = load_state(args.archive, _caps_of(args))
    _emit_report(result.report, args.format, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sftkit",
        description="Decide desk-scale questions about shifts of finite type.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and check a problem file")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("normalize", help="replace the forbidden set by uniform cubes")
    p.add_argument("spec")
    p.add_argument("--mode", choices=("all", "nonproper"), default="all")
    _add_common(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("analyze", help="run the doubling pipeline to a level budget")
    p.add_argument("spec")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--mode", choices=("literal", "reduced"), default="reduced")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("count", help="count allowed blocks of one shape")
    p.add_argument("spec")
    p.add_argument("--shape", required=True)
    p.add_argument("--engine", choices=("oracle", "dp", "matrix"), default="oracle")
    _add_common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("sample", help="emit a random allowed patch")
    p.add_argument("spec")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("witness", help="search for one allowed square of a level")
    p.add_argument("spec")
    p.add_argument("--level", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("compare", help="engine counts against the oracle")
    p.add_argument("spec")
    p.add_argument("--shapes", required=True, help="comma-separated, e.g. 4x2,4x4")
    p.add_argument("--engine", choices=("matrix", "dp"), default="matrix")
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("export-state", help="analyze and save the level states")
    p.add_argument("spec")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("import-state", help="load and report a saved archive")
    p.add_argument("archive")
    _add_common(p)
    p.set_defaults(func=_cmd_import)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as e:
        print(f"budget: {e}", file=sys.stderr)
        return 3
    except EmptyStateError as e:
        print(f"empty: {e}", file=sys.stderr)
        return 2
    except ArchiveError as e:
        print(f"archive: {e}", file=sys.stderr)
        return 4
    except (SpecError, SftError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
