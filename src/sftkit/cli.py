"""Command-line surface.

Exit codes: 0 success / nonempty-to-level-N, 2 certified empty (an
exhausted witness search included), 3 inconclusive (a budget stop),
4 input error, 1 comparison mismatch.
"""
from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .caps import Caps, DEFAULT_CAPS
from .errors import (
    ArchiveError,
    BudgetError,
    EmptyStateError,
    SftError,
    SpecError,
)

if TYPE_CHECKING:
    import argparse

    from .core import SftSpec
    from .levels import LevelReport

# `main` loads the spec and the caps, then calls the command's handler by
# its name in this module when it runs, so a function swapped here is the one
# called. Each handler imports the engine it runs when it runs, so a process
# loads only the modules of its command.


def _caps_of(args) -> Caps:
    if args.threads < 1:
        raise SpecError("--threads must be >= 1")
    for flag in ("max_cubes", "max_index", "max_blocks", "max_work"):
        if getattr(args, flag) < 0:
            raise SpecError(f"--{flag.replace('_', '-')} must be >= 0")
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


def _cmd_validate(args, spec: SftSpec, caps: Caps) -> int:
    from .normalize import forbidden_side

    side = forbidden_side(spec)
    print(
        f"ok: dimension {spec.dimension}, {spec.alphabet_size} symbols, "
        f"{len(spec.forbidden)} forbidden patterns, width {side}"
    )
    return 0


def _cmd_normalize(args, spec: SftSpec, caps: Caps) -> int:
    from .normalize import MODE_ALL, MODE_NON_PROPER, normalize_to_cubes

    mode = MODE_ALL if args.mode == "all" else MODE_NON_PROPER
    cubes = normalize_to_cubes(spec, mode, caps)
    # allowed cubes are counted against the exact (all-extensions) set
    exact = cubes if mode == MODE_ALL else normalize_to_cubes(spec, MODE_ALL, caps)
    allowed = len(exact.allowed)
    if args.format == "csv":
        print("side,cube_count,mode,allowed_count")
        print(f"{cubes.side},{cubes.forbidden_count},{cubes.mode},{allowed}")
    else:
        print(f"side: {cubes.side}")
        print(f"cube_count: {cubes.forbidden_count}")
        print(f"mode: {cubes.mode}")
        print(f"allowed_count: {allowed}")
    return 0


def _cmd_analyze(args, spec: SftSpec, caps: Caps) -> int:
    from .levels import analyze

    result = analyze(spec, args.levels, mode=args.mode, caps=caps)
    _emit_report(result.report, args.format, sys.stdout)
    return result.report.exit_code()


def _matrix_count(spec: SftSpec, shape: tuple[int, ...], caps: Caps) -> int:
    from .chain import chain_report, spec_start, stage_of

    cubes, _, start = spec_start(spec, caps)
    st = chain_report(start, cubes, stage_of(shape, cubes.side), caps, build_target=False, lazy=True)[-1]
    # a next-stage count is the size of the relation: that stage is never built
    return len(st.blocks if st.relation is None else st.relation)


def _count_with(spec, engine: str, shape, caps) -> int:
    if engine == "oracle":
        from .oracle import brute_force_allowed

        return brute_force_allowed(spec, shape, caps=caps).count
    if engine == "dp":
        from .oracle import profile_count

        return profile_count(spec, shape, caps=caps)
    return _matrix_count(spec, shape, caps)


def _cmd_count(args, spec: SftSpec, caps: Caps) -> int:
    shape = _parse_shape(args.shape, spec.dimension)
    count = _count_with(spec, args.engine, shape, caps)
    if args.format == "csv":
        print("shape,engine,count")
        print(f"{args.shape},{args.engine},{count}")
    else:
        print(f"{count}")
    return 0


def _cmd_sample(args, spec: SftSpec, caps: Caps) -> int:
    from .chain import chain_report, spec_start
    from .levels import sample_walk
    from .specio import render_block

    if args.level < 0:
        raise SpecError("level must be >= 0")
    cubes, _, start = spec_start(spec, caps)
    # a stage past the base is drawn from the last relation and never built
    st = chain_report(start, cubes, (args.level, spec.dimension), caps, build_target=False)[-1]
    print(render_block(sample_walk(st, args.seed, caps), spec.alphabet))
    return 0


def _cmd_witness(args, spec: SftSpec, caps: Caps) -> int:
    from .levels import witness_search
    from .specio import render_block

    res = witness_search(spec, args.level, caps)
    if res.block is not None:
        print(render_block(res.block, spec.alphabet))
        return 0
    if res.empty:
        print(f"absent: {res.reason}", file=sys.stderr)
        return 2
    print(f"absent: {res.reason} (not an emptiness proof)", file=sys.stderr)
    return 3


def _cmd_compare(args, spec: SftSpec, caps: Caps) -> int:
    from .oracle import brute_force_allowed, profile_count

    shapes = [s for s in args.shapes.split(",") if s]
    if not shapes:
        raise SpecError(f"--shapes {args.shapes!r} names no shape")
    parsed = [_parse_shape(text, spec.dimension) for text in shapes]
    if args.engine == "matrix":
        from .chain import stage_of
        from .normalize import forbidden_side

        # a shape the engine cannot count stops before any oracle runs
        for shape in parsed:
            stage_of(shape, forbidden_side(spec))
    rows = []
    all_match = True
    for text, shape in zip(shapes, parsed):
        # the oracle first, so a shape without one stops before the engine runs
        try:
            oracle = brute_force_allowed(spec, shape, caps=caps).count
        except BudgetError as e:
            if args.engine == "dp":
                # the DP is the engine under test, so it cannot be its own oracle
                e.args = (f"no oracle for {text} but the DP under test: {e}",)
                raise
            oracle = profile_count(spec, shape, caps=caps)
        engine = _count_with(spec, args.engine, shape, caps)
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


def _cmd_export(args, spec: SftSpec, caps: Caps) -> int:
    from .levels import analyze
    from .specio import save_state

    # the archive reads the walk's last stage: built once, never counted
    result = analyze(spec, args.levels, mode="reduced", caps=caps, lazy=False)
    save_state(result, args.out)
    _emit_report(result.report, args.format, sys.stdout)
    return result.report.exit_code()


def _cmd_import(args, spec: None, caps: Caps) -> int:
    from .specio import load_state

    result = load_state(args.archive, caps)
    _emit_report(result.report, args.format, sys.stdout)
    return result.report.exit_code()


def _arg(*flags, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


# every command's flags, after its own arguments
_COMMON = (
    _arg("--format", choices=("table", "csv"), default="table"),
    _arg("--threads", type=int, default=1, help="worker processes for the oracle"),
    _arg("--max-cubes", type=int, default=DEFAULT_CAPS.max_cubes),
    _arg("--max-index", type=int, default=DEFAULT_CAPS.max_index),
    _arg("--max-blocks", type=int, default=DEFAULT_CAPS.max_blocks),
    _arg("--max-work", type=int, default=DEFAULT_CAPS.max_work),
)
_SPEC = _arg("spec")
_LEVEL = _arg("--level", type=int, required=True)
_LEVELS = _arg("--levels", type=int, required=True)

# (name, help, handler, arguments before the common ones)
_COMMANDS = (
    (
        "validate",
        "parse and check a problem file",
        _cmd_validate,
        (_SPEC,),
    ),
    (
        "normalize",
        "replace the forbidden set by uniform cubes",
        _cmd_normalize,
        (_SPEC, _arg("--mode", choices=("all", "nonproper"), default="all")),
    ),
    (
        "analyze",
        "run the doubling pipeline to a level budget",
        _cmd_analyze,
        (_SPEC, _LEVELS, _arg("--mode", choices=("literal", "reduced"), default="reduced")),
    ),
    (
        "count",
        "count allowed blocks of one shape",
        _cmd_count,
        (
            _SPEC,
            _arg("--shape", required=True),
            _arg("--engine", choices=("oracle", "dp", "matrix"), default="oracle"),
        ),
    ),
    (
        "sample",
        "emit a random allowed patch",
        _cmd_sample,
        (_SPEC, _LEVEL, _arg("--seed", type=int, required=True)),
    ),
    (
        "witness",
        "search for one allowed block of a level",
        _cmd_witness,
        (_SPEC, _LEVEL),
    ),
    (
        "compare",
        "engine counts against the oracle",
        _cmd_compare,
        (
            _SPEC,
            _arg("--shapes", required=True, help="comma-separated, e.g. 4x2,4x4"),
            _arg("--engine", choices=("matrix", "dp"), default="matrix"),
        ),
    ),
    (
        "export-state",
        "analyze and save the level states",
        _cmd_export,
        (_SPEC, _LEVELS, _arg("--out", required=True)),
    ),
    (
        "import-state",
        "load and report a saved archive",
        _cmd_import,
        (_arg("archive"),),
    ),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. When `command` names a subcommand, only its
    subparser is built; the usage line still lists every subcommand, so
    help and error text are those of the whole tree."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="sftkit",
        description="Decide desk-scale questions about shifts of finite type.",
    )
    chosen = [c for c in _COMMANDS if c[0] == command]
    every = "{" + ",".join(c[0] for c in _COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=every if chosen else None)
    for name, text, handler, arguments in chosen or _COMMANDS:
        p = sub.add_parser(name, help=text)
        for flags, kwargs in arguments + _COMMON:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=handler)
    return ap


def _parse_plain(argv) -> SimpleNamespace | None:
    """The namespace `build_parser(argv[0]).parse_args(argv)` returns, read
    straight from the command table; None for an argv it does not read.

    It reads a command name, one positional and `--flag value` pairs
    (a repeated flag keeps its last value), through the flag's own `type`,
    `choices`, default and required mark. Anything else is argparse's to
    read, refuse or explain: help, unknown or abbreviated flags,
    `--flag=value`, `--`, a token that is empty or starts with `-` where a
    value or the positional goes, a value its type or choices refuse, a
    missing required flag, and a positional count other than one."""
    command = next((c for c in _COMMANDS if argv and c[0] == argv[0]), None)
    if command is None:
        return None
    name, _, handler, arguments = command
    flags = {}
    positional = None
    for names, kwargs in arguments + _COMMON:
        if names[0].startswith("-"):
            flags[names[0]] = kwargs
        else:
            positional = names[0]
    values = {}
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        kwargs = flags.get(token)
        value = next(tokens, "")
        if kwargs is None or not value or value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[token] = value
    if len(given) != 1 or not given[0]:
        return None
    args = {"command": name, positional: given[0]}
    for flag, kwargs in flags.items():
        if flag not in values and kwargs.get("required"):
            return None
        args[flag[2:].replace("-", "_")] = values.get(flag, kwargs.get("default"))
    return SimpleNamespace(**args, func=handler)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_plain(argv) or build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as e:
        # argparse refuses an argv with exit 2, the certified-empty code;
        # help exits 0
        if e.code:
            raise SystemExit(4) from None
        raise
    try:
        from .specio import load_spec_file

        # a spec error comes before a flag error
        spec = load_spec_file(args.spec) if "spec" in vars(args) else None
        return globals()[args.func.__name__](args, spec, _caps_of(args))
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
