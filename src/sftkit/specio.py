"""Problem-definition documents, ASCII rendering, and state archives.

A problem document is JSON with exactly three fields::

    {
      "dimension": 2,
      "symbols": ["0", "1"],
      "forbidden": [
        [["1", "1"]],                      # dense rows; "*" marks don't-care
        [[[0, 0], "1"], [[1, 0], "1"]]     # sparse [coordinate, symbol] cells
      ]
    }

Dense patterns are nested lists of depth `dimension` whose leaves are
symbols or the fill marker "*"; sparse patterns list [coord, symbol] cells.
Unknown top-level fields are rejected.
"""
from __future__ import annotations

import hashlib
import json
import math
from typing import Sequence

from .caps import DEFAULT_CAPS, Caps
from .chain import chain_report, chain_start
from .core import MAX_DIMENSION, Block, CubeSet, Pattern, SftSpec, allowed_data, make_spec
from .errors import ArchiveError, FormatError, ShapeError, SpecError
from .levels import AnalysisResult, LevelReport, LevelRow, LevelState, level_states, verdict_of
from .normalize import MODE_ALL, forbidden_side, iter_cubes, normalize_to_cubes

FILL = "*"
ARCHIVE_FORMAT = "sft-state"
ARCHIVE_VERSION = 1


# ---------------------------------------------------------------------------
# spec documents


def _is_sparse_pattern(node, dimension: int) -> bool:
    if not isinstance(node, list) or not node:
        return False
    return all(
        isinstance(cell, list)
        and len(cell) == 2
        and isinstance(cell[0], list)
        and len(cell[0]) == dimension
        and all(isinstance(c, int) for c in cell[0])
        and isinstance(cell[1], str)
        for cell in node
    )


def _parse_pattern(node, dimension: int, symbols: dict[str, int], path: str) -> Pattern:
    cells: list[tuple[tuple[int, ...], int]] = []
    if _is_sparse_pattern(node, dimension):
        for cell in node:
            coord, sym = tuple(cell[0]), cell[1]
            if sym not in symbols:
                raise SpecError(f"{path}: unknown symbol {sym!r}")
            cells.append((coord, symbols[sym]))
    else:
        def walk(sub, coord, depth):
            if depth == dimension:
                if not isinstance(sub, str):
                    raise FormatError(f"{path}: expected a symbol at depth {dimension}")
                if sub == FILL:
                    return
                if sub not in symbols:
                    raise SpecError(f"{path}: unknown symbol {sub!r}")
                cells.append((tuple(coord), symbols[sub]))
                return
            if not isinstance(sub, list) or not sub:
                raise FormatError(f"{path}: expected a nonempty list at depth {depth}")
            for i, child in enumerate(sub):
                walk(child, coord + [i], depth + 1)

        walk(node, [], 0)
    if not cells:
        raise SpecError(f"{path}: pattern has empty support")
    try:
        return Pattern.from_cells(cells)
    except SpecError as e:
        raise SpecError(f"{path}: {e}") from None


def parse_spec(doc) -> SftSpec:
    """Parse and canonicalize a problem document (dict or JSON text)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise FormatError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
        except RecursionError:
            raise FormatError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise FormatError("document root must be an object")
    unknown = set(doc) - {"dimension", "symbols", "forbidden"}
    if unknown:
        raise FormatError(f"unknown field(s): {', '.join(sorted(unknown))}")
    for field in ("dimension", "symbols", "forbidden"):
        if field not in doc:
            raise FormatError(f"missing field: {field}")
    dimension = doc["dimension"]
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise FormatError("dimension: expected an integer")
    syms = doc["symbols"]
    if not isinstance(syms, list) or not all(isinstance(s, str) for s in syms):
        raise FormatError("symbols: expected a list of strings")
    if FILL in syms:
        raise SpecError(f"symbols: {FILL!r} is reserved as the fill marker")
    if not isinstance(doc["forbidden"], list):
        raise FormatError("forbidden: expected a list of patterns")
    if dimension < 1:
        raise SpecError("dimension: must be >= 1")
    if dimension > MAX_DIMENSION:
        raise SpecError(f"dimension: must be <= {MAX_DIMENSION}")
    if not syms:
        raise SpecError("symbols: alphabet must be nonempty")
    if len(set(syms)) != len(syms):
        raise SpecError("symbols: duplicate symbol")
    table = {s: i for i, s in enumerate(syms)}
    patterns = [
        _parse_pattern(node, dimension, table, f"forbidden[{i}]")
        for i, node in enumerate(doc["forbidden"])
    ]
    return make_spec(dimension, syms, patterns)


def serialize_spec(spec: SftSpec) -> dict:
    """Canonical document form: sparse sorted cells; parse(serialize(s)) == s."""
    return {
        "dimension": spec.dimension,
        "symbols": list(spec.alphabet),
        "forbidden": [
            [[list(coord), spec.alphabet[sym]] for coord, sym in p.cells]
            for p in spec.forbidden
        ],
    }


def load_spec_file(path: str) -> SftSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from None
    return parse_spec(text)


# ---------------------------------------------------------------------------
# rendering


def render_block(b: Block, alphabet: Sequence[str]) -> str:
    """Deterministic text rendering: one line per row, top row first.

    Multi-character symbols are space-separated; d=1 renders one line, d=3
    renders axis-0 slices separated by blank lines.
    """
    wide = any(len(s) != 1 for s in alphabet)
    join = " " if wide else ""

    def line(cells):
        return join.join(alphabet[c] for c in cells)

    if b.dimension == 1:
        return line(b.data)
    if b.dimension == 2:
        rows, cols = b.shape
        return "\n".join(line(b.data[r * cols : (r + 1) * cols]) for r in range(rows))
    if b.dimension == 3:
        layers, rows, cols = b.shape
        per = rows * cols
        out = []
        for z in range(layers):
            sl = b.data[z * per : (z + 1) * per]
            out.append("\n".join(line(sl[r * cols : (r + 1) * cols]) for r in range(rows)))
        return "\n\n".join(out)
    raise SpecError(f"rendering is not supported for dimension {b.dimension}")


# ---------------------------------------------------------------------------
# state archives


def _block_to_str(b: Block, alphabet: Sequence[str], sep: str) -> str:
    return sep.join(map(alphabet.__getitem__, b.data))


def _block_from_str(text: str, shape, alphabet_index: dict[str, int], sep: str) -> Block:
    if not isinstance(text, str):
        raise ArchiveError(f"archive block {text!r} is not a string")
    parts = text if sep == "" else text.split(sep)
    try:
        return Block(tuple(shape), tuple(map(alphabet_index.__getitem__, parts)))
    except KeyError as e:
        raise ArchiveError(f"archive block uses unknown symbol {e.args[0]!r}") from None
    except ShapeError as e:
        raise ArchiveError(f"archive block {text!r}: {e}") from None


def _payload_checksum(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def archive_dict(result: AnalysisResult) -> dict:
    """Serializable archive of a reduced analysis run."""
    spec = result.spec
    sep = "" if all(len(s) == 1 for s in spec.alphabet) else ","
    rep = result.report
    payload = {
        "format": ARCHIVE_FORMAT,
        "version": ARCHIVE_VERSION,
        "spec": serialize_spec(spec),
        "separator": sep,
        "normalization": {
            "side": rep.side,
            "cube_count": rep.cube_count,
            "mode": result.cubes.mode,
            "allowed_count": rep.allowed_count,
        },
        "index": [_block_to_str(b, spec.alphabet, sep) for b in result.index],
        "levels": [
            {
                "level": st.level,
                "side": st.side,
                "squares": [_block_to_str(b, spec.alphabet, sep) for b in st.squares],
                "vrel": sorted(map(list, st.vrel)) if st.vrel is not None else None,
                "hrel": sorted(map(list, st.hrel)) if st.hrel is not None else None,
            }
            for st in result.levels
        ],
        "report_rows": [
            [row.level, row.stage, row.block_count, row.relation_count] for row in rep.rows
        ],
        "verdict": rep.verdict,
        "reason": rep.reason,
    }
    payload["checksum"] = _payload_checksum({k: v for k, v in payload.items()})
    return payload


def save_state(result: AnalysisResult, path: str) -> None:
    # json.dumps runs the C encoder; json.dump streams through the Python one
    text = json.dumps(archive_dict(result), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_state(path: str, caps: Caps = DEFAULT_CAPS) -> AnalysisResult:
    """Load an archive, verifying version and integrity. The index, the
    relations and every level past the first are re-derived from the spec
    under `caps` (a `BudgetError` when they do not fit), and the archive
    must hold exactly what that derivation gives."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as e:
        raise ArchiveError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ArchiveError(f"corrupt archive: {e.msg} at line {e.lineno}") from None
    except ValueError as e:  # e.g. an integer past the interpreter's digit limit
        raise ArchiveError(f"corrupt archive: {e}") from None
    except RecursionError:
        raise ArchiveError("corrupt archive: nested too deeply") from None
    try:
        return _restore(payload, caps)
    except RecursionError:
        # nesting just under the decoder's limit fails in the checksum's encoder
        raise ArchiveError("corrupt archive: nested too deeply") from None


_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _field(obj: dict, key: str, kind: type, where: str = "", nullable: bool = False):
    """obj[key], which must be present and of JSON type `kind` (or null)."""
    if key not in obj:
        raise ArchiveError(f"archive field {where}{key} is missing")
    val = obj[key]
    if (val is None and nullable) or (isinstance(val, kind) and not isinstance(val, bool)):
        return val
    raise ArchiveError(f"archive field {where}{key} is not {_KINDS[kind]}{' or null' if nullable else ''}")


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _index_tuples(items: list, n: int, bound: int, where: str) -> frozenset:
    # JSON decodes to exact types, and `type(i) is int` leaves out booleans
    if not all(type(t) is list and len(t) == n for t in items) or not all(
        type(i) is int for t in items for i in t
    ):
        raise ArchiveError(f"archive field {where} must hold lists of {n} integers")
    if items and (min(map(min, items)) < 0 or max(map(max, items)) >= bound):
        raise ArchiveError(f"archive field {where} indexes past the level's {bound} squares")
    return frozenset(map(tuple, items))


def _level_rows(levels: Sequence[LevelState]) -> list[LevelRow]:
    """The report rows the archived levels certify: each level's squares
    and, once its vertical relation is known, its stacks; a horizontal
    relation past the last level certifies the next level's square count."""
    rows = []
    for st in levels:
        rows.append(LevelRow(st.level, "squares", len(st.squares), None if st.vrel is None else len(st.vrel)))
        if st.vrel is not None:
            rows.append(LevelRow(st.level, "rects", len(st.vrel), None if st.hrel is None else len(st.hrel)))
    if levels and levels[-1].hrel is not None:
        rows.append(LevelRow(levels[-1].level + 1, "squares", len(levels[-1].hrel), None))
    return rows


def _derived_levels(levels: Sequence[LevelState], index, cubes: CubeSet, caps: Caps) -> tuple[LevelState, ...]:
    """The level states the chain walk from `index` builds down to the
    archive's deepest relation: the stacks' relation (hrel) of the last
    level, its vertical relation, or else its squares."""
    last = levels[-1]
    if last.hrel is not None:
        target, build = (last.level + 1, 2), False
    elif last.vrel is not None:
        target, build = (last.level + 1, 1), False
    else:
        target, build = (last.level, 2), True
    stages = chain_report(chain_start(index, cubes), cubes, target, caps, build_target=build)
    return level_states(stages, cubes)


def _restore(payload: dict, caps: Caps = DEFAULT_CAPS) -> AnalysisResult:
    if not isinstance(payload, dict) or payload.get("format") != ARCHIVE_FORMAT:
        raise ArchiveError("not a state archive")
    version = payload.get("version")
    if version != ARCHIVE_VERSION:
        raise ArchiveError(
            f"archive version {version} is not loadable by this build (wants {ARCHIVE_VERSION})"
        )
    claimed = payload.get("checksum")
    body = {k: v for k, v in payload.items() if k != "checksum"}
    if claimed != _payload_checksum(body):
        raise ArchiveError("integrity check failed: archive was modified")
    # the checksum can be recomputed by anyone: every field is checked too
    spec = parse_spec(_field(payload, "spec", dict))
    sep = _field(payload, "separator", str)
    idx = {s: i for i, s in enumerate(spec.alphabet)}
    norm = _field(payload, "normalization", dict)
    side, width = _field(norm, "side", int, "normalization."), forbidden_side(spec)
    if side != width:
        raise ArchiveError(f"archive cube side {side} is not the spec's pattern width {width}")
    cube_count = _field(norm, "cube_count", int, "normalization.")
    allowed_count = _field(norm, "allowed_count", int, "normalization.")
    # k^(side^d) candidates, refused without building the powers: for k >= 2
    # they pass the cap once side^d passes the cap's bit length
    k, cap = spec.alphabet_size, caps.max_cubes
    past_bits = spec.dimension * math.log2(side) > math.log2(cap.bit_length())
    if k > 1 and (past_bits or k ** side**spec.dimension > cap):
        raise ArchiveError(f"rebuilding the archive's cubes needs more than {cap} candidates (max_cubes)")
    cube_shape = (side,) * spec.dimension
    index = tuple(_block_from_str(s, cube_shape, idx, sep) for s in _field(payload, "index", list))
    # the forbidden cube set is reconstructible as the complement of the index
    index_data = {b.data for b in index}
    cubes = CubeSet(
        side,
        frozenset(c for c in iter_cubes(spec, side) if c.data not in index_data),
        spec.alphabet_size,
        _field(norm, "mode", str, "normalization."),
    )
    if len(cubes.cubes) != cube_count or len(index) != allowed_count:
        raise ArchiveError("integrity check failed: counts disagree with content")
    if len(index_data) != len(index) or cubes.cubes != normalize_to_cubes(spec, MODE_ALL, caps).cubes:
        raise ArchiveError("archive index is not the spec's set of allowed cubes")
    levels = []
    for i, lv in enumerate(_field(payload, "levels", list)):
        where = f"levels[{i}]."
        if not isinstance(lv, dict):
            raise ArchiveError(f"archive field levels[{i}] is not an object")
        if _field(lv, "level", int, where) != i:
            raise ArchiveError(f"archive field {where}level is not {i}")
        lside = _field(lv, "side", int, where)
        if lside != side << i:
            raise ArchiveError(f"archive field {where}side is not {side << i}")
        shape = (lside,) * spec.dimension
        squares = tuple(_block_from_str(s, shape, idx, sep) for s in _field(lv, "squares", list, where))
        # anyone can re-sign a forged square, so every square is rescanned
        for s in squares:
            if not allowed_data(s.data, shape, cubes):
                raise ArchiveError(f"archive field {where}squares holds a forbidden square")
        vrel = _field(lv, "vrel", list, where, nullable=True)
        hrel = _field(lv, "hrel", list, where, nullable=True)
        if vrel is not None:
            vrel = _index_tuples(vrel, 2, len(squares), where + "vrel")
        if hrel is not None:
            hrel = _index_tuples(hrel, 4, len(squares), where + "hrel")
            if vrel is None or any(h[:2] not in vrel or h[2:] not in vrel for h in hrel):
                raise ArchiveError(f"archive field {where}hrel pairs stacks that are not in vrel")
        levels.append(LevelState(i, lside, squares, vrel, hrel, cubes))
    rows = []
    for i, row in enumerate(_field(payload, "report_rows", list)):
        if not (
            isinstance(row, list) and len(row) == 4 and _is_int(row[0]) and isinstance(row[1], str)
            and _is_int(row[2]) and (row[3] is None or _is_int(row[3]))
        ):
            raise ArchiveError(f"archive field report_rows[{i}] is not [level, stage, blocks, relations]")
        rows.append(LevelRow(*row))
    if not levels:
        raise ArchiveError("archive holds no levels")
    if rows != _level_rows(levels):
        raise ArchiveError("integrity check failed: report rows disagree with the levels")
    verdict, reason = _field(payload, "verdict", str), _field(payload, "reason", str, nullable=True)
    if (verdict, reason) != verdict_of(rows, reason):
        raise ArchiveError(f"archive verdict {verdict!r} is not the one its levels and reason give")
    # the relations and every level past the first are rebuilt by the kernel
    derived = _derived_levels(levels, index, cubes, caps)
    if len(derived) != len(levels) or any(
        (a.squares, a.vrel, a.hrel) != (b.squares, b.vrel, b.hrel) for a, b in zip(levels, derived)
    ):
        raise ArchiveError("integrity check failed: the levels are not the ones the spec gives")
    report = LevelReport("reduced", side, cube_count, allowed_count, tuple(rows), verdict, reason)
    return AnalysisResult(spec, cubes, index, tuple(levels), report)
