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
from typing import Sequence

from .core import Block, CubeSet, Pattern, SftSpec, make_spec
from .errors import ArchiveError, FormatError, SpecError
from .levels import AnalysisResult, LevelReport, LevelRow, LevelState

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
    return sep.join(alphabet[c] for c in b.data)


def _block_from_str(text: str, shape, alphabet_index: dict[str, int], sep: str) -> Block:
    parts = list(text) if sep == "" else text.split(sep)
    try:
        data = tuple(alphabet_index[p] for p in parts)
    except KeyError as e:
        raise ArchiveError(f"archive block uses unknown symbol {e.args[0]!r}") from None
    return Block(tuple(shape), data)


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(archive_dict(result), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_state(path: str) -> AnalysisResult:
    """Load an archive, verifying version and integrity."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as e:
        raise ArchiveError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ArchiveError(f"corrupt archive: {e.msg} at line {e.lineno}") from None
    return _restore(payload)


def _restore(payload: dict) -> AnalysisResult:
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
    spec = parse_spec(payload["spec"])
    sep = payload["separator"]
    idx = {s: i for i, s in enumerate(spec.alphabet)}
    norm = payload["normalization"]
    side = norm["side"]
    cube_shape = (side,) * spec.dimension

    index = tuple(
        _block_from_str(s, cube_shape, idx, sep) for s in payload["index"]
    )
    # the forbidden cube set is reconstructible as the complement of the index
    from .normalize import iter_cubes

    index_data = {b.data for b in index}
    cubes = CubeSet(
        side,
        frozenset(c for c in iter_cubes(spec, side) if c.data not in index_data),
        spec.alphabet_size,
        norm["mode"],
    )
    if len(cubes.cubes) != norm["cube_count"] or len(index) != norm["allowed_count"]:
        raise ArchiveError("integrity check failed: counts disagree with content")
    levels = []
    for lv in payload["levels"]:
        shape = (lv["side"],) * spec.dimension
        squares = tuple(_block_from_str(s, shape, idx, sep) for s in lv["squares"])
        vrel = None if lv["vrel"] is None else frozenset(tuple(p) for p in lv["vrel"])
        hrel = None if lv["hrel"] is None else frozenset(tuple(p) for p in lv["hrel"])
        levels.append(LevelState(lv["level"], lv["side"], squares, vrel, hrel, cubes))
    rows = tuple(LevelRow(*row) for row in payload["report_rows"])
    report = LevelReport(
        "reduced",
        side,
        norm["cube_count"],
        norm["allowed_count"],
        rows,
        payload["verdict"],
        payload["reason"],
    )
    return AnalysisResult(spec, cubes, index, tuple(levels), report)
