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

A state archive records an analysis run in any dimension: the spec, its
normalization counts, the report, and the chain stages the walk of
`analyze` computed (`AnalysisResult.walk`), each as its level and stage
(which give its shape), its sorted block texts and its relation's key
groups. So an archive of a walk that reached its target ends on the
relation that counts the target, and does not hold the target stage.
`load_state` re-derives the walk and accepts only an archive that holds
exactly its stages; an archive that also holds the target stage, as
`export-state` wrote them before, still loads.
"""
from __future__ import annotations

import itertools
import json
import sys
from typing import TYPE_CHECKING, Callable, Sequence

from .caps import DEFAULT_CAPS, Caps
from .core import (
    MAX_DIMENSION,
    Block,
    Blocks,
    Coord,
    Pattern,
    SftSpec,
    allowed_data,
    data_type,
    make_spec,
    prod,
)
from .errors import ArchiveError, BudgetError, FormatError, SpecError

if TYPE_CHECKING:
    from .levels import AnalysisResult
    from .relation import Relation

# Spec documents and rendering need only the modules above. The archive
# functions import the engine they check against when they run, so parsing
# a spec loads no engine module.

FILL = "*"
ARCHIVE_FORMAT = "sft-state"
ARCHIVE_VERSION = 2


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
        and all(_is_int(c) for c in cell[0])
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
        except ValueError as e:  # e.g. an integer past the interpreter's digit limit
            raise FormatError(f"invalid JSON: {e}") from None
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
    except UnicodeDecodeError as e:
        raise FormatError(f"{path} is not UTF-8 text: {e}") from None
    return parse_spec(text)


# ---------------------------------------------------------------------------
# rendering


def render_block(b: Block, alphabet: Sequence[str]) -> str:
    """Deterministic text rendering: one line per row, top row first.

    Multi-character symbols are space-separated. A d=1 block is one line;
    a block of d >= 2 axes is its axis-0 slices, rendered in turn and
    joined by d-1 newlines (so d=3 layers are separated by blank lines).
    """
    sep = " " if any(len(s) != 1 for s in alphabet) else ""

    def text(data, shape):
        if len(shape) == 1:
            return sep.join(alphabet[c] for c in data)
        n = len(data) // shape[0]
        slices = (text(data[i : i + n], shape[1:]) for i in range(0, len(data), n))
        return ("\n" * (len(shape) - 1)).join(slices)

    return text(b.data, b.shape)


# ---------------------------------------------------------------------------
# state archives


def _block_writer(alphabet: Sequence[str], sep: str) -> Callable[[Sequence[Sequence[int]]], list[str]]:
    # blocks' data as archive texts: symbol codes as one string, and one
    # str.translate of that into the symbols, each followed by `sep` (the
    # last cut off); without one, a stage of `bytes` is translated at once
    table = {i: s + sep for i, s in enumerate(alphabet)}
    cut = -len(sep) or None

    def texts(datas: Sequence[Sequence[int]]) -> list[str]:
        if not sep and datas and type(datas[0]) is bytes:
            n, whole = len(datas[0]), b"".join(datas).decode("latin-1").translate(table)
            return [whole[i : i + n] for i in range(0, len(whole), n)]
        return ["".join(map(chr, data)).translate(table)[:cut] for data in datas]

    return texts


def _read_blocks(texts: list, shape: Coord, alphabet: Sequence[str], sep: str) -> Blocks:
    """Archive texts of blocks of `shape` as a `Blocks` view holding the
    walk's data type (`core.data_type`). The texts are read as one string
    of symbol codes, by one str.translate when there is no separator, and
    any code left once those below k are deleted is an unknown symbol."""
    n, k = prod(shape), len(alphabet)
    for text in texts:
        if type(text) is not str:
            raise ArchiveError(f"archive block {text!r} is not a string")
    if sep:
        cells = [text.split(sep) for text in texts]
        code = {s: chr(i) for i, s in enumerate(alphabet)}
        codes = "".join(code.get(s, chr(k)) for cell in cells for s in cell)
    else:
        cells = texts
        # a character below code k that is no symbol reads as code k
        table = {c: k for c in range(k)} | {ord(s): i for i, s in enumerate(alphabet) if len(s) == 1}
        codes = "".join(texts).translate(table)
    if codes.translate(dict.fromkeys(range(k))):
        known = set(alphabet)
        sym = next(s for cell in cells for s in cell if s not in known)
        raise ArchiveError(f"archive block uses unknown symbol {sym!r}")
    if set(map(len, cells)) - {n}:
        text, cell = next((t, c) for t, c in zip(texts, cells) if len(c) != n)
        raise ArchiveError(f"archive block {text!r}: data length {len(cell)} does not match shape {shape}")
    kind = data_type(k)
    data = codes.encode("latin-1") if kind is bytes else kind(map(ord, codes))
    return Blocks(shape, [data[i : i + n] for i in range(0, len(data), n)])


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(canon: str) -> str:
    # the interpreter's built-in SHA-256 gives hashlib's digest without
    # mapping OpenSSL's libcrypto, which would be the largest library a
    # command loads; random.py avoids hashlib the same way. The version picks
    # the module's name, so no call pays for a failed import.
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # an interpreter built without its own SHA-256
        from hashlib import sha256
    return sha256(canon.encode("utf-8")).hexdigest()


def _archive_payload(result: AnalysisResult) -> dict:
    """Serializable archive of an analysis run, without its checksum: the
    stages its walk computed (`AnalysisResult.walk`, not the target it steps
    into), each as its level and stage (which give its shape), its sorted
    block texts and its relation's key groups, or null."""
    spec = result.spec
    sep = "" if all(len(s) == 1 for s in spec.alphabet) else ","
    # a separator that no symbol holds: "," or the first character after it
    while sep and any(sep in s for s in spec.alphabet):
        sep = chr(ord(sep) + 1)
    texts = _block_writer(spec.alphabet, sep)
    rep = result.report
    return {
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
        "stages": [
            {
                "level": st.level,
                "stage": st.stage,
                "blocks": texts(st.blocks.datas),
                "relation": None if st.relation is None else st.relation.groups,
            }
            for st in result.walk
        ],
        "report_rows": [
            [row.level, row.stage, row.block_count, row.relation_count] for row in rep.rows
        ],
        "verdict": rep.verdict,
        "reason": rep.reason,
    }


def save_state(result: AnalysisResult, path: str) -> None:
    # the checksum is that of the payload's canonical text, and it sorts
    # first among the keys, so the file is that text with it put in front;
    # json.dumps runs the C encoder, json.dump streams through the Python one
    canon = _canonical(_archive_payload(result))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"checksum":"{_checksum(canon)}",{canon[1:]}\n')
    except OSError as e:
        raise ArchiveError(f"cannot write {path}: {e}") from None


def load_state(path: str, caps: Caps = DEFAULT_CAPS) -> AnalysisResult:
    """Load an archive, verifying version and integrity (the checksum of its
    own body in save_state's layout, else of its canonical text). The chain
    walk is re-derived from the spec under `caps` (a `BudgetError` when it
    does not fit) to the archive's last stage, and one relation further when
    that stage's relation is archived. The archive must hold exactly the
    stages that walk gives, and the result's walk is the derived one: its
    `stages` step into the target when first read, as `analyze`'s do."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        payload = json.loads(text)
    except OSError as e:
        raise ArchiveError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ArchiveError(f"corrupt archive: {e.msg} at line {e.lineno}") from None
    except ValueError as e:  # e.g. an integer past the interpreter's digit limit
        raise ArchiveError(f"corrupt archive: {e}") from None
    except RecursionError:
        raise ArchiveError("corrupt archive: nested too deeply") from None
    try:
        return _restore(payload, text, caps)
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


def _key_groups(items: list, bound: int, where: str) -> Relation:
    from .relation import Relation

    # JSON decodes to exact types, and `type(i) is int` leaves out booleans
    chain = itertools.chain.from_iterable
    pairs = set(map(type, items)) <= {list} and set(map(len, items)) <= {2}
    halves = list(chain(items)) if pairs else [None]
    indices = list(chain(halves)) if set(map(type, halves)) <= {list} else [None]
    if set(map(type, indices)) - {int}:
        raise ArchiveError(f"archive field {where} must hold [lows, highs] lists of integers")
    if indices and (min(indices) < 0 or max(indices) >= bound):
        raise ArchiveError(f"archive field {where} indexes past the stage's {bound} blocks")
    return Relation(map(tuple, items))


def _same(archived: Relation | None, derived: Relation | None) -> bool:
    # an archived relation against the derived one, by the pairs they admit:
    # archives keep whatever key groups the kernel of their day wrote, and
    # an archived pair repeated across groups miscounts its size
    return archived is derived if archived is None or derived is None else archived == derived


def _restore(payload: dict, text: str, caps: Caps) -> AnalysisResult:
    from .chain import DChainState, chain_report, spec_start, stage_shape
    from .levels import LevelRow, _result, report_rows
    from .normalize import MODE_ALL, forbidden_side

    if not isinstance(payload, dict) or payload.get("format") != ARCHIVE_FORMAT:
        raise ArchiveError("not a state archive")
    version = payload.get("version")
    if version != ARCHIVE_VERSION:
        raise ArchiveError(
            f"archive version {version} is not loadable by this build (wants {ARCHIVE_VERSION})"
        )
    # save_state writes '{"checksum":"<sum>",' + body + '\n': a file in that
    # layout is checked against its own body, any other by its canonical text
    claimed = payload.get("checksum")
    head = f'{{"checksum":"{claimed}",'
    body_text = "{" + text[len(head) : -1]
    signed = text.startswith(head) and text.endswith("\n") and claimed == _checksum(body_text)
    body = {k: v for k, v in payload.items() if k != "checksum"}
    if not signed and claimed != _checksum(_canonical(body)):
        raise ArchiveError("integrity check failed: archive was modified")
    # the checksum can be recomputed by anyone: every field is checked too
    spec = parse_spec(_field(payload, "spec", dict))
    sep = _field(payload, "separator", str)
    norm = _field(payload, "normalization", dict)
    side, width = _field(norm, "side", int, "normalization."), forbidden_side(spec)
    if side != width:
        raise ArchiveError(f"archive cube side {side} is not the spec's pattern width {width}")
    cube_count = _field(norm, "cube_count", int, "normalization.")
    allowed_count = _field(norm, "allowed_count", int, "normalization.")
    mode = _field(norm, "mode", str, "normalization.")
    if mode != MODE_ALL:
        raise ArchiveError(f"archive normalization mode {mode!r} is not {MODE_ALL!r}")
    try:
        cubes, index, start = spec_start(spec, caps)
    except BudgetError:
        raise ArchiveError(
            f"rebuilding the archive's cubes needs more than {caps.max_cubes} candidates (max_cubes)"
        ) from None
    d = spec.dimension
    archived: list[DChainState] = []
    want = (0, d)
    for i, entry in enumerate(_field(payload, "stages", list)):
        where = f"stages[{i}]."
        if not isinstance(entry, dict):
            raise ArchiveError(f"archive field stages[{i}] is not an object")
        level, stage = _field(entry, "level", int, where), _field(entry, "stage", int, where)
        if (level, stage) != want:
            raise ArchiveError(f"archive field stages[{i}] is stage ({level}, {stage}), not {want}")
        shape = stage_shape(d, side, level, stage)
        blocks = _read_blocks(_field(entry, "blocks", list, where), shape, spec.alphabet, sep)
        rel = _field(entry, "relation", list, where, nullable=True)
        if rel is not None:
            rel = _key_groups(rel, len(blocks), where + "relation")
        archived.append(DChainState(d, level, stage, blocks, rel))
        want = archived[-1].next_stage()
    if not archived:
        raise ArchiveError("archive holds no stages")
    # the archive's counts must fit its own stage 0, which must be the
    # spec's allowed cubes
    base, total = archived[0].blocks, spec.alphabet_size ** (side**d)
    if total - len(set(base.datas)) != cube_count or len(base) != allowed_count:
        raise ArchiveError("integrity check failed: counts disagree with content")
    if base != start.blocks:
        raise ArchiveError("archive index is not the spec's set of allowed cubes")
    rows = []
    for i, row in enumerate(_field(payload, "report_rows", list)):
        if not (
            isinstance(row, list) and len(row) == 4 and _is_int(row[0]) and isinstance(row[1], str)
            and _is_int(row[2]) and (row[3] is None or _is_int(row[3]))
        ):
            raise ArchiveError(f"archive field report_rows[{i}] is not [level, stage, blocks, relations]")
        rows.append(LevelRow(*row))
    # every stage is rebuilt by the kernel, and the archive's own copies are
    # kept only to be compared with them; an archive that ends on a relation
    # is walked as `analyze` walks, without building the stage it counts
    last = archived[-1]
    build = last.relation is None
    target = (last.level, last.stage) if build else last.next_stage()
    stages = chain_report(start, cubes, target, caps, build_target=build)
    # the walk proves every block it makes allowed, so only an archived
    # block it did not make is scanned, to name a forged forbidden one
    same = len(stages) == len(archived)
    for i, (a, b) in enumerate(zip(archived, stages)):
        if a.blocks != b.blocks:
            made = set(b.blocks.datas)
            if not all(allowed_data(x, a.shape, cubes) for x in a.blocks.datas if x not in made):
                raise ArchiveError(f"archive field stages[{i}].blocks holds a forbidden block")
            same = False
        same = same and _same(a.relation, b.relation)
    if not same:
        raise ArchiveError("integrity check failed: the stages are not the ones the spec gives")
    if rows != report_rows(stages):
        raise ArchiveError("integrity check failed: report rows disagree with the stages")
    verdict, reason = _field(payload, "verdict", str), _field(payload, "reason", str, nullable=True)
    result = _result(spec, cubes, index, stages, rows, reason, caps)
    if (verdict, reason) != (result.report.verdict, result.report.reason):
        raise ArchiveError(f"archive verdict {verdict!r} is not the one its stages and reason give")
    return result
