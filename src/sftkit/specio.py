"""Problem-definition documents, ASCII rendering, and the entry points of
state archives.

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

State archives are written and read by `archive.py`, which `save_state`
and `load_state` here import when they are called.
"""
from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING, Sequence

from .caps import DEFAULT_CAPS, Caps
from .core import MAX_DIMENSION, Block, Pattern, SftSpec, allowed_data, make_spec
from .errors import FormatError, SpecError

if TYPE_CHECKING:
    from .levels import AnalysisResult

# Spec documents and rendering need only the modules above, so parsing a
# spec loads neither the archive code nor any engine module.

FILL = "*"
ARCHIVE_FORMAT = "sft-state"
ARCHIVE_VERSION = 2


# ---------------------------------------------------------------------------
# spec documents


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


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
#
# `archive.py` calls the cube scan (`allowed_data`, imported above for it),
# `_canonical` and `_checksum` by their names in this module.


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


def save_state(result: AnalysisResult, path: str) -> None:
    """Write `result` as a state archive (`archive.save_state`)."""
    from .archive import save_state

    save_state(result, path)


def load_state(path: str, caps: Caps = DEFAULT_CAPS) -> AnalysisResult:
    """Load a state archive (`archive.load_state`)."""
    from .archive import load_state

    return load_state(path, caps)


def __getattr__(name: str):
    # `_archive_payload` stays reachable here; reading it loads the archive code
    if name == "_archive_payload":
        from .archive import _archive_payload

        return _archive_payload
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
