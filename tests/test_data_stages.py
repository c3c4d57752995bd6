"""Stages hold block data as `bytes` (tuples past 256 symbols) and build a
`Block` only where one is handed out: every block a caller reads has tuple
data and is one of the naive oracle's blocks of its shape."""
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftkit import (
    Block,
    analyze,
    brute_force_allowed,
    chain_start,
    enumerate_allowed_cubes,
    level0_state,
    make_spec,
    normalize_to_cubes,
    sample_patch,
)
from sftkit.chain import chain_report
from sftkit.cli import main
from sftkit.core import prod

from conftest import naive_allowed, naive_allowed_set, random_square_spec


def _handed_out(blocks, shape):
    """The blocks as read through the public surface, checked to be Blocks
    of `shape` with tuple data and pairwise distinct."""
    out = list(blocks)
    assert all(type(b) is Block and type(b.data) is tuple and b.shape == shape for b in out)
    assert len(set(out)) == len(out)
    return out


def _equals_oracle(blocks, spec, shape):
    out = _handed_out(blocks, shape)
    if prod(shape) <= 8:
        assert {b.data for b in out} == naive_allowed_set(spec, shape)
    else:
        # too many candidates for the naive set: each block is naive-checked
        # and the count is the brute-force count
        assert all(naive_allowed(b, spec.forbidden) for b in out)
        assert len(out) == brute_force_allowed(spec, shape).count


def _walk(spec, target):
    cubes = normalize_to_cubes(spec)
    return chain_report(chain_start(enumerate_allowed_cubes(spec, cubes), cubes), cubes, target)


def _cli_sample(tmp_path, capsys, spec, level, seed, shape) -> Block:
    path = tmp_path / "spec.json"
    doc = {
        "dimension": spec.dimension,
        "symbols": list(spec.alphabet),
        "forbidden": [[[list(c), spec.alphabet[s]] for c, s in p.cells] for p in spec.forbidden],
    }
    path.write_text(json.dumps(doc))
    assert main(["sample", str(path), "--level", str(level), "--seed", str(seed)]) == 0
    text = capsys.readouterr().out
    return Block(shape, tuple(spec.alphabet.index(c) for c in text if not c.isspace()))


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**32))
def test_square_spec_blocks_are_tuples_of_the_oracle(seed):
    spec = random_square_spec(random.Random(seed))
    for stage in _walk(spec, (1, 1)):
        _equals_oracle(stage.blocks, spec, stage.shape)
    res = analyze(spec, 1)
    if res.report.verdict == "empty":
        return
    levels = res.levels
    _equals_oracle(levels[0].squares, spec, (2, 2))
    _equals_oracle(levels[1].squares, spec, (4, 4))
    for lv in levels:
        patch = sample_patch(lv, seed)
        _handed_out([patch], (lv.side, lv.side))
        assert patch in lv.squares and naive_allowed(patch, spec.forbidden)


def test_d1_and_d3_blocks_are_tuples_of_the_oracle(d1_no_adjacent_ones, d3_hard_cubes, tmp_path, capsys):
    # d=3 samples the cubes: the next full stage is refused by its pair checks
    for spec, target, level, shape in ((d1_no_adjacent_ones, (3, 1), 3, (16,)), (d3_hard_cubes, (1, 1), 0, (2, 2, 2))):
        for stage in _walk(spec, target):
            _equals_oracle(stage.blocks, spec, stage.shape)
        patch = _cli_sample(tmp_path, capsys, spec, level, 7, shape)
        assert naive_allowed(patch, spec.forbidden)


def test_empty_level_squares_are_an_empty_sequence(kill_all):
    res = analyze(kill_all, 1)
    assert res.report.verdict == "empty"
    assert res.levels[0].squares == () and list(res.levels[0].squares) == []
    cubes = normalize_to_cubes(kill_all)
    assert level0_state(enumerate_allowed_cubes(kill_all, cubes), cubes).squares == ()


def test_stage_data_is_bytes_up_to_256_symbols_and_tuples_past_it():
    for k, kind in ((2, bytes), (256, bytes), (257, tuple)):
        spec = make_spec(2, [f"s{i}" for i in range(k)], [])
        cubes = normalize_to_cubes(spec)
        start = chain_start(enumerate_allowed_cubes(spec, cubes), cubes)
        assert {type(d) for d in start.blocks.datas} == {kind}
        assert type(start.blocks[k - 1].data) is tuple and start.blocks[k - 1].data == (k - 1,)


# ---------------------------------------------------------------------------
# 300 symbols, side 1: three are allowed. The outputs are those of the tuple
# data pipeline before stages held bytes.

WIDE = 300
ROWS_2 = [
    "level,stage,block_count,relation_count,verdict",
    "0,squares,3,9,inconclusive",
    "0,rects,9,81,inconclusive",
    "1,squares,81,6561,inconclusive",
    "1,rects,6561,,inconclusive",
]
ROWS_1 = [
    "level,stage,block_count,relation_count,verdict",
    "0,squares,3,9,nonempty-to-level-1",
    "0,rects,9,81,nonempty-to-level-1",
    "1,squares,81,,nonempty-to-level-1",
]


def _wide_doc(symbols, keep):
    return {"dimension": 2, "symbols": symbols, "forbidden": [[[s]] for s in symbols if s not in keep]}


@pytest.mark.parametrize(
    "symbols, keep, sample, archive_sha256",
    [
        (
            [f"s{i}" for i in range(WIDE)],
            {"s7", "s250", "s299"},
            "s299 s299\ns299 s250\n",
            "0b814f662ffc66f4bcc0b99572eb2192fd47f29a2602bdb0e922ecd2ded26659",
        ),
        (
            [chr(0x4E00 + i) for i in range(WIDE)],
            {chr(0x4E00), chr(0x4E00 + 255), chr(0x4E00 + 299)},
            "伫伫\n伫仿\n",
            "2e8d01d618706b477bbd2555632e32d8d5d606ae28469d6f8a9b0144059eda23",
        ),
    ],
    ids=["names", "chars"],
)
def test_wide_alphabet_cli(tmp_path, capsys, symbols, keep, sample, archive_sha256):
    spec_file = tmp_path / "wide.json"
    spec_file.write_text(json.dumps(_wide_doc(symbols, keep)))
    archive = tmp_path / "wide.state.json"
    assert main(["analyze", str(spec_file), "--levels", "2", "--format", "csv"]) == 3
    assert capsys.readouterr().out.splitlines() == ROWS_2
    assert main(["export-state", str(spec_file), "--levels", "1", "--out", str(archive), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == ROWS_1
    assert hashlib.sha256(archive.read_bytes()).hexdigest() == archive_sha256
    assert main(["import-state", str(archive), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == ROWS_1
    assert main(["sample", str(spec_file), "--level", "1", "--seed", "5"]) == 0
    assert capsys.readouterr().out == sample
