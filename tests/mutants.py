"""The mutation gate: named mutants of `src/sftkit` that the tests must kill.

    python tests/mutants.py

Each mutant is a source file, an exact fragment that occurs once in it,
the fragment's replacement, and the tests that must fail once it is
applied. The runner first runs every listed test on an unmutated copy of
the tree, where they must pass. Then, for each mutant, it copies the tree
to a fresh temporary directory, applies the mutant there and runs each of
its tests on its own. The mutant is killed when every one of them fails.
Each test that passes, or whose run ends in anything but a failure (a
collection error, a test id that names no test), is reported; a mutant
that survives means a test is missing. The exit code is 1 when any mutant
is not killed, and 0 otherwise.

Uses the standard library only, and pytest does not collect this file.
`tests/test_mutants.py` checks that each fragment still occurs exactly once
in its file, so a refactor that moves the code updates the mutant; it runs
no mutant.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # from the repository root
    fragment: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root


# the draw of `sample` by rank: the property, the draw against the built
# stage, and two golden captures (an axis-1 and an axis-0 draw)
_NTH_JOIN_TESTS = (
    "tests/test_relation.py::test_nth_join_is_the_kth_sorted_join",
    "tests/test_levels.py::test_sample_walk_draws_what_sample_patch_draws_from_the_built_stage",
    "tests/test_golden.py::test_golden_output[sample-hard_squares-1]",
    "tests/test_golden.py::test_golden_output[sample-d1-3]",
)

# relations counted from the stage below: the property over small specs
_COUNT_TESTS = ("tests/test_counted.py::test_counted_relations_are_the_ones_the_built_stages_give",)

MUTANTS = (
    Mutant(
        "middle_join: no middle-membership test",
        "src/sftkit/relation.py",
        " for lo, hi in middles if lo in by_hi and hi in by_lo)",
        " for lo, hi in middles)",
        ("tests/test_relation.py::test_middle_join_keeps_no_group_without_a_middle",),
    ),
    Mutant(
        "nth_join: chunk values walked unsorted",
        "src/sftkit/relation.py",
        "for value in sorted(counts):",
        "for value in counts:",
        _NTH_JOIN_TESTS,
    ),
    Mutant(
        "nth_join: the rank is not lowered past a value's pairs",
        "src/sftkit/relation.py",
        "k -= left",
        "pass",
        _NTH_JOIN_TESTS,
    ),
    Mutant(
        "nth_join: the q chunk read before the p chunk",
        "src/sftkit/relation.py",
        "side = step % 2",
        "side = 1 - step % 2",
        _NTH_JOIN_TESTS,
    ),
    Mutant(
        "seam_relation: no seam-block scan",
        "src/sftkit/relation.py",
        "if allowed_data(join(hi, lo, slab, axis), seam, cubes)",
        "if True",
        (
            "tests/test_relation.py::test_first_cycle_scans_follow_distinct_seam_slabs",
            "tests/test_literal_output.py::test_literal_csv_is_pinned[hard_squares-1]",
            "tests/test_relation.py::test_pair_relation_seam_slabs",
        ),
    ),
    # the output is the same, so only the count of window scans tells
    Mutant(
        "pair_relation: the middle join only from twice the cube side",
        "src/sftkit/relation.py",
        "    if shape[axis] >= 2 * t:",
        "    if shape[axis] >= 2 * cubes.side:",
        ("tests/test_relation.py::test_first_cycle_makes_no_window_scan_for_cubes_of_side_2",),
    ),
    Mutant(
        "pair_relation: the middle join one extent early",
        "src/sftkit/relation.py",
        "    if shape[axis] >= 2 * t:",
        "    if shape[axis] >= 2 * t - 1:",
        (
            "tests/test_relation.py::test_pair_relation_on_complete_allowed_sets",
            "tests/test_relation.py::test_first_cycle_scans_follow_distinct_seam_slabs",
        ),
    ),
    Mutant(
        "pair_relation: the l = 1 group drops a block",
        "src/sftkit/relation.py",
        "every = list(range(len(datas)))",
        "every = list(range(1, len(datas)))",
        (
            "tests/test_relation.py::test_pair_relation_on_complete_allowed_sets",
            "tests/test_golden.py::test_golden_output[analyze-full_shift-1]",
        ),
    ),
    Mutant(
        "Relation.__eq__: the sizes not compared",
        "src/sftkit/relation.py",
        "self._len == other._len and self.pairs() == other.pairs()",
        "self.pairs() == other.pairs()",
        (
            "tests/test_relation.py::test_relation_equality_is_symmetric_when_a_pair_repeats",
            "tests/test_specio.py::test_archive_relation_that_repeats_a_pair_is_refused",
        ),
    ),
    Mutant(
        "chain_report: no stop at an empty full-cube stage",
        "src/sftkit/chain.py",
        "(state.blocks or state.stage != state.dimension)",
        "True",
        (
            "tests/test_chain.py::test_chain_empty_space",
            "tests/test_cli.py::test_sample_empty",
            "tests/test_walk.py::test_walk_passes_through_an_empty_intermediate_stage",
        ),
    ),
    Mutant(
        "verdict_of: nonempty after a budget stop",
        "src/sftkit/levels.py",
        'return "inconclusive", reason',
        "pass",
        (
            "tests/test_cli.py::test_analyze_budget_exit",
            "tests/test_levels.py::test_analyze_budget_inconclusive",
            "tests/test_specio.py::test_archive_verdict_is_rederived",
        ),
    ),
    Mutant(
        "caps.refuse: > becomes >=",
        "src/sftkit/caps.py",
        "if count > cap:",
        "if count >= cap:",
        (
            "tests/test_normalize.py::test_check_power_decides_before_building_the_power",
            "tests/test_budget_stops.py::test_cap_stop_message_required_and_partial",
            "tests/test_oracle.py::test_compare_reaches_the_candidate_cap",
        ),
    ),
    Mutant(
        "_caps_of: no --threads check",
        "src/sftkit/cli.py",
        '    if args.threads < 1:\n        raise SpecError("--threads must be >= 1")\n',
        "",
        (
            "tests/test_cli.py::test_bad_inputs_stop_with_a_message[threads-0]",
            "tests/test_cli.py::test_input_errors_exit_4_with_their_message[validate-threads]",
        ),
    ),
    Mutant(
        "stage_of: no shape comparison",
        "src/sftkit/chain.py",
        " and stage_shape(len(shape), side, level, stage) == shape:",
        ":",
        (
            "tests/test_chain.py::test_stage_of_accepts_exactly_the_stage_shapes",
            "tests/test_cli.py::test_input_errors_exit_4_with_their_message[matrix-shape]",
        ),
    ),
    Mutant(
        "_checksum: hashes the body without its first character",
        "src/sftkit/specio.py",
        'return sha256(canon.encode("utf-8"))',
        'return sha256(canon[1:].encode("utf-8"))',
        (
            "tests/test_specio.py::test_checksum_is_hashlibs_sha256",
            "tests/test_specio.py::test_checksum_falls_back_to_hashlib",
            "tests/test_data_stages.py::test_wide_alphabet_cli[names]",
            "tests/test_golden.py::test_kept_archive_imports_to_its_export_report[export-hard_squares-1]",
        ),
    ),
    Mutant(
        "_same: the relations compared by their key groups",
        "src/sftkit/archive.py",
        "else archived == derived\n",
        "else archived.groups == derived.groups\n",
        (
            "tests/test_specio.py::test_archive_of_seam_join_groups_still_imports",
            "tests/test_specio.py::test_archive_that_holds_its_target_stage_still_imports",
        ),
    ),
    Mutant(
        "_restore: relations not compared",
        "src/sftkit/archive.py",
        "        same = same and _same(a.relation, b.relation)\n",
        "",
        ("tests/test_specio.py::test_archive_relations_are_rederived",),
    ),
    Mutant(
        "_restore: no rescan of blocks the walk did not make",
        "src/sftkit/archive.py",
        "if not all(specio.allowed_data(x, a.shape, cubes) for x in a.blocks.datas if x not in made):",
        "if False:",
        (
            "tests/test_cli.py::test_import_state_rescans_a_forged_square",
            "tests/test_specio.py::test_archive_scans_only_squares_the_walk_did_not_make",
        ),
    ),
    Mutant(
        "_key_groups: no index bound",
        "src/sftkit/archive.py",
        "if indices and (min(indices) < 0 or max(indices) >= bound):",
        "if False:",
        ("tests/test_specio.py::test_archive_relation_indices_are_checked",),
    ),
    Mutant(
        "_restore: the last stage always built",
        "src/sftkit/archive.py",
        "build_target=build)",
        "build_target=True)",
        (
            "tests/test_specio.py::test_export_and_import_never_build_the_target_stage",
            "tests/test_specio.py::test_import_runs_under_the_caps_analyze_ran_under",
            "tests/test_golden.py::test_kept_archive_imports_to_its_export_report[export-hard_squares-1]",
        ),
    ),
    Mutant(
        "_restore: no stage-order check",
        "src/sftkit/archive.py",
        "if (level, stage) != want:",
        "if False:",
        ("tests/test_specio.py::test_archive_missing_or_ill_typed_fields",),
    ),
    Mutant(
        "save_state: writes the stages stepped into the target",
        "src/sftkit/archive.py",
        "            for st in result.walk\n",
        "            for st in result.stages\n",
        (
            "tests/test_specio.py::test_export_and_import_never_build_the_target_stage",
            "tests/test_specio.py::test_loaded_stages_and_levels_are_the_ones_analyze_gives[hard_squares-1-None]",
            "tests/test_golden.py::test_golden_output[export-hard_squares-1]",
        ),
    ),
    Mutant(
        "_count_range: each window tested one cell early",
        "src/sftkit/oracle.py",
        "getters = _last_cell_getters(shape, cubes.side)",
        "getters = _last_cell_getters(shape, cubes.side)[1:] + [None]",
        ("tests/test_oracle.py::test_pruned_enumeration_matches_naive_count",),
    ),
    Mutant(
        "_completions: the last cell's window not tested",
        "src/sftkit/oracle.py",
        "if get is not None and get(cur) not in ok:",
        "if get is not None and c != last and get(cur) not in ok:",
        ("tests/test_oracle.py::test_pruned_enumeration_matches_naive_count",),
    ),
    Mutant(
        "profile_count: one successor memo shared by every extent",
        "src/sftkit/oracle.py",
        "kinds = {e: (table, _runs(e, st, b), {}) for e, table",
        "memo = {}\n    kinds = {e: (table, _runs(e, st, b), memo) for e, table",
        (
            "tests/test_oracle.py::test_profile_matches_the_chain_in_three_dimensions",
            "tests/test_oracle.py::test_profile_pins_three_dimensional_cubes",
            "tests/test_cli.py::test_dp_counts_in_every_dimension",
        ),
    ),
    Mutant(
        "_runs: the runs before the last placed in reverse order",
        "src/sftkit/oracle.py",
        "pos = m * b * (len(heads) - 1 - r) - b",
        "pos = m * b * (r + 1) - b",
        (
            "tests/test_oracle.py::test_profile_matches_the_chain_in_three_dimensions",
            "tests/test_oracle.py::test_profile_pins_three_dimensional_cubes",
            "tests/test_cli.py::test_dp_counts_in_every_dimension",
        ),
    ),
    Mutant(
        "_cut_windows: the high corner of each cube in place of the low one",
        "src/sftkit/oracle.py",
        "kinds = [(e, _gather_table((side,) * d, e), {})",
        "kinds = [(e, [o + sum((side - x) * side ** (d - 1 - i) for i, x in enumerate(e))"
        " for o in _gather_table((side,) * d, e)], {})",
        (
            "tests/test_oracle.py::test_profile_matches_brute_force_in_every_dimension",
            "tests/test_oracle.py::test_oracle_self_agreement_random",
        ),
    ),
    Mutant(
        "profile_count: the state one cell short",
        "src/sftkit/oracle.py",
        "mask = (1 << (side - 1) * sum(st) * b) - 1",
        "mask = (1 << ((side - 1) * sum(st) - 1) * b) - 1",
        (
            "tests/test_oracle.py::test_profile_matches_brute_force_in_every_dimension",
            "tests/test_oracle.py::test_profile_sweep_matches_brute_force",
        ),
    ),
    Mutant(
        "profile_count: a full box's count past the print limit returned",
        "src/sftkit/oracle.py",
        "refuse(count, PRINTED_MAX, f\"profile DP count of",
        "refuse(0, PRINTED_MAX, f\"profile DP count of",
        ("tests/test_cli.py::test_full_box_dp_counts_too_long_to_print_are_budget_stops",),
    ),
    Mutant(
        "verdict_of: no zero-pair test",
        "src/sftkit/levels.py",
        " or r.relation_count == 0",
        "",
        (
            "tests/test_literal_output.py::test_literal_csv_is_pinned[lone_cube-1]",
            "tests/test_levels.py::test_literal_ones_are_the_reduced_relation_counts",
        ),
    ),
    Mutant(
        "_result: no no-allowed-cubes rule",
        "src/sftkit/levels.py",
        "verdict_of(rows, reason, bool(index), level)",
        "verdict_of(rows, reason, True, level)",
        ("tests/test_literal_output.py::test_literal_csv_is_pinned[kill_all-1]",),
    ),
    Mutant(
        "_archive_payload: the separator always a comma",
        "src/sftkit/archive.py",
        "    while sep and any(sep in s for s in spec.alphabet):\n        sep = chr(ord(sep) + 1)\n",
        "",
        (
            "tests/test_specio.py::test_archive_separator_is_in_no_symbol[comma]",
            "tests/test_specio.py::test_archive_separator_is_in_no_symbol[comma-dash-dot]",
        ),
    ),
    Mutant(
        "main: calls the handler captured by the parser",
        "src/sftkit/cli.py",
        "return globals()[args.func.__name__](args",
        "return args.func(args",
        (
            "tests/test_cli.py::test_main_calls_the_handler_in_the_module_when_it_runs",
            "tests/test_bench_hooks.py::test_tracer_times_the_cli_handlers_main_calls",
        ),
    ),
    Mutant(
        "witness_search: an exhausted search certifies nothing",
        "src/sftkit/levels.py",
        'level {level} is empty", empty=True)',
        'level {level} is empty", empty=False)',
        (
            "tests/test_cli.py::test_witness_exhausted",
            "tests/test_cli.py::test_witness_agrees_with_analyze_on_an_empty_level",
            "tests/test_levels.py::test_witness_is_an_allowed_square_of_its_level",
            "tests/test_levels.py::test_an_exhausted_witness_search_is_an_empty_chain_stage",
        ),
    ),
    Mutant(
        "witness_search: the target stage's joins yielded unscanned",
        "src/sftkit/levels.py",
        "if not t or allowed_data(",
        "if (n, i) == (level, d) or not t or allowed_data(",
        (
            "tests/test_levels.py::test_witness_is_an_allowed_square_of_its_level",
            "tests/test_levels.py::test_an_exhausted_witness_search_is_an_empty_chain_stage",
        ),
    ),
    Mutant(
        "witness_search: the up-front bound one node high",
        "src/sftkit/levels.py",
        "refuse(2 ** min(d * level, budget.bit_length() + 1) - 1, budget",
        "refuse(2 ** min(d * level, budget.bit_length() + 1), budget",
        ("tests/test_levels.py::test_witness_levels_past_the_least_cost_are_not_searched",),
    ),
    Mutant(
        "witness_search: the stage below enumerated afresh for every low half",
        "src/sftkit/levels.py",
        "            for high in copy.copy(made):\n",
        "            for high in blocks(*below):\n",
        ("tests/test_levels.py::test_witness_search_scans_each_join_once",),
    ),
    Mutant(
        "witness_search: no node budget inside the walk",
        "src/sftkit/levels.py",
        '                refuse(spent, budget, "node budget {cap} exhausted")\n',
        "",
        ("tests/test_levels.py::test_witness_search_stops_when_its_budget_runs_out_mid_search",),
    ),
    Mutant(
        "witness_search: a seam one slab too thin",
        "src/sftkit/levels.py",
        "    t = cubes.side - 1\n",
        "    t = cubes.side - 2\n",
        (
            "tests/test_levels.py::test_witness_is_an_allowed_square_of_its_level",
            "tests/test_levels.py::test_an_exhausted_witness_search_is_an_empty_chain_stage",
        ),
    ),
    Mutant(
        "_mapped: the key-list memo ignores list identity",
        "src/sftkit/matrices.py",
        "    shared = {id(ids): ids for group in rel.groups for ids in group}\n"
        "    mapped = {key: [*map(at, ids)] for key, ids in shared.items()}\n"
        "    return Relation((mapped[id(lows)], mapped[id(highs)]) for lows, highs in rel.groups)\n",
        "    shared = {len(ids): ids for group in rel.groups for ids in group}\n"
        "    mapped = {key: [*map(at, ids)] for key, ids in shared.items()}\n"
        "    return Relation((mapped[len(lows)], mapped[len(highs)]) for lows, highs in rel.groups)\n",
        ("tests/test_matrices.py::test_step_literal_maps_each_shared_key_list_once",),
    ),
    Mutant(
        "_mapped: the highs mapped through the lows' positions",
        "src/sftkit/matrices.py",
        "(mapped[id(lows)], mapped[id(highs)])",
        "(mapped[id(lows)], mapped[id(lows)])",
        (
            "tests/test_levels.py::test_literal_reduced_equivalence_small",
            "tests/test_matrices.py::test_step_literal_horizontal_matches_reduced",
            "tests/test_matrices.py::test_step_literal_maps_each_shared_key_list_once",
        ),
    ),
    Mutant(
        "_with_horizontal: stack a-over-b at position b * n + a",
        "src/sftkit/matrices.py",
        "[a * n + b for a, b in stacks]",
        "[b * n + a for a, b in stacks]",
        (
            "tests/test_matrices.py::test_step_literal_horizontal_matches_reduced",
            "tests/test_acceptance.py::test_criterion_4_literal_reduced_equivalence",
        ),
    ),
    Mutant(
        "hrel: the squares' own relation in place of the stacks'",
        "src/sftkit/levels.py",
        "else self.stacks.relation",
        "else self.relation",
        (
            "tests/test_levels.py::test_level0_hard_squares",
            "tests/test_levels.py::test_every_relation_the_engine_hands_out_is_a_relation[hard_squares]",
            "tests/test_walk.py::test_level0_relations_against_naive_oracle",
            "tests/test_specio.py::test_hrel_view_keeps_the_set_contract",
        ),
    ),
    Mutant(
        "_split_keys: the slice cut lacks the trailing-axes factor",
        "src/sftkit/relation.py",
        "at = cut * prod(shape[axis + 1 :])",
        "at = cut",
        ("tests/test_relation.py::test_int_coded_bytes_match_the_tuple_path",),
    ),
    Mutant(
        "_masks: the high-key shift off by one chunk",
        "src/sftkit/relation.py",
        "lo ^ ((1 << 8 * n) - 1), 8 * at",
        "lo ^ ((1 << 8 * n) - 1), 8 * (at + chunk)",
        ("tests/test_relation.py::test_int_coded_bytes_match_the_tuple_path",),
    ),
    Mutant(
        "_masks: the high-key shift off by one cell",
        "src/sftkit/relation.py",
        "lo ^ ((1 << 8 * n) - 1), 8 * at",
        "lo ^ ((1 << 8 * n) - 1), 8 * (at + 1)",
        ("tests/test_relation.py::test_int_coded_bytes_match_the_tuple_path",),
    ),
    Mutant(
        "join_pairs: the spread shift off by one axis",
        "src/sftkit/relation.py",
        "size, shift = 2 * len(zeros), 8 * prod(shape[axis:])",
        "size, shift = 2 * len(zeros), 8 * prod(shape[axis + 1 :])",
        ("tests/test_relation.py::test_int_coded_bytes_match_the_tuple_path",),
    ),
    Mutant(
        "join_pairs: the spread shift off by one cell",
        "src/sftkit/relation.py",
        "size, shift = 2 * len(zeros), 8 * prod(shape[axis:])",
        "size, shift = 2 * len(zeros), 8 * (prod(shape[axis:]) + 1)",
        ("tests/test_relation.py::test_int_coded_bytes_match_the_tuple_path",),
    ),
    Mutant(
        "seam_relation: the upper slab split at the lower cut",
        "src/sftkit/relation.py",
        "_split(datas[ids[0]], shape, axis, extent - t)[1]",
        "_split(datas[ids[0]], shape, axis, t)[1]",
        ("tests/test_relation.py::test_int_coded_bytes_match_the_tuple_path",),
    ),
    Mutant(
        "_cmd_compare: the oracle runs before the shape check",
        "src/sftkit/cli.py",
        "            stage_of(shape, forbidden_side(spec))\n",
        "            pass\n",
        ("tests/test_cli.py::test_compare_checks_each_shape_before_any_oracle_runs",),
    ),
    Mutant(
        "_parse_plain: no choices check",
        "src/sftkit/cli.py",
        '        if "choices" in kwargs and value not in kwargs["choices"]:\n',
        "        if False:\n",
        ("tests/test_cli.py::test_the_table_leaves_every_other_argv_to_argparse[unknown-choice]",),
    ),
    Mutant(
        "_parse_plain: a missing required flag takes its default",
        "src/sftkit/cli.py",
        '        if flag not in values and kwargs.get("required"):\n',
        "        if False:\n",
        (
            "tests/test_cli.py::test_the_table_leaves_every_other_argv_to_argparse[missing-levels]",
            "tests/test_cli.py::test_the_table_leaves_every_other_argv_to_argparse[missing-shape]",
        ),
    ),
    Mutant(
        "normalize_to_cubes: a single-cell placement is compared to a 1-tuple",
        "src/sftkit/normalize.py",
        "syms if len(syms) > 1 else syms[0]",
        "syms",
        (
            "tests/test_normalize.py::test_single_cell_pattern",
            "tests/test_normalize.py::test_non_proper_strictly_smaller_at_l3",
        ),
    ),
    Mutant(
        "_search: every candidate listed as allowed, the forbidden ones too",
        "src/sftkit/normalize.py",
        "                if get(cur) in hit:\n",
        "                if False:\n",
        (
            "tests/test_normalize.py::test_cube_set_is_the_cubes_that_hold_a_pattern",
            "tests/test_normalize.py::test_hard_squares_normalization",
            "tests/test_cli.py::test_normalize_csv",
        ),
    ),
    Mutant(
        "normalize_to_cubes: a placement tested at its first cell, not its last",
        "src/sftkit/normalize.py",
        "checks[max(at)].append(",
        "checks[min(at)].append(",
        (
            "tests/test_normalize.py::test_cube_set_is_the_cubes_that_hold_a_pattern",
            "tests/test_normalize.py::test_hard_squares_normalization",
        ),
    ),
    Mutant(
        "normalize_to_cubes: the boundary-only filter applied in all-extensions mode",
        "src/sftkit/normalize.py",
        "_offsets(side, p, mode == MODE_NON_PROPER)",
        "_offsets(side, p, True)",
        (
            "tests/test_normalize.py::test_cube_set_is_the_cubes_that_hold_a_pattern",
            "tests/test_normalize.py::test_non_proper_strictly_smaller_at_l3",
        ),
    ),
    Mutant(
        "allowed_data: the forbids-nothing fast path taken with one cube forbidden",
        "src/sftkit/core.py",
        "    if not cubes.forbidden_count:\n",
        "    if cubes.forbidden_count <= 1:\n",
        ("tests/test_core.py::test_block_allowed_one_forbidden_cube",),
    ),
    Mutant(
        "_count_range: membership tested against the forbidden cubes, as the old set held them",
        "src/sftkit/oracle.py",
        "    ok = cubes.allowed_set\n",
        "    ok = frozenset(itertools.product(range(ka), repeat=cubes.side ** len(shape))) - cubes.allowed_set\n",
        ("tests/test_oracle.py::test_pruned_enumeration_matches_naive_count",),
    ),
    Mutant(
        "_cut_windows: the first allowed cube left out",
        "src/sftkit/oracle.py",
        "    for data in cubes.allowed:\n",
        "    for data in cubes.allowed[1:]:\n",
        (
            "tests/test_oracle.py::test_profile_matches_brute_force_in_every_dimension",
            "tests/test_oracle.py::test_profile_matches_brute_force",
        ),
    ),
    Mutant(
        "_restore: archived stage 0 not compared with the spec's allowed cubes",
        "src/sftkit/archive.py",
        "    if base != start.blocks:\n",
        "    if False:\n",
        ("tests/test_specio.py::test_archive_index_forgeries_keep_their_messages",),
    ),
    Mutant(
        "Relation.__eq__: equal group counts taken for equal groups",
        "src/sftkit/relation.py",
        "            return self.groups == other.groups or (\n",
        "            return len(self.groups) == len(other.groups) or (\n",
        ("tests/test_relation.py::test_relations_with_equal_groups_are_equal_without_their_pairs",),
    ),
    Mutant(
        "_is_sparse_pattern: boolean coordinates",
        "src/sftkit/specio.py",
        "all(_is_int(c) for c in cell[0])",
        "all(isinstance(c, int) for c in cell[0])",
        ("tests/test_specio.py::test_parse_refuses_boolean_sparse_coordinates",),
    ),
    Mutant(
        "joined_pair_count: low and high half counts swapped",
        "src/sftkit/relation.py",
        "map(n_hi.get, los, repeat(0)), map(n_lo.get, his, repeat(0))",
        "map(n_lo.get, los, repeat(0)), map(n_hi.get, his, repeat(0))",
        _COUNT_TESTS,
    ),
    Mutant(
        "joined_pair_count: in- and out-degrees swapped for d = 1",
        "src/sftkit/relation.py",
        "sum(map(indeg.__getitem__, lows)) * sum(map(outdeg.__getitem__, highs))",
        "sum(map(outdeg.__getitem__, lows)) * sum(map(indeg.__getitem__, highs))",
        _COUNT_TESTS,
    ),
    Mutant(
        "joined_pair_count: |R| pairs in place of |R|^2 for l = 1",
        "src/sftkit/relation.py",
        "        return n * n\n",
        "        return n\n",
        (*_COUNT_TESTS, "tests/test_counted.py::test_one_cell_cubes_count_every_pair"),
    ),
    Mutant(
        "joined_pair_count: the seam regime counted by the middle rule",
        "src/sftkit/relation.py",
        "if extent < 2 * t or extent % 2:",
        "if extent % 2:",
        ("tests/test_counted.py::test_the_seam_regime_is_built_not_counted",),
    ),
    Mutant(
        "chain_relation: a built stage counted too",
        "src/sftkit/chain.py",
        "if below is not None and not state.blocks.built:",
        "if below is not None:",
        ("tests/test_counted.py::test_walks_that_read_their_last_stage_count_nothing",),
    ),
    Mutant(
        "chain_report: every stage of a lazy walk counted",
        "src/sftkit/chain.py",
        "if not (lazy and ((last and not build_target) or _may_stop(state, caps))):",
        "if not lazy:",
        ("tests/test_counted.py::test_the_walk_counts_only_where_it_may_stop",),
    ),
    Mutant(
        "export-state: its walk counts the stage it archives",
        "src/sftkit/cli.py",
        'caps=caps, lazy=False)',
        'caps=caps, lazy=True)',
        ("tests/test_counted.py::test_walks_that_read_their_last_stage_count_nothing",),
    ),
    Mutant(
        "__getattr__: keeps what it returns in the package",
        "src/sftkit/__init__.py",
        '        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)\n',
        '        value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)\n'
        "        return value\n",
        (
            "tests/test_lazy_imports.py::test_every_public_name_is_the_object_of_its_home_module",
            "tests/test_lazy_imports.py::test_a_swapped_function_is_seen_through_the_package",
        ),
    ),
)


def copy_tree(dest: Path) -> None:
    """The working tree, without its history or what earlier runs left."""
    junk = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work")
    shutil.copytree(ROOT, dest, ignore=junk)


def apply(mutant: Mutant, tree: Path) -> None:
    if not mutant.tests:
        raise SystemExit(f"{mutant.name}: names no test that must fail")
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.fragment) != 1:
        raise SystemExit(f"{mutant.name}: its fragment occurs {text.count(mutant.fragment)} times in {mutant.path}")
    path.write_text(text.replace(mutant.fragment, mutant.replacement), encoding="utf-8")


def run_tests(tree: Path, tests) -> int:
    """pytest's exit code for `tests` in `tree`: 0 passed, 1 some failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    start = time.perf_counter()
    bad = []
    with tempfile.TemporaryDirectory(prefix="sftkit-mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        code = run_tests(base, sorted({t for m in MUTANTS for t in m.tests}))
        if code != 0:
            print(f"the unmutated tree fails the mutants' tests (pytest exit {code})")
            return 1
        for i, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            copy_tree(tree)
            apply(mutant, tree)
            codes = {test: run_tests(tree, [test]) for test in mutant.tests}
            missed = [f"\n    not failed (pytest exit {c}): {t}" for t, c in codes.items() if c != 1]
            print(f"{'NOT KILLED' if missed else 'killed'}: {mutant.name}{''.join(missed)}", flush=True)
            if missed:
                bad.append(mutant.name)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
