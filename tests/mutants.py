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


MUTANTS = (
    Mutant(
        "middle_join: no middle-membership test",
        "src/sftkit/relation.py",
        " for lo, hi in middles if lo in by_hi and hi in by_lo)",
        " for lo, hi in middles)",
        ("tests/test_relation.py::test_middle_join_keeps_no_group_without_a_middle",),
    ),
    Mutant(
        "_seam_relation: no seam-block scan",
        "src/sftkit/relation.py",
        "if allowed_data(join(hi, lo, slab, axis), seam, cubes)",
        "if True",
        (
            "tests/test_chain.py::test_d1_no_adjacent_ones",
            "tests/test_chain.py::test_d2_chain_reproduces_reduced",
            "tests/test_relation.py::test_pair_relation_seam_slabs",
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
        "_restore: relations not compared",
        "src/sftkit/specio.py",
        "        same = same and _same(a.relation, b.relation)\n",
        "",
        ("tests/test_specio.py::test_archive_relations_are_rederived",),
    ),
    Mutant(
        "_restore: no rescan of blocks the walk did not make",
        "src/sftkit/specio.py",
        "if not all(allowed_data(x, a.shape, cubes) for x in a.blocks.datas if x not in made):",
        "if False:",
        (
            "tests/test_cli.py::test_import_state_rescans_a_forged_square",
            "tests/test_specio.py::test_archive_scans_only_squares_the_walk_did_not_make",
        ),
    ),
    Mutant(
        "_key_groups: no index bound",
        "src/sftkit/specio.py",
        "if indices and (min(indices) < 0 or max(indices) >= bound):",
        "if False:",
        ("tests/test_specio.py::test_archive_relation_indices_are_checked",),
    ),
    Mutant(
        "_restore: the last stage always built",
        "src/sftkit/specio.py",
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
        "src/sftkit/specio.py",
        "if (level, stage) != want:",
        "if False:",
        ("tests/test_specio.py::test_archive_missing_or_ill_typed_fields",),
    ),
    Mutant(
        "save_state: writes the stages stepped into the target",
        "src/sftkit/specio.py",
        "            for st in result.walk\n",
        "            for st in result.stages\n",
        (
            "tests/test_specio.py::test_export_and_import_never_build_the_target_stage",
            "tests/test_specio.py::test_loaded_stages_and_levels_are_the_ones_analyze_gives[hard_squares-1-None]",
            "tests/test_golden.py::test_golden_output[export-hard_squares-1]",
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
