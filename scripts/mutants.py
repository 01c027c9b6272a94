"""A re-runnable mutation catalogue: edits that tests must catch.

Each entry of ``MUTANTS`` names a file, an exact old text, the new text that
replaces it and the pytest node ids that must fail on the edit. For each
entry the script copies the checkout, without ``.git`` and caches, to a
temporary directory, applies the edit there and runs the entry's ids with
``python -m pytest``. The whole checkout is copied, not only ``src/``,
because ``tests/conftest.py`` starts the CLI from its own checkout's
``src/``. First every id runs once on an unmutated copy, where each must
pass. An entry whose old text does not occur exactly once in its file is an
error, so a refactor of the code a mutant edits must update the entry.

    python scripts/mutants.py

It runs every entry, prints one line per entry and exits 0 when every entry is killed, 1
otherwise. It needs the test dependencies only (numpy, click, pytest,
hypothesis).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".benchmarks", ".bench_out", ".bench_build")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


CLASSIFIER, CONFIG = "src/speechacts/classifier.py", "src/speechacts/config.py"
CLI, CORPUS = "src/speechacts/cli.py", "src/speechacts/corpus.py"
PERSISTENCE = "tests/test_classifier.py::TestPersistence::"
VIEWS = "tests/test_classifier.py::TestBalancedRowsOracle::"
FAILURES = "tests/test_end_to_end.py::test_failure_exits_with_its_code_and_an_error_line"
COLLECTOR = "tests/test_cli.py::TestCollector::"

MUTANTS = [
    # the model-file reader
    Mutant("repeated-token-accepted", CLASSIFIER,
           'raise ValueError("vocabulary tokens must be distinct")', "pass",
           (PERSISTENCE + "test_repeated_vocabulary_token_is_corrupt",)),
    Mutant("checksum-after-a-failed-build", CLASSIFIER,
           '!= doc["checksum"]:', '!= doc["checksum"] and failure is None:',
           (PERSISTENCE + "test_one_path_reader_answers_as_the_fast_path_and_full_checks",)),
    Mutant("null-weight-unnamed", CLASSIFIER,
           "if failure is None and encoded != canonical:", "if encoded != canonical:",
           (PERSISTENCE + "test_one_path_reader_answers_as_the_fast_path_and_full_checks",)),
    Mutant("any-built-model-answers", CLASSIFIER,
           "if failure is None and _document(encoded) == text:", "if failure is None:",
           (PERSISTENCE + "test_tampered_payload",)),
    Mutant("load-error-without-the-path", CLASSIFIER,
           'raise kind(f"{path}: {exc}") from exc', "raise kind(str(exc)) from exc",
           (PERSISTENCE + "test_unsupported_version",)),
    # the run config's tuning grid
    Mutant("grid-checked-per-point", CONFIG,
           "_check_grid(self.tuning_grid, self.hyperparams)",
           "expand_grid(self.tuning_grid, self.hyperparams)",
           ("tests/test_cli.py::TestTuning::test_a_grid_checks_each_value_once",)),
    Mutant("grid-values-unchecked", CONFIG,
           "replace(base, **{name: value})", "pass",
           ("tests/test_cli.py::TestTuning::test_a_grid_checks_each_value_once",)),
    # labelling and SMOTE
    Mutant("label-rule-strict", CLASSIFIER,
           "if row[j] >= threshold]", "if row[j] > threshold]",
           ("tests/test_reports.py::test_rule_and_writer_answer_as_the_reference",)),
    Mutant("rows-written-past-the-size", CLASSIFIER,
           "design.X.size > _PRODUCT_OVERHEAD else", "design.X.size >= _PRODUCT_OVERHEAD else",
           (VIEWS + "test_rows_written_up_to_the_size",)),
    Mutant("lone-minority-row-interpolated", CLASSIFIER,
           "drawn = len(minority) > 1 and need > 0", "drawn = need > 0",
           (VIEWS + "test_narrow_fold_edge_cases_interpolate",)),
    Mutant("keep-plus-r", CLASSIFIER,
           "self.keep[self.synthetic] -= r", "self.keep[self.synthetic] += r",
           (VIEWS + "test_view_products_match_the_balanced_rows",)),
    Mutant("neighbour-weight-one-minus-r", CLASSIFIER,
           "self.r * c[self.synthetic]", "(1 - self.r) * c[self.synthetic]",
           (VIEWS + "test_view_products_match_the_balanced_rows",)),
    Mutant("cg-forcing-cap-0.1", CLASSIFIER,
           "_CG_FORCING_CAP = 0.5", "_CG_FORCING_CAP = 0.1",  # more work, the same CV rows
           ("tests/test_evaluate.py::test_solver_work_matches_its_pin[study]",)),
    Mutant("label-seed-little-endian", "src/speechacts/balance.py",
           'int.from_bytes(digest[:4], "big")', 'int.from_bytes(digest[:4], "little")',
           ("tests/test_evaluate.py::TestOutputDigests::test_output_matches_its_pin"
            "[cv-row-two-labels]",)),
    # the command line and serve
    Mutant("conversation-id-cap-257", CORPUS,
           "MAX_CONVERSATION_ID = 256", "MAX_CONVERSATION_ID = 257",
           ("tests/test_end_to_end.py::"
            "test_serve_on_stdin_answers_a_long_id_with_an_error_then_the_next_line",)),
    Mutant("os-error-exits-1", CLI,
           "_fail(2, str(exc))", "_fail(1, str(exc))",
           (FAILURES + "[train-unwritable]",)),
    # the cyclic collector: paused around batch commands, and shared label sets
    Mutant("collector-not-paused", CLI,
           "gc.disable()", "pass",
           (COLLECTOR + "test_batch_commands_run_with_it_paused",)),
    Mutant("serve-collector-paused", CLI,
           'if name != "serve":', "if True:",
           (COLLECTOR + "test_serve_keeps_it_on",)),
    Mutant("collector-left-off-after-an-error-exit", CLI,
           "if collecting:", "if collecting and not isinstance(sys.exc_info()[1], SystemExit):",
           (COLLECTOR + "test_it_is_back_on_after_every_way_out[malformed-corpus]",)),
    Mutant("label-sets-keyed-by-length", CORPUS,
           "key = tuple(raw_labels)", "key = len(raw_labels)",
           ("tests/test_corpus.py::TestParse::test_equal_label_lists_share_one_set",)),
]


def problems(mutant: Mutant) -> list[str]:
    """What keeps an entry from running against the checkout: an old text
    that does not occur exactly once, or a test file that is missing."""
    found = []
    source = ROOT / mutant.path
    count = source.read_text(encoding="utf-8").count(mutant.old) if source.is_file() else 0
    if count != 1:
        found.append(f"{mutant.name}: the old text occurs {count} times in {mutant.path}")
    for test in mutant.tests:
        if not (ROOT / test.split("::")[0]).is_file():
            found.append(f"{mutant.name}: no test file for {test}")
    return found


def copy_checkout(into: Path) -> Path:
    copy = into / "checkout"
    shutil.copytree(ROOT, copy, ignore=IGNORED)
    return copy


def run_tests(copy: Path, tests) -> tuple[int, set[str]]:
    """pytest's exit code over the ids in copy, and the node ids it reports
    failed or in error."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no",
                          "-p", "no:cacheprovider", *tests],
                         cwd=copy, env=env, capture_output=True, text=True, timeout=600)
    failed = {line.split()[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return run.returncode, failed


def caught(test: str, failed: set[str]) -> bool:
    """Whether the id, or a parametrized case or member of it, failed."""
    return any(node == test or node.startswith((test + "[", test + "::")) for node in failed)


def main() -> int:
    stale = [p for m in MUTANTS for p in problems(m)]
    if stale:
        print("\n".join(f"error: {p}" for p in stale), file=sys.stderr)
        return 1
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code, failed = run_tests(copy_checkout(Path(tmp)), tests)
        if code != 0:
            print(f"error: the unmutated checkout fails {sorted(failed) or tests}",
                  file=sys.stderr)
            return 1
        print(f"unmutated: {len(tests)} ids pass ({time.perf_counter() - start:.1f} s)")
    survivors = []
    for mutant in MUTANTS:
        began = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            copy = copy_checkout(Path(tmp))
            source = copy / mutant.path
            source.write_text(source.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                              encoding="utf-8")
            _, failed = run_tests(copy, mutant.tests)
        missed = [t for t in mutant.tests if not caught(t, failed)]
        verdict = f"survived {missed}" if missed else "killed"
        print(f"{mutant.name}: {verdict} ({time.perf_counter() - began:.1f} s)")
        if missed:
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
