"""Time one cross-validation of a bench corpus, plain or nested.

Each corpus is built by ``bench/inputs.py`` from a fixed seed:

* ``narrow``: the 1,200-example synth reference corpus;
* ``study``: 259 examples over the bundled catalog;
* ``paper``: a study-shaped corpus at the paper's size, 30 conversations of
  85-95 participant turns under the study corpus seed, about 2,400 examples.

The run uses the default config with the corpus's fold seed (``paper`` uses
study's); ``--tune`` turns tuning on, which makes it the nested CV of
``evaluate --tune`` that the benchmark does not time. It prints the wall time,
the process's peak resident set size, the memory the cross-validation held
and the sha256 of the machine-format report, which ends the line, and writes
the report when ``--report`` names a file. Its ``peak_rss_mb`` is comparable
across commits only under a fixed ``MALLOC_MMAP_THRESHOLD_`` (say 131072):
otherwise glibc raises its mmap threshold when a large temporary is freed,
and the figure follows that allocator layout as much as the arrays a fit
holds. ``held_mb`` does not depend on the allocator: it is the ``tracemalloc``
peak of a second cross-validation of the same corpus, run after the timed one
and after ``peak_rss_mb`` is read, since tracing slows the run and its
records take memory of their own. A report path it cannot
write, an existing directory included, fails before the cross-validation,
with one ``error:`` line and exit code 2, as the CLI's I/O errors do.

    python3 scripts/cv_time.py --corpus narrow|study|paper [--tune] [--report FILE]

The six reports (each corpus, plain and ``--tune``) are tier-1 pins: the
table ``OUTPUT_PINS`` in ``tests/test_evaluate.py`` holds their digests
and checks them through ``cross_validate_corpus``, the function ``main``
calls. A change that moves a report on purpose re-pins its row there and
records the report's rows before and after in CHANGES.md.

For where the time goes, run it under cProfile:

    python3 -m cProfile -s cumulative scripts/cv_time.py --corpus paper | head -40
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]  # the checkout's package, bench inputs

import inputs  # noqa: E402

from speechacts import reports  # noqa: E402
from speechacts.config import RunConfig  # noqa: E402
from speechacts.corpus import (  # noqa: E402
    LabelCatalog, check_writable, modeling_examples, parse_transcripts, write_document)
from speechacts.evaluate import cross_validate  # noqa: E402

PAPER_SHAPE = inputs.StudyShape(conversations=30, turns_min=85, turns_max=95)
CORPORA = ("narrow", "study", "paper")


def bench_corpus(corpus: str):
    if corpus == "narrow":
        records = inputs.synth_records(inputs.NARROW_TURNS_PER_LABEL, inputs.CORPUS_SEED["narrow"])
        catalog = LabelCatalog(labels=tuple(f"act{i}" for i in range(6)))
    else:
        seed = inputs.CORPUS_SEED["study"]
        shape = PAPER_SHAPE if corpus == "paper" else inputs.STUDY_TRAIN
        records = inputs.study_records(inputs.study_skeleton(shape, seed),
                                       inputs.StudyText(np.random.default_rng(seed)), "study")
        catalog = LabelCatalog.default()
    lines = [json.dumps(r, ensure_ascii=True, allow_nan=False) for r in records]
    return modeling_examples(parse_transcripts(lines, catalog), catalog), catalog


def fold_seed(corpus: str) -> int:
    return inputs.FOLD_SEED["narrow" if corpus == "narrow" else "study"]


class CVRun(NamedTuple):
    examples: int
    cv_s: float  # the cross-validation's wall time, corpus building left out
    report: str  # the machine-format CV report

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.report.encode("utf-8")).hexdigest()


def cross_validate_corpus(corpus: str, tune: bool) -> CVRun:
    """The cross-validation of a bench corpus under the default config and
    the corpus's fold seed, nested when ``tune``."""
    examples, catalog = bench_corpus(corpus)
    config = RunConfig(seed=fold_seed(corpus), tune=tune)
    start = time.perf_counter()
    report = cross_validate(examples, catalog, config)
    elapsed = time.perf_counter() - start
    return CVRun(len(examples), elapsed, reports.metrics_machine(report, config.as_dict()))


def held_mb(corpus: str, tune: bool) -> float:
    """The ``tracemalloc`` peak, in MiB, of the cross-validation that
    :func:`cross_validate_corpus` times, the corpus built before tracing."""
    examples, catalog = bench_corpus(corpus)
    tracemalloc.start()
    try:
        cross_validate(examples, catalog, RunConfig(seed=fold_seed(corpus), tune=tune))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--corpus", choices=CORPORA, required=True)
    parser.add_argument("--tune", action="store_true", help="nested CV, as evaluate --tune")
    parser.add_argument("--report", type=Path, help="write the machine-format CV report here")
    args = parser.parse_args(argv)

    try:
        if args.report:
            check_writable(args.report)  # fail before the cross-validation, not after it
        run = cross_validate_corpus(args.corpus, args.tune)
        if args.report:
            write_document(args.report, run.report)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB
    print(f"corpus {args.corpus}  tune {args.tune}  examples {run.examples}  "
          f"cv_s {run.cv_s:.2f}  peak_rss_mb {peak_rss_mb:.1f}  "
          f"held_mb {held_mb(args.corpus, args.tune):.2f}  report_sha256 {run.digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
