"""Time one nested cross-validation (``evaluate --tune``) of a bench corpus.

The benchmark times ``train --tune`` on a 16-example slice only. This script
times the whole nested CV of a workload's training corpus: ``narrow`` (the
1,200-example synth reference corpus) or ``study`` (259 examples over the
bundled catalog), each built by ``bench/inputs.py`` from its fixed corpus
seed. The run uses the default config with tuning on and the workload's fold
seed, prints the wall time and the sha256 of the machine-format report, and
writes the report when ``--report`` names a file.

    python3 scripts/nested_cv_time.py --workload narrow|study [--report FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]  # the checkout's package, bench inputs

import inputs  # noqa: E402

from speechacts import reports  # noqa: E402
from speechacts.config import RunConfig  # noqa: E402
from speechacts.corpus import LabelCatalog, modeling_examples, parse_transcripts  # noqa: E402
from speechacts.evaluate import cross_validate  # noqa: E402


def bench_corpus(workload: str):
    seed = inputs.CORPUS_SEED[workload]
    if workload == "study":
        records = inputs.study_records(inputs.study_skeleton(inputs.STUDY_TRAIN, seed),
                                       inputs.StudyText(np.random.default_rng(seed)), "study")
        catalog = LabelCatalog.default()
    else:
        records = inputs.synth_records(inputs.NARROW_TURNS_PER_LABEL, seed)
        catalog = LabelCatalog(labels=tuple(f"act{i}" for i in range(6)))
    lines = [json.dumps(r, ensure_ascii=True, allow_nan=False) for r in records]
    return modeling_examples(parse_transcripts(lines, catalog), catalog), catalog


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--report", type=Path, help="write the machine-format CV report here")
    args = parser.parse_args()

    examples, catalog = bench_corpus(args.workload)
    config = RunConfig(seed=inputs.FOLD_SEED[args.workload], tune=True)
    start = time.perf_counter()
    report = cross_validate(examples, catalog, config)
    elapsed = time.perf_counter() - start
    text = reports.metrics_machine(report, config.as_dict())
    if args.report:
        args.report.write_text(text, encoding="utf-8")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    print(f"workload {args.workload}  examples {len(examples)}  nested_cv_s {elapsed:.2f}  "
          f"report_sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
