"""Time one plain cross-validation of a study-shaped corpus at the paper's size.

The corpus is 30 conversations of 85-95 participant turns from the bench's
study generator (``bench/inputs.py``) under the study corpus seed 11, about
2,400 modeling examples over the bundled catalog. The run uses the default
config with the study fold seed 0, prints the wall time and the sha256 of the
machine-format report, and writes the report when ``--report`` names a file.

    PYTHONPATH=src python3 scripts/paper_scale_cv.py [--report FILE]

For where the time goes, run it under cProfile:

    PYTHONPATH=src python3 -m cProfile -s cumulative scripts/paper_scale_cv.py | head -40
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
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402  (bench/inputs.py)

from speechacts import reports  # noqa: E402
from speechacts.config import RunConfig  # noqa: E402
from speechacts.corpus import LabelCatalog, modeling_examples, parse_transcripts  # noqa: E402
from speechacts.evaluate import cross_validate  # noqa: E402

PAPER_SHAPE = inputs.StudyShape(conversations=30, turns_min=85, turns_max=95)
CORPUS_SEED = inputs.CORPUS_SEED["study"]
FOLD_SEED = inputs.FOLD_SEED["study"]


def paper_corpus():
    records = inputs.study_records(inputs.study_skeleton(PAPER_SHAPE, CORPUS_SEED),
                                   inputs.StudyText(np.random.default_rng(CORPUS_SEED)), "study")
    lines = [json.dumps(r, ensure_ascii=True, allow_nan=False) for r in records]
    catalog = LabelCatalog.default()
    return modeling_examples(parse_transcripts(lines, catalog), catalog), catalog


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", type=Path, help="write the machine-format CV report here")
    args = parser.parse_args()

    examples, catalog = paper_corpus()
    config = RunConfig(seed=FOLD_SEED)
    start = time.perf_counter()
    report = cross_validate(examples, catalog, config)
    elapsed = time.perf_counter() - start
    text = reports.metrics_machine(report, config.as_dict())
    if args.report:
        args.report.write_text(text, encoding="utf-8")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    print(f"examples {len(examples)}  cv_s {elapsed:.2f}  report_sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
