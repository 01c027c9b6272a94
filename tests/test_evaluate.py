import dataclasses
import errno
import functools
import hashlib
import itertools
import json
import math
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from speechacts import classifier as classifier_mod
from speechacts.classifier import label_positions, model_to_document, score_rows, train_model
from speechacts.cli import main
from speechacts.config import RunConfig
from speechacts.corpus import PARTICIPANT, LabelCatalog, modeling_examples
from speechacts.evaluate import (
    AVG_LABEL,
    MetricsRow,
    average_rows_across_folds,
    cross_validate,
    featurize_fold,
    fisher_score,
    per_label_metrics,
    rank_features,
    rank_features_for_examples,
    stratified_kfold,
    weighted_average,
)
from speechacts.featurize import example_contexts, turn_row
from speechacts.synth import SynthSpec, synth_catalog, synth_corpus

from conftest import CV_TIME, cv_time, make_conversation

PUBLISHED_ROWS = [
    MetricsRow("apianswer", 0.93, 0.76, 0.83, 24.6),
    MetricsRow("apiquestion", 0.81, 0.66, 0.71, 17.2),
    MetricsRow("clarificationanswer", 0.13, 0.07, 0.09, 6.0),
    MetricsRow("clarificationquestion", 0.59, 0.41, 0.48, 32.6),
    MetricsRow("confirmation", 0.88, 0.8, 0.83, 27.0),
    MetricsRow("documentationanswer", 0.25, 0.2, 0.22, 3.2),
    MetricsRow("implementationquestion", 0.52, 0.21, 0.28, 10.6),
    MetricsRow("implementationstatement", 0.0, 0.0, 0.0, 3.0),
    MetricsRow("introduction", 0.76, 0.6, 0.63, 4.0),
    MetricsRow("statement", 0.69, 0.4, 0.51, 49.8),
    MetricsRow("systemquestion", 0.37, 0.22, 0.27, 4.8),
]


def deviation_oracle(label_sets, plan):
    """Exhaustive per-fold per-label positive counts vs proportional shares."""
    names = sorted({name for ls in label_sets for name in ls})
    worst = 0.0
    for name in names:
        share = sum(1 for ls in label_sets if name in ls) / plan.n_folds
        for fold in range(plan.n_folds):
            got = sum(
                1 for i, f in plan.assignment.items() if f == fold and name in label_sets[i]
            )
            worst = max(worst, abs(got - share))
    return worst


def out_of_band_cells(label_sets, plan):
    """Brute-force recount of the (fold, label, positives, share) cells more
    than 1 away from their proportional share."""
    cells = []
    for name in sorted({name for ls in label_sets for name in ls}):
        share = sum(1 for ls in label_sets if name in ls) / plan.n_folds
        for fold in range(plan.n_folds):
            got = sum(
                1 for i, f in plan.assignment.items() if f == fold and name in label_sets[i]
            )
            if abs(got - share) > 1:
                cells.append((fold, name, got, share))
    return sorted(cells)


def assert_violations_recounted(label_sets, plan):
    cells = out_of_band_cells(label_sets, plan)
    assert sorted((v.fold, v.label, v.positives, v.ideal_share) for v in plan.violations) == cells
    worst = deviation_oracle(label_sets, plan)
    if cells:
        assert worst == max(abs(got - share) for _, _, got, share in cells)
    else:
        assert worst <= 1 + 1e-9


class TestStratifiedKFold:
    @settings(max_examples=200, deadline=None)
    @given(
        label_sets=st.lists(st.frozensets(st.sampled_from("abcde")), min_size=2, max_size=80),
        n_folds=st.integers(min_value=2, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partition_determinism_and_violations(self, label_sets, n_folds, seed):
        assume(len(label_sets) >= n_folds)
        plan = stratified_kfold(label_sets, n_folds, seed)
        assert sorted(plan.assignment) == list(range(len(label_sets)))
        assert set(plan.assignment.values()) <= set(range(n_folds))
        assert stratified_kfold(label_sets, n_folds, seed).assignment == plan.assignment
        assert_violations_recounted(label_sets, plan)

    def test_single_label_even_split(self):
        plan = stratified_kfold([frozenset({"a"})] * 25, 5, seed=0)
        sizes = [len(plan.members(f)) for f in range(5)]
        assert sizes == [5, 5, 5, 5, 5]
        assert plan.violations == []

    def test_two_labels_exact_divisibility(self):
        label_sets = [frozenset({"a"})] * 10 + [frozenset({"b"})] * 10
        plan = stratified_kfold(label_sets, 5, seed=0)
        for fold in range(5):
            members = plan.members(fold)
            assert sum(1 for i in members if "a" in label_sets[i]) == 2
            assert sum(1 for i in members if "b" in label_sets[i]) == 2

    def test_randomized_dataset_counting_oracle(self):
        rng = np.random.default_rng(60)
        names = ["w", "x", "y", "z"]
        label_sets = [
            frozenset(n for n in names if rng.random() < 0.35) for _ in range(60)
        ]
        plan = stratified_kfold(label_sets, 5, seed=60)
        assert deviation_oracle(label_sets, plan) <= 1 + 1e-9
        assert plan.violations == []

    def test_partition(self):
        label_sets = [frozenset({"a"}) if i % 2 else frozenset({"b"}) for i in range(23)]
        plan = stratified_kfold(label_sets, 5, seed=3)
        assert sorted(plan.assignment) == list(range(23))
        assert {f for f in plan.assignment.values()} <= set(range(5))

    def test_deterministic_given_seed(self):
        label_sets = [frozenset({"a", "b"}) if i % 3 else frozenset({"a"}) for i in range(30)]
        assert (
            stratified_kfold(label_sets, 5, seed=9).assignment
            == stratified_kfold(label_sets, 5, seed=9).assignment
        )

    def test_label_free_examples_distributed(self):
        label_sets = [frozenset({"a"})] * 5 + [frozenset()] * 10
        plan = stratified_kfold(label_sets, 5, seed=0)
        sizes = [len(plan.members(f)) for f in range(5)]
        assert sizes == [3, 3, 3, 3, 3]

    def test_too_small_dataset(self):
        with pytest.raises(ValueError):
            stratified_kfold([frozenset({"a"})] * 3, 5, seed=0)


# no 5-fold split holds every label within 1 of its share: the four "ac"
# examples cover at most four folds, so the fifth takes its "a" from an "ab"
# and its "c" from a "bc", and then holds 2 of "b" against a share of 0.8
UNBALANCEABLE = [frozenset("ab")] * 2 + [frozenset("ac")] * 4 + [frozenset("bc")] * 2


@functools.cache
def reference_label_sets(turns_per_label):
    spec = SynthSpec(n_labels=6, signal=0.6, seed=1, turns_per_label=turns_per_label)
    return tuple(ex.labels for ex in modeling_examples(synth_corpus(spec), synth_catalog(spec)))


class TestStratificationRegression:
    # fold assignments of the signature x fold table planner
    @pytest.mark.parametrize(
        "turns_per_label, seed, digest",
        [
            (200, 0, "d7e16f54b6f116923d644d449686b0edb79cee2e591d599ff68d5c888019b6fd"),
            (200, 2, "d7918eddba75bde6a059bd51c023682ee1301659614a6b9ac81728259d3c1713"),
            (200, 4, "f84940a4f89bbb90930689cda8f6c1270510a92dd67ab20bea53a7895fc798fc"),
            (200, 7, "60c8d7eeacd72f994ff247fc8b9acccffb79e6f67cff4201af316d5025b972ec"),
            (400, 0, "57468cf0dde310f18b2a5f184e82e23abf63cb6899e85708acd474ef23ca1c14"),
        ],
    )
    def test_golden_assignment(self, turns_per_label, seed, digest):
        label_sets = reference_label_sets(turns_per_label)
        plan = stratified_kfold(label_sets, 5, seed=seed)
        folds = [plan.assignment[i] for i in range(len(label_sets))]
        assert hashlib.sha256(json.dumps(folds).encode()).hexdigest() == digest

    def test_scale(self):
        label_sets = reference_label_sets(1000)
        start = time.perf_counter()
        plan = stratified_kfold(label_sets, 5, seed=0)
        elapsed = time.perf_counter() - start
        assert len(label_sets) == 6000
        assert elapsed < 5.0
        assert sorted(plan.assignment) == list(range(6000))
        assert set(plan.assignment.values()) == set(range(5))
        assert deviation_oracle(label_sets, plan) <= 1 + 1e-9
        assert plan.violations == []

    def test_nearly_distinct_label_sets(self):
        # the paper's 26 speech-act types, each on a turn with p=0.3: almost
        # every example is its own signature
        rng = np.random.default_rng(26)
        names = [f"l{j}" for j in range(26)]
        label_sets = [frozenset(x for x in names if rng.random() < 0.3) for _ in range(400)]
        assert len(set(label_sets)) > 390
        start = time.perf_counter()
        plan = stratified_kfold(label_sets, 5, seed=0)
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            stratified_kfold(label_sets, 5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 5.0
        assert peak < 16 * 2**20
        assert sorted(plan.assignment) == list(range(400))
        assert_violations_recounted(label_sets, plan)

    def test_unbalanceable_violations_reported(self):
        plan = stratified_kfold(UNBALANCEABLE, 5, seed=0)
        assert plan.violations
        for v in plan.violations:
            got = sum(
                1 for i, f in plan.assignment.items()
                if f == v.fold and v.label in UNBALANCEABLE[i]
            )
            assert v.positives == got
            assert abs(got - v.ideal_share) > 1


def synth_examples(spec):
    catalog = synth_catalog(spec)
    return modeling_examples(synth_corpus(spec), catalog), catalog


def model_file(spec, config):
    return model_to_document(train_model(*synth_examples(spec), config))


def cv_row(spec, config):
    row = cross_validate(*synth_examples(spec), config).average_row
    return json.dumps(dataclasses.asdict(row), sort_keys=True)


def cv_report(corpus, tune):
    return cv_time().cross_validate_corpus(corpus, tune).report


@functools.cache
def bench_outputs(workload):
    """A workload's seed-1 model files and ``predict.jsonl`` as
    ``bench/pipeline.py`` writes them: the bench's CLI arguments on the files
    of ``bench/inputs.py``, run in-process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        files = cv_time().inputs.make_inputs(workload, 1, out)
        head = ["--catalog", str(files.catalog)] if files.catalog else []
        head += ["--seed", str(files.fold_seed)]
        tuned, model = str(out / "tuned_model.json"), str(out / "model.json")
        runs = [CliRunner().invoke(main, head + args) for args in (
            ["train", str(files.tune_corpus), "--tune", "--output", tuned],
            ["train", str(files.corpus), "--output", model],
            ["--format", "machine", "predict", str(files.requests), "--model", model])]
        assert [run.exit_code for run in runs] == [0, 0, 0], [run.output for run in runs]
        return {"tuned_model.json": Path(tuned).read_text(encoding="utf-8"),
                "model.json": Path(model).read_text(encoding="utf-8"),
                "predict.jsonl": runs[-1].stdout}


def bench_output(workload, name):
    """One of :func:`bench_outputs`, or "labels": the predict records
    without their probabilities, one sorted-key JSON line each."""
    outputs = bench_outputs(workload)
    if name != "labels":
        return outputs[name]
    records = map(json.loads, outputs["predict.jsonl"].splitlines())
    return "".join(json.dumps({k: v for k, v in record.items() if k != "probabilities"},
                              sort_keys=True) + "\n" for record in records)


def pin(name, *values, marks=()):
    return pytest.param(*values, id=name, marks=marks)


# sha256 of each pinned output: a model file; a CV avg/total row; the CV report
# of each bench corpus of scripts/cv_time.py, plain and --tune; each bench
# workload's seed-1 model files, predict.jsonl and predicted labels. FIVE
# balances positives, TWO (each label on 101 of 120 turns) negatives; train
# --tune picks C=0.1 on THREE without a bias, on FOUR with one. Only same_kernel
# rows follow the BLAS and numpy kernels (the last bits of a model file's
# weights and of predict's probabilities do); CI's non-AVX-512 job runs the
# rest. A change that moves an output re-pins it and says why in CHANGES.md.
FIVE = SynthSpec(n_labels=5, turns_per_label=40, signal=0.6, multi_label_rate=0.2, seed=3)
TWO = SynthSpec(n_labels=2, turns_per_label=60, signal=0.5, multi_label_rate=0.7, seed=5)
THREE = SynthSpec(n_labels=3, turns_per_label=24, signal=0.5, multi_label_rate=0.3, seed=6)
FOUR = SynthSpec(n_labels=4, turns_per_label=20, signal=0.4, multi_label_rate=0.3, seed=8)
PLAIN, TUNED = RunConfig(seed=2), RunConfig(seed=2, tune=True)
NESTED = RunConfig(seed=2, tune=True, n_folds=3, fallback=True)
SAME_KERNEL = pytest.mark.same_kernel
OUTPUT_PINS = [
    pin("model-five-labels", model_file, FIVE, PLAIN,
        "51c51ab553a74ee7e77f0e1fb7b7e0106a3db0a317423c4df448091d5fff41a8", marks=SAME_KERNEL),
    pin("cv-row-five-labels", cv_row, FIVE, PLAIN,
        "836ca7482c6ffff03a57ac24c43dfbde8af0651f438c740ee9cb3827bb8772e0"),
    pin("model-two-labels", model_file, TWO, PLAIN,
        "5f60f721ea0df73464a695660fef266ba8c971e961f005a152e69a61268053cd", marks=SAME_KERNEL),
    pin("cv-row-two-labels", cv_row, TWO, PLAIN,
        "50dfa54f9b98b2e0973609afed562730853bfbc4de1506e7c68d609363dcecdf"),
    pin("tuned-model-three-labels", model_file, THREE, TUNED,
        "176691e7567b0c5c9679dedf43221ceb0b9c2893ffc9734cfd291a18430beca5", marks=SAME_KERNEL),
    pin("nested-cv-row-three-labels", cv_row, THREE, NESTED,
        "b9f4a734c8891c1fdb5eaf960017dc4f08b9b359b3ee884f3538b8d87cc85caa"),
    pin("tuned-model-four-labels", model_file, FOUR, TUNED,
        "72742dfdee602a25380919ff813e43d7c567282f46e843d691c61b024c3742cb", marks=SAME_KERNEL),
    pin("nested-cv-row-four-labels", cv_row, FOUR, NESTED,
        "b2b0c07235be3c6c325d0a8878f4f36abefd4dfd84caab7e99313f92f945ebc5"),
    pin("cv-report-narrow", cv_report, "narrow", False,
        "f714fb63f26d96a3c3b1bb5555ef3333441fb061d82ea321dca090359df586c9"),
    pin("cv-report-narrow-tune", cv_report, "narrow", True,
        "99a05f68edf776aef0129d72ce1dd5fb0199b7169169f08442987be3fed70aca"),
    pin("cv-report-study", cv_report, "study", False,
        "8afa5d7dae623a72a933f81f374d3b622da948ad1ac34e415401e12b37bd186e"),
    pin("cv-report-study-tune", cv_report, "study", True,
        "20426f74122bcbd6f631a90edc7cb2c50831b84433b2565297cf69008c058ae6"),
    pin("cv-report-paper", cv_report, "paper", False,
        "5b9365028e573fd99ef7261dc593b4eb4a38b1d76aca760d976c57f5756c3776"),
    pin("cv-report-paper-tune", cv_report, "paper", True,
        "7bb2607106a695d4606a3fe2266a02929af3748c706e79c3cb367447243ff39c"),
    pin("bench-study-model", bench_output, "study", "model.json",
        "a259141870e801d1e30a7d2d1d5d93b2dd536f76d046ef2a0e2d7c8d09a85ab8", marks=SAME_KERNEL),
    pin("bench-study-tuned-model", bench_output, "study", "tuned_model.json",
        "193c406f1be4d68e1603e6e08f776cb58748f6f700dce978fdfb8a65e26a617b", marks=SAME_KERNEL),
    pin("bench-study-predict", bench_output, "study", "predict.jsonl",
        "b87982b7ca429d1224f768fab1df58e6923ebe61882b58adaba88365fdf97af4", marks=SAME_KERNEL),
    pin("bench-study-labels", bench_output, "study", "labels",
        "984fc5807ea0b5c9587f1faecc62fe9f36f443757ff3edf525592f623d6cde54"),
    pin("bench-narrow-model", bench_output, "narrow", "model.json",
        "42344ab1cf1fc75924c2dfec9209aa7e7ac46f8112f56a59b96408f1457c23e9", marks=SAME_KERNEL),
    pin("bench-narrow-tuned-model", bench_output, "narrow", "tuned_model.json",
        "c3b576b45601634faea6a3dce278278004803313862eef83593fc624a6761628", marks=SAME_KERNEL),
    pin("bench-narrow-predict", bench_output, "narrow", "predict.jsonl",
        "f671c7b927b78a9231a071a0b98ec0c83a2f974404c1dc405b79c09c26061889", marks=SAME_KERNEL),
    pin("bench-narrow-labels", bench_output, "narrow", "labels",
        "ee125f1b9dbdf52b9dccbf7e531639c18a7b694c3aa595c13fe0c48b961f4b62"),
]


class TestOutputDigests:
    @pytest.mark.parametrize("output, subject, setting, digest", OUTPUT_PINS)
    def test_output_matches_its_pin(self, output, subject, setting, digest):
        assert hashlib.sha256(output(subject, setting).encode()).hexdigest() == digest

    def test_only_model_files_depend_on_the_kernel(self):
        # CI's non-AVX-512 job skips same_kernel rows; a CV or label row marked
        # so goes unchecked there. The bench's byte outputs hold weights and
        # probabilities to the last bit; its label rows do not.
        marked = {row.id for row in OUTPUT_PINS if any(m.name == "same_kernel" for m in row.marks)}
        assert marked <= {row.id for row in OUTPUT_PINS if row.values[0] is model_file
                          or row.values[0] is bench_output and row.values[2] != "labels"}

    # The synth corpora above have 60 filler words, so their fits multiply
    # by X through BLAS. Here each participant turn gets 6 more words from
    # 1,500, which makes the word block sparse enough for the bincount
    # products; the row is the one those BLAS products gave. Model bytes move
    # in their last bits with the kernel, so only the CV row is pinned.
    def test_golden_cv_row_of_sparse_kernel_fits(self, monkeypatch):
        spec = SynthSpec(n_labels=3, turns_per_label=80, signal=0.5, multi_label_rate=0.2, seed=4)
        rng = np.random.default_rng(4)
        conversations = synth_corpus(spec)
        for conversation in conversations:
            conversation.turns = [
                dataclasses.replace(turn, text=" ".join(
                    [turn.text] + [f"wide{j}" for j in rng.integers(0, 1500, 6)]))
                if turn.speaker == PARTICIPANT else turn
                for turn in conversation.turns
            ]
        catalog = synth_catalog(spec)
        examples = modeling_examples(conversations, catalog)

        kernels = []

        class Spy(classifier_mod._Design):
            def __init__(self, X):
                super().__init__(X)
                kernels.append(self.sparse)

        monkeypatch.setattr(classifier_mod, "_Design", Spy)
        row = dataclasses.asdict(cross_validate(examples, catalog, RunConfig(seed=2)).average_row)
        assert len(kernels) == 5 and all(kernels)  # one operator per fold
        assert (hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()
                == "d544e0bcb23969db8453ecb493f5ed3b7892e69018c0aced3ac9f005419fb95b")


# Solver calls in the plain cross-validation of a bench corpus of
# scripts/cv_time.py: fits, loss evaluations, Newton directions and Hessian
# products. The work is exact where the bench's timings are noisy, so a change
# that makes the fit do more of it shows here. Narrow's products follow the
# kernels (1,220 without AVX-512); study's do not. A change that moves a count
# re-pins it and says why in CHANGES.md.
WORK_PINS = [
    pytest.param("narrow", (30, 210, 180, 1219), id="narrow", marks=SAME_KERNEL),
    pytest.param("study", (55, 387, 332, 2107), id="study"),
]


@pytest.mark.parametrize("corpus, counts", WORK_PINS)
def test_solver_work_matches_its_pin(monkeypatch, corpus, counts):
    calls = dict.fromkeys(["_newton_fit", "_loss_terms", "_newton_direction", "_hessian_product"], 0)
    for name in calls:
        def counted(*args, name=name, call=getattr(classifier_mod, name)):
            calls[name] += 1
            return call(*args)

        monkeypatch.setattr(classifier_mod, name, counted)
    cv_time().cross_validate_corpus(corpus, False)
    assert tuple(calls.values()) == counts


class TestCVReportDigests:
    def test_every_corpus_is_pinned_plain_and_nested(self):
        reports = [row.values[1:3] for row in OUTPUT_PINS if row.values[0] is cv_report]
        assert sorted(reports) == sorted(itertools.product(cv_time().CORPORA, (False, True)))

    def test_script_prints_the_pinned_digest(self):
        run = subprocess.run([sys.executable, str(CV_TIME), "--corpus", "narrow"],
                             capture_output=True, text=True, timeout=120, check=True)
        pinned = next(row.values[3] for row in OUTPUT_PINS if row.id == "cv-report-narrow")
        fields = run.stdout.split()
        assert fields[-4:] == ["held_mb", fields[-3], "report_sha256", pinned]
        assert float(fields[-3]) > 0

    def test_unwritable_report_fails_before_the_cross_validation(self, monkeypatch, tmp_path,
                                                                 capsys):
        script, runs = cv_time(), []
        monkeypatch.setattr(script, "cross_validate_corpus", lambda *args: runs.append(args))
        report = tmp_path / "missing" / "report.txt"
        assert script.main(["--corpus", "narrow", "--report", str(report)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(report) in line
        assert runs == []

    def test_report_path_of_a_directory_fails_before_the_cross_validation(self, monkeypatch,
                                                                          tmp_path, capsys):
        script, runs = cv_time(), []
        monkeypatch.setattr(script, "cross_validate_corpus", lambda *args: runs.append(args))
        assert script.main(["--corpus", "narrow", "--report", str(tmp_path)]) == 2
        # the error write_document gives after the cross-validation
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.EISDIR}] Is a directory: {str(tmp_path)!r}\n")
        assert runs == []


def confusion_oracle(gold, predicted, name):
    """Brute-force per-label confusion counts."""
    tp = fp = fn = tn = 0
    for g, p in zip(gold, predicted):
        if name in g and name in p:
            tp += 1
        elif name not in g and name in p:
            fp += 1
        elif name in g and name not in p:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


class TestPerLabelMetrics:
    def test_hand_counted_example(self):
        catalog = LabelCatalog(labels=("a", "b"))
        gold = [frozenset({"a"}), frozenset({"a"}), frozenset({"b"})]
        predicted = [frozenset({"a"}), frozenset(), frozenset({"a"})]
        row_a = per_label_metrics(gold, predicted, catalog)[0]
        assert (row_a.precision, row_a.recall, row_a.f_measure, row_a.support) == (0.5, 0.5, 0.5, 2.0)

    def test_perfect_predictions(self):
        catalog = LabelCatalog(labels=("a", "b"))
        gold = [frozenset({"a"}), frozenset({"a", "b"})]
        rows = per_label_metrics(gold, gold, catalog)
        for row in rows:
            assert row.precision == row.recall == row.f_measure == 1.0

    def test_absent_label_all_zero(self):
        catalog = LabelCatalog(labels=("a", "ghost"))
        gold = [frozenset({"a"})]
        rows = per_label_metrics(gold, gold, catalog)
        ghost = rows[1]
        assert (ghost.precision, ghost.recall, ghost.f_measure, ghost.support) == (0, 0, 0, 0)

    def test_length_mismatch(self):
        catalog = LabelCatalog(labels=("a",))
        with pytest.raises(ValueError):
            per_label_metrics([frozenset()], [], catalog)

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        names = ("a", "b", "c", "d")
        catalog = LabelCatalog(labels=names)
        for _ in range(50):
            n = int(rng.integers(1, 51))
            gold = [frozenset(x for x in names if rng.random() < 0.4) for _ in range(n)]
            predicted = [frozenset(x for x in names if rng.random() < 0.4) for _ in range(n)]
            rows = per_label_metrics(gold, predicted, catalog)
            for row in rows:
                tp, fp, fn, _ = confusion_oracle(gold, predicted, row.label)
                assert row.precision == (tp / (tp + fp) if tp + fp else 0.0)
                assert row.recall == (tp / (tp + fn) if tp + fn else 0.0)
                expected_f = (
                    2 * row.precision * row.recall / (row.precision + row.recall)
                    if row.precision + row.recall
                    else 0.0
                )
                assert row.f_measure == expected_f
                assert row.support == tp + fn


class TestAveraging:
    def test_fractional_support_mean(self):
        folds = [[MetricsRow("a", 1.0, 1.0, 1.0, s)] for s in (25, 24, 25, 24, 25)]
        (row,) = average_rows_across_folds(folds)
        assert row.support == pytest.approx(24.6)

    def test_identical_rows_unchanged(self):
        row = MetricsRow("a", 0.75, 0.5, 0.625, 12.0)
        (out,) = average_rows_across_folds([[row], [row], [row]])
        assert out == row

    def test_f_mean_not_harmonic_of_means(self):
        folds = [[MetricsRow("a", 1.0, 1.0, 1.0, 5)], [MetricsRow("a", 0.0, 0.0, 0.0, 5)]]
        (row,) = average_rows_across_folds(folds)
        assert row.f_measure == 0.5
        harmonic = 2 * row.precision * row.recall / (row.precision + row.recall)
        assert row.f_measure != harmonic or harmonic == 0.5

    def test_missing_fold_rows(self):
        with pytest.raises(ValueError):
            average_rows_across_folds([[MetricsRow("a", 1, 1, 1, 1)], [MetricsRow("b", 1, 1, 1, 1)]])


class TestWeightedAverage:
    def test_published_table_reproduction(self):
        avg = weighted_average(PUBLISHED_ROWS)
        assert avg.label == AVG_LABEL
        assert avg.precision == pytest.approx(0.69, abs=0.005)
        assert avg.recall == pytest.approx(0.50, abs=0.005)
        assert avg.f_measure == pytest.approx(0.57, abs=0.005)
        assert avg.support == pytest.approx(16.62, abs=0.005)

    def test_single_row_identity(self):
        row = MetricsRow("a", 0.4, 0.3, 0.34, 7.0)
        avg = weighted_average([row])
        assert (avg.precision, avg.recall, avg.f_measure, avg.support) == (0.4, 0.3, 0.34, 7.0)

    def test_support_weighting(self):
        rows = [MetricsRow("a", 1.0, 1.0, 1.0, 1.0), MetricsRow("b", 0.0, 0.0, 0.0, 3.0)]
        assert weighted_average(rows).precision == 0.25

    def test_equal_supports_reduce_to_mean(self):
        rows = [MetricsRow("a", 0.2, 0.4, 0.26, 5.0), MetricsRow("b", 0.8, 0.6, 0.68, 5.0)]
        avg = weighted_average(rows)
        assert avg.precision == pytest.approx(0.5)
        assert avg.recall == pytest.approx(0.5)

    def test_zero_total_support(self):
        with pytest.raises(ValueError):
            weighted_average([MetricsRow("a", 0, 0, 0, 0.0)])


def separable_corpus(n_per_label=15, labels=("qa", "qb", "qc")):
    """Each label perfectly indicated by its own keyword."""
    rows = []
    for i in range(n_per_label):
        for name in labels:
            rows.append(
                ("participant", 3.0 * len(rows), f"{name}word common{i % 4} extra", [name])
            )
    conv = make_conversation("c1", rows)
    catalog = LabelCatalog(labels=tuple(labels))
    return modeling_examples([conv], catalog), catalog


def tokenize_counter(monkeypatch):
    """The texts passed to featurize.tokenize from here on."""
    import speechacts.featurize as featurize_mod

    calls = []
    real = featurize_mod.tokenize
    monkeypatch.setattr(featurize_mod, "tokenize", lambda text: calls.append(text) or real(text))
    return calls


def needed_turn_count():
    """A small synth corpus and the number of turns its examples' contexts
    need: each conversation up to its last example."""
    spec = SynthSpec(n_labels=3, turns_per_label=12, signal=0.8, seed=4, turns_per_conversation=6)
    catalog = synth_catalog(spec)
    examples = modeling_examples(synth_corpus(spec), catalog)
    last = {}
    for ex in examples:
        last[id(ex.conversation)] = max(last.get(id(ex.conversation), -1), ex.turn_index)
    return examples, catalog, sum(index + 1 for index in last.values())


class TestCrossValidate:
    def test_each_fold_runs_each_needed_turn_once(self, monkeypatch):
        examples, catalog, needed = needed_turn_count()
        calls = tokenize_counter(monkeypatch)
        config = RunConfig(seed=1, n_folds=3)
        cross_validate(examples, catalog, config)
        assert len(calls) == needed
        calls.clear()
        train_model(examples, catalog, config)
        assert len(calls) == needed

    def test_nested_cv_and_tuned_train_run_each_needed_turn_once(self, monkeypatch):
        examples, catalog, needed = needed_turn_count()
        calls = tokenize_counter(monkeypatch)
        config = RunConfig(seed=1, n_folds=3, tune=True)
        cross_validate(examples, catalog, config)
        assert len(calls) == needed
        calls.clear()
        train_model(examples, catalog, config)
        assert len(calls) == needed

    def test_nested_cv_matches_tuned_train_per_fold(self):
        # evaluate --tune estimates what train --tune builds: each fold's
        # rows are those of train_model, tuning included, on that fold's
        # training examples, scored on its held-out turns. The folds' inner
        # searches do not all pick the same point.
        spec = SynthSpec(n_labels=3, turns_per_label=16, signal=0.4, multi_label_rate=0.3, seed=1)
        catalog = synth_catalog(spec)
        examples = modeling_examples(synth_corpus(spec), catalog)
        config = RunConfig(seed=3, n_folds=3, inner_folds=2, tune=True, fallback=True,
                           tuning_grid={"C": [0.1, 10.0]})
        plan = stratified_kfold([ex.labels for ex in examples], config.n_folds, config.seed)
        fold_rows, picked = [], []
        for fold in range(config.n_folds):
            test = [examples[i] for i in plan.members(fold)]
            train = [ex for i, ex in enumerate(examples) if plan.assignment[i] != fold]
            model = train_model(train, catalog, config)
            picked.append(model.config.hyperparams.C)
            rows = [turn_row(tokens, raw, model.vocabulary, model.scaling)
                    for tokens, raw in example_contexts(test, config.slen_scope)]
            predicted = [frozenset(catalog.labels[j] for j in label_positions(model, probs)[0])
                         for probs in score_rows(model, rows)]
            fold_rows.append(per_label_metrics([ex.labels for ex in test], predicted, catalog))
        assert picked == [0.1, 0.1, 10.0]
        rows = average_rows_across_folds(fold_rows)
        report = cross_validate(examples, catalog, config)
        assert report.fold_rows == fold_rows
        assert report.rows == rows
        assert report.average_row == weighted_average(rows)

    def test_separable_corpus_perfect_rows(self):
        examples, catalog = separable_corpus()
        report = cross_validate(examples, catalog, RunConfig(seed=1))
        for row in report.rows:
            assert row.precision == 1.0
            assert row.recall == 1.0

    def test_no_signal_band(self):
        rng = np.random.default_rng(99)
        catalog = LabelCatalog(labels=("a", "b"))
        precisions = []
        for seed in range(10):
            rows = []
            for i in range(60):
                labels = [rng.choice(["a", "b"])]
                rows.append(("participant", 2.0 * i, f"word{rng.integers(0, 30)} tail", labels))
            conv = make_conversation("c1", rows)
            examples = modeling_examples([conv], catalog)
            report = cross_validate(examples, catalog, RunConfig(seed=seed, n_folds=5))
            precisions.append(report.average_row.precision)
        assert 0.3 <= sum(precisions) / len(precisions) <= 0.7

    def test_every_example_in_exactly_one_test_fold(self):
        examples, catalog = separable_corpus()
        plan = stratified_kfold([ex.labels for ex in examples], 5, seed=1)
        seen = []
        for fold in range(5):
            seen.extend(plan.members(fold))
        assert sorted(seen) == list(range(len(examples)))

    def test_leakage_canary_token(self):
        examples, catalog = separable_corpus()
        config = RunConfig(seed=1)
        plan = stratified_kfold([ex.labels for ex in examples], config.n_folds, config.seed)
        for i in plan.members(0):
            turn = examples[i].turn
            turn.text = turn.text + " canaryzzz"
        _, test, vocabulary, _, _, X_test = featurize_fold(examples, plan, 0, config)
        assert "canaryzzz" not in vocabulary
        # test rows are real turns: word block stays exactly binary
        words = X_test[:, : len(vocabulary)]
        assert np.isin(words, [0.0, 1.0]).all()
        assert X_test.shape[0] == len(test)

    def test_violations_warned(self):
        rows = [
            ("participant", 2.0 * i, f"{''.join(sorted(ls))}word common{i % 3}", sorted(ls))
            for i, ls in enumerate(UNBALANCEABLE)
        ]
        catalog = LabelCatalog(labels=("a", "b", "c"))
        examples = modeling_examples([make_conversation("c1", rows)], catalog)
        config = RunConfig(seed=0, n_folds=5)
        plan = stratified_kfold([ex.labels for ex in examples], 5, seed=0)
        with pytest.warns(RuntimeWarning) as record:
            cross_validate(examples, catalog, config)
        messages = [str(w.message) for w in record if "positives" in str(w.message)]
        assert len(messages) == len(plan.violations) > 0
        for v, message in zip(plan.violations, messages):
            assert f"fold {v.fold}: label {v.label!r} has {v.positives} positives" in message
            assert f"{v.ideal_share:.2f}" in message

    def test_determinism(self):
        examples, catalog = separable_corpus(n_per_label=8)
        a = cross_validate(examples, catalog, RunConfig(seed=7, n_folds=3))
        b = cross_validate(examples, catalog, RunConfig(seed=7, n_folds=3))
        assert a.rows == b.rows and a.average_row == b.average_row


class TestFisherScore:
    def test_hand_computed_example(self):
        # positives [1,1,0], negatives [0,0]:
        # overall mean 0.4; numerator (2/3-0.4)^2 + (0-0.4)^2 = 52/225
        # denominator = sample variances 1/3 + 0 -> score (52/225)/(1/3) = 52/75
        score = fisher_score([1, 1, 0, 0, 0], [True, True, True, False, False])
        assert score == pytest.approx(52 / 75, rel=1e-12)

    def test_identical_means_zero(self):
        score = fisher_score([0.0, 1.0, 0.0, 1.0], [True, True, False, False])
        assert score == 0.0

    def test_constant_feature_zero(self):
        assert fisher_score([3.0] * 6, [True] * 3 + [False] * 3) == 0.0

    def test_separated_constant_groups_infinite(self):
        score = fisher_score([1.0, 1.0, 0.0, 0.0], [True, True, False, False])
        assert math.isinf(score)

    def test_small_side_warns_and_zeroes(self):
        with pytest.warns(RuntimeWarning):
            assert fisher_score([1.0, 0.0, 0.5], [True, False, False]) == 0.0

    def test_empty_side_errors(self):
        with pytest.raises(ValueError):
            fisher_score([1.0, 2.0], [True, True])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fisher_score([1.0], [True, False])


class TestRankFeatures:
    def intro_examples(self):
        # "hello" is the only token perfectly aligned with one label; every
        # other word varies within its label so its fisher score stays finite
        catalog = LabelCatalog(labels=("introduction", "question"))
        intro_tails = ["there friend", "again pal", "there pal", "again friend"]
        question_heads = ["what about", "how come", "what is", "how about"]
        rows = []
        for i in range(8):
            rows.append(
                ("participant", 2.0 * len(rows), f"hello {intro_tails[i % 4]}", ["introduction"])
            )
            rows.append(
                ("participant", 2.0 * len(rows), f"{question_heads[i % 4]} item{i % 3}", ["question"])
            )
        conv = make_conversation("c1", rows)
        return modeling_examples([conv], catalog), catalog

    def test_dedicated_keyword_ranked_first(self):
        examples, catalog = self.intro_examples()
        (ranking,) = rank_features_for_examples(examples, catalog, ["introduction"], top_n=10)
        assert ranking.ranked[0][0] == "hello"

    def test_top_n_larger_than_feature_count(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        label_sets = [frozenset({"a"}), frozenset(), frozenset({"a"}), frozenset()]
        ranking = rank_features(X, label_sets, ["f1", "f2"], "a", top_n=99)
        assert len(ranking.ranked) == 2

    def test_equal_scores_lexicographic(self):
        X = np.array(
            [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
        )
        label_sets = [frozenset({"a"}), frozenset({"a"}), frozenset(), frozenset()]
        ranking = rank_features(X, label_sets, ["zeta", "alpha"], "a", top_n=2)
        assert [name for name, _ in ranking.ranked] == ["alpha", "zeta"]

    def test_shuffle_invariance(self):
        examples, catalog = self.intro_examples()
        (baseline,) = rank_features_for_examples(examples, catalog, ["introduction"])
        rng = np.random.default_rng(4)
        shuffled = [examples[i] for i in rng.permutation(len(examples))]
        (again,) = rank_features_for_examples(shuffled, catalog, ["introduction"])
        assert [n for n, _ in baseline.ranked] == [n for n, _ in again.ranked]
        assert [s for _, s in baseline.ranked] == pytest.approx([s for _, s in again.ranked])

    def test_labels_ranked_in_the_order_given_one_sided_skipped(self):
        examples, _ = self.intro_examples()
        catalog = LabelCatalog(labels=("introduction", "question", "unused"))
        with pytest.warns(UserWarning) as caught:
            rankings = rank_features_for_examples(examples, catalog,
                                                  ["question", "unused", "introduction"])
        assert [r.label for r in rankings] == ["question", "introduction"]
        assert [str(w.message) for w in caught] == [
            "skipping unused: needs both positive and negative examples"]

    def test_unknown_label(self):
        examples, catalog = self.intro_examples()
        with pytest.raises(ValueError):
            rank_features_for_examples(examples, catalog, ["introduction", "nolabel"])

    def test_label_without_positives(self):
        X = np.array([[1.0], [0.0]])
        label_sets = [frozenset(), frozenset()]
        with pytest.raises(ValueError):
            rank_features(X, label_sets, ["f"], "a")

    def test_shallow_feature_names_in_ranking(self):
        examples, catalog = self.intro_examples()
        (ranking,) = rank_features_for_examples(examples, catalog, ["introduction"], top_n=0)
        names = {name for name, _ in ranking.ranked}
        assert {"slen_sf", "wc_sf", "ppau_sf"} <= names
