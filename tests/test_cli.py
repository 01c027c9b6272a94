import errno
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from speechacts.cli import main

from conftest import record_line


@pytest.fixture
def runner():
    return CliRunner()


def write_catalog(path, labels, excluded=()):
    path.write_text(json.dumps({"labels": list(labels), "excluded": list(excluded)}))
    return str(path)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def tiny_corpus(tmp_path):
    catalog = write_catalog(tmp_path / "catalog.json", ["qa", "qb"])
    lines = []
    for i in range(12):
        lines.append(record_line("c1", 2 * i, "participant", 4.0 * i,
                                 f"alphaword topic{i % 3}", ["qa"] if i % 2 else ["qb"]))
        lines.append(record_line("c1", 2 * i + 1, "assistant", 4.0 * i + 2.0, "reply words", []))
    transcript = write_lines(tmp_path / "corpus.jsonl", lines)
    return transcript, catalog


@pytest.fixture
def separable_corpus_files(tmp_path, runner):
    corpus = tmp_path / "synth.jsonl"
    catalog = tmp_path / "synth_catalog.json"
    result = runner.invoke(
        main,
        ["--seed", "7", "synth-corpus", "--labels", "3", "--turns-per-label", "12",
         "--signal", "1.0", "--output", str(corpus), "--catalog-out", str(catalog)],
    )
    assert result.exit_code == 0, result.output
    return str(corpus), str(catalog)


class TestValidate:
    def test_valid_corpus(self, runner, tiny_corpus):
        transcript, catalog = tiny_corpus
        result = runner.invoke(main, ["--catalog", catalog, "validate", transcript])
        assert result.exit_code == 0
        assert "0 violations" in result.output

    def test_violations_listed(self, runner, tmp_path):
        catalog = write_catalog(tmp_path / "catalog.json", ["qa"])
        transcript = write_lines(
            tmp_path / "bad.jsonl",
            [
                record_line("c1", 0, "participant", 5.0, "fine", ["qa"]),
                record_line("c1", 1, "participant", 2.0, "  ", ["qa"]),
            ],
        )
        result = runner.invoke(main, ["--catalog", catalog, "validate", transcript])
        assert result.exit_code == 1
        assert "monotone_timestamp" in result.output
        assert "empty_text" in result.output
        assert "2 violations" in result.output

    def test_missing_file(self, runner, tmp_path):
        catalog = write_catalog(tmp_path / "catalog.json", ["qa"])
        result = runner.invoke(main, ["--catalog", catalog, "validate", str(tmp_path / "nope.jsonl")])
        assert result.exit_code == 2

    def test_malformed_line_is_quality_failure(self, runner, tmp_path):
        catalog = write_catalog(tmp_path / "catalog.json", ["qa"])
        transcript = write_lines(tmp_path / "bad.jsonl", ["{not json"])
        result = runner.invoke(main, ["--catalog", catalog, "validate", transcript])
        assert result.exit_code == 1


    @pytest.mark.parametrize(
        "bad_line",
        [
            record_line("c1", 1, "participant", 0, "x", ["qa"]).replace(
                '"timestamp_s": 0', '"timestamp_s": 1' + "0" * 400),
            record_line("c1", 1, "participant", 1.0, "x", ["qa"], n=0).replace(
                '"n": 0', '"n": ' + "1" * 4400),
            "[" * 200000,
        ],
        ids=["timestamp", "integer", "nesting"],
    )
    def test_crash_line_is_located_error(self, runner, tmp_path, bad_line):
        catalog = write_catalog(tmp_path / "catalog.json", ["qa"])
        transcript = write_lines(
            tmp_path / "bad.jsonl", [record_line("c1", 0, "participant", 0.0, "x", ["qa"]), bad_line]
        )
        result = runner.invoke(main, ["--catalog", catalog, "validate", transcript])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.stderr.startswith("error: ")
        assert f"{transcript}:2:" in result.stderr


    def test_non_utf8_line_is_located_error(self, runner, tmp_path):
        catalog = write_catalog(tmp_path / "catalog.json", ["qa"])
        good = record_line("c1", 0, "participant", 0.0, "x", ["qa"]).encode()
        # a Latin-1 e-acute, after a blank line
        bad = record_line("c1", 1, "participant", 1.0, "cafe", ["qa"]).encode().replace(
            b"cafe", b"caf\xe9")
        transcript = tmp_path / "bad.jsonl"
        transcript.write_bytes(good + b"\n\n" + bad + b"\n")
        result = runner.invoke(main, ["--catalog", catalog, "validate", str(transcript)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        offset = bad.index(b"\xe9")
        assert result.stderr == f"error: {transcript}:3: not valid UTF-8: byte 0xe9 at offset {offset}\n"

    @pytest.mark.parametrize("speaker", ["x" * 1_000_000, ["participant"] * 200_000],
                             ids=["string", "list"])
    def test_huge_speaker_error_is_bounded(self, runner, tmp_path, speaker):
        catalog = write_catalog(tmp_path / "catalog.json", ["qa"])
        transcript = write_lines(
            tmp_path / "bad.jsonl",
            [record_line("c1", 0, "participant", 0.0, "x", ["qa"]),
             record_line("c1", 1, speaker, 1.0, "x", ["qa"])],
        )
        result = runner.invoke(main, ["--catalog", catalog, "validate", transcript])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {transcript}:2: unknown speaker")
        assert len(result.stderr) - len(transcript) < 200

    def test_huge_duplicate_id_error_is_bounded(self, runner, tmp_path):
        catalog = write_catalog(tmp_path / "catalog.json", ["qa"])
        line = record_line("c" * 1_000_000, 0, "participant", 0.0, "x", ["qa"])
        transcript = write_lines(tmp_path / "bad.jsonl", [line, line])
        result = runner.invoke(main, ["--catalog", catalog, "validate", transcript])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: {transcript}:2: duplicate turn")
        assert len(result.stderr) - 2 * len(transcript) < 200

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_in_extra_field_is_located_error(self, runner, tmp_path,
                                                                 constant):
        catalog = write_catalog(tmp_path / "catalog.json", ["qa"])
        bad = record_line("c1", 1, "participant", 1.0, "x", ["qa"], x=0).replace(
            '"x": 0', f'"x": {constant}')
        transcript = write_lines(
            tmp_path / "bad.jsonl", [record_line("c1", 0, "participant", 0.0, "x", ["qa"]), bad]
        )
        result = runner.invoke(main, ["--catalog", catalog, "validate", transcript])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {transcript}:2: not valid JSON ('x': {constant}")

    @pytest.mark.parametrize("literal", ["1e999", "-1e999", "1" + "0" * 400 + ".0"],
                             ids=["exponent", "negative", "digits"])
    def test_float_out_of_range_in_extra_field_is_located_error(self, runner, tmp_path,
                                                                literal):
        # json reads such a literal as an infinity, which serialize_transcripts refuses
        catalog = write_catalog(tmp_path / "catalog.json", ["qa"])
        bad = record_line("c1", 1, "participant", 1.0, "x", ["qa"], x=0).replace(
            '"x": 0', f'"x": {literal}')
        transcript = write_lines(
            tmp_path / "bad.jsonl", [record_line("c1", 0, "participant", 0.0, "x", ["qa"]), bad]
        )
        result = runner.invoke(main, ["--catalog", catalog, "validate", transcript])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(
            f"error: {transcript}:2: not valid JSON ('x': {literal[:40]}")
        assert "out of range for a float" in result.stderr
        assert len(result.stderr) - len(transcript) < 200


class TestStats:
    def test_table(self, runner, tiny_corpus):
        transcript, catalog = tiny_corpus
        result = runner.invoke(main, ["--catalog", catalog, "stats", transcript])
        assert result.exit_code == 0
        assert "conversations: 1" in result.output
        assert "qa: 6" in result.output

    def test_machine(self, runner, tiny_corpus):
        transcript, catalog = tiny_corpus
        result = runner.invoke(main, ["--catalog", catalog, "--format", "machine",
                                      "stats", transcript])
        doc = json.loads(result.output)
        assert doc["label_counts"] == {"qa": 6, "qb": 6}
        assert doc["per_speaker_turn_counts"]["assistant"] == 12
        assert "config" in doc


class TestSynthCorpus:
    def test_deterministic_files(self, runner, tmp_path):
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            result = runner.invoke(
                main, ["--seed", "9", "synth-corpus", "--labels", "3",
                       "--turns-per-label", "5", "--output", str(out)],
            )
            assert result.exit_code == 0, result.output
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("command", ["synth-corpus", "train", "evaluate"])
    def test_negative_seed_rejected_up_front(self, runner, tmp_path, separable_corpus_files,
                                             command):
        corpus, catalog = separable_corpus_files
        out = tmp_path / "out"
        inputs = [] if command == "synth-corpus" else [corpus]
        result = runner.invoke(main, ["--catalog", catalog, "--seed", "-1", command, *inputs,
                                      "--output", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "'--seed'" in result.stderr
        assert not out.exists()

    def test_catalog_out_usable(self, runner, separable_corpus_files):
        corpus, catalog = separable_corpus_files
        runner2 = CliRunner()
        result = runner2.invoke(main, ["--catalog", catalog, "validate", corpus])
        assert result.exit_code == 0


class TestTrainPredict:
    def test_train_then_predict(self, runner, separable_corpus_files, tmp_path):
        corpus, catalog = separable_corpus_files
        model_path = tmp_path / "model.json"
        result = runner.invoke(
            main, ["--catalog", catalog, "--seed", "7", "train", corpus,
                   "--output", str(model_path)],
        )
        assert result.exit_code == 0, result.output
        assert model_path.exists()

        predict = runner.invoke(
            main, ["--format", "machine", "predict", corpus, "--model", str(model_path)],
        )
        assert predict.exit_code == 0, predict.output
        records = [json.loads(line) for line in predict.stdout.strip().split("\n")]
        participants = [r for r in records if r["speaker"] == "participant"]
        assistants = [r for r in records if r["speaker"] == "assistant"]
        assert participants and assistants
        assert all(r["labels"] == [] and r["probabilities"] == {} for r in assistants)
        # training corpus is separable, so predictions recover the gold labels
        correct = sum(1 for r in participants if r["labels"])
        assert correct / len(participants) > 0.9

    def test_predict_tokenizes_each_turn_once(self, runner, separable_corpus_files, tmp_path,
                                              monkeypatch):
        import speechacts.featurize as featurize_mod

        corpus, catalog = separable_corpus_files
        model_path = tmp_path / "model.json"
        result = runner.invoke(main, ["--catalog", catalog, "train", corpus,
                                      "--output", str(model_path)])
        assert result.exit_code == 0, result.output
        n_turns = 400
        long_conversation = write_lines(tmp_path / "long.jsonl", [
            record_line("long", i, ("participant", "assistant")[i % 3 == 2], 2.0 * i,
                        f"act{i % 3}kw{i % 8} filler{i % 60} words")
            for i in range(n_turns)
        ])
        calls = []
        real = featurize_mod.tokenize
        monkeypatch.setattr(featurize_mod, "tokenize", lambda text: calls.append(text) or real(text))
        predict = runner.invoke(main, ["--format", "machine", "predict", long_conversation,
                                       "--model", str(model_path)])
        assert predict.exit_code == 0, predict.output
        assert len(predict.stdout.strip().split("\n")) == n_turns
        assert len(calls) == n_turns

    def test_skipped_label_warns_but_succeeds(self, runner, tmp_path):
        catalog = write_catalog(tmp_path / "catalog.json", ["qa", "ghost"])
        lines = [
            record_line("c1", i, "participant", 2.0 * i,
                        f"alphaword item{i % 2} blah", ["qa"])
            for i in range(8)
        ]
        # one unlabeled-for-ghost negative pool plus qa positives: ghost never occurs
        lines.append(record_line("c1", 8, "participant", 16.0, "other words", []))
        transcript = write_lines(tmp_path / "corpus.jsonl", lines)
        model_path = tmp_path / "model.json"
        result = runner.invoke(
            main, ["--catalog", catalog, "train", transcript, "--output", str(model_path)],
        )
        assert result.exit_code == 0, result.output
        assert "skipped label ghost" in result.stderr

    def test_unconverged_label_warns(self, runner, separable_corpus_files, tmp_path):
        corpus, catalog = separable_corpus_files
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"hyperparams": {"max_iterations": 1}}))
        model_path = tmp_path / "model.json"
        result = runner.invoke(
            main, ["--catalog", catalog, "--config", str(config), "train", corpus,
                   "--output", str(model_path)],
        )
        assert result.exit_code == 0, result.output
        warnings = [line for line in result.stderr.splitlines() if "did not converge" in line]
        assert [line.split()[2] for line in warnings] == ["act0", "act1", "act2"]
        assert all("after 1 Newton steps" in line for line in warnings)

    def test_unwritable_output(self, runner, separable_corpus_files, tmp_path):
        corpus, catalog = separable_corpus_files
        # a missing parent directory defeats even a root test runner
        target = tmp_path / "no_such_dir" / "model.json"
        result = runner.invoke(
            main, ["--catalog", catalog, "train", corpus, "--output", str(target)],
        )
        assert result.exit_code == 2
        assert not target.exists()
        # the error names the user's path, not the temp file beside it
        assert result.stderr.strip().endswith(repr(str(target)))

    def test_model_file_mode_follows_umask(self, runner, separable_corpus_files, tmp_path):
        # like every other output file: not only its owner may read it
        corpus, catalog = separable_corpus_files
        model_path = tmp_path / "model.json"
        result = runner.invoke(
            main, ["--catalog", catalog, "train", corpus, "--output", str(model_path)],
        )
        assert result.exit_code == 0, result.output
        assert model_path.stat().st_mode == Path(corpus).stat().st_mode

    def test_confirmation_keyword_cluster(self, runner, tmp_path):
        # a model trained where gratitude words mark confirmations picks the
        # confirmation label for a fresh thank-you turn
        catalog = write_catalog(tmp_path / "catalog.json", ["confirmation", "question"])
        confirmations = [
            "thank you that fixed it nicely",
            "great thank you it works now",
            "perfect that fixed my problem thanks",
            "thanks a lot that fixed things",
        ]
        questions = [
            "what does this method return here",
            "how do i call that function",
            "where is the handler class defined",
            "why does the build keep failing",
        ]
        lines = []
        for i in range(12):
            lines.append(record_line("c1", 2 * i, "participant", 5.0 * i,
                                     confirmations[i % 4], ["confirmation"]))
            lines.append(record_line("c1", 2 * i + 1, "participant", 5.0 * i + 2.0,
                                     questions[i % 4], ["question"]))
        transcript = write_lines(tmp_path / "train.jsonl", lines)
        model_path = tmp_path / "model.json"
        result = runner.invoke(
            main, ["--catalog", catalog, "--seed", "3", "train", transcript,
                   "--output", str(model_path)],
        )
        assert result.exit_code == 0, result.output

        incoming = write_lines(
            tmp_path / "incoming.jsonl",
            [record_line("c9", 0, "participant", 0.0, "thank you, that fixed it", [])],
        )
        predict = runner.invoke(
            main, ["--format", "machine", "predict", str(incoming),
                   "--model", str(model_path), "--fallback"],
        )
        assert predict.exit_code == 0, predict.output
        (record,) = [json.loads(line) for line in predict.stdout.strip().split("\n")]
        assert "confirmation" in record["labels"]

    def test_predict_rejects_corrupt_model(self, runner, separable_corpus_files, tmp_path):
        corpus, _ = separable_corpus_files
        bad_model = tmp_path / "model.json"
        bad_model.write_text("{}")
        result = runner.invoke(main, ["predict", corpus, "--model", str(bad_model)])
        assert result.exit_code == 1


class TestEvaluate:
    def test_deterministic_reports(self, runner, separable_corpus_files):
        corpus, catalog = separable_corpus_files
        args = ["--catalog", catalog, "--seed", "7", "--format", "machine",
                "evaluate", corpus, "--folds", "3"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0, first.output
        assert first.stdout == second.stdout

    def test_machine_format_carries_config_and_rows(self, runner, separable_corpus_files):
        corpus, catalog = separable_corpus_files
        result = runner.invoke(
            main, ["--catalog", catalog, "--seed", "7", "--format", "machine",
                   "evaluate", corpus, "--folds", "3"],
        )
        doc = json.loads(result.stdout)
        assert doc["config"]["n_folds"] == 3 and doc["config"]["seed"] == 7
        assert len(doc["rows"]) == 3
        assert doc["avg_total"]["label"] == "avg/total"
        assert len(doc["folds"]) == 3

    def test_table_format_has_avg_row(self, runner, separable_corpus_files):
        corpus, catalog = separable_corpus_files
        result = runner.invoke(
            main, ["--catalog", catalog, "evaluate", corpus, "--folds", "3"],
        )
        assert result.exit_code == 0
        assert "avg/total" in result.output
        assert "precision" in result.output

    def test_output_file(self, runner, separable_corpus_files, tmp_path):
        corpus, catalog = separable_corpus_files
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["--catalog", catalog, "evaluate", corpus, "--folds", "3",
                   "--output", str(out)],
        )
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"config", "rows", "avg_total", "folds"}
        assert 0.0 <= doc["avg_total"]["precision"] <= 1.0


class TestRankFeatures:
    def test_single_label_table(self, runner, separable_corpus_files):
        corpus, catalog = separable_corpus_files
        result = runner.invoke(
            main, ["--catalog", catalog, "rank-features", corpus, "--label", "act0",
                   "--top-n", "5"],
        )
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[-1].startswith("act0:")
        assert "act0kw" in result.output

    def test_all_labels_machine(self, runner, separable_corpus_files):
        corpus, catalog = separable_corpus_files
        result = runner.invoke(
            main, ["--catalog", catalog, "--format", "machine", "rank-features", corpus],
        )
        doc = json.loads(result.stdout)
        assert [r["label"] for r in doc["rankings"]] == ["act0", "act1", "act2"]
        assert all(len(r["features"]) == 10 for r in doc["rankings"])

    def test_printed_order_reverses(self, runner, separable_corpus_files):
        corpus, catalog = separable_corpus_files
        fwd = runner.invoke(main, ["--catalog", catalog, "rank-features", corpus,
                                   "--label", "act1", "--top-n", "4"])
        rev = runner.invoke(main, ["--catalog", catalog, "rank-features", corpus,
                                   "--label", "act1", "--top-n", "4", "--printed-order"])

        def names(output):
            line = output.splitlines()[-1].split(":", 1)[1]
            return [part.strip().split(" ")[0] for part in line.split(",")]

        assert names(fwd.output) == list(reversed(names(rev.output)))

    def test_unknown_label_fails(self, runner, separable_corpus_files):
        corpus, catalog = separable_corpus_files
        result = runner.invoke(
            main, ["--catalog", catalog, "rank-features", corpus, "--label", "nolabel"],
        )
        assert result.exit_code == 1


class TestServeCommand:
    def test_stdio_mode(self, runner, separable_corpus_files, tmp_path):
        corpus, catalog = separable_corpus_files
        model_path = tmp_path / "model.json"
        train = runner.invoke(
            main, ["--catalog", catalog, "--seed", "7", "train", corpus,
                   "--output", str(model_path)],
        )
        assert train.exit_code == 0
        # a turn shaped like the training distribution (keywords plus filler)
        text = "act0kw0 act0kw1 act0kw2 filler1 filler2 filler3 filler4 filler5 filler6"
        requests = "\n".join(
            [
                json.dumps({"conversation_id": "s", "speaker": "participant",
                            "timestamp_s": 8.0, "text": text}),
                json.dumps({"conversation_id": "s", "speaker": "assistant",
                            "timestamp_s": 11.0, "text": "reply"}),
                "{broken",
            ]
        ) + "\n"
        result = runner.invoke(main, ["serve", "--model", str(model_path)], input=requests)
        assert result.exit_code == 0, result.output
        lines = [json.loads(line) for line in result.stdout.strip().split("\n")]
        assert len(lines) == 3
        assert "act0" in lines[0]["labels"]
        assert lines[1] == {"labels": [], "probabilities": {}, "low_confidence": False}
        assert "error" in lines[2]


class TestTuning:
    def test_evaluate_with_nested_tuning(self, runner, separable_corpus_files, tmp_path):
        corpus, catalog = separable_corpus_files
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"tuning_grid": {"C": [0.1, 1.0]}, "inner_folds": 2}
        ))
        result = runner.invoke(
            main, ["--catalog", catalog, "--config", str(config), "--seed", "7",
                   "--format", "machine", "evaluate", corpus, "--folds", "2", "--tune"],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.stdout)
        assert doc["config"]["tune"] is True
        assert doc["avg_total"]["precision"] > 0.5

    def test_train_with_tuning(self, runner, separable_corpus_files, tmp_path):
        corpus, catalog = separable_corpus_files
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"tuning_grid": {"C": [0.1, 1.0]}, "inner_folds": 2}
        ))
        model_path = tmp_path / "model.json"
        result = runner.invoke(
            main, ["--catalog", catalog, "--config", str(config), "--seed", "7",
                   "train", corpus, "--output", str(model_path), "--tune"],
        )
        assert result.exit_code == 0, result.output
        from speechacts.classifier import load_model

        model = load_model(model_path)
        picked = {clf.hyperparams.C for clf in model.classifiers.values()}
        assert picked <= {0.1, 1.0}


    def test_default_grid_has_eight_points(self):
        from speechacts.config import DEFAULT_GRID, Hyperparams, expand_grid

        points = expand_grid(DEFAULT_GRID)
        assert len(set(points)) == len(points) == 8
        assert set(Hyperparams().as_dict()) == {"C", "max_iterations", "tolerance", "fit_bias"}


class TestConfigPrecedence:
    def test_flag_beats_config_file(self, runner, separable_corpus_files, tmp_path):
        corpus, catalog = separable_corpus_files
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n_folds": 4, "seed": 1}))
        result = runner.invoke(
            main, ["--catalog", catalog, "--config", str(config), "--format", "machine",
                   "evaluate", corpus, "--folds", "3"],
        )
        doc = json.loads(result.stdout)
        assert doc["config"]["n_folds"] == 3  # flag wins
        assert doc["config"]["seed"] == 1     # config file survives where no flag given

    def test_bad_config_key_rejected(self, runner, separable_corpus_files, tmp_path):
        corpus, catalog = separable_corpus_files
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"not_a_key": 5}))
        result = runner.invoke(
            main, ["--catalog", catalog, "--config", str(config), "evaluate", corpus],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("command", ["evaluate", "stats"])
    @pytest.mark.parametrize("settings", [
        {"hyperparams": {"fit_bias": "false"}},
        {"hyperparams": {"max_iterations": 2.5}},
        {"hyperparams": {"max_iterations": True}},
        {"hyperparams": {"C": "x"}},
        {"hyperparams": {"C": float("inf")}},
        {"hyperparams": {"tolerance": 0}},
        {"hyperparams": {"learning_rate": 0.1}},
        {"hyperparams": [1.0]},
        {"tuning_grid": {"learning_rate": [0.1, 0.5]}},
        {"tuning_grid": {"C": ["x"]}},
        {"tuning_grid": {"C": 1.0}},
    ])
    def test_bad_hyperparams_rejected(self, runner, separable_corpus_files, tmp_path,
                                      command, settings):
        corpus, catalog = separable_corpus_files
        config = tmp_path / "run.json"
        config.write_text(json.dumps(settings))
        result = runner.invoke(
            main, ["--catalog", catalog, "--config", str(config), command, corpus],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")

    @pytest.mark.parametrize("command", ["evaluate", "stats"])
    @pytest.mark.parametrize("settings", [
        {"smote_k": "5"},
        {"smote_k": 5.0},
        {"smote_k": True},
        {"n_folds": 2.5},
        {"n_folds": None},
        {"inner_folds": "3"},
        {"seed": "x"},
        {"seed": False},
        {"threshold": "0.5"},
        {"threshold": True},
        {"threshold": float("nan")},
        {"threshold": None},
        {"fallback": "true"},
        {"fallback": 1},
        {"tune": "no"},
        {"tune": 0},
        {"slen_scope": 1},
        {"slen_scope": ["same"]},
        {"seed": -3},
    ])
    def test_bad_run_settings_rejected(self, runner, separable_corpus_files, tmp_path,
                                       command, settings):
        corpus, catalog = separable_corpus_files
        config = tmp_path / "run.json"
        config.write_text(json.dumps(settings))
        result = runner.invoke(
            main, ["--catalog", catalog, "--config", str(config), command, corpus],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert next(iter(settings)) in result.stderr


class TestErrorBoundary:
    """Every command runs inside one boundary: any ValueError exits 1, any
    OSError exits 2, each with one ``error:`` line and no traceback, and a
    package warning prints as one ``warning:`` line."""

    @pytest.fixture
    def model_path(self, runner, separable_corpus_files, tmp_path):
        corpus, catalog = separable_corpus_files
        model_path = tmp_path / "model.json"
        train = runner.invoke(main, ["--catalog", catalog, "train", corpus,
                                     "--output", str(model_path)])
        assert train.exit_code == 0, train.output
        return model_path

    def test_os_error_while_serving_exits_2(self, runner, model_path, monkeypatch):
        def broken(*_):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr("speechacts.cli.serve_stdio", broken)
        result = runner.invoke(main, ["serve", "--model", str(model_path)], input="")
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert errors == ["error: [Errno 5] Input/output error"]

    def test_closed_stdout_left_to_click(self, runner, model_path, monkeypatch):
        # a reader that went away early (``serve | head``) is no I/O error
        def closed(*_):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr("speechacts.cli.serve_stdio", closed)
        result = runner.invoke(main, ["serve", "--model", str(model_path)], input="")
        assert result.exit_code == 1
        assert "error:" not in result.stderr

    def test_value_error_from_synth_exits_1(self, runner, tmp_path, monkeypatch):
        def broken(spec):
            raise ValueError("cannot build this corpus")

        monkeypatch.setattr("speechacts.cli.synth_corpus", broken)
        result = runner.invoke(main, ["synth-corpus", "--output", str(tmp_path / "c.jsonl")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "error: cannot build this corpus\n"

    def test_stratification_warning_is_one_line(self, runner, tmp_path):
        catalog = write_catalog(tmp_path / "catalog.json", ["a", "b", "c"])
        label_sets = ["b", "c", "abc", "ac", "b", "a", "a", "c", "b"]
        transcript = write_lines(tmp_path / "corpus.jsonl", [
            record_line("c1", i, "participant", 3.0 * i, f"word{i} shared", list(labels))
            for i, labels in enumerate(label_sets)
        ])
        result = runner.invoke(main, ["--catalog", catalog, "evaluate", transcript])
        assert result.exit_code == 0, result.output
        assert result.stderr.splitlines() == [
            "warning: fold 2: label 'c' has 2 positives, more than 1 away from its share "
            "of 0.80"
        ]

    def test_fisher_warning_is_one_line(self, runner, tmp_path):
        catalog = write_catalog(tmp_path / "catalog.json", ["a", "b"])
        transcript = write_lines(tmp_path / "corpus.jsonl", [
            record_line("c1", i, "participant", 3.0 * i, f"word{i} shared", ["a"] if i else ["b"])
            for i in range(6)
        ])
        result = runner.invoke(main, ["--catalog", catalog, "rank-features", transcript,
                                      "--label", "b"])
        assert result.exit_code == 0, result.output
        assert result.stderr.splitlines() == [
            "warning: fisher score undefined with a side of 1 example(s); reporting 0"
        ]
