import errno
import gc
import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from speechacts import corpus as corpus_mod
from speechacts.cli import main
from speechacts.corpus import MAX_CONVERSATION_ID
from speechacts.serve import ServeEngine

from conftest import record_line, run_cli


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

    def test_id_with_a_newline_keeps_one_line_per_violation(self, runner, tmp_path):
        catalog = write_catalog(tmp_path / "catalog.json", ["qa"])
        # each a line boundary to str.splitlines
        cid = "x\ny\x85z\u2028w\u2029v 0: contiguous_index: fake"
        transcript = write_lines(tmp_path / "odd.jsonl", [
            record_line(cid, 0, "participant", 1.0, "fine", ["qa"]),
            record_line(cid, 2, "participant", 2.0, "gap", ["qa"]),
        ])
        line = ("x\\ny\\u0085z\\u2028w\\u2029v 0: contiguous_index: fake turn 2: "
                "contiguous_index: expected turn_index 1, found 2")
        result = runner.invoke(main, ["--catalog", catalog, "validate", transcript])
        assert result.exit_code == 1
        assert result.stdout.splitlines() == [line, "1 violations"]
        result = runner.invoke(main, ["--catalog", catalog, "train", transcript,
                                      "--output", str(tmp_path / "model.json")])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [f"violation: {line}",
                                              "error: 1 validation violation(s)"]

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
        # the longest id a transcript may hold, then one far past it
        for cid, error in [("c" * MAX_CONVERSATION_ID, ":2: duplicate turn"),
                           ("c" * 1_000_000, ":1: conversation_id longer than 256")]:
            line = record_line(cid, 0, "participant", 0.0, "x", ["qa"])
            transcript = write_lines(tmp_path / "bad.jsonl", [line, line])
            result = runner.invoke(main, ["--catalog", catalog, "validate", transcript])
            assert result.exit_code == 1
            assert result.stderr.startswith(f"error: {transcript}{error}")
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

    def test_catalog_path_with_a_newline_keeps_one_header_line(self, runner, tiny_corpus,
                                                               tmp_path):
        transcript, catalog = tiny_corpus
        odd = tmp_path / "cat\nfake: line\u2028.json"
        odd.write_text(Path(catalog).read_text())
        result = runner.invoke(main, ["--catalog", str(odd), "stats", transcript])
        assert result.exit_code == 0
        header, first = result.stdout.splitlines()[:2]
        assert header.startswith(f"# config: catalog={tmp_path}/cat\\nfake: line\\u2028.json ")
        assert first == "conversations: 1"


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

    def test_seed_from_the_config_file(self, runner, tmp_path):
        # the flag beats the file, which beats the default seed 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": 5}))

        def corpus(*args):
            out = tmp_path / f"{len(list(tmp_path.iterdir()))}.jsonl"
            result = runner.invoke(main, [*args, "synth-corpus", "--labels", "3",
                                          "--turns-per-label", "5", "--output", str(out)])
            assert result.exit_code == 0, result.output
            return out.read_bytes()

        from_file = corpus("--config", str(config))
        assert from_file == corpus("--seed", "5")
        assert from_file != corpus()
        assert corpus("--config", str(config), "--seed", "0") == corpus()

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

    def test_model_fallback_applies_unless_a_flag_overrides_it(self, runner, tmp_path):
        # a low-signal corpus, on which the threshold leaves some turn unlabelled
        corpus, catalog = tmp_path / "corpus.jsonl", tmp_path / "catalog.json"
        result = runner.invoke(main, ["--seed", "3", "synth-corpus", "--labels", "4",
                                      "--turns-per-label", "20", "--signal", "0.3",
                                      "--output", str(corpus), "--catalog-out", str(catalog)])
        assert result.exit_code == 0, result.output
        config = tmp_path / "config.json"
        config.write_text('{"fallback": true}')
        model_path = tmp_path / "model.json"
        result = runner.invoke(main, ["--catalog", str(catalog), "--config", str(config), "train",
                                      str(corpus), "--output", str(model_path)])
        assert result.exit_code == 0, result.output
        turns = [json.loads(line) for line in corpus.read_text().splitlines()]
        keys = ("labels", "probabilities", "low_confidence")

        def participant_records(*flag):
            """predict's participant records under flag, after checking that
            serve answers every turn alike and both echo the same fallback."""
            predict = runner.invoke(main, ["--format", "machine", "predict", str(corpus),
                                           "--model", str(model_path), *flag])
            served = runner.invoke(main, ["serve", "--model", str(model_path), *flag],
                                   input=corpus.read_text())
            assert predict.exit_code == 0 and served.exit_code == 0, predict.output
            records = {(r["conversation_id"], r["turn_index"]): r
                       for r in map(json.loads, predict.stdout.splitlines())}
            replies = [json.loads(line) for line in served.stdout.splitlines()]
            assert len(replies) == len(turns) == len(records)
            for turn, reply in zip(turns, replies):
                record = records[turn["conversation_id"], turn["turn_index"]]
                assert {k: reply[k] for k in keys} == {k: record[k] for k in keys}
            (echo,) = {line for result in (predict, served) for line in result.stderr.splitlines()
                       if line.startswith("# config: ")}
            assert json.loads(echo.removeprefix("# config: "))["fallback"] == (flag == ())
            return [r for r in records.values() if r["speaker"] == "participant"]

        assert all(r["labels"] for r in participant_records())
        assert any(not r["labels"] for r in participant_records("--no-fallback"))

    def test_table_lines_follow_the_machine_records(self, runner, tmp_path):
        # a low-signal corpus with multi-label turns, then a conversation of
        # assistant turns only, whose scoring call takes no rows
        corpus, catalog = tmp_path / "corpus.jsonl", tmp_path / "catalog.json"
        result = runner.invoke(main, ["--seed", "3", "synth-corpus", "--labels", "4",
                                      "--turns-per-label", "20", "--signal", "0.3",
                                      "--multi-label-rate", "0.5",
                                      "--output", str(corpus), "--catalog-out", str(catalog)])
        assert result.exit_code == 0, result.output
        # labels listed against their name order, which the table follows
        labels = json.loads(catalog.read_text())["labels"]
        write_catalog(catalog, reversed(labels))
        model_path = tmp_path / "model.json"
        result = runner.invoke(main, ["--catalog", str(catalog), "train", str(corpus),
                                      "--threshold", "0.7", "--output", str(model_path)])
        assert result.exit_code == 0, result.output
        with corpus.open("a") as out:
            out.writelines(record_line("only-assistant", i, "assistant", 3.0 * i, "reply words")
                           + "\n" for i in range(3))
        reached = set()
        for flag in ("--fallback", "--no-fallback"):
            runs = [runner.invoke(main, [*fmt, "predict", str(corpus), "--model", str(model_path),
                                         flag])
                    for fmt in (["--format", "machine"], [])]
            assert all(run.exit_code == 0 for run in runs), runs[0].output + runs[1].output
            records = [json.loads(line) for line in runs[0].stdout.splitlines()]
            table = runs[1].stdout.splitlines()
            assert len(table) == len(records)
            for line, record in zip(table, records):
                labels = ",".join(sorted(record["labels"])) or "-"
                low = " low-confidence" if record["low_confidence"] else ""
                assert line == (f"{record['conversation_id']}#{record['turn_index']} "
                                f"[{record['speaker']}] {labels}{low}")
                if record["speaker"] == "participant":
                    reached.add((flag, len(record["labels"]), record["low_confidence"]))
            assert table[-3:] == [f"only-assistant#{i} [assistant] -" for i in range(3)]
        # each rule outcome: under the threshold with and without the fallback,
        # one label and several above it
        assert {("--fallback", 1, True), ("--no-fallback", 0, True),
                ("--no-fallback", 1, False), ("--no-fallback", 2, False)} <= reached

    def test_table_id_with_a_newline_keeps_one_line_per_turn(self, runner, tiny_corpus,
                                                              tmp_path):
        transcript, catalog = tiny_corpus
        model = tmp_path / "model.json"
        train = runner.invoke(main, ["--catalog", catalog, "train", transcript,
                                     "--output", str(model)])
        assert train.exit_code == 0, train.output
        speakers = ("participant", "assistant", "participant")
        odd = write_lines(tmp_path / "odd.jsonl", [
            record_line("x\ny#1 [participant] act0", i, speaker, 2.0 * i, "alphaword topic1")
            for i, speaker in enumerate(speakers)])
        result = runner.invoke(main, ["predict", odd, "--model", str(model)])
        assert result.exit_code == 0, result.output
        table = result.stdout.splitlines()
        assert len(table) == 3
        for i, (line, speaker) in enumerate(zip(table, speakers)):
            assert line.startswith(f"x\\ny#1 [participant] act0#{i} [{speaker}] ")

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

    def test_label_without_positives_skipped_with_a_warning(self, runner,
                                                             separable_corpus_files, tmp_path):
        corpus, _ = separable_corpus_files
        catalog = write_catalog(tmp_path / "catalog.json", ["act0", "unused", "act1", "act2"])
        result = runner.invoke(
            main, ["--catalog", catalog, "--format", "machine", "rank-features", corpus],
        )
        assert result.exit_code == 0, result.output
        assert [r["label"] for r in json.loads(result.stdout)["rankings"]] == [
            "act0", "act1", "act2"]
        assert result.stderr.splitlines() == [
            "warning: skipping unused: needs both positive and negative examples"]

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


class TestCollector:
    """Batch commands run with the cyclic garbage collector paused, serve
    keeps it on, and the caller's state is back after every way out."""

    @pytest.fixture(autouse=True)
    def collecting(self):
        gc.enable()
        yield
        gc.enable()

    @pytest.fixture
    def model_path(self, runner, separable_corpus_files, tmp_path):
        corpus, catalog = separable_corpus_files
        model_path = tmp_path / "model.json"
        train = runner.invoke(main, ["--catalog", catalog, "train", corpus,
                                     "--output", str(model_path)])
        assert train.exit_code == 0, train.output
        return str(model_path)

    @staticmethod
    def spy(monkeypatch):
        """gc.isenabled() at each transcript load from here on."""
        seen = []
        real = corpus_mod.load_transcripts
        monkeypatch.setattr(corpus_mod, "load_transcripts",
                            lambda *args: seen.append(gc.isenabled()) or real(*args))
        return seen

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_batch_commands_run_with_it_paused(self, runner, separable_corpus_files, model_path,
                                               tmp_path, monkeypatch, command):
        corpus, catalog = separable_corpus_files
        args = {"train": ["--catalog", catalog, "train", corpus,
                          "--output", str(tmp_path / "again.json")],
                "evaluate": ["--catalog", catalog, "evaluate", corpus, "--folds", "3"],
                "predict": ["predict", corpus, "--model", model_path]}[command]
        seen = self.spy(monkeypatch)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("case", ["success", "malformed-corpus", "missing-model",
                                      "unwritable-output", "broken-pipe", "interrupt"])
    def test_it_is_back_on_after_every_way_out(self, runner, separable_corpus_files, tmp_path,
                                               monkeypatch, case):
        corpus, catalog = separable_corpus_files
        bad = write_lines(tmp_path / "bad.jsonl", ["not json"])
        code, args = {
            "success": (0, ["--catalog", catalog, "stats", corpus]),
            "malformed-corpus": (1, ["--catalog", catalog, "evaluate", bad]),
            "missing-model": (2, ["predict", corpus, "--model", str(tmp_path / "none.json")]),
            "unwritable-output": (2, ["--catalog", catalog, "train", corpus,
                                      "--output", str(tmp_path / "missing" / "m.json")]),
            "broken-pipe": (1, ["--catalog", catalog, "stats", corpus]),
            "interrupt": (1, ["--catalog", catalog, "stats", corpus]),
        }[case]
        raised = {"broken-pipe": BrokenPipeError(errno.EPIPE, "Broken pipe"),
                  "interrupt": KeyboardInterrupt()}.get(case)
        if raised is not None:
            def fail(*_):
                raise raised

            monkeypatch.setattr(corpus_mod, "load_transcripts", fail)
        result = runner.invoke(main, args)
        assert result.exit_code == code, result.output
        assert gc.isenabled()

    def test_a_caller_that_turned_it_off_keeps_it_off(self, runner, separable_corpus_files,
                                                      tmp_path, monkeypatch):
        corpus, catalog = separable_corpus_files
        seen = self.spy(monkeypatch)
        gc.disable()
        result = runner.invoke(main, ["--catalog", catalog, "train", corpus,
                                      "--output", str(tmp_path / "model.json")])
        assert result.exit_code == 0, result.output
        assert seen == [False]
        assert not gc.isenabled()

    def test_serve_keeps_it_on(self, runner, model_path, monkeypatch):
        seen = []
        real = ServeEngine.handle_line
        monkeypatch.setattr(ServeEngine, "handle_line",
                            lambda engine, line: seen.append(gc.isenabled())
                            or real(engine, line))
        requests = "\n".join(json.dumps({"conversation_id": "s", "speaker": speaker,
                                         "timestamp_s": float(i), "text": "act0kw0 filler1"})
                             for i, speaker in enumerate(["participant", "assistant"])) + "\n"
        result = runner.invoke(main, ["serve", "--model", model_path], input=requests)
        assert result.exit_code == 0, result.output
        assert len(result.stdout.splitlines()) == 2
        assert seen == [True, True]
        assert gc.isenabled()


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

    def test_a_grid_checks_each_value_once(self, monkeypatch):
        # 60 x 60 x 60 x 2 = 432,000 points, which a check per point would build
        from speechacts.config import Hyperparams, RunConfig

        grid = {"C": [0.01 * (i + 1) for i in range(60)],
                "tolerance": [1e-6 * (i + 1) for i in range(60)],
                "max_iterations": list(range(1, 61)), "fit_bias": [True, False]}
        calls = []
        check = Hyperparams.__post_init__
        monkeypatch.setattr(Hyperparams, "__post_init__", lambda hp: calls.append(1) or check(hp))
        assert RunConfig(tuning_grid=grid).tuning_grid == grid
        assert 0 < len(calls) <= sum(map(len, grid.values())) + 2
        with pytest.raises(ValueError, match=r"^tolerance must be a finite positive number, "
                                             r"got -1\.0$"):
            RunConfig(tuning_grid={**grid, "tolerance": [*grid["tolerance"], -1.0]})


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


class TestDocumentFiles:
    """Config and catalog files are decoded as strictly as transcript lines,
    each failure one ``error:`` line that names the file; report and corpus
    files are replaced atomically."""

    @pytest.mark.parametrize("option, content, reason", [
        ("--config", "[" * 100_000 + "]" * 100_000, "not valid JSON (nested too deeply)"),
        ("--catalog", '{"labels": ' + "[" * 100_000 + "]" * 100_000 + "}",
         "not valid JSON (nested too deeply)"),
        ("--catalog", '{"labels": ["qa", "qb"], "note": NaN}',
         "not valid JSON ('note': NaN is not a JSON number)"),
        ("--config", b"\xff{}",
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["deep-config", "deep-catalog", "nan-in-catalog", "non-utf8-config"])
    def test_unreadable_document_is_one_error_line(self, runner, tiny_corpus, tmp_path,
                                                   option, content, reason):
        transcript, catalog = tiny_corpus
        document = tmp_path / "document.json"
        if isinstance(content, bytes):
            document.write_bytes(content)
        else:
            document.write_text(content)
        args = ["--catalog", catalog] if option == "--config" else []
        result = runner.invoke(main, [*args, option, str(document), "stats", transcript])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {document}: {reason}\n"
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", ["predict", "serve"])
    @pytest.mark.parametrize("damage, reason", [
        (lambda text: b"\xff" + text.encode(),
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (lambda text: text[: len(text) // 2].encode(), "not valid JSON ("),
        (lambda text: text.replace('"threshold":0.5', '"threshold":0.25').encode(),
         "model file checksum mismatch"),
    ], ids=["non-utf8", "truncated", "tampered"])
    def test_unreadable_model_is_one_error_line(self, runner, tiny_corpus, tmp_path,
                                                command, damage, reason):
        transcript, catalog = tiny_corpus
        model = tmp_path / "model.json"
        train = runner.invoke(main, ["--catalog", catalog, "train", transcript,
                                     "--output", str(model)])
        assert train.exit_code == 0, train.output
        text = model.read_text()
        damaged = damage(text)
        assert damaged != text.encode()
        model.write_bytes(damaged)
        args = {"predict": ["predict", transcript], "serve": ["serve"]}[command]
        result = runner.invoke(main, [*args, "--model", str(model)], input="")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        (error,) = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert error.startswith(f"error: {model}: {reason}")
        assert result.stderr == error + "\n"
        assert "Traceback" not in result.output

    def test_number_past_the_float_range_in_a_model_is_one_error_line(self, tiny_corpus,
                                                                      tmp_path):
        # a bias of 10**400 under a checksum made anew, run as the console
        # script is, where an escaped exception prints a traceback
        transcript, catalog = tiny_corpus
        model = tmp_path / "model.json"
        train = CliRunner().invoke(main, ["--catalog", catalog, "train", transcript,
                                          "--output", str(model)])
        assert train.exit_code == 0, train.output
        payload = json.loads(model.read_text())["payload"]
        next(iter(payload["classifiers"].values()))["bias"] = 10**400
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        model.write_text(json.dumps({"checksum": hashlib.sha256(canonical.encode()).hexdigest(),
                                     "format_version": 2, "payload": payload}))
        result = run_cli("predict", transcript, "--model", model)
        stderr = result.stderr.decode()
        assert result.returncode == 1
        assert "Traceback" not in stderr
        assert [line for line in stderr.splitlines() if line.startswith("error:")] == [
            f"error: {model}: model payload malformed: int too large to convert to float"]

    @pytest.mark.parametrize("command", ["evaluate", "synth-corpus"])
    def test_failed_write_keeps_earlier_file(self, runner, separable_corpus_files, tmp_path,
                                             monkeypatch, command):
        corpus, catalog = separable_corpus_files
        target = tmp_path / "out" / "target.json"
        target.parent.mkdir()
        target.write_text("earlier\n")

        def refuse(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link", src, None, dst)

        monkeypatch.setattr("os.replace", refuse)
        args = {"evaluate": ["--catalog", catalog, "evaluate", corpus, "--folds", "3"],
                "synth-corpus": ["synth-corpus", "--labels", "2", "--turns-per-label", "3"]}
        result = runner.invoke(main, [*args[command], "--output", str(target)])
        assert result.exit_code == 2
        assert result.stderr.splitlines()[-1] == (
            f"error: [Errno {errno.EXDEV}] Invalid cross-device link: {str(target)!r}")
        assert target.read_text() == "earlier\n"
        assert [p.name for p in target.parent.iterdir()] == ["target.json"]

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_unwritable_output_fails_before_the_fit(self, runner, separable_corpus_files,
                                                    tmp_path, monkeypatch, command):
        # the output's directory is probed once the transcripts are read, so
        # a missing one costs no fit and no cross-validation
        corpus, catalog = separable_corpus_files

        def unreached(*args, **kwargs):
            raise AssertionError("fitted for an unwritable --output")

        monkeypatch.setattr("speechacts.cli.train_model", unreached)
        monkeypatch.setattr("speechacts.cli.cross_validate", unreached)
        target = tmp_path / "no_such_dir" / "out.json"
        result = runner.invoke(main, ["--catalog", catalog, command, corpus,
                                      "--output", str(target)])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            f"error: [Errno {errno.ENOENT}] No such file or directory: {str(target)!r}"]
        assert not target.parent.exists()


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

        monkeypatch.setattr("speechacts.cli.serve_stream", broken)
        result = runner.invoke(main, ["serve", "--model", str(model_path)], input="")
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert errors == ["error: [Errno 5] Input/output error"]

    def test_closed_stdout_left_to_click(self, runner, model_path, monkeypatch):
        # a reader that went away early (``serve | head``) is no I/O error
        def closed(*_):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr("speechacts.cli.serve_stream", closed)
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

    @pytest.mark.parametrize("case, content, prefix", [
        pytest.param("validate", "not json\n", "error: ", id="validate"),
        pytest.param("config", "[", "error: ", id="config"),
        pytest.param("model", "{}", "error: ", id="model"),
        pytest.param("train", None, "trained ", id="train"),
        pytest.param("synth-corpus", None, "wrote ", id="synth-corpus"),
    ])
    def test_a_path_with_line_breaks_stays_on_its_line(self, runner, tiny_corpus, tmp_path,
                                                       case, content, prefix):
        # each a line boundary to str.splitlines, escaped where a line names the path
        path = tmp_path / "bad\nna\rme\u2028.json"
        escaped = f"{tmp_path}/bad\\u000ana\\u000dme\\u2028.json"
        if content is not None:
            path.write_text(content)
        transcript, catalog = tiny_corpus
        args = {"validate": ["--catalog", catalog, "validate", str(path)],
                "config": ["--catalog", catalog, "--config", str(path), "stats", transcript],
                "model": ["predict", transcript, "--model", str(path)],
                "train": ["--catalog", catalog, "train", transcript, "--output", str(path)],
                "synth-corpus": ["synth-corpus", "--labels", "2", "--turns-per-label", "2",
                                 "--output", str(path)]}[case]
        result = runner.invoke(main, args)
        assert result.exit_code == (1 if prefix == "error: " else 0), result.output
        lines = result.stderr.splitlines()
        (line,) = [line for line in lines if escaped in line]
        assert line.startswith(prefix)
        assert all(line.startswith(("error: ", "warning: ", "trained ", "wrote "))
                   for line in lines)

    @pytest.mark.parametrize("command", [["train", "--output", "m.json"], ["evaluate"]])
    def test_timestamps_near_the_float_limit_exit_1(self, runner, tiny_corpus, tmp_path, command):
        transcript, catalog = tiny_corpus
        lines = Path(transcript).read_text().splitlines()
        last = json.loads(lines[-2])  # the last participant turn
        lines[-2] = json.dumps({**last, "timestamp_s": 1.5e308})
        lines[-1] = json.dumps({**json.loads(lines[-1]), "timestamp_s": 1.5e308})
        big = write_lines(tmp_path / "big.jsonl", lines)
        assert runner.invoke(main, ["--catalog", catalog, "validate", big]).exit_code == 0
        result = runner.invoke(main, ["--catalog", catalog, command[0], big,
                                      *[str(tmp_path / a) if a.endswith(".json") else a
                                        for a in command[1:]]])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: cannot scale shallow feature ppau_sf")

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
