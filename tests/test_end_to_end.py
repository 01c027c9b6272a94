"""The command line run as real processes, through the one runner in
conftest (the installed ``speechacts`` script when it is on PATH): serve on
stdin and over TCP answers each line with the body of its ``predict``
record, byte for byte; a model's fallback holds with and without the flag;
and a failing command exits with its code and one ``error:`` line, never a
traceback. Each corpus and model is built once per module."""

import hashlib
import json
import re
import signal
import socket
import subprocess
from dataclasses import dataclass
from pathlib import Path

import pytest

from conftest import cli_process, run_cli

LEAD = ("conversation_id", "turn_index", "speaker")


def ok(*args, input=b""):
    """The CLI run on args, which must exit 0 without a traceback."""
    result = run_cli(*args, input=input)
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert b"Traceback" not in result.stderr
    return result


@dataclass
class Workload:
    dir: Path
    corpus: Path
    catalog: Path
    model: Path
    records: bytes  # predict --format machine over the corpus


def build(tmp_path_factory, name, synth_args, train_args=()):
    """A synthetic corpus, the model trained on it and its predict records."""
    d = tmp_path_factory.mktemp(name)
    corpus, catalog, model = d / "corpus.jsonl", d / "catalog.json", d / "model.json"
    ok(*synth_args, "--output", corpus, "--catalog-out", catalog)
    ok("--catalog", catalog, *train_args, "train", corpus, "--output", model)
    records = ok("--format", "machine", "predict", corpus, "--model", model).stdout
    return Workload(d, corpus, catalog, model, records)


@pytest.fixture(scope="module")
def three_labels(tmp_path_factory):
    return build(tmp_path_factory, "three_labels",
                 ["--seed", 1, "synth-corpus", "--labels", 3, "--turns-per-label", 20])


@pytest.fixture(scope="module")
def weak(tmp_path_factory):
    """A model trained with {"fallback": true} on a corpus where, without the
    fallback, some turn clears no threshold."""
    config = tmp_path_factory.mktemp("weak_config") / "fallback.json"
    config.write_text('{"fallback": true}\n')
    return build(tmp_path_factory, "weak",
                 ["--seed", 3, "synth-corpus", "--labels", 4, "--turns-per-label", 20,
                  "--signal", 0.3], ["--config", config])


@pytest.fixture(params=["three_labels", "weak"])
def workload(request):
    return request.getfixturevalue(request.param)


def assert_predict_bodies(workload, replies):
    """Each reply, to the corpus's lines in order, is byte for byte its turn's
    predict record less the members that lead the record."""
    bodies = {}
    for line in workload.records.decode("ascii").splitlines():
        record = json.loads(line)
        head = json.dumps({key: record[key] for key in LEAD})[:-1] + ", "
        assert line.startswith(head), line
        bodies[record["conversation_id"], record["turn_index"]] = "{" + line[len(head):]
    turns = [json.loads(line) for line in workload.corpus.read_text().splitlines()]
    assert len(turns) == len(bodies)
    assert replies.decode("ascii").splitlines() == [
        bodies[turn["conversation_id"], turn["turn_index"]] for turn in turns]


def long_id_lines(workload):
    """The corpus's first turn under an id of 257 characters, then of 256."""
    turn = json.loads(workload.corpus.read_text().splitlines()[0])
    fields = {key: turn[key] for key in ("speaker", "timestamp_s", "text")}
    return "".join(json.dumps({"conversation_id": cid, **fields}) + "\n"
                   for cid in ("c" * 257, "c" * 256)).encode()


def assert_long_id_replies(replies):
    first, second = map(json.loads, replies.decode("ascii").splitlines())
    assert first == {"error": "conversation_id longer than 256 characters"}
    assert set(second) == {"labels", "probabilities", "low_confidence"}


def unlabelled(records):
    return sum(1 for record in map(json.loads, records.splitlines())
               if record["speaker"] == "participant" and not record["labels"])


def test_predict_table_prints_one_line_per_turn(three_labels):
    table = ok("predict", three_labels.corpus, "--model", three_labels.model).stdout
    assert len(table.splitlines()) == len(three_labels.records.splitlines())


def test_serve_on_stdin_answers_with_the_predict_bodies(workload):
    served = ok("serve", "--model", workload.model, input=workload.corpus.read_bytes())
    assert_predict_bodies(workload, served.stdout)


def test_serve_on_stdin_answers_a_long_id_with_an_error_then_the_next_line(three_labels):
    served = ok("serve", "--model", three_labels.model, input=long_id_lines(three_labels))
    assert_long_id_replies(served.stdout)


@pytest.fixture(scope="module")
def tcp_session(three_labels):
    """One ``serve --port 0`` process sent the corpus, then the long-id lines,
    each whole in one send on a connection of its own (small enough to sit in
    the socket buffers unread), then SIGTERM: the replies on each connection,
    the exit code and stderr."""
    proc = cli_process("serve", "--model", three_labels.model, "--port", 0,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        stderr = b""
        while not (bound := re.search(rb"listening on (\S+):(\d+)", stderr)):
            line = proc.stderr.readline()
            assert line, stderr.decode(errors="replace")
            stderr += line
        replies = []
        for payload in (three_labels.corpus.read_bytes(), long_id_lines(three_labels)):
            with socket.create_connection((bound[1].decode(), int(bound[2])), timeout=60) as sock:
                sock.sendall(payload)
                sock.shutdown(socket.SHUT_WR)
                replies.append(b"".join(iter(lambda: sock.recv(1 << 16), b"")))
        proc.send_signal(signal.SIGTERM)
        stderr += proc.communicate(timeout=60)[1]
    finally:
        proc.kill()
        proc.wait()
    return replies, proc.returncode, stderr


def test_serve_over_tcp_answers_with_the_predict_bodies(tcp_session, three_labels):
    assert_predict_bodies(three_labels, tcp_session[0][0])


def test_serve_over_tcp_answers_a_long_id_with_an_error_then_the_next_line(tcp_session):
    assert_long_id_replies(tcp_session[0][1])


def test_serve_over_tcp_exits_0_on_sigterm(tcp_session):
    _, code, stderr = tcp_session
    assert code == 0, stderr.decode(errors="replace")
    assert b"Traceback" not in stderr


def test_fallback_flag_leaves_a_fallback_model_byte_identical(weak):
    flagged = ok("--format", "machine", "predict", weak.corpus, "--model", weak.model,
                 "--fallback")
    assert flagged.stdout == weak.records


def test_no_fallback_leaves_turns_unlabelled(weak):
    bare = ok("--format", "machine", "predict", weak.corpus, "--model", weak.model,
              "--no-fallback")
    assert unlabelled(weak.records) == 0
    assert unlabelled(bare.stdout) > 0


def checksummed(payload):
    """A model file in the writer's layout holding payload under a checksum
    made anew, so only the loader's payload checks can reject it."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(canonical.encode()).hexdigest()
    return f'{{"checksum":"{checksum}","format_version":2,"payload":{canonical}}}\n'


@pytest.fixture(scope="module")
def bad_inputs(three_labels):
    """Next to the 3-label corpus: a line that is not JSON, a model file that
    is not UTF-8, three checksummed model files whose classifiers are a list,
    whose vocabulary repeats a token (each classifier one weight short, to
    fit the distinct tokens) and whose first weight is null, and a valid
    transcript whose last participant turn and those after it are timed near
    the float limit, so the pause feature's spread overflows."""
    d = three_labels.dir
    (d / "bad.jsonl").write_text("not json\n")
    (d / "bad_model.json").write_bytes(b"\xff{}")
    payload = json.loads(three_labels.model.read_text())["payload"]
    listed = {**payload, "classifiers": list(payload["classifiers"].values())}
    (d / "list_model.json").write_text(checksummed(listed))
    repeated = json.loads(json.dumps(payload))
    repeated["vocabulary"][-1] = repeated["vocabulary"][0]
    for blob in repeated["classifiers"].values():
        del blob["weights"][0]
    (d / "repeated_token_model.json").write_text(checksummed(repeated))
    next(iter(payload["classifiers"].values()))["weights"][0] = None
    (d / "null_weight_model.json").write_text(checksummed(payload))
    turns = [json.loads(line) for line in three_labels.corpus.read_text().splitlines()]
    last = max(i for i, turn in enumerate(turns) if turn["speaker"] == "participant")
    for turn in turns[last:]:
        turn["timestamp_s"] = 1.5e308
    (d / "big_times.jsonl").write_text("".join(json.dumps(turn) + "\n" for turn in turns))
    return d


def test_validate_accepts_timestamps_near_the_float_limit(three_labels, bad_inputs):
    ok("--catalog", three_labels.catalog, "validate", bad_inputs / "big_times.jsonl")


# each command's arguments, in which {dir} is the bad inputs' directory, its
# exit code and the pattern its one stderr line matches
FAILURES = {
    "validate-not-json": (["validate", "{dir}/bad.jsonl"], 1, r"error: {dir}/bad\.jsonl:1:"),
    "train-unwritable": (["--catalog", "{dir}/catalog.json", "train", "{dir}/corpus.jsonl",
                          "--output", "{dir}/missing/m.json"], 2,
                         r"error: .*No such file or directory: '{dir}/missing/m\.json'"),
    "predict-not-utf8-model": (["predict", "{dir}/corpus.jsonl", "--model",
                                "{dir}/bad_model.json"], 1, r"error: {dir}/bad_model\.json: "),
    **{f"{command}-{name}-model": ([command, *head, "--model", f"{{dir}}/{name}_model.json"], 1,
                                   rf"error: {{dir}}/{name}_model\.json: model payload malformed: "
                                   + reason)
       for command, head in (("predict", ["{dir}/corpus.jsonl"]), ("serve", []))
       for name, reason in (("list", "'list' object has no attribute 'items'$"),
                            ("null_weight", "classifier 'act0' has a weight that is not a finite"),
                            ("repeated_token", "vocabulary tokens must be distinct$"))},
    "train-overflow": (["--catalog", "{dir}/catalog.json", "train", "{dir}/big_times.jsonl",
                        "--output", "{dir}/big_model.json"], 1, r"error: .*ppau_sf"),
    "evaluate-overflow": (["--catalog", "{dir}/catalog.json", "evaluate",
                           "{dir}/big_times.jsonl"], 1, r"error: .*ppau_sf"),
}


@pytest.mark.parametrize("case", FAILURES)
def test_failure_exits_with_its_code_and_an_error_line(bad_inputs, case):
    args, code, first_line = FAILURES[case]
    result = run_cli(*[arg.format(dir=bad_inputs) for arg in args])
    stderr = result.stderr.decode(errors="replace")
    assert result.returncode == code, stderr
    [line] = stderr.splitlines()
    assert re.match(first_line.format(dir=re.escape(str(bad_inputs))), line)
    assert "Traceback" not in stderr
