import contextlib
import copy
import dataclasses
import functools
import io
import json
import re
import signal
import socket
import socketserver
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule)

from speechacts import classifier, serve
from speechacts.classifier import label_positions, predict_conversation, save_model, train_model
from speechacts.cli import main
from speechacts.config import RunConfig
from speechacts.corpus import (MAX_CONVERSATION_ID, SPEAKERS, TIMESTAMP_ERROR, modeling_examples,
                               serialize_transcripts)
from speechacts.featurize import SLEN_SCOPES, ContextState, ScalingParams
from speechacts.serve import MAX_LINE_BYTES, ServeEngine, ServeServer, serve_stream
from speechacts.synth import SynthSpec, synth_catalog, synth_corpus

from conftest import cli_process, make_conversation, run_cli


@functools.cache
def trained_model():
    spec = SynthSpec(n_labels=3, turns_per_label=15, signal=1.0, seed=5)
    conversations = synth_corpus(spec)
    catalog = synth_catalog(spec)
    examples = modeling_examples(conversations, catalog)
    return train_model(examples, catalog, RunConfig(seed=5))


@pytest.fixture(scope="module")
def model():
    return trained_model()


def batch_answers(model, conv):
    """Batch prediction's answer to each turn of conv, as the dict a reply
    decodes to: its labels by the labelling rule, its probabilities and its
    low-confidence flag; None for a turn that is not scored."""
    names = model.catalog.labels
    answers = []
    for row in predict_conversation(model, conv):
        if row is None:
            answers.append(None)
            continue
        chosen, low_confidence = label_positions(model, row)
        answers.append({"labels": [names[j] for j in chosen],
                        "probabilities": dict(zip(names, row)), "low_confidence": low_confidence})
    return answers


def zero_pause_model(model):
    """model with every pause weight 0.0 and a pause std of 0.25, so a pause
    near the float limit scales to +inf, and inf * 0.0 makes each label's
    probability NaN."""
    classifiers = {name: dataclasses.replace(clf, weights=np.append(clf.weights[:-1], 0.0))
                   for name, clf in model.classifiers.items()}
    scaling = ScalingParams(model.scaling.means, model.scaling.stds[:-1] + (0.25,))
    return dataclasses.replace(model, classifiers=classifiers, scaling=scaling)


def request_line(cid, speaker, ts, text):
    return json.dumps(
        {"conversation_id": cid, "speaker": speaker, "timestamp_s": ts, "text": text}
    )


def strict_loads(line):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(line, parse_constant=reject)


# request lines that once escaped handle_line as OverflowError, ValueError
# and RecursionError: a 401-digit timestamp, an integer past the 4,300-digit
# conversion limit, and nesting deeper than the recursion limit
HUGE_TIMESTAMP = request_line("s1", "participant", 0, "act0kw0").replace(
    '"timestamp_s": 0', '"timestamp_s": 1' + "0" * 400
)
HUGE_INTEGER = request_line("s1", "participant", 0.0, "act0kw0")[:-1] + ', "n": ' + "1" * 4400 + "}"
DEEP_NESTING = "[" * 200000
CRASH_LINES = [HUGE_TIMESTAMP, HUGE_INTEGER, DEEP_NESTING]
# a stray byte, and a request whose text holds a Latin-1 byte; then a valid request
NOT_UTF8 = [b"\xff\xfe not utf-8",
            b'{"conversation_id": "s1", "speaker": "participant", "timestamp_s": 0.0, '
            b'"text": "caf\xe9"}']
VALID = request_line("s1", "participant", 1.0, "act0kw0 words").encode("ascii")
# speakers whose full repr once came back in the error reply
HUGE_SPEAKERS = ["x" * 1_000_000, ["participant"] * 200_000]


def padded_request(cid, ts, size):
    """A participant request line of exactly size bytes, newline excluded."""
    line = request_line(cid, "participant", ts, "act0kw0 ").encode("ascii")
    return line[:-2] + b"a" * (size - len(line)) + line[-2:]


def assert_long_line_skipped(replies):
    """Replies to LONG_LINES: the line at the cap is served, the one past it
    is refused without touching the session, and the connection goes on."""
    assert len(replies) == 3
    assert "labels" in replies[0]
    assert set(replies[1]) == {"error"} and "longer than" in replies[1]["error"]
    assert "labels" in replies[2]  # at 5.0 s, after the refused line's 9.0 s


# a line at the cap, one byte past it (at a later timestamp), then a valid line
LONG_LINES = [padded_request("long", 1.0, MAX_LINE_BYTES),
              padded_request("long", 9.0, MAX_LINE_BYTES + 1),
              request_line("long", "participant", 5.0, "act0kw0").encode("ascii")]


@pytest.fixture(scope="module")
def tcp_server(model):
    server = ServeServer(("127.0.0.1", 0), ServeEngine(model))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def read_all(sock):
    data = b""
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return data
        data += chunk


@contextlib.contextmanager
def running_server(engine):
    server = ServeServer(("127.0.0.1", 0), engine)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def wait_for_threads(count):
    """Wait until no more than count threads are alive, so a connection's
    handler thread has ended and freed its slot."""
    deadline = time.monotonic() + 10
    while threading.active_count() > count and time.monotonic() < deadline:
        time.sleep(0.01)


def roundtrip(server, lines):
    """The reply lines to lines, sent on one new connection."""
    with socket.create_connection(server.server_address, timeout=10) as sock:
        sock.sendall("".join(line + "\n" for line in lines).encode())
        sock.shutdown(socket.SHUT_WR)
        return read_all(sock).decode().splitlines()


class ChunkedReader:
    """A binary stream whose read1 returns the given chunks one at a time, as
    a socket or a terminal does, then b"" for good."""

    def __init__(self, chunks):
        self.chunks = iter(chunks)
        self.reads = 0

    def read1(self, size=-1):
        self.reads += 1
        return next(self.chunks, b"")


class WriteLog:
    """A binary stream that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        pass


class TestEngine:
    @pytest.mark.parametrize("line", CRASH_LINES, ids=["timestamp", "integer", "nesting"])
    def test_crash_line_answered_session_unchanged(self, model, line):
        engine = ServeEngine(model)
        err = strict_loads(engine.handle_line(line))
        assert set(err) == {"error"}
        if line is HUGE_TIMESTAMP:
            assert err["error"] == TIMESTAMP_ERROR
        got = strict_loads(engine.handle_line(request_line("s1", "participant", 5.0, "act1kw1")))
        conv = make_conversation("s1", [("participant", 5.0, "act1kw1", [])])
        expect = batch_answers(model, conv)[0]
        assert got["probabilities"] == pytest.approx(expect["probabilities"])

    def test_first_request_valid_response(self, model):
        engine = ServeEngine(model)
        out = json.loads(engine.handle_line(request_line("s1", "participant", 0.0, "act0kw1 hello")))
        assert set(out) == {"labels", "probabilities", "low_confidence"}
        assert set(out["probabilities"]) == set(model.catalog.labels)

    def test_malformed_line_then_normal(self, model):
        engine = ServeEngine(model)
        err = json.loads(engine.handle_line("{broken"))
        assert "error" in err
        ok = json.loads(engine.handle_line(request_line("s1", "participant", 0.0, "act1kw2")))
        assert "labels" in ok

    def test_missing_fields_error(self, model):
        engine = ServeEngine(model)
        assert "error" in json.loads(engine.handle_line(json.dumps({"speaker": "participant"})))
        assert "error" in json.loads(
            engine.handle_line(request_line("s1", "moderator", 0.0, "hi"))
        )
        assert "error" in json.loads(engine.handle_line(request_line("s1", "participant", -2.0, "hi")))

    def test_assistant_updates_history_but_unclassified(self, model):
        engine = ServeEngine(model)
        out = json.loads(engine.handle_line(request_line("s1", "assistant", 0.0, "some reply")))
        assert out == {"labels": [], "probabilities": {}, "low_confidence": False}
        # history advanced: participant at t=6 sees ppau 6 from the assistant turn
        conv = make_conversation(
            "s1", [("assistant", 0.0, "some reply", []), ("participant", 6.0, "act0kw0 words", [])]
        )
        expect = batch_answers(model, conv)[1]
        got = json.loads(engine.handle_line(request_line("s1", "participant", 6.0, "act0kw0 words")))
        assert got["probabilities"] == pytest.approx(expect["probabilities"])

    def test_out_of_order_timestamp_rejected_session_unchanged(self, model):
        engine = ServeEngine(model)
        engine.handle_line(request_line("s1", "participant", 10.0, "act0kw0"))
        err = json.loads(engine.handle_line(request_line("s1", "participant", 3.0, "act0kw0")))
        assert "error" in err
        # the rejected request left no trace: ppau for t=14 still measured from t=10
        conv = make_conversation(
            "s1", [("participant", 10.0, "act0kw0", []), ("participant", 14.0, "act1kw1 more", [])]
        )
        expect = batch_answers(model, conv)[1]
        got = json.loads(engine.handle_line(request_line("s1", "participant", 14.0, "act1kw1 more")))
        assert got["probabilities"] == pytest.approx(expect["probabilities"])

    @pytest.mark.parametrize("speaker", HUGE_SPEAKERS, ids=["string", "list"])
    def test_huge_speaker_reply_bounded_session_unchanged(self, model, speaker):
        engine = ServeEngine(model)
        engine.handle_line(request_line("s1", "participant", 10.0, "act0kw0"))
        reply = engine.handle_line(request_line("s1", speaker, 12.0, "act0kw0"))
        assert len(reply.encode()) < 200
        assert "speaker" in strict_loads(reply)["error"]
        conv = make_conversation(
            "s1", [("participant", 10.0, "act0kw0", []), ("participant", 14.0, "act1kw1 more", [])]
        )
        expect = batch_answers(model, conv)[1]
        got = json.loads(engine.handle_line(request_line("s1", "participant", 14.0, "act1kw1 more")))
        assert got["probabilities"] == pytest.approx(expect["probabilities"])

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_rejected_session_unchanged(self, model, constant):
        engine = ServeEngine(model)
        engine.handle_line(request_line("s1", "participant", 10.0, "act0kw0"))
        line = request_line("s1", "participant", 12.0, "act0kw0")[:-1] + f', "x": [{constant}]}}'
        err = strict_loads(engine.handle_line(line))
        assert err == {"error": f"not valid JSON ('x': {constant} is not a JSON number)"}
        conv = make_conversation(
            "s1", [("participant", 10.0, "act0kw0", []), ("participant", 14.0, "act1kw1 more", [])]
        )
        expect = batch_answers(model, conv)[1]
        got = strict_loads(engine.handle_line(request_line("s1", "participant", 14.0, "act1kw1 more")))
        assert got["probabilities"] == pytest.approx(expect["probabilities"])

    @pytest.mark.parametrize("literal", ["1e999", "-1e999"])
    @pytest.mark.parametrize("field", ["x", "timestamp_s"])
    def test_float_out_of_range_rejected_session_unchanged(self, model, field, literal):
        engine = ServeEngine(model)
        engine.handle_line(request_line("s1", "participant", 10.0, "act0kw0"))
        line = request_line("s1", "participant", 12.0, "act0kw0")[:-1] + ', "x": 0}'
        line = line.replace(f'"{field}": ' + ("12.0" if field == "timestamp_s" else "0"),
                            f'"{field}": {literal}')
        err = strict_loads(engine.handle_line(line))
        assert err == {"error": f"not valid JSON ('{field}': {literal} is out of range for a float)"}
        conv = make_conversation(
            "s1", [("participant", 10.0, "act0kw0", []), ("participant", 14.0, "act1kw1 more", [])]
        )
        expect = batch_answers(model, conv)[1]
        got = strict_loads(engine.handle_line(request_line("s1", "participant", 14.0, "act1kw1 more")))
        assert got == expect

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamp_rejected_session_unchanged(self, model, bad):
        engine = ServeEngine(model)
        err = strict_loads(engine.handle_line(request_line("s1", "participant", bad, "act0kw0")))
        assert "timestamp_s" in err["error"]
        got = strict_loads(engine.handle_line(request_line("s1", "participant", 5.0, "act1kw1")))
        conv = make_conversation("s1", [("participant", 5.0, "act1kw1", [])])
        expect = batch_answers(model, conv)[0]
        assert got["probabilities"] == pytest.approx(expect["probabilities"])

    def test_conversation_id_past_the_cap_rejected(self, model):
        engine = ServeEngine(model)
        longest = "c" * MAX_CONVERSATION_ID
        ok = strict_loads(engine.handle_line(request_line(longest, "participant", 1.0, "act0kw0")))
        assert "labels" in ok
        err = strict_loads(engine.handle_line(request_line(longest + "c", "participant", 2.0,
                                                           "act0kw0")))
        assert err == {"error": "conversation_id longer than 256 characters"}
        assert list(engine._sessions) == [longest]

    def test_sessions_isolated(self, model):
        engine = ServeEngine(model)
        engine.handle_line(request_line("s1", "participant", 100.0, "act0kw0"))
        # a fresh conversation starts with ppau 0 regardless of other sessions
        conv = make_conversation("s2", [("participant", 50.0, "act2kw3 thing", [])])
        expect = batch_answers(model, conv)[0]
        got = json.loads(engine.handle_line(request_line("s2", "participant", 50.0, "act2kw3 thing")))
        assert got["probabilities"] == pytest.approx(expect["probabilities"])


class TestStreamEquivalence:
    def test_replay_matches_batch(self, model):
        spec = SynthSpec(n_labels=3, turns_per_label=20, signal=1.0, seed=11)
        conversations = synth_corpus(spec)
        engine = ServeEngine(model)
        for conv in conversations:
            batch_of_turn = batch_answers(model, conv)
            for turn in conv.turns:
                streamed = json.loads(
                    engine.handle_line(
                        request_line(conv.conversation_id, turn.speaker, turn.timestamp_s, turn.text)
                    )
                )
                if turn.speaker != "participant":
                    assert streamed["labels"] == []
                    continue
                assert streamed == batch_of_turn[turn.turn_index]

    @pytest.mark.parametrize("scope", SLEN_SCOPES)
    def test_long_session_matches_predict_bitwise(self, tmp_path, scope):
        spec = SynthSpec(n_labels=3, turns_per_label=200, signal=0.8, seed=3,
                         turns_per_conversation=600)
        conversations = synth_corpus(spec)
        catalog = synth_catalog(spec)
        model = train_model(modeling_examples(conversations, catalog), catalog,
                            RunConfig(seed=3, slen_scope=scope))
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        conv = conversations[0]
        assert len(conv.turns) >= 1000
        # repeated timestamps too: every tenth turn shares its predecessor's
        for turn in conv.turns[10::10]:
            turn.timestamp_s = conv.turns[turn.turn_index - 1].timestamp_s
        transcript = tmp_path / "long.jsonl"
        transcript.write_text(serialize_transcripts([conv]), encoding="utf-8")
        predicted = CliRunner().invoke(main, ["--format", "machine", "predict", str(transcript),
                                              "--model", str(model_path)])
        assert predicted.exit_code == 0, predicted.output
        records = [json.loads(line) for line in predicted.stdout.strip().split("\n")]
        assert len(records) == len(conv.turns)

        engine = ServeEngine(model)
        for turn, record in zip(conv.turns, records):
            response = json.loads(engine.handle_line(
                request_line(conv.conversation_id, turn.speaker, turn.timestamp_s, turn.text)))
            assert response == {k: record[k] for k in ("labels", "probabilities",
                                                       "low_confidence")}
        # the session is a handful of numbers, whatever the conversation's length
        context = engine._sessions[conv.conversation_id]
        assert isinstance(context, ContextState)
        for name, value in vars(context).items():
            if isinstance(value, dict):
                assert set(value) <= set(SPEAKERS), name
            else:
                assert isinstance(value, (int, float, str)), name
        assert sum(context.speaker_turns.values()) == len(conv.turns)

    @pytest.mark.parametrize("fallback", [False, True], ids=["no-fallback", "fallback"])
    def test_serve_replies_are_predict_record_bodies_byte_for_byte(self, tmp_path, fallback):
        spec = SynthSpec(n_labels=3, turns_per_label=30, signal=0.5, seed=17)
        conversations = synth_corpus(spec)
        catalog = synth_catalog(spec)
        model = train_model(modeling_examples(conversations, catalog), catalog,
                            RunConfig(seed=17, fallback=fallback))
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        odd = 'id "quoted" \\ \x01 caf\u00e9 \U0001F600'  # escaped in predict's records
        for turn in conversations[0].turns:
            turn.conversation_id = odd
        conversations[0].conversation_id = odd
        transcript = tmp_path / "requests.jsonl"
        transcript.write_text(serialize_transcripts(conversations), encoding="utf-8")
        predicted = CliRunner().invoke(main, ["--format", "machine", "predict", str(transcript),
                                              "--model", str(model_path)])
        assert predicted.exit_code == 0, predicted.output
        records = predicted.stdout.splitlines()

        turns = [turn for conv in conversations for turn in conv.turns]
        requests = "".join(request_line(t.conversation_id, t.speaker, t.timestamp_s, t.text) + "\n"
                           for t in turns)
        stdout = io.BytesIO()
        serve_stream(ServeEngine(model), io.BytesIO(requests.encode()), stdout)
        replies = stdout.getvalue().decode("ascii").splitlines()
        assert len(records) == len(replies) == len(turns)
        for turn, record, reply in zip(turns, records, replies):
            head = json.dumps({"conversation_id": turn.conversation_id,
                               "turn_index": turn.turn_index, "speaker": turn.speaker})[:-1] + ", "
            assert record.startswith(head)
            assert reply == "{" + record[len(head):]
        # both labelling rules are reached: a confident turn, and an unsure
        # one that gets the argmax label or none
        bodies = [json.loads(reply) for reply in replies]
        assert any(body["labels"] and not body["low_confidence"] for body in bodies)
        assert any(body["low_confidence"] and bool(body["labels"]) == fallback for body in bodies)


class TestSessionTable:
    def test_least_recently_used_evicted_at_the_cap(self, model, monkeypatch):
        monkeypatch.setattr(serve, "MAX_SESSIONS", 2)
        engine = ServeEngine(model)
        sent = {}  # per conversation, the lines it sent that were answered

        def send(cid, ts, text="act0kw0 words", speaker="participant"):
            line = request_line(cid, speaker, ts, text)
            reply = engine.handle_line(line)
            assert len(engine._sessions) <= 2
            if "error" not in strict_loads(reply):
                sent.setdefault(cid, []).append(line)
            return reply

        def replayed(cid):
            """The last reply of an engine that saw only cid's lines, so never
            evicted it."""
            alone = ServeEngine(model)
            return [alone.handle_line(line) for line in sent[cid]][-1]

        send("a", 1.0)
        send("b", 2.0, "act1kw1 more words")
        send("a", 3.0, "act2kw0")  # a is now the most recently used
        send("c", 4.0)
        assert list(engine._sessions) == ["a", "c"]  # b, least recently used, is gone

        # malformed requests neither create, evict nor refresh a session
        before = {cid: dict(vars(context)) for cid, context in engine._sessions.items()}
        for line in [request_line("d", "moderator", 5.0, "hi"), "{broken", "[1]",
                     request_line("e", "participant", float("nan"), "act0kw0"),
                     request_line("g" * (MAX_CONVERSATION_ID + 1), "participant", 5.0, "act0kw0"),
                     json.dumps({"conversation_id": "f", "speaker": "participant",
                                 "timestamp_s": 5.0, "text": 7}),
                     request_line("c", "participant", 1.0, "backwards"),
                     request_line("a", "participant", 2.0, "backwards")]:
            assert set(strict_loads(engine.handle_line(line))) == {"error"}
            assert {cid: dict(vars(context))
                    for cid, context in engine._sessions.items()} == before
            assert list(engine._sessions) == ["a", "c"]

        # the evicted conversation starts again from an empty context, which
        # answers differently from b's old one
        line = request_line("b", "participant", 9.0, "act1kw1")
        kept = ServeEngine(model)
        kept.handle_line(sent.pop("b")[0])
        reply = engine.handle_line(line)
        assert reply == ServeEngine(model).handle_line(line)
        assert reply != kept.handle_line(line)
        assert list(engine._sessions) == ["c", "b"]  # a was least recently used

        # the surviving conversation answers as if nothing was ever evicted
        assert send("c", 12.0, "act0kw1 again") == replayed("c")
        line = request_line("a", "participant", 13.0, "act2kw2")
        assert engine.handle_line(line) == ServeEngine(model).handle_line(line)
        assert list(engine._sessions) == ["c", "a"]

    def test_non_finite_score_answered_with_an_error_session_unchanged(self, model, monkeypatch):
        monkeypatch.setattr(serve, "MAX_SESSIONS", 2)
        nan_pause = zero_pause_model(model)
        # every pause scales to +inf, the first turn's 0.0 too
        scaling = ScalingParams(nan_pause.scaling.means[:-1] + (-1.7e308,), nan_pause.scaling.stds)
        nan_always = dataclasses.replace(nan_pause, scaling=scaling)
        for scored, cids in [(nan_pause, ("a",)), (nan_always, ("a", "c"))]:
            engine = ServeEngine(scored)
            for line in [request_line("a", "assistant", 1.0, "act0kw0 words"),
                         request_line("b", "assistant", 2.0, "a reply")]:
                engine.handle_line(line)
            before = {cid: dict(vars(context)) for cid, context in engine._sessions.items()}
            # a known session, and a new one that would evict a
            nan_lines = [request_line(cid, "participant", 1.7e308, "act0kw0") for cid in cids]
            next_line = request_line("a", "assistant", 3.0, "more")
            stdout = io.BytesIO()
            raw = ("\n".join(nan_lines + [next_line]) + "\n").encode()
            assert serve_stream(engine, io.BytesIO(raw), stdout) == len(cids) + 1
            replies = [strict_loads(line) for line in stdout.getvalue().decode("ascii").splitlines()]
            for reply in replies[:-1]:
                assert reply == {"error": "the turn's label probabilities are not finite numbers"}
            assert replies[-1] == {"labels": [], "probabilities": {}, "low_confidence": False}
            # only the last line moved the table, as if the others never came
            replayed = ServeEngine(scored)
            for line in [request_line("a", "assistant", 1.0, "act0kw0 words"),
                         request_line("b", "assistant", 2.0, "a reply"), next_line]:
                replayed.handle_line(line)
            assert list(engine._sessions) == ["b", "a"]
            assert vars(engine._sessions["b"]) == before["b"]
            assert ({cid: vars(c) for cid, c in engine._sessions.items()}
                    == {cid: vars(c) for cid, c in replayed._sessions.items()})
        # the pause model still scores an ordinary participant turn
        assert set(strict_loads(ServeEngine(nan_pause).handle_line(
            request_line("a", "participant", 1.0, "act0kw0")))) == {"labels", "probabilities",
                                                                      "low_confidence"}

    def test_predict_of_a_non_finite_score_exits_1(self, model, tmp_path):
        model_path = tmp_path / "model.json"
        save_model(zero_pause_model(model), model_path)
        conv = make_conversation("s1", [("participant", 1.0, "act0kw0", []),
                                        ("participant", 1.7e308, "act0kw0", [])])
        transcript = tmp_path / "t.jsonl"
        transcript.write_text(serialize_transcripts([conv]), encoding="utf-8")
        result = CliRunner().invoke(main, ["--format", "machine", "predict", str(transcript),
                                           "--model", str(model_path)])
        assert result.exit_code == 1
        assert "not JSON compliant" in result.output

    def test_full_table_of_the_longest_ids_is_bounded(self, model):
        # ids of the longest length in 4-byte characters, the most a key holds
        engine = ServeEngine(model)
        lines = [request_line(f"{i:04d}" + "\U0001F600" * (MAX_CONVERSATION_ID - 4), speaker,
                              1.0, "act0kw0 some words")
                 for i in range(serve.MAX_SESSIONS) for speaker in SPEAKERS]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for line in lines:
                engine.handle_line(line)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(engine._sessions) == serve.MAX_SESSIONS
        assert held < 10 * 2**20

    def test_concurrent_requests_lose_no_update_and_keep_the_cap(self, model, monkeypatch):
        spec = SynthSpec(n_labels=3, turns_per_label=40, signal=1.0, seed=13,
                         turns_per_conversation=20)
        streams = {conv.conversation_id: [request_line(conv.conversation_id, turn.speaker,
                                                       turn.timestamp_s, turn.text)
                                          for turn in conv.turns]
                   for conv in synth_corpus(spec)[:6]}
        sequential = {}
        for cid, stream in streams.items():
            alone = ServeEngine(model)
            sequential[cid] = [alone.handle_line(line) for line in stream]

        def run_threads(targets):
            threads = [threading.Thread(target=target) for target in targets]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)

        def replay(engine):
            """Each conversation's replies, one thread per conversation, and
            the table sizes seen after each reply."""
            replies, sizes = {cid: [] for cid in streams}, []

            def run(cid):
                for line in streams[cid]:
                    replies[cid].append(engine.handle_line(line))
                    sizes.append(len(engine._sessions))

            run_threads([functools.partial(run, cid) for cid in streams])
            return replies, sizes

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            engine = ServeEngine(model)
            replies, _ = replay(engine)
            assert replies == sequential
            assert {cid: sum(context.speaker_turns.values())
                    for cid, context in engine._sessions.items()} == {
                cid: len(stream) for cid, stream in streams.items()}

            # four threads on one conversation: every update lands
            shared = request_line("shared", "assistant", 0.0, "three short words")
            run_threads([lambda: [engine.handle_line(shared) for _ in range(1500)]] * 4)
            context = engine._sessions["shared"]
            assert context.speaker_turns == {"assistant": 6000}
            assert context.speaker_words == {"assistant": 18000}

            monkeypatch.setattr(serve, "MAX_SESSIONS", 4)
            engine = ServeEngine(model)
            replies, sizes = replay(engine)
        finally:
            sys.setswitchinterval(interval)
        assert max(sizes) <= 4 and len(engine._sessions) == 4
        assert all("labels" in strict_loads(reply) for r in replies.values() for reply in r)


class TestStdio:
    def test_round_trip(self, model):
        import io

        lines = [
            request_line("s1", "participant", 0.0, "act0kw0 act0kw1"),
            "",
            request_line("s1", "assistant", 3.0, "reply words"),
            request_line("s1", "participant", 8.0, "act1kw0 stuff"),
        ]
        stdout = io.BytesIO()
        handled = serve_stream(ServeEngine(model), io.BytesIO(("\n".join(lines) + "\n").encode()),
                               stdout)
        out_lines = stdout.getvalue().decode("ascii").strip().split("\n")
        assert handled == 3
        assert len(out_lines) == 3
        assert all("labels" in json.loads(line) for line in out_lines)


    def test_bad_utf8_lines_answered_like_tcp(self, model):
        stdout = io.BytesIO()
        handled = serve_stream(ServeEngine(model), io.BytesIO(b"\n".join(NOT_UTF8 + [VALID])),
                               stdout)
        assert handled == 3
        assert stdout.getvalue().endswith(b"\n")
        replies = [strict_loads(line) for line in stdout.getvalue().split(b"\n")[:-1]]
        assert replies[:2] == [{"error": "request is not valid UTF-8"}] * 2
        assert "labels" in replies[2]

    def test_long_line_answered_and_skipped(self, model):
        stdout = io.BytesIO()
        handled = serve_stream(ServeEngine(model), io.BytesIO(b"\n".join(LONG_LINES) + b"\n"),
                               stdout)
        assert handled == 3
        assert_long_line_skipped([strict_loads(line) for line in stdout.getvalue().splitlines()])

    def test_long_last_line_without_newline(self, model):
        stdout = io.BytesIO()
        stream = io.BytesIO(VALID + b"\n" + b"x" * (3 * MAX_LINE_BYTES))
        assert serve_stream(ServeEngine(model), stream, stdout) == 2
        replies = [strict_loads(line) for line in stdout.getvalue().splitlines()]
        assert "labels" in replies[0] and "longer than" in replies[1]["error"]

    def test_burst_read_at_once_answered_in_one_write(self, model):
        lines = [request_line(f"b{i % 3}", "participant", float(i), "act0kw0 words")
                 for i in range(50)]
        alone = ServeEngine(model)
        out = WriteLog()
        assert serve_stream(ServeEngine(model), io.BytesIO("".join(
            line + "\n" for line in lines).encode()), out) == 50
        (write,) = out.writes
        assert write.decode("ascii").splitlines() == [alone.handle_line(line) for line in lines]

    def test_line_cut_by_a_partial_read_answered_once(self, model):
        # a terminal's read returns half a line at Ctrl-D, then the rest
        line = request_line("tty", "participant", 1.0, "act0kw0 act1kw1 words")
        out = WriteLog()
        reader = ChunkedReader([line[:17].encode(), line[17:].encode() + b"\n"])
        assert serve_stream(ServeEngine(model), reader, out) == 1
        assert out.writes == [(ServeEngine(model).handle_line(line) + "\n").encode("ascii")]

    # strict UTF-8 stdin, and the C locale's stdin, which decodes with surrogateescape
    @pytest.mark.parametrize("env", [{"PYTHONIOENCODING": "utf-8:strict"}, {"LC_ALL": "C"}],
                             ids=["strict", "c-locale"])
    def test_bad_utf8_lines_answered_by_the_command(self, model, tmp_path, env):
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        done = run_cli("serve", "--model", model_path,
                       input=b"\n".join(NOT_UTF8 + [VALID]) + b"\n", env=env)
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        assert b"Traceback" not in done.stderr
        replies = [strict_loads(line) for line in done.stdout.decode("ascii").split("\n")[:-1]]
        assert replies[:2] == [{"error": "request is not valid UTF-8"}] * 2
        assert len(replies) == 3 and "labels" in replies[2]


class TestTcp:
    def test_line_protocol_over_socket(self, model):
        server = ServeServer(("127.0.0.1", 0), ServeEngine(model))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.server_address) as sock:
                payload = (
                    request_line("t1", "participant", 0.0, "act0kw0 words")
                    + "\n"
                    + request_line("t1", "participant", 5.0, "act2kw1 words")
                    + "\n"
                )
                sock.sendall(payload.encode("utf-8"))
                sock.shutdown(socket.SHUT_WR)
                data = b""
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            responses = [json.loads(line) for line in data.decode().strip().split("\n")]
            assert len(responses) == 2
            assert all("labels" in r for r in responses)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_bad_utf8_line_answered_connection_kept(self, model):
        server = ServeServer(("127.0.0.1", 0), ServeEngine(model))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.server_address) as sock:
                valid = request_line("u1", "participant", 0.0, "act0kw0 words")
                sock.sendall(b"\xff\xfe not utf-8\n" + valid.encode("utf-8") + b"\n")
                sock.shutdown(socket.SHUT_WR)
                data = b""
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            responses = [strict_loads(line) for line in data.decode().strip().split("\n")]
            assert responses[0] == {"error": "request is not valid UTF-8"}
            assert len(responses) == 2 and "labels" in responses[1]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_crash_lines_answered_connection_kept(self, model):
        server = ServeServer(("127.0.0.1", 0), ServeEngine(model))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.server_address) as sock:
                valid = request_line("u1", "participant", 0.0, "act0kw0 words")
                sock.sendall("\n".join(CRASH_LINES + [valid, ""]).encode("utf-8"))
                sock.shutdown(socket.SHUT_WR)
                data = read_all(sock)
            responses = [strict_loads(line) for line in data.decode().strip().split("\n")]
            assert len(responses) == 4
            assert all(set(r) == {"error"} for r in responses[:3])
            assert "labels" in responses[3]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_long_line_answered_connection_kept(self, tcp_server):
        with socket.create_connection(tcp_server.server_address) as sock:
            sock.sendall(b"\n".join(LONG_LINES) + b"\n")
            sock.shutdown(socket.SHUT_WR)
            data = read_all(sock)
        assert_long_line_skipped([strict_loads(line) for line in data.decode().splitlines()])

    def test_sigterm_exits_cleanly(self, model, tmp_path):
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        proc = cli_process("serve", "--model", model_path, "--port", 0,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            stderr = b""
            while b"listening on" not in stderr:
                line = proc.stderr.readline()
                assert line, stderr.decode(errors="replace")
                stderr += line
            proc.send_signal(signal.SIGTERM)
            rest = proc.communicate(timeout=30)[1]
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0, rest.decode(errors="replace")
        assert b"Traceback" not in rest

    def test_connections_past_the_cap_refused_until_one_closes(self, model, monkeypatch):
        monkeypatch.setattr(serve, "MAX_CONNECTIONS", 2)
        server = ServeServer(("127.0.0.1", 0), ServeEngine(model))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()

        def served(sock, ts):
            """Whether one request on sock gets a classification reply."""
            sock.sendall((request_line("cap", "participant", ts, "act0kw0") + "\n").encode())
            with sock.makefile("rb") as reader:
                return "labels" in strict_loads(reader.readline())

        held = [socket.create_connection(server.server_address, timeout=10) for _ in range(2)]
        try:
            assert all(served(sock, float(i)) for i, sock in enumerate(held))
            threads = set(threading.enumerate())
            with socket.create_connection(server.server_address, timeout=10) as sock:
                replies = [strict_loads(line) for line in read_all(sock).splitlines()]
            assert replies == [{"error": "too many open connections; try again later"}]
            assert set(threading.enumerate()) <= threads  # no handler thread started

            handlers = threading.active_count()
            held.pop().close()
            deadline = time.monotonic() + 10
            while threading.active_count() >= handlers and time.monotonic() < deadline:
                time.sleep(0.01)  # the closed connection's thread frees its slot as it ends
            held.append(socket.create_connection(server.server_address, timeout=10))
            assert served(held[-1], 5.0)
        finally:
            for sock in held:
                sock.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_interrupt_after_the_handler_thread_started_is_raised(self, model, monkeypatch):
        # SIGINT, or SIGTERM under the CLI, can land in Thread.start after the
        # handler thread has served and freed its slot; the interrupt must
        # still stop the server, not turn into a logged ValueError
        served = threading.Event()
        serve_connection = ServeServer.process_request_thread
        start_thread = socketserver.ThreadingMixIn.process_request

        def serve_then_flag(self, request, client_address):
            try:
                serve_connection(self, request, client_address)
            finally:
                served.set()

        def interrupted_start(self, request, client_address):
            start_thread(self, request, client_address)
            assert served.wait(10)
            raise KeyboardInterrupt

        monkeypatch.setattr(ServeServer, "process_request_thread", serve_then_flag)
        monkeypatch.setattr(socketserver.ThreadingMixIn, "process_request", interrupted_start)
        server = ServeServer(("127.0.0.1", 0), ServeEngine(model))
        try:
            with socket.create_connection(server.server_address, timeout=10) as sock:
                sock.sendall((request_line("k", "participant", 1.0, "act0kw0") + "\n").encode())
                sock.shutdown(socket.SHUT_WR)
                with pytest.raises(KeyboardInterrupt):
                    server.handle_request()
                assert "labels" in strict_loads(read_all(sock).decode())
        finally:
            server.server_close()

    def test_silent_connection_closed_after_the_idle_timeout(self, model, monkeypatch):
        monkeypatch.setattr(serve, "IDLE_TIMEOUT_S", 0.2)
        monkeypatch.setattr(serve, "MAX_CONNECTIONS", 1)
        lines = [request_line("kept", "participant", 1.0, "act0kw0 words"),
                 request_line("kept", "participant", 4.5, "act1kw1 more words")]
        alone = ServeEngine(model)
        expect = [alone.handle_line(line) for line in lines]
        with running_server(ServeEngine(model)) as server:
            idle = threading.active_count()
            with socket.create_connection(server.server_address, timeout=5) as sock:
                sock.sendall((lines[0] + "\n").encode())
                started = time.monotonic()
                replies = read_all(sock).decode().splitlines()  # then silent until EOF
                assert time.monotonic() - started >= 0.15
            assert replies == expect[:1]
            wait_for_threads(idle)
            # the one slot is free again, and the conversation the closed
            # connection began goes on as on one connection
            assert roundtrip(server, lines[1:]) == expect[1:]

    def test_half_sent_line_answered_once_then_closed(self, model, monkeypatch):
        monkeypatch.setattr(serve, "IDLE_TIMEOUT_S", 0.2)
        half = request_line("half", "participant", 1.0, "act0kw0 words").encode()[:30]
        with running_server(ServeEngine(model)) as server:
            with socket.create_connection(server.server_address, timeout=5) as sock:
                sock.sendall(half)  # then silent, the line never ended
                started = time.monotonic()
                replies = read_all(sock).decode("ascii").splitlines()
                assert time.monotonic() - started >= 0.15
        (reply,) = replies
        assert set(strict_loads(reply)) == {"error"}

    def test_half_sent_line_closed_after_one_idle_period(self, model, monkeypatch):
        monkeypatch.setattr(serve, "IDLE_TIMEOUT_S", 0.3)
        half = request_line("half", "participant", 1.0, "act0kw0 words").encode()[:30]
        with running_server(ServeEngine(model)) as server:
            with socket.create_connection(server.server_address, timeout=5) as sock:
                sock.sendall(half)  # then silent, the line never ended
                started = time.monotonic()
                replies = read_all(sock).decode("ascii").splitlines()
                closed = time.monotonic() - started
        assert len(replies) == 1
        assert closed < 1.5 * serve.IDLE_TIMEOUT_S

    def test_reset_connection_ends_without_a_traceback(self, model, monkeypatch, capfd):
        monkeypatch.setattr(serve, "MAX_CONNECTIONS", 1)
        burst = "".join(request_line("reset", "participant", float(i), "act0kw0") + "\n"
                        for i in range(200))
        with running_server(ServeEngine(model)) as server:
            idle = threading.active_count()
            sock = socket.create_connection(server.server_address, timeout=5)
            sock.sendall(burst.encode())
            assert sock.recv(1)  # being answered
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()  # a reset, with replies unread
            wait_for_threads(idle)
            (reply,) = roundtrip(server, [request_line("next", "participant", 0.0, "act0kw0")])
            assert "labels" in strict_loads(reply)
        err = capfd.readouterr().err
        assert "Traceback" not in err and "Exception occurred" not in err

    def test_session_spans_connections(self, model):
        with running_server(ServeEngine(model)) as server:
            roundtrip(server, [request_line("shared", "participant", 0.0, "act0kw0")])
            (out,) = roundtrip(server, [request_line("shared", "participant", 4.5, "act1kw1 extra")])
        conv = make_conversation(
            "shared",
            [("participant", 0.0, "act0kw0", []), ("participant", 4.5, "act1kw1 extra", [])],
        )
        expect = batch_answers(model, conv)[1]
        assert json.loads(out)["probabilities"] == pytest.approx(expect["probabilities"])


FUZZ_CIDS = ("f1", "f2")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
# literals Python's json reads but JSON has not, or that once escaped handle_line
BAD_LITERALS = ["NaN", "-Infinity", "1e999", "-1e999", "1" * 4400, "[" * 3000, "tru"]


@st.composite
def fuzz_lines(draw):
    """Lines for two conversations, timestamps mostly rising: requests, some
    with one field replaced by an arbitrary JSON value or followed by a bad
    literal, and arbitrary text."""
    lines, clock = [], 0.0
    for _ in range(draw(st.integers(1, 12))):
        clock += draw(st.sampled_from([0.0, 0.5, 7.25]))
        request = {
            "conversation_id": draw(st.sampled_from(FUZZ_CIDS)),
            "speaker": draw(st.sampled_from(SPEAKERS)),
            "timestamp_s": clock - draw(st.sampled_from([0.0, 0.0, 0.0, 20.0])),
            "text": draw(st.sampled_from(["act0kw0 act1kw1", "act2kw3 words", "zzz", ""])
                         | st.text(max_size=12)),
        }
        kind = draw(st.sampled_from(["request", "field", "literal", "text"]))
        if kind == "field":
            request[draw(st.sampled_from(sorted(request) + ["x"]))] = draw(JSON_VALUES)
        line = json.dumps(request)
        if kind == "literal":
            line = line[:-1] + ', "x": ' + draw(st.sampled_from(BAD_LITERALS)) + "}"
        elif kind == "text":
            line = draw(st.text())
        lines.append(line)
    return lines


# byte lines for both transports: arbitrary bytes, blank and non-UTF-8 lines,
# requests, and lines at, past and far past the length cap
STREAM_LINES = (
    st.binary(max_size=40).map(lambda b: b.replace(b"\n", b""))
    | st.sampled_from(NOT_UTF8 + LONG_LINES + [VALID, b"", b"  ", b"\r",
                                               b" " * (MAX_LINE_BYTES + 1),
                                               b"x" * (2 * MAX_LINE_BYTES)])
    | fuzz_lines().map(lambda lines: "\n".join(lines).encode())
)


def is_blank(raw: bytes) -> bool:
    try:
        return not raw.decode("utf-8").strip()
    except UnicodeDecodeError:
        return False


class TestFuzz:
    @settings(max_examples=120, deadline=None)
    @given(lines=fuzz_lines())
    def test_one_strict_reply_per_line_and_errors_leave_sessions_unchanged(self, model, lines):
        engine = ServeEngine(model)
        accepted = {cid: [] for cid in FUZZ_CIDS}  # per conversation, lines answered
        for line in lines:
            reply = engine.handle_line(line)
            assert "\n" not in reply
            response = strict_loads(reply)
            if set(response) != {"error"}:
                assert set(response) == {"labels", "probabilities", "low_confidence"}
                accepted.setdefault(json.loads(line)["conversation_id"], []).append(line)
                continue
            # each session's next request is answered as if the error never came
            for cid in list(accepted):
                latest = max((json.loads(a)["timestamp_s"] for a in accepted[cid]), default=0.0)
                probe = request_line(cid, "participant", latest, "act0kw0 act1kw1 probe")
                fresh = ServeEngine(model)
                for previous in accepted[cid]:
                    fresh.handle_line(previous)
                assert engine.handle_line(probe) == fresh.handle_line(probe)
                accepted[cid].append(probe)

        stdout = io.BytesIO()
        handled = serve_stream(ServeEngine(model), io.BytesIO(("\n".join(lines) + "\n").encode()),
                               stdout)
        non_blank = [line for line in "\n".join(lines).split("\n") if line.strip()]
        assert handled == len(non_blank)
        replies = stdout.getvalue().decode("ascii").split("\n")
        assert replies.pop() == "" and len(replies) == handled
        assert all(isinstance(strict_loads(reply), dict) for reply in replies)

    @settings(max_examples=25, deadline=None)
    @given(raw=st.lists(
        st.binary(max_size=40).map(lambda b: b.replace(b"\n", b""))
        | st.sampled_from([request_line("b1", "participant", 1.0, "act0kw0").encode(),
                           b"\xff\xfe", b"  ", b"\r"]),
        min_size=1, max_size=6,
    ))
    def test_arbitrary_bytes_over_one_socket(self, tcp_server, raw):
        with socket.create_connection(tcp_server.server_address) as sock:
            sock.sendall(b"\n".join(raw) + b"\n")
            sock.shutdown(socket.SHUT_WR)
            data = read_all(sock)
        replies = data.decode("ascii").split("\n")
        assert replies.pop() == ""
        assert len(replies) == sum(not is_blank(line) for line in raw)
        assert all(isinstance(strict_loads(reply), dict) for reply in replies)

    @pytest.fixture(scope="class")
    def own_server(self, model):
        with running_server(ServeEngine(model)) as server:
            yield server

    @settings(max_examples=30, deadline=None)
    @given(raw=st.lists(STREAM_LINES, min_size=1, max_size=8), end=st.sampled_from([b"\n", b""]))
    def test_stdin_and_tcp_replies_byte_identical(self, own_server, model, raw, end):
        stream = b"\n".join(raw) + end
        stdout = io.BytesIO()
        handled = serve_stream(ServeEngine(model), io.BytesIO(stream), stdout)
        assert stdout.getvalue().count(b"\n") == handled
        own_server.engine = ServeEngine(model)  # sessions start empty, as on stdin
        with socket.create_connection(own_server.server_address, timeout=30) as sock:
            sock.sendall(stream)
            sock.shutdown(socket.SHUT_WR)
            assert read_all(sock) == stdout.getvalue()

    @settings(max_examples=40, deadline=None)
    @given(raw=st.lists(STREAM_LINES, min_size=1, max_size=6), end=st.sampled_from([b"\n", b""]),
           data=st.data())
    def test_chunk_boundaries_change_no_reply(self, model, raw, end, data):
        stream = b"\n".join(raw) + end
        whole = io.BytesIO()
        handled = serve_stream(ServeEngine(model), io.BytesIO(stream), whole)
        # cuts anywhere, and next to each newline, where a line ends in one
        # chunk or its newline opens the next
        near_newlines = sorted({m.start() + d for m in re.finditer(b"\n", stream)
                                for d in (0, 1) if 0 < m.start() + d < len(stream)})
        cut = st.integers(0, len(stream))
        if near_newlines:
            cut |= st.sampled_from(near_newlines)
        cuts = sorted({c for c in data.draw(st.lists(cut, max_size=16)) if 0 < c < len(stream)})
        bounds = [0, *cuts, len(stream)]
        reader = ChunkedReader([stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a])
        out = WriteLog()
        assert serve_stream(ServeEngine(model), reader, out) == handled
        assert b"".join(out.writes) == whole.getvalue()
        assert len(out.writes) <= reader.reads
        assert all(write.endswith(b"\n") for write in out.writes)


class TestTraceContract:
    """What the benchmark's traced run relies on: it wraps
    ``ServeEngine.handle_line`` on the class and matches one call to each
    request line, by the line text it was given, and it divides
    ``model_to_document``'s output by its calls in ``train``."""

    LINES = [request_line("t1", "participant", 1.0, "act0kw0 words"), "",
             request_line("t2", "assistant", 2.0, "a reply"), "   ", "{broken", "[1]",
             request_line("t1", "participant", 0.5, "backwards"),
             request_line("t2", "participant", 3.0, "act1kw1 act2kw2"), "\t",
             request_line("t1", "assistant", 4.0, "more")]

    @pytest.mark.parametrize("reads", ["one line", "many lines", "cut"])
    def test_one_handle_line_call_per_request_line(self, model, monkeypatch, reads):
        calls = []
        original = ServeEngine.handle_line

        @functools.wraps(original)
        def traced(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(ServeEngine, "handle_line", traced)
        raw = [line.encode() + b"\n" for line in self.LINES]
        stream = b"".join(raw)
        chunks = {"one line": raw, "many lines": [stream[:len(stream) // 2], stream[len(stream) // 2:]],
                  "cut": [stream[i:i + 37] for i in range(0, len(stream), 37)]}[reads]
        engine = ServeEngine(model)
        out = io.BytesIO()
        requests = [line for line in self.LINES if line.strip()]
        assert serve_stream(engine, ChunkedReader(chunks), out) == len(requests)
        assert [(args[0], args[1:], kwargs) for args, kwargs in calls] == [
            (engine, (line,), {}) for line in requests]
        alone = ServeEngine(model)
        assert out.getvalue().decode("ascii").splitlines() == [
            alone.handle_line(line) for line in requests]

    def test_save_model_encodes_once(self, model, monkeypatch, tmp_path):
        calls = []
        original = classifier.model_to_document

        def traced(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(classifier, "model_to_document", traced)
        save_model(model, tmp_path / "model.json")
        assert calls == [(model,)]
        assert (tmp_path / "model.json").read_text() == original(model)


MACHINE_WORDS = ["act0kw0", "act1kw1", "act2kw2", "act0kw1", "words", "more", "x"]


class ServeMachine(RuleBasedStateMachine):
    """One engine under a small session cap, driven by interleaved turns of
    a few conversations and by requests it must refuse, against a model of
    its table: per conversation, the lines accepted since it last entered
    the table, in least-recently-used order.

    The model is :func:`zero_pause_model`'s, so a turn timed near the float
    limit scores NaN in a known session."""

    def __init__(self):
        super().__init__()
        self.model = zero_pause_model(trained_model())
        self.engine = ServeEngine(self.model)
        self.accepted: OrderedDict[str, list[tuple[str, float]]] = OrderedDict()
        self.cids: list[str] = []
        self.saved_cap = serve.MAX_SESSIONS

    @initialize(cap=st.integers(2, 4), conversations=st.integers(3, 5))
    def start(self, cap, conversations):
        serve.MAX_SESSIONS = cap
        self.cids = [f"c{i}" for i in range(conversations)]

    def teardown(self):
        serve.MAX_SESSIONS = self.saved_cap

    def replayed(self, lines):
        """A fresh engine that saw only these lines, and its last reply."""
        fresh = ServeEngine(self.model)
        replies = [fresh.handle_line(line) for line in lines]
        return fresh, replies[-1] if replies else None

    def expect(self, cid, line, seconds):
        """The reply to an accepted line, and the table's model after it."""
        _, reply = self.replayed([old for old, _ in self.accepted.get(cid, [])] + [line])
        assert set(strict_loads(reply)) != {"error"}
        if cid in self.accepted:
            self.accepted.move_to_end(cid)
        elif len(self.accepted) >= serve.MAX_SESSIONS:
            self.accepted.popitem(last=False)
        self.accepted.setdefault(cid, []).append((line, seconds))
        return reply

    def draw_turn(self, data):
        cid = data.draw(st.sampled_from(self.cids))
        last = self.accepted[cid][-1][1] if cid in self.accepted else 0.0
        seconds = last + data.draw(st.sampled_from([0.0, 0.5, 3.0, 40.0]))
        text = " ".join(data.draw(st.lists(st.sampled_from(MACHINE_WORDS), max_size=4)))
        line = request_line(cid, data.draw(st.sampled_from(SPEAKERS)), seconds, text)
        return cid, line, seconds

    def refused(self, request, reply=None):
        """Send a request line (or a decoded request) that must get an
        error, and check that the table did not move."""
        before = [(cid, copy.deepcopy(vars(context)))
                  for cid, context in self.engine._sessions.items()]
        got = (self.engine.handle_request(request) if isinstance(request, dict)
               else self.engine.handle_line(request))
        assert set(strict_loads(got)) == {"error"}
        if reply is not None:
            assert got == reply
        assert [(cid, vars(context)) for cid, context in self.engine._sessions.items()] == before

    @rule(data=st.data())
    def turn(self, data):
        cid, line, seconds = self.draw_turn(data)
        expected = self.expect(cid, line, seconds)
        assert self.engine.handle_line(line) == expected

    @rule(data=st.data(), count=st.integers(1, 3))
    def turns_through_a_stream(self, data, count):
        """A few turns sent as one stream, read in chunks cut at drawn points."""
        lines, expected = [], []
        for _ in range(count):
            cid, line, seconds = self.draw_turn(data)
            lines.append(line)
            expected.append(self.expect(cid, line, seconds))
        stream = "".join(line + "\n" for line in lines).encode()
        cuts = sorted(set(data.draw(st.lists(st.integers(1, len(stream) - 1), max_size=4))))
        bounds = [0, *cuts, len(stream)]
        out = io.BytesIO()
        reader = ChunkedReader([stream[a:b] for a, b in zip(bounds, bounds[1:])])
        assert serve_stream(self.engine, reader, out) == count
        assert out.getvalue().decode("ascii").splitlines() == expected

    @precondition(lambda self: any(lines[-1][1] > 0 for lines in self.accepted.values()))
    @rule(data=st.data())
    def backwards(self, data):
        cid = data.draw(st.sampled_from([cid for cid, lines in self.accepted.items()
                                         if lines[-1][1] > 0]))
        seconds = self.accepted[cid][-1][1] / 2
        self.refused(request_line(cid, data.draw(st.sampled_from(SPEAKERS)), seconds, "act0kw0"),
                     serve._error(f"timestamp_s {seconds} precedes the session's last turn"))

    @rule(line=st.sampled_from(["{broken", "[1]", "null", '"text"', "{}",
                                request_line("c0", "moderator", 1.0, "hi"),
                                request_line("c1", "participant", float("nan"), "act0kw0"),
                                request_line("c2", "participant", -1.0, "act0kw0")]))
    def malformed(self, line):
        self.refused(line)

    @rule(cid=st.sampled_from(["c0", "c1", "c2"]),
          seconds=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    def non_finite_timestamp(self, cid, seconds):
        # no JSON line holds one, since the decoder refuses NaN and Infinity,
        # so the decoded request goes in
        self.refused({"conversation_id": cid, "speaker": "participant", "timestamp_s": seconds,
                      "text": "act0kw0"}, serve._error(TIMESTAMP_ERROR))

    @rule(speaker=st.sampled_from(SPEAKERS))
    def long_id(self, speaker):
        self.refused(request_line("c" * (MAX_CONVERSATION_ID + 1), speaker, 1.0, "act0kw0"),
                     serve._error(f"conversation_id longer than {MAX_CONVERSATION_ID} characters"))

    @precondition(lambda self: self.accepted)
    @rule(data=st.data())
    def non_finite_score(self, data):
        cid = data.draw(st.sampled_from(list(self.accepted)))
        self.refused(request_line(cid, "participant", 1.7e308, "act0kw0"), serve._NOT_FINITE)

    @invariant()
    def table_is_the_reference(self):
        sessions = self.engine._sessions
        assert len(sessions) <= serve.MAX_SESSIONS
        assert list(sessions) == list(self.accepted)
        for cid, lines in self.accepted.items():
            fresh, _ = self.replayed([line for line, _ in lines])
            assert vars(sessions[cid]) == vars(fresh._sessions[cid])


TestServeMachine = ServeMachine.TestCase
TestServeMachine.settings = settings(max_examples=50, stateful_step_count=30, deadline=None)
