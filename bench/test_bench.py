"""The benchmark's own checks: each must pass on real outputs and fail on a
deliberately corrupted copy; the open-loop client must time from due times.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import socket
import socketserver
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import loadgen  # noqa: E402
import oracle  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from speechacts import reports  # noqa: E402
from speechacts.classifier import model_from_document, model_to_document, train_model  # noqa: E402
from speechacts.config import Hyperparams, RunConfig  # noqa: E402
from speechacts.corpus import LabelCatalog, modeling_examples, parse_transcripts  # noqa: E402
from speechacts.evaluate import cross_validate  # noqa: E402
from speechacts.serve import ServeEngine  # noqa: E402


@pytest.fixture(scope="module")
def workload():
    """A small study-shaped corpus, its model and the program's outputs."""
    shape = inputs.StudyShape(conversations=3, turns_min=30, turns_max=36)
    text = inputs.StudyText(np.random.default_rng(3))
    records = inputs.study_records(inputs.study_skeleton(shape, 11), text, "t")
    requests = inputs.study_records(inputs.study_skeleton(
        inputs.StudyShape(conversations=2, turns_min=10, turns_max=12), 5), text, "r",
        keep_labels=False)
    catalog = LabelCatalog.default()
    convs = parse_transcripts((json.dumps(r) for r in records), catalog)
    examples = modeling_examples(convs, catalog)
    config = RunConfig(hyperparams=Hyperparams(max_iterations=50))
    model = train_model(examples, catalog, config)
    engine = ServeEngine(model)
    served = []
    for turn in requests:
        line = json.dumps({k: turn[k] for k in ("conversation_id", "speaker", "timestamp_s",
                                                "text")})
        response = json.loads(engine.handle_line(line))
        served.append({"conversation_id": turn["conversation_id"],
                       "turn_index": turn["turn_index"], "speaker": turn["speaker"],
                       **response})
    report = json.loads(reports.metrics_machine(cross_validate(examples, catalog, config)))
    positives, n = run.label_positives(records, inputs.CATALOG)
    return {"model_text": model_to_document(model), "requests": requests, "records": served,
            "report": report, "positives": positives, "n": n}


def test_oracle_matches_program(workload):
    scorer = oracle.ScoringOracle(workload["model_text"])
    assert oracle.check_predictions(scorer, workload["requests"], workload["records"]) == []


def test_oracle_rejects_perturbed_weight(workload):
    doc = json.loads(workload["model_text"])
    payload = doc["payload"]
    # perturb the weight of the first token that a request turn actually uses
    used = {tok for t in workload["requests"] if t["speaker"] == "participant"
            for tok in oracle._TOKEN.findall(t["text"].lower())}
    column = next(i for i, tok in enumerate(payload["vocabulary"]) if tok in used)
    label = next(iter(payload["classifiers"]))
    payload["classifiers"][label]["weights"][column] += 1e-6
    scorer = oracle.ScoringOracle(json.dumps(doc))
    assert oracle.check_predictions(scorer, workload["requests"], workload["records"])


def test_oracle_rejects_wrong_label_set(workload):
    records = copy.deepcopy(workload["records"])
    target = next(r for r in records if r["speaker"] == "participant")
    target["labels"] = sorted(set(target["labels"]) ^ {"statement"})
    scorer = oracle.ScoringOracle(workload["model_text"])
    assert oracle.check_predictions(scorer, workload["requests"], records)


def test_a_command_that_raises_is_counted_as_failed(tmp_path):
    # click re-raises usage errors when it does not exit by itself
    _, _, code, err = pipeline.run_cli(["no-such-command"], tmp_path / "out.txt")
    assert code != 0
    assert "no-such-command" in err


def test_strict_json_rejects_nan():
    with pytest.raises(ValueError):
        oracle.strict_json('{"probabilities": {"a": NaN}}')
    assert oracle.strict_json('{"a": 0.5}') == {"a": 0.5}


def test_cv_report_passes_and_each_corruption_fails(workload):
    args = (workload["positives"], workload["n"], 5)
    report = workload["report"]
    assert oracle.check_cv_report(report, *args) == []

    bad_avg = copy.deepcopy(report)
    bad_avg["avg_total"]["precision"] += 1e-6
    assert oracle.check_cv_report(bad_avg, *args)

    moved = copy.deepcopy(report)
    position = next(i for i, r in enumerate(report["rows"]) if r["support"] >= 1)
    moved["folds"][0][position]["support"] += 2
    moved["folds"][1][position]["support"] -= 2
    assert any("within 1" in p for p in oracle.check_cv_report(moved, *args))

    lost = copy.deepcopy(report)
    lost["folds"][0][position]["support"] -= 1
    assert any("sum to" in p for p in oracle.check_cv_report(lost, *args))

    weak = copy.deepcopy(report)
    for row in weak["rows"]:
        row["f_measure"] = 0.01
    total = sum(r["support"] for r in weak["rows"])
    weak["avg_total"]["f_measure"] = sum(0.01 * r["support"] for r in weak["rows"]) / total
    assert any("prevalence" in p for p in oracle.check_cv_report(weak, *args))


def test_prevalence_floor_by_hand():
    # one label on half the turns, one on a quarter: F = 2p/(1+p) each
    floor = oracle.prevalence_floor({"a": 50, "b": 25}, 100)
    assert floor == pytest.approx((50 * (2 * 0.5 / 1.5) + 25 * (2 * 0.25 / 1.25)) / 75)


def _served_stream(workload):
    stream = run.ServeStream(inputs.by_conversation(workload["requests"]), 2, 2)
    requests = stream.take(len(workload["requests"]))
    engine = ServeEngine(model_from_document(workload["model_text"]))
    responses = [engine.handle_line(r.line.decode()).encode() for r in requests]
    phase = loadgen.PhaseResult([], [], responses)
    batch = {(r["conversation_id"], r["turn_index"]): r for r in workload["records"]}
    return stream, {"all": phase}, batch


def test_serve_check_passes_and_catches_a_batch_mismatch(workload):
    stream, phases, batch = _served_stream(workload)
    assert run.check_serve(workload["model_text"], stream, phases, batch, []) == []
    key = next(k for k, r in batch.items() if r["speaker"] == "participant")
    batch[key] = dict(batch[key], low_confidence=not batch[key]["low_confidence"])
    assert any("batch" in p for p in
               run.check_serve(workload["model_text"], stream, phases, batch, []))


def test_serve_check_rejects_non_strict_json(workload):
    stream, phases, batch = _served_stream(workload)
    responses = phases["all"].responses
    i = next(i for i, (cid, t) in enumerate(stream.sent) if t["speaker"] == "participant")
    responses[i] = responses[i].replace(b"0.", b"NaN, \"x\": 0.", 1)
    assert any("strict JSON" in p for p in
               run.check_serve(workload["model_text"], stream, phases, batch, []))


def test_stream_keeps_each_conversation_in_order_on_one_connection(workload):
    stream = run.ServeStream(inputs.by_conversation(workload["requests"]), 2, 3)
    sent = stream.take(3 * len(workload["requests"]))  # replays the source twice
    conn_of, last_index = {}, {}
    for (cid, turn), req in zip(stream.sent, sent):
        assert conn_of.setdefault(cid, req.conn) == req.conn
        assert turn["turn_index"] == last_index.get(cid, -1) + 1
        last_index[cid] = turn["turn_index"]
    assert {cid.partition("~")[2] for cid in conn_of} == {"", "1", "2"}


# ---------------------------------------------------------------- open loop


class _StubHandler(socketserver.StreamRequestHandler):
    """Answers each line after a fixed delay; one line stalls for longer."""

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def handle(self):
        for raw in self.rfile:
            n = int(raw)
            time.sleep(self.server.stall_s if n == self.server.stall_at else self.server.delay_s)
            self.wfile.write(b'{"n": %d}\n' % n)


@pytest.fixture
def stub():
    server = socketserver.TCPServer(("127.0.0.1", 0), _StubHandler)
    server.delay_s, server.stall_s, server.stall_at = 0.002, 0.0, -1
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _lines(n):
    return [loadgen.Request(0, b"%d\n" % i) for i in range(n)]


def test_latency_covers_the_known_service_delay(stub):
    with loadgen.Client(stub.server_address, 1) as client:
        result = client.run(_lines(40), rate=100.0)
    assert result.missing == 0
    assert [json.loads(r)["n"] for r in result.responses] == list(range(40))
    assert 2.0 <= statistics.median(result.latencies_ms) < 6.0
    assert loadgen.percentile(result.late_ms, 90) < 1.0


def test_a_stall_is_charged_to_every_request_queued_behind_it(stub):
    # 100 ms stall at request 5 of a 100/s schedule: requests 6..14 fall due
    # during the stall; timed from their due times they all wait for it
    stub.stall_at, stub.stall_s = 5, 0.100
    with loadgen.Client(stub.server_address, 1) as client:
        result = client.run(_lines(30), rate=100.0)
    lat = result.latencies_ms
    assert lat[5] >= 100.0
    assert lat[6] >= 90.0 and lat[10] >= 50.0
    assert sum(1 for v in lat if v > 20.0) >= 8
    assert loadgen.percentile(result.late_ms, 90) < 1.0  # the client itself kept time


def test_lateness_of_the_client_is_reported_and_counted(stub):
    with loadgen.Client(stub.server_address, 1) as client:
        result = client.run(_lines(10), rate=100.0, start_at=time.perf_counter() - 0.050)
    assert result.late_ms[0] >= 50.0
    assert result.latencies_ms[0] >= 50.0  # timed from the due time, not the send


# ---------------------------------------------------------------- tracing


def test_self_time_excludes_traced_children():
    tracer = tracing.Tracer()

    def child():
        time.sleep(0.02)

    traced_child = tracer.wrap("m.child", child)

    def parent():
        time.sleep(0.01)
        traced_child()

    tracer.wrap("m.parent", parent)()
    calls, total, self_ns, _ = tracer.aggregates[("-", "m.parent")]
    assert calls == 1
    assert total >= 30e6
    assert 10e6 <= self_ns < 20e6
    names = {span[2]: span for span in tracer.spans}
    assert names["m.child"][1] == names["m.parent"][0]  # parent link


# ---------------------------------------------------------------- speed probe


def test_window_takes_out_probe_time_and_scales_by_mean_speed():
    ref = speed.REFERENCE_S
    # two samples inside the window: one at the reference speed, one at half
    samples = [(0.5, 0.01, ref), (1.0, 0.01, ref), (1.5, 0.02, 2 * ref), (3.5, 0.01, ref)]
    wall, factor, probe_cpu = speed.window(samples, 0.8, 2.0)
    assert wall == pytest.approx(1.2 - 0.03)
    assert factor == pytest.approx((1.0 + 0.5) / 2)
    assert probe_cpu == pytest.approx(3 * ref)
    assert speed.window(samples, 2.0, 3.0) == (pytest.approx(1.0), 1.0, 0.0)


def test_probe_samples_while_entered_and_stops_after():
    with speed.Probe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    taken = len(probe.samples)
    assert taken >= 5
    time.sleep(0.05)
    assert len(probe.samples) == taken
    assert all(cpu > 0 for _, _, cpu in probe.samples)
