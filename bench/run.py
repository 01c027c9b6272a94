"""The speechacts benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload study|narrow --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout, never from an installed copy. A run

1. generates the workload's inputs from ``--seed`` (not timed),
2. runs the batch sequence (load/validate/select, ``evaluate``,
   ``train --tune``, ``train``, ``predict``) in a worker process,
3. starts ``speechacts serve`` over TCP, on one CPU that it shares with
   the client, drives it open loop at a busy fixed rate for 30% of
   ``--seconds``, then saturates it with chunks of a fixed number of
   requests kept in flight and reads its CPU time per chunk,
4. checks every output (scoring oracle, serve/batch equivalence, strict
   JSON, CV-report invariants and the prevalence floor),
5. prints a JSON object as its last line: ``correct``, ``attempted``,
   ``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
   the per-layer metrics, from a run with spans on, with ``--trace 1``.

Every time it reports is scaled to a reference speed of the host by a speed
probe that runs inside the timed process (``speed.py``); the wall times are
among the diagnostics. Generated inputs, outputs and traces go to
``.bench_out/<workload>-<seed>-<trace>``.
See bench/README.md for the metrics, workloads and figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import loadgen  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402

BUSY_RPS = 1000.0
BUSY_SHARE = 0.3  # of --seconds
CAPACITY_CHUNKS = 6  # saturated chunks; their throughputs are diagnostics
CAPACITY_CHUNK = 2000  # requests per chunk
CAPACITY_WINDOW = 16  # requests in flight per connection in the capacity chunks
CONNECTIONS = 4
ACTIVE_CONVERSATIONS = 16  # interleaved at a time on the narrow stream
PREFILL_LINES = 700  # lines per study session sent before the timed phases
COLD_STARTS = 7
# the batch commands in order. Repeats are spread over the run, so that
# their median does not come from one stretch of a machine whose speed
# drifts (see README, "Environment").
SCHEDULE = ["train", "predict", "evaluate", "train", "predict", "tune", "evaluate", "train",
            "predict", "tune"]
SERVER_START_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s", "evaluate_s": "s", "tune_s": "s", "train_s": "s",
    "predict_turns_per_s": "1/s", "cv_precision": "score", "cv_recall": "score",
    "cv_f": "score", "peak_rss_mb": "MB", "serve_rss_mb": "MB",
    "serve_cpu_us_per_request": "us",
}

LAYER_UNITS = {
    "corpus.load_s": "s", "corpus.records": "count",
    "evaluate.stratify_s": "s", "evaluate.stratify_calls": "count", "evaluate.metrics_s": "s",
    "featurize.fit_s": "s", "featurize.matrix_s": "s", "featurize.matrix_cells": "count",
    "featurize.context_s": "s", "featurize.tokenize_calls": "count",
    "balance.smote_s": "s", "balance.synthetic_rows": "count",
    "classifier.fit_s": "s", "classifier.fits": "count", "classifier.loss_evals": "count",
    "classifier.tune_points": "count", "classifier.predict_s": "s", "classifier.save_s": "s",
    "classifier.model_bytes": "bytes", "classifier.load_s": "s",
    "serve.handle_us_p50": "us", "serve.handle_us_p90": "us", "serve.history_scanned": "count",
    "serve.wait_ms_p50": "ms", "serve.sessions": "count", "serve.generator_late_ms": "ms",
}

# layers and the traced functions whose self time they own
LAYER_FUNCTIONS = {
    "corpus": ("corpus.load_transcripts", "corpus.parse_transcripts", "corpus.validate",
               "corpus.modeling_examples", "corpus.select_examples", "corpus.load_catalog"),
    "evaluate.stratify": ("evaluate.stratified_kfold",),
    "evaluate.metrics": ("evaluate.per_label_metrics", "evaluate.average_rows_across_folds",
                         "evaluate.weighted_average"),
    "featurize.fit": ("featurize.fit_features", "featurize.build_vocabulary",
                      "featurize.fit_scaling"),
    "featurize.matrix": ("featurize.feature_matrix", "featurize.vectorize",
                         "featurize.vector_from_parts", "evaluate.featurize_fold"),
    "featurize.context": ("featurize.shallow_features", "featurize.shallow_from_history",
                          "featurize.tokenize"),
    "balance.smote": ("balance.smote_balance", "balance.nearest_neighbors",
                      "balance.synthesize", "balance.derive_seed"),
    "classifier.fit": ("classifier.fit_binary", "classifier.fit_binary_with_trace",
                       "classifier.loss_and_gradient"),
    "classifier.predict": ("classifier.predict_labels", "classifier.predict_proba",
                           "classifier.sigmoid"),
    "classifier.persist": ("classifier.model_to_document", "classifier.save_model",
                           "classifier.model_from_document", "classifier.load_model"),
    "serve": ("serve.ServeEngine.handle_line", "serve.ServeEngine.handle_request"),
}


class BenchError(Exception):
    """A run that cannot produce a result."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- serve stream

class ServeStream:
    """The serve request stream: conversations interleaved line by line.

    ``active`` conversations are in flight at once; when one ends the next
    takes its place. When the source runs out it starts again under fresh
    conversation ids (``<id>~<cycle>``), which replays the same turns into
    new sessions.
    """

    def __init__(self, conversations: list[list[dict]], active: int, connections: int):
        self.source = conversations
        self.active = active
        self.connections = connections
        self.slots: list[tuple[str, list[dict], int, int]] = []  # (cid, turns, pos, conn)
        self.next_conv = 0
        self.cycle = 0
        self.opened = 0
        self.cursor = 0
        self.sent: list[tuple[str, dict]] = []  # (served cid, source turn) in send order

    def _open(self) -> tuple[str, list[dict], int, int]:
        if self.next_conv == len(self.source):
            self.next_conv = 0
            self.cycle += 1
        turns = self.source[self.next_conv]
        self.next_conv += 1
        cid = turns[0]["conversation_id"] + (f"~{self.cycle}" if self.cycle else "")
        conn = self.opened % self.connections
        self.opened += 1
        return (cid, turns, 0, conn)

    def take(self, n: int) -> list[loadgen.Request]:
        out = []
        while len(out) < n:
            while len(self.slots) < self.active:
                self.slots.append(self._open())
            self.cursor %= len(self.slots)
            cid, turns, pos, conn = self.slots[self.cursor]
            turn = turns[pos]
            line = json.dumps({"conversation_id": cid, "speaker": turn["speaker"],
                               "timestamp_s": turn["timestamp_s"], "text": turn["text"]})
            out.append(loadgen.Request(conn, (line + "\n").encode("utf-8")))
            self.sent.append((cid, turn))
            if pos + 1 == len(turns):
                self.slots.pop(self.cursor)
            else:
                self.slots[self.cursor] = (cid, turns, pos + 1, conn)
                self.cursor += 1
        return out


# ---------------------------------------------------------------- processes

def python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


class Server:
    """One ``speechacts serve --port 0`` process under ``serve_launcher.py``:
    pinned to one CPU, with a speed probe, traced or not."""

    def __init__(self, model: Path, out: Path, tag: str, trace: Path | None):
        self.stderr_path = out / f"serve-{tag}.stderr"
        self.speed_path = out / f"speed-serve-{tag}.json"
        cmd = [sys.executable, str(BENCH / "serve_launcher.py"), str(SRC), str(self.speed_path),
               str(trace) if trace else "-", "serve", "--model", str(model), "--port", "0"]
        self.started = time.perf_counter()
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                         stdout=subprocess.DEVNULL, stderr=err,
                                         env=python_env(), cwd=str(ROOT))
        try:
            self.address = self._wait_listening()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self) -> tuple[str, int]:
        deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
        while time.perf_counter() < deadline:
            for line in self.stderr_path.read_text(encoding="utf-8", errors="replace").splitlines():
                if line.startswith("listening on "):
                    host, port = line[len("listening on "):].rsplit(":", 1)
                    return host, int(port)
            if self.proc.poll() is not None:
                raise BenchError(f"serve exited with {self.proc.returncode}: "
                                 f"{self.stderr_path.read_text(errors='replace')[-500:]}")
            time.sleep(0.002)
        raise BenchError("serve did not start listening in time")

    def cpu_seconds(self) -> float:
        """CPU seconds of the server's live threads so far, to the nanosecond
        resolution (``/proc/<pid>/task/*/schedstat``)."""
        total = 0
        for stat in Path(f"/proc/{self.proc.pid}/task").glob("*/schedstat"):
            try:
                total += int(stat.read_text(encoding="ascii").split()[0])
            except (FileNotFoundError, ProcessLookupError):  # a thread that has just exited
                pass
        return total / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM in /proc status")

    def samples(self) -> list[speed.Sample]:
        """The speed probe's samples; the server must have stopped."""
        return speed.read_samples(self.speed_path)

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


# ---------------------------------------------------------------- serve phase

def first_response(server: Server, probe: dict) -> tuple[float, bytes]:
    """The time at which the server's first response came in, and the response."""
    with loadgen.Client(server.address, 1) as client:
        line = (json.dumps(probe) + "\n").encode("utf-8")
        result = client.run([loadgen.Request(0, line)])
    if result.missing:
        raise BenchError("no response to the cold-start probe")
    return time.perf_counter(), result.responses[0]


def error_count(result: loadgen.PhaseResult) -> int:
    return sum(1 for r in result.responses if r is not None and r.startswith(b'{"error"'))


def serve_phase(server: Server, client: loadgen.Client, stream: ServeStream, workload: str,
                seconds: float) -> tuple[dict, list[tuple[float, float, float]]]:
    """Drive the server through its phases; returns them by name, and per
    capacity chunk the server's CPU seconds and the times at which the chunk
    began and ended."""
    phases = {}

    def send(name, n, rate, window=32):
        phases[name] = result = client.run(stream.take(n), rate=rate, window=window)
        if result.missing:
            # later replies would be matched to the wrong requests
            raise BenchError(f"{result.missing} requests of phase {name} got no response")

    if workload == "study":
        send("prefill", PREFILL_LINES * len(stream.source), None)
    send("busy", int(BUSY_RPS * BUSY_SHARE * seconds), BUSY_RPS)
    chunks = []
    for k in range(CAPACITY_CHUNKS):
        cpu_before, start = server.cpu_seconds(), time.perf_counter()
        send(f"capacity{k}", CAPACITY_CHUNK, None, window=CAPACITY_WINDOW)
        chunks.append((server.cpu_seconds() - cpu_before, start, time.perf_counter()))
    return phases, chunks


# ---------------------------------------------------------------- checks

def check_serve(model_text: str, stream: ServeStream, phases: dict, batch: dict,
                probes: list[tuple[dict, bytes]]) -> list[str]:
    """Every response: strict JSON, equal to the oracle and to batch predict."""
    problems = []
    scorer = oracle.ScoringOracle(model_text)
    sent = [(probe["conversation_id"], probe) for probe, _ in probes] + stream.sent
    responses = [raw for _, raw in probes] + [r for p in phases.values() for r in p.responses]
    if len(responses) != len(sent):
        return [f"{len(responses)} responses for {len(sent)} requests"]
    compared = 0
    for (cid, turn), raw in zip(sent, responses):
        where = f"serve {cid}#{turn.get('turn_index', 0)}"
        expected = scorer.observe(cid, turn["speaker"], turn["timestamp_s"], turn["text"])
        try:
            response = oracle.strict_json(raw)
        except ValueError as exc:
            problems.append(f"{where}: not strict JSON ({exc})")
            continue
        if not isinstance(response, dict) or set(response) != {"labels", "probabilities",
                                                               "low_confidence"}:
            problems.append(f"{where}: unexpected response {raw[:200]!r}")
            continue
        problems += scorer.check(expected, response, where)
        record = batch.get((turn["conversation_id"], turn.get("turn_index")))
        if record is not None:
            compared += 1
            if any(record[k] != response[k] for k in ("labels", "probabilities",
                                                      "low_confidence")):
                problems.append(f"{where}: differs from the batch predict record")
        if len(problems) > 20:
            break
    if compared == 0:
        problems.append("no serve response could be compared with batch predict")
    return problems


def label_positives(records: list[dict], labels) -> tuple[dict[str, int], int]:
    wanted = set(labels)
    counts = dict.fromkeys(labels, 0)
    n = 0
    for rec in records:
        chosen = wanted & set(rec["labels"])
        if rec["speaker"] == "participant" and chosen:
            n += 1
            for name in chosen:
                counts[name] += 1
    return counts, n


# ---------------------------------------------------------------- metrics

def load_trace(path: Path) -> tuple[list[dict], dict]:
    spans, aggregates = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "aggregate" in rec:
                aggregates[(rec["phase"], rec["aggregate"])] = rec
            else:
                spans.append(rec)
    return spans, aggregates


def agg_sum(aggregates: dict, names, field: str, phases=None) -> float:
    return sum(rec[field] for (phase, name), rec in aggregates.items()
               if name in names and (phases is None or phase in phases))


def layer_self_times(aggregates: dict, phase: str) -> dict[str, float]:
    return {layer: agg_sum(aggregates, names, "self_s", {phase})
            for layer, names in LAYER_FUNCTIONS.items()}


def layer_metrics(worker_aggs: dict, server_aggs: dict, server_spans: list[dict],
                  stream: ServeStream, phases: dict) -> dict[str, float]:
    aggs = {**worker_aggs, **{("serve", name): rec for (_, name), rec in server_aggs.items()}}
    fn = LAYER_FUNCTIONS
    m = {
        "corpus.load_s": agg_sum(aggs, ("corpus.load_transcripts",), "total_s"),
        "corpus.records": agg_sum(aggs, ("corpus.load_transcripts",), "amount"),
        "evaluate.stratify_s": agg_sum(aggs, fn["evaluate.stratify"], "self_s"),
        "evaluate.stratify_calls": agg_sum(aggs, fn["evaluate.stratify"], "calls"),
        "evaluate.metrics_s": agg_sum(aggs, fn["evaluate.metrics"], "self_s"),
        "featurize.fit_s": agg_sum(aggs, fn["featurize.fit"], "self_s"),
        "featurize.matrix_s": agg_sum(aggs, fn["featurize.matrix"], "self_s"),
        "featurize.matrix_cells": agg_sum(aggs, ("featurize.feature_matrix",), "amount"),
        "featurize.context_s": agg_sum(aggs, fn["featurize.context"], "self_s"),
        "featurize.tokenize_calls": agg_sum(aggs, ("featurize.tokenize",), "calls"),
        "balance.smote_s": agg_sum(aggs, fn["balance.smote"], "self_s"),
        "balance.synthetic_rows": agg_sum(aggs, ("balance.smote_balance",), "amount"),
        "classifier.fit_s": agg_sum(aggs, fn["classifier.fit"], "self_s"),
        "classifier.fits": agg_sum(aggs, ("classifier.fit_binary",), "calls"),
        "classifier.loss_evals": agg_sum(aggs, ("classifier.loss_and_gradient",), "calls"),
        "classifier.tune_points": agg_sum(aggs, ("evaluate.cross_validate",), "calls", {"tune"}),
        "classifier.predict_s": agg_sum(aggs, fn["classifier.predict"], "self_s",
                                        {"predict", "serve"}),
        "classifier.save_s": agg_sum(aggs, ("classifier.model_to_document",
                                            "classifier.save_model"), "total_s"),
        "classifier.model_bytes": agg_sum(aggs, ("classifier.model_to_document",), "amount",
                                          {"train"}) / agg_sum(
            aggs, ("classifier.model_to_document",), "calls", {"train"}),
        "classifier.load_s": agg_sum(aggs, ("classifier.load_model",), "total_s"),
    }
    # match the busy phase's requests to the server's handle_line spans by
    # (conversation, k-th request of that conversation)
    handled: dict[str, list[float]] = {}
    for span in sorted(server_spans, key=lambda s: s["start_us"]):
        if span["name"] == "serve.ServeEngine.handle_line" and "cid" in span:
            handled.setdefault(span["cid"], []).append(span["end_us"] - span["start_us"])
    seen: dict[str, int] = {}
    waits, handle_us = [], []
    offset = 0
    for name, phase in phases.items():
        for i in range(len(phase.responses)):
            cid, turn = stream.sent[offset + i]
            k = seen.get(cid, 0)
            seen[cid] = k + 1
            if name == "busy":
                us = handled[cid][k]
                # only participant turns are classified; the rest are
                # appended to the history in a few microseconds, and with
                # about half of each kind the median would fall between them
                if turn["speaker"] == "participant":
                    handle_us.append(us)
                waits.append(phase.latencies_ms[i] - us / 1e3)
        offset += len(phase.responses)
    requests = agg_sum(aggs, ("serve.ServeEngine.handle_line",), "calls", {"serve"})
    m.update({
        "serve.handle_us_p50": statistics.median(handle_us),
        "serve.handle_us_p90": loadgen.percentile(handle_us, 90),
        "serve.history_scanned": agg_sum(aggs, ("featurize.shallow_from_history",), "amount",
                                         {"serve"}) / requests,
        "serve.wait_ms_p50": statistics.median(waits),
        "serve.sessions": len(handled),
        "serve.generator_late_ms": loadgen.percentile(phases["busy"].late_ms, 90),
    })
    return m


# ---------------------------------------------------------------- main

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "speechacts" / "__init__.py").is_file():
        raise BenchError(f"no speechacts package under {SRC}; run from a checkout's root")
    sys.path.insert(0, str(SRC))
    out = ROOT / ".bench_out" / f"{workload}-{seed}-{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = inputs.make_inputs(workload, seed, out / "inputs")

    spec = {"src": str(SRC), "out": str(out), "corpus": str(wl.corpus),
            "tune_corpus": str(wl.tune_corpus), "requests": str(wl.requests),
            "catalog": str(wl.catalog) if wl.catalog else None, "fold_seed": wl.fold_seed,
            "schedule": SCHEDULE,
            "trace_path": str(out / "trace-batch.jsonl") if trace else None}
    (out / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    log(f"[{workload} seed {seed}] batch phase")
    subprocess.run([sys.executable, str(BENCH / "pipeline.py"), str(out / "spec.json"),
                    str(out / "batch.json")], check=True, env=python_env(), cwd=str(ROOT),
                   timeout=170)
    batch = json.loads((out / "batch.json").read_text(encoding="utf-8"))
    attempted = sum(len(v) for v in batch["commands"].values())
    failed = len(batch["failed"])
    problems = list(batch["failed"])
    needed = [out / name for name in ("model.json", "evaluate.json", "predict.jsonl")]
    if not all(path.exists() for path in needed):
        raise BenchError(f"the batch phase left no outputs to check: {problems}")

    model_path = out / "model.json"
    model_text = model_path.read_text(encoding="utf-8")
    probe_turn = next(t for t in wl.request_records if t["speaker"] == "participant")
    probes, answered = [], []
    servers = []
    log(f"[{workload} seed {seed}] serve phase")
    # the serve phase runs on one CPU: the servers inherit this process's
    # CPU, the probe in each server samples it, and the client's sends
    # interleave with the server's work there
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        for k in range(1 if trace else COLD_STARTS):
            server = Server(model_path, out, str(k), out / "trace-serve.jsonl" if trace else None)
            servers.append(server)
            probe = {"conversation_id": f"coldstart{k}", "speaker": "participant",
                     "timestamp_s": 0.0, "text": probe_turn["text"]}
            at, raw = first_response(server, probe)
            attempted += 1
            answered.append(at)
            probes.append((probe, raw))
            if k < (0 if trace else COLD_STARTS - 1):
                server.stop()
        server = servers[-1]
        stream = ServeStream(wl.serve_conversations,
                             len(wl.serve_conversations) if workload == "study"
                             else ACTIVE_CONVERSATIONS, CONNECTIONS)
        with loadgen.Client(server.address, CONNECTIONS) as client:
            phases, chunks = serve_phase(server, client, stream, workload, seconds)
        serve_rss = server.peak_rss_mb()
        server.stop()
    finally:
        for s in servers:
            s.stop()
    # cold starts and the server's CPU time, scaled to the reference speed
    # by each server's own probe
    cold, cold_wall = [], []
    for s, at in zip(servers, answered):
        wall, factor, _ = speed.window(s.samples(), s.started, at)
        cold.append(wall * factor)
        cold_wall.append(wall)
    chunk_cpu, chunk_cpu_wall = [], []
    for cpu_s, start, end in chunks:
        _, factor, probe_cpu_s = speed.window(server.samples(), start, end)
        chunk_cpu.append((cpu_s - probe_cpu_s) * factor)
        chunk_cpu_wall.append(cpu_s - probe_cpu_s)
    for phase in phases.values():
        attempted += len(phase.responses)
        failed += error_count(phase)

    records = [json.loads(line) for line in
               (out / "predict.jsonl").read_text(encoding="utf-8").splitlines()]
    problems += oracle.check_predictions(oracle.ScoringOracle(model_text),
                                         wl.request_records, records)
    batch_by_turn = {(r["conversation_id"], r["turn_index"]): r for r in records}
    problems += check_serve(model_text, stream, phases, batch_by_turn, probes)
    report = json.loads((out / "evaluate.json").read_text(encoding="utf-8"))
    positives, n_examples = label_positives(wl.corpus_records, wl.labels)
    problems += oracle.check_cv_report(report, positives, n_examples, 5)
    if n_examples != batch["examples"]:
        problems.append(f"modeling_examples gave {batch['examples']}, expected {n_examples}")

    busy = phases["busy"]
    capacity = [CAPACITY_CHUNK / phases[f"capacity{k}"].elapsed_s for k in range(CAPACITY_CHUNKS)]
    participant_turns = sum(1 for t in wl.request_records if t["speaker"] == "participant")
    diagnostics = {
        "busy_p50_ms": statistics.median(busy.latencies_ms),
        "busy_p90_ms": loadgen.percentile(busy.latencies_ms, 90),
        "capacity_rps": [round(c) for c in capacity],
        "late_ms_p90": {name: round(loadgen.percentile(p.late_ms, 90), 4)
                        for name, p in phases.items() if p.late_ms},
        "sessions_cycled": stream.cycle, "examples": n_examples,
        "commands_s": batch["commands"], "cold_starts_s": cold,
        "wall_s": {**batch["wall"], "setup": batch["setup_wall_s"], "cold_starts": cold_wall,
                   "capacity_chunk_cpu": chunk_cpu_wall},
        "capacity_chunk_cpu_s": chunk_cpu,
    }
    if trace:
        _, worker_aggs = load_trace(out / "trace-batch.jsonl")
        server_spans, server_aggs = load_trace(out / "trace-serve.jsonl")
        values = layer_metrics(worker_aggs, server_aggs, server_spans, stream, phases)
        units = LAYER_UNITS
        diagnostics["layer_self_s_in_evaluate"] = {
            k: round(v, 4) for k, v in layer_self_times(worker_aggs, "evaluate").items()}
        diagnostics["evaluate_s_traced"] = statistics.median(batch["commands"]["evaluate"])
    else:
        values = {
            "setup_s": batch["setup_s"] + statistics.median(cold),
            "evaluate_s": statistics.median(batch["commands"]["evaluate"]),
            "tune_s": statistics.median(batch["commands"]["tune"]),
            "train_s": statistics.median(batch["commands"]["train"]),
            "predict_turns_per_s": participant_turns / statistics.median(
                batch["commands"]["predict"]),
            "cv_precision": report["avg_total"]["precision"],
            "cv_recall": report["avg_total"]["recall"],
            "cv_f": report["avg_total"]["f_measure"],
            "peak_rss_mb": batch["peak_rss_mb"],
            "serve_rss_mb": serve_rss,
            "serve_cpu_us_per_request": statistics.median(chunk_cpu) / CAPACITY_CHUNK * 1e6,
        }
        units = END_TO_END_UNITS
    for problem in problems[:20]:
        log(f"CHECK FAILED: {problem}")
    print(json.dumps({"diagnostics": diagnostics}))
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its servers (the finally blocks run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired,
            ConnectionError, OSError) as exc:
        log(f"error: {exc}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
