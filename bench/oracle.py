"""Checks of the program's outputs, computed apart from the program.

* :class:`ScoringOracle` re-implements the README's features and scoring:
  ``[a-z0-9]+`` tokens of the lowercased text, a binary bag of words over
  the model's vocabulary, ``slen``/``wc``/``ppau`` from the conversation so
  far, z-scoring with the model's scaling, then ``sigmoid(w.x + b)`` per
  label, with weights read from the saved model file.
* :func:`check_cv_report` checks an ``evaluate`` report against properties
  the method must have, computed from the corpus's label counts.
* :func:`strict_json` parses a line and refuses ``NaN``/``Infinity``.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
import re

_TOKEN = re.compile(r"[a-z0-9]+")
TOLERANCE = 1e-9


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} is not strict JSON")


def strict_json(line):
    return json.loads(line, parse_constant=_reject_constant)


class ScoringOracle:
    """Scores turns from a model file, keeping per-conversation context."""

    def __init__(self, model_text: str):
        payload = strict_json(model_text)["payload"]
        self.labels = list(payload["catalog"]["labels"])
        self.columns = {tok: i for i, tok in enumerate(payload["vocabulary"])}
        self.means = payload["scaling"]["means"]
        self.stds = payload["scaling"]["stds"]
        self.threshold = payload["threshold"]
        self.any_speaker = payload["slen_scope"] == "any"
        self.classifiers = {name: (blob["weights"], blob["bias"])
                            for name, blob in payload["classifiers"].items()}
        self.context: dict[str, dict] = {}

    def observe(self, cid: str, speaker: str, ts: float, text: str) -> dict | None:
        """Advance conversation ``cid`` by one turn; return the expected
        probabilities for a participant turn, None for an assistant turn."""
        tokens = _TOKEN.findall(text.lower())
        wc = len(tokens)
        state = self.context.setdefault(cid, {"last": None, "sum": {}, "count": {}})
        key = "*" if self.any_speaker else speaker
        count = state["count"].get(key, 0)
        if count == 0:
            slen = 1.0
        else:
            mean = state["sum"][key] / count
            slen = wc / mean if mean > 0 else float(wc)
        ppau = ts - state["last"] if state["last"] is not None else 0.0
        for k in {speaker, "*"}:
            state["sum"][k] = state["sum"].get(k, 0) + wc
            state["count"][k] = state["count"].get(k, 0) + 1
        state["last"] = ts
        if speaker != "participant":
            return None
        raw = (slen, float(wc), ppau)
        scaled = [(v - m) / s if s > 0 else 0.0 for v, m, s in zip(raw, self.means, self.stds)]
        columns = {self.columns[t] for t in tokens if t in self.columns}
        width = len(self.columns)
        probs = {}
        for name in self.labels:
            if name not in self.classifiers:
                probs[name] = 0.0
                continue
            weights, bias = self.classifiers[name]
            z = bias + sum(weights[c] for c in columns)
            z += sum(weights[width + j] * scaled[j] for j in range(3))
            probs[name] = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
        return probs

    def check(self, expected: dict | None, response: dict, where: str) -> list[str]:
        """Compare one response (or predict record) with the oracle's scores."""
        if expected is None:
            if response.get("labels") != [] or response.get("probabilities") != {}:
                return [f"{where}: assistant turn was classified"]
            return []
        probs = response.get("probabilities")
        if not isinstance(probs, dict) or list(probs) != self.labels:
            return [f"{where}: probabilities do not list the catalog labels in order"]
        problems = []
        for name, want in expected.items():
            got = probs[name]
            if not isinstance(got, float) or abs(got - want) > TOLERANCE:
                problems.append(f"{where}: p({name}) = {got!r}, oracle {want!r}")
        chosen = sorted(name for name, p in probs.items() if p >= self.threshold)
        if response.get("labels") != chosen:
            problems.append(f"{where}: labels {response.get('labels')} != p >= threshold {chosen}")
        for name, want in expected.items():
            if abs(want - self.threshold) > TOLERANCE and (want >= self.threshold) != (name in chosen):
                problems.append(f"{where}: label {name} disagrees with the oracle's threshold")
        if response.get("low_confidence") != (not chosen):
            problems.append(f"{where}: low_confidence is {response.get('low_confidence')!r}")
        return problems


def check_predictions(oracle: ScoringOracle, requests: list[dict], records: list[dict]) -> list[str]:
    """Batch ``predict`` records against the oracle, turn by turn, in file order."""
    problems = []
    by_key = {(r["conversation_id"], r["turn_index"]): r for r in records}
    if len(by_key) != len(requests):
        problems.append(f"predict printed {len(by_key)} records for {len(requests)} turns")
    for turn in requests:
        key = (turn["conversation_id"], turn["turn_index"])
        expected = oracle.observe(turn["conversation_id"], turn["speaker"],
                                  turn["timestamp_s"], turn["text"])
        record = by_key.get(key)
        if record is None:
            problems.append(f"predict: no record for {key}")
            continue
        problems += oracle.check(expected, record, f"predict {key}")
        if len(problems) > 20:
            break
    return problems


def prevalence_floor(positives: dict[str, int], n_examples: int) -> float:
    """Weighted F of predicting every label on every turn: per label
    precision p (its prevalence), recall 1, so F = 2p / (1 + p)."""
    total = sum(positives.values())
    return sum(count * (2 * (count / n_examples) / (1 + count / n_examples))
               for count in positives.values()) / total


def check_cv_report(report: dict, positives: dict[str, int], n_examples: int,
                    folds: int) -> list[str]:
    """Properties every stratified, support-weighted CV report must have."""
    problems = []
    rows = report["rows"]
    avg = report["avg_total"]
    total = sum(r["support"] for r in rows)
    for field in ("precision", "recall", "f_measure"):
        want = sum(r[field] * r["support"] for r in rows) / total
        if abs(avg[field] - want) > TOLERANCE:
            problems.append(f"avg/total {field} {avg[field]!r} != support-weighted mean {want!r}")
    if abs(avg["support"] - total / len(rows)) > TOLERANCE:
        problems.append("avg/total support is not the mean label support")
    if len(report["folds"]) != folds:
        problems.append(f"{len(report['folds'])} folds reported, {folds} asked for")
    for position, row in enumerate(rows):
        name = row["label"]
        count = positives.get(name, 0)
        supports = [fold[position]["support"] for fold in report["folds"]]
        if any(fold[position]["label"] != name for fold in report["folds"]):
            problems.append(f"fold rows are not in label order at {name}")
        if sum(supports) != count:
            problems.append(f"{name}: fold supports sum to {sum(supports)}, corpus has {count}")
        share = count / folds
        if any(abs(s - share) > 1 + 1e-9 for s in supports):
            problems.append(f"{name}: fold supports {supports} not within 1 of {share:.2f}")
    floor = prevalence_floor({k: v for k, v in positives.items() if v}, n_examples)
    if not avg["f_measure"] > floor:
        problems.append(f"weighted F {avg['f_measure']:.4f} does not beat the prevalence "
                        f"floor {floor:.4f}")
    return problems
