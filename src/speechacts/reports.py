"""Render reports as human tables or machine-readable JSON.

Tables round to 2 decimals; machine output keeps full precision and carries
the effective run configuration for provenance.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import Collection
from json.encoder import encode_basestring, encode_basestring_ascii as _json_str

from .classifier import MultiLabelModel, label_positions
from .corpus import Conversation, CorpusStats, Violation, encode_record
from .evaluate import FeatureRanking, MetricsReport, MetricsRow

TABLE = "table"
MACHINE = "machine"
FORMATS = (TABLE, MACHINE)
# the answer's members for a turn that is not scored (an assistant turn)
UNCLASSIFIED = '"labels": [], "probabilities": {}, "low_confidence": false}'
# every character str.splitlines breaks at, as its \uXXXX escape
_LINE_BREAKS = {c: f"\\u{c:04x}" for c in (0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x85,
                                           0x2028, 0x2029)}


def _machine(doc: dict) -> str:
    """doc as one line of ASCII JSON, keys sorted, and a newline."""
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


class AnswerText:
    """What the answer writer needs of one catalog, computed once: the
    label names (catalog order), each quoted as JSON, and each probability's
    key, ``"name": ``."""

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.quoted = [_json_str(name) for name in names]
        self.keys = [f"{quoted}: " for quoted in self.quoted]


def one_line(text: str) -> str:
    """The text with each line break escaped as ``\\uXXXX``, so it prints as one line."""
    return text.translate(_LINE_BREAKS)


def line_id(text: str) -> str:
    """The text JSON-escaped without its quotes, and held on one line
    (:func:`one_line`: JSON leaves U+0085, U+2028 and U+2029 raw)."""
    return one_line(encode_basestring(text)[1:-1])


def violation_line(v: Violation) -> str:
    return f"{line_id(v.conversation_id)} turn {v.turn_index}: {v.invariant}: {v.message}"


def answer_json(text: AnswerText, row: Collection[float], chosen: list[int],
                low_confidence: bool, head: str = "{") -> str:
    """The per-turn answer of ``predict`` and ``serve`` as one line of ASCII
    JSON, written directly rather than through a dict.

    ``row`` holds the turn's probabilities (floats, each written as
    ``float.__repr__`` writes it) in the order of ``text.names``, and
    ``chosen`` the positions of its labels in name order
    (:func:`~speechacts.classifier.label_positions`). The object is {labels,
    probabilities, low_confidence}; ``head`` opens it and may carry members
    before these, ending in ``", "``. The text is byte for byte what
    ``encode_record`` writes for the same dict, and a non-finite probability
    raises its ValueError.
    """
    total = sum(row)
    if total - total != 0.0:  # a NaN or an infinity among them, or a sum past the float range
        encode_record(dict(zip(text.names, row)))  # raises on a non-finite value as the encoder does
    quoted = text.quoted
    labels = ", ".join([quoted[j] for j in chosen])
    # joined, not %-formatted: a % result keeps its writer's over-allocated
    # block, which raised serve's peak RSS
    members = ", ".join(map(str.__add__, text.keys, map(float.__repr__, row)))
    flag = "true" if low_confidence else "false"
    return f'{head}"labels": [{labels}], "probabilities": {{{members}}}, "low_confidence": {flag}}}'


def predict_lines(model: MultiLabelModel, text: AnswerText, conversation: Conversation,
                  rows: list[list[float] | None]) -> list[str]:
    """The ``predict --format machine`` record of each turn: its
    conversation_id, turn_index and speaker, then the answer
    :func:`answer_json` writes of its probability row under
    :func:`~speechacts.classifier.label_positions`, or the unclassified
    answer for a turn without one (None)."""
    opening = f'{{"conversation_id": {_json_str(conversation.conversation_id)}, "turn_index": '
    lines = []
    for turn, row in zip(conversation.turns, rows):
        head = f'{opening}{turn.turn_index}, "speaker": {_json_str(turn.speaker)}, '
        if row is None:
            lines.append(head + UNCLASSIFIED)
        else:
            lines.append(answer_json(text, row, *label_positions(model, row), head))
    return lines


def predict_table_lines(model: MultiLabelModel, text: AnswerText, conversation: Conversation,
                        rows: list[list[float] | None]) -> list[str]:
    """The ``predict --format table`` line of each turn: ``cid#index
    [speaker] labels``, the labels of its probability row under
    :func:`~speechacts.classifier.label_positions` joined by ``,`` (``-``
    for none, or for a turn without a row), then `` low-confidence`` when
    that flag is set. The id is written as :func:`line_id` writes it."""
    cid = line_id(conversation.conversation_id)
    lines = []
    for turn, row in zip(conversation.turns, rows):
        labels, flag = "-", ""
        if row is not None:
            chosen, low_confidence = label_positions(model, row)
            labels = ",".join([text.names[j] for j in chosen]) or "-"
            flag = " low-confidence" if low_confidence else ""
        lines.append(f"{cid}#{turn.turn_index} [{turn.speaker}] {labels}{flag}")
    return lines


def _config_header(config: dict | None) -> list[str]:
    if not config:
        return []
    parts = []
    for key, value in config.items():
        if isinstance(value, dict):
            # flatten one level of scalars (hyperparams); grids stay machine-only
            parts.extend(
                f"{key}.{k}={v}" for k, v in value.items() if not isinstance(v, (dict, list))
            )
        else:
            parts.append(f"{key}={value}")
    return [f"# config: {line_id(' '.join(parts))}"]


def _row_cells(row: MetricsRow) -> list[str]:
    return [
        row.label,
        f"{row.precision:.2f}",
        f"{row.recall:.2f}",
        f"{row.f_measure:.2f}",
        f"{row.support:.2f}",
    ]


def metrics_table(report: MetricsReport, config: dict | None = None) -> str:
    header = ["label", "precision", "recall", "f-measure", "support"]
    body = [_row_cells(row) for row in report.rows] + [_row_cells(report.average_row)]
    widths = [max(len(header[i]), *(len(cells[i]) for cells in body)) for i in range(len(header))]
    lines = _config_header(config)
    lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    for cells in body[:-1]:
        lines.append("  ".join(cells[i].ljust(widths[i]) for i in range(len(header))))
    lines.append("-" * (sum(widths) + 2 * (len(header) - 1)))
    lines.append("  ".join(body[-1][i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines) + "\n"


def metrics_machine(report: MetricsReport, config: dict | None = None) -> str:
    doc = {
        "config": config or {},
        "rows": [asdict(row) for row in report.rows],
        "avg_total": asdict(report.average_row),
        "folds": [[asdict(row) for row in rows] for rows in report.fold_rows],
    }
    return _machine(doc)


def _score_str(score: float) -> str:
    return "inf" if math.isinf(score) else f"{score:.2f}"


def ranking_table(
    rankings: list[FeatureRanking], printed_order: bool = False, config: dict | None = None
) -> str:
    """One line per label, features best-first (or mirrored with printed_order)."""
    lines = _config_header(config)
    for ranking in rankings:
        ranked = list(reversed(ranking.ranked)) if printed_order else ranking.ranked
        feats = ", ".join(f"{name} ({_score_str(score)})" for name, score in ranked)
        lines.append(f"{ranking.label}: {feats}")
    return "\n".join(lines) + "\n"


def ranking_machine(rankings: list[FeatureRanking], config: dict | None = None) -> str:
    doc = {
        "config": config or {},
        "rankings": [
            {
                "label": r.label,
                "features": [
                    {"name": name, "score": "inf" if math.isinf(score) else score}
                    for name, score in r.ranked
                ],
            }
            for r in rankings
        ],
    }
    return _machine(doc)


def stats_table(stats: CorpusStats, config: dict | None = None) -> str:
    lines = _config_header(config)
    lines.append(f"conversations: {stats.conversation_count}")
    lines.append(f"turns: {stats.turn_count}")
    for speaker, count in sorted(stats.per_speaker_turn_counts.items()):
        lines.append(f"{speaker} turns: {count}")
    lines.append("label counts:")
    for name, count in stats.label_counts.items():
        lines.append(f"  {name}: {count}")
    if stats.excluded_label_counts:
        lines.append("excluded label counts:")
        for name, count in sorted(stats.excluded_label_counts.items()):
            lines.append(f"  {name}: {count}")
    return "\n".join(lines) + "\n"


def stats_machine(stats: CorpusStats, config: dict | None = None) -> str:
    return _machine({"config": config or {}, **asdict(stats)})
