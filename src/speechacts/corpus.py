"""Conversation transcript data model, parsing, validation, and statistics.

Transcripts are line-delimited JSON (one turn per line) with the required
keys ``conversation_id``, ``turn_index``, ``speaker``, ``timestamp_s``,
``text``, ``labels``. Unknown keys are preserved on round trip. Files may
interleave conversations; ordering within a conversation is by turn_index.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
import secrets
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

PARTICIPANT = "participant"
ASSISTANT = "assistant"
SPEAKERS = (PARTICIPANT, ASSISTANT)

_LABEL_RE = re.compile(r"^[a-z][a-z0-9]*$")

_REQUIRED_KEYS = ("conversation_id", "turn_index", "speaker", "timestamp_s", "text", "labels")
_REQUIRED_SET = frozenset(_REQUIRED_KEYS)


class TranscriptError(ValueError):
    """A transcript record that cannot be parsed, with its source location."""

    def __init__(self, message: str, source: str = "<stream>", line_no: int | None = None):
        self.source = source
        self.line_no = line_no
        where = source if line_no is None else f"{source}:{line_no}"
        super().__init__(f"{where}: {message}")


TIMESTAMP_ERROR = "timestamp_s must be a finite number >= 0"
# longest conversation_id, in characters: serve keeps one per session as its key
MAX_CONVERSATION_ID = 256


class _NotANumber(ValueError):
    """A number Python's json reads as NaN or infinity, which JSON has not:
    the constants NaN, Infinity and -Infinity, or a literal too large for a
    float."""


def _reject_constant(name: str):
    raise _NotANumber(f"{name} is not a JSON number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if value - value != 0.0:  # NaN for an infinity: 1e999 overflows to one
        raise _NotANumber(f"{_cut(literal)} is out of range for a float")
    return value


# one decoder for every line: passing the hooks per call rebuilds the scanner
_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_float)
_ENCODER = json.JSONEncoder(allow_nan=False)
_JSON_SPACE = " \t\n\r"  # what JSON allows around a value; other Unicode space it does not


def _field_holding_non_finite(line: str):
    """The first top-level field whose value holds a number that
    :class:`_NotANumber` names, or None."""
    marker = object()  # what no encoder takes

    def mark(literal: str):
        try:
            return _finite_float(literal)
        except _NotANumber:
            return marker

    try:
        record = json.loads(line, parse_constant=lambda name: marker, parse_float=mark)
        for key, value in record.items():
            try:
                json.dumps(value)  # a probe: only the marker fails to encode
            except TypeError:
                return key
    except (AttributeError, ValueError, RecursionError):
        pass
    return None


def decode_record(line: str):
    """The JSON value on one line; every way decoding fails is a ValueError.

    Besides malformed JSON that covers the constants ``NaN``, ``Infinity``
    and ``-Infinity`` and a float literal that overflows (such as
    ``1e999``), each named with the top-level field that holds it; an
    integer past the interpreter's digit limit; and nesting deeper than the
    recursion limit.
    """
    try:
        # JSONDecoder.decode without its two whitespace regex matches
        value, end = _DECODER.raw_decode(line, len(line) - len(line.lstrip(_JSON_SPACE)))
        if end != len(line) and line[end:].strip(_JSON_SPACE):
            raise json.JSONDecodeError("Extra data", line, end)
        return value
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON ({exc.msg})") from exc
    except _NotANumber as exc:
        what = str(exc)
        field = _field_holding_non_finite(line)
        if field is not None:
            what = f"{_quoted(field)}: {what}"
        raise ValueError(f"not valid JSON ({what})") from exc
    except ValueError as exc:
        raise ValueError(f"not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ValueError("not valid JSON (nested too deeply)") from exc


def encode_record(value) -> str:
    """``value`` as one line of strict ASCII JSON; NaN or infinity raises ValueError."""
    return _ENCODER.encode(value)


def read_document(path: Union[str, Path]):
    """The JSON value a whole file holds, decoded as strictly as a
    transcript line (:func:`decode_record`); a file that is not UTF-8 or
    not valid JSON is a ValueError that names the path."""
    return read_document_text(path)[0]


def read_document_text(path: Union[str, Path]) -> tuple[object, str]:
    """:func:`read_document`'s value, and the text it was decoded from."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return decode_record(text), text
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _beside(path: Union[str, Path]) -> str:
    """A fresh temp file name in path's directory."""
    return f"{os.path.abspath(path)}.{secrets.token_hex(4)}.tmp"


def check_writable(path: Union[str, Path]) -> None:
    """Raise the ``OSError`` that :func:`write_document` would raise for
    want of a directory it can write path's temp file in, or for a
    directory at path, which the temp file cannot replace, without touching
    path, so that a command fails before its work and not after it."""
    tmp_path = _beside(path)
    try:
        open(tmp_path, "x").close()
        os.unlink(tmp_path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    if os.path.isdir(path) and not os.path.islink(path):  # os.replace replaces a link to one
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))


def write_document(path: Union[str, Path], text: str) -> None:
    """Write text to path atomically: into a temp file beside it that then
    replaces it, so a failed write leaves the path as it was and no temp
    file behind. Write errors name the path."""
    # opened like any output file, so its mode follows the umask
    tmp_path = _beside(path)
    try:
        fh = open(tmp_path, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


def timestamp_seconds(value) -> float | None:
    """value as float seconds if it is a finite number >= 0, else None.

    Never raises: an int too large for a float is rejected like infinity.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        seconds = float(value)
    except OverflowError:
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


def _cut(text: str, limit: int = 40) -> str:
    """text cut to ``limit`` characters, so that an error message never
    echoes unbounded input."""
    return text if len(text) <= limit else text[:limit] + "..."


def _quoted(value) -> str:
    return _cut(repr(value))


def turn_fields(record: dict) -> tuple[str, str, float, str]:
    """(conversation_id, speaker, timestamp seconds, text) of a transcript
    record or a serve request; a missing or bad field is a ValueError that
    names it."""
    cid = record.get("conversation_id")
    if not isinstance(cid, str) or not cid:
        raise ValueError("conversation_id must be a non-empty string")
    if len(cid) > MAX_CONVERSATION_ID:
        raise ValueError(f"conversation_id longer than {MAX_CONVERSATION_ID} characters")
    speaker = record.get("speaker")
    if speaker not in SPEAKERS:
        raise ValueError(f"unknown speaker {_quoted(speaker)}")
    seconds = timestamp_seconds(record.get("timestamp_s"))
    if seconds is None:
        raise ValueError(TIMESTAMP_ERROR)
    text = record.get("text")
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    return cid, speaker, seconds, text


class CatalogError(ValueError):
    """An invalid label catalog."""


@dataclass(frozen=True)
class LabelCatalog:
    """The closed set of speech-act label names in force for a run.

    ``labels`` is ordered (it fixes report row order); ``excluded`` names
    labels that are legal in transcripts but dropped from modeling.
    """

    labels: tuple[str, ...]
    excluded: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.labels:
            raise CatalogError("catalog has no labels")
        if len(set(self.labels)) != len(self.labels):
            raise CatalogError("catalog labels contain duplicates")
        overlap = set(self.labels) & self.excluded
        if overlap:
            raise CatalogError(f"labels also listed as excluded: {sorted(overlap)}")
        for name in list(self.labels) + sorted(self.excluded):
            if not _LABEL_RE.match(name):
                raise CatalogError(f"invalid label name {name!r} (want lowercase [a-z][a-z0-9]*)")

    @cached_property
    def label_set(self) -> frozenset[str]:
        """The labels as a set, built on first use and kept: parsing and
        example selection ask it once per turn. The cache
        lives in the instance's ``__dict__``, outside the fields that
        ``==``, ``hash`` and ``dataclasses.replace`` read."""
        return frozenset(self.labels)

    @cached_property
    def name_order(self) -> tuple[int, ...]:
        """The labels' positions sorted by name, the order a turn's chosen
        labels are written in; kept as :attr:`label_set` is."""
        return tuple(sorted(range(len(self.labels)), key=self.labels.__getitem__))

    def allows(self, name: str) -> bool:
        return name in self.label_set or name in self.excluded

    @staticmethod
    def default() -> "LabelCatalog":
        """The bundled participant-side catalog (see data/default_catalog.json)."""
        raw = resources.files("speechacts.data").joinpath("default_catalog.json").read_text("utf-8")
        return catalog_from_dict(decode_record(raw))


def catalog_from_dict(obj: dict) -> LabelCatalog:
    if not isinstance(obj, dict) or "labels" not in obj:
        raise CatalogError("catalog must be an object with a 'labels' array")
    labels = obj["labels"]
    excluded = obj.get("excluded", [])
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise CatalogError("'labels' must be an array of strings")
    if not isinstance(excluded, list) or not all(isinstance(x, str) for x in excluded):
        raise CatalogError("'excluded' must be an array of strings")
    return LabelCatalog(
        labels=tuple(x.lower() for x in labels),
        excluded=frozenset(x.lower() for x in excluded),
    )


def catalog_to_dict(catalog: LabelCatalog) -> dict:
    """The catalog as the document :func:`catalog_from_dict` reads."""
    return {"labels": list(catalog.labels), "excluded": sorted(catalog.excluded)}


def load_catalog(path: Union[str, Path]) -> LabelCatalog:
    return catalog_from_dict(read_document(path))


@dataclass
class Turn:
    """One chat message: who said what, when, and its speech-act labels."""

    conversation_id: str
    turn_index: int
    speaker: str
    timestamp_s: float
    text: str
    labels: frozenset[str] = frozenset()
    extra: dict = field(default_factory=dict)  # unknown record keys, kept for round trip


@dataclass
class Conversation:
    conversation_id: str
    turns: list[Turn]


@dataclass(frozen=True)
class Violation:
    conversation_id: str
    turn_index: int | None
    invariant: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CorpusStats:
    conversation_count: int
    turn_count: int
    label_counts: dict[str, int]
    excluded_label_counts: dict[str, int]
    per_speaker_turn_counts: dict[str, int]


@dataclass
class ModelingExample:
    """A participant turn selected for training, with its conversation context."""

    conversation: Conversation
    turn_index: int  # position in conversation.turns (the turn_index once validated)
    labels: frozenset[str]  # catalog labels only (excluded labels stripped)

    @property
    def turn(self) -> Turn:
        return self.conversation.turns[self.turn_index]


def _parse_record(line: str, source: str, line_no: int, catalog: LabelCatalog) -> Turn:
    try:
        obj = decode_record(line)
    except ValueError as exc:
        raise TranscriptError(str(exc), source, line_no) from exc
    if not isinstance(obj, dict):
        raise TranscriptError("record is not an object", source, line_no)
    if not obj.keys() >= _REQUIRED_SET:
        missing = [k for k in _REQUIRED_KEYS if k not in obj]
        raise TranscriptError(f"missing keys {missing}", source, line_no)

    try:
        cid, speaker, ts, text = turn_fields(obj)
    except ValueError as exc:
        raise TranscriptError(str(exc), source, line_no) from exc
    idx = obj["turn_index"]
    if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
        raise TranscriptError("turn_index must be a non-negative integer", source, line_no)
    raw_labels = obj["labels"]
    try:
        if not isinstance(raw_labels, list):
            raise TypeError
        labels = frozenset(map(str.lower, raw_labels))  # a TypeError on a non-string
    except TypeError:
        raise TranscriptError("labels must be an array of strings", source, line_no) from None
    if not labels <= catalog.label_set:
        unknown = sorted(x for x in labels if not catalog.allows(x))
        if unknown:
            raise TranscriptError(
                f"labels not in catalog or excluded set: {_quoted(unknown)}", source, line_no
            )

    extra = {}
    if len(obj) > len(_REQUIRED_KEYS):
        extra = {k: v for k, v in obj.items() if k not in _REQUIRED_SET}
    return Turn(cid, idx, speaker, ts, text, labels, extra)


def _records(
    stream: Union[IO, Iterable], source: str, catalog: LabelCatalog
) -> Iterator[tuple[Turn, str, int]]:
    """(turn, source, line number) of each non-blank line; a line may be str
    or UTF-8 bytes."""
    for line_no, line in enumerate(stream, start=1):
        if isinstance(line, (bytes, bytearray)):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TranscriptError(
                    f"not valid UTF-8: byte 0x{line[exc.start]:02x} at offset {exc.start}",
                    source, line_no,
                ) from exc
        if line and not line.isspace():  # what str.strip() would empty
            yield _parse_record(line, source, line_no, catalog), source, line_no


def _group(records: list[tuple[Turn, str, int]]) -> list[Conversation]:
    by_id: dict[str, list[tuple[Turn, str, int]]] = {}
    for rec in records:
        by_id.setdefault(rec[0].conversation_id, []).append(rec)
    conversations = []
    for cid, recs in by_id.items():  # insertion order = first appearance
        seen: dict[int, tuple[str, int]] = {}
        for turn, source, line_no in recs:
            if turn.turn_index in seen:
                raise TranscriptError(
                    f"duplicate turn ({_quoted(cid)}, {turn.turn_index}), first seen at "
                    f"{seen[turn.turn_index][0]}:{seen[turn.turn_index][1]}",
                    source,
                    line_no,
                )
            seen[turn.turn_index] = (source, line_no)
        turns = sorted((r[0] for r in recs), key=lambda t: t.turn_index)
        conversations.append(Conversation(cid, turns))
    return conversations


def parse_transcripts(
    stream: Union[IO, Iterable], catalog: LabelCatalog, source: str = "<stream>"
) -> list[Conversation]:
    """Parse one line-delimited transcript stream into conversations.

    Raises TranscriptError (naming the offending line) on malformed records,
    unknown speakers, out-of-catalog labels, or duplicate (conversation_id,
    turn_index) pairs. Structural invariants that are a matter of data
    quality rather than parseability are left to :func:`validate`.
    """
    return _group(list(_records(stream, source, catalog)))


def load_transcripts(paths: Iterable[Union[str, Path]], catalog: LabelCatalog) -> list[Conversation]:
    """Parse several transcript files; conversations may span files."""
    records = []
    for path in paths:
        with open(path, "rb") as fh:
            records.extend(_records(fh, str(path), catalog))
    return _group(records)


def serialize_transcripts(conversations: Iterable[Conversation]) -> str:
    """Render conversations back to the line-delimited transcript format."""
    lines = []
    for conv in conversations:
        for turn in conv.turns:
            rec = {
                "conversation_id": turn.conversation_id,
                "turn_index": turn.turn_index,
                "speaker": turn.speaker,
                "timestamp_s": turn.timestamp_s,
                "text": turn.text,
                "labels": sorted(turn.labels),
            }
            rec.update(turn.extra)
            lines.append(encode_record(rec))
    return "\n".join(lines) + ("\n" if lines else "")


def validate(conversations: Iterable[Conversation]) -> ValidationReport:
    """Check the structural invariants; violations are data, not failures."""
    report = ValidationReport()

    def flag(cid, idx, invariant, message):
        report.violations.append(Violation(cid, idx, invariant, message))

    for conv in conversations:
        prev_ts = None
        for position, turn in enumerate(conv.turns):
            if turn.conversation_id != conv.conversation_id:
                flag(conv.conversation_id, turn.turn_index, "conversation_id",
                     f"turn carries conversation_id {turn.conversation_id!r}")
            if turn.turn_index != position:
                flag(conv.conversation_id, turn.turn_index, "contiguous_index",
                     f"expected turn_index {position}, found {turn.turn_index}")
            if prev_ts is not None and turn.timestamp_s < prev_ts:
                flag(conv.conversation_id, turn.turn_index, "monotone_timestamp",
                     f"timestamp_s {turn.timestamp_s} precedes previous {prev_ts}")
            prev_ts = turn.timestamp_s
            if not turn.text.strip():
                flag(conv.conversation_id, turn.turn_index, "empty_text",
                     "text is empty after trimming whitespace")
    return report


def corpus_stats(conversations: Iterable[Conversation], catalog: LabelCatalog) -> CorpusStats:
    """Count turns, speakers, and (turn, label) pairs; excluded labels separately."""
    label_counts = {name: 0 for name in catalog.labels}
    excluded_counts = {name: 0 for name in sorted(catalog.excluded)}
    speaker_counts = {name: 0 for name in SPEAKERS}
    n_conv = 0
    n_turns = 0
    for conv in conversations:
        n_conv += 1
        for turn in conv.turns:
            n_turns += 1
            speaker_counts[turn.speaker] = speaker_counts.get(turn.speaker, 0) + 1
            for label in turn.labels:
                if label in label_counts:
                    label_counts[label] += 1
                else:
                    excluded_counts[label] = excluded_counts.get(label, 0) + 1
    return CorpusStats(n_conv, n_turns, label_counts, excluded_counts, speaker_counts)


def modeling_examples(
    conversations: Iterable[Conversation], catalog: LabelCatalog
) -> list[ModelingExample]:
    """Each turn usable for modeling, in corpus order, as an example with
    context attached: one the participant spoke that carries at least one
    non-excluded catalog label. Each is found by its position, so a
    conversation whose turn_index values have gaps still yields its own
    turns."""
    return [ModelingExample(conv, position, turn.labels & catalog.label_set)
            for conv in conversations for position, turn in enumerate(conv.turns)
            if turn.speaker == PARTICIPANT and turn.labels & catalog.label_set]


def offsets_from_absolute(conversations: Iterable[Conversation]) -> list[Conversation]:
    """Rebase absolute (e.g. epoch) timestamps to seconds from conversation start.

    Converter helper for corpora exported with wall-clock times: subtracts
    each conversation's first timestamp from every turn.
    """
    rebased = []
    for conv in conversations:
        if not conv.turns:
            rebased.append(Conversation(conv.conversation_id, []))
            continue
        t0 = conv.turns[0].timestamp_s
        turns = [
            Turn(t.conversation_id, t.turn_index, t.speaker, t.timestamp_s - t0,
                 t.text, t.labels, dict(t.extra))
            for t in conv.turns
        ]
        rebased.append(Conversation(conv.conversation_id, turns))
    return rebased
