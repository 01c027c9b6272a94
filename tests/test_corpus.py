import dataclasses
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speechacts import corpus as corpus_mod
from speechacts.corpus import (
    MAX_CONVERSATION_ID,
    SPEAKERS,
    CatalogError,
    Conversation,
    LabelCatalog,
    TranscriptError,
    Turn,
    corpus_stats,
    load_transcripts,
    modeling_examples,
    offsets_from_absolute,
    parse_transcripts,
    select_examples,
    serialize_transcripts,
    validate,
)

from conftest import make_conversation, record_line


class TestCatalog:
    def test_default_catalog(self):
        catalog = LabelCatalog.default()
        assert len(catalog.labels) == 11
        assert "clarificationquestion" in catalog.labels
        assert catalog.excluded == frozenset({"setup"})

    def test_duplicates_rejected(self):
        with pytest.raises(CatalogError):
            LabelCatalog(labels=("a", "a"))

    def test_excluded_overlap_rejected(self):
        with pytest.raises(CatalogError):
            LabelCatalog(labels=("a",), excluded=frozenset({"a"}))

    def test_bad_name_rejected(self):
        with pytest.raises(CatalogError):
            LabelCatalog(labels=("Bad Label",))

    def test_empty_rejected(self):
        with pytest.raises(CatalogError):
            LabelCatalog(labels=())

    def test_document_round_trips(self):
        catalog = LabelCatalog(labels=("b", "a"), excluded=frozenset({"d", "c"}))
        document = corpus_mod.catalog_to_dict(catalog)
        assert document == {"labels": ["b", "a"], "excluded": ["c", "d"]}
        assert corpus_mod.catalog_from_dict(document) == catalog

    def test_label_set_built_once_outside_the_fields(self):
        catalog = LabelCatalog(labels=("b", "a"), excluded=frozenset({"c"}))
        labels = catalog.label_set
        assert labels == frozenset({"a", "b"})
        assert catalog.label_set is labels
        assert catalog.allows("a") and catalog.allows("c") and not catalog.allows("d")
        assert catalog.label_set is labels
        fresh = LabelCatalog(labels=("b", "a"), excluded=frozenset({"c"}))
        assert fresh == catalog and hash(fresh) == hash(catalog)
        assert fresh.label_set is not labels
        assert dataclasses.replace(catalog) == catalog
        relabelled = dataclasses.replace(catalog, labels=("d",))
        assert relabelled.label_set == frozenset({"d"})
        assert relabelled != catalog and catalog.label_set is labels
        assert [f.name for f in dataclasses.fields(catalog)] == ["labels", "excluded"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            catalog.labels = ("e",)


class TestParse:
    def test_three_line_file(self, catalog_ab):
        stream = io.StringIO(
            "\n".join(
                [
                    record_line("c1", 0, "participant", 0.0, "hello", ["a"]),
                    record_line("c1", 1, "assistant", 2.0, "hi", []),
                    record_line("c1", 2, "participant", 5.0, "bye", ["b"]),
                ]
            )
        )
        convs = parse_transcripts(stream, catalog_ab)
        assert len(convs) == 1
        assert convs[0].conversation_id == "c1"
        assert [t.turn_index for t in convs[0].turns] == [0, 1, 2]

    def test_empty_stream(self, catalog_ab):
        assert parse_transcripts(io.StringIO(""), catalog_ab) == []

    def test_duplicate_index_names_line(self, catalog_ab):
        stream = io.StringIO(
            record_line("c1", 0, "participant", 0.0, "x", ["a"])
            + "\n"
            + record_line("c1", 0, "participant", 1.0, "y", ["a"])
        )
        with pytest.raises(TranscriptError) as err:
            parse_transcripts(stream, catalog_ab, source="f.jsonl")
        assert err.value.line_no == 2
        assert "duplicate" in str(err.value)

    def test_malformed_json_names_line(self, catalog_ab):
        stream = io.StringIO(record_line("c1", 0, "participant", 0.0, "x", ["a"]) + "\n{nope")
        with pytest.raises(TranscriptError) as err:
            parse_transcripts(stream, catalog_ab)
        assert err.value.line_no == 2

    def test_unknown_speaker(self, catalog_ab):
        stream = io.StringIO(record_line("c1", 0, "moderator", 0.0, "x", ["a"]))
        with pytest.raises(TranscriptError, match="speaker"):
            parse_transcripts(stream, catalog_ab)

    def test_label_not_in_catalog(self, catalog_ab):
        stream = io.StringIO(record_line("c1", 0, "participant", 0.0, "x", ["nolabel"]))
        with pytest.raises(TranscriptError, match="catalog"):
            parse_transcripts(stream, catalog_ab)

    def test_excluded_label_accepted(self, catalog_ab):
        stream = io.StringIO(record_line("c1", 0, "participant", 0.0, "x", ["setup"]))
        (conv,) = parse_transcripts(stream, catalog_ab)
        assert conv.turns[0].labels == frozenset({"setup"})

    def test_labels_lowercased(self, catalog_ab):
        stream = io.StringIO(record_line("c1", 0, "participant", 0.0, "x", ["A"]))
        (conv,) = parse_transcripts(stream, catalog_ab)
        assert conv.turns[0].labels == frozenset({"a"})

    def test_negative_timestamp_rejected(self, catalog_ab):
        stream = io.StringIO(record_line("c1", 0, "participant", -1.0, "x", ["a"]))
        with pytest.raises(TranscriptError, match="timestamp"):
            parse_transcripts(stream, catalog_ab)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamp_rejected(self, catalog_ab, bad):
        stream = io.StringIO(record_line("c1", 0, "participant", bad, "x", ["a"]))
        with pytest.raises(TranscriptError, match="timestamp"):
            parse_transcripts(stream, catalog_ab)

    def test_conversation_id_past_the_cap_names_the_line(self, catalog_ab):
        longest = "c" * MAX_CONVERSATION_ID
        stream = io.StringIO(record_line(longest, 0, "participant", 0.0, "x", ["a"]) + "\n"
                             + record_line(longest + "c", 0, "participant", 1.0, "y", ["a"]))
        with pytest.raises(TranscriptError, match="conversation_id longer than 256") as err:
            parse_transcripts(stream, catalog_ab, source="f.jsonl")
        assert err.value.line_no == 2
        assert str(err.value).startswith("f.jsonl:2: ")

    def test_missing_key_rejected(self, catalog_ab):
        rec = json.loads(record_line("c1", 0, "participant", 0.0, "x", ["a"]))
        del rec["text"]
        with pytest.raises(TranscriptError, match="missing"):
            parse_transcripts(io.StringIO(json.dumps(rec)), catalog_ab)

    def test_interleaved_conversations_sorted_by_index(self, catalog_ab):
        stream = io.StringIO(
            "\n".join(
                [
                    record_line("c2", 1, "assistant", 9.0, "later", []),
                    record_line("c1", 0, "participant", 0.0, "x", ["a"]),
                    record_line("c2", 0, "participant", 3.0, "y", ["b"]),
                    record_line("c1", 1, "assistant", 4.0, "z", []),
                ]
            )
        )
        convs = parse_transcripts(stream, catalog_ab)
        assert [c.conversation_id for c in convs] == ["c2", "c1"]
        assert [t.turn_index for t in convs[0].turns] == [0, 1]

    def test_bytes_stream(self, catalog_ab):
        stream = io.BytesIO(record_line("c1", 0, "participant", 0.0, "x", ["a"]).encode())
        assert len(parse_transcripts(stream, catalog_ab)) == 1

    def test_conversation_spanning_files(self, tmp_path, catalog_ab):
        p1 = tmp_path / "one.jsonl"
        p2 = tmp_path / "two.jsonl"
        p1.write_text(record_line("c1", 0, "participant", 0.0, "x", ["a"]) + "\n")
        p2.write_text(record_line("c1", 1, "assistant", 2.0, "y", []) + "\n")
        convs = load_transcripts([p1, p2], catalog_ab)
        assert len(convs) == 1 and len(convs[0].turns) == 2


def reference_decode(line):
    """``decode_record`` as it was, through ``JSONDecoder.decode``: the
    reference the streamlined parser is held to."""
    try:
        return corpus_mod._DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON ({exc.msg})") from exc
    except corpus_mod._NotANumber as exc:
        what = str(exc)
        field = corpus_mod._field_holding_non_finite(line)
        if field is not None:
            what = f"{corpus_mod._quoted(field)}: {what}"
        raise ValueError(f"not valid JSON ({what})") from exc
    except ValueError as exc:
        raise ValueError(f"not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ValueError("not valid JSON (nested too deeply)") from exc


def reference_record(line, source, line_no, catalog):
    """``_parse_record`` as it was: list and generator checks, and the extra
    dict built for every record."""
    required = ("conversation_id", "turn_index", "speaker", "timestamp_s", "text", "labels")
    try:
        obj = reference_decode(line)
    except ValueError as exc:
        raise TranscriptError(str(exc), source, line_no) from exc
    if not isinstance(obj, dict):
        raise TranscriptError("record is not an object", source, line_no)
    missing = [k for k in required if k not in obj]
    if missing:
        raise TranscriptError(f"missing keys {missing}", source, line_no)
    try:
        cid, speaker, ts, text = corpus_mod.turn_fields(obj)
    except ValueError as exc:
        raise TranscriptError(str(exc), source, line_no) from exc
    idx = obj["turn_index"]
    if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
        raise TranscriptError("turn_index must be a non-negative integer", source, line_no)
    raw_labels = obj["labels"]
    if not isinstance(raw_labels, list) or not all(isinstance(x, str) for x in raw_labels):
        raise TranscriptError("labels must be an array of strings", source, line_no)
    labels = frozenset(x.lower() for x in raw_labels)
    unknown = sorted(x for x in labels if not catalog.allows(x))
    if unknown:
        raise TranscriptError(
            f"labels not in catalog or excluded set: {corpus_mod._quoted(unknown)}", source, line_no
        )
    extra = {k: v for k, v in obj.items() if k not in required}
    return Turn(cid, idx, speaker, ts, text, labels, extra)


def reference_parse(lines, catalog):
    return corpus_mod._group([(reference_record(line, "<stream>", n, catalog), "<stream>", n)
                              for n, line in enumerate(lines, start=1) if line.strip()])


def outcome(parse, lines, catalog):
    try:
        return parse(lines, catalog)
    except TranscriptError as exc:
        return f"TranscriptError: {exc}"


PLACEHOLDER = '"@@"'
CATALOG_AB = LabelCatalog(labels=("a", "b"), excluded=frozenset({"setup"}))
JSON_SPACE = st.text(st.sampled_from(" \t\n\r"), min_size=1, max_size=3)
OTHER_SPACE = st.sampled_from(["\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"])
# literals Python's json reads as NaN or infinity, an integer past the digit
# limit, and nesting past the recursion limit
BAD_LITERALS = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" * 4400,
                                "[" * 3000, "[" * 3000 + "]" * 3000])
ODD_VALUES = st.sampled_from([None, True, False, -1, 1.5, "1", "", [], {}, ["a"], {"a": 1}, 10**30])


@st.composite
def mutated_line(draw):
    """One transcript line: a valid record, or one with a single mutation
    aimed at one of the parser's error branches (or one it lets through)."""
    rec = {
        "conversation_id": draw(st.sampled_from(["c1", "c2"])),
        "turn_index": draw(st.integers(0, 4)),
        "speaker": draw(st.sampled_from(SPEAKERS)),
        "timestamp_s": draw(st.floats(0.0, 100.0) | st.integers(0, 100)),
        "text": draw(st.text(max_size=6)),
        "labels": draw(st.lists(st.sampled_from(["a", "B", "setup", "SETUP"]), max_size=3)),
    }
    literal = None
    kind = draw(st.sampled_from([
        "valid", "bad_json", "lead_json_space", "trail_json_space", "lead_other_space",
        "trail_other_space", "trailing_data", "bad_literal", "missing", "odd_index",
        "odd_labels", "label_not_string", "unknown_label", "extra", "odd_field", "not_object",
        "blank"]))
    key = draw(st.sampled_from(sorted(rec)))
    if kind == "bad_literal":
        literal = draw(BAD_LITERALS)
        where = draw(st.sampled_from(["field", "extra", "nested"]))
        if where == "field":
            rec[key] = "@@"
        elif where == "extra":
            rec["x"] = "@@"
        else:
            rec["x"] = {"y": ["@@"]}
    elif kind == "missing":
        for name in draw(st.sets(st.sampled_from(sorted(rec)), min_size=1)):
            del rec[name]
    elif kind == "odd_index":
        rec["turn_index"] = draw(st.sampled_from([True, False, -1, -7, 1.0, "1", None]))
    elif kind == "odd_labels":
        rec["labels"] = draw(st.sampled_from(["a", {"a": 1}, 3, None, True]))
    elif kind == "label_not_string":
        rec["labels"] = rec["labels"] + [draw(st.sampled_from([1, None, ["a"], True, 1.5]))]
    elif kind == "unknown_label":
        rec["labels"] = rec["labels"] + draw(st.lists(st.sampled_from(["zz", "Q", "a b"]),
                                                      min_size=1))
    elif kind == "extra":
        rec.update(draw(st.dictionaries(st.text(max_size=3), ODD_VALUES, min_size=1)))
    elif kind == "odd_field":
        rec[key] = draw(ODD_VALUES)
    line = json.dumps(rec, ensure_ascii=draw(st.booleans()))
    if literal is not None:
        line = line.replace(PLACEHOLDER, literal)
    if kind == "bad_json":
        cut = draw(st.integers(0, len(line) - 1))
        line = line[:cut] + draw(st.sampled_from(["", "{", "}", ",", ":", "'"])) + line[cut + 1:]
    elif kind == "lead_json_space":
        line = draw(JSON_SPACE) + line
    elif kind == "trail_json_space":
        line = line + draw(JSON_SPACE)
    elif kind == "lead_other_space":
        line = draw(OTHER_SPACE) + line
    elif kind == "trail_other_space":
        line = line + draw(OTHER_SPACE)
    elif kind == "trailing_data":
        line = line + draw(JSON_SPACE | st.just("")) + draw(st.sampled_from(["x", "{}", "1", ",",
                                                                             "]", '"s"']))
    elif kind == "not_object":
        line = draw(st.sampled_from(["[1]", "5", '"s"', "null", "[]", "true"]))
    elif kind == "blank":
        line = draw(st.sampled_from(["", " ", "\t\r\n", "\x0c", "\u3000", "\x85 "]))
    return line


class TestParseEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(mutated_line(), min_size=1, max_size=4))
    @example(lines=['{"conversation_id": "c1", "turn_index": 0, "speaker": "assistant", '
                    '"timestamp_s": 1, "text": "", "labels": ["SETUP"], "k": [1e999]}'])
    @example(lines=["\x0c{}", "{} \x0b", " \t{}\r\n"])
    def test_parse_matches_the_reference(self, lines):
        assert (outcome(parse_transcripts, lines, CATALOG_AB)
                == outcome(reference_parse, lines, CATALOG_AB))

    def test_mutations_reach_every_error_branch(self):
        """The generator's lines reach each message the parser can give."""
        seen = set()

        @settings(max_examples=800, deadline=None, database=None, derandomize=True)
        @given(line=mutated_line())
        def collect(line):
            got = outcome(reference_parse, [line], CATALOG_AB)
            if isinstance(got, str):
                seen.add(got.split("<stream>:1: ", 1)[1])

        collect()
        for message in ["not valid JSON", "record is not an object", "missing keys",
                        "turn_index must be a non-negative integer",
                        "labels must be an array of strings", "labels not in catalog or excluded set",
                        "conversation_id must be a non-empty string", "unknown speaker",
                        corpus_mod.TIMESTAMP_ERROR, "text must be a string"]:
            assert any(got.startswith(message) for got in seen), message


class TestRoundTrip:
    def test_unknown_keys_preserved(self, catalog_ab):
        stream = io.StringIO(record_line("c1", 0, "participant", 0.0, "x", ["a"], note="keepme"))
        convs = parse_transcripts(stream, catalog_ab)
        assert convs[0].turns[0].extra == {"note": "keepme"}
        text = serialize_transcripts(convs)
        assert json.loads(text)["note"] == "keepme"
        again = parse_transcripts(io.StringIO(text), catalog_ab)
        assert again == convs

    def test_non_finite_extra_not_written(self, catalog_ab):
        (conv,) = parse_transcripts(
            io.StringIO(record_line("c1", 0, "participant", 0.0, "x", ["a"], note=1.5)), catalog_ab
        )
        conv.turns[0].extra["note"] = float("nan")
        with pytest.raises(ValueError, match="not JSON compliant"):
            serialize_transcripts([conv])

    label_strategy = st.frozensets(st.sampled_from(["a", "b", "setup"]), max_size=3)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["participant", "assistant"]),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.text(min_size=1, max_size=20).filter(lambda s: s.strip()),
                label_strategy,
            ),
            min_size=0,
            max_size=8,
        )
    )
    def test_parse_serialize_round_trip(self, rows):
        catalog = LabelCatalog(labels=("a", "b"), excluded=frozenset({"setup"}))
        ordered = sorted(rows, key=lambda r: r[1])
        conv = make_conversation("c1", ordered)
        text = serialize_transcripts([conv])
        parsed = parse_transcripts(io.StringIO(text), catalog)
        assert parsed == ([conv] if conv.turns else [])


class TestValidate:
    def test_non_monotone_timestamp(self):
        conv = make_conversation(
            "c1",
            [("participant", 0.0, "x", ["a"]), ("assistant", 5.0, "y", []),
             ("participant", 3.0, "z", ["a"])],
        )
        report = validate([conv])
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.invariant == "monotone_timestamp" and v.turn_index == 2

    def test_all_valid_empty_report(self):
        conv = make_conversation("c1", [("participant", 0.0, "x", ["a"])])
        assert validate([conv]).ok

    def test_whitespace_text(self):
        conv = make_conversation("c1", [("participant", 0.0, "   ", ["a"])])
        report = validate([conv])
        assert [v.invariant for v in report.violations] == ["empty_text"]

    def test_index_gap(self):
        conv = make_conversation("c1", [("participant", 0.0, "x", ["a"])])
        conv.turns[0].turn_index = 3
        report = validate([conv])
        assert [v.invariant for v in report.violations] == ["contiguous_index"]


class TestStats:
    def test_multi_label_counts(self, catalog_ab):
        conv = make_conversation(
            "c1", [("participant", 0.0, "x", ["a"]), ("participant", 1.0, "y", ["a", "b"])]
        )
        stats = corpus_stats([conv], catalog_ab)
        assert stats.label_counts == {"a": 2, "b": 1}
        assert stats.turn_count == 2

    def test_empty_corpus(self, catalog_ab):
        stats = corpus_stats([], catalog_ab)
        assert stats.conversation_count == 0
        assert stats.turn_count == 0
        assert all(v == 0 for v in stats.label_counts.values())

    def test_excluded_counted_separately(self, catalog_ab):
        conv = make_conversation("c1", [("participant", 0.0, "x", ["setup", "a"])])
        stats = corpus_stats([conv], catalog_ab)
        assert stats.label_counts["a"] == 1
        assert stats.excluded_label_counts["setup"] == 1

    def test_counts_sum_to_label_set_cardinality(self, catalog_ab):
        convs = [
            make_conversation(
                "c1",
                [("participant", 0.0, "x", ["a", "b"]), ("assistant", 1.0, "y", ["b"]),
                 ("participant", 2.0, "z", ["setup"])],
            )
        ]
        stats = corpus_stats(convs, catalog_ab)
        expected = sum(
            len(t.labels & catalog_ab.label_set) for c in convs for t in c.turns
        )
        assert sum(stats.label_counts.values()) == expected


class TestSelect:
    def test_participant_only(self, catalog_ab):
        conv = make_conversation(
            "c1",
            [("participant", 0.0, "q", ["a"]), ("assistant", 1.0, "r", ["b"])],
        )
        assert select_examples([conv], catalog_ab) == [("c1", 0)]

    def test_excluded_only_turn_dropped(self, catalog_ab):
        conv = make_conversation("c1", [("participant", 0.0, "q", ["setup"])])
        assert select_examples([conv], catalog_ab) == []

    def test_no_participants(self, catalog_ab):
        conv = make_conversation("c1", [("assistant", 0.0, "r", ["a"])])
        assert select_examples([conv], catalog_ab) == []

    def test_selection_is_subset_with_labels(self, catalog_ab):
        conv = make_conversation(
            "c1",
            [("participant", 0.0, "q", ["a", "setup"]), ("participant", 1.0, "u", []),
             ("assistant", 2.0, "r", ["a"])],
        )
        chosen = select_examples([conv], catalog_ab)
        all_ids = {(conv.conversation_id, t.turn_index) for t in conv.turns}
        assert set(chosen) <= all_ids
        for cid, idx in chosen:
            turn = conv.turns[idx]
            assert turn.speaker == "participant"
            assert turn.labels & catalog_ab.label_set

    def test_modeling_examples_strip_excluded(self, catalog_ab):
        conv = make_conversation("c1", [("participant", 0.0, "q", ["a", "setup"])])
        (ex,) = modeling_examples([conv], catalog_ab)
        assert ex.labels == frozenset({"a"})
        assert ex.turn.text == "q"

    def test_turn_index_gaps_select_by_position(self, catalog_ab):
        # an unvalidated corpus, as load_transcripts gives it
        lines = [record_line("c1", 0, "participant", 0.0, "q", ["a"]),
                 record_line("c1", 2, "assistant", 1.0, "r", ["b"]),
                 record_line("c1", 3, "participant", 2.0, "u", ["b", "setup"]),
                 record_line("c2", 0, "assistant", 0.0, "hi"),
                 record_line("c2", 5, "participant", 1.0, "v", ["a"])]
        conversations = parse_transcripts(lines, catalog_ab)
        assert select_examples(conversations, catalog_ab) == [("c1", 0), ("c1", 3), ("c2", 5)]
        examples = modeling_examples(conversations, catalog_ab)
        assert [(ex.conversation.conversation_id, ex.turn.turn_index, ex.turn.text, ex.labels)
                for ex in examples] == [("c1", 0, "q", frozenset({"a"})),
                                        ("c1", 3, "u", frozenset({"b"})),
                                        ("c2", 5, "v", frozenset({"a"}))]


def test_offsets_from_absolute():
    conv = make_conversation(
        "c1", [("participant", 1700000000.0, "x", ["a"]), ("assistant", 1700000004.5, "y", [])]
    )
    (rebased,) = offsets_from_absolute([conv])
    assert [t.timestamp_s for t in rebased.turns] == [0.0, 4.5]
    assert offsets_from_absolute([Conversation("e", [])]) == [Conversation("e", [])]
