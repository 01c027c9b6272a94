import dataclasses
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechacts.corpus import (
    MAX_CONVERSATION_ID,
    CatalogError,
    Conversation,
    LabelCatalog,
    TranscriptError,
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
