import pytest

import numpy as np

from jrme.data import (
    Belief,
    IdMap,
    PackedBeliefs,
    Vocabulary,
    count_beliefs,
    format_stats,
    load_dataset,
    parse_belief_file,
    tokenize_mention,
)
from jrme.errors import ConfigError, DataError, ParseError


class TestIdMap:
    def test_ids_are_dense_and_stable(self):
        m = IdMap()
        assert m.add("a") == 0
        assert m.add("b") == 1
        assert m.add("a") == 0
        assert len(m) == 2
        assert m.names[1] == "b"
        assert m.names == ["a", "b"]
        assert m.get("a") == 0 and m.get("c") is None
        assert m.get("c") is None

    def test_repeated_name_rejected(self):
        with pytest.raises(DataError, match="repeats the name 'b'"):
            IdMap(["a", "b", "c", "b"])
        with pytest.raises(DataError, match="'words' repeats the name 'w'"):
            Vocabulary(["x"], ["r"], ["w", "w"])

    def test_from_names_round_trip(self):
        v = Vocabulary(["x", "y"], ["likes"], ["w1", "w2", "w3"])
        assert v.entities.get("y") == 1
        assert v.relations.get("likes") == 0
        assert len(v.words) == 3


class TestTokenize:
    def test_lowercases_and_splits_on_whitespace(self):
        assert tokenize_mention("Is The  Mayor\tOf") == ["is", "the", "mayor", "of"]

    def test_keeps_duplicates(self):
        assert tokenize_mention("very very good") == ["very", "very", "good"]

    def test_empty_and_blank(self):
        assert tokenize_mention("") == []
        assert tokenize_mention("   ") == []


class TestParse:
    def _write(self, tmp_path, text):
        p = tmp_path / "beliefs.tsv"
        p.write_text(text, encoding="utf-8")
        return p

    def test_build_mode_registers_everything(self, tmp_path):
        p = self._write(
            tmp_path,
            "caroline\tatheletePlaysForTeam\tsteelers\tplays linebacker for\n"
            "caroline\tatheleteWonAward\tmvp\t\n",
        )
        vocab = Vocabulary()
        result = parse_belief_file(p, vocab, mode="build")
        assert [b.head for b in result.beliefs] == [0, 0]
        assert result.beliefs[0].mention == (0, 1, 2)
        assert result.beliefs[1].mention == ()
        assert result.rejected == 0
        assert len(vocab.entities) == 3
        assert len(vocab.relations) == 2
        assert len(vocab.words) == 3

    def test_comment_lines_skipped(self, tmp_path):
        p = self._write(tmp_path, "# header\na\tr\tb\tx\n")
        result = parse_belief_file(p, Vocabulary(), mode="build")
        assert len(result.beliefs) == 1

    def test_wrong_column_count_names_the_line(self, tmp_path):
        p = self._write(tmp_path, "a\tr\tb\tx\na\tr\tb\n")
        with pytest.raises(ParseError) as err:
            parse_belief_file(p, Vocabulary(), mode="build")
        assert ":2:" in str(err.value)
        assert "4" in str(err.value)

    def test_frozen_mode_rejects_unknown_symbols(self, tmp_path):
        train = self._write(tmp_path, "a\tr\tb\thello world\n")
        vocab = Vocabulary()
        parse_belief_file(train, vocab, mode="build")
        test = tmp_path / "test.tsv"
        test.write_text(
            "a\tr\tb\thello novel\n"  # unknown word dropped, belief kept
            "a\tUNKNOWN\tb\thello\n"  # unknown relation: rejected
            "ghost\tr\tb\t\n",  # unknown entity: rejected
            encoding="utf-8",
        )
        result = parse_belief_file(test, vocab, mode="frozen")
        assert result.rejected == 2
        assert len(result.beliefs) == 1
        assert result.beliefs[0].mention == (0,)

    def test_frozen_reparse_of_training_file_rejects_nothing(self, tmp_path):
        p = self._write(tmp_path, "a\tr1\tb\tx y\nb\tr2\tc\tz\n")
        vocab = Vocabulary()
        built = parse_belief_file(p, vocab, mode="build")
        frozen = parse_belief_file(p, vocab, mode="frozen")
        assert frozen.rejected == 0
        assert list(frozen.beliefs) == list(built.beliefs)

    def test_byte_order_mark_is_not_part_of_the_first_entity(self, tmp_path):
        text = "caroline\tcitylocatedinstate\tmaryland\tCounty and State of\n"
        plain, marked = Vocabulary(), Vocabulary()
        want = parse_belief_file(self._write(tmp_path, text), plain).beliefs
        got = parse_belief_file(self._write(tmp_path, "\ufeff" + text), marked).beliefs
        for name in PackedBeliefs.__slots__:
            assert getattr(got, name).tolist() == getattr(want, name).tolist()
        for kind in ("entities", "relations", "words"):
            assert getattr(marked, kind).names == getattr(plain, kind).names
        assert marked.entities.names[0] == "caroline"

    def test_unknown_mode_rejected(self, tmp_path):
        p = self._write(tmp_path, "")
        with pytest.raises(ConfigError):
            parse_belief_file(p, Vocabulary(), mode="lenient")


def assert_packed(p, heads, relations, tails, mention_off, mention_flat):
    for got, want in (
        (p.heads, heads), (p.relations, relations), (p.tails, tails),
        (p.mention_off, mention_off), (p.mention_flat, mention_flat),
    ):
        assert got.dtype == np.int64 and got.ndim == 1
        assert got.tolist() == want


class TestPackedParse:
    """The parser's arrays, worked out by hand from the file text."""

    def _write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def test_comments_empty_mentions_and_repeated_words(self, tmp_path):
        p = self._write(
            tmp_path, "train.tsv",
            "# entities a b c, relations r q, words x y\n"
            "a\tr\tb\tX y x\n"
            "b\tq\ta\t\n"
            "#a\tr\tb\tz\n"
            "a\tq\tc\ty\n",
        )
        vocab = Vocabulary()
        result = parse_belief_file(p, vocab, mode="build")
        assert result.rejected == 0
        assert_packed(result.beliefs, [0, 1, 0], [0, 1, 1], [1, 0, 2], [0, 3, 3, 4], [0, 1, 0, 1])
        assert (vocab.entities.names, vocab.relations.names, vocab.words.names) == (
            ["a", "b", "c"], ["r", "q"], ["x", "y"]
        )

    def test_frozen_mode_rejects_lines_and_drops_unknown_words(self, tmp_path):
        vocab = Vocabulary()
        parse_belief_file(self._write(tmp_path, "train.tsv", "a\tr\tb\tx y\n"), vocab, "build")
        test = self._write(
            tmp_path, "test.tsv",
            "a\tr\tb\tz x z y\n"  # kept, z dropped twice
            "a\tnope\tb\tx\n"  # unknown relation
            "ghost\tr\tb\t\n"  # unknown head
            "b\tr\ta\tz\n",  # kept, mention empties out
        )
        result = parse_belief_file(test, vocab, mode="frozen")
        assert result.rejected == 2
        assert_packed(result.beliefs, [0, 1], [0, 0], [1, 0], [0, 2, 2], [0, 1])
        assert (len(vocab.entities), len(vocab.relations), len(vocab.words)) == (2, 1, 2)

    def test_empty_file_packs_no_beliefs(self, tmp_path):
        result = parse_belief_file(self._write(tmp_path, "e.tsv", "# nothing\n"), Vocabulary())
        assert len(result.beliefs) == 0
        assert_packed(result.beliefs, [], [], [], [0], [])

    def test_column_error_names_its_line_after_comments(self, tmp_path):
        p = self._write(tmp_path, "bad.tsv", "# c\na\tr\tb\tx\na\tr\tb\tx\textra\n")
        with pytest.raises(ParseError) as err:
            parse_belief_file(p, Vocabulary(), mode="build")
        assert ":3:" in str(err.value)
        assert "got 5" in str(err.value)

    def test_parser_and_from_beliefs_agree(self, tmp_path):
        p = self._write(tmp_path, "t.tsv", "a\tr\tb\tx x y\nb\tq\ta\t\nc\tr\ta\ty\n")
        parsed = parse_belief_file(p, Vocabulary()).beliefs
        beliefs = [Belief(0, 0, 1, (0, 0, 1)), Belief(1, 1, 0, ()), Belief(2, 0, 0, (1,))]
        assert list(parsed) == beliefs
        packed = PackedBeliefs.from_beliefs(beliefs)
        for name in PackedBeliefs.__slots__:
            assert getattr(packed, name).tolist() == getattr(parsed, name).tolist()


class TestPackedBeliefs:
    def test_indexing_returns_beliefs_and_bounds_checks(self):
        beliefs = [Belief(0, 1, 2, (3, 3)), Belief(1, 0, 0, ()), Belief(2, 1, 1, (0,))]
        p = PackedBeliefs.from_beliefs(beliefs)
        assert [p[i] for i in range(3)] == beliefs
        assert p[-1] == beliefs[-1]
        with pytest.raises(IndexError):
            p[3]

    def test_default_is_empty(self):
        assert len(PackedBeliefs()) == 0
        assert not PackedBeliefs()
        assert_packed(PackedBeliefs.from_beliefs([]), [], [], [], [0], [])


class TestLoadDataset:
    def test_three_split_load(self, tmp_path):
        (tmp_path / "train.tsv").write_text("a\tr1\tb\tx\nb\tr2\tc\ty\n")
        (tmp_path / "valid.tsv").write_text("a\tr1\tc\tx\n")
        (tmp_path / "test.tsv").write_text("a\tr1\tb\t\nnew\tr1\tb\t\n")
        ds, vocab, rejected = load_dataset(
            tmp_path / "train.tsv", tmp_path / "valid.tsv", tmp_path / "test.tsv"
        )
        assert (len(ds.train), len(ds.valid), len(ds.test)) == (2, 1, 1)
        assert rejected == {"train": 0, "valid": 0, "test": 1}
        counts, stats_vocab, stats_rejected = count_beliefs(
            tmp_path / "train.tsv", tmp_path / "valid.tsv", tmp_path / "test.tsv"
        )
        assert counts == {"train": len(ds.train), "valid": len(ds.valid), "test": len(ds.test)}
        assert stats_rejected == rejected
        for kind in ("entities", "relations", "words"):
            assert getattr(stats_vocab, kind).names == getattr(vocab, kind).names
        column = [line.split()[-1] for line in format_stats(vocab, counts).splitlines()]
        assert column == ["3", "2", "2", "1", "1"]

    def test_missing_file_surfaces_as_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "nope.tsv")


class TestStatsFormat:
    def test_counts_are_comma_formatted(self):
        vocab = Vocabulary([f"e{i}" for i in range(29904)], [f"r{i}" for i in range(233)])
        text = format_stats(vocab, {"train": 57356, "valid": 10710, "test": 10711})
        assert "#(ENTITIES)" in text
        assert "29,904" in text
        assert "233" in text
        assert "57,356" in text
        assert "10,710" in text and "10,711" in text
        assert len(text.splitlines()) == 5
