import pytest

import numpy as np

from jrme.data import (
    PackedBeliefs,
    Vocabulary,
    count_beliefs,
    format_stats,
    load_dataset,
    parse_belief_file,
    tokenize_mention,
)
from jrme.errors import ConfigError, DataError, ParseError
from reference import Belief, belief_at, unpack


class TestVocabulary:
    def test_ids_are_dense_and_stable(self, tmp_path):
        # heads and tails share one namespace: a and b come from the first
        # line, c as a head, a again as a tail, d as a tail
        p = tmp_path / "beliefs.tsv"
        p.write_text("a\tr\tb\tx\nc\tq\ta\ty x\nb\tr\td\t\n")
        vocab = Vocabulary()
        beliefs = parse_belief_file(p, vocab, mode="build").beliefs
        assert vocab.entities == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert beliefs.heads.tolist() == [0, 2, 1] and beliefs.tails.tolist() == [1, 0, 3]
        assert len(vocab.relations) == 2
        assert list(vocab.relations)[1] == "q"
        assert list(vocab.words) == ["x", "y"]
        assert vocab.words.get("x") == 0 and vocab.words.get("z") is None
        assert vocab.entities.get("e") is None

    def test_repeated_name_rejected(self):
        with pytest.raises(DataError, match="'entities' repeats the name 'b'"):
            Vocabulary(["a", "b", "c", "b"])
        with pytest.raises(DataError, match="'relations' repeats the name 'b'"):
            Vocabulary(["a", "b"], ["a", "b", "c", "b", "c"])
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
            "caroline\tatheleteWonAward\tmvp\t\n"
            "lions\tteamPlaysAgainstTeam\tbears\tPlays against\n"  # new head, then new tail
            "detroit\tcityLocatedIn\tdetroit\t\n",  # the tail is its own new head
        )
        vocab = Vocabulary()
        result = parse_belief_file(p, vocab, mode="build")
        assert [b.head for b in unpack(result.beliefs)] == [0, 0, 3, 5]
        assert [b.tail for b in unpack(result.beliefs)] == [1, 2, 4, 5]
        assert [b.relation for b in unpack(result.beliefs)] == [0, 1, 2, 3]
        assert belief_at(result.beliefs, 0).mention == (0, 1, 2)
        assert belief_at(result.beliefs, 1).mention == ()
        assert belief_at(result.beliefs, 2).mention == (0, 3)
        assert result.rejected == 0
        assert list(vocab.entities) == ["caroline", "steelers", "mvp", "lions", "bears", "detroit"]
        assert len(vocab.relations) == 4
        assert list(vocab.words) == ["plays", "linebacker", "for", "against"]
        assert all(type(d) is dict for d in (vocab.entities, vocab.relations, vocab.words))

    def test_frozen_reparse_of_training_file_rejects_nothing(self, tmp_path):
        p = self._write(tmp_path, "a\tr1\tb\tx y\nb\tr2\tc\tz\n")
        vocab = Vocabulary()
        built = parse_belief_file(p, vocab, mode="build")
        frozen = parse_belief_file(p, vocab, mode="frozen")
        assert frozen.rejected == 0
        assert unpack(frozen.beliefs) == unpack(built.beliefs)

    def test_byte_order_mark_is_not_part_of_the_first_entity(self, tmp_path):
        # nor is a CRLF line ending part of the last column
        text = ("caroline\tcitylocatedinstate\tmaryland\tCounty and State of\n"
                "maryland\tstatehascapital\tannapolis\t\n")
        plain = Vocabulary()
        want = parse_belief_file(self._write(tmp_path, text), plain).beliefs
        for variant in ("\ufeff" + text, text.replace("\n", "\r\n")):
            vocab = Vocabulary()
            got = parse_belief_file(self._write(tmp_path, variant), vocab).beliefs
            for name in PackedBeliefs.__slots__:
                assert getattr(got, name).tolist() == getattr(want, name).tolist()
            for kind in ("entities", "relations", "words"):
                assert list(getattr(vocab, kind)) == list(getattr(plain, kind))

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
        assert (list(vocab.entities), list(vocab.relations), list(vocab.words)) == (
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
            "b\tr\tghost\tx\n"  # unknown tail
            "b\tr\ta\ty z x\n"  # kept, the known words in their order
            "b\tr\ta\tz\n",  # kept, mention empties out
        )
        result = parse_belief_file(test, vocab, mode="frozen")
        assert result.rejected == 3
        assert_packed(result.beliefs, [0, 1, 1], [0, 0, 0], [1, 0, 0], [0, 2, 4, 4], [0, 1, 1, 0])
        assert (list(vocab.entities), list(vocab.relations), list(vocab.words)) == (
            ["a", "b"], ["r"], ["x", "y"]
        )

    def test_empty_file_packs_no_beliefs(self, tmp_path):
        result = parse_belief_file(self._write(tmp_path, "e.tsv", "# nothing\n"), Vocabulary())
        assert len(result.beliefs) == 0
        assert_packed(result.beliefs, [], [], [], [0], [])

    def test_column_error_names_its_line_after_comments(self, tmp_path):
        # a long line after a comment, and a short one
        for text, line, got in (("# c\na\tr\tb\tx\na\tr\tb\tx\textra\n", 3, 5),
                                ("a\tr\tb\tx\na\tr\tb\n", 2, 3)):
            p = self._write(tmp_path, "bad.tsv", text)
            with pytest.raises(ParseError) as err:
                parse_belief_file(p, Vocabulary(), mode="build")
            assert str(err.value) == f"{p}:{line}: expected 4 tab-separated columns, got {got}"


class TestPackedBeliefs:
    def test_indexing_returns_beliefs_and_bounds_checks(self):
        beliefs = [Belief(0, 1, 2, (3, 3)), Belief(1, 0, 0, ()), Belief(2, 1, 1, (0,))]
        p = PackedBeliefs.from_beliefs(beliefs)
        assert_packed(p, [0, 1, 2], [1, 0, 1], [2, 0, 1], [0, 2, 2, 3], [3, 3, 0])
        assert [belief_at(p, i) for i in range(3)] == beliefs
        assert belief_at(p, -1) == beliefs[-1]
        with pytest.raises(IndexError):
            belief_at(p, 3)

    def test_default_is_empty(self):
        assert len(PackedBeliefs()) == 0
        assert not PackedBeliefs()
        assert_packed(PackedBeliefs.from_beliefs([]), [], [], [], [0], [])
        # and beliefs whose mentions are all empty hold no word
        empty = [Belief(0, 0, 1, ()), Belief(1, 0, 0, ())]
        assert_packed(PackedBeliefs.from_beliefs(empty), [0, 1], [0, 0], [1, 0], [0, 0, 0], [])


class TestLoadDataset:
    def test_three_split_load(self, tmp_path):
        (tmp_path / "train.tsv").write_text("a\tr1\tb\tx\nb\tr2\tc\ty\n")
        (tmp_path / "valid.tsv").write_text("a\tr1\tc\tx\n")
        (tmp_path / "test.tsv").write_text("a\tr1\tb\t\nnew\tr1\tb\t\n")
        ds, vocab, rejected = load_dataset(tmp_path / "train.tsv", tmp_path / "valid.tsv")
        assert (len(ds.train), len(ds.valid)) == (2, 1)
        assert rejected == {"train": 0, "valid": 0}
        # only stats reads a test split
        counts, stats_vocab, stats_rejected = count_beliefs(
            tmp_path / "train.tsv", tmp_path / "valid.tsv", tmp_path / "test.tsv"
        )
        assert counts == {"train": len(ds.train), "valid": len(ds.valid), "test": 1}
        assert stats_rejected == {**rejected, "test": 1}
        for kind in ("entities", "relations", "words"):
            assert list(getattr(stats_vocab, kind)) == list(getattr(vocab, kind))
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
