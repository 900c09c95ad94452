import numpy as np
import pytest

from jrme.data import Belief, PackedBeliefs
from jrme.embeddings import EmbeddingTable
from jrme.errors import DataError
from jrme.evaluation import (
    EvalReport,
    candidate_scores,
    evaluate,
    format_report,
    summarize_ranks,
    write_ranks_tsv,
)
from jrme.kernels import RANK_BLOCK
from synth_data import make_vocab, random_table

pack = PackedBeliefs.from_beliefs


def oracle_rank(scores, true_id):
    """Stable sort by (score, relation id); 1-indexed position of truth."""
    order = sorted(range(len(scores)), key=lambda i: (scores[i], i))
    return order.index(true_id) + 1


def rank_from_scores(scores, true_id):
    """`oracle_rank` counted instead of sorted: 1 + #(lower scores) + #(equal
    scores at smaller ids).  It also holds where no sort order exists,
    since a nan compares false with everything."""
    s_true = scores[true_id]
    return 1 + sum(1 for s in scores if s < s_true) + sum(
        1 for i, s in enumerate(scores) if s == s_true and i < true_id
    )


def random_beliefs(rng, n, n_entities, n_relations, n_words, max_mention=3):
    return [
        Belief(
            int(rng.integers(n_entities)),
            int(rng.integers(n_relations)),
            int(rng.integers(n_entities)),
            tuple(int(w) for w in rng.integers(n_words, size=rng.integers(max_mention + 1))),
        )
        for _ in range(n)
    ]


class TestSummarize:
    def test_fixed_multiset_is_exact(self):
        avg, hit10, hit1 = summarize_ranks([1, 3, 20])
        assert avg == 8.0
        assert hit10 == 2 / 3
        assert hit1 == 1 / 3

    def test_single_perfect_rank(self):
        assert summarize_ranks([1]) == (1.0, 1.0, 1.0)

    def test_boundary_rank_10_counts_as_hit(self):
        _, hit10, _ = summarize_ranks([10, 11])
        assert hit10 == 0.5

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            summarize_ranks([])


def rank_of(table, belief, variant):
    """The rank `evaluate` gives one belief's true relation."""
    (rank,) = evaluate(table, pack([belief]), variant).ranks
    return rank


class TestRankTrueRelation:
    """The rank `evaluate` gives the true relation, against the stable sort
    of `candidate_scores`."""

    def test_middle_scoring_truth_ranks_second(self):
        # three relations scoring 0.2 / 0.5 / 0.1 with truth first: rank 2
        t = EmbeddingTable(
            np.zeros((1, 1)),
            np.array([[np.sqrt(0.2)], [np.sqrt(0.5)], [np.sqrt(0.1)]]),
            np.zeros((1, 1)),
        )
        b = Belief(0, 0, 0, ())
        scores = candidate_scores(t, 0, 0, (), "kre")
        np.testing.assert_allclose(scores, [0.2, 0.5, 0.1])
        assert oracle_rank(list(scores), 0) == 2
        assert rank_of(t, b, "kre") == 2

    def test_strictly_best_is_rank_1(self, rng):
        vocab = make_vocab(5, 6, 4)
        t = random_table(vocab, 3, rng)
        b = Belief(0, 2, 1, (0,))
        # make the true relation an exact translation with a strongly
        # aligned mention word: strictly best on both terms
        t.relation_vecs[2] = t.entity_vecs[1] - t.entity_vecs[0]
        t.word_vecs[0] = 100.0 * t.relation_vecs[2]
        assert rank_of(t, b, "jrme") == 1

    def test_all_tie_smallest_id_wins(self, rng):
        vocab = make_vocab(4, 7, 2)
        t = random_table(vocab, 3, rng)
        t.relation_vecs[:] = t.relation_vecs[0]
        beliefs = [Belief(1, true_id, 2, (0, 1)) for true_id in (0, 3, 6)]
        assert evaluate(t, pack(beliefs), "jrme").ranks == (1, 4, 7)

    def test_agrees_with_stable_sort_oracle(self, rng):
        for _ in range(50):
            n_rel = int(rng.integers(2, 12))
            vocab = make_vocab(5, n_rel, 4)
            t = random_table(vocab, 4, rng)
            b = random_beliefs(rng, 1, 5, n_rel, 4)[0]
            for variant in ("kre", "tme", "jrme"):
                scores = candidate_scores(t, b.head, b.tail, b.mention, variant)
                assert rank_of(t, b, variant) == oracle_rank(list(scores), b.relation)
                assert rank_from_scores(list(scores), b.relation) == rank_of(t, b, variant)

    def test_constant_score_shift_leaves_rank_unchanged(self, rng):
        vocab = make_vocab(5, 8, 4)
        t = random_table(vocab, 4, rng)
        beliefs = random_beliefs(rng, 20, 5, 8, 4)
        expected = []
        for b in beliefs:
            scores = list(candidate_scores(t, b.head, b.tail, b.mention, "jrme"))
            shifted = [s + 123.456 for s in scores]
            assert rank_from_scores(scores, b.relation) == rank_from_scores(shifted, b.relation)
            expected.append(rank_from_scores(scores, b.relation))
        assert list(evaluate(t, pack(beliefs), "jrme").ranks) == expected

    def test_id_bounds_checked(self, rng):
        vocab = make_vocab(3, 2, 2)
        t = random_table(vocab, 3, rng)
        with pytest.raises(IndexError):
            evaluate(t, pack([Belief(3, 0, 0, ())]), "kre")
        with pytest.raises(IndexError):
            evaluate(t, pack([Belief(0, 2, 0, ())]), "kre")
        with pytest.raises(IndexError):
            candidate_scores(t, 3, 0, (), "kre")
        with pytest.raises(IndexError):
            candidate_scores(t, 0, 0, (5,), "tme")


class TestEvaluate:
    def _setup(self, rng, n=40, n_rel=9):
        vocab = make_vocab(6, n_rel, 5)
        t = random_table(vocab, 4, rng)
        beliefs = random_beliefs(rng, n, 6, n_rel, 5)
        return t, beliefs

    def test_report_matches_per_belief_ranks(self, rng):
        # more than two ranking blocks, the last one partial
        t, beliefs = self._setup(rng, n=2 * RANK_BLOCK + 13)
        for variant in ("kre", "tme", "jrme"):
            report = evaluate(t, pack(beliefs), variant)
            expected = [
                oracle_rank(list(candidate_scores(t, b.head, b.tail, b.mention, variant)), b.relation)
                for b in beliefs
            ]
            assert report.ranks == tuple(expected)
            assert all(type(r) is int for r in report.ranks)
            avg, hit10, hit1 = summarize_ranks(expected)
            assert (report.avg_rank, report.hit_at_10, report.hit_at_1) == (avg, hit10, hit1)

    def test_invariant_bounds(self, rng):
        t, beliefs = self._setup(rng)
        report = evaluate(t, pack(beliefs), "jrme")
        assert report.hit_at_1 <= report.hit_at_10
        assert 1.0 <= report.avg_rank <= t.n_relations
        assert report.n_examples == len(beliefs)

    def test_rank_does_not_depend_on_block_position(self, rng):
        t, beliefs = self._setup(rng, n=2 * RANK_BLOCK + 5)
        for variant in ("kre", "tme", "jrme"):
            whole = evaluate(t, pack(beliefs), variant).ranks
            # shifting the split moves every belief to another block offset
            for skip in (1, RANK_BLOCK - 1, RANK_BLOCK + 3):
                tail = evaluate(t, pack(beliefs[skip:]), variant).ranks
                assert tail == whole[skip:]

    def test_kre_ignores_word_table_and_tme_ignores_entities(self, rng):
        t, beliefs = self._setup(rng)
        base_kre = evaluate(t, pack(beliefs), "kre")
        base_tme = evaluate(t, pack(beliefs), "tme")
        scrambled = t.copy()
        scrambled.word_vecs += rng.normal(size=t.word_vecs.shape)
        assert evaluate(scrambled, pack(beliefs), "kre") == base_kre
        scrambled = t.copy()
        scrambled.entity_vecs += rng.normal(size=t.entity_vecs.shape)
        assert evaluate(scrambled, pack(beliefs), "tme") == base_tme

    def test_empty_split_rejected(self, rng):
        t, _ = self._setup(rng)
        with pytest.raises(DataError):
            evaluate(t, pack([]), "jrme")

    def test_single_perfect_belief(self, rng):
        vocab = make_vocab(3, 4, 2)
        t = random_table(vocab, 3, rng)
        t.relation_vecs[1] = t.entity_vecs[2] - t.entity_vecs[0]
        report = evaluate(t, pack([Belief(0, 1, 2, ())]), "kre")
        assert report.avg_rank == 1.0
        assert report.hit_at_10 == 1.0
        assert report.hit_at_1 == 1.0


class TestReportOutput:
    def test_format_contains_metrics_and_kv_block(self):
        report = EvalReport(6.2, 0.878, 0.602, (1,) * 5)
        text = format_report(report, "JRME")
        assert "approach" in text and "JRME" in text
        assert "6.20" in text
        assert "87.8%" in text and "60.2%" in text
        assert "avg_rank=6.2" in text
        assert "hit_at_10=0.878" in text
        assert "n_examples=5" in text

    def test_ranks_tsv_round_trip(self, rng, tmp_path):
        vocab = make_vocab(4, 5, 3)
        t = random_table(vocab, 3, rng)
        beliefs = random_beliefs(rng, 12, 4, 5, 3)
        report = evaluate(t, pack(beliefs), "jrme")
        path = tmp_path / "ranks.tsv"
        write_ranks_tsv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index\trank"
        parsed = [tuple(int(v) for v in line.split("\t")) for line in lines[1:]]
        assert parsed == list(enumerate(report.ranks))

    def test_failed_ranks_write_keeps_the_old_file(self, tmp_path):
        def ranks():
            yield from [1, 4]
            raise OSError("disk full")

        path = tmp_path / "ranks.tsv"
        path.write_text("index\trank\n0\t2\n")
        with pytest.raises(OSError, match="disk full"):
            write_ranks_tsv(EvalReport(2.5, 1.0, 0.5, ranks()), path)
        assert path.read_text() == "index\trank\n0\t2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ranks.tsv"]
