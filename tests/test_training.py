import copy
import io
import math
import re
import sys

import numpy as np
import pytest

from jrme.config import (
    VARIANTS, ModelConfig, grid_configs, negatives_per_example, step_bound, variant_flags,
    variant_margin,
)
from jrme.data import Dataset, PackedBeliefs
from jrme.embeddings import EmbeddingTable, init_embeddings
from jrme.errors import ConfigError, DataError, TrainingDivergedError
from jrme.training import (
    _sample_negative_rows, enum_negative_table, grid_search, max_row_norm, run_epoch, train,
)
from reference import (
    Belief, belief_at, example_loss, mention_distance, pack, random_beliefs,
    table_from, tables_equal, triple_distance,
)
from synth_data import make_vocab, random_table, text_signal_dataset


def sgd_step(table, belief, negatives, variant, config):
    """One example's update against `negatives`, in place, through the epoch
    kernel `train` runs; returns its loss.  All active terms are taken
    against pre-step values and applied as one update, entities
    renormalized afterwards when the config says so."""
    loss, _, bad = run_epoch(
        table.entity_vecs, table.relation_vecs, table.word_vecs,
        pack([belief]), np.zeros(1, dtype=np.int64),
        negatives.reshape(1, -1), False, config.learning_rate,
        variant_margin(variant, config), *variant_flags(variant), config.normalize_entities,
    )
    assert bad == -1
    return loss


class TestVariants:
    def test_flags(self):
        assert variant_flags("kre") == (True, False)
        assert variant_flags("tme") == (False, True)
        assert variant_flags("jrme") == (True, True)
        with pytest.raises(ConfigError, match=r"unknown variant 'kme', expected one of "
                           r"\('kre', 'tme', 'jrme'\)"):
            variant_flags("kme")

    def test_margins(self):
        cfg = ModelConfig(alpha=0.3, beta=0.7, gamma=1.9)
        assert variant_margin("kre", cfg) == 0.3
        assert variant_margin("tme", cfg) == 0.7
        assert variant_margin("jrme", cfg) == 1.9
        with pytest.raises(ConfigError, match="unknown variant 'kme'"):
            variant_margin("kme", cfg)


class TestEnumTable:
    def test_rows_exclude_self_and_ascend(self):
        for n in (1, 2, 5, 30, 233, 500):
            t = enum_negative_table(n)
            assert t.dtype == np.int64 and t.flags.c_contiguous
            assert t.tolist() == [[x for x in range(n) if x != r] for r in range(n)]


# (relations, k): rejection of whole rows, the first-k-of-a-shuffle path
# taken when a row of k draws rarely comes out distinct, and a row with a
# single other id to take
SAMPLER_CASES = [(20, 3), (8, 5), (8, 7), (2, 1)]


class TestSampleNegativeRows:
    @pytest.mark.parametrize("n_relations,k", SAMPLER_CASES)
    def test_rows_are_distinct_and_exclude_own_relation(self, rng, n_relations, k):
        rels = rng.integers(n_relations, size=500)
        rows = _sample_negative_rows(rels, n_relations, k, rng)
        assert rows.shape == (500, k) and rows.dtype == np.int64
        assert rows.flags.c_contiguous
        assert ((rows >= 0) & (rows < n_relations)).all()
        assert (rows != rels[:, None]).all()
        assert all(len(set(row)) == k for row in rows.tolist())

    @pytest.mark.parametrize("n_relations,k", SAMPLER_CASES)
    def test_same_seed_same_rows(self, n_relations, k):
        rels = np.arange(300) % n_relations

        def draw(seed):
            return _sample_negative_rows(rels, n_relations, k, np.random.default_rng(seed))

        np.testing.assert_array_equal(draw(7), draw(7))
        # only a row with a single other id is the same for every seed
        assert np.array_equal(draw(7), draw(8)) == (n_relations == 2)

    @pytest.mark.parametrize("n_relations,k", SAMPLER_CASES[:2])
    def test_other_ids_drawn_uniformly(self, rng, n_relations, k):
        n, own = 20000, 2
        rows = _sample_negative_rows(np.full(n, own), n_relations, k, rng)
        counts = np.bincount(rows.ravel(), minlength=n_relations)
        assert counts[own] == 0
        expected = n * k / (n_relations - 1)
        # about six standard deviations of a binomial count
        np.testing.assert_allclose(np.delete(counts, own), expected, rtol=0.1)


class TestStepBound:
    def test_counts_negatives_per_example(self):
        assert step_bound(ModelConfig(learning_rate=0.01), 201) == pytest.approx(2.0)
        assert step_bound(ModelConfig(learning_rate=0.1, neg_mode="sample:5"), 201) == 0.5
        assert negatives_per_example(ModelConfig(neg_mode="sample:200"), 201) == 200

    def test_oversized_sample_rejected(self):
        for n_relations, k in ((4, 4), (4, 9)):
            with pytest.raises(ConfigError, match=f"^cannot sample {k} distinct negatives "
                                                  f"from 3 other relations$"):
                negatives_per_example(ModelConfig(neg_mode=f"sample:{k}"), n_relations)
        for neg_mode in ("all", "sample:1"):
            with pytest.raises(ConfigError, match="^need at least 2 relations"):
                negatives_per_example(ModelConfig(neg_mode=neg_mode), 1)


class TestExampleLosses:
    def test_kre_hand_values(self):
        # positive triple is an exact translation; negatives at distance
        # 0.5 and 5.0 under a margin of 1
        t = table_from(
            [[0.0, 0.0], [1.0, 0.0]],
            [[1.0, 0.0], [1.0, np.sqrt(0.5)], [1.0, np.sqrt(5.0)]],
            [[0.0, 0.0]],
        )
        b = Belief(0, 0, 1, ())
        loss, active = example_loss(t, b, [1], "kre", 1.0)
        assert loss == pytest.approx(0.5)
        assert active == [1]
        loss, active = example_loss(t, b, [2], "kre", 1.0)
        assert loss == 0.0
        assert active == []

    def test_kre_zero_margin_identical_negative_is_inactive(self):
        t = table_from([[0.0, 0.0], [1.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0]])
        loss, active = example_loss(t, Belief(0, 0, 1, ()), [1], "kre", 0.0)
        assert loss == 0.0
        assert active == []

    def test_tme_hand_value(self):
        # r=(1,0), r'=(0,1), m=(0,5): term = 1 + 0 - (-5) = 6
        t = table_from([[0.0, 0.0]] * 2, [[1.0, 0.0], [0.0, 1.0]], [[0.0, 5.0]])
        loss, active = example_loss(t, Belief(0, 0, 1, (0,)), [1], "tme", 1.0)
        assert loss == pytest.approx(6.0)
        assert active == [1]

    def test_tme_empty_mention_is_margin_times_negatives(self, rng):
        t = table_from(rng.normal(size=(4, 3)), rng.normal(size=(6, 3)), rng.normal(size=(5, 3)))
        b = Belief(0, 2, 3, ())
        negs = enum_negative_table(6)[2]
        for beta in (0.0, 1.0, 1.7):
            loss, active = example_loss(t, b, negs, "tme", beta)
            assert loss == beta * len(negs)
            assert active == (list(negs) if beta > 0 else [])

    def test_tme_zero_margin_identical_relation_inactive(self):
        t = table_from([[0.0]] * 2, [[2.0], [2.0]], [[3.0]])
        loss, active = example_loss(t, Belief(0, 0, 1, (0,)), [1], "tme", 0.0)
        assert loss == 0.0
        assert active == []

    def test_jrme_hand_value_negative_term_clamps(self):
        # D_r(pos)=0, D_r(neg)=1, D_m(pos)=-3, D_m(neg)=0, gamma=2:
        # 2 + 0 - 1 - 3 - 0 = -2, clamped to 0
        t = table_from(
            [[0.0, 0.0], [1.0, 0.0]],
            [[1.0, 0.0], [1.0, 1.0]],
            [[3.0, -3.0]],
        )
        b = Belief(0, 0, 1, (0,))
        assert triple_distance(t, 0, 0, 1) == 0.0
        assert triple_distance(t, 0, 1, 1) == 1.0
        assert mention_distance(t, 0, (0,)) == -3.0
        assert mention_distance(t, 1, (0,)) == 0.0
        loss, active = example_loss(t, b, [1], "jrme", 2.0)
        assert loss == 0.0
        assert active == []

    def test_jrme_empty_mention_equals_kre_with_its_margin(self, rng):
        for _ in range(100):
            n_rel = int(rng.integers(2, 8))
            t = table_from(
                rng.normal(size=(5, 4)), rng.normal(size=(n_rel, 4)), rng.normal(size=(3, 4))
            )
            r = int(rng.integers(n_rel))
            b = Belief(int(rng.integers(5)), r, int(rng.integers(5)), ())
            negs = enum_negative_table(n_rel)[r]
            gamma = float(rng.uniform(0, 3))
            jl, ja = example_loss(t, b, negs, "jrme", gamma)
            kl, ka = example_loss(t, b, negs, "kre", gamma)
            assert jl == kl
            assert ja == ka

    def test_zero_vector_words_also_reduce_to_kre(self, rng):
        t = table_from(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), np.zeros((2, 3)))
        b = Belief(0, 1, 2, (0, 1, 0))
        negs = enum_negative_table(4)[1]
        jl, _ = example_loss(t, b, negs, "jrme", 1.3)
        kl, _ = example_loss(t, Belief(0, 1, 2, ()), negs, "kre", 1.3)
        assert jl == kl

    def test_loss_nonnegative_and_zero_iff_no_active(self, rng):
        for _ in range(60):
            t = table_from(
                rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
            )
            r = int(rng.integers(5))
            mention = tuple(int(w) for w in rng.integers(4, size=rng.integers(3)))
            b = Belief(int(rng.integers(4)), r, int(rng.integers(4)), mention)
            negs = enum_negative_table(5)[r]
            variant = VARIANTS[int(rng.integers(3))]
            loss, active = example_loss(t, b, negs, variant, float(rng.uniform(0, 2)))
            assert loss >= 0.0
            assert (loss == 0.0) == (len(active) == 0)

    def test_empty_negative_list_rejected(self, rng):
        t = table_from(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((1, 2)))
        with pytest.raises(ConfigError):
            example_loss(t, Belief(0, 0, 1, ()), [], "kre", 1.0)


class TestSgdStep:
    def _setup(self, rng, d=4):
        vocab = make_vocab(6, 5, 7)
        return random_table(vocab, d, rng, scale=0.8), vocab

    def test_no_active_terms_leaves_table_bit_identical(self, rng):
        t = table_from([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [9.0, 9.0]], [[0.0, 0.0]])
        before = copy.deepcopy(t)
        cfg = ModelConfig(dim=2, alpha=1.0)
        loss = sgd_step(t, Belief(0, 0, 1, ()), enum_negative_table(2)[0], "kre", cfg)
        assert loss == 0.0
        assert tables_equal(t, before)

    def test_repeated_word_gets_twice_the_update(self, rng):
        # a large margin keeps every term active for both mention sizes,
        # and the per-occurrence word update does not depend on the
        # mention vector itself
        table, vocab = self._setup(rng)
        cfg = ModelConfig(dim=4, beta=100.0, normalize_entities=False)
        single = copy.deepcopy(table)
        double = copy.deepcopy(table)
        negs = enum_negative_table(5)[1]
        sgd_step(single, Belief(0, 1, 2, (3,)), negs, "tme", cfg)
        sgd_step(double, Belief(0, 1, 2, (3, 3)), negs, "tme", cfg)
        single_update = single.word_vecs[3] - table.word_vecs[3]
        double_update = double.word_vecs[3] - table.word_vecs[3]
        np.testing.assert_allclose(double_update, 2.0 * single_update, rtol=1e-9)

    def test_normalization_flag_controls_entity_norms(self, rng):
        """`kre` renormalizes the entities it moved only with the flag on,
        and `tme` leaves them bit-identical even then; each moves the
        relation table and leaves the other term's table alone."""
        table, _ = self._setup(rng)
        b = Belief(1, 2, 4, (0, 5))
        negs = enum_negative_table(5)[2]
        for variant, normalize in (("kre", True), ("kre", False), ("tme", True)):
            cfg = ModelConfig(dim=4, alpha=10.0, beta=10.0, normalize_entities=normalize)
            after = copy.deepcopy(table)
            assert sgd_step(after, b, negs, variant, cfg) > 0.0
            assert not (after.relation_vecs == table.relation_vecs).all()
            untouched = {"kre": "word_vecs", "tme": "entity_vecs"}[variant]
            assert (getattr(after, untouched) == getattr(table, untouched)).all()
            if variant == "kre":
                norms = np.linalg.norm(after.entity_vecs[[1, 4]], axis=1)
                if normalize:
                    np.testing.assert_allclose(norms, 1.0, rtol=1e-12)
                else:
                    assert not np.allclose(norms, 1.0, rtol=1e-6)

    def test_sample_mode_uses_rng(self, rng):
        # the caller draws the row from its generator, as train does, and
        # the step scores exactly that row
        table, vocab = self._setup(rng)
        cfg = ModelConfig(dim=4, neg_mode="sample:2")
        b = Belief(0, 1, 2, (3,))
        negs = _sample_negative_rows(np.array([b.relation]), 5, 2, rng)[0]
        loss_ref, _ = example_loss(table, b, negs, "jrme", cfg.gamma)
        assert sgd_step(table, b, negs, "jrme", cfg) == pytest.approx(loss_ref, rel=1e-12)


def tiny_dataset(rng, n=60, n_entities=8, n_relations=4, n_words=6):
    beliefs = random_beliefs(rng, n, n_entities, n_relations, n_words, max_mention=2)
    cut = max(1, n // 4)
    return Dataset(pack(beliefs[cut:]), valid=pack(beliefs[:cut])), make_vocab(
        n_entities, n_relations, n_words
    )


class TestTrain:
    def test_zero_epochs_returns_initialized_table(self, rng):
        ds, vocab = tiny_dataset(rng)
        cfg = ModelConfig(dim=6, epochs=0, seed=4)
        table, reports = train(ds, vocab, cfg, "jrme")
        assert reports == []
        assert tables_equal(table, init_embeddings(vocab, cfg))

    def test_same_seed_is_bit_identical(self, rng):
        ds, vocab = tiny_dataset(rng)
        for variant, neg_mode in (("jrme", "all"), ("kre", "sample:2")):
            cfg = ModelConfig(dim=6, epochs=4, seed=21, neg_mode=neg_mode)
            t1, r1 = train(ds, vocab, cfg, variant)
            t2, r2 = train(ds, vocab, cfg, variant)
            assert tables_equal(t1, t2), variant
            assert [(r.loss, r.active) for r in r1] == [(r.loss, r.active) for r in r2]

    def test_different_variants_differ(self, rng):
        ds, vocab = tiny_dataset(rng)
        cfg = ModelConfig(dim=6, epochs=2, seed=0)
        t_kre, _ = train(ds, vocab, cfg, "kre")
        t_tme, _ = train(ds, vocab, cfg, "tme")
        assert not (t_kre.relation_vecs == t_tme.relation_vecs).all()

    def test_progress_lines_are_machine_parseable(self, rng):
        ds, vocab = tiny_dataset(rng)
        out = io.StringIO()
        train(ds, vocab, ModelConfig(dim=4, epochs=3, seed=0), "kre", log=out)
        lines = out.getvalue().splitlines()
        assert len(lines) == 3
        pattern = re.compile(r"^epoch=(\d+) loss=([0-9eE.+-]+) active=(\d+)$")
        for i, line in enumerate(lines):
            m = pattern.match(line)
            assert m, line
            assert int(m.group(1)) == i
            assert float(m.group(2)) >= 0.0

    def test_mean_loss_matches_pure_reference_for_one_epoch(self, rng):
        # one epoch, so kernel-side losses are all computed against the
        # same shuffled visit order the pure functions can replay
        ds, vocab = tiny_dataset(rng, n=20)
        cfg = ModelConfig(dim=5, epochs=1, seed=13, normalize_entities=False)
        table, reports = train(ds, vocab, cfg, "jrme")

        replay = init_embeddings(vocab, cfg)
        order_rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed & ((1 << 64) - 1), spawn_key=(1,))
        )
        order = order_rng.permutation(len(ds.train))
        neg_table = enum_negative_table(len(vocab.relations))
        total = 0.0
        for i in order:
            b = belief_at(ds.train, int(i))
            total += sgd_step(replay, b, neg_table[b.relation], "jrme", cfg)
        assert reports[0].loss == pytest.approx(total / len(ds.train), rel=1e-9)
        assert tables_equal(table, replay)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_example_named(self, rng):
        ds, vocab = tiny_dataset(rng, n=10)
        cfg = ModelConfig(dim=4, epochs=50, seed=0, learning_rate=1e150)
        with pytest.raises(TrainingDivergedError) as err:
            train(ds, vocab, cfg, "kre")
        assert re.match(r"non-finite value at epoch \d+, training example \d+ ", str(err.value))

    def test_mean_loss_past_the_limit_stops_training(self, rng, monkeypatch):
        import jrme.training as training

        ds, vocab = tiny_dataset(rng)
        cfg = ModelConfig(dim=4, epochs=1, seed=0)
        _, (first,) = train(ds, vocab, cfg, "jrme")
        assert first.max_norm < first.loss
        monkeypatch.setattr(training, "DIVERGENCE_LIMIT", (first.max_norm + first.loss) / 2)
        with pytest.raises(TrainingDivergedError, match="diverged at epoch 0"):
            train(ds, vocab, cfg, "jrme")

    def test_row_norm_past_the_limit_stops_training(self, rng, monkeypatch):
        import jrme.training as training

        ds, _ = tiny_dataset(rng)
        vocab = make_vocab(8, 4, 7)  # word 6 is in no mention, so the loss never sees it
        real_init = training.init_embeddings

        def init_with_far_word(vocab, config):
            table = real_init(vocab, config)
            table.word_vecs[6] = 1e7
            return table

        monkeypatch.setattr(training, "init_embeddings", init_with_far_word)
        with pytest.raises(TrainingDivergedError, match="diverged at epoch 0"):
            train(ds, vocab, ModelConfig(dim=4, epochs=1), "jrme")

    @pytest.mark.parametrize("kind", range(3), ids=["entity", "relation", "word"])
    def test_max_row_norm_is_nan_when_a_table_holds_a_nan(self, kind):
        tables = [np.ones((3, 3)) for _ in range(3)]
        assert max_row_norm(EmbeddingTable(*tables)) == pytest.approx(math.sqrt(3))
        tables[kind][1, 2] = np.nan
        assert math.isnan(max_row_norm(EmbeddingTable(*tables)))

    def test_nan_word_row_stops_training(self, rng, monkeypatch):
        import jrme.training as training

        ds, vocab = tiny_dataset(rng)
        real_epoch = training.run_epoch

        def epoch_leaving_a_nan_word(entity, relation, word, *rest):
            result = real_epoch(entity, relation, word, *rest)
            word[0, 0] = np.nan  # a row the kernel's own checks never read
            return result

        monkeypatch.setattr(training, "run_epoch", epoch_leaving_a_nan_word)
        with pytest.raises(TrainingDivergedError, match="diverged at epoch 0"):
            train(ds, vocab, ModelConfig(dim=4, epochs=1), "tme")

    def test_empty_train_split_rejected(self, rng):
        _, vocab = tiny_dataset(rng)
        with pytest.raises(DataError):
            train(Dataset(PackedBeliefs()), vocab, ModelConfig(dim=4, epochs=1), "kre")

    def test_single_relation_vocab_rejected(self, rng):
        ds, _ = tiny_dataset(rng, n_relations=1)
        vocab = make_vocab(8, 1, 6)
        with pytest.raises(ConfigError):
            train(ds, vocab, ModelConfig(dim=4, epochs=1), "kre")

    def test_thread_count_below_one_rejected(self, rng):
        ds, vocab = tiny_dataset(rng)
        with pytest.raises(ConfigError, match="n_threads"):
            train(ds, vocab, ModelConfig(dim=4, epochs=1), "kre", n_threads=0)

    def test_threaded_training_runs_and_stays_finite(self, rng):
        ds, vocab = tiny_dataset(rng, n=120)
        cfg = ModelConfig(dim=6, epochs=3, seed=2)
        table, reports = train(ds, vocab, cfg, "jrme", n_threads=3)
        for vecs in (table.entity_vecs, table.relation_vecs, table.word_vecs):
            assert np.isfinite(vecs).all()
        assert len(reports) == 3

    def test_threaded_shards_cover_every_example_once(self, rng):
        # more threads than cores, switching often; a step too small to move
        # any value keeps the tables fixed, so every shard's hinge terms are
        # those of the single-threaded pass and a lost or doubled shard shows
        ds, vocab = tiny_dataset(rng, n=400)
        cfg = ModelConfig(dim=6, epochs=2, seed=2, learning_rate=1e-300)
        _, single = train(ds, vocab, cfg, "jrme")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, threaded = train(ds, vocab, cfg, "jrme", n_threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert [r.active for r in threaded] == [r.active for r in single]
        for a, b in zip(threaded, single):
            assert a.loss == pytest.approx(b.loss, rel=1e-12)

    @pytest.mark.parametrize("neg_mode,n_threads", [("sample:2", 1), ("sample:2", 3), ("all", 1)])
    def test_each_example_gets_distinct_negatives_other_than_its_relation(
            self, rng, monkeypatch, neg_mode, n_threads):
        """Every epoch call hands each example of its order a negative row of
        distinct ids without the example's own relation, the tables on
        which the two kernels agree in semantics."""
        import jrme.training as training

        ds, vocab = tiny_dataset(rng, n=120)
        real_epoch = training.run_epoch
        calls = []

        def recording_epoch(*args):
            calls.append(args[4:7])  # order, neg_table, neg_by_relation
            return real_epoch(*args)

        monkeypatch.setattr(training, "run_epoch", recording_epoch)
        cfg = ModelConfig(dim=4, epochs=2, seed=3, neg_mode=neg_mode)
        train(ds, vocab, cfg, "jrme", n_threads=n_threads)
        assert len(calls) == cfg.epochs * n_threads
        rels = ds.train.relations
        for order, neg_table, by_relation in calls:
            for pos, i in enumerate(order):
                row = neg_table[rels[i]] if by_relation else neg_table[pos]
                assert len(set(row)) == len(row) and rels[i] not in row, (pos, i, row)

    def test_separable_text_dataset_reaches_perfect_hit_at_1(self):
        from jrme.evaluation import evaluate

        ds, vocab = text_signal_dataset(n_beliefs=400, n_relations=5, n_entities=30, seed=1)
        cfg = ModelConfig(dim=10, epochs=20, seed=0)
        table, _ = train(ds, vocab, cfg, "tme")
        report = evaluate(table, ds.valid, "tme")
        assert report.hit_at_1 == 1.0


class TestGridSearch:
    def _data(self, rng):
        ds, vocab = tiny_dataset(rng, n=40)
        return ds, vocab

    def test_single_point_grid_returns_it(self, rng):
        ds, vocab = self._data(rng)
        configs = grid_configs(ModelConfig(epochs=1, seed=0), [4], [1.0], [1.0], [2.0])
        points, best = grid_search(ds, vocab, configs, "jrme")
        assert points == [best]
        config, report = best
        assert config.dim == 4
        assert report.avg_rank >= 1.0

    def test_identical_metrics_tie_break_lexicographic(self, rng):
        ds, vocab = self._data(rng)
        # zero epochs: metrics depend only on the init, which ignores
        # margins, so every point ties and the smallest config must win
        configs = grid_configs(ModelConfig(epochs=0, seed=7), [4], [2.0, 0.5], [1.0], [9.0, 2.0])
        points, (config, _) = grid_search(ds, vocab, configs, "jrme")
        assert len(points) == 4
        assert len({r.avg_rank for _, r in points}) == 1
        assert config.alpha == 0.5
        assert config.gamma == 2.0

    def test_best_is_argmin_of_documented_key(self, rng):
        ds, vocab = self._data(rng)
        configs = grid_configs(ModelConfig(epochs=2, seed=3), [2, 6], [0.5, 1.0], [1.0], [2.0])
        points, (_, best) = grid_search(ds, vocab, configs, "jrme")
        keys = [(r.avg_rank, -r.hit_at_10, -r.hit_at_1) for _, r in points]
        assert (best.avg_rank, -best.hit_at_10, -best.hit_at_1) == min(keys)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            grid_configs(ModelConfig(), [], [1.0], [1.0], [2.0])

    def test_missing_validation_split_rejected(self, rng):
        ds, vocab = tiny_dataset(rng)
        ds.valid = PackedBeliefs()
        configs = grid_configs(ModelConfig(epochs=1), [4], [1.0], [1.0], [2.0])
        with pytest.raises(DataError):
            grid_search(ds, vocab, configs, "jrme")

    @pytest.mark.parametrize("variant, field", [("kre", "alpha"), ("tme", "beta"), ("jrme", "gamma")])
    def test_trains_once_per_dim_and_read_margin(self, rng, monkeypatch, variant, field):
        import jrme.training as training

        ds, vocab = self._data(rng)
        calls = []
        real_train = training.train

        def counting_train(dataset, vocab, config, variant, **kw):
            calls.append((config.dim, getattr(config, field)))
            return real_train(dataset, vocab, config, variant, **kw)

        monkeypatch.setattr(training, "train", counting_train)
        configs = grid_configs(
            ModelConfig(epochs=1, seed=5), [2, 4], [0.5, 1.0], [0.25, 3.0], [1.5, 2.0])
        points, _ = training.grid_search(ds, vocab, configs, variant)
        assert len(points) == 16
        distinct = {(c.dim, getattr(c, field)) for c, _ in points}
        assert len(distinct) == 4
        assert sorted(calls) == sorted(distinct)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_point_reports_its_own_training(self, rng, variant):
        from itertools import product

        from jrme.evaluation import evaluate

        ds, vocab = self._data(rng)
        grid = ([2, 4], [0.5, 1.0], [0.25, 3.0], [1.5, 2.0])
        points, _ = grid_search(ds, vocab, grid_configs(ModelConfig(epochs=2, seed=11), *grid),
                                variant)
        assert [(c.dim, c.alpha, c.beta, c.gamma) for c, _ in points] == list(product(*grid))
        for config, report in points:
            table, _ = train(ds, vocab, config, variant)
            assert report == evaluate(table, ds.valid, variant)


def test_benchmark_workloads_stay_far_below_the_divergence_limit(tmp_path, monkeypatch):
    """Every corpus and training setting the benchmark runs peaks at a mean
    loss and row norm at least 1000x below the limit that stops training."""
    from itertools import product
    from pathlib import Path

    from jrme.data import load_dataset
    from jrme.training import DIVERGENCE_LIMIT

    bench = Path(__file__).resolve().parents[1] / "jrmebench"
    monkeypatch.setattr(sys, "path", [str(bench), *sys.path])
    from corpus import write
    from run import WORKLOADS

    for w in WORKLOADS.values():
        paths = write(w.corpus, 1, tmp_path / w.name)
        ds, vocab, _ = load_dataset(paths["train"])
        if w.grid:
            dims = [int(d) for d in w.grid["dims"].split(",")]
            gammas = [float(g) for g in w.grid["gammas"].split(",")]
        else:
            dims, gammas = [w.dim], [ModelConfig().gamma]
        for dim, gamma in product(dims, gammas):
            config = ModelConfig(dim=dim, gamma=gamma, learning_rate=w.lr, epochs=w.epochs,
                                 neg_mode=w.neg, seed=1)
            _, reports = train(ds, vocab, config, "jrme")
            peak = max(max(r.loss, r.max_norm) for r in reports)
            assert peak < DIVERGENCE_LIMIT / 1000, (w.name, dim, gamma, peak)
