import copy
import os
import subprocess
import sys
import threading
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import jrme
import jrme.kernels
from jrme.config import VARIANTS, variant_flags
from jrme.data import Belief
from jrme.evaluation import candidate_scores
from jrme.kernels import (
    BACKEND,
    RANK_BLOCK,
    PackedBeliefs,
    _epoch_c,
    _epoch_numpy,
    enum_negative_table,
    rank_all,
    relation_scores,
    run_epoch,
    top_k,
    top_relations,
)
from jrme.scoring import mention_distance, triple_distance
from jrme.training import _sample_negative_rows
from synth_data import make_vocab, random_table
from test_evaluation import oracle_rank

needs_c = pytest.mark.skipif(BACKEND != "c", reason="the C kernel did not build here")


def random_packed(rng, n, n_entities, n_relations, n_words, max_mention=4):
    beliefs = []
    for _ in range(n):
        mention = tuple(int(w) for w in rng.integers(n_words, size=rng.integers(max_mention + 1)))
        beliefs.append(
            Belief(int(rng.integers(n_entities)), int(rng.integers(n_relations)),
                   int(rng.integers(n_entities)), mention)
        )
    return PackedBeliefs.from_beliefs(beliefs), beliefs


class TestPacking:
    def test_offsets_and_flat_words(self):
        beliefs = [Belief(0, 1, 2, (3, 3)), Belief(1, 0, 0, ()), Belief(2, 1, 1, (0,))]
        p = PackedBeliefs.from_beliefs(beliefs)
        assert len(p) == 3
        np.testing.assert_array_equal(p.heads, [0, 1, 2])
        np.testing.assert_array_equal(p.mention_off, [0, 2, 2, 3])
        np.testing.assert_array_equal(p.mention_flat, [3, 3, 0])
        assert p.mention_flat.dtype == np.int64

    def test_all_empty_mentions(self):
        p = PackedBeliefs.from_beliefs([Belief(0, 0, 1, ()), Belief(1, 0, 0, ())])
        assert p.mention_flat.shape == (0,)
        np.testing.assert_array_equal(p.mention_off, [0, 0, 0])


class TestEnumTable:
    def test_rows_exclude_self_and_ascend(self):
        t = enum_negative_table(5)
        assert t.shape == (5, 4)
        for r in range(5):
            row = list(t[r])
            assert r not in row
            assert row == sorted(row)
            assert set(row) == set(range(5)) - {r}

    def test_degenerate_single_relation(self):
        assert enum_negative_table(1).shape == (1, 0)


def _epoch_args(rng, n=40, d=6, n_entities=12, n_relations=7, n_words=9):
    vocab = make_vocab(n_entities, n_relations, n_words)
    table = random_table(vocab, d, rng, scale=0.5)
    packed, _ = random_packed(rng, n, n_entities, n_relations, n_words)
    order = rng.permutation(n).astype(np.int64)
    negs = enum_negative_table(n_relations)
    return table, packed, order, negs


class TestBackendAgreement:
    """The C kernel and the numpy twin implement identical update rules;
    only summation order may differ, so comparisons allow
    float-reassociation noise."""

    @needs_c
    @pytest.mark.parametrize("use_kg,use_text", [(True, False), (False, True), (True, True)])
    def test_epoch_numpy_matches_loops(self, rng, use_kg, use_text):
        for neg_by_relation, normalize, trial in product((True, False), (True, False), range(3)):
            table, packed, order, negs = _epoch_args(rng)
            if not neg_by_relation:
                negs = _sample_negative_rows(packed.relations[order], 7, 3, rng)
            args = (packed, order, negs, neg_by_relation, 0.01, 1.0, use_kg, use_text, normalize)
            ta = copy.deepcopy(table)
            tb = copy.deepcopy(table)
            la, aa, bada = _epoch_c(ta.entity_vecs, ta.relation_vecs, ta.word_vecs, *args)
            lb, ab, badb = _epoch_numpy(tb.entity_vecs, tb.relation_vecs, tb.word_vecs, *args)
            assert aa == ab
            assert bada == badb == -1
            assert la == pytest.approx(lb, rel=1e-10)
            np.testing.assert_allclose(ta.entity_vecs, tb.entity_vecs, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(ta.relation_vecs, tb.relation_vecs, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(ta.word_vecs, tb.word_vecs, rtol=1e-9, atol=1e-12)

    @needs_c
    def test_run_epoch_runs_the_c_kernel(self, rng):
        table, packed, order, negs = _epoch_args(rng, n=15)
        ta = copy.deepcopy(table)
        tb = copy.deepcopy(table)
        la, aa, _ = run_epoch(
            ta.entity_vecs, ta.relation_vecs, ta.word_vecs,
            packed, order, negs, True, 0.01, 1.5, True, True, True,
        )
        lb, ab, _ = _epoch_c(
            tb.entity_vecs, tb.relation_vecs, tb.word_vecs,
            packed, order, negs, True, 0.01, 1.5, True, True, True,
        )
        assert (la, aa) == (lb, ab)
        np.testing.assert_array_equal(ta.relation_vecs, tb.relation_vecs)
        np.testing.assert_array_equal(ta.entity_vecs, tb.entity_vecs)
        np.testing.assert_array_equal(ta.word_vecs, tb.word_vecs)


def _rank_case(rng, n):
    table = random_table(make_vocab(12, 7, 9), 6, rng, scale=0.5)
    packed, beliefs = random_packed(rng, n, 12, 7, 9)
    return table, packed, beliefs


def _oracle_ranks(table, beliefs, variant):
    return [
        oracle_rank(list(candidate_scores(table, b.head, b.tail, b.mention, variant)), b.relation)
        for b in beliefs
    ]


class TestRanking:
    """rank_all against the brute-force sort of every candidate's score."""

    def test_rank_all_matches_oracle(self, rng):
        for trial in range(10):
            table, packed, beliefs = _rank_case(rng, 30)
            for variant in ("kre", "tme", "jrme"):
                use_kg, use_text = variant_flags(variant)
                ranks = rank_all(table.entity_vecs, table.relation_vecs, table.word_vecs,
                                 packed, use_kg, use_text)
                np.testing.assert_array_equal(ranks, _oracle_ranks(table, beliefs, variant))

    def test_rank_all_matches_oracle_on_forced_ties(self, rng):
        # within one block, and across several with a partial last block
        for n in (20, 2 * RANK_BLOCK + 7):
            table, packed, beliefs = _rank_case(rng, n)
            table.relation_vecs[:] = table.relation_vecs[0]
            ranks = rank_all(
                table.entity_vecs, table.relation_vecs, table.word_vecs, packed, True, True)
            np.testing.assert_array_equal(ranks, _oracle_ranks(table, beliefs, "jrme"))
            # with every score tied, rank is the id-order position
            np.testing.assert_array_equal(ranks, packed.relations + 1)

    def test_block_row_is_bitwise_the_single_belief_score(self, rng):
        # wide enough that a BLAS product blocks its work and rounds a
        # row differently alone than inside a block
        n, n_rel, d = RANK_BLOCK, 120, 100
        table = random_table(make_vocab(12, n_rel, 9), d, rng)
        packed, beliefs = random_packed(rng, n, 12, n_rel, 9)
        lo, hi = 5, n - 3
        rows = PackedBeliefs(packed.heads[lo:hi], packed.relations[lo:hi], packed.tails[lo:hi],
                             packed.mention_off[lo : hi + 1], packed.mention_flat)
        for variant in ("kre", "tme", "jrme"):
            use_kg, use_text = variant_flags(variant)
            block = relation_scores(
                table.entity_vecs, table.relation_vecs, table.word_vecs, rows, use_kg, use_text)
            for i in range(lo + 1, hi):
                b = beliefs[i]
                alone = candidate_scores(table, b.head, b.tail, b.mention, variant)
                assert alone.tobytes() == block[i - lo].tobytes(), (variant, i)

    def test_relation_scores_match_reference_scoring(self, rng):
        table, packed, beliefs = _rank_case(rng, 25)
        scores = relation_scores(
            table.entity_vecs, table.relation_vecs, table.word_vecs, packed, True, True)
        expected = [
            [triple_distance(table, b.head, r, b.tail) + mention_distance(table, r, b.mention)
             for r in range(7)]
            for b in beliefs
        ]
        np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=1e-12)


class TestBandedRanking:
    """rank_all scores with BLAS and rescores near ties exactly; on inputs
    built to sit inside or break its error band it must still equal the
    per-belief exact rank for every variant."""

    D = 100  # wide enough that GEMM splits its work into tiles

    def _case(self, rng, n, n_rel, mention=True):
        table = random_table(make_vocab(30, n_rel, 20), self.D, rng)
        packed, beliefs = random_packed(rng, n, 30, n_rel, 20, max_mention=4 if mention else 0)
        return table, packed, beliefs

    def _assert_exact(self, table, packed, beliefs):
        for variant in VARIANTS:
            ranks = rank_all(table.entity_vecs, table.relation_vecs, table.word_vecs,
                             packed, *variant_flags(variant))
            expected = [
                oracle_rank(candidate_scores(table, b.head, b.tail, b.mention, variant), b.relation)
                for b in beliefs
            ]
            np.testing.assert_array_equal(ranks, expected, err_msg=variant)

    def test_relation_rows_one_ulp_apart(self, rng):
        table, packed, beliefs = self._case(rng, RANK_BLOCK + 40, 60)
        rel = table.relation_vecs
        rel[:] = rel[0]
        for i in range(1, 60, 2):
            j = i % self.D
            rel[i, j] = np.nextafter(rel[i, j], np.inf if i % 4 == 1 else -np.inf)
        self._assert_exact(table, packed, beliefs)

    def test_forced_equal_rows_across_block_edges(self, rng):
        for n in (RANK_BLOCK - 1, RANK_BLOCK + 1, 2 * RANK_BLOCK + 7):
            table, packed, beliefs = self._case(rng, n, 120)
            rel = table.relation_vecs
            rel[3::3] = rel[0]  # 40 equal rows spread over the table
            self._assert_exact(table, packed, beliefs)

    def _tme_rows_rescored(self, table, packed, monkeypatch):
        """(tme ranks, rows rank_all handed the exact scorer)."""
        rescored = []
        exact_scores = jrme.kernels._exact_scores

        def counting(q, *args):
            rescored.append(len(q))
            return exact_scores(q, *args)

        with monkeypatch.context() as m:
            m.setattr(jrme.kernels, "_exact_scores", counting)
            ranks = rank_all(
                table.entity_vecs, table.relation_vecs, table.word_vecs, packed, False, True)
        return ranks, sum(rescored)

    def test_tme_empty_mentions_rank_by_id(self, rng, monkeypatch):
        table, packed, beliefs = self._case(rng, RANK_BLOCK + 9, 50, mention=False)
        assert packed.mention_flat.size == 0
        ranks, rescored = self._tme_rows_rescored(table, packed, monkeypatch)
        np.testing.assert_array_equal(ranks, packed.relations + 1)
        assert rescored == 0
        self._assert_exact(table, packed, beliefs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_tme_empty_mentions_with_an_inf_band_are_rescored(self, rng, monkeypatch):
        # an inf relation row makes every band inf: the exact scorer ranks
        # its nan scores (0 * inf) after every number
        table, packed, beliefs = self._case(rng, 40, 50, mention=False)
        table.relation_vecs[7, 3] = np.inf
        ranks, rescored = self._tme_rows_rescored(table, packed, monkeypatch)
        assert rescored == len(packed)
        np.testing.assert_array_equal(ranks, np.where(
            packed.relations < 7, packed.relations + 1,
            np.where(packed.relations == 7, 50, packed.relations)))
        self._assert_exact(table, packed, beliefs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_entity_rows(self, rng):
        table, packed, beliefs = self._case(rng, 90, 40)
        table.entity_vecs[3, 7] = np.inf
        table.entity_vecs[5, 0] = -np.inf
        table.entity_vecs[8, 11] = np.nan
        touched = np.isin(packed.heads, [3, 5, 8]) | np.isin(packed.tails, [3, 5, 8])
        assert touched.any() and not touched.all()
        self._assert_exact(table, packed, beliefs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_row_norms_near_1e150(self, rng):
        # 1e150 keeps every score finite; 1e155 overflows q.r'
        for scale in (1e150, 1e155):
            table, packed, beliefs = self._case(rng, 70, 50)
            for t in (table.entity_vecs, table.relation_vecs, table.word_vecs):
                t *= scale / np.linalg.norm(t, axis=1, keepdims=True)
            table.relation_vecs[10] = table.relation_vecs[20]
            self._assert_exact(table, packed, beliefs)


class TestBandedTopK:
    """top_relations rescores exactly only the candidates the GEMM band
    cannot rule out; on inputs built to sit inside or break the band its
    ids and scores must equal `top_k` of the exact scores, bit for bit,
    for every variant and k."""

    def _case(self, rng, n, n_rel, d, mention=True):
        table = random_table(make_vocab(30, n_rel, 20), d, rng)
        packed, _ = random_packed(rng, n, 30, n_rel, 20, max_mention=4 if mention else 0)
        return table, packed

    def _assert_exact(self, table, packed):
        tables = (table.entity_vecs, table.relation_vecs, table.word_vecs)
        n_rel = table.relation_vecs.shape[0]
        for variant in VARIANTS:
            flags = variant_flags(variant)
            scores = relation_scores(*tables, packed, *flags)
            for k in (1, 3, 10, n_rel, n_rel + 5):
                ids, values = top_relations(*tables, packed, *flags, k)
                expected = top_k(scores, k)
                np.testing.assert_array_equal(ids, expected, err_msg=f"{variant} k={k}")
                want = np.take_along_axis(scores, expected, axis=1)
                assert values.tobytes() == want.tobytes(), (variant, k)

    @pytest.mark.parametrize("d", [1, 7, 100, 101])
    def test_random_tables(self, rng, d):
        table, packed = self._case(rng, RANK_BLOCK + 9, 60, d)
        self._assert_exact(table, packed)

    @pytest.mark.parametrize("d", [1, 7, 100, 101])
    def test_duplicate_and_one_ulp_apart_rows(self, rng, d):
        table, packed = self._case(rng, 70, 60, d)
        rel = table.relation_vecs
        rel[3::3] = rel[0]  # 20 equal rows, tied in every score
        for i in range(1, 60, 6):
            rel[i] = rel[0]
            rel[i, i % d] = np.nextafter(rel[i, i % d], np.inf if i % 4 == 1 else -np.inf)
        self._assert_exact(table, packed)

    def test_tme_empty_mentions(self, rng):
        table, packed = self._case(rng, 50, 40, 100, mention=False)
        assert packed.mention_flat.size == 0
        ids, _ = top_relations(table.entity_vecs, table.relation_vecs, table.word_vecs,
                               packed, False, True, 5)
        np.testing.assert_array_equal(ids, np.broadcast_to(np.arange(5), (50, 5)))
        self._assert_exact(table, packed)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_rows(self, rng):
        for kind, value in product(("entity", "relation", "word"), (np.inf, np.nan)):
            table, packed = self._case(rng, 60, 40, 100)
            vecs = getattr(table, f"{kind}_vecs")
            vecs[3, 7] = value
            vecs[5, 0] = -value
            self._assert_exact(table, packed)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_row_norms_near_overflow(self, rng):
        # 1e150 keeps every score finite; 1e155 overflows q.r'
        for scale in (1e150, 1e155):
            table, packed = self._case(rng, 70, 50, 100)
            for t in (table.entity_vecs, table.relation_vecs, table.word_vecs):
                t *= scale / np.linalg.norm(t, axis=1, keepdims=True)
            table.relation_vecs[10] = table.relation_vecs[20]
            self._assert_exact(table, packed)


class TestTopK:
    def test_equals_the_stable_argsort_prefix(self, rng):
        # ties, signed zeros, infinities and nan, in every k
        pool = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 2.5, 1e-300])
        for trial in range(300):
            n, r = int(rng.integers(1, 12)), int(rng.integers(1, 30))
            if trial % 3 == 0:
                scores = rng.choice(pool, size=(n, r))
            elif trial % 3 == 1:
                scores = rng.integers(0, 4, size=(n, r)).astype(float)
            else:
                scores = rng.normal(size=(n, r))
                scores[rng.random((n, r)) < 0.2] = np.nan
            for k in range(1, r + 2):
                np.testing.assert_array_equal(
                    top_k(scores, k), np.argsort(scores, axis=1, kind="stable")[:, :k])


def _child_env(**extra):
    # the child must import the same jrme the suite imported, installed
    # or run from src/, so its package directory goes first on the path
    pkg_root = str(Path(jrme.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def _child(code, env):
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
    )


class TestDispatch:
    def test_backend_constant_is_consistent(self, rng, monkeypatch):
        import jrme.kernels as kernels

        assert BACKEND == ("numpy" if kernels._jrme_epoch is None else "c")
        assert jrme.BACKEND == BACKEND
        ran = []
        for name in ("_epoch_c", "_epoch_numpy"):
            monkeypatch.setattr(kernels, name, lambda *args, name=name: ran.append(name))
        table, packed, order, negs = _epoch_args(rng, n=5)
        run_epoch(table.entity_vecs, table.relation_vecs, table.word_vecs,
                  packed, order, negs, True, 0.01, 1.0, True, True, True)
        assert ran == ["_epoch_c" if BACKEND == "c" else "_epoch_numpy"]

    def test_run_epoch_and_rank_all_wrappers(self, rng):
        table, packed, order, negs = _epoch_args(rng, n=10)
        loss, active, bad = run_epoch(
            table.entity_vecs, table.relation_vecs, table.word_vecs,
            packed, order, negs, True, 0.01, 1.0, True, True, True,
        )
        assert isinstance(loss, float) and isinstance(active, int)
        assert bad == -1
        ranks = rank_all(
            table.entity_vecs, table.relation_vecs, table.word_vecs, packed, True, True)
        assert ranks.shape == (10,)
        assert (ranks >= 1).all() and (ranks <= table.relation_vecs.shape[0]).all()

    def test_missing_compiler_falls_back_to_numpy(self, tmp_path):
        no_cc = tmp_path / "bin"
        no_cc.mkdir()
        env = _child_env(PATH=str(no_cc), XDG_CACHE_HOME=str(tmp_path / "cache"))
        out = _child("import jrme.kernels as k; print(k.BACKEND)", env)
        assert out.stdout.split() == ["numpy"]
        assert len(out.stderr.splitlines()) == 1 and "numpy twin" in out.stderr

        train = tmp_path / "train.tsv"
        train.write_text("".join(f"e{i % 5}\tr{i % 3}\te{(i + 1) % 5}\tw{i % 3}\n" for i in range(30)))
        run = subprocess.run(
            [sys.executable, "-m", "jrme.cli", "train", "--train", str(train),
             "--out", str(tmp_path / "model.bin"), "--dim", "4", "--epochs", "2"],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "model.bin").exists()

    def test_concurrent_first_use_builds_once(self, monkeypatch):
        # more threads than cores reach an unresolved backend at once; the
        # lock must let exactly one of them build the kernel
        import jrme.kernels as kernels

        monkeypatch.delattr(kernels, "BACKEND")
        monkeypatch.setattr(kernels, "_jrme_epoch", None)
        builds = []

        def slow_build():
            builds.append(1)
            time.sleep(0.02)
            return object()

        monkeypatch.setattr(kernels, "_load_epoch_kernel", slow_build)
        n = 4 * (os.cpu_count() or 1)
        start = threading.Barrier(n)
        seen = []

        def first_use():
            start.wait(timeout=10)
            seen.append(kernels.BACKEND)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert len(builds) == 1
        assert seen == ["c"] * n

    @needs_c
    def test_second_import_reuses_the_cached_library(self, tmp_path):
        env = _child_env(XDG_CACHE_HOME=str(tmp_path))
        code = "import jrme.kernels as k; print(k.BACKEND)"
        assert _child(code, env).stdout.split() == ["c"]
        cache = tmp_path / "jrme"
        assert cache.stat().st_mode & 0o777 == 0o700
        (lib,) = cache.iterdir()
        built = lib.stat().st_mtime_ns
        assert _child(code, env).stdout.split() == ["c"]
        assert list(cache.iterdir()) == [lib]
        assert lib.stat().st_mtime_ns == built


class TestPointerGuards:
    """Bad input to an epoch kernel raises before any row is written: ids
    on both kernels, layout and dtype on the C wrapper."""

    def _call(self, table, packed, order, negs, neg_by_relation=True, epoch=_epoch_c):
        return epoch(
            table.entity_vecs, table.relation_vecs, table.word_vecs,
            packed, order, negs, neg_by_relation, 0.01, 1.0, True, True, True,
        )

    @pytest.mark.parametrize("field,value", [
        ("heads", 12), ("tails", -1), ("relations", 7), ("mention_flat", 9),
        ("mention_off", 10_000), ("order", 40), ("negs", 7),
    ])
    def test_out_of_range_index_raises(self, rng, field, value):
        for epoch in (_epoch_c, _epoch_numpy):
            table, packed, order, negs = _epoch_args(rng)
            target = (order if field == "order" else negs if field == "negs"
                      else getattr(packed, field))
            target[-1] = value
            before = copy.deepcopy(table)
            with pytest.raises(IndexError):
                self._call(table, packed, order, negs, epoch=epoch)
            np.testing.assert_array_equal(table.relation_vecs, before.relation_vecs)
            np.testing.assert_array_equal(table.entity_vecs, before.entity_vecs)
            np.testing.assert_array_equal(table.word_vecs, before.word_vecs)

    def test_short_negative_table_raises(self, rng):
        for epoch in (_epoch_c, _epoch_numpy):
            table, packed, order, negs = _epoch_args(rng)
            with pytest.raises(IndexError):
                self._call(table, packed, order, negs[:3], neg_by_relation=False, epoch=epoch)

    def test_bad_table_layout_or_dtype_raises(self, rng):
        table, packed, order, negs = _epoch_args(rng)
        wide = np.repeat(table.entity_vecs, 2, axis=1)
        for entity in (
            np.asfortranarray(table.entity_vecs),
            wide[:, ::2],
            table.entity_vecs.astype(np.float32),
            table.entity_vecs[:, :-1].copy(),
        ):
            table.entity_vecs = entity
            with pytest.raises(ValueError):
                self._call(table, packed, order, negs)
        with pytest.raises(ValueError):
            self._call(table, packed, order.astype(np.int32), negs)
        with pytest.raises(ValueError):
            self._call(table, packed, order, np.asfortranarray(negs))


class TestNonFiniteDetection:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_epoch_reports_first_bad_example(self, rng):
        table, packed, order, negs = _epoch_args(rng, n=8)
        poisoned = packed.relations[order[3]]
        table.relation_vecs[poisoned] = np.inf
        first = int(order[np.flatnonzero(packed.relations[order] == poisoned)[0]])
        args = (packed, order, negs, True, 0.01, 1.0)
        impls = [_epoch_numpy] + ([_epoch_c] if BACKEND == "c" else [])
        for use_kg, use_text in [(True, False), (False, True), (True, True)]:
            for impl in impls:
                t = copy.deepcopy(table)
                _, _, bad = impl(t.entity_vecs, t.relation_vecs, t.word_vecs, *args,
                                 use_kg, use_text, True)
                assert bad == first, (impl.__name__, use_kg, use_text)
