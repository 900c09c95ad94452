import copy
import hashlib
import os
import random
import shutil
import subprocess
import sys
from itertools import accumulate, product

import numpy as np
import pytest

import jrme
import jrme.kernels
from jrme.config import VARIANTS, variant_flags
from jrme.evaluation import candidate_scores
from jrme.kernels import (
    RANK_BLOCK,
    PackedBeliefs,
    _exact_scores,
    rank_all,
    relation_scores,
    top_relations,
)
from jrme.training import (
    BACKEND,
    _epoch_c,
    _epoch_numpy,
    _sample_negative_rows,
    enum_negative_table,
    run_epoch,
)
from reference import (
    Belief, child_env, mention_distance, needs_c, oracle_ranks, pack, random_beliefs,
    tables_equal, triple_distance,
)
from synth_data import make_vocab, random_table


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
        for n in (5, 233):
            t = enum_negative_table(n)
            assert t.shape == (n, n - 1)
            for r in range(n):
                row = list(t[r])
                assert r not in row
                assert row == sorted(row)
                assert set(row) == set(range(n)) - {r}

    def test_degenerate_single_relation(self):
        assert enum_negative_table(1).shape == (1, 0)


def _epoch_args(rng, n=40, d=6, n_entities=12, n_relations=7, n_words=9):
    vocab = make_vocab(n_entities, n_relations, n_words)
    table = random_table(vocab, d, rng, scale=0.5)
    packed = pack(random_beliefs(rng, n, n_entities, n_relations, n_words, max_mention=4))
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
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_epochs_agree_on_a_word_table_without_rows(self, rng, variant):
        """With no word rows every mention is empty, so the text term
        scores each relation against m = 0."""
        use_kg, use_text = variant_flags(variant)
        table = random_table(make_vocab(12, 7, 0), 6, rng, scale=0.5)
        packed = pack(random_beliefs(rng, 40, 12, 7, 1, max_mention=0))
        order = rng.permutation(40).astype(np.int64)
        args = (packed, order, enum_negative_table(7), True, 0.01, 1.0, use_kg, use_text, True)
        ta = copy.deepcopy(table)
        tb = copy.deepcopy(table)
        la, aa, bada = _epoch_c(ta.entity_vecs, ta.relation_vecs, ta.word_vecs, *args)
        lb, ab, badb = _epoch_numpy(tb.entity_vecs, tb.relation_vecs, tb.word_vecs, *args)
        assert aa == ab > 0
        assert bada == badb == -1
        assert la == pytest.approx(lb, rel=1e-10)
        np.testing.assert_allclose(ta.entity_vecs, tb.entity_vecs, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(ta.relation_vecs, tb.relation_vecs, rtol=1e-9, atol=1e-12)
        assert ta.word_vecs.shape == tb.word_vecs.shape == (0, 6)


def _pinned_case(d, k, variant, neg_by_relation, normalize):
    """One epoch of the C kernel on a small case drawn from Python's
    `random.Random`, whose streams, unlike numpy's generators, are fixed
    across versions: the first 16 hex digits of the SHA-256 of its loss,
    active count, bad index and the three tables it wrote."""
    rng = random.Random(f"{d}-{k}")
    n, n_entities, n_relations, n_words = 12, 6, k + 2, 5

    def draw(rows):
        return np.array([[rng.uniform(-0.5, 0.5) for _ in range(d)] for _ in range(rows)])

    entity, relation, word = draw(n_entities), draw(n_relations), draw(n_words)
    heads = [rng.randrange(n_entities) for _ in range(n)]
    rels = [rng.randrange(n_relations) for _ in range(n)]
    tails = [rng.randrange(n_entities) for _ in range(n)]
    mentions = [[rng.randrange(n_words) for _ in range(rng.randrange(4))] for _ in range(n)]
    packed = PackedBeliefs(heads, rels, tails, [0, *accumulate(map(len, mentions))],
                           [w for m in mentions for w in m])
    order = rng.sample(range(n), n)
    # distinct negatives per row, as the sampler and the enumerated table give
    rows = range(n_relations) if neg_by_relation else [rels[i] for i in order]
    negs = [rng.sample([x for x in range(n_relations) if x != r], k) for r in rows]
    loss, active, bad = _epoch_c(
        entity, relation, word, packed, np.array(order, dtype=np.int64),
        np.array(negs, dtype=np.int64), neg_by_relation, 0.05, 1.0, *variant_flags(variant),
        normalize,
    )
    digest = hashlib.sha256(f"{loss!r} {active} {bad}".encode())
    for table in (entity, relation, word):
        digest.update(table.astype("<f8").tobytes())
    return digest.hexdigest()[:16]


# _pinned_case for d in (1, 3, 4, 5, 8) and, within each d, k in (1, 2, 3,
# 4, 5, 9), then for d = 100, k = 10, as the C kernel gave them when recorded
_PINNED = {
    ("kre", True, True): (
        "ac00a0aa9ca5fb76 fe491a26b40f2ed5 20f3c43e3c66542a 0e9cf592e80db187 2772fd2fe6bc5ee7 "
        "67fffbdfae27bd73 1f9239a44bd14b41 4e6ec4b1f4957963 bf820eed7ee26733 cc8bf10a65124e8c "
        "764861ebf79f9fb8 36d049a0c872c772 15fe109a192db5de 08486c5a090192b3 8626e585f0dc54da "
        "b0ac74b07e7cbbf5 c9cdab29b8aba8e1 8a0c49c39e1a2eb1 3e0eb0af3655e99e a87a4eb03e8d40fe "
        "c92c00399301086d d6786a5a2cdf6728 8bccc6444e78fc03 fc31eeb94b6994d8 ac2d4c1de415af43 "
        "d631977bd2ac6740 70314d8f09a4e45c 7ce33457075c7b45 e7fb4541d2273ade 7066a4293856d4d7"
        " c57622c19ddff389"
    ),
    ("kre", True, False): (
        "8b1e3934e7394267 f28a9ca4c277bd0d 4c36511a178d9f5d 2c4e238063ca27bf 669ff999562491c7 "
        "80ef3b0bc921a65b 1104d6e1c8184b9b 364c5827a1c0c566 7295a0a1287ffbcc 6a4b9fbc99700c29 "
        "f65baa3a5f2d91a7 5ad703e5968c9a95 7f49c6ebacce70ce 673221c6dcec5853 9f3eb5b45af7d597 "
        "f5a6429d1f375ce2 a32455e2815a054d 6c3e57de6718ce94 b3b6abd78e40790e 87fbb61e4638e2c9 "
        "45074e28f03fc1f2 b55650c5f183a429 1fe38af484a84760 fe6f933ccd19b523 d8aeea4e07034443 "
        "f742b9dfa694134e 07afe765c3c12b07 d63c9c782b2d38ba fe0ac7868fc5f146 6c1898f3b2a587f3"
        " ddc06a0db06ba626"
    ),
    ("kre", False, True): (
        "c676cc99dc851bae b8cf42d4ea038537 1cfbf0102402ff42 abb9740257c3a0aa 99a2cf136c6ae96d "
        "0b7df312656921ab ac069f966195c1e1 cba003c252618804 cf6b3e5206da49b6 bc627919299ec63a "
        "9087463a10a4b560 1068c4b4f3d87ce3 a7026f95ead386f8 bdc4145e298b09ae 81f17540afe18dbe "
        "8ce354dcf9b0fa44 0de17a4a9941a2a3 fe2871a0eaaabef4 a7a4cb0a4e8e979a af7f865675204a9f "
        "2316f21c4fd43281 f543e1da579098a9 e6ef849ed70d073b 7b129f1115f7b517 d7bec979508881e5 "
        "ea0183dff9075f1b 6f3094db7adecdb2 e0931b9ff9b6f527 66e72e03b1828b35 455102898e579ce6"
        " 9c3e6d30829f7f10"
    ),
    ("kre", False, False): (
        "14de3a181595b7a4 210c5a5c6175ecac ac559964eb1b091a e0d75ad283d688ea 15fe1cccf466ad54 "
        "0fd96ba723725491 0b568e9d398e35a1 08a1b4e028622bb3 d6cb9b2e18fb87d4 61a6408e55a7b802 "
        "635d44ab62c22ab9 0f89038304568a4d 500a7a914bc040cf 01a77c7b64fd743a 20f031a5aab0629e "
        "002e11e486f41d7d 11ea3b84dfb50f1e 1187988201a154a8 9ee6fec6d50988e9 10e5829c61da0a10 "
        "1c905be5e49d5d5f 1a6079d410223d2f d21a0be1af43d59c 72eafff7ce6dc01d e2d41c58f175c608 "
        "79404a5a8684193d 30b37c1d50209d1c d3d6c053fb0922d9 371b51120e8c1ed6 15e0dc3f80991a14"
        " 6b8a6bbb30d464d8"
    ),
    ("tme", True, True): (
        "05fe2a90062ab0c0 f87197f5b0e4d0f1 8ce55efd744eaccc 8fa027d28f27c4c1 9d3fd1bfee1beb91 "
        "14d8a41e70a10773 fc2ff01e2e64a69b 7e17d25a60c99781 f9d2e2b089c9d900 76a5cae5c86cfdf5 "
        "08a97c5370f492c3 753b01d6fe38999e c95530575afc7ef1 ab95f5af1a466a0a 04251592dc938b9e "
        "caa2e89234e5c621 87f7b18a73206bd3 bfd5117d3e517a1e b25098ff51dd6969 883e05d594432e12 "
        "ded1b647dd707c4b 3e408196d5d709d3 bda28ce0ec9b397c 5c19ee0b06baaa9d f4a5b59b4493d783 "
        "f349c8767136393f 9830eb7f90be8a1a 2115c228dd4f679d e0a8b32352d14fbd 7f76b77a12f02911"
        " 73e68e90f9f63431"
    ),
    ("tme", True, False): (
        "05fe2a90062ab0c0 f87197f5b0e4d0f1 8ce55efd744eaccc 8fa027d28f27c4c1 9d3fd1bfee1beb91 "
        "14d8a41e70a10773 fc2ff01e2e64a69b 7e17d25a60c99781 f9d2e2b089c9d900 76a5cae5c86cfdf5 "
        "08a97c5370f492c3 753b01d6fe38999e c95530575afc7ef1 ab95f5af1a466a0a 04251592dc938b9e "
        "caa2e89234e5c621 87f7b18a73206bd3 bfd5117d3e517a1e b25098ff51dd6969 883e05d594432e12 "
        "ded1b647dd707c4b 3e408196d5d709d3 bda28ce0ec9b397c 5c19ee0b06baaa9d f4a5b59b4493d783 "
        "f349c8767136393f 9830eb7f90be8a1a 2115c228dd4f679d e0a8b32352d14fbd 7f76b77a12f02911"
        " 73e68e90f9f63431"
    ),
    ("tme", False, True): (
        "d5a91f77dd00ccec 52e3c8ad695b483c 06ddcabcfaf8c1ff 741f9b45bedc9cb9 96f1fcb0226f4605 "
        "03bcf60ab53fdf79 2bb829a45e66c35a e7858e671db4989b a86b57d9b61e9826 7bca9043549d281b "
        "e86234e0ee5b960e 19f3b6826c9a82b4 be9f3c2375cfc608 03e587c966e68748 dacc2a44856b5ee5 "
        "ae5b0696b5512133 7db0deb0c37d9d76 65fa0545a14af3c2 ca9e281bed94faee 7388dddc80d3f56f "
        "e453ec1f1cb90f68 2f3db0b7a8ae7714 58a17172c2d992c4 7253af2c67f8b4ec 9fc17d5fac60fd79 "
        "1dd88ff303bca885 ee21c80c37b04838 162aa350d0413b14 2f43a14c6f69af53 922d7259c98b2126"
        " a1c3301b111fc9db"
    ),
    ("tme", False, False): (
        "d5a91f77dd00ccec 52e3c8ad695b483c 06ddcabcfaf8c1ff 741f9b45bedc9cb9 96f1fcb0226f4605 "
        "03bcf60ab53fdf79 2bb829a45e66c35a e7858e671db4989b a86b57d9b61e9826 7bca9043549d281b "
        "e86234e0ee5b960e 19f3b6826c9a82b4 be9f3c2375cfc608 03e587c966e68748 dacc2a44856b5ee5 "
        "ae5b0696b5512133 7db0deb0c37d9d76 65fa0545a14af3c2 ca9e281bed94faee 7388dddc80d3f56f "
        "e453ec1f1cb90f68 2f3db0b7a8ae7714 58a17172c2d992c4 7253af2c67f8b4ec 9fc17d5fac60fd79 "
        "1dd88ff303bca885 ee21c80c37b04838 162aa350d0413b14 2f43a14c6f69af53 922d7259c98b2126"
        " a1c3301b111fc9db"
    ),
    ("jrme", True, True): (
        "e8e73c51e0a054c1 7c37f500eec318f6 ec0678d714184ead 94ce5bfbc142b5ae 82c64bb3ccc24ade "
        "d54721e5cf9bbb83 6927d652378c646f b037ca1e26b016bc 00b235286b94cfb4 e53be531262a2e4c "
        "79ebf640bc10ba78 84e859aa72b4d533 069289ad29130338 56826ac15f52fde8 7f5870e3a66ac73d "
        "84961a3a7979323e f6d286752c47af9e ce5355c256b948a2 6724782bed4fe145 ad9f4feee0ce3251 "
        "1f7e4cc6ff3e144f 8aaab1ffd0a4156c 04107da12ab6c38a cc371a0babd778e7 81ba2da083b976ba "
        "e6cf4600f7fd0966 079a61527a2443ca 6f1a0a9705cf49ab dbdafbf1dd1575e7 1c822eea269b5842"
        " a52b199dc7e12d44"
    ),
    ("jrme", True, False): (
        "363aec69ffb9ec6e 425627e1e787a6dd 073d679543749b70 349da436b121c982 783f817afba5857c "
        "c31b251e99afbfbd 17012fb17b1e0fc6 841ce6b1e5b848d9 a56e301d15a27af9 9ee049e3ac364de0 "
        "80913a422b5b51e4 f6b55eb901941561 b63f9d7f31b5e2d7 c7ca5bb5e431566a d68c2fef5e1285a3 "
        "976a1f2262ef80ee 33db493b7554b55d a4132bd9923963da 95f9dd4a659c3e79 5134fd9b5e546ce3 "
        "ad208bbd01b241bd 55122320f4973065 2e73776c404e1ea3 a1e8ac46fb6cb74c c9232d874e14da3b "
        "9c24f7cd47766929 901dcd2ede784894 402440e79012f4cf 2aa7d3fd6627b807 c7455083e913a3ae"
        " fa93a9f111ac47c2"
    ),
    ("jrme", False, True): (
        "a0b0bf393d503ca7 b6526d2990997fed a79189a0831c765b b165afc9d009b336 3b743dbd4f87e419 "
        "40fe8a8846f48a7f 543226e6bdc707cf 546ffcfd89921159 3c6dbc7d5a841193 b5bd0c577370f0a5 "
        "bcd5b88b989de828 e82be42081c31319 b364a816c7e5f76a 2c8d1cba00530d45 023040172f25f4ab "
        "8fbef5145c5fa6d7 4a787f347242e853 b87e0c9d999e7b1d 5db13e4094cba998 4671bd5ae9124105 "
        "9ec7b367fae48ec8 c6285452c9632832 896665fab28b0c5e 4d5f851cb3f1232d 997222fc79278009 "
        "570e2a64b98665d7 991241c0883ce652 a72912b1231a855d c6c2aed3ce75bca0 536b4253ae77af43"
        " d61db25d503928b7"
    ),
    ("jrme", False, False): (
        "a104464c011f7e0d fd3b1971bfd3b5f8 5a2a0661dc687bff 8f6dcfd8591fbd03 9d920f7d68d209a0 "
        "22b86d5353c315ff 5a2b87de10d097c3 0c51a46424406df9 2740c4e011a27dff c150d7092363725a "
        "bcfc96508ccc724c 64bf115e365c8fb0 47724204d18ad3bc 181d13551487739c dceefdb65d9f87aa "
        "8414927c5a42956f 40073168c38ab325 99aeb1782e25c5ab c0decdd693fa0b20 93ec3e9fe4fd05ec "
        "c4756b63de15e432 eced3771b538d9fc 2f3745a12f91a120 09d41e950f09b78a d34928f4b522014e "
        "8c3640d16554bc27 08912a592202c9e4 f270f5a0e2faf669 53e08ee35e9fc896 ffb63e5008c14224"
        " 6bb92c8804b67827"
    ),
}


class TestPinnedBits:
    """The C kernel's exact bits on fixed cases.  TestBackendAgreement
    allows float-reassociation noise, so it cannot tell a reordered sum
    from the recorded kernel; a change that must keep every result, such
    as a reordering of the kernel's loops, must keep these digests.  The
    last case, d = 100 as the benchmark trains, is long enough that the
    compiler's vector loops run over most of each row."""

    @needs_c
    @pytest.mark.parametrize("variant,neg_by_relation,normalize",
                             list(product(VARIANTS, (True, False), (True, False))))
    def test_c_epoch_bits_match_the_recorded_digests(self, variant, neg_by_relation,
                                                      normalize):
        cases = [*product((1, 3, 4, 5, 8), (1, 2, 3, 4, 5, 9)), (100, 10)]
        digests = [_pinned_case(d, k, variant, neg_by_relation, normalize) for d, k in cases]
        assert digests == _PINNED[variant, neg_by_relation, normalize].split()


def _rank_case(rng, n):
    table = random_table(make_vocab(12, 7, 9), 6, rng, scale=0.5)
    beliefs = random_beliefs(rng, n, 12, 7, 9, max_mention=4)
    return table, pack(beliefs), beliefs


class TestRanking:
    """rank_all against the brute-force sort of every candidate's score."""

    def test_rank_all_matches_oracle(self, rng):
        for trial in range(10):
            table, packed, beliefs = _rank_case(rng, 30)
            for variant in ("kre", "tme", "jrme"):
                use_kg, use_text = variant_flags(variant)
                ranks = rank_all(table.entity_vecs, table.relation_vecs, table.word_vecs,
                                 packed, use_kg, use_text)
                np.testing.assert_array_equal(ranks, oracle_ranks(table, beliefs, variant))

    def test_rank_all_matches_oracle_on_forced_ties(self, rng):
        # within one block, and across several with a partial last block
        for n in (20, 2 * RANK_BLOCK + 7):
            table, packed, beliefs = _rank_case(rng, n)
            table.relation_vecs[:] = table.relation_vecs[0]
            ranks = rank_all(
                table.entity_vecs, table.relation_vecs, table.word_vecs, packed, True, True)
            np.testing.assert_array_equal(ranks, oracle_ranks(table, beliefs, "jrme"))
            # with every score tied, rank is the id-order position
            np.testing.assert_array_equal(ranks, packed.relations + 1)

    def test_block_row_is_bitwise_the_single_belief_score(self, rng):
        # wide enough that a BLAS product blocks its work and rounds a
        # row differently alone than inside a block
        n, n_rel, d = RANK_BLOCK, 120, 100
        table = random_table(make_vocab(12, n_rel, 9), d, rng)
        beliefs = random_beliefs(rng, n, 12, n_rel, 9, max_mention=4)
        packed = pack(beliefs)
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
        beliefs = random_beliefs(rng, n, 30, n_rel, 20, max_mention=4 if mention else 0)
        return table, pack(beliefs), beliefs

    def _assert_exact(self, table, packed, beliefs):
        for variant in VARIANTS:
            ranks = rank_all(table.entity_vecs, table.relation_vecs, table.word_vecs,
                             packed, *variant_flags(variant))
            expected = oracle_ranks(table, beliefs, variant)
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
        assert rescored == len(packed)
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
    ids and scores must equal the first k columns of the stable argsort
    of the exact scores, bit for bit, for every variant and k."""

    def _case(self, rng, n, n_rel, d, mention=True):
        table = random_table(make_vocab(30, n_rel, 20), d, rng)
        return table, pack(random_beliefs(rng, n, 30, n_rel, 20, max_mention=4 if mention else 0))

    def _assert_exact(self, table, packed):
        tables = (table.entity_vecs, table.relation_vecs, table.word_vecs)
        n_rel = table.relation_vecs.shape[0]
        for variant in VARIANTS:
            flags = variant_flags(variant)
            scores = relation_scores(*tables, packed, *flags)
            # from k = n_rel // 2 + 1 on, 2k > R: no row is settled on its
            # k kept ids, so every row takes the exact path whole
            for k in (1, 3, 10, n_rel // 2, n_rel // 2 + 1, n_rel, n_rel + 5):
                ids, values = top_relations(*tables, packed, *flags, k)
                expected = np.argsort(scores, axis=1, kind="stable")[:, :k]
                np.testing.assert_array_equal(ids, expected, err_msg=f"{variant} k={k}")
                want = np.take_along_axis(scores, expected, axis=1)
                assert values.tobytes() == want.tobytes(), (variant, k)

    @pytest.mark.parametrize("d", [1, 7, 100, 101])
    def test_exact_scores_on_ids_are_the_whole_row_bits(self, rng, d):
        q, c = rng.standard_normal((50, d)), rng.random(50)
        relation = rng.standard_normal((40, d))
        rel_sq = np.einsum("rd,rd->r", relation, relation)
        ids = rng.integers(40, size=(50, 12))
        for row_c in (c, None):
            whole = _exact_scores(q, row_c, relation, rel_sq)
            gathered = _exact_scores(q, row_c, relation, rel_sq, ids)
            want = np.take_along_axis(whole, ids, axis=1)
            assert gathered.tobytes() == want.tobytes(), row_c is None

    @pytest.mark.parametrize("k", [1, 10])
    def test_twin_rows_rescore_k_ids_or_the_whole_row(self, rng, monkeypatch, k):
        # every relation row has an exact twin: at k = 1 each row ties at
        # the first place and is ranked whole; at k = 10 the 10th candidate
        # is the 9th's twin, so a row keeps exactly its 10 first
        table, packed = self._case(rng, RANK_BLOCK, 60, 100)
        rel = table.relation_vecs
        rel[1::2] = rel[0::2]
        tables = (table.entity_vecs, rel, table.word_vecs)
        widths = []
        exact_scores = jrme.kernels._exact_scores

        def counting(q, c, relation, rel_sq, ids=None):
            widths.extend([len(relation) if ids is None else ids.shape[1]] * len(q))
            return exact_scores(q, c, relation, rel_sq, ids)

        for variant in VARIANTS:
            widths.clear()
            with monkeypatch.context() as m:
                m.setattr(jrme.kernels, "_exact_scores", counting)
                top_relations(*tables, packed, *variant_flags(variant), k)
            assert len(widths) == len(packed), variant
            assert set(widths) <= {k, 60}, variant
            assert (k in widths) == (k == 10), variant
        self._assert_exact(table, packed)

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


def _child(code, env):
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
    )


class TestDispatch:
    def test_backend_constant_is_consistent(self):
        assert run_epoch is (_epoch_c if BACKEND == "c" else _epoch_numpy)
        assert jrme.BACKEND == BACKEND

    def test_run_epoch_returns_python_scalars_and_rank_all_ranks_in_range(self, rng):
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
        env = child_env(PATH=str(no_cc), XDG_CACHE_HOME=str(tmp_path / "cache"))
        out = _child("import jrme.training as t; print(t.BACKEND)", env)
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

    # a fresh cache of its own, so the child builds the kernel on either backend
    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler here")
    def test_concurrent_first_use_builds_once(self, tmp_path):
        """Threads that import `jrme.training` at once, with a fresh cache,
        wait on the import lock while the first builds the kernel: `cc`
        runs once, through a shim first on PATH that logs each call."""
        shim_dir = tmp_path / "bin"
        shim_dir.mkdir()
        log = tmp_path / "cc.log"
        shim = shim_dir / "cc"
        shim.write_text(f'#!/bin/sh\necho cc >> "{log}"\nexec "{shutil.which("cc")}" "$@"\n')
        shim.chmod(0o755)
        env = child_env(PATH=f"{shim_dir}{os.pathsep}{os.environ['PATH']}",
                        XDG_CACHE_HOME=str(tmp_path / "cache"))
        code = (
            "import sys, threading\n"
            "n = 8\n"
            "start = threading.Barrier(n)\n"
            "seen = []\n"
            "def first_use():\n"
            "    start.wait(timeout=30)\n"
            "    import jrme.training\n"
            "    seen.append(jrme.training.BACKEND)\n"
            "sys.setswitchinterval(1e-6)\n"
            "threads = [threading.Thread(target=first_use) for _ in range(n)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join(timeout=60)\n"
            "print(*seen)\n"
        )
        assert _child(code, env).stdout.split() == ["c"] * 8
        assert log.read_text().splitlines() == ["cc"]

    @needs_c
    def test_second_import_reuses_the_cached_library(self, tmp_path):
        env = child_env(XDG_CACHE_HOME=str(tmp_path))
        code = "import jrme.training as t; print(t.BACKEND)"
        assert _child(code, env).stdout.split() == ["c"]
        cache = tmp_path / "jrme"
        assert cache.stat().st_mode & 0o777 == 0o700
        (lib,) = cache.glob("epoch-*.so")
        # the second run rewrites nothing in the cache
        built = {p.name: p.stat().st_mtime_ns for p in cache.iterdir()}
        assert _child(code, env).stdout.split() == ["c"]
        assert list(cache.glob("epoch-*.so")) == [lib]
        assert {p.name: p.stat().st_mtime_ns for p in cache.iterdir()} == built


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
            assert tables_equal(table, before)

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
    @staticmethod
    def _returned(table, packed, order, negs):
        """(kernel, variant, example index returned) for both kernels and
        every variant, each on its own copy of the table."""
        impls = [_epoch_numpy] + ([_epoch_c] if BACKEND == "c" else [])
        for variant, impl in product(VARIANTS, impls):
            t = copy.deepcopy(table)
            _, _, bad = impl(t.entity_vecs, t.relation_vecs, t.word_vecs, packed, order, negs,
                             True, 0.01, 1.0, *variant_flags(variant), True)
            yield impl.__name__, variant, bad

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_epoch_reports_first_bad_example(self, rng):
        table, packed, order, negs = _epoch_args(rng, n=8)
        poisoned = packed.relations[order[3]]
        table.relation_vecs[poisoned] = np.inf
        first = int(order[np.flatnonzero(packed.relations[order] == poisoned)[0]])
        for name, variant, bad in self._returned(table, packed, order, negs):
            assert bad == first, (name, variant)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_epoch_checks_the_head_entity_row(self, rng):
        """Both kernels check the head row only, as the numpy twin does: an
        example whose tail is the poisoned entity scores NaN terms, which
        are never active, so it writes nothing and passes.  tme reads no
        entity row, so its epoch runs clean."""
        table, packed, order, negs = _epoch_args(rng, n=8)
        heads, tails = packed.heads[order], packed.tails[order]
        poisoned = heads[-1]
        pos = np.flatnonzero(heads == poisoned)[0]
        assert poisoned in tails[:pos]  # earlier examples have it as tail only
        table.entity_vecs[poisoned] = np.inf
        first = int(order[pos])
        for name, variant, bad in self._returned(table, packed, order, negs):
            assert bad == (-1 if variant == "tme" else first), (name, variant)
