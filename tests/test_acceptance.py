"""Acceptance checks for the whole engine.

Each test prints one visible PASS/FAIL line so a run of this file reads
as a checklist.  Thresholds and runtime budgets are part of the checks.
"""

import statistics
import time

import numpy as np
import pytest

from jrme.config import VARIANTS, ModelConfig
from jrme.data import Belief, PackedBeliefs
from jrme.embeddings import load_model, save_model
from jrme.evaluation import evaluate, summarize_ranks
from jrme.kernels import enum_negative_table
from jrme.training import example_gradients, example_loss, train

from gradcheck import finite_difference, sample_smooth_example
from synth_data import (
    graph_signal_dataset,
    make_vocab,
    mixed_signal_dataset,
    random_table,
    text_signal_dataset,
)


@pytest.fixture
def accept(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(name, ok, detail=""):
        tag = "PASS" if ok else "FAIL"
        line = f"[acceptance] {name}: {tag}" + (f"  ({detail})" if detail else "")
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)
        assert ok, line

    return emit


def test_gradients_match_finite_differences(accept):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for variant in VARIANTS:
        for dim in (2, 4, 8):
            for _ in range(100):
                vocab = make_vocab(6, 5, 7)
                table = random_table(vocab, dim, rng, scale=0.8)
                margin = float(rng.choice([0.5, 1.0, 2.0]))
                b, negs = sample_smooth_example(rng, table, 5, 7, margin, variant)
                _, grads = example_gradients(table, b, negs, variant, margin)
                arrays = {
                    "entity": table.entity_vecs,
                    "relation": table.relation_vecs,
                    "word": table.word_vecs,
                }

                def loss_fn():
                    return example_loss(table, b, negs, variant, margin)[0]

                for (kind, idx), grad in grads.items():
                    for coord in range(dim):
                        fd = finite_difference(loss_fn, arrays[kind], idx, coord)
                        a = grad[coord]
                        err = abs(a - fd)
                        tol = max(1e-5 * max(abs(a), abs(fd)), 1e-8)
                        assert err <= tol, (variant, dim, kind, idx, coord, a, fd)
                        worst = max(worst, err / tol)
                checked += 1
    elapsed = time.perf_counter() - t0
    accept(
        "analytic gradients match central differences",
        elapsed < 10.0,
        f"{checked} examples, worst err/tol {worst:.3g}, {elapsed:.2f}s < 10s",
    )


def test_rank_agrees_with_stable_sort_oracle(accept):
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    from jrme.evaluation import candidate_scores

    for i in range(1000):
        n_rel = int(rng.integers(2, 51))
        vocab = make_vocab(8, n_rel, 4)
        table = random_table(vocab, 5, rng)
        if i % 10 == 0:
            # force a full tie: every candidate gets the same vector
            table.relation_vecs[:] = table.relation_vecs[0]
        variant = VARIANTS[i % 3]
        b = Belief(
            int(rng.integers(8)), int(rng.integers(n_rel)), int(rng.integers(8)),
            tuple(int(w) for w in rng.integers(4, size=rng.integers(3))),
        )
        scores = candidate_scores(table, b.head, b.tail, b.mention, variant)
        keyed = sorted(range(n_rel), key=lambda j: (scores[j], j))
        oracle = 1 + keyed.index(b.relation)
        assert evaluate(table, PackedBeliefs.from_beliefs([b]), variant).ranks == (oracle,), (
            i, variant)
    elapsed = time.perf_counter() - t0
    accept(
        "rank matches brute-force sort oracle",
        elapsed < 5.0,
        f"1000 instances incl. all-tie, {elapsed:.2f}s < 5s",
    )


def test_empty_mention_loss_reductions_are_exact(accept):
    rng = np.random.default_rng(99)
    for i in range(1000):
        n_rel = int(rng.integers(2, 12))
        vocab = make_vocab(6, n_rel, 3)
        table = random_table(vocab, 4, rng)
        b = Belief(int(rng.integers(6)), int(rng.integers(n_rel)), int(rng.integers(6)), ())
        negs = enum_negative_table(n_rel)[b.relation]
        gamma = float(rng.uniform(0.1, 3.0))
        beta = float(rng.uniform(0.1, 3.0))
        jl, _ = example_loss(table, b, negs, "jrme", gamma)
        kl, _ = example_loss(table, b, negs, "kre", gamma)
        assert jl == kl, i
        tl, ta = example_loss(table, b, negs, "tme", beta)
        assert tl == beta * len(negs) and list(ta) == list(negs), i
    accept(
        "empty-mention losses collapse exactly",
        True,
        "1000 instances: joint == graph-only at same margin, text-only == margin * |negatives|",
    )


def test_training_is_bit_deterministic(accept, tmp_path):
    dataset, vocab = text_signal_dataset(n_beliefs=1000, seed=5)
    config = ModelConfig(dim=10, epochs=5, neg_mode="sample:5", seed=42)
    t0 = time.perf_counter()
    paths, reports = [], []
    for run in range(2):
        table, _ = train(dataset, vocab, config, "jrme")
        path = tmp_path / f"run{run}.bin"
        save_model(table, vocab, config, path, "jrme")
        paths.append(path)
        reports.append(evaluate(table, dataset.valid, "jrme"))
    elapsed = time.perf_counter() - t0
    same_bytes = paths[0].read_bytes() == paths[1].read_bytes()
    accept(
        "same seed reproduces model files and reports bit-for-bit",
        same_bytes and reports[0] == reports[1] and elapsed < 60.0,
        f"files identical={same_bytes}, reports equal={reports[0] == reports[1]}, "
        f"{elapsed:.2f}s < 60s",
    )


def test_text_signal_is_learnable(accept):
    dataset, vocab = text_signal_dataset()
    config = ModelConfig(dim=20, epochs=40, normalize_entities=False, seed=0)
    t0 = time.perf_counter()
    results = {}
    for variant in ("tme", "jrme"):
        table, _ = train(dataset, vocab, config, variant)
        results[variant] = evaluate(table, dataset.valid, variant)
    elapsed = time.perf_counter() - t0
    ok = all(r.hit_at_1 >= 0.95 and r.avg_rank <= 1.5 for r in results.values())
    detail = ", ".join(
        f"{v}: hit@1 {r.hit_at_1:.3f} avg_rank {r.avg_rank:.3f}" for v, r in results.items()
    )
    accept(
        "mention-driven relations are learned from text alone",
        ok and elapsed < 60.0,
        f"{detail}, {elapsed:.2f}s < 60s",
    )


def test_graph_signal_is_learnable(accept):
    dataset, vocab = graph_signal_dataset()
    config = ModelConfig(dim=20, epochs=40, normalize_entities=False, seed=0)
    t0 = time.perf_counter()
    results = {}
    for variant in ("kre", "jrme"):
        table, _ = train(dataset, vocab, config, variant)
        results[variant] = evaluate(table, dataset.valid, variant)
    elapsed = time.perf_counter() - t0
    ok = all(r.hit_at_10 >= 0.90 for r in results.values())
    detail = ", ".join(
        f"{v}: hit@10 {r.hit_at_10:.3f} avg_rank {r.avg_rank:.3f}" for v, r in results.items()
    )
    accept(
        "translation-consistent graphs are learned from structure alone",
        ok and elapsed < 60.0,
        f"{detail}, {elapsed:.2f}s < 60s",
    )


def test_joint_model_dominates_on_mixed_signal(accept):
    dataset, vocab = mixed_signal_dataset(seed=17)
    medians = {}
    for variant in VARIANTS:
        ranks = []
        for seed in range(5):
            config = ModelConfig(dim=20, epochs=30, normalize_entities=False, seed=seed)
            table, _ = train(dataset, vocab, config, variant)
            ranks.append(evaluate(table, dataset.valid, variant).avg_rank)
        medians[variant] = statistics.median(ranks)
    bound = 1.05 * min(medians["kre"], medians["tme"])
    accept(
        "joint model at least matches the better single-signal model",
        medians["jrme"] <= bound,
        f"median avg_rank kre {medians['kre']:.3f}, tme {medians['tme']:.3f}, "
        f"jrme {medians['jrme']:.3f} <= {bound:.3f}",
    )


def test_metric_arithmetic_is_exact(accept):
    avg, hit10, hit1 = summarize_ranks([1, 3, 20])
    accept(
        "rank summary arithmetic is exact",
        avg == 8.0 and hit10 == 2 / 3 and hit1 == 1 / 3,
        f"avg_rank {avg!r}, hit@10 {hit10!r}, hit@1 {hit1!r}",
    )


def test_reload_preserves_evaluation(accept, tmp_path):
    dataset, vocab = text_signal_dataset(n_beliefs=600, seed=3)
    config = ModelConfig(dim=8, epochs=5, seed=1)
    table, _ = train(dataset, vocab, config, "jrme")
    before = evaluate(table, dataset.valid, "jrme")
    path = tmp_path / "model.bin"
    save_model(table, vocab, config, path, "jrme")
    loaded, vocab2, config2, variant2 = load_model(path)
    after = evaluate(loaded, dataset.valid, "jrme")
    accept(
        "saved model evaluates identically after reload",
        before == after and config2 == config and variant2 == "jrme",
        f"avg_rank {before.avg_rank!r} == {after.avg_rank!r}",
    )
