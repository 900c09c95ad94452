import dataclasses
import json
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import jrme.cli
from jrme.cli import main
from jrme.config import ModelConfig
from jrme.data import PackedBeliefs, Vocabulary, parse_belief_file
from jrme.embeddings import init_embeddings, load_model, save_model
from jrme.evaluation import candidate_scores
from jrme.kernels import RANK_BLOCK, top_relations
from test_embeddings import edit_header
from test_kernels import _child_env, needs_c


@pytest.fixture
def corpus(tmp_path, rng):
    """Small separable corpus: each relation has a marker mention word."""
    rels = [f"rel{i}" for i in range(6)]
    lines = []
    for _ in range(300):
        r = int(rng.integers(6))
        h, t = rng.integers(25, size=2)
        lines.append(f"e{h}\t{rels[r]}\te{t}\tsig{r} pad{int(rng.integers(4))}")
    train = tmp_path / "train.tsv"
    train.write_text("\n".join(lines[:240]) + "\n")
    test = tmp_path / "test.tsv"
    test.write_text("\n".join(lines[240:]) + "\n")
    return tmp_path, train, test


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTrainCommand:
    def test_trains_writes_model_and_manifest(self, corpus, capsys):
        tmp, train, test = corpus
        model = tmp / "model.bin"
        code, out, err = run(
            capsys, "train", "--train", train, "--out", model,
            "--dim", 8, "--epochs", 5, "--seed", 3,
        )
        assert code == 0
        lines = [line for line in err.splitlines() if line.startswith("epoch=")]
        assert len(lines) == 5
        assert re.match(r"^epoch=0 loss=[0-9eE.+-]+ active=\d+$", lines[0])
        table, vocab, config, _ = load_model(model)
        assert config.dim == 8 and config.seed == 3
        assert len(table.relation_vecs) == 6

        manifest = json.loads((tmp / "model.bin.manifest.json").read_text())
        assert manifest["config"]["dim"] == 8
        assert manifest["config"] == dataclasses.asdict(config)
        assert manifest["variant"] == "jrme"
        assert len(manifest["dataset_sha256"]) == 64
        assert "created" in manifest

    @pytest.mark.parametrize("blocked", ["model.bin", "model.bin.manifest.json"])
    def test_failed_rename_leaves_no_temp_file(self, corpus, capsys, blocked):
        # a non-empty directory at the target makes the final rename fail
        tmp, train, _ = corpus
        (tmp / blocked).mkdir()
        (tmp / blocked / "keep").write_text("")
        code, _, err = run(
            capsys, "train", "--train", train, "--out", tmp / "model.bin",
            "--dim", 4, "--epochs", 1,
        )
        assert code == 2 and err.splitlines()[-1].startswith("error: ")
        assert not (tmp / f"{blocked}.tmp").exists()
        assert (tmp / blocked / "keep").exists()

    def test_flag_defaults_are_the_model_config_defaults(self):
        args = jrme.cli.build_parser().parse_args(["train", "--train", "a", "--out", "b"])
        assert jrme.cli._config_from_args(args) == ModelConfig()

    def test_zero_epochs_writes_initialized_model(self, corpus, capsys):
        tmp, train, _ = corpus
        model = tmp / "init.bin"
        code, _, _ = run(
            capsys, "train", "--train", train, "--out", model,
            "--dim", 6, "--epochs", 0, "--seed", 9,
        )
        assert code == 0
        table, vocab, config, _ = load_model(model)
        fresh = init_embeddings(vocab, config)
        assert (table.entity_vecs == fresh.entity_vecs).all()
        assert (table.word_vecs == fresh.word_vecs).all()

    def test_kre_accepts_empty_mentions(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        train.write_text("a\tr1\tb\t\nb\tr2\tc\t\nc\tr1\ta\t\n")
        code, _, _ = run(
            capsys, "train", "--train", train, "--out", tmp_path / "m.bin",
            "--variant", "kre", "--dim", 4, "--epochs", 2,
        )
        assert code == 0

    def test_deterministic_reruns_are_byte_identical(self, corpus, capsys):
        tmp, train, _ = corpus
        a, b = tmp / "a.bin", tmp / "b.bin"
        for out in (a, b):
            assert run(
                capsys, "train", "--train", train, "--out", out,
                "--dim", 6, "--epochs", 3, "--seed", 11,
            )[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_need_acknowledgment(self, corpus, capsys):
        tmp, train, _ = corpus
        code, _, err = run(
            capsys, "train", "--train", train, "--out", tmp / "x.bin", "--threads", 2,
        )
        assert code == 1
        assert "nondeterministic" in err
        code, _, _ = run(
            capsys, "train", "--train", train, "--out", tmp / "x.bin",
            "--threads", 2, "--nondeterministic-ok", "--dim", 4, "--epochs", 1,
        )
        assert code == 0

    def test_validation_split_reported(self, corpus, capsys):
        tmp, train, test = corpus
        code, out, _ = run(
            capsys, "train", "--train", train, "--valid", test,
            "--out", tmp / "m.bin", "--dim", 8, "--epochs", 10,
        )
        assert code == 0
        assert "avg_rank=" in out


class TestStepBoundWarning:
    def test_warns_at_defaults_with_many_relations(self, tmp_path, capsys):
        # --neg all at lr 0.01 scores 119 negatives per example: 1.19 > 1
        train = tmp_path / "train.tsv"
        train.write_text("".join(f"e{i % 7}\tr{i}\te{i % 5}\tw{i % 3}\n" for i in range(120)))
        code, _, err = run(
            capsys, "train", "--train", train, "--out", tmp_path / "m.bin",
            "--dim", 4, "--epochs", 1,
        )
        assert code == 0
        warnings = [line for line in err.splitlines() if "overshoot" in line]
        assert len(warnings) == 1
        assert "1.19 > 1" in warnings[0]

    def test_silent_below_the_bound(self, corpus, capsys):
        tmp, train, _ = corpus
        code, _, err = run(
            capsys, "train", "--train", train, "--out", tmp / "m.bin", "--dim", 4, "--epochs", 1,
        )
        assert code == 0
        assert "overshoot" not in err


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run(capsys, "train", "--train", "x.tsv")[0] == 1  # no --out

    def test_invalid_value_is_1(self, corpus, capsys):
        tmp, train, _ = corpus
        code, _, err = run(
            capsys, "train", "--train", train, "--out", tmp / "m.bin", "--dim", 0,
        )
        assert code == 1
        assert "dim" in err

    def test_nan_margin_is_1_and_writes_no_model(self, corpus, capsys):
        tmp, train, _ = corpus
        code, _, err = run(
            capsys, "train", "--train", train, "--out", tmp / "m.bin", "--gamma", "nan",
        )
        assert code == 1
        assert "gamma" in err
        assert not (tmp / "m.bin").exists()

    def test_missing_file_is_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "train", "--train", tmp_path / "nope.tsv",
                         "--out", tmp_path / "m.bin")
        assert code == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_3(self, corpus, capsys):
        tmp, train, _ = corpus
        code, _, err = run(
            capsys, "train", "--train", train, "--out", tmp / "m.bin",
            "--dim", 4, "--epochs", 50, "--lr", "1e150",
        )
        assert code == 3
        assert "non-finite" in err
        assert not (tmp / "m.bin").exists()

    @pytest.mark.parametrize("lr, code", [("0.002", 0), ("0.004", 3), ("0.01", 3)])
    def test_noisy_200_relation_corpus_stays_bounded_or_exits_3(self, tmp_path, rng, capsys,
                                                                 lr, code):
        # --neg all scores 199 negatives per example: lr 0.004 stays under the
        # step bound (0.8, no warning), yet the rows grow tenfold per epoch
        train = tmp_path / "train.tsv"
        train.write_text("".join(
            f"e{rng.integers(100)}\trel{i % 200}\te{rng.integers(100)}\t"
            f"sig{i % 200} pad{rng.integers(4)}\n"
            for i in range(1000)
        ))
        model = tmp_path / "m.bin"
        got, _, err = run(
            capsys, "train", "--train", train, "--out", model, "--epochs", 4, "--seed", 1,
            "--lr", lr,
        )
        assert got == code
        assert ("overshoot" in err) == (float(lr) * 199 > 1)
        assert model.exists() == (code == 0)
        if code == 3:
            assert "diverged" in err.splitlines()[-1]

    def test_unknown_subcommand_is_1(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_malformed_model_is_2(self, corpus, capsys):
        tmp, train, test = corpus
        model = tmp / "m.bin"
        assert run(capsys, "train", "--train", train, "--out", model, "--epochs", 0)[0] == 0
        edit_header(model, lambda h: h.update(config=5))
        code, _, err = run(capsys, "eval", "--model", model, "--test", test)
        assert code == 2
        assert err.splitlines()[-1] == f"error: {model}: model header config is not a JSON object"

    def test_repeated_header_name_is_2_and_named(self, corpus, capsys):
        tmp, train, test = corpus
        model = tmp / "m.bin"
        assert run(capsys, "train", "--train", train, "--out", model, "--epochs", 0)[0] == 0
        first = load_model(model)[1].relations.names[0]
        edit_header(model, lambda h: h.update(relations=[first, first, *h["relations"][2:]]))
        code, _, err = run(capsys, "eval", "--model", model, "--test", test)
        assert code == 2
        assert err.splitlines()[-1] == (
            f"error: {model}: header 'relations' repeats the name {first!r}"
        )

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("kind, value", [("relation", np.nan), ("word", np.inf)])
    def test_non_finite_model_is_2(self, corpus, capsys, command, kind, value):
        tmp, train, test = corpus
        model = tmp / "m.bin"
        assert run(capsys, "train", "--train", train, "--out", model, "--epochs", 0)[0] == 0
        table, vocab, config, variant = load_model(model)
        getattr(table, f"{kind}_vecs")[1] = value
        save_model(table, vocab, config, model, variant)
        queries = tmp / "queries.tsv"
        queries.write_text("e1\te2\tsig0\n")
        argv = {"eval": ["--test", test], "predict": ["--input", queries]}[command]
        code, out, err = run(capsys, command, "--model", model, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {model}: {kind} table holds a non-finite value"]

    def test_closed_stdout_is_141_and_silent(self, corpus, capsys):
        tmp, train, _ = corpus
        model = tmp / "m.bin"
        assert run(capsys, "train", "--train", train, "--out", model, "--epochs", 0)[0] == 0
        head, _, tail, _ = train.read_text().splitlines()[0].split("\t")
        queries = tmp / "queries.tsv"
        # about 1 MB of output, far more than a pipe buffers
        queries.write_text(f"{head}\t{tail}\tsig0\n" * 8000)
        proc = subprocess.Popen(
            [sys.executable, "-m", "jrme.cli", "predict", "--model", model, "--input", queries],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env(),
        )
        assert proc.stdout.readline().startswith("1\t1\t")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        # a host without a C compiler adds its one backend notice
        assert [line for line in err.splitlines() if "numpy twin" not in line] == []

    @pytest.mark.parametrize("command", ["train", "eval", "predict", "stats"])
    def test_non_utf8_input_is_2_and_names_the_file(self, corpus, capsys, command):
        tmp, train, test = corpus
        model = tmp / "m.bin"
        assert run(capsys, "train", "--train", train, "--out", model, "--epochs", 0)[0] == 0
        bad = tmp / "bad.tsv"
        bad.write_bytes(b"e1\trel0\te2\tsig0\n" + b"e1\trel1\te2\tsig\xff\n")
        argv = {
            "train": ["--train", bad, "--out", tmp / "m2.bin", "--epochs", 0],
            "eval": ["--model", model, "--test", bad],
            "predict": ["--model", model, "--input", bad],
            "stats": ["--train", bad],
        }[command]
        code, _, err = run(capsys, command, *argv)
        assert code == 2
        assert err.splitlines()[-1].startswith(f"error: {bad}: not valid UTF-8")


class TestEvalCommand:
    def _train(self, corpus, capsys, **kw):
        tmp, train, test = corpus
        model = tmp / "model.bin"
        assert run(
            capsys, "train", "--train", train, "--out", model,
            "--dim", 10, "--epochs", 15, "--seed", 0,
        )[0] == 0
        return tmp, model, test

    def test_report_printed_with_invariants(self, corpus, capsys):
        tmp, model, test = self._train(corpus, capsys)
        code, out, _ = run(capsys, "eval", "--model", model, "--test", test)
        assert code == 0
        hit10 = float(re.search(r"hit_at_10=([0-9.e+-]+)", out).group(1))
        hit1 = float(re.search(r"hit_at_1=([0-9.e+-]+)", out).group(1))
        assert hit1 <= hit10
        # the corpus is separable by mentions, so it beats the 1/6 chance rate
        assert hit1 >= 0.9

    def test_threads_flags_accepted_and_ignored(self, corpus, capsys):
        tmp, model, test = self._train(corpus, capsys)
        one = run(capsys, "eval", "--model", model, "--test", test, "--threads", 1)
        two = run(capsys, "eval", "--model", model, "--test", test,
                  "--threads", 2, "--nondeterministic-ok")
        assert one[0] == two[0] == 0
        assert two[1] == one[1]

    def test_ranks_tsv_written(self, corpus, capsys):
        tmp, model, test = self._train(corpus, capsys)
        ranks = tmp / "ranks.tsv"
        code, _, _ = run(capsys, "eval", "--model", model, "--test", test,
                         "--ranks-out", ranks)
        assert code == 0
        assert ranks.read_text().splitlines()[0] == "index\trank"

    def test_partial_rejection_warns_but_succeeds(self, corpus, capsys):
        tmp, model, test = self._train(corpus, capsys)
        mixed = tmp / "mixed.tsv"
        mixed.write_text("ghost\trel0\te1\t\n# a comment line\n" + test.read_text())
        ranks = tmp / "ranks.tsv"
        code, out, err = run(capsys, "eval", "--model", model, "--test", mixed,
                             "--ranks-out", ranks)
        assert code == 0
        assert "1 line(s) rejected" in err
        # the index counts evaluated beliefs in file order, not input lines
        rows = [line.split("\t") for line in ranks.read_text().splitlines()[1:]]
        n = len(test.read_text().splitlines())
        assert [int(i) for i, _ in rows] == list(range(n))
        clean = tmp / "clean_ranks.tsv"
        alone = run(capsys, "eval", "--model", model, "--test", test, "--ranks-out", clean)[1]
        assert (out, ranks.read_text()) == (alone, clean.read_text())

    def test_fully_unknown_test_file_is_2(self, corpus, capsys):
        tmp, model, _ = self._train(corpus, capsys)
        bad = tmp / "bad.tsv"
        bad.write_text("a\tunknown\tb\t\nc\tunknown\td\t\n")
        code, _, err = run(capsys, "eval", "--model", model, "--test", bad)
        assert code == 2
        assert "rejected" in err


class TestPredictCommand:
    def _model(self, corpus, capsys):
        tmp, train, _ = corpus
        model = tmp / "model.bin"
        assert run(capsys, "train", "--train", train, "--out", model,
                   "--dim", 10, "--epochs", 15, "--seed", 0)[0] == 0
        return tmp, model

    def test_topk_all_relations_scores_nondecreasing(self, corpus, capsys):
        tmp, model = self._model(corpus, capsys)
        inp = tmp / "q.tsv"
        inp.write_text("e1\te2\tsig3\n")
        code, out, _ = run(capsys, "predict", "--model", model, "--input", inp,
                           "--topk", 6)
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert len(rows) == 6
        scores = [float(r[3]) for r in rows]
        assert scores == sorted(scores)
        assert rows[0][2] == "rel3"

    def test_empty_mention_matches_kre_ordering(self, corpus, capsys):
        tmp, model = self._model(corpus, capsys)
        inp = tmp / "q.tsv"
        inp.write_text("e1\te2\t\n")
        code, out, _ = run(capsys, "predict", "--model", model, "--input", inp,
                           "--topk", 6)
        assert code == 0
        table, vocab, _, _ = load_model(model)
        kre_scores = candidate_scores(table, vocab.entities.get("e1"),
                                      vocab.entities.get("e2"), (), "kre")
        expected = [vocab.relations.names[int(i)] for i in np.argsort(kre_scores, kind="stable")]
        got = [line.split("\t")[2] for line in out.splitlines()]
        assert got == expected

    def test_per_line_error_markers(self, corpus, capsys):
        tmp, model = self._model(corpus, capsys)
        inp = tmp / "q.tsv"
        # a byte-order mark is not part of the first line's head entity
        inp.write_text("\ufeffe1\te2\tsig0\nghost\te2\thello\ne1\te2\n# skipped\ne1\te2\tsig0\n",
                       encoding="utf-8")
        code, out, _ = run(capsys, "predict", "--model", model, "--input", inp,
                           "--topk", 1)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("1\t1\t")
        assert lines[1].startswith("2\tERROR\t") and "ghost" in lines[1]
        assert lines[2].startswith("3\tERROR\t") and "columns" in lines[2]
        assert lines[3].split("\t")[1:] == lines[0].split("\t")[1:]
        assert lines[3].startswith("5\t1\t")
        assert run(capsys, "predict", "--model", model, "--input", inp, "--topk", 0)[:2] == (1, "")


class TestPredictBlocks:
    """predict scores a block of lines per call; its output must be the
    per-line candidate_scores result, byte for byte."""

    def _query_file(self, tmp, rng):
        """More than two blocks of scorable lines, with comments and three
        kinds of ERROR line between them; returns (path, ERROR count)."""
        lines, errors = [], 0
        for i in range(2 * RANK_BLOCK + 90):
            h, t = rng.integers(25, size=2)
            words = rng.choice(["sig0", "sig3", "pad1", "SIG2", "unseen", "pad1"],
                               size=int(rng.integers(4)))
            lines.append(f"e{h}\te{t}\t{' '.join(words)}")
            if i % 97 == 5:
                lines.append("# a comment")
            if i % 131 == 7:
                lines += ["ghost\te1\tsig0", "e1\tsig2", ""]
                errors += 3
        path = tmp / "queries.tsv"
        path.write_text("\n".join(lines) + "\n")
        return path, errors

    @staticmethod
    def _reference(path, table, vocab, variant, topk):
        out = []
        k = min(topk, len(table.relation_vecs))
        for line_no, line in enumerate(path.read_text().split("\n")[:-1], 1):
            if line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                out.append(f"{line_no}\tERROR\texpected 3 tab-separated columns, got {len(cols)}")
                continue
            h, t = vocab.entities.get(cols[0]), vocab.entities.get(cols[1])
            if h is None or t is None:
                missing = cols[0] if h is None else cols[1]
                out.append(f"{line_no}\tERROR\tunknown entity {missing!r}")
                continue
            mention = [vocab.words.get(w) for w in cols[2].lower().split()]
            scores = candidate_scores(table, h, t, [w for w in mention if w is not None], variant)
            for pos, rid in enumerate(np.argsort(scores, kind="stable")[:k], 1):
                out.append(f"{line_no}\t{pos}\t{vocab.relations.names[int(rid)]}\t"
                           f"{float(scores[rid])!r}")
        return "".join(f"{line}\n" for line in out)

    @pytest.mark.parametrize("variant", ["kre", "tme", "jrme"])
    def test_blocks_equal_the_per_line_reference(self, corpus, capsys, rng, monkeypatch,
                                                 variant):
        tmp, train, _ = corpus
        model = tmp / "model.bin"
        assert run(capsys, "train", "--train", train, "--out", model,
                   "--dim", 10, "--epochs", 3, "--seed", 0)[0] == 0
        table, vocab, config, _ = load_model(model)
        # four equal rows, so tied scores straddle the 3rd place
        table.relation_vecs[[2, 4, 5]] = table.relation_vecs[1]
        save_model(table, vocab, config, model, variant)
        queries, errors = self._query_file(tmp, rng)
        tied = {vocab.relations.names[i] for i in (1, 2, 4, 5)}
        block_rows = []

        def counting_scorer(entity, relation, word, packed, *rest):
            block_rows.append(len(packed))
            return top_relations(entity, relation, word, packed, *rest)

        monkeypatch.setattr(jrme.cli, "top_relations", counting_scorer)
        for topk in (3, len(table.relation_vecs) + 3):
            code, out, _ = run(capsys, "predict", "--model", model, "--input", queries,
                               "--topk", topk)
            assert code == 0
            assert out == self._reference(queries, table, vocab, variant, topk)
            rows = [line.split("\t") for line in out.splitlines()]
            assert sum(r[1] == "1" for r in rows) == sum(block_rows) > 2 * RANK_BLOCK
            assert max(block_rows) <= RANK_BLOCK
            block_rows.clear()
            assert sum(r[1] == "ERROR" for r in rows) == errors > 3
            if topk == 3:
                assert any(r[1] == "3" and r[2] in tied for r in rows)


class TestGridCommand:
    def test_two_point_grid_reports_and_writes_best(self, corpus, capsys):
        tmp, train, test = corpus
        best_out = tmp / "best.json"
        code, out, _ = run(
            capsys, "grid", "--train", train, "--valid", test,
            "--dims", "6", "--alphas", "0.5,1.0", "--betas", "1.0", "--gammas", "2.0",
            "--epochs", 3, "--out", best_out,
        )
        assert code == 0
        lines = out.splitlines()
        assert len([l for l in lines if l.startswith("dim=")]) == 2
        assert lines[-1].startswith("best: ")
        best = json.loads(best_out.read_text())
        assert best["dim"] == 6
        assert best["alpha"] in (0.5, 1.0)

    def test_failed_out_rename_leaves_no_temp_file(self, corpus, capsys):
        tmp, train, test = corpus
        best_out = tmp / "best"
        best_out.mkdir()
        (best_out / "keep").write_text("")
        code, _, err = run(
            capsys, "grid", "--train", train, "--valid", test,
            "--dims", "4", "--alphas", "1.0", "--betas", "1.0", "--gammas", "2.0",
            "--epochs", 1, "--out", best_out,
        )
        assert code == 2 and err.splitlines()[-1].startswith("error: ")
        assert not (tmp / "best.tmp").exists()
        assert (best_out / "keep").exists()

    def test_duplicate_points_print_in_order_as_single_point_runs(self, corpus, capsys):
        # jrme reads only gamma, so each alpha pair and beta pair is a duplicate
        tmp, train, test = corpus
        best_out = tmp / "best.json"
        grid = {"--dims": ["4", "6"], "--alphas": ["0.5", "1.0"], "--betas": ["1.0", "3.0"],
                "--gammas": ["1.0", "2.0"]}
        common = ["--train", train, "--valid", test, "--epochs", 3, "--seed", 2]
        code, out, _ = run(
            capsys, "grid", *common, *(a for k, v in grid.items() for a in (k, ",".join(v))),
            "--out", best_out,
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 17

        singles = []
        for point in product(*grid.values()):
            code, single, _ = run(
                capsys, "grid", *common, *(a for k, v in zip(grid, point) for a in (k, v)),
            )
            assert code == 0
            singles.append(single.splitlines()[0])
        assert lines[:16] == singles

        def metrics(line):
            return line.split(" avg_rank=")[1]

        by_effective = {}
        for line in lines[:16]:
            fields = dict(f.split("=") for f in line.split())
            by_effective.setdefault((fields["dim"], fields["gamma"]), set()).add(metrics(line))
        assert len(by_effective) == 4
        assert all(len(m) == 1 for m in by_effective.values())

        def key(line):
            fields = dict(f.split("=") for f in line.split())
            return (float(fields["avg_rank"]), -float(fields["hit@10"]), -float(fields["hit@1"]))

        first_best = min(lines[:16], key=key)
        best = json.loads(best_out.read_text())
        assert lines[16] == "best: " + first_best.split(" avg_rank=")[0]
        assert (best["alpha"], best["beta"]) == (0.5, 1.0)
        assert first_best.startswith(
            f"dim={best['dim']} alpha={best['alpha']} beta={best['beta']} gamma={best['gamma']} "
        )

    def test_empty_grid_is_usage_error(self, corpus, capsys):
        tmp, train, test = corpus
        code, _, _ = run(
            capsys, "grid", "--train", train, "--valid", test, "--dims", "",
            "--epochs", 1,
        )
        assert code == 1

    @pytest.mark.parametrize("flag, values, message", [
        ("--gammas", "1,2,nan", "gamma must be finite"),
        ("--dims", "4,-1", "dim must be positive"),
    ])
    def test_invalid_grid_value_is_1_before_any_training(self, corpus, capsys, monkeypatch,
                                                         flag, values, message):
        import jrme.training

        calls = []
        real_train = jrme.training.train

        def counting_train(*args, **kwargs):
            calls.append(args[2])
            return real_train(*args, **kwargs)

        monkeypatch.setattr(jrme.training, "train", counting_train)
        tmp, train, test = corpus
        grid = {"--dims": "4", "--alphas": "1", "--betas": "1", "--gammas": "1", flag: values}
        flags = [a for k, v in grid.items() for a in (k, v)]
        # a bad list is reported before the (here missing) files are read
        for train_path in (train, tmp / "missing.tsv"):
            code, out, err = run(
                capsys, "grid", "--train", train_path, "--valid", test, *flags, "--epochs", 1,
            )
            assert (code, out, calls) == (1, "", [])
            assert message in err


class TestStatsCommand:
    def test_counts_printed(self, corpus, capsys):
        tmp, train, test = corpus
        code, out, _ = run(capsys, "stats", "--train", train, "--test", test)
        assert code == 0
        assert "#(ENTITIES)" in out
        assert "#(TESTING EX.)" in out
        assert "240" in out


class TestStoredVariant:
    def _model(self, corpus, capsys, variant):
        tmp, train, test = corpus
        model = tmp / f"{variant}.bin"
        assert run(capsys, "train", "--train", train, "--out", model, "--variant", variant,
                   "--dim", 8, "--epochs", 5, "--seed", 4)[0] == 0
        return tmp, model, test

    def test_eval_defaults_to_the_stored_variant(self, corpus, capsys):
        _, model, test = self._model(corpus, capsys, "tme")
        default = run(capsys, "eval", "--model", model, "--test", test)
        explicit = run(capsys, "eval", "--model", model, "--test", test, "--variant", "tme")
        assert default[0] == 0 and default == explicit
        assert "TME" in default[1]

    def test_explicit_variant_overrides_the_stored_one(self, corpus, capsys):
        _, model, test = self._model(corpus, capsys, "tme")
        code, out, _ = run(capsys, "eval", "--model", model, "--test", test, "--variant", "kre")
        assert code == 0
        assert "KRE" in out and "TME" not in out

    def test_predict_scores_with_the_stored_variant(self, corpus, capsys):
        tmp, model, _ = self._model(corpus, capsys, "tme")
        inp = tmp / "q.tsv"
        inp.write_text("e1\te2\tsig3 pad0\n")
        code, out, _ = run(capsys, "predict", "--model", model, "--input", inp, "--topk", 6)
        assert code == 0
        table, vocab, _, _ = load_model(model)
        mention = tuple(vocab.words.get(w) for w in ("sig3", "pad0"))
        scores = candidate_scores(table, vocab.entities.get("e1"), vocab.entities.get("e2"),
                                  mention, "tme")
        expected = [
            f"1\t{pos}\t{vocab.relations.names[int(rid)]}\t{float(scores[rid])!r}"
            for pos, rid in enumerate(np.argsort(scores, kind="stable"), 1)
        ]
        assert out.splitlines() == expected

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_model_without_variant_is_2(self, corpus, capsys, command):
        tmp, model, test = self._model(corpus, capsys, "tme")
        edit_header(model, lambda h: h.pop("variant"))
        queries = tmp / "queries.tsv"
        queries.write_text("e1\te2\tsig0\n")
        argv = {"eval": ["--test", test], "predict": ["--input", queries]}[command]
        code, out, err = run(capsys, command, "--model", model, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {model}: header missing 'variant'"]


def test_cli_commands_never_pack_belief_lists(corpus, capsys, monkeypatch):
    """The parser packs every split, so no command builds Belief objects."""

    def refuse(cls, beliefs):
        raise AssertionError("PackedBeliefs.from_beliefs called on the CLI path")

    monkeypatch.setattr(PackedBeliefs, "from_beliefs", classmethod(refuse))
    tmp, train, test = corpus
    model = tmp / "m.bin"
    common = ["--train", train, "--valid", test, "--epochs", 2]
    assert run(capsys, "train", *common, "--out", model, "--dim", 4)[0] == 0
    assert run(capsys, "eval", "--model", model, "--test", test)[0] == 0
    assert run(capsys, "grid", *common, "--dims", "4", "--alphas", "1", "--betas", "1",
               "--gammas", "1,2")[0] == 0
    assert run(capsys, "stats", "--train", train, "--test", test)[0] == 0


def test_benchmark_tracer_still_finds_every_entry_point(corpus, monkeypatch):
    """The benchmark's traced mode swaps engine functions by name; a train
    plus eval under it must record parse and epoch spans and leave every
    original in place afterwards."""
    bench = Path(__file__).resolve().parents[1] / "jrmebench"
    monkeypatch.setattr(sys, "path", [str(bench), *sys.path])
    import spans

    owners = [(o, a) for _, _, pairs in spans._entry_points() for o, a in pairs]
    # jrme.cli binds its engine names on their first read, as the tracer reads them
    for o, a in owners:
        getattr(o, a)
    before = [vars(o)[a] for o, a in owners]
    tmp, train, test = corpus
    model = tmp / "m.bin"
    tracer = spans.Tracer()
    with tracer.patched():
        assert main(["train", "--train", str(train), "--out", str(model), "--dim", "4",
                     "--epochs", "3", "--threads", "1"]) == 0
        assert main(["eval", "--model", str(model), "--test", str(test)]) == 0
    metrics = tracer.layer_metrics()
    assert metrics["data.lines_per_s"] > 0
    assert metrics["kernels.epoch_calls"] == 3
    assert metrics["kernels.pack_s"] == 0
    assert tracer.nested_ok()
    assert all(vars(o)[a] is original for (o, a), original in zip(owners, before))


class TestStartup:
    """A command pays only for what it runs: `stats` loads no numeric
    engine, the reading commands never build, hash or load the epoch
    kernel, and leave out the modules only training needs; `train` builds
    the kernel on first use."""

    TRAINING_ONLY = ("_hashlib", "tempfile", "concurrent.futures")
    ENGINE = ("numpy", "jrme.embeddings", "jrme.kernels", "jrme.training", "jrme.evaluation")

    def _run_script(self, tmp_path, script):
        """The last stdout line of `script` in a fresh interpreter, with a
        fresh cache and without site, whose start-up hooks may import
        anything."""
        env = _child_env(XDG_CACHE_HOME=str(tmp_path / "cache"))
        env["PYTHONPATH"] += os.pathsep + str(Path(np.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                             text=True, check=True, env=env)
        return out.stdout.splitlines()[-1]

    def _child(self, tmp_path, commands, modules=TRAINING_ONLY):
        """Run each argv through `jrme.cli.main` in one fresh interpreter.
        Returns the exit codes, the `BACKEND` the kernels module has bound
        (None before the first read or without the module) and which of
        `modules` are imported."""
        return self._run_script(tmp_path, (
            "import sys, jrme.cli\n"
            f"codes = [jrme.cli.main(argv) for argv in {commands!r}]\n"
            "backend = vars(sys.modules.get('jrme.kernels', sys)).get('BACKEND')\n"
            f"print(codes, backend, [m for m in {modules!r} if m in sys.modules])\n"
        ))

    def test_stats_loads_no_engine(self, corpus, tmp_path):
        _, train, test = corpus
        argv = ["stats", "--train", str(train), "--valid", str(test), "--test", str(test)]
        assert self._child(tmp_path, [argv], self.ENGINE) == "[0] None []"

    def test_engine_names_bind_on_first_read_and_keep_a_replacement(self, corpus, capsys,
                                                                      tmp_path):
        """Before any command, reading an engine name from `jrme.cli`
        gives the engine's function; a function put on `jrme.cli` before
        the engine is bound is the one the command calls."""
        tmp, train, test = corpus
        model = tmp / "model.bin"
        assert run(capsys, "train", "--train", train, "--out", model, "--dim", 4,
                   "--epochs", 1)[0] == 0
        script = (
            "import sys, jrme.cli\n"
            "calls = []\n"
            "def load_model(path):\n"
            "    calls.append(path)\n"
            "    return sys.modules['jrme.embeddings'].load_model(path)\n"
            "jrme.cli.load_model = load_model\n"
            "unbound = 'numpy' not in sys.modules and 'train' not in vars(jrme.cli)\n"
            "train = jrme.cli.train\n"
            "import jrme.training\n"
            "same = train is jrme.training.train and jrme.cli.load_model is load_model\n"
            f"code = jrme.cli.main(['eval', '--model', {str(model)!r}, '--test', {str(test)!r}])\n"
            f"print(unbound, same, code, calls == [{str(model)!r}])\n"
        )
        assert self._run_script(tmp_path, script) == "True True 0 True"

    def test_reading_commands_load_no_training_code(self, corpus, capsys, tmp_path):
        tmp, train, test = corpus
        model = tmp / "model.bin"
        assert run(capsys, "train", "--train", train, "--out", model, "--dim", 4,
                   "--epochs", 1)[0] == 0
        queries = tmp / "queries.tsv"
        queries.write_text("e1\te2\tsig1\ne3\te4\t\n")
        commands = [
            ["eval", "--model", str(model), "--test", str(test)],
            ["predict", "--model", str(model), "--input", str(queries)],
            ["stats", "--train", str(train), "--test", str(test)],
        ]
        assert self._child(tmp_path, commands) == "[0, 0, 0] None []"
        assert not (tmp_path / "cache" / "jrme").exists()

    @needs_c
    def test_train_builds_the_kernel(self, corpus, tmp_path):
        tmp, train, _ = corpus
        argv = ["train", "--train", str(train), "--out", str(tmp / "model.bin"),
                "--dim", "4", "--epochs", "1"]
        assert self._child(tmp_path, [argv]).startswith("[0] c ")
        (lib,) = (tmp_path / "cache" / "jrme").iterdir()
        assert lib.name.startswith("epoch-") and lib.suffix == ".so"
