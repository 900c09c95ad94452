import json
import struct

import numpy as np
import pytest

from jrme.config import ModelConfig, parse_neg_mode
from jrme.data import Vocabulary
from jrme.embeddings import init_embeddings, load_model, save_model
from jrme.errors import ConfigError, FormatError
from reference import edit_header, tables_equal
from synth_data import make_vocab


class TestModelConfig:
    def test_defaults_are_the_reference_point(self):
        c = ModelConfig()
        assert (c.dim, c.alpha, c.beta, c.gamma) == (100, 1.0, 1.0, 2.0)
        assert c.learning_rate == 0.01
        assert c.epochs == 100
        assert c.neg_mode == "all"
        assert c.normalize_entities

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"dim": -3},
            {"alpha": -0.1},
            {"beta": -1.0},
            {"gamma": -2.0},
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"epochs": -1},
            {"neg_mode": "some"},
            {"neg_mode": "sample:0"},
            {"neg_mode": "sample:x"},
            {"alpha": float("nan")},
            {"beta": float("inf")},
            {"gamma": float("nan")},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(**kwargs)
        # the stock NamedTuple _replace would skip the checks
        with pytest.raises(ConfigError):
            ModelConfig()._replace(**kwargs)

    def test_zero_epochs_and_zero_margins_allowed(self):
        ModelConfig(epochs=0, alpha=0.0, beta=0.0, gamma=0.0)

    def test_parse_neg_mode(self):
        assert parse_neg_mode("all") == ("all", 0)
        assert parse_neg_mode("sample:7") == ("sample", 7)
        with pytest.raises(ConfigError):
            parse_neg_mode("sample:")


class TestInit:
    def test_bounds_and_entity_norms(self):
        vocab = make_vocab(40, 9, 15)
        for d in (4, 25):
            table = init_embeddings(vocab, ModelConfig(dim=d, seed=3))
            bound = 6.0 / np.sqrt(d)
            assert np.abs(table.relation_vecs).max() <= bound
            assert np.abs(table.word_vecs).max() <= bound
            norms = np.linalg.norm(table.entity_vecs, axis=1)
            assert np.abs(norms - 1.0).max() < 1e-6

    def test_pure_function_of_seed_and_sizes(self):
        vocab = make_vocab(10, 4, 6)
        cfg = ModelConfig(dim=8, seed=99)
        a = init_embeddings(vocab, cfg)
        b = init_embeddings(vocab, cfg)
        assert tables_equal(a, b)

    def test_different_seeds_differ(self):
        vocab = make_vocab(10, 4, 6)
        a = init_embeddings(vocab, ModelConfig(dim=8, seed=0))
        b = init_embeddings(vocab, ModelConfig(dim=8, seed=1))
        assert not (a.relation_vecs == b.relation_vecs).all()

    def test_later_tables_do_not_perturb_earlier_ones(self):
        # draw order is entities, relations, words, from one stream
        cfg = ModelConfig(dim=6, seed=5)
        small = init_embeddings(make_vocab(10, 4, 6), cfg)
        more_words = init_embeddings(make_vocab(10, 4, 60), cfg)
        assert (small.entity_vecs == more_words.entity_vecs).all()
        assert (small.relation_vecs == more_words.relation_vecs).all()

    def test_negative_seed_accepted(self):
        init_embeddings(make_vocab(3, 2, 2), ModelConfig(dim=4, seed=-17))

    def test_table_shapes(self):
        table = init_embeddings(make_vocab(7, 3, 5), ModelConfig(dim=4))
        shapes = [t.shape for t in (table.entity_vecs, table.relation_vecs, table.word_vecs)]
        assert shapes == [(7, 4), (3, 4), (5, 4)]


class TestPersistence:
    def _fixture(self, dim=6):
        vocab = make_vocab(8, 3, 5)
        cfg = ModelConfig(dim=dim, alpha=0.5, epochs=7, seed=11, neg_mode="sample:2")
        return init_embeddings(vocab, cfg), vocab, cfg

    def test_round_trip_is_bitwise(self, tmp_path):
        table, vocab, cfg = self._fixture()
        path = tmp_path / "model.bin"
        save_model(table, vocab, cfg, path, "tme")
        table2, vocab2, cfg2, variant2 = load_model(path)
        assert cfg2 == cfg
        assert variant2 == "tme"
        assert list(vocab2.entities.items()) == list(vocab.entities.items())
        assert list(vocab2.relations.items()) == list(vocab.relations.items())
        assert list(vocab2.words.items()) == list(vocab.words.items())
        assert tables_equal(table2, table)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "model.bin"
        p.write_bytes(b"NOTJRMEFILE")
        with pytest.raises(FormatError) as err:
            load_model(p)
        assert "magic" in str(err.value)

    def test_truncation_names_the_missing_section(self, tmp_path):
        table, vocab, cfg = self._fixture()
        path = tmp_path / "model.bin"
        save_model(table, vocab, cfg, path, "jrme")
        blob = path.read_bytes()
        for cut, needle in [
            (10, "header"),
            (len(blob) - 1, "word table"),
        ]:
            clipped = tmp_path / "clipped.bin"
            clipped.write_bytes(blob[:cut])
            with pytest.raises(FormatError) as err:
                load_model(clipped)
            assert needle in str(err.value)
            assert str(clipped) in str(err.value)

    def test_trailing_garbage_rejected(self, tmp_path):
        table, vocab, cfg = self._fixture()
        path = tmp_path / "model.bin"
        save_model(table, vocab, cfg, path, "jrme")
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert "trailing" in str(err.value)

    @pytest.mark.parametrize("kind,value", [
        ("entity", np.nan), ("relation", np.nan), ("relation", -np.inf), ("word", np.inf),
    ])
    def test_non_finite_table_rejected(self, tmp_path, kind, value):
        table, vocab, cfg = self._fixture()
        getattr(table, f"{kind}_vecs")[1, 2] = value
        path = tmp_path / "model.bin"
        save_model(table, vocab, cfg, path, "jrme")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert f"{kind} table holds a non-finite value" in str(err.value)
        assert str(path) in str(err.value)

    def test_header_with_bad_config_rejected(self, tmp_path):
        table, vocab, _ = self._fixture()
        path = tmp_path / "model.bin"
        save_model(table, vocab, ModelConfig(dim=6), path, "jrme")
        raw = bytearray(path.read_bytes())
        # corrupt the JSON header in place
        idx = raw.find(b'"dim": 6')
        raw[idx : idx + 8] = b'"dim": 0'
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_model(path)

    def test_header_dim_must_match_config_dim(self, tmp_path):
        table, vocab, _ = self._fixture(dim=4)
        path = tmp_path / "model.bin"
        save_model(table, vocab, ModelConfig(dim=7), path, "jrme")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert "dim 4" in str(err.value) and "dim 7" in str(err.value)

    def test_header_without_variant_rejected(self, tmp_path):
        table, vocab, cfg = self._fixture()
        path = tmp_path / "model.bin"
        save_model(table, vocab, cfg, path, "tme")
        edit_header(path, lambda h: h.pop("variant"))
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: header missing 'variant'"

    def test_empty_relation_list_rejected(self, tmp_path):
        # nothing to rank: predict would index an empty score row
        vocab = Vocabulary(["a", "b"], [], ["w"])
        cfg = ModelConfig(dim=4)
        path = tmp_path / "model.bin"
        save_model(init_embeddings(vocab, cfg), vocab, cfg, path, "jrme")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: header 'relations' is empty"

    def test_unknown_variant_rejected(self, tmp_path):
        table, vocab, cfg = self._fixture()
        path = tmp_path / "model.bin"
        save_model(table, vocab, cfg, path, "tme")
        edit_header(path, lambda h: h.update(variant="kme"))
        with pytest.raises(FormatError, match="kme"):
            load_model(path)

    @pytest.mark.parametrize(
        "header_len, header",
        [
            (2**63, None),
            (2**40, None),
            (None, ["config", "dim", "entities", "relations", "words"]),
            (None, {"config": 5}),
            (None, {"config": {"neg_mode": 5}}),
            (None, {"config": {"dim": 6.0}}),
            (None, {"entities": 5}),
            (None, {"words": [["w"]]}),
            (None, {"config": {"dim": 10**15}, "dim": 10**15, "entities": ["e"],
                    "relations": ["r"], "words": []}),
            (None, {"config": {"gamma": float("nan")}}),
        ],
        ids=["len-2^63", "len-2^40", "list", "config-int", "neg-mode-int", "dim-float",
             "entities-int", "word-list", "dim-1e15", "gamma-nan"],
    )
    def test_malformed_header_is_a_format_error(self, tmp_path, header_len, header):
        table, vocab, cfg = self._fixture()
        path = tmp_path / "model.bin"
        save_model(table, vocab, cfg, path, "jrme")
        blob = path.read_bytes()
        (n,) = struct.unpack("<Q", blob[6:14])
        if isinstance(header, dict):
            fields = json.loads(blob[14 : 14 + n])
            for key, value in header.items():
                if isinstance(value, dict):
                    fields[key].update(value)
                else:
                    fields[key] = value
            header = fields
        new = blob[14 : 14 + n] if header is None else json.dumps(header).encode("utf-8")
        length = len(new) if header_len is None else header_len
        path.write_bytes(blob[:6] + struct.pack("<Q", length) + new + blob[14 + n :])
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(path) in str(err.value)
