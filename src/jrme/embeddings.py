"""Embedding tables and model-file persistence.

Model file layout (all integers little-endian):

    bytes 0..5    magic b"JRME1\\n"
    bytes 6..13   uint64 length of the JSON header
    header        UTF-8 JSON: config, the variant the model was trained as, and
                  entity/relation/word names in id order
    payload       entity, relation and word tables, row-major float64
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .config import _SEED_MASK, VARIANTS, ModelConfig
from .data import Vocabulary
from .errors import ConfigError, DataError, FormatError

MAGIC = b"JRME1\n"


@dataclass
class EmbeddingTable:
    """Dense float64 vectors for entities, relations and mention words.

    All three tables share one dimension so relation and mention vectors
    live in the same space.
    """

    entity_vecs: np.ndarray
    relation_vecs: np.ndarray
    word_vecs: np.ndarray


def init_embeddings(vocab: Vocabulary, config: ModelConfig) -> EmbeddingTable:
    """Draw fresh tables: uniform on [-6/sqrt(d), 6/sqrt(d)] componentwise,
    then entity rows rescaled to unit Euclidean norm.

    A pure function of (seed, vocabulary sizes, dim): equal inputs give
    bit-identical tables.  Generation order is entities, relations, words.
    """
    d = config.dim
    bound = 6.0 / np.sqrt(d)
    rng = np.random.default_rng(config.seed & _SEED_MASK)
    entity = rng.uniform(-bound, bound, (len(vocab.entities), d))
    relation = rng.uniform(-bound, bound, (len(vocab.relations), d))
    word = rng.uniform(-bound, bound, (len(vocab.words), d))
    norms = np.linalg.norm(entity, axis=1, keepdims=True)
    np.maximum(norms, np.finfo(np.float64).tiny, out=norms)
    entity /= norms
    return EmbeddingTable(entity, relation, word)


def _config_from_dict(d) -> ModelConfig:
    if not isinstance(d, dict):
        raise FormatError("model header config is not a JSON object")
    defaults = dataclasses.asdict(ModelConfig())
    unknown = set(d) - set(defaults)
    if unknown:
        raise FormatError(f"model header has unknown config keys: {sorted(unknown)}")
    for key, value in d.items():
        # JSON has one number type for ints and floats; a float field takes either
        want = (int, float) if type(defaults[key]) is float else type(defaults[key])
        if not isinstance(value, want) or isinstance(value, bool) != (want is bool):
            raise FormatError(f"model header config {key!r} has the wrong type: {value!r}")
    try:
        return ModelConfig(**d)
    except (TypeError, ConfigError) as e:
        raise FormatError(f"model header config is invalid: {e}") from None


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a sibling `<path>.tmp` for writing and rename it over `path`
    when the block ends cleanly.

    On any exception, in the block or in the rename, the temp file is
    removed, so a failed write leaves neither a partial target nor a stray
    temp file.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(
    table: EmbeddingTable, vocab: Vocabulary, config: ModelConfig, path, variant: str
) -> None:
    """Write table + vocabulary + config + variant as one self-describing file.

    The write is atomic (`atomic_write`), so a failed save never leaves a
    partial model.
    """
    header = {
        "config": dataclasses.asdict(config),
        "variant": variant,
        "dim": table.relation_vecs.shape[1],
        "entities": vocab.entities.names,
        "relations": vocab.relations.names,
        "words": vocab.words.names,
    }
    blob = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        f.write(np.ascontiguousarray(table.entity_vecs, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(table.relation_vecs, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(table.word_vecs, dtype="<f8").tobytes())


def load_model(path) -> tuple[EmbeddingTable, Vocabulary, ModelConfig, str]:
    """Exact inverse of save_model: (table, vocab, config, variant)."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read_exact(n: int, what: str) -> bytes:
            # a length read from the file is untrusted: never ask for more than is left
            buf = f.read(min(n, size - f.tell()))
            if len(buf) != n:
                raise FormatError(f"{path}: {what} truncated: expected {n} bytes, got {len(buf)}")
            return buf

        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise FormatError(f"{path}: not a JRME model file (bad magic)")
        (header_len,) = struct.unpack("<Q", read_exact(8, "header length"))
        blob = read_exact(header_len, "header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"{path}: unreadable header: {e}") from None
        if not isinstance(header, dict):
            raise FormatError(f"{path}: header is not a JSON object")
        for key in ("config", "variant", "dim", "entities", "relations", "words"):
            if key not in header:
                raise FormatError(f"{path}: header missing {key!r}")
        for key in ("entities", "relations", "words"):
            if not (isinstance(header[key], list) and all(isinstance(n, str) for n in header[key])):
                raise FormatError(f"{path}: header {key!r} is not a list of strings")
        try:
            config = _config_from_dict(header["config"])
        except FormatError as e:
            raise FormatError(f"{path}: {e}") from None
        variant = header["variant"]
        if variant not in VARIANTS:
            raise FormatError(f"{path}: unknown variant {variant!r} in header")
        dim = config.dim
        if header["dim"] != dim:
            raise FormatError(
                f"{path}: header dim {header['dim']!r} disagrees with config dim {dim}"
            )
        try:
            vocab = Vocabulary(header["entities"], header["relations"], header["words"])
        except DataError as e:
            raise FormatError(f"{path}: header {e}") from None

        def read_table(n_rows: int, what: str) -> np.ndarray:
            # checked against the bytes left before the array is allocated,
            # then read straight into it
            n, left = n_rows * dim * 8, size - f.tell()
            if n > left:
                raise FormatError(
                    f"{path}: {what} table truncated: expected {n} bytes, got {left}")
            vecs = np.empty((n_rows, dim), dtype="<f8")
            if f.readinto(vecs) != n:
                raise FormatError(f"{path}: {what} table shrank while it was read")
            vecs = vecs.astype(np.float64, copy=False)
            # training never saves one, and nan would rank every relation first
            if not np.isfinite(vecs).all():
                raise FormatError(f"{path}: {what} table holds a non-finite value")
            return vecs

        entity = read_table(len(vocab.entities), "entity")
        relation = read_table(len(vocab.relations), "relation")
        word = read_table(len(vocab.words), "word")
        if f.read(1):
            raise FormatError(f"{path}: trailing data after word table")
    return EmbeddingTable(entity, relation, word), vocab, config, variant
