"""Belief files, vocabularies and datasets.

A belief file is UTF-8 text with LF line endings, one belief per line,
four TAB-separated columns::

    head_entity <TAB> relation <TAB> tail_entity <TAB> mention

The mention column may be empty.  Lines starting with '#' are comments
and are skipped.  A leading UTF-8 byte-order mark is not part of the
first line.  Example line::

    caroline\tcitylocatedinstate\tmaryland\tCounty and State of

Reading a split takes two steps.  One line loop (`_parse_ids`) turns a
file into id lists plus the count of rejected lines.  `parse_belief_file`
then packs those lists into a `PackedBeliefs`, the int64 id arrays that
training, evaluation and grid search read; `count_beliefs`, what `jrme
stats` runs, only counts them, so it never imports numpy.  Nothing
writes a belief back as text.

A `Vocabulary` is three plain dicts from name to dense id.  Build mode
gives each unseen name the next id; frozen mode only looks names up.
Both are C-level dict lookups in the line loop.  No class here is a
dataclass, whose module loads `inspect`.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConfigError, DataError, ParseError


class Vocabulary:
    """Entity, relation and mention-word namespaces, each a dict from name
    to id, 0, 1, ... in insertion order (so `list(d)` is the names in id
    order), built from its list of names; a repeat raises DataError."""

    def __init__(self, entities=(), relations=(), words=()):
        maps = []
        for kind, names in (("entities", entities), ("relations", relations), ("words", words)):
            ids = dict(zip(names, range(len(names))))
            if len(ids) < len(names):  # a repeat keeps its last id
                repeat = next(name for i, name in enumerate(names) if ids[name] != i)
                raise DataError(f"{kind!r} repeats the name {repeat!r}")
            maps.append(ids)
        self.entities, self.relations, self.words = maps


class PackedBeliefs:
    """Beliefs as int64 id arrays, the form the kernels read.

    Mentions are ragged, so they live in one flat array indexed by
    per-belief offsets: belief i's words are
    mention_flat[mention_off[i]:mention_off[i + 1]].  The constructor
    converts id lists (or arrays) to int64 arrays, importing numpy, which
    nothing else in this module needs; with no arguments it holds no
    beliefs.
    """

    __slots__ = ("heads", "relations", "tails", "mention_off", "mention_flat")

    def __init__(self, heads=(), relations=(), tails=(), mention_off=(0,), mention_flat=()):
        import numpy as np

        self.heads = np.asarray(heads, dtype=np.int64)
        self.relations = np.asarray(relations, dtype=np.int64)
        self.tails = np.asarray(tails, dtype=np.int64)
        self.mention_off = np.asarray(mention_off, dtype=np.int64)
        self.mention_flat = np.asarray(mention_flat, dtype=np.int64)

    def __len__(self) -> int:
        return self.heads.shape[0]

    @classmethod
    def from_beliefs(cls, beliefs) -> "PackedBeliefs":
        """Pack objects with `head`, `relation`, `tail` and `mention` ids."""
        off = [0]
        words = []
        for b in beliefs:
            words.extend(b.mention)
            off.append(len(words))
        return cls(
            [b.head for b in beliefs], [b.relation for b in beliefs], [b.tail for b in beliefs],
            off, words,
        )


class Dataset:
    """The train and valid splits; a valid split not given is empty."""

    __slots__ = ("train", "valid")

    def __init__(self, train: PackedBeliefs, valid=None):
        self.train = train
        self.valid = PackedBeliefs() if valid is None else valid


class ParseResult(NamedTuple):
    beliefs: PackedBeliefs
    rejected: int = 0


def tokenize_mention(raw: str) -> list[str]:
    """Lowercase and split on whitespace runs; duplicates are kept.

    No stemming and no punctuation stripping: the mention is treated as
    a plain bag of surface tokens.
    """
    return raw.lower().split()


def read_lines(path):
    """Yield (line_no, line) for each non-comment line of a UTF-8 text
    file, without its newline; line numbers count comment lines too.  A
    leading byte-order mark is not part of the first line.

    Raises DataError naming the file if it is not valid UTF-8, and
    OSError if it cannot be read.
    """
    try:
        with open(path, encoding="utf-8-sig") as f:
            for line_no, line in enumerate(f, 1):
                if not line.startswith("#"):
                    yield line_no, line.rstrip("\n")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not valid UTF-8 ({e.reason})") from None


class _NextId(dict):
    """A name-to-id dict that gives a missing name the next dense id."""

    def __missing__(self, name):
        self[name] = i = len(self)
        return i


def _parse_ids(path, vocab: Vocabulary, mode: str) -> tuple[tuple[list[int], ...], int]:
    """The line loop behind `parse_belief_file` and `count_beliefs`:
    ((heads, relations, tails, mention_off, mention_flat) as id lists,
    rejected line count); arguments and errors as `parse_belief_file`."""
    if mode not in ("build", "frozen"):
        raise ConfigError(f"unknown parse mode: {mode!r}")
    build = mode == "build"
    # a build lookup gives an unseen name the next id, a frozen one None
    maps = [_NextId(d) if build else d for d in (vocab.entities, vocab.relations, vocab.words)]
    entity, relation, word = (d.__getitem__ if build else d.get for d in maps)
    heads, relations, tails, off, words = [], [], [], [0], []
    rejected = 0
    for line_no, line in read_lines(path):
        cols = line.split("\t")
        if len(cols) != 4:
            raise ParseError(f"{path}:{line_no}: expected 4 tab-separated columns, got {len(cols)}")
        head_s, rel_s, tail_s, mention_s = cols
        h, r, t = entity(head_s), relation(rel_s), entity(tail_s)
        if h is None or r is None or t is None:
            rejected += 1
            continue
        heads.append(h)
        relations.append(r)
        tails.append(t)
        ids = list(map(word, tokenize_mention(mention_s)))
        if None in ids:  # frozen mode drops unknown words
            ids = [w for w in ids if w is not None]
        words += ids
        off.append(len(words))
    if build:  # the vocabulary keeps plain dicts
        vocab.entities, vocab.relations, vocab.words = map(dict, maps)
    return (heads, relations, tails, off, words), rejected


def parse_belief_file(path, vocab: Vocabulary, mode: str = "build") -> ParseResult:
    """Read a belief file into packed id-space beliefs.

    mode="build" registers unseen entities, relations and words.
    mode="frozen" rejects lines whose head, relation or tail is unknown
    (counted in the result) and silently drops unknown mention words.

    Raises ParseError for lines that do not have exactly 4 columns,
    DataError if the file is not UTF-8, and OSError if it cannot be read.
    """
    ids, rejected = _parse_ids(path, vocab, mode)
    return ParseResult(PackedBeliefs(*ids), rejected)


def _read_splits(parse, train_path, valid_path, test_path=None):
    """({split: parse's result}, vocabulary) for the splits given.

    The vocabulary is built from the training file; validation and test
    files are parsed with the vocabulary frozen, so lines referencing
    unknown entities or relations are dropped and counted.
    """
    vocab = Vocabulary()
    parsed = {"train": parse(train_path, vocab, "build")}
    for split, path in (("valid", valid_path), ("test", test_path)):
        if path is not None:
            parsed[split] = parse(path, vocab, "frozen")
    return parsed, vocab


def load_dataset(train_path, valid_path=None):
    """Load train/valid belief files (see `_read_splits`).

    Returns (Dataset, Vocabulary, rejected) where rejected maps split
    name to the number of rejected lines; a split with no file is empty.
    """
    parsed, vocab = _read_splits(parse_belief_file, train_path, valid_path)
    dataset = Dataset(**{split: beliefs for split, (beliefs, _) in parsed.items()})
    return dataset, vocab, {split: rejected for split, (_, rejected) in parsed.items()}


def count_beliefs(train_path, valid_path=None, test_path=None):
    """`load_dataset` without the arrays, and with a test split: (beliefs
    per split, Vocabulary, rejected), each dict keyed by the splits given."""
    parsed, vocab = _read_splits(_parse_ids, train_path, valid_path, test_path)
    counts = {split: len(ids[0]) for split, (ids, _) in parsed.items()}
    return counts, vocab, {split: rejected for split, (_, rejected) in parsed.items()}


def format_stats(vocab: Vocabulary, counts: dict[str, int]) -> str:
    """The `jrme stats` table: vocabulary sizes, then the beliefs per
    split as `count_beliefs` counts them (a split it lacks counts 0)."""
    rows = [
        ("#(ENTITIES)", len(vocab.entities)),
        ("#(RELATIONS)", len(vocab.relations)),
        ("#(TRAINING EX.)", counts.get("train", 0)),
        ("#(VALIDATING EX.)", counts.get("valid", 0)),
        ("#(TESTING EX.)", counts.get("test", 0)),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {count:>10,}" for label, count in rows)
