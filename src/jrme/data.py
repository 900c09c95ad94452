"""Belief files, vocabularies and datasets.

A belief file is UTF-8 text with LF line endings, one belief per line,
four TAB-separated columns::

    head_entity <TAB> relation <TAB> tail_entity <TAB> mention

The mention column may be empty.  Lines starting with '#' are comments
and are skipped.  A leading UTF-8 byte-order mark is not part of the
first line.  Example line::

    caroline\tcitylocatedinstate\tmaryland\tCounty and State of

The parser writes each split straight into a `PackedBeliefs`, the int64
id arrays that training, evaluation and grid search read.  `Belief`, one
example as a frozen tuple of ids, is the form of the reference scorers
and of tests; `PackedBeliefs.from_beliefs` and indexing convert between
the two.  Nothing writes a belief back as text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ParseError


class IdMap:
    """Bidirectional symbol <-> dense-id map; ids are contiguous from 0,
    first the positions in `names` (a repeat raises DataError), then `add`s."""

    __slots__ = ("_ids", "_names")

    def __init__(self, names=()):
        self._names: list[str] = list(names)
        self._ids: dict[str, int] = {name: i for i, name in enumerate(self._names)}
        if len(self._ids) != len(self._names):
            repeated = next(n for i, n in enumerate(self._names) if self._ids[n] != i)
            raise DataError(f"repeats the name {repeated!r}")

    def add(self, name: str) -> int:
        """Return the id for name, registering it if unseen."""
        i = self._ids.get(name)
        if i is None:
            i = len(self._names)
            self._ids[name] = i
            self._names.append(name)
        return i

    def get(self, name: str) -> int | None:
        return self._ids.get(name)

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)


class Vocabulary:
    """Entity, relation and mention-word namespaces, each an IdMap built
    from its list of names; a repeated name raises DataError naming both."""

    def __init__(self, entities=(), relations=(), words=()):
        maps = []
        for kind, names in (("entities", entities), ("relations", relations), ("words", words)):
            try:
                maps.append(IdMap(names))
            except DataError as e:
                raise DataError(f"{kind!r} {e}") from None
        self.entities, self.relations, self.words = maps


@dataclass(frozen=True)
class Belief:
    """One (head, relation, tail) triple plus its mention word ids."""

    head: int
    relation: int
    tail: int
    mention: tuple[int, ...] = ()


class PackedBeliefs:
    """Beliefs as int64 id arrays, the form the kernels read.

    Mentions are ragged, so they live in one flat array indexed by
    per-belief offsets: belief i's words are
    mention_flat[mention_off[i]:mention_off[i + 1]].  The constructor
    converts id lists (or arrays) to int64 arrays; with no arguments it
    holds no beliefs.
    """

    __slots__ = ("heads", "relations", "tails", "mention_off", "mention_flat")

    def __init__(self, heads=(), relations=(), tails=(), mention_off=(0,), mention_flat=()):
        self.heads = np.asarray(heads, dtype=np.int64)
        self.relations = np.asarray(relations, dtype=np.int64)
        self.tails = np.asarray(tails, dtype=np.int64)
        self.mention_off = np.asarray(mention_off, dtype=np.int64)
        self.mention_flat = np.asarray(mention_flat, dtype=np.int64)

    def __len__(self) -> int:
        return self.heads.shape[0]

    def __getitem__(self, i: int) -> Belief:
        i = range(len(self))[i]
        words = self.mention_flat[self.mention_off[i] : self.mention_off[i + 1]]
        return Belief(
            int(self.heads[i]), int(self.relations[i]), int(self.tails[i]),
            tuple(int(w) for w in words),
        )

    @classmethod
    def from_beliefs(cls, beliefs) -> "PackedBeliefs":
        off = [0]
        words = []
        for b in beliefs:
            words.extend(b.mention)
            off.append(len(words))
        return cls(
            [b.head for b in beliefs], [b.relation for b in beliefs], [b.tail for b in beliefs],
            off, words,
        )


@dataclass
class Dataset:
    train: PackedBeliefs
    valid: PackedBeliefs = field(default_factory=PackedBeliefs)
    test: PackedBeliefs = field(default_factory=PackedBeliefs)


@dataclass
class ParseResult:
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


def parse_belief_file(path, vocab: Vocabulary, mode: str = "build") -> ParseResult:
    """Read a belief file into packed id-space beliefs.

    mode="build" registers unseen entities, relations and words.
    mode="frozen" rejects lines whose head, relation or tail is unknown
    (counted in the result) and silently drops unknown mention words.

    Raises ParseError for lines that do not have exactly 4 columns,
    DataError if the file is not UTF-8, and OSError if it cannot be read.
    """
    if mode not in ("build", "frozen"):
        raise ConfigError(f"unknown parse mode: {mode!r}")
    build = mode == "build"
    entity = vocab.entities.add if build else vocab.entities.get
    relation = vocab.relations.add if build else vocab.relations.get
    word = vocab.words.add if build else vocab.words.get
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
        words.extend(w for w in map(word, tokenize_mention(mention_s)) if w is not None)
        off.append(len(words))
    return ParseResult(PackedBeliefs(heads, relations, tails, off, words), rejected)


def load_dataset(train_path, valid_path=None, test_path=None):
    """Load train/valid/test belief files.

    The vocabulary is built from the training file; validation and test
    files are parsed with the vocabulary frozen, so lines referencing
    unknown entities or relations are dropped and counted.

    Returns (Dataset, Vocabulary, rejected) where rejected maps split
    name to the number of rejected lines.
    """
    vocab = Vocabulary()
    train = parse_belief_file(train_path, vocab, "build")
    rejected = {"train": train.rejected}
    valid = test = ParseResult(PackedBeliefs())
    if valid_path is not None:
        valid = parse_belief_file(valid_path, vocab, "frozen")
        rejected["valid"] = valid.rejected
    if test_path is not None:
        test = parse_belief_file(test_path, vocab, "frozen")
        rejected["test"] = test.rejected
    return Dataset(train.beliefs, valid.beliefs, test.beliefs), vocab, rejected


def format_stats(ds: Dataset, vocab: Vocabulary) -> str:
    rows = [
        ("#(ENTITIES)", len(vocab.entities)),
        ("#(RELATIONS)", len(vocab.relations)),
        ("#(TRAINING EX.)", len(ds.train)),
        ("#(VALIDATING EX.)", len(ds.valid)),
        ("#(TESTING EX.)", len(ds.test)),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {count:>10,}" for label, count in rows)
