"""Relation-ranking evaluation: Average Rank, Hit@10, Hit@1.

Every candidate relation is substituted for the true one and scored;
candidates are ranked ascending (lower score is better).  Ranking is
raw: nothing is filtered out, and the candidate set always includes
the true relation itself.  Ties are broken by relation id, which makes
every rank deterministic.  Every score is `kernels.relation_scores` and
every rank the true id's place in its stable argsort, so a belief gets
the same score and rank alone as inside `evaluate`, whose
`kernels.rank_all` sorts by BLAS scores and rescores exactly every belief
whose order they cannot settle.
`evaluate` and `candidate_scores` build queries from packed lines with
`kernels.queries`, which checks heads, tails and words; `rank_all` checks
the true relations.  No command calls `candidate_scores`, which scores
one query for the tests' rank oracle and the benchmark's tracer.
"""

from __future__ import annotations

from typing import NamedTuple

from . import atomic_write
from .config import variant_flags
from .data import PackedBeliefs
from .embeddings import EmbeddingTable
from .errors import DataError
from .kernels import queries, rank_all, relation_scores


class EvalReport(NamedTuple):
    """Aggregate metrics plus the rank of each belief, in belief order."""

    avg_rank: float
    hit_at_10: float
    hit_at_1: float
    ranks: tuple

    @property
    def n_examples(self) -> int:
        return len(self.ranks)


def summarize_ranks(ranks) -> tuple[float, float, float]:
    """(average rank, Hit@10, Hit@1) from a list of integer ranks.

    Plain Python arithmetic, so small cases come out exact: [1, 3, 20]
    gives exactly (8.0, 2/3, 1/3).
    """
    ranks = list(ranks)
    if not ranks:
        raise DataError("cannot summarize an empty rank list")
    n = len(ranks)
    avg = sum(ranks) / n
    hit10 = sum(1 for r in ranks if r <= 10) / n
    hit1 = sum(1 for r in ranks if r <= 1) / n
    return avg, hit10, hit1


def candidate_scores(table: EmbeddingTable, head: int, tail: int, mention, variant: str):
    """Score of every relation id substituted into (head, ?, tail, mention)."""
    query = PackedBeliefs([head], (), [tail], [0, len(mention)], mention)
    blocks = queries(table.entity_vecs, table.word_vecs, query, *variant_flags(variant))
    return relation_scores(blocks, table.relation_vecs)[0]


def evaluate(table: EmbeddingTable, beliefs: PackedBeliefs, variant: str) -> EvalReport:
    """Rank every belief's true relation and aggregate the metrics."""
    if not beliefs:
        raise DataError("evaluation split is empty")
    blocks = queries(table.entity_vecs, table.word_vecs, beliefs, *variant_flags(variant))
    ranks = tuple(rank_all(blocks, table.relation_vecs, beliefs.relations).tolist())
    return EvalReport(*summarize_ranks(ranks), ranks)


def format_report(report: EvalReport, label: str) -> str:
    """Small table plus a machine-readable key=value block."""
    head = f"{'approach':<12}{'avg rank':>10}{'Hit@10':>10}{'Hit@1':>10}"
    row = (
        f"{label:<12}{report.avg_rank:>10.2f}"
        f"{report.hit_at_10 * 100:>9.1f}%{report.hit_at_1 * 100:>9.1f}%"
    )
    block = "\n".join(
        [
            f"avg_rank={report.avg_rank!r}",
            f"hit_at_10={report.hit_at_10!r}",
            f"hit_at_1={report.hit_at_1!r}",
            f"n_examples={report.n_examples}",
        ]
    )
    return f"{head}\n{row}\n\n{block}"


def write_ranks_tsv(report: EvalReport, path) -> None:
    """One "index TAB rank" line per evaluated belief, written atomically;
    the index counts evaluated beliefs from 0, not input lines."""
    with atomic_write(path) as f:
        f.write("index\trank\n")
        for i, r in enumerate(report.ranks):
            f.write(f"{i}\t{r}\n")
