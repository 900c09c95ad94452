"""Relation ranking, numpy on both epoch backends.  The SGD epoch kernels
live in `training`, the only module that runs them, so a command that only
ranks never builds, hashes or loads the C one.

Ranking scores queries.  `queries` turns packed lines (`data.PackedBeliefs`,
importable from here too) into blocks of one (q, c) per line; it alone
reads entity and word rows and the variant flags.  `relation_scores`,
`rank_all` and `top_relations` take those blocks and the relation table.
`queries` checks every id it reads and `rank_all` the true relation ids,
so an id outside its table, negative ones included, raises IndexError.

There is one exact scorer (`relation_scores`) and one order, numpy's
stable argsort (ties by id, nan last), behind every score and rank.
`rank_all` and `top_relations` score each block by BLAS GEMM; a row its
error band (`_gemm_scores`) settles is ranked from GEMM, or for a top k
rescored on its k ids, and every other row is rescored whole, so their
ranks and top k are the exact scorer's whatever the BLAS, its threads or
the block.
"""

from __future__ import annotations

import numpy as np

from .data import PackedBeliefs  # noqa: F401  (importable from here, see above)


def _check_ids(what: str, ids: np.ndarray, n: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"{what} out of range [0, {n})")


# --- relation ranking -----------------------------------------------------

# lines per block of `queries`: a (block x R) score array stays below one
# (R x d) table in size for d >= 128.  At 512, on the rank_heavy test split
# (4000 lines, R = 500, d = 100, 2 vCPU), rank_all alone ran 15-25% faster
# in-process (27.1 / 20.8 -> 20.5 / 17.3 ms, two passes), but as commands
# eval went 166.5 -> 159.2 ms and predict 154.8 -> 158.5 ms while each one's
# peak RSS rose by 4.7 MB: 512 costs memory and gains nothing end to end
RANK_BLOCK = 128

_U = np.finfo(np.float64).eps / 2  # unit roundoff
_ETA = np.finfo(np.float64).smallest_subnormal


def queries(entity, word, packed, use_kg, use_text):
    """Yield (lo, hi, q, c) per block of `RANK_BLOCK` lines lo..hi-1 of
    `packed` (one empty block if it has none): q = 2(h - t) - m and
    c = ||h - t||^2 (None without the kg part), m the sum of the line's
    word rows.  IndexError, before the first block, for a head, tail or
    (with the text part) mention offset or word outside its table.  The
    lines' relations are never read; their mention offsets are absolute.
    """
    n, d = len(packed), entity.shape[1]
    _check_ids("entity id", packed.heads, entity.shape[0])
    _check_ids("entity id", packed.tails, entity.shape[0])
    if use_text:
        _check_ids("mention offset", packed.mention_off, packed.mention_flat.shape[0] + 1)
        _check_ids("word id", packed.mention_flat, word.shape[0])
    for lo in range(0, max(n, 1), RANK_BLOCK):
        hi = min(lo + RANK_BLOCK, n)
        moff = packed.mention_off[lo : hi + 1]
        q, c = np.zeros((hi - lo, d)), None
        if use_kg:
            diff = entity[packed.heads[lo:hi]] - entity[packed.tails[lo:hi]]
            q += 2.0 * diff
            c = np.einsum("bd,bd->b", diff, diff)
            del diff  # else the suspended generator holds it past the yield
        if use_text and hi > lo:
            # word by word, left to right in each row, so a row's bits do
            # not depend on the other rows
            lengths = np.diff(moff)
            for j in range(int(lengths.max())):
                rows = np.flatnonzero(lengths > j)
                q[rows] -= word[packed.mention_flat[moff[rows] + j]]
        yield lo, hi, q, c


def _exact_scores(q, c, relation, rel_sq, ids=None):
    """c + q.r' + ||r'||^2 for each row of q and every relation r', or the
    k relations its row of `ids` (n, k) names; q.r' alone when c is None.
    One fixed-order einsum over the candidate rows (a broadcast view of
    `relation` for whole rows) gives an entry the same bits in any call."""
    rows = np.broadcast_to(relation, (len(q), *relation.shape)) if ids is None else relation[ids]
    scores = np.einsum("nd,nkd->nk", q, rows)
    if c is not None:
        scores += c[:, None]
        scores += rel_sq if ids is None else rel_sq[ids]
    return scores


def relation_scores(blocks, relation):
    """(n, R) exact score c + q.r' + ||r'||^2 of every relation r' for
    each query of `blocks` (from `queries`).

    q.r' is an unoptimized einsum, not BLAS `@`: it sums each element in a
    fixed order, so a row has the same bits alone or anywhere in a block
    and equal relations tie exactly.  GEMM keeps neither, which breaks the
    tie rule.
    """
    rel_sq = np.einsum("rd,rd->r", relation, relation)
    return np.concatenate([_exact_scores(q, c, relation, rel_sq) for _, _, q, c in blocks])


def _gemm_scores(q, c, relation, rel_sq):
    """(s~, band) for a block of queries: s~ = q @ relation.T by BLAS
    (+ ||r'||^2 when c is not None: the kg variants), without the row constant
    c = ||h - t||^2, which moves every candidate of a row alike, and each
    row's error band; two candidates whose s~ differ by more than the band
    have exact scores in the same order and never tie.  The band is inf on
    a row the exact scorer must score.

    The band.  Let P = ||q|| max||r'||, N = max||r'||^2 (0 for `tme`), c
    as above (0 for `tme`), d the dimension, u the unit roundoff and
    g = (d + 3)u / (1 - (d + 3)u).  In any summation order, fused or not,
    |fl(q.r') - q.r'| <= (du / (1 - du)) sum|q_i r'_i| <= g P (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1; Cauchy-Schwarz),
    and each later addition rounds by at most u times a result of size
    at most (1 + g)(P + c + N).  So the exact score E_r = fl(fl(fl(q.r')
    + c) + ||r'||^2) and s~_r + c are both within g(P + c + N) of the
    real q.r' + c + ||r'||^2, and E_r - E_s is within 4g(P + c + N) of
    s~_r - s~_s for any two candidates.  The band is twice that,
    8g(P + c + N) + 8d eta: the factor 2 covers the rounding of the
    computed norms and of the band tests themselves, and eta, the
    smallest subnormal, the underflow of the d products.  A finite
    2(P + c + N) means finite q and r' and no overflow in either path,
    since every partial sum is at most (1 + g)(P + c + N); rows where it
    is inf or nan get an inf band.
    The result depends neither on the BLAS nor on its threads or blocks.
    """
    d = relation.shape[1]
    g = (d + 3) * _U / (1 - (d + 3) * _U)
    r_max = np.sqrt(rel_sq.max()) if rel_sq.size else 0.0
    n_max = rel_sq.max() if c is not None and rel_sq.size else 0.0
    # overflow and inf - inf here only send rows to the exact scorer
    with np.errstate(over="ignore", invalid="ignore"):
        s = q @ relation.T
        scale = np.sqrt(np.einsum("bd,bd->b", q, q)) * r_max + n_max
        if c is not None:
            s += rel_sq
            scale += c
        band = np.where(np.isfinite(2.0 * scale), 8.0 * g * scale + 8.0 * d * _ETA, np.inf)
    return s, band


def _whole_rows(q, c, relation, rel_sq, rows, ids=None):
    """(scores, order) of the given rows of a block: the exact scores of
    every relation, or of the k relations each row of `ids` (len(rows), k)
    names, and their stable argsort."""
    scores = _exact_scores(q[rows], None if c is None else c[rows], relation, rel_sq, ids)
    return scores, np.argsort(scores, axis=1, kind="stable")


def rank_all(blocks, relation, true):
    """Raw rank of relation `true[i]` for query i of `blocks` (from
    `queries`), as an int64 array; IndexError for a true id out of range.

    Equal, rank for rank, to the true id's place in the stable argsort of
    `relation_scores(...)`, but each block is scored with BLAS
    (`_gemm_scores`).  A row's rank is read from s~ when no candidate but
    the true one lies within the row's band of it: s~ then orders every
    candidate as the exact score does and no exact score ties the true
    one's, so the rank is 1 + #(s~ < s~_t).  Every other row, one with an
    inf band or with a candidate besides the true one within the band, is
    ranked whole (`_whole_rows`).  A `tme` row with an empty mention is one
    of them: every candidate scores +-0 and ties, so its rank is 1 + the
    true id.
    """
    _check_ids("relation id", true, relation.shape[0])
    ranks = np.empty(len(true), dtype=np.int64)
    rel_sq = np.einsum("rd,rd->r", relation, relation)
    for lo, hi, q, c in blocks:
        s, band = _gemm_scores(q, c, relation, rel_sq)
        with np.errstate(invalid="ignore"):
            s_true = s[np.arange(hi - lo), true[lo:hi]]
            below = np.count_nonzero(s < (s_true - band)[:, None], axis=1)
            in_band = np.count_nonzero(s <= (s_true + band)[:, None], axis=1) - below
        ranks[lo:hi] = 1 + below
        rows = np.flatnonzero((in_band > 1) | np.isinf(band))
        if rows.size:
            _, order = _whole_rows(q, c, relation, rel_sq, rows)
            ranks[lo + rows] = 1 + (order == true[lo + rows, None]).argmax(axis=1)
    return ranks


def top_relations(blocks, relation, k):
    """(ids, scores) of the k best relations for each query of `blocks`
    (from `queries`), two (n, k) arrays for 1 <= k <= R: the first k
    columns of the stable argsort of `scores = relation_scores(...)` and
    the entries they name, bit for bit.

    Each block is scored with BLAS (`_gemm_scores`).  A candidate with
    s~ > (the row's k-th smallest s~) + band has k candidates strictly
    better in exact score, so it is not among the k first by (score, id).
    A row is settled when its band is finite, exactly k candidates pass
    that test and 2k <= R: those are the k first, and only their ids are
    rescored (with the whole row's bits) and ordered by their argsort.
    Every other row, such as one tied at the k-th place (a `tme` row with
    an empty mention ties throughout), is ranked whole.  Both go through
    `_whole_rows`.
    """
    n_rel = relation.shape[0]
    k = min(k, n_rel)
    rel_sq = np.einsum("rd,rd->r", relation, relation)
    step = n_rel // k  # settled rows gathered at a time: about one relation table
    all_ids, all_scores = [], []
    for lo, hi, q, c in blocks:
        ids = np.empty((hi - lo, k), dtype=np.int64)
        scores = np.empty((hi - lo, k))
        s, band = _gemm_scores(q, c, relation, rel_sq)
        with np.errstate(invalid="ignore"):
            kth = np.partition(s, k - 1, axis=1)[:, k - 1]
            keep = s <= (kth + band)[:, None]
        settled = ~np.isinf(band) & (np.count_nonzero(keep, axis=1) == k) & (2 * k <= n_rel)

        rows = np.flatnonzero(~settled)
        if rows.size:
            whole, order = _whole_rows(q, c, relation, rel_sq, rows)
            ids[rows] = order[:, :k]
            scores[rows] = np.take_along_axis(whole, ids[rows], axis=1)

        rows = np.flatnonzero(settled)
        for start in range(0, rows.size, step):
            sub = rows[start : start + step]
            kept = np.nonzero(keep[sub])[1].reshape(-1, k)  # ascending ids
            part, top = _whole_rows(q, c, relation, rel_sq, sub, kept)
            ids[sub] = np.take_along_axis(kept, top, axis=1)
            scores[sub] = np.take_along_axis(part, top, axis=1)
        all_ids.append(ids)
        all_scores.append(scores)
    return np.concatenate(all_ids), np.concatenate(all_scores)
