/* One epoch of margin-ranking SGD over the three variants, in C.
 *
 * A port of the reference loop that jrme.training keeps as the numpy twin
 * (_epoch_numpy): same update rule, same per-example non-finite check, and
 * each element is updated by the twin's expressions, in order.  score()
 * scores the true relation r and each negative r' alike; an example's
 * hinge terms are margin + score(r) - score(r').  Per example, all active
 * hinge terms are accumulated against the pre-step table and applied as
 * one update, one pass per row.  Fused passes keep every bit: each writes
 * element q from elements q and earlier scalars, sums in index order, and
 * writes two rows only in the entity step, which needs h != t.
 *
 * Per active term the descent directions are:
 *   relation r:   -lr * (2*(h+r-t))        and  -lr * (-m)
 *   relation r':  -lr * (-2*(h+r'-t))      and  -lr * (+m)
 *   entity h:     -lr * 2*(r - r')         (tail gets the opposite)
 *   each word:    -lr * (r' - r)           (per occurrence)
 * summed over active negatives; wc = sum(r') - a*r collects the shared
 * vector for the entity and word updates.
 *
 * The caller validates every index and shape before passing pointers:
 * this file trusts its inputs.  It touches no Python object, so ctypes
 * runs it with the interpreter lock released, and several threads may
 * run it on the same tables at once (lock-free, Hogwild-style).
 *
 * Build flags must keep IEEE semantics: no -ffast-math (isfinite must
 * work) and -ffp-contract=off (no fused multiply-add), so results do not
 * depend on the host CPU.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* ||h + v - t||^2 - v.m for relation row v, head row eh, tail row et and
 * mention vector m, leaving h + v - t in diff; kre drops the text part and
 * tme the graph part.  Each part is summed from 0 in index order. */
static double score(const double *eh, const double *v, const double *et, const double *m,
                    double *diff, int64_t d, int use_kg, int use_text)
{
    double kg = 0.0;
    double text = 0.0;
    for (int64_t q = 0; q < d; q++) {
        if (use_kg) {
            double x = eh[q] + v[q] - et[q];
            diff[q] = x;
            kg += x * x;
        }
        if (use_text)
            text -= v[q] * m[q];
    }
    return kg + text;
}

/* Returns the first example index (an entry of `order`) whose step left a
 * non-finite value, -1 when the epoch ran clean, or -2 when scratch memory
 * could not be allocated (nothing was written then).  The loss and active
 * term count up to and including the returned example go to the out
 * parameters. */
int64_t jrme_epoch(
    double *entity, double *relation, double *word, int64_t d,
    const int64_t *heads, const int64_t *rels, const int64_t *tails,
    const int64_t *moff, const int64_t *mflat,
    const int64_t *order, int64_t n_order,
    const int64_t *neg_table, int64_t k, int neg_by_relation,
    double lr, double margin, int use_kg, int use_text, int normalize,
    double *loss_out, int64_t *active_out)
{
    double *scratch = calloc((size_t)(5 * (d > 0 ? d : 1)), sizeof(double));
    if (scratch == NULL)
        return -2;
    double *m = scratch;
    double *diff_pos = m + d;
    double *diff_neg = diff_pos + d;
    double *sum_rneg = diff_neg + d;
    double *wc = sum_rneg + d;
    double loss_sum = 0.0;
    int64_t active_sum = 0;
    int64_t bad = -1;

    for (int64_t pos = 0; pos < n_order; pos++) {
        int64_t i = order[pos];
        int64_t h = heads[i];
        int64_t r = rels[i];
        int64_t t = tails[i];
        double *eh = entity + h * d;
        double *et = entity + t * d;
        double *rr = relation + r * d;
        for (int64_t q = 0; q < d; q++) {
            m[q] = 0.0;
            sum_rneg[q] = 0.0;
        }
        if (use_text)
            for (int64_t j = moff[i]; j < moff[i + 1]; j++) {
                const double *wv = word + mflat[j] * d;
                for (int64_t q = 0; q < d; q++)
                    m[q] += wv[q];
            }
        double s_pos = score(eh, rr, et, m, diff_pos, d, use_kg, use_text);

        const int64_t *negs = neg_table + (neg_by_relation ? r : pos) * k;
        int64_t a = 0;
        double loss_i = 0.0;
        for (int64_t j = 0; j < k; j++) {
            double *rn = relation + negs[j] * d;
            double term = margin + s_pos - score(eh, rn, et, m, diff_neg, d, use_kg, use_text);
            if (term > 0.0) {
                a += 1;
                loss_i += term;
                for (int64_t q = 0; q < d; q++) {
                    sum_rneg[q] += rn[q];
                    if (use_kg)
                        rn[q] += lr * 2.0 * diff_neg[q];
                    if (use_text)
                        rn[q] -= lr * m[q];
                }
            }
        }

        if (a > 0) {
            double af = (double)a;
            for (int64_t q = 0; q < d; q++) {
                wc[q] = sum_rneg[q] - af * rr[q];
                if (use_kg)
                    rr[q] -= lr * 2.0 * af * diff_pos[q];
                if (use_text)
                    rr[q] += lr * af * m[q];
            }
            if (use_kg && h != t) {
                double acc_h = 0.0, acc_t = 0.0;
                for (int64_t q = 0; q < d; q++) {
                    eh[q] += lr * 2.0 * wc[q];
                    et[q] -= lr * 2.0 * wc[q];
                    if (normalize) {
                        acc_h += eh[q] * eh[q];
                        acc_t += et[q] * et[q];
                    }
                }
                /* a row of zero or nan norm is left as it is: x / 1.0 == x */
                double nrm_h = acc_h > 0.0 ? sqrt(acc_h) : 1.0;
                double nrm_t = acc_t > 0.0 ? sqrt(acc_t) : 1.0;
                if (normalize)
                    for (int64_t q = 0; q < d; q++) {
                        eh[q] /= nrm_h;
                        et[q] /= nrm_t;
                    }
            }
            if (use_text)
                for (int64_t j = moff[i]; j < moff[i + 1]; j++) {
                    double *wv = word + mflat[j] * d;
                    for (int64_t q = 0; q < d; q++)
                        wv[q] -= lr * wc[q];
                }
        }

        loss_sum += loss_i;
        active_sum += a;
        int ok = isfinite(loss_i);
        for (int64_t q = 0; q < d; q++)
            if (!isfinite(rr[q]) || (use_kg && !isfinite(eh[q])))
                ok = 0;
        if (!ok) {
            bad = i;
            break;
        }
    }

    free(scratch);
    *loss_out = loss_sum;
    *active_out = active_sum;
    return bad;
}
