/* Training kernel: the word-level pass of a sentence and the phrase-level step
 * of a pair.
 *
 * word_pass subsamples one mapped sentence, then visits its window pairs,
 * drawing each pair's negatives and applying the skip-gram negative-sampling
 * step.  It alone consumes the word stream: one uniform per in-vocab token
 * when subsampling, in sentence order, then k per pair in visiting order.
 * Each negative is looked up through the noise table's guide table, which
 * gives the id np.searchsorted gives for every uniform.  phrase_step is the
 * same step on composed vectors: it looks the context, negative and current
 * phrases up by id in the run's phrase inventory, held in compressed sparse
 * row form (one offset per phrase into one array of component word ids),
 * composes each from its component words' rows, scores them and writes every
 * component row.  The arithmetic is that of reference.word_step and
 * reference.phrase_step, the numpy steps the tests compare against:
 *
 *   - every score and gradient of a step is read from the pre-update
 *     parameters, and the writes to one matrix go in index order, so an id
 *     that repeats within a step accumulates its deltas exactly as np.add.at
 *     does;
 *   - elementwise products and sums run in the numpy expressions' order;
 *     dot products sum in four lanes in a fixed order (see score_block), which
 *     rounds differently from BLAS but not differently from host to host.
 *
 * Matrices are C-contiguous float64, row i belonging to word id i.  The input
 * matrix must not share memory with an output bank: a word step holds v while
 * it writes the rows.  The caller supplies the scratch buffers, so nothing here
 * allocates.  Build with -ffp-contract=off: a fused multiply-add would round
 * differently from the numpy reference.  The four-double vectors need GCC or
 * Clang.
 *
 * On x86-64 word_pass and phrase_step are cloned for AVX2 and for baseline
 * x86-64, and the dynamic loader picks the clone for the host when it loads
 * the object.  Every helper is inlined, so each clone holds a whole step: the
 * draws, the composition, the scoring, the objective and the writes.  Only
 * the generator's next_double and the C library's exp, log1p, nextafter and,
 * in a phrase step at alpha != 1, pow are calls.  The clones compute the same
 * bits: without -ffast-math the compiler may not reassociate a sum, and with
 * -ffp-contract=off it may not fuse a multiply and an add, so a wider vector
 * only does more of the same IEEE operations, each rounded as before, in the
 * same order.  The C library's functions are another matter: glibc picks their
 * implementation per host, and those may differ in the last bit.
 */
#include <math.h>
#include <stdint.h>

/* Inlined even into a clone, which would otherwise call the baseline build. */
#define INLINE static inline __attribute__((always_inline))

/* Four doubles in one AVX2 register, or two SSE2 ones, read and written at
 * any double's address, as the compiler's own __m256d_u is.  Values of this
 * type never cross a function boundary: the two clones would pass them
 * differently, which GCC warns about (-Wpsabi). */
typedef double lanes __attribute__((vector_size(4 * sizeof(double)), aligned(8), may_alias));
#define AT(p) (*(lanes *)(p))

/* Rows per scoring sweep over v, and blocks of four columns per update
 * block: enough independent sums to hide an addition's latency. */
#define SCORE_ROWS 3
#define UPDATE_BLOCKS 4

/* sigmoid(s), with the clip of reference._sigmoid, given e = exp(-|s|): the
 * same exp call where the clipped argument is s itself. */
INLINE double sigmoid(double s, double e)
{
    if (s >= 0.0 && s <= 60.0)
        return 1.0 / (1.0 + e);
    double x = s > 60.0 ? 60.0 : s < -60.0 ? -60.0 : s;
    return 1.0 / (1.0 + exp(-x));
}

/* log(1 + exp(x)), i.e. np.logaddexp(0, x), given e = exp(-|x|). */
INLINE double log1pexp(double x, double e)
{
    return x > 0.0 ? x + log1p(e) : log1p(e);
}

/* Turns the scores coef[0..rows) of one step, row 0 the positive and the rest
 * negatives, into the coefficients label - sigmoid(score) in place, and
 * returns the step's objective term, log sigmoid(s_0) + sum log sigmoid(-s_i),
 * summed in row order.  One exp(-|s|) per score feeds both. */
INLINE double negative_sampling(double *coef, int64_t rows)
{
    double term = 0.0, neg_sum = 0.0;
    for (int64_t i = 0; i < rows; i++) {
        double s = coef[i];
        double e = exp(-fabs(s));
        if (i == 0)
            term = -log1pexp(-s, e);
        else
            neg_sum += log1pexp(s, e);
        coef[i] = (i == 0 ? 1.0 : 0.0) - sigmoid(s, e);
    }
    return term - neg_sum;
}

/* The scores of the rows ids[0..rows) of bank against v, rows a constant of
 * at most SCORE_ROWS, so that the accumulators stay in registers.  Each row's
 * dot product sums in four partial sums, lane j % 4 for the first dim - dim % 4
 * terms, then the tail into s0, combined as (s0 + s1) + (s2 + s3): a fixed
 * order, which the compiler keeps without -ffast-math whatever vector width it
 * uses.  Sweeping v once for several rows changes no row's order, so a score
 * has the same bits in any block. */
INLINE void score_block(const double *bank, const int64_t *ids, int rows, const double *v,
                        int64_t dim, double *score)
{
    const double *row[SCORE_ROWS];
    lanes acc[SCORE_ROWS];
    for (int r = 0; r < rows; r++) {
        row[r] = bank + ids[r] * dim;
        acc[r] = (lanes){0.0, 0.0, 0.0, 0.0};
    }
    int64_t j = 0;
    for (; j + 4 <= dim; j += 4)
        for (int r = 0; r < rows; r++)
            acc[r] += AT(row[r] + j) * AT(v + j);
    for (int r = 0; r < rows; r++) {
        double s0 = acc[r][0];
        for (int64_t t = j; t < dim; t++)
            s0 += row[r][t] * v[t];
        score[r] = (s0 + acc[r][1]) + (acc[r][2] + acc[r][3]);
    }
}

/* The scores of the rows ids[0..rows) of bank against v: blocks of
 * SCORE_ROWS = 3 rows, then one of the two or one left. */
INLINE void score_rows(const double *bank, const int64_t *ids, int64_t rows, const double *v,
                       int64_t dim, double *score)
{
    int64_t i = 0;
    for (; rows - i >= SCORE_ROWS; i += SCORE_ROWS)
        score_block(bank, ids + i, SCORE_ROWS, v, dim, score + i);
    if (rows - i == 2)
        score_block(bank, ids + i, 2, v, dim, score + i);
    else if (rows - i == 1)
        score_block(bank, ids + i, 1, v, dim, score + i);
}

/* update's writes to the columns [j, j + 4 * blocks), blocks a constant of at
 * most UPDATE_BLOCKS: the grad sums of different blocks are independent, so
 * their additions overlap. */
INLINE void update_block(double *bank, const int64_t *ids, int64_t rows, const double *coef,
                         double *v, double lr, int64_t dim, int64_t j, int blocks)
{
    lanes g[UPDATE_BLOCKS], x[UPDATE_BLOCKS];
    for (int b = 0; b < blocks; b++) {
        g[b] = (lanes){0.0, 0.0, 0.0, 0.0};
        x[b] = AT(v + j + 4 * b);
    }
    for (int64_t i = 0; i < rows; i++) {
        const double *row = bank + ids[i] * dim + j;
        double c = coef[i];
        for (int b = 0; b < blocks; b++)
            g[b] += c * AT(row + 4 * b);
    }
    for (int64_t i = 0; i < rows; i++) {
        double *row = bank + ids[i] * dim + j;
        double c = lr * coef[i];
        for (int b = 0; b < blocks; b++)
            AT(row + 4 * b) += c * x[b];
    }
    for (int b = 0; b < blocks; b++)
        AT(v + j + 4 * b) = x[b] + lr * g[b];
}

/* The step's writes to the rows ids[0..rows) of bank and to v, in one sweep
 * over the columns.  Each column sums grad = sum_i coef[i] * row_i from 0.0 in
 * row order over the pre-update rows, then adds (lr * coef[i]) * v to each row
 * in row order, so a repeated id accumulates as np.add.at does, and last adds
 * lr * grad to v: a column's operations and their order are those of one pass
 * per vector, so the sweep changes no bit. */
INLINE void update(double *bank, const int64_t *ids, int64_t rows, const double *coef,
                   double *v, double lr, int64_t dim)
{
    int64_t j = 0;
    for (; j + 4 * UPDATE_BLOCKS <= dim; j += 4 * UPDATE_BLOCKS)
        update_block(bank, ids, rows, coef, v, lr, dim, j, UPDATE_BLOCKS);
    for (; j + 4 <= dim; j += 4)
        update_block(bank, ids, rows, coef, v, lr, dim, j, 1);
    for (; j < dim; j++) {
        double grad = 0.0;
        for (int64_t i = 0; i < rows; i++)
            grad += coef[i] * bank[ids[i] * dim + j];
        for (int64_t i = 0; i < rows; i++)
            bank[ids[i] * dim + j] += lr * coef[i] * v[j];
        v[j] += lr * grad;
    }
}

/* y[j] += a * x[j] for j < dim: one product and one sum per element, as
 * numpy's y + a * x, in any vector width. */
INLINE void add_scaled(double *y, double a, const double *x, int64_t dim)
{
    int64_t j = 0;
    for (; j + 4 <= dim; j += 4)
        AT(y + j) += a * AT(x + j);
    for (; j < dim; j++)
        y[j] += a * x[j];
}

/* grad[j] = sum_i coef[i] * rows[i * dim + j] over i < n, summed from 0.0 in
 * row order, for j < dim: the gradient for a scored vector, in registers. */
INLINE void combine_rows(double *grad, const double *rows, const double *coef, int64_t n,
                         int64_t dim)
{
    int64_t j = 0;
    for (; j + 4 <= dim; j += 4) {
        lanes g = {0.0, 0.0, 0.0, 0.0};
        for (int64_t i = 0; i < n; i++)
            g += coef[i] * AT(rows + i * dim + j);
        AT(grad + j) = g;
    }
    for (; j < dim; j++) {
        double g = 0.0;
        for (int64_t i = 0; i < n; i++)
            g += coef[i] * rows[i * dim + j];
        grad[j] = g;
    }
}

/* y[j] += a * (jac[j] * x[j]) for j < dim: a delta through a Jacobian
 * diagonal, in the reference's order. */
INLINE void add_scaled_jac(double *y, double a, const double *jac, const double *x,
                           int64_t dim)
{
    int64_t j = 0;
    for (; j + 4 <= dim; j += 4)
        AT(y + j) += a * (AT(jac + j) * AT(x + j));
    for (; j < dim; j++)
        y[j] += a * (jac[j] * x[j]);
}

/* y[j] += w * sigma(x[j]) and jac[j] = sigma'(x[j]) for j < dim, at alpha != 1:
 * sign(x) * |x|**alpha and alpha * |x|**(alpha - 1), as composition.sigma and
 * sigma_jacobian_diag, with np.sign's +0.0 at either zero. */
INLINE void add_powered(double *y, double *jac, double w, const double *x, double alpha,
                        int64_t dim)
{
    for (int64_t j = 0; j < dim; j++) {
        double a = fabs(x[j]);
        double sign = x[j] > 0.0 ? 1.0 : x[j] < 0.0 ? -1.0 : x[j] == 0.0 ? 0.0 : x[j];
        jac[j] = alpha * pow(a, alpha - 1.0);
        y[j] += w * (sign * pow(a, alpha));
    }
}

/* Output bank of a relative offset, as model.bank_for_offset. */
INLINE int64_t bank_of(int64_t offset, int64_t window, int64_t positional)
{
    if (!positional)
        return 0;
    return offset < 0 ? offset + window : offset + window - 1;
}

/* np.searchsorted(cum, u, side="right") for u in [0, 1): the first id whose
 * cum exceeds u, found through the guide table of Chen & Asau (1974).
 * guide[j] is that id for the cell edge e_j = j / len as numpy rounds it
 * (NoiseDistribution.guide), so for u in cell c, e_c <= u < e_(c+1), the id
 * lies in [guide[c], guide[c + 1]].  j = floor(u * len) is c or c + 1:
 *   - a u above e_c is at least the next double after e_c, which lies above
 *     c / len, so u * len > c and rounds to at least c.  At u = e_c, j may be
 *     c - 1, but the id is then guide[c] itself;
 *   - u * len < (c + 1)(1 + 2**-53) rounds to less than c + 2 while
 *     len < 2**50, but may round up to c + 1.
 * So the search spans cells j - 1 and j, and j = len only when u * len
 * rounds up to len. */
INLINE int64_t lookup(const double *cum, const int64_t *guide, int64_t len, double u)
{
    int64_t j = (int64_t)(u * (double)len);
    int64_t lo = guide[j > 0 ? j - 1 : 0];
    int64_t hi = guide[j < len ? j + 1 : len];
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (cum[mid] <= u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* One draw of NoiseDistribution.sample: the id whose interval holds u, or,
 * when that is `exclude`, NoiseDistribution._redirect of u with the same
 * float clamps.  Returns -1 when `exclude` holds all the mass. */
INLINE int64_t draw(const double *cum, const int64_t *guide, int64_t len, double u,
                    int64_t exclude)
{
    int64_t id = lookup(cum, guide, len, u);
    if (id != exclude)
        return id;
    double lo = exclude > 0 ? cum[exclude - 1] : 0.0;
    double hi = cum[exclude];
    double rest = lo + (1.0 - hi);
    if (rest <= 0.0)
        return -1;
    double t = (u - lo) / (hi - lo) * rest;
    if (t >= lo && hi < 1.0) {
        t = t + (hi - lo);
        if (t < hi)
            t = hi;
        if (t > nextafter(1.0, 0.0))
            t = nextafter(1.0, 0.0);
    } else if (t > nextafter(lo, 0.0)) {
        t = nextafter(lo, 0.0);
    }
    return lookup(cum, guide, len, t);
}

/* Draws k ids excluding `exclude` from the uniforms u[0..k) into out.
 * Returns 0, or -1 when `exclude` holds all the mass. */
INLINE int64_t draw_all(const double *cum, const int64_t *guide, int64_t len, const double *u,
                        int64_t k, int64_t exclude, int64_t *out)
{
    for (int64_t i = 0; i < k; i++) {
        out[i] = draw(cum, guide, len, u[i], exclude);
        if (out[i] < 0)
            return -1;
    }
    return 0;
}

int64_t sample_noise(const double *cum, const int64_t *guide, int64_t len, const double *u,
                     int64_t k, int64_t exclude, int64_t *out)
{
    return draw_all(cum, guide, len, u, k, exclude, out);
}

typedef double (*next_double_fn)(void *state); /* from BitGenerator.ctypes */

/* Skip-gram negative-sampling pass over the word ids of one sentence.
 *
 * inp: input embeddings; out: the output banks (one, or 2 * window when
 * positional), none sharing memory with inp; ids: word ids, -1 for a hole,
 * overwritten with -1 where a token is dropped; keep: per-id keep probability
 * of `vocab` ids, or NULL for no subsampling; cum: the noise table of `vocab`
 * ids; guide: its vocab + 1 cell edges (see lookup); next_double and state:
 * the generator the uniforms come from; coef: k + 1 doubles; negs: k + 1 ids.
 * A token is dropped iff its uniform is >= keep[id].  Stores the sum of the
 * pre-update objective terms in *objective.  Returns the number of pairs, or
 * -1 - center when a center holds all the noise mass.
 */
#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target_clones("avx2", "default")))
#endif
int64_t word_pass(double *inp, double *const *out, int64_t dim,
                  int64_t *ids, int64_t n, int64_t window, int64_t positional,
                  const double *keep, const double *cum, const int64_t *guide,
                  int64_t vocab, next_double_fn next_double, void *state, int64_t k,
                  double lr, double *coef, int64_t *negs, double *objective)
{
    double total = 0.0;
    int64_t pairs = 0;
    if (keep)
        for (int64_t t = 0; t < n; t++)
            if (ids[t] >= 0 && next_double(state) >= keep[ids[t]])
                ids[t] = -1;
    for (int64_t t = 0; t < n; t++) {
        int64_t center = ids[t];
        if (center < 0)
            continue;
        double *v = inp + center * dim;
        /* The window [lo, hi) around t, as trainer.iter_window_pairs. */
        int64_t lo = t >= window ? t - window : 0;
        int64_t hi = n - t > window ? t + window + 1 : n;
        for (int64_t c = lo; c < hi; c++) {
            if (c == t || ids[c] < 0)
                continue;
            double *bank = out[bank_of(c - t, window, positional)];
            negs[0] = ids[c];
            /* The uniforms wait in coef[1..k] until the scores overwrite them. */
            for (int64_t i = 1; i <= k; i++)
                coef[i] = next_double(state);
            if (draw_all(cum, guide, vocab, coef + 1, k, center, negs + 1) < 0)
                return -1 - center;
            pairs++;

            score_rows(bank, negs, k + 1, v, dim, coef);
            total += negative_sampling(coef, k + 1);
            update(bank, negs, k + 1, coef, v, lr, dim);
        }
    }
    *objective = total;
    return pairs;
}

/* The phrase inventory and the scratch of a run's phrase steps, prepared and
 * checked once by kernel.PhraseTables.
 *
 * inp: the input matrix; offsets and words: the phrase inventory in
 * compressed sparse row form, phrase q's component word ids being
 * words[offsets[q]] .. words[offsets[q + 1] - 1], at least one per phrase;
 * k: the negative phrases of a step; phrase: a step's k + 2 phrase ids, the
 * context phrase's, then those of the k negative phrases, then the current
 * phrase's; order: the ids 0 .. k; work: (k + 3) * dim + k + 1 doubles, and
 * one row of dim more per component word of a step's phrases when
 * alpha != 1. */
struct phrase_tables {
    double *inp;
    int64_t dim;
    const int64_t *offsets;
    const int64_t *words;
    int64_t k;
    const int64_t *phrase;
    const int64_t *order;
    double alpha;
    double *work;
};

/* One gradient-ascent step of the phrase objective for a (phrase, context
 * phrase) pair, the pair and its negatives in t->phrase, scored against the
 * phrase output bank pout: reference.phrase_step.  Every phrase id must index
 * t->offsets and every word id both matrices: nothing here checks.  Returns
 * the pre-update objective term.
 *
 * Each phrase is composed into work as one ordered sum from -0.0 of
 * (1 / n) * sigma(row) over its rows, in component order: -0.0 is the one start
 * that changes no first term, so a phrase has the bits of compose_rows.  The
 * context and negative phrases come from pout, the current one from inp.  At
 * alpha = 1 sigma is the identity and its Jacobian 1, so neither is computed;
 * otherwise every row's Jacobian diagonal goes to work as it is composed.  The
 * deltas read only the composed phrases, the coefficients and those
 * Jacobians, all taken before the first write, so each row can be written as
 * soon as its delta is known: pout's rows, then inp's, each in index order.
 */
#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target_clones("avx2", "default")))
#endif
double phrase_step(const struct phrase_tables *t, double *pout, double lr)
{
    double *inp = t->inp, alpha = t->alpha;
    int64_t dim = t->dim, k = t->k, phrases = k + 2;
    const int64_t *offsets = t->offsets, *words = t->words, *phrase = t->phrase;
    int powered = alpha != 1.0;
    double *composed = t->work, *grad = composed + phrases * dim, *coef = grad + dim;
    double *jac = coef + k + 1;

    double *jrow = jac;
    for (int64_t p = 0; p < phrases; p++) {
        const double *bank = p <= k ? pout : inp;
        const int64_t *id = words + offsets[phrase[p]], *end = words + offsets[phrase[p] + 1];
        double *acc = composed + p * dim;
        double w = 1.0 / (double)(end - id);
        for (int64_t j = 0; j < dim; j++)
            acc[j] = -0.0;
        for (; id < end; id++) {
            if (!powered) {
                add_scaled(acc, w, bank + *id * dim, dim);
            } else {
                add_powered(acc, jrow, w, bank + *id * dim, alpha, dim);
                jrow += dim;
            }
        }
    }

    /* The context and negative phrases against the current one, v. */
    double *v = composed + (k + 1) * dim;
    score_rows(composed, t->order, k + 1, v, dim, coef);
    double objective = negative_sampling(coef, k + 1);
    combine_rows(grad, composed, coef, k + 1, dim);

    /* A pout row of phrase p moves by (lr * coef[p] / n) * J * v, an inp row
     * by (lr / n) * J * grad. */
    jrow = jac;
    for (int64_t p = 0; p < phrases; p++) {
        double *bank = p <= k ? pout : inp;
        const int64_t *id = words + offsets[phrase[p]], *end = words + offsets[phrase[p] + 1];
        double n = (double)(end - id);
        double scale = p <= k ? lr * coef[p] / n : lr / n;
        const double *x = p <= k ? v : grad;
        for (; id < end; id++) {
            if (!powered) {
                add_scaled(bank + *id * dim, scale, x, dim);
            } else {
                add_scaled_jac(bank + *id * dim, scale, jrow, x, dim);
                jrow += dim;
            }
        }
    }
    return objective;
}
