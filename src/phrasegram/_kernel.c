/* The compiled kernel: the word-level pass of a sentence and the phrase-level
 * step of a pair, for training, the exact top k of a serving query, the text
 * export's lines, and the carry-less fold of a checkpoint's CRC-32.
 *
 * word_pass subsamples one mapped sentence, then visits its window pairs,
 * drawing each pair's negatives and applying the skip-gram negative-sampling
 * step.  It alone consumes the word stream: one uniform per in-vocab token
 * when subsampling, in sentence order, then k per pair in visiting order.
 * phrase_step is the same step on composed vectors: it draws the pair's k
 * negative phrases from the phrase stream, k uniforms in order, then looks
 * the context, negative and current phrases up by id in the run's phrase
 * inventory, held in compressed sparse row form (one offset per phrase into
 * one array of component word ids), composes each from its component words'
 * rows, scores them and writes every component row.  Both look each negative
 * up through the noise table's guide table, which gives the id
 * np.searchsorted gives for every uniform; kernel.py checks each table once,
 * when it prepares a pass, so that no draw can fail.  The arithmetic is that
 * of reference.word_step and reference.phrase_step, the numpy steps the tests
 * compare against:
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
 * differently from the numpy reference.  The four-double vectors, and the
 * text writer's 128-bit integers, need GCC or Clang.
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
 *
 * exact_top answers a neighbor query, or a 3CosAdd question whose float32
 * runner-up is near its best, from every row's float32 score: it finds the k-th
 * best score in a heap and rescores in float64, with score_block's four lanes,
 * only the rows within a margin of it, so equal rows score equal and the answer
 * is a float64 scan's; reference.exact_top is its numpy oracle.
 *
 * format_rows writes word2vec text lines, each a word and its float32 row,
 * every value as Python's '%.9g' % v prints it, in fixed or exponent notation,
 * exactly, in integer and double arithmetic; its own comment gives the
 * arithmetic.
 *
 * crc32_fold, at the end, folds most of a buffer into zlib's CRC-32 by carry-less
 * multiplication, on an x86-64 host with PCLMULQDQ; zlib takes the rest.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

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
 * float clamps.  `exclude` must leave the other ids some mass, rest > 0, as
 * kernel.py checks before any draw. */
INLINE int64_t draw(const double *cum, const int64_t *guide, int64_t len, double u,
                    int64_t exclude)
{
    int64_t id = lookup(cum, guide, len, u);
    if (id != exclude)
        return id;
    double lo = exclude > 0 ? cum[exclude - 1] : 0.0;
    double hi = cum[exclude];
    double rest = lo + (1.0 - hi);
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

/* Draws k ids excluding `exclude` from the uniforms u[0..k) into out. */
INLINE void draw_all(const double *cum, const int64_t *guide, int64_t len, const double *u,
                     int64_t k, int64_t exclude, int64_t *out)
{
    for (int64_t i = 0; i < k; i++)
        out[i] = draw(cum, guide, len, u[i], exclude);
}

void sample_noise(const double *cum, const int64_t *guide, int64_t len, const double *u,
                  int64_t k, int64_t exclude, int64_t *out)
{
    draw_all(cum, guide, len, u, k, exclude, out);
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
 * pre-update objective terms in *objective.  Returns the number of pairs.
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
            draw_all(cum, guide, vocab, coef + 1, k, center, negs + 1);
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
 * context phrase's, the k negative phrases' and the current phrase's; order:
 * the ids 0 .. k; work: (k + 3) * dim + k + 1 doubles, and one row of dim more
 * per component word of a step's phrases when alpha != 1; cum, guide and
 * phrases: the phrase noise table (see lookup); next_double and state: the
 * phrase stream's generator. */
struct phrase_tables {
    double *inp;
    int64_t dim;
    const int64_t *offsets;
    const int64_t *words;
    int64_t k;
    int64_t *phrase;
    const int64_t *order;
    double alpha;
    double *work;
    const double *cum;
    const int64_t *guide;
    int64_t phrases;
    next_double_fn next_double;
    void *state;
};

/* One gradient-ascent step of the phrase objective for a (current, context)
 * pair of phrase ids, scored against the phrase output bank pout: the k
 * negatives of reference.phrase_step as NoiseDistribution.sample draws them
 * with the current phrase excluded, then that step.  Every phrase id must
 * index t->offsets and every word id both matrices: nothing here checks.
 * Returns the pre-update objective term.
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
double phrase_step(const struct phrase_tables *t, double *pout, int64_t current,
                   int64_t context, double lr)
{
    double *inp = t->inp, alpha = t->alpha;
    int64_t dim = t->dim, k = t->k, phrases = k + 2;
    const int64_t *offsets = t->offsets, *words = t->words;
    int64_t *phrase = t->phrase;
    int powered = alpha != 1.0;
    double *composed = t->work, *grad = composed + phrases * dim, *coef = grad + dim;
    double *jac = coef + k + 1;

    /* The uniforms wait in coef until the scores overwrite them. */
    for (int64_t i = 0; i < k; i++)
        coef[i] = t->next_double(t->state);
    draw_all(t->cum, t->guide, t->phrases, coef, k, current, phrase + 1);
    phrase[0] = context;
    phrase[k + 1] = current;

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

/* Serving: the k rows of highest float64 score against a target, for a
 * neighbor query or a 3CosAdd near tie, over the float32 scores of every row
 * that a matrix product gave.  kernel.ExactTop prepares the struct once per
 * WordEmbeddings and checks every id and size that exact_top reads.
 *
 * unit: the n x dim float64 unit matrix; non_finite: the non_finites ids of
 * its rows that are not finite; drop: the ids of the rows a call leaves out,
 * as many as it says; heap, ids and exact: cap floats, int64s and doubles of
 * scratch, cap at most n. */
struct exact_top {
    const double *unit;
    int64_t n, dim;
    const int64_t *non_finite;
    int64_t non_finites;
    const int64_t *drop;
    float *heap;
    int64_t *ids;
    double *exact;
    int64_t cap;
};

/* Sifts heap[i] down a min-heap of len floats. */
INLINE void sift_float(float *heap, int64_t len, int64_t i)
{
    float x = heap[i];
    for (int64_t c; (c = 2 * i + 1) < len; i = c) {
        if (c + 1 < len && heap[c + 1] < heap[c])
            c++;
        if (!(heap[c] < x))
            break;
        heap[i] = heap[c];
    }
    heap[i] = x;
}

/* Whether score s of row i ranks before score r of row j: higher, or equal at
 * a lower id. */
INLINE int ranks_before(double s, int64_t i, double r, int64_t j)
{
    return s > r || (s == r && i < j);
}

/* Sifts entry i down a heap of len (id, score) pairs whose root ranks last. */
INLINE void sift_pair(int64_t *ids, double *score, int64_t len, int64_t i)
{
    int64_t id = ids[i];
    double s = score[i];
    for (int64_t c; (c = 2 * i + 1) < len; i = c) {
        if (c + 1 < len && ranks_before(score[c], ids[c], score[c + 1], ids[c + 1]))
            c++;
        if (!ranks_before(s, id, score[c], ids[c]))
            break;
        ids[i] = ids[c];
        score[i] = score[c];
    }
    ids[i] = id;
    score[i] = s;
}

/* The k rows of highest float64 score unit[i] . target, written best first to
 * t->ids and t->exact, equal scores by lower row id; returns how many, k or
 * fewer when fewer rows are left.  scores holds every row's float32 score, and
 * the rows t->drop[0..drops) and t->non_finite are set to -inf in it first,
 * which leaves them out.  The k-th best float32 score kth comes from a
 * min-heap of the k best; the candidates are the rows whose score is at least
 * kth - margin, floored at float32's lowest value and rounded to float32, in
 * ascending id order.  Each is scored in float64 by score_rows, row by row, so
 * equal rows score equal, and a heapsort orders them.  With more candidates
 * than t->cap it writes no result and returns minus their number.
 * 1 <= k <= t->cap, every id of t->drop in [0, n) and no score NaN outside the
 * rows left out: the caller checks. */
int64_t exact_top(const struct exact_top *t, float *scores, const double *target,
                  int64_t drops, int64_t k, double margin)
{
    int64_t n = t->n, cap = t->cap, *ids = t->ids;
    double *exact = t->exact;
    float *heap = t->heap;
    for (int64_t i = 0; i < drops; i++)
        scores[t->drop[i]] = -INFINITY;
    for (int64_t i = 0; i < t->non_finites; i++)
        scores[t->non_finite[i]] = -INFINITY;

    memcpy(heap, scores, (size_t)k * sizeof *heap);
    for (int64_t i = k / 2; i-- > 0;)
        sift_float(heap, k, i);
    for (int64_t i = k; i < n; i++)
        if (scores[i] > heap[0]) {
            heap[0] = scores[i];
            sift_float(heap, k, 0);
        }
    double low = (double)heap[0] - margin;
    float threshold = low > -FLT_MAX ? (float)low : -FLT_MAX;

    int64_t found = 0;
    for (int64_t i = 0; i < n; i++)
        if (scores[i] >= threshold) {
            if (found < cap)
                ids[found] = i;
            found++;
        }
    if (found > cap)
        return -found;

    score_rows(t->unit, ids, found, target, t->dim, exact);
    for (int64_t i = found / 2; i-- > 0;)
        sift_pair(ids, exact, found, i);
    for (int64_t end = found - 1; end > 0; end--) {
        int64_t id = ids[0];
        double s = exact[0];
        ids[0] = ids[end], exact[0] = exact[end];
        ids[end] = id, exact[end] = s;
        sift_pair(ids, exact, end, 0);
    }
    return found < k ? found : k;
}

/* Text export: word2vec text lines, each float32 value as Python's '%.9g' % v
 * prints it.
 *
 * %.9g rounds a value to 9 significant digits, correctly and ties to even,
 * and prints it in fixed notation when the rounded value's decimal exponent E
 * lies in [-4, 8], else in exponent notation, d.dddddddde+XX, without trailing
 * zeros or a bare point either way.  For a float32 that takes no general
 * conversion.
 *
 * Fixed notation, 1e-4 <= |x| < 1e9 (write_fixed):
 *
 *   - s = |x| * 1e4 is exact in double, a 24-bit significand times 5^4, so
 *     s < 1 decides |x| < 1e-4 exactly, and comparing s with the exact powers
 *     of ten gives E0 = floor(log10 |x|), the exponent before rounding;
 *   - y = |x| * 10^(8 - E0) is exact too: 8 - E0 <= 12, and a 24-bit
 *     significand times 5^12 < 2^28 fits in 53 bits.  So 1e8 <= y < 1e9, and
 *     nearbyint(y), which rounds ties to even, is the 9 digits %.9g prints:
 *     0.5009765625 prints 0.500976562;
 *   - no float32 rounds up to the next power of ten, which would print at
 *     exponent E0 + 1: its y would lie within 0.5 of 1e9, and over every
 *     float32 of the range the y nearest 1e9 is 1e9 - 22.35, that of the
 *     float32 below 0.01;
 *   - nor does a float32 below 1e-4: float32(1e-4) lies 2.5e-12 below 1e-4,
 *     and rounding to 9 digits moves it by at most 5e-14.
 *
 * Exponent notation, |x| < 1e-4 (subnormals included) or |x| >= 1e9
 * (write_exponent): x = m * 2^e exactly, with an integer m < 2^24.  The 9
 * digits at exponent E are |x| / 10^(E - 8) rounded, computed exactly in
 * integers (scale10):
 *
 *   - below 1e-4, k = 8 - E lies in [13, 54], and |x| * 10^k = m * 5^k /
 *     2^-(e + k): the product m * 5^k < 2^24 * 5^54 < 2^150 is held in three
 *     64-bit limbs, and the shift rounds it (round_shift);
 *   - from 1e9 up, q = E - 8 lies in [0, 31], and |x| / 10^q = m * 2^(e - q) /
 *     5^q: the numerator is below 2^128 and 5^q is odd, so the remainder of
 *     one 128-bit division rounds it and never ties;
 *   - E starts from floor(floor(log2 |x|) * log10(2)), within one of
 *     E0 = floor(log10 |x|), and the exact floor of |x| / 10^(E - 8), which
 *     must lie in [1e8, 1e9), corrects it to E0; a value whose 9 digits round
 *     up to 1e9 prints the digits 100000000 at exponent E0 + 1, as one float32
 *     does: 9.9999999982e-24 prints 1e-23.
 *
 * Zeros print as 0 and -0, infinities as inf and -inf, and every NaN, of
 * either sign and any payload, as nan.  A value takes at most 16 bytes with
 * the space or newline after it, as in "-0.000123456789 " or
 * "-1.23456789e-38 ".
 */

static const double POW10[14] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13,
};

/* 5^k for k in [0, 27], each below 2^63. */
static const uint64_t POW5[28] = {
    1u, 5u, 25u, 125u, 625u, 3125u, 15625u, 78125u, 390625u, 1953125u, 9765625u,
    48828125u, 244140625u, 1220703125u, 6103515625u, 30517578125u, 152587890625u,
    762939453125u, 3814697265625u, 19073486328125u, 95367431640625u,
    476837158203125u, 2384185791015625u, 11920928955078125u, 59604644775390625u,
    298023223876953125u, 1490116119384765625u, 7450580596923828125u,
};

/* The two digits of each number below 100, in order. */
static const char PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

typedef unsigned __int128 u128;

/* 5^k for k in [0, 54], below 2^126. */
INLINE u128 pow5(int k)
{
    return k > 27 ? (u128)POW5[k - 27] * POW5[27] : POW5[k];
}

/* Writes the 9 digits of n in [1e8, 1e9) to digits[0..9) and 8 bytes of
 * padding after them; returns the number of digits up to the last that is not
 * 0 (the first is not). */
INLINE int nine_digits(uint32_t n, char digits[17])
{
    uint32_t low = n % 10000000, mid = low % 100000, tail = mid % 1000;
    memset(digits, 0, 17);
    memcpy(digits, PAIRS + 2 * (n / 10000000), 2);
    memcpy(digits + 2, PAIRS + 2 * (low / 100000), 2);
    memcpy(digits + 4, PAIRS + 2 * (mid / 1000), 2);
    memcpy(digits + 6, PAIRS + 2 * (tail / 10), 2);
    digits[8] = (char)('0' + tail % 10);
    int len = 9;
    while (digits[len - 1] == '0')
        len--;
    return len;
}

/* Writes the fixed-notation text of x at p, given a = |x| and s = a * 1e4 in
 * [1, 1e13); returns the end of the text.  Its stores reach at most 15 bytes
 * past p, which is the widest text. */
INLINE char *write_fixed(char *p, float x, double a, double s)
{
    uint64_t bits;
    memcpy(&bits, &s, sizeof bits);
    int e2 = (int)(bits >> 52) - 1023; /* s in [2^e2, 2^(e2 + 1)), e2 in [0, 43] */
    int j = (e2 * 1233) >> 12;          /* floor(e2 * log10(2)) for such e2 */
    if (s >= POW10[j + 1])
        j++; /* j = floor(log10(s)) = E0 + 4, in [0, 12] */
    /* nearbyint(y) for y in [0, 2^52): the sum lies in [2^52, 2^53), where
     * doubles are the integers, so it rounds y to an integer, ties to even,
     * and the difference is exact. */
    double d = (a * POW10[12 - j] + 0x1p52) - 0x1p52;
    int e = j - 4;
    char digits[17];
    int len = nine_digits((uint32_t)d, digits);

    /* Fixed-size copies, each kept within the widest text; the bytes past the
     * returned end are overwritten by whatever follows. */
    *p = '-';
    p += x < 0.0f;
    if (e >= 0) {
        char text[19];
        memcpy(text, digits, 9);
        text[e + 1] = '.';
        memcpy(text + e + 2, digits + e + 1, 8);
        memcpy(p, text, 10);
        /* The integer part whole, then the point and the fraction if any. */
        return p + (len > e + 1 ? len + 1 : e + 1);
    }
    memcpy(p, "0.000", 5);
    p += 1 - e;
    memcpy(p, digits, 9);
    return p + len;
}

/* N / 2^s rounded to nearest, ties to even, for N = hi * 2^64 + lo and s >= 1,
 * with the quotient below 2^64; stores its floor in *q.  Above 64 the shift
 * drops lo, which then only breaks a tie. */
INLINE uint64_t round_shift(u128 hi, uint64_t lo, int s, uint64_t *q)
{
    int sticky = 0;
    u128 n = hi << 64 | lo; /* N itself, when s <= 64: N < 2^(64 + s) */
    if (s > 64) {
        n = hi;
        sticky = lo != 0;
        s -= 64;
    }
    u128 rest = n & (((u128)1 << s) - 1), half = (u128)1 << (s - 1);
    *q = (uint64_t)(n >> s);
    return *q + (rest > half || (rest == half && (sticky || (*q & 1))));
}

/* m * 2^e * 10^k rounded to nearest, ties to even, and its floor in *q, for
 * a float32's m and e and a k that puts the result near [1e8, 1e9): k >= 0
 * with e + k < 0 below 1e-4, k < 0 with e + k >= 0 from 1e9 up. */
INLINE uint64_t scale10(uint64_t m, int e, int k, uint64_t *q)
{
    if (k > 0) {
        u128 p = pow5(k);
        u128 lo = (u128)m * (uint64_t)p;
        u128 hi = (u128)m * (uint64_t)(p >> 64) + (lo >> 64);
        return round_shift(hi, (uint64_t)lo, -(e + k), q);
    }
    u128 d = pow5(-k), n = (u128)m << (e + k);
    u128 f = n / d, r = n - f * d;
    *q = (uint64_t)f;
    return *q + (2 * r > d);
}

/* Writes the exponent-notation text of x at p, given a = |x|, finite, with
 * 0 < a < 1e-4 or a >= 1e9; returns the end of the text.  Its stores reach
 * at most 15 bytes past p, which is the widest text. */
INLINE char *write_exponent(char *p, float x, double a)
{
    uint32_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t m = bits & 0x7fffff;
    int e = (int)(bits >> 23 & 0xff);
    if (e) {
        m |= 0x800000;
        e -= 150;
    } else {
        e = -149; /* subnormal */
    }
    uint64_t abits;
    memcpy(&abits, &a, sizeof abits);
    int b = (int)(abits >> 52) - 1023; /* floor(log2 a): a is a normal double */
    int exp10 = (b * 78913) >> 18;     /* within one of floor(log10 a) */
    uint64_t q, n;
    for (;;) {
        n = scale10(m, e, 8 - exp10, &q);
        if (q < 100000000)
            exp10--;
        else if (q >= 1000000000)
            exp10++;
        else
            break;
    }
    if (n == 1000000000) {
        n = 100000000;
        exp10++;
    }
    char digits[17];
    int len = nine_digits((uint32_t)n, digits);

    *p = '-';
    p += x < 0.0f;
    p[0] = digits[0];
    p[1] = '.';
    memcpy(p + 2, digits + 1, 8);
    p += len > 1 ? len + 1 : 1;
    p[0] = 'e';
    p[1] = exp10 < 0 ? '-' : '+';
    memcpy(p + 2, PAIRS + 2 * (exp10 < 0 ? -exp10 : exp10), 2);
    return p + 4;
}

/* Writes the lines of rows x[0..rows) of dim values each to out: the row's
 * word, a space, then each value followed by a space, the last by a newline
 * instead (a row of no values is its word, a space and a newline).  The
 * words are words[0..nbytes), the rows' words joined by newlines, in UTF-8
 * (a word holds no newline; one missing reads as empty).  out must hold
 * nbytes + 1 + rows * max(dim, 1) * 16 bytes; returns the number of bytes
 * written. */
int64_t format_rows(const float *x, int64_t rows, int64_t dim, const char *words,
                    int64_t nbytes, char *out)
{
    char *p = out;
    const char *w = words, *end = words + nbytes;
    for (int64_t i = 0; i < rows; i++) {
        const char *nl = memchr(w, '\n', (size_t)(end - w));
        size_t len = (size_t)((nl ? nl : end) - w);
        memcpy(p, w, len);
        p += len;
        w = nl ? nl + 1 : end;
        *p++ = ' ';
        for (int64_t j = 0; j < dim; j++) {
            float v = x[i * dim + j];
            double a = fabs((double)v), s = a * 1e4;
            if (j > 0)
                *p++ = ' ';
            if (v == 0.0f) {
                if (signbit(v))
                    *p++ = '-';
                *p++ = '0';
            } else if (s >= 1.0 && a < 1e9) {
                p = write_fixed(p, v, a, s);
            } else if (a != a) {
                memcpy(p, "nan", 3);
                p += 3;
            } else if (a == INFINITY) {
                *p = '-';
                p += v < 0.0f;
                memcpy(p, "inf", 3);
                p += 3;
            } else {
                p = write_exponent(p, v, a);
            }
        }
        *p++ = '\n';
    }
    return p - out;
}

/* Checkpoint checksums: the CRC-32 that zlib's crc32() computes (CRC-32/ISO-HDLC:
 * the reflected polynomial 0xEDB88320, the register inverted before and after).
 * An x86-64 host with PCLMULQDQ folds the data by carry-less multiplication
 * (Gopal et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
 * Instruction", Intel, 2009), 64 bytes a step in four 128-bit lanes while at
 * least 64 remain, then 16 bytes a step in one; crc32_init checks the CPU once,
 * when the object is loaded.  kernel.crc32 hands zlib.crc32 what the fold leaves,
 * every byte on other hosts: zlib's table loop beat a portable one written here. */

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

/* The folding constants, in the reflected domain, each (x^n mod P) bit-reflected
 * and shifted left by one: k1 and k2 fold a lane 512 bits on (n = 4 * 128 + 32 and
 * 4 * 128 - 32), k3 and k4 fold 128 bits on (n = 128 + 32 and 128 - 32), and k5
 * folds the last 64 bits to 32 (n = 64).  MU is floor(x^64 / P) and POLY P itself,
 * both bit-reflected over 33 bits, for the Barrett reduction. */
#define CRC_K1 0x154442bd4
#define CRC_K2 0x1c6e41596
#define CRC_K3 0x1751997d0
#define CRC_K4 0x0ccaa009e
#define CRC_K5 0x163cd6124
#define CRC_POLY 0x1db710641
#define CRC_MU 0x1f7011641

/* x times k_lo on its low quadword plus x times k_hi on its high one: x
 * carried 128 bits further on. */
__attribute__((target("pclmul,sse4.1"))) static inline __m128i fold16(__m128i x, __m128i k)
{
    return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11));
}

/* The inverted CRC register c after the bytes p[0..len), len a multiple of 16
 * and at least 64: it reads exactly those bytes, at any alignment. */
__attribute__((target("pclmul,sse4.1"))) static uint32_t crc32_clmul(uint32_t c,
                                                                      const unsigned char *p,
                                                                      size_t len)
{
    const __m128i *q = (const __m128i *)p;
    __m128i x0 = _mm_xor_si128(_mm_loadu_si128(q), _mm_cvtsi32_si128((int)c));
    __m128i x1 = _mm_loadu_si128(q + 1), x2 = _mm_loadu_si128(q + 2), x3 = _mm_loadu_si128(q + 3);
    q += 4;
    len -= 64;
    __m128i k = _mm_set_epi64x(CRC_K2, CRC_K1);
    for (; len >= 64; q += 4, len -= 64) {
        x0 = _mm_xor_si128(fold16(x0, k), _mm_loadu_si128(q));
        x1 = _mm_xor_si128(fold16(x1, k), _mm_loadu_si128(q + 1));
        x2 = _mm_xor_si128(fold16(x2, k), _mm_loadu_si128(q + 2));
        x3 = _mm_xor_si128(fold16(x3, k), _mm_loadu_si128(q + 3));
    }
    k = _mm_set_epi64x(CRC_K4, CRC_K3);
    x0 = _mm_xor_si128(fold16(x0, k), x1);
    x0 = _mm_xor_si128(fold16(x0, k), x2);
    x0 = _mm_xor_si128(fold16(x0, k), x3);
    for (; len >= 16; q++, len -= 16)
        x0 = _mm_xor_si128(fold16(x0, k), _mm_loadu_si128(q));

    /* 128 bits to 64: the low quadword times k4, added to the high one. */
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k, 0x10));
    /* 64 bits to 32 more: the low 32 times k5, added to the rest. */
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x0, low32), _mm_cvtsi64_si128(CRC_K5),
                                            0x00));
    /* Barrett's reduction to the 32-bit remainder, in the register's high half. */
    const __m128i pm = _mm_set_epi64x(CRC_MU, CRC_POLY);
    __m128i t = _mm_and_si128(_mm_clmulepi64_si128(_mm_and_si128(x0, low32), pm, 0x10), low32);
    x0 = _mm_xor_si128(x0, _mm_clmulepi64_si128(t, pm, 0x00));
    return (uint32_t)_mm_extract_epi32(x0, 1);
}

static int crc32_has_clmul;

__attribute__((constructor)) static void crc32_init(void)
{
    __builtin_cpu_init();
    crc32_has_clmul = __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#endif

/* Folds into *crc, zlib's CRC of the bytes before buf (0 for none), the longest
 * prefix of buf[0..len) that the carry-less fold takes, a multiple of 16 bytes
 * and at least 64, and returns its length: 0 where the host cannot fold. */
int64_t crc32_fold(uint32_t *crc, const unsigned char *buf, int64_t len)
{
#if defined(__x86_64__) && defined(__GNUC__)
    if (crc32_has_clmul && len >= 64) {
        int64_t folded = len & ~(int64_t)15;
        *crc = ~crc32_clmul(~*crc, buf, (size_t)folded);
        return folded;
    }
#else
    (void)crc, (void)buf, (void)len;
#endif
    return 0;
}
