/* Per-sentence training kernel: the word-level pass of a training run.
 *
 * One call subsamples one mapped sentence, then visits its window pairs,
 * drawing each pair's negatives and applying the skip-gram negative-sampling
 * step.  It alone consumes the word stream: one uniform per in-vocab token
 * when subsampling, in sentence order, then k per pair in visiting order.
 * Each negative is looked up through the noise table's guide table, which
 * gives the id np.searchsorted gives for every uniform.  The arithmetic is
 * that of trainer.word_step, the tests' reference:
 *
 *   - every score and gradient of a step is read from the pre-update
 *     parameters before the step writes anything, so an id that repeats
 *     within a step accumulates its deltas exactly as np.add.at does;
 *   - elementwise products and sums run in the numpy expressions' order;
 *     dot products sum in four lanes in a fixed order (see dot), which
 *     rounds differently from BLAS but not differently from host to host.
 *
 * Matrices are C-contiguous float64, row i belonging to word id i.  The
 * caller supplies the scratch buffers, so nothing here allocates.  Build with
 * -ffp-contract=off: a fused multiply-add would round differently from the
 * numpy reference.
 *
 * On x86-64 word_pass is cloned for AVX2 and for baseline x86-64, and the
 * dynamic loader picks the clone for the host when it loads the object.  The
 * clones compute the same bits: without -ffast-math the compiler may not
 * reassociate a sum, and with -ffp-contract=off it may not fuse a multiply and
 * an add, so a wider vector only does more of the same IEEE operations, each
 * rounded as before, in the same order.  The elementwise loops have no order
 * to change, and dot's four lanes fix the order of its sum.  Both clones call
 * the same C library exp and log1p.
 */
#include <math.h>
#include <stdint.h>

static double sigmoid(double x)
{
    /* The same clip as trainer._sigmoid. */
    if (x > 60.0)
        x = 60.0;
    else if (x < -60.0)
        x = -60.0;
    return 1.0 / (1.0 + exp(-x));
}

/* log(1 + exp(x)), i.e. np.logaddexp(0, x). */
static double log1pexp(double x)
{
    return x > 0.0 ? x + log1p(exp(-x)) : log1p(exp(x));
}

/* Four partial sums, lane j % 4 for the first dim - dim % 4 terms, then the
 * tail into s0, combined as (s0 + s1) + (s2 + s3): a fixed order, which the
 * compiler keeps without -ffast-math whatever vector width it uses. */
static double dot(const double *a, const double *b, int64_t dim)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t j = 0;
    for (; j + 4 <= dim; j += 4) {
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    for (; j < dim; j++)
        s0 += a[j] * b[j];
    return (s0 + s1) + (s2 + s3);
}

/* Output bank of a relative offset, as model.bank_for_offset. */
static int64_t bank_of(int64_t offset, int64_t window, int64_t positional)
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
static int64_t lookup(const double *cum, const int64_t *guide, int64_t len, double u)
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
static int64_t draw(const double *cum, const int64_t *guide, int64_t len, double u,
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
int64_t sample_noise(const double *cum, const int64_t *guide, int64_t len, const double *u,
                     int64_t k, int64_t exclude, int64_t *out)
{
    for (int64_t i = 0; i < k; i++) {
        out[i] = draw(cum, guide, len, u[i], exclude);
        if (out[i] < 0)
            return -1;
    }
    return 0;
}

typedef double (*next_double_fn)(void *state); /* from BitGenerator.ctypes */

/* Skip-gram negative-sampling pass over the word ids of one sentence.
 *
 * inp: input embeddings; out: the output banks (one, or 2 * window when
 * positional); ids: word ids, -1 for a hole, overwritten with -1 where a
 * token is dropped; keep: per-id keep probability of `vocab` ids, or NULL
 * for no subsampling; cum: the noise table of `vocab` ids; guide: its
 * vocab + 1 cell edges (see lookup); next_double and state: the generator the
 * uniforms come from; work: k + 1 + dim doubles; negs: k + 1 ids.  A token is
 * dropped iff its uniform is >= keep[id].  Stores the sum of the pre-update
 * objective terms in *objective.  Returns the number of pairs, or -1 - center
 * when a center holds all the noise mass.
 */
#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target_clones("avx2", "default")))
#endif
int64_t word_pass(double *inp, double *const *out, int64_t dim,
                  int64_t *ids, int64_t n, int64_t window, int64_t positional,
                  const double *keep, const double *cum, const int64_t *guide,
                  int64_t vocab, next_double_fn next_double, void *state, int64_t k,
                  double lr, double *work, int64_t *negs, double *objective)
{
    double *coef = work;         /* k + 1 */
    double *grad = work + k + 1; /* dim */
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
            if (sample_noise(cum, guide, vocab, coef + 1, k, center, negs + 1) < 0)
                return -1 - center;
            pairs++;

            double term = 0.0, neg_sum = 0.0;
            for (int64_t i = 0; i <= k; i++) {
                double score = dot(bank + negs[i] * dim, v, dim);
                if (i == 0)
                    term = -log1pexp(-score);
                else
                    neg_sum += log1pexp(score);
                coef[i] = (i == 0 ? 1.0 : 0.0) - sigmoid(score);
            }
            total += term - neg_sum;

            for (int64_t j = 0; j < dim; j++)
                grad[j] = 0.0;
            for (int64_t i = 0; i <= k; i++) {
                const double *row = bank + negs[i] * dim;
                for (int64_t j = 0; j < dim; j++)
                    grad[j] += coef[i] * row[j];
            }
            for (int64_t i = 0; i <= k; i++) {
                double *row = bank + negs[i] * dim;
                double scale = lr * coef[i];
                for (int64_t j = 0; j < dim; j++)
                    row[j] += scale * v[j];
            }
            for (int64_t j = 0; j < dim; j++)
                v[j] += lr * grad[j];
        }
    }
    *objective = total;
    return pairs;
}
