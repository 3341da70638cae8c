/* The bounded swap search of irlobs.numerics.GramStack.best_swap, compiled.
 *
 * irlobs.gramkernel compiles this file with the system C compiler, loads it
 * with ctypes and hands it the dsyevd that numpy.linalg links to.  Every
 * value a decision reads is bitwise numpy's exhaustive search: a swap's
 * matrix is formed by the same elementwise operations, (gram + block) -
 * blocks[i], and solved by dsyevd called as np.linalg.eigvalsh calls it
 * (jobz 'N', uplo 'L', the matrix copied column-major, the workspace of its
 * size query).  Only the Ritz bounds (take_basis), which decide which slots
 * are solved but not which one is chosen, are summed in an order of their
 * own; their tau budget covers any order, and so are the Rayleigh quotients
 * that tighten a slot's bounds before it is solved (power_bound,
 * inverse_bound).  Compile without contraction or fast-math: -O2
 * -ffp-contract=off.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

typedef int64_t lint; /* ILP64 LAPACK */
typedef void dsyevd_fn(const char *jobz, const char *uplo, const lint *n, double *a,
                       const lint *lda, double *w, double *work, const lint *lwork,
                       lint *iwork, const lint *liwork, lint *info, size_t jobz_len,
                       size_t uplo_len);

#define EPS 2.220446049250313e-16 /* 2^-52, np.finfo(float).eps */

/* One stack.  The pointers are arrays that irlobs.gramkernel allocates,
 * blocks and traces the stack's own. */
struct stack {
    dsyevd_fn *dsyevd;
    lint dim, capacity, size;
    lint kappa;       /* score: 1 the Gram condition number, 0 minus lam_min */
    lint per_offer;   /* Ritz basis: 1 of gram + block per search, 0 of gram per change */
    lint fresh;       /* the per-change basis is that of gram */
    lint lwork[2], liwork[2]; /* dsyevd's size queries, jobz 'N' and 'V' */
    double *blocks;   /* (capacity, dim, dim) */
    double *traces;   /* (capacity,) */
    double *gram, *block, *grown; /* (dim, dim) each */
    double *lam;      /* (capacity, dim): the spectrum of each slot solved */
    double *a, *work; /* dsyevd's matrix (dim, dim), column-major, and work */
    lint *iwork;
    double *basis;    /* (3, dim): the eigenvectors of lam_0, lam_1 and lam_max */
    double *ritz;     /* (5, capacity): per slot low, diff, b2, high, then the floor */
    lint *solved;     /* (capacity,) */
    double *rq;       /* (2 dim + 2, dim): a matrix, its Cholesky factor, two vectors */
    double scale;     /* tau per unit of trace */
};

/* The size of struct stack, which irlobs.gramkernel checks its copy of. */
lint gk_struct_size(void) { return sizeof(struct stack); }

/* dsyevd's workspace query for order n: out[0] lwork, out[1] liwork, as
 * numpy's wrapper converts them; returns info. */
lint gk_workspace(dsyevd_fn *dsyevd, lint n, lint vectors, lint *out)
{
    double work;
    lint iwork, info, lwork = -1, liwork = -1, lda = n > 1 ? n : 1;
    dsyevd(vectors ? "V" : "N", "L", &n, &work, &lda, &work, &work, &lwork, &iwork, &liwork,
           &info, 1, 1);
    out[0] = (lint)(size_t)work;
    out[1] = (lint)(size_t)iwork;
    return info;
}

/* m - sub, sub being NULL for m itself, into s->a, column-major. */
static void form(struct stack *s, const double *m, const double *sub)
{
    lint d = s->dim;
    for (lint i = 0; i < d; i++)
        for (lint j = 0; j < d; j++)
            s->a[i + j * d] = sub ? m[i * d + j] - sub[i * d + j] : m[i * d + j];
}

/* Eigenvalues (into w, ascending) and, with vectors, eigenvectors (into the
 * columns of s->a) of the matrix in s->a; returns info. */
static lint eigen(struct stack *s, lint vectors, double *w)
{
    lint d = s->dim, info;
    s->dsyevd(vectors ? "V" : "N", "L", &d, s->a, &d, w, s->work, &s->lwork[vectors],
              s->iwork, &s->liwork[vectors], &info, 1, 1);
    return info;
}

static lint solve(struct stack *s, const double *m, const double *sub, lint vectors, double *w)
{
    form(s, m, sub);
    return eigen(s, vectors, w);
}

/* The stack's score of an ascending spectrum, as its _score. */
static double score(const struct stack *s, const double *lam)
{
    double lo = lam[0], hi = lam[s->dim - 1];
    if (!s->kappa)
        return -lo;
    return hi > 0.0 && lo > hi * (double)s->dim * EPS ? hi / lo : INFINITY;
}

/* w_k' x w_l for the (k, l) pairs (0, 0), (0, 1), (1, 1), (2, 2). */
static void project(const struct stack *s, const double *x, double *p)
{
    lint d = s->dim;
    const double *w0 = s->basis, *w1 = w0 + d, *w2 = w1 + d;
    p[0] = p[1] = p[2] = p[3] = 0.0;
    for (lint i = 0; i < d; i++) {
        double r0 = 0.0, r1 = 0.0, r2 = 0.0;
        for (lint j = 0; j < d; j++) {
            r0 += x[i * d + j] * w0[j];
            r1 += x[i * d + j] * w1[j];
            r2 += x[i * d + j] * w2[j];
        }
        p[0] += w0[i] * r0;
        p[1] += w0[i] * r1;
        p[2] += w1[i] * r1;
        p[3] += w2[i] * r2;
    }
}

/* The Ritz bounds' per-slot parts from the eigenvectors of x: the basis,
 * tau's scale and, per slot, low, diff, b2 and high.
 *
 * Per slot i, gk_search takes an upper bound on lam_min and a lower bound
 * on lam_max of M_i = gram + block - blocks[i] from Rayleigh-Ritz on an
 * eigenbasis: that of gram, taken once per change of the stack, or with
 * per_offer that of gram + block, taken per search.  With U the basis
 * eigenvectors of the 2 smallest eigenvalues and v that of the largest,
 * Rayleigh-Ritz (Cauchy interlacing) gives lam_min(M) <= lam_min(U'MU) and
 * lam_max(M) >= v'Mv for any orthonormal U, v; the basis only decides how
 * tight the bounds are.  The projections W'XW of gram and of each
 * blocks[i] on W = [U, v] are summed here, and each search adds that of
 * block; lam_min of the 2x2 U'MU [[a, b], [b, c]] is the closed form
 * ((a + c) - hypot(a - c, 2b)) / 2.  The computed values differ from these
 * by at most tau_i = (64 d^2 eps + 3 delta) s_i, which moves each bound
 * outwards, where s_i = trace(gram) + trace(block) + trace(blocks[i])
 * bounds ||M_i||_2 and the norms of the three PSD terms together, also
 * when swapping out a dominant entry cancels most of the trace, and
 * delta = sum |W'W - I| + 4d eps, at least ||W'W - I||_F + 4d eps, bounds
 * W's loss of orthonormality.  Budget, in units of eps s_i:
 *   - dsyevd's backward error on the exact solve of M_i, and the rounding
 *     of M_i: at most d^2 + 2d (LAPACK's modest p(d), and sqrt(d) eps per
 *     sum of PSD terms);
 *   - rounding of the three projections: at most 2 * 2d * sqrt(d) <= 4 d^2
 *     (elementwise gamma_2d times || |w| ||^2 || |X| ||, doubled from an
 *     entry to the 2x2 matrix);
 *   - the sums of the projections, each entry's sum and difference, the
 *     closed form and the adding of tau's two parts: at most 18 (eps ||M||
 *     for each of the 16 roundings, 2 eps ||M|| for hypot, which also
 *     carries its arguments' errors; halving is exact);
 *   - the Rayleigh quotient's norm ||Wy||^2 in [1 - delta, 1 + delta]
 *     moves it by at most 2 delta (1 + delta) ||M|| <= 3 delta ||M||.
 * The first three sum to 5 d^2 + 2d + 18 <= 8 d^2 for d >= 3 (11 d^2 at
 * d = 2), a factor 5.8 or more below the 64 d^2 used. */
static lint take_basis(struct stack *s, const double *x, double gram_trace)
{
    lint d = s->dim, n = s->size, cap = s->capacity, info = solve(s, x, NULL, 1, s->lam);
    if (info)
        return info;
    const double *cols[3] = {s->a, s->a + d, s->a + (d - 1) * d};
    for (lint k = 0; k < 3; k++)
        for (lint i = 0; i < d; i++)
            s->basis[k * d + i] = cols[k][i];
    /* delta: the magnitudes of W'W - I, which bound its Frobenius norm */
    double delta = 4 * d * EPS;
    for (lint k = 0; k < 3; k++)
        for (lint l = 0; l < 3; l++) {
            double dot = 0.0;
            for (lint i = 0; i < d; i++)
                dot += s->basis[k * d + i] * s->basis[l * d + i];
            delta += fabs(dot - (k == l));
        }
    s->scale = 64 * d * d * EPS + 3 * delta;
    double g[4], b[4];
    double *low = s->ritz, *diff = low + cap, *b2 = diff + cap, *high = b2 + cap;
    project(s, s->gram, g);
    for (lint i = 0; i < n; i++) {
        project(s, s->blocks + i * d * d, b);
        double a = g[0] - b[0], c = g[2] - b[2];
        double tau = s->scale * (gram_trace + s->traces[i]);
        low[i] = 0.5 * (a + c) + tau;
        diff[i] = a - c;
        b2[i] = 2.0 * (g[1] - b[1]);
        high[i] = (g[3] - b[3]) - tau;
    }
    return 0;
}

/* y = M x for a d x d row-major M. */
static void multiply(lint d, const double *m, const double *x, double *y)
{
    for (lint i = 0; i < d; i++) {
        double r = 0.0;
        for (lint k = 0; k < d; k++)
            r += m[i * d + k] * x[k];
        y[i] = r;
    }
}

/* y'My / y'y for y scaled to a largest magnitude of 1 first, my a vector
 * of scratch; NAN when y is zero or not finite. */
static double rayleigh(lint d, const double *m, double *y, double *my)
{
    double top = 0.0, num = 0.0, den = 0.0;
    for (lint i = 0; i < d; i++)
        if (!(fabs(y[i]) <= top))
            top = fabs(y[i]);
    if (!(top > 0.0 && isfinite(top)))
        return NAN;
    for (lint i = 0; i < d; i++)
        y[i] /= top;
    multiply(d, m, y, my);
    for (lint i = 0; i < d; i++) {
        num += y[i] * my[i];
        den += y[i] * y[i];
    }
    return num / den;
}

/* The lower Cholesky factor of M + shift I into l, both d x d row-major,
 * with the reciprocals of its pivots on the diagonal; returns 1 at a pivot
 * that is not positive, else 0. */
static int cholesky(lint d, const double *m, double shift, double *l)
{
    for (lint i = 0; i < d; i++)
        for (lint k = 0; k <= i; k++) {
            double v = m[i * d + k] + (i == k ? shift : 0.0);
            for (lint t = 0; t < k; t++)
                v -= l[i * d + t] * l[k * d + t];
            if (i > k)
                l[i * d + k] = v * l[k * d + k];
            else if (v > 0.0)
                l[i * d + i] = 1.0 / sqrt(v);
            else
                return 1;
        }
    return 0;
}

/* M, the matrix in s->a that dsyevd would solve, its lower triangle
 * mirrored, into s->rq, row-major. */
static const double *mirror(struct stack *s)
{
    lint d = s->dim;
    double *m = s->rq;
    for (lint i = 0; i < d; i++)
        for (lint k = 0; k <= i; k++)
            m[i * d + k] = m[k * d + i] = s->a[i + k * d];
    return m;
}

/* The Rayleigh quotient of one power step from the basis's top vector
 * with m, minus tau: a lower bound on lam_max of M (NAN if not finite).
 * A Rayleigh quotient lies between the ends of M's spectrum for any
 * vector, and its rounding, about gamma_(d+2) of tau's s_j, and dsyevd's
 * error both fit in tau's budget. */
static double power_bound(struct stack *s, const double *m, double tau)
{
    lint d = s->dim;
    double *y = s->rq + 2 * d * d, *my = y + d;
    multiply(d, m, s->basis + 2 * d, y);
    return rayleigh(d, m, y, my) - tau;
}

/* The Rayleigh quotient of one inverse-iteration step from the basis's
 * lowest vector with m, plus tau: an upper bound on lam_min of M, as for
 * power_bound.  The step solves with a Cholesky factor of M, or of
 * M + tau I where that fails; NAN where both fail. */
static double inverse_bound(struct stack *s, const double *m, double tau)
{
    lint d = s->dim;
    double *l = s->rq + d * d, *y = l + d * d, *my = y + d;
    const double *w = s->basis;
    if (cholesky(d, m, 0.0, l) && cholesky(d, m, tau, l))
        return NAN;
    for (lint i = 0; i < d; i++) { /* L x = w_0, then L'y = x */
        double v = w[i];
        for (lint t = 0; t < i; t++)
            v -= l[i * d + t] * y[t];
        y[i] = v * l[i * d + i];
    }
    for (lint i = d - 1; i >= 0; i--) {
        double v = y[i];
        for (lint t = i + 1; t < d; t++)
            v -= l[t * d + i] * y[t];
        y[i] = v * l[i * d + i];
    }
    return rayleigh(d, m, y, my) + tau;
}

/* The stack's lower bound on a slot's score from an upper bound on its
 * lam_min and a lower bound on its lam_max: minus lam_min, or for the kappa
 * score lam_max / lam_min, inf where lam_min cannot be positive. */
static double floor_of(const struct stack *s, double lam_min, double lam_max)
{
    if (!s->kappa)
        return -lam_min;
    return lam_min > 0.0 ? (lam_max > 0.0 ? lam_max : 0.0) / lam_min : INFINITY;
}

/* The swap of s->block into the stack with the lowest score, as
 * GramStack.best_swap: its slot, its spectrum in s->lam's row of that
 * slot, or -1 when no slot can score below cut, or -2 when dsyevd fails.
 * Below a finite cut, slots are taken one at a time in ascending order of
 * their Ritz floors and the search ends at the first floor above the best
 * score, as no slot left can then score at or below it.  A slot taken
 * has its floor tightened, first for the kappa score by power_bound, then
 * by inverse_bound, and is solved only if its floor is still below cut and
 * at most the best score. */
lint gk_search(struct stack *s, double cut, double trace, double gram_trace)
{
    lint d = s->dim, dd = d * d, n = s->size, cap = s->capacity, best = -1;
    double best_score = INFINITY;
    for (lint k = 0; k < dd; k++)
        s->grown[k] = s->gram[k] + s->block[k];
    if (d < 2 || !isfinite(cut)) { /* every slot, as the batched eigvalsh and argmin */
        for (lint i = 0; i < n; i++) {
            if (solve(s, s->grown, s->blocks + i * dd, 0, s->lam + i * d))
                return -2;
            double sc = score(s, s->lam + i * d);
            if (best < 0 || sc < best_score)
                best = i, best_score = sc;
        }
        return best;
    }
    if (s->per_offer || !s->fresh) {
        if (take_basis(s, s->per_offer ? s->grown : s->gram, gram_trace))
            return -2;
        s->fresh = !s->per_offer;
    }
    double p[4];
    project(s, s->block, p);
    double tau = s->scale * trace, mid = 0.5 * (p[0] + p[2]) + tau;
    double *low = s->ritz, *diff = low + cap, *b2 = diff + cap, *high = b2 + cap;
    double *floor = high + cap;
    for (lint i = 0; i < n; i++) {
        double lam_min = low[i] + -0.5 * hypot(diff[i] + (p[0] - p[2]), b2[i] + 2.0 * p[1]) + mid;
        floor[i] = floor_of(s, lam_min, high[i] + (p[3] - tau));
        s->solved[i] = 0;
    }
    for (;;) {
        lint j = -1; /* the unsolved slot of the lowest floor below cut */
        for (lint i = 0; i < n; i++)
            if (!s->solved[i] && floor[i] < cut && (j < 0 || floor[i] < floor[j]))
                j = i;
        if (j < 0 || !(floor[j] <= best_score))
            return best;
        s->solved[j] = 1;
        form(s, s->grown, s->blocks + j * dd);
        const double *m = mirror(s);
        double tau_j = s->scale * (gram_trace + s->traces[j] + trace);
        double lam_min = low[j] + -0.5 * hypot(diff[j] + (p[0] - p[2]), b2[j] + 2.0 * p[1]) + mid;
        double lam_max = high[j] + (p[3] - tau), bound;
        if (s->kappa) {
            if ((bound = power_bound(s, m, tau_j)) > lam_max)
                lam_max = bound;
            floor[j] = floor_of(s, lam_min, lam_max);
            if (!(floor[j] < cut && floor[j] <= best_score))
                continue;
        }
        if ((bound = inverse_bound(s, m, tau_j)) < lam_min)
            lam_min = bound;
        floor[j] = floor_of(s, lam_min, lam_max);
        if (!(floor[j] < cut && floor[j] <= best_score))
            continue;
        if (eigen(s, 0, s->lam + j * d))
            return -2;
        double sc = score(s, s->lam + j * d);
        if (best < 0 || sc < best_score || (sc == best_score && j < best))
            best = j, best_score = sc;
    }
}
