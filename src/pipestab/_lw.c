/* The time loop of `pipestab.dynamics`, and the boundary disturbance b(t).
 *
 * `lw_advance` takes two-step Lax-Wendroff (Richtmyer) steps of a batch,
 * one after another, each from one of its two states into the other.  Per
 * step and member it computes the time step min(cfl_dx / speed, t_snap -
 * t), the disturbance b and b_t at t + dt, the CFL test, the predictor, the
 * corrector, both boundary closures, the u update, the guard test on
 * max|u|, t + dt, the next wave speed max|ubar + u| + a, and writes the
 * step's records into the run's records at the step's index and the
 * member's slot: t, max|u|, b, b_t, max|u_x|, max|u_t| and the E1 and H1
 * integrals of the new state.  It returns to Python only when the records
 * are full, a member reaches its next snapshot time or its t_end, or a
 * member fails the CFL test (before the step) or its guard (after it):
 * then no member takes that step, and each failed member's status, value
 * and time are left in `io` for its message.  `lw_sample_b` is the
 * disturbance alone, which `disturbance.sample_b` calls.
 *
 * Every value is computed by the same IEEE operations, in the same order,
 * as the Python and NumPy forms kept in tests/oracles.py and in
 * `lyapunov.energy_E1` and `h1_integrand`, whose sums `lyapunov._dot`
 * adds node after node, as here; so the results are equal bit for bit.
 * The maxima alone are taken in another order, which gives the same
 * result, as `maxima` says.
 * That holds only when the compiler neither contracts a * b + c into a
 * fused multiply-add nor reorders arithmetic, and calls libm's pow, exp,
 * sin and cos as Python's ** and math module do, instead of folding
 * pow(x, 2.0) into x * x or sin and cos into sincos: build with
 * -ffp-contract=off -fno-builtin and without -ffast-math.  The callers
 * check shapes, dtypes, contiguity and indices before they pass pointers.
 *
 * The per-node kernels of a step (`predictor`, `corrector`, `finish` and
 * `maxima`) are branch-free and restrict-qualified, so that the compiler
 * vectorises them: the first three element-wise, `maxima` in independent
 * lanes.  The E1 and H1 sums are added in a serial loop after `finish`, in
 * node order; when the new state holds a NaN, the maxima are taken again
 * in node order (`nan_maxima`), so that the same NaN comes out.  A vector
 * lane adds, multiplies, divides and compares with the rounding of the
 * scalar operation, so the vector width changes no bit.  With GCC on
 * x86-64 Linux each kernel is built twice, for AVX2 and for the baseline
 * ISA, and the loader picks the clone the CPU runs (`CLONES`); the AVX2
 * target has no FMA, and contraction is off.
 */
#include <math.h>
#include <stddef.h>

/* The rows of io, as dynamics.IO names them: each member's loop state, the
 * outcome of a step it failed, its slot, then its disturbance. */
enum { T, T_SNAP, T_END, CFL_DX, GUARD, SPEED, DT, TOP, STATUS, VALUE, AT, SLOT, DISTURBANCE };

/* The records of a step, as dynamics.RECORDS names them. */
enum { R_T, R_MAX_U, R_B, R_B_T, R_MAX_UX, R_MAX_UT, R_E1, R_H1 };

/* The values of STATUS. */
enum { RUNNING, CFL_FAILED, GUARD_FAILED };

/* The parameters of a disturbance, as DisturbanceSpec.parameters orders them;
 * FAMILY is an index into disturbance.FAMILIES. */
enum { FAMILY, AMPLITUDE, FREQUENCY, GAMMA, T_PERIOD, PHASE, T_OFF };
enum { ZERO, DECAYING_BURST, COMPACT_BURST };

#define PI 3.141592653589793    /* math.pi */

/* The per-node kernels' clones: one built for AVX2, one for the baseline ISA,
 * chosen at load time, so that a cached build runs on any x86-64 CPU. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__linux__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#endif

typedef struct {
    long members;               /* B */
    long n;                     /* grid nodes per member */
    long runs;                  /* slots of the records */
    long capacity;              /* steps the records hold */
    double dx;
    double *states;             /* (2, 3, B, n): u, v, w of the two states */
    double *half;               /* (3, n - 1): u, v, w at t + dt/2 of one member,
                                   then its integrals' terms */
    double *io;                 /* (rows of dynamics.IO, B) */
    const double *weights;      /* (n,): the trapezoid weights */
    const double *two_decay;    /* (n,): 2 exp(-x/L), E1's cross-term weight */
    const double *coefficients; /* (5, B): a, a^2, k, theta, 1.5 theta */
    const double *ubar;         /* (B, n) at the nodes */
    const double *ubar_x;
    const double *ubar_m;       /* (B, n - 1) on the midpoints */
    const double *ubarx_m;
    const double *d_bar_m;      /* (B, n - 1): stationary forcing on the midpoints */
    const double *f_bar_m;
    const double *d_bar_i;      /* (B, n - 2): stationary forcing at the interior nodes */
    const double *f_bar_i;
    double *records;            /* (8, runs, capacity): dynamics.RECORDS by slot and step */
} lw_batch;

/* Quintic smoothstep s(p) on [0, 1] and its first two derivatives: 0 with
 * flat derivatives for p <= 0, 1 with flat derivatives for p >= 1. */
static void smoothstep(double p, double out[3])
{
    if (p <= 0.0) {
        out[0] = out[1] = out[2] = 0.0;
    } else if (p >= 1.0) {
        out[0] = 1.0;
        out[1] = out[2] = 0.0;
    } else {
        out[0] = pow(p, 3.0) * (10.0 + p * (-15.0 + 6.0 * p));
        out[1] = 30.0 * pow(p, 2.0) * (1.0 + p * (-2.0 + p));
        out[2] = 60.0 * p * (1.0 + p * (-3.0 + 2.0 * p));
    }
}

/* (b, b_t, b_tt) at time t >= 0 of the disturbance whose parameters are
 * p[0], p[stride], ...: a decaying carrier A e^(-gamma t) sin(2 pi f t +
 * phase), switched on by a smoothstep over the ramp T_period / 2, so that
 * b, b_t and b_tt vanish at t = 0.  A compact burst is switched off by a
 * second smoothstep over [t_off - ramp, t_off] and is zero from t_off on.
 */
static void disturbance(const double *p, long stride, double t, double out[3])
{
    const double family = p[FAMILY * stride], A = p[AMPLITUDE * stride];
    out[0] = out[1] = out[2] = 0.0;
    if (family == ZERO || A == 0.0)
        return;

    const double ramp = 0.5 * p[T_PERIOD * stride];
    double on[3];
    smoothstep(t / ramp, on);
    const double s = on[0], ds = on[1] / ramp, dds = on[2] / pow(ramp, 2.0);

    const double g_amp = p[GAMMA * stride];
    const double om = 2.0 * PI * p[FREQUENCY * stride];
    const double ph = p[PHASE * stride];
    const double e = exp(-g_amp * t);
    const double sn = sin(om * t + ph);
    const double cs = cos(om * t + ph);
    const double g = e * sn;
    const double dg = e * (-g_amp * sn + om * cs);
    const double ddg = e * ((pow(g_amp, 2.0) - pow(om, 2.0)) * sn - 2.0 * g_amp * om * cs);

    double b = A * s * g;
    double bt = A * (ds * g + s * dg);
    double btt = A * (dds * g + 2.0 * ds * dg + s * ddg);

    if (family == COMPACT_BURST) {
        /* C^2 cutoff descending on [t_off - ramp, t_off], identically zero after */
        const double t_off = p[T_OFF * stride];
        if (t >= t_off)
            return;
        const double r0 = t_off - ramp;
        if (t > r0) {
            double off[3];
            smoothstep((t - r0) / ramp, off);
            const double c = 1.0 - off[0], dc = -off[1] / ramp, ddc = -off[2] / pow(ramp, 2.0);
            const double b0 = b, bt0 = bt;
            b = b0 * c;
            bt = bt0 * c + b0 * dc;
            btt = btt * c + 2.0 * bt0 * dc + b0 * ddc;
        }
    }
    out[0] = b;
    out[1] = bt;
    out[2] = btt;
}

void lw_sample_b(const double *parameters, double t, double *out)
{
    disturbance(parameters, 1, t, out);
}

/* The v of one cell at the end of a half step, from the averages (um, vm,
 * wm) and the differences (dv, dw) of (u, v, w) over the cell:
 *
 *     base_v - c (2 m dv - d dw) + e F,
 *
 * with m = ubar + um, d = a^2 - m^2 and the lower-order term
 * F = F~(m, wm + ubar_x, vm) - (d / d_bar) f_bar.  __builtin_fabs clears
 * the sign bit, as fabs does, where -fno-builtin would make fabs a call.
 */
static inline double half_step_v(double base_v, double um, double vm, double wm,
                                 double dv, double dw, double ubar, double ubar_x,
                                 double d_bar, double f_bar, double a2, double theta,
                                 double theta_1_5, double c, double e)
{
    double m = ubar + um;
    double d = a2 - m * m;
    double x = wm + ubar_x;
    double abs_m = __builtin_fabs(m);
    double two_m = 2.0 * m;
    double f = -2.0 * vm * x;
    f = f - two_m * (x * x);
    f = f - theta_1_5 * m * abs_m * x;
    f = f - theta * abs_m * vm;
    f = f - d / d_bar * f_bar;
    return base_v - c * (two_m * dv - d * dw) + e * f;
}

/* The predictor over `cells` cells, from (u, v, w) at its cells + 1 nodes:
 * each cell's v from its own averages, w = wm + c dv and u = um + e v. */
static CLONES void predictor(long cells, const double *restrict u, const double *restrict v,
                             const double *restrict w, const double *restrict ubar,
                             const double *restrict ubar_x, const double *restrict d_bar,
                             const double *restrict f_bar, double a2, double theta,
                             double theta_1_5, double c, double e, double *restrict out_u,
                             double *restrict out_v, double *restrict out_w)
{
    for (long j = 0; j < cells; j++) {
        const double um = 0.5 * (u[j] + u[j + 1]);
        const double vm = 0.5 * (v[j] + v[j + 1]);
        const double wm = 0.5 * (w[j] + w[j + 1]);
        const double dv = v[j + 1] - v[j];
        const double out = half_step_v(vm, um, vm, wm, dv, w[j + 1] - w[j], ubar[j], ubar_x[j],
                                       d_bar[j], f_bar[j], a2, theta, theta_1_5, c, e);
        out_v[j] = out;
        out_w[j] = wm + c * dv;
        out_u[j] = um + e * out;
    }
}

/* The corrector over `cells` cells, from the half-step values at their
 * cells + 1 ends: v from base_v, w = base_w + c dv. */
static CLONES void corrector(long cells, const double *restrict u, const double *restrict v,
                             const double *restrict w, const double *restrict ubar,
                             const double *restrict ubar_x, const double *restrict d_bar,
                             const double *restrict f_bar, double a2, double theta,
                             double theta_1_5, double c, double e,
                             const double *restrict base_v, const double *restrict base_w,
                             double *restrict out_v, double *restrict out_w)
{
    for (long j = 0; j < cells; j++) {
        const double um = 0.5 * (u[j] + u[j + 1]);
        const double vm = 0.5 * (v[j] + v[j + 1]);
        const double wm = 0.5 * (w[j] + w[j + 1]);
        const double dv = v[j + 1] - v[j];
        out_v[j] = half_step_v(base_v[j], um, vm, wm, dv, w[j + 1] - w[j], ubar[j], ubar_x[j],
                               d_bar[j], f_bar[j], a2, theta, theta_1_5, c, e);
        out_w[j] = base_w[j] + c * dv;
    }
}

/* u at t + dt over n nodes, u + half_dt (v + vn), and each node's terms of
 * the new state's integrals: of k [(a^2 - m^2) u_x^2 + u_t^2] - 2 exp(-x/L)
 * [m u_x^2 + u_t u_x], m = ubar + u, with a squared as a * a (E1), and of
 * u^2 + u_t^2 + u_x^2 (H1), each times its trapezoid weight. */
static CLONES void finish(long n, const double *restrict u, const double *restrict v,
                          const double *restrict vn, const double *restrict wn,
                          const double *restrict ubar, const double *restrict two_decay,
                          const double *restrict weights, double k, double a_a, double half_dt,
                          double *restrict un, double *restrict e1_terms,
                          double *restrict h1_terms)
{
    for (long j = 0; j < n; j++) {
        const double uj = u[j] + half_dt * (v[j] + vn[j]), vj = vn[j], wj = wn[j];
        const double m = ubar[j] + uj, w2 = wj * wj;
        un[j] = uj;
        e1_terms[j] = (k * ((a_a - m * m) * w2 + vj * vj) - two_decay[j] * (m * w2 + vj * wj))
                      * weights[j];
        h1_terms[j] = ((uj * uj + vj * vj) + w2) * weights[j];
    }
}

/* max|u|, max|u_x|, max|u_t| and max|ubar + u| over n >= 1 nodes, into
 * top[0..3], where no value is NaN.  A maximum of magnitudes that are not
 * NaN is the same in any order, and no smaller than +0.0, so each is taken
 * in LANES independent lanes that start at +0.0, and the lanes are folded
 * at the end; the tail of n % LANES nodes goes to lane 0.  The lane loop
 * is the one the compiler vectorises; unrolled first, it would only be
 * vectorised in part. */
enum { LANES = 8 };
static CLONES void maxima(long n, const double *restrict u, const double *restrict ux,
                          const double *restrict ut, const double *restrict ubar,
                          double *restrict top)
{
    double lane[4][LANES] = {{0.0}};
    const long body = n - n % LANES;
    for (long j = 0; j < body; j += LANES) {
#pragma GCC unroll 1
        for (long l = 0; l < LANES; l++) {
            const double x0 = __builtin_fabs(u[j + l]), x1 = __builtin_fabs(ux[j + l]);
            const double x2 = __builtin_fabs(ut[j + l]);
            const double x3 = __builtin_fabs(ubar[j + l] + u[j + l]);
            lane[0][l] = x0 > lane[0][l] ? x0 : lane[0][l];
            lane[1][l] = x1 > lane[1][l] ? x1 : lane[1][l];
            lane[2][l] = x2 > lane[2][l] ? x2 : lane[2][l];
            lane[3][l] = x3 > lane[3][l] ? x3 : lane[3][l];
        }
    }
    for (long j = body; j < n; j++) {
        const double x0 = __builtin_fabs(u[j]), x1 = __builtin_fabs(ux[j]);
        const double x2 = __builtin_fabs(ut[j]), x3 = __builtin_fabs(ubar[j] + u[j]);
        lane[0][0] = x0 > lane[0][0] ? x0 : lane[0][0];
        lane[1][0] = x1 > lane[1][0] ? x1 : lane[1][0];
        lane[2][0] = x2 > lane[2][0] ? x2 : lane[2][0];
        lane[3][0] = x3 > lane[3][0] ? x3 : lane[3][0];
    }
    for (long r = 0; r < 4; r++) {
        top[r] = lane[r][0];
        for (long l = 1; l < LANES; l++)
            top[r] = lane[r][l] > top[r] ? lane[r][l] : top[r];
    }
}

/* The max of np.maximum.reduce: NaN as soon as one value is NaN. */
static double nan_max(double top, double x)
{
    return (x > top || x != x) ? x : top;
}

/* The maxima of `maxima` where a value may be NaN: taken in node order, so
 * that the NaN the serial reduction gives is the one that comes out. */
static void nan_maxima(long n, const double *u, const double *ux, const double *ut,
                       const double *ubar, double *top)
{
    top[0] = top[1] = top[2] = top[3] = -1.0;
    for (long j = 0; j < n; j++) {
        top[0] = nan_max(top[0], __builtin_fabs(u[j]));
        top[1] = nan_max(top[1], __builtin_fabs(ux[j]));
        top[2] = nan_max(top[2], __builtin_fabs(ut[j]));
        top[3] = nan_max(top[3], __builtin_fabs(ubar[j] + u[j]));
    }
}

/* Member i's step of size dt from state src into the other, with the
 * boundary value b_t; writes the new state's max|u|, max|u_x|, max|u_t|, E1
 * and H1 to its records at rec, `stride` apart, and its max|ubar + u| to *top_m. */
static void lw_step(const lw_batch *batch, long i, long src, double dt, double b_t,
                    double *rec, long stride, double *top_m)
{
    const long B = batch->members, n = batch->n;
    const long field = B * n, state = 3 * field;
    double *uh = batch->half, *vh = uh + (n - 1), *wh = vh + (n - 1);
    const double *coef = batch->coefficients + i;
    const double a = coef[0], a2 = coef[B], k = coef[2 * B];
    const double theta = coef[3 * B], theta_1_5 = coef[4 * B];
    const double half_dt = dt / 2.0;
    const double *ubar = batch->ubar + i * n, *ubar_x = batch->ubar_x + i * n;
    const double *u = batch->states + src * state + i * n, *v = u + field, *w = v + field;
    double *un = batch->states + (1 - src) * state + i * n, *vn = un + field, *wn = vn + field;

    /* predictor: provisional values at (x_{j+1/2}, t + dt/2) */
    predictor(n - 1, u, v, w, batch->ubar_m + i * (n - 1), batch->ubarx_m + i * (n - 1),
              batch->d_bar_m + i * (n - 1), batch->f_bar_m + i * (n - 1),
              a2, theta, theta_1_5, dt / (2.0 * batch->dx), half_dt, uh, vh, wh);

    /* corrector at interior nodes, coefficients at the half-time level */
    corrector(n - 2, uh, vh, wh, ubar + 1, ubar_x + 1,
              batch->d_bar_i + i * (n - 2), batch->f_bar_i + i * (n - 2),
              a2, theta, theta_1_5, dt / batch->dx, dt, v + 1, w + 1, vn + 1, wn + 1);

    /* left boundary: feedback w = k v plus extrapolated outgoing characteristic */
    double c_out = a + (ubar[0] + u[0]);       /* - d / lambda_-, frozen at the boundary speed */
    double r = 2.0 * (vn[1] + c_out * wn[1]) - (vn[2] + c_out * wn[2]);
    vn[0] = r / (1.0 + k * c_out);
    wn[0] = k * vn[0];

    /* right boundary: Dirichlet trace drives v = b_t plus outgoing characteristic */
    c_out = a - (ubar[n - 1] + u[n - 1]);      /* d / lambda_+, frozen at the boundary speed */
    r = 2.0 * (vn[n - 2] - c_out * wn[n - 2]) - (vn[n - 3] - c_out * wn[n - 3]);
    vn[n - 1] = b_t;
    wn[n - 1] = (b_t - r) / c_out;

    /* u at t + dt and the integrals' terms, into the spent half step (3 (n - 1)
     * >= 2 n values); then the new state's records: the integrals, summed
     * in node order from -0.0 so that an all -0.0 sum is np.cumsum's too;
     * max|u| for the guard, max|u_x|, max|u_t|, and max|m| for the next
     * wave speed */
    double *e1_terms = batch->half, *h1_terms = e1_terms + n;
    finish(n, u, v, vn, wn, ubar, batch->two_decay, batch->weights, k, a * a, half_dt,
           un, e1_terms, h1_terms);
    double e1 = -0.0, h1 = -0.0, top[4];
    for (long j = 0; j < n; j++) {
        e1 += e1_terms[j];
        h1 += h1_terms[j];
    }
    /* Each term of h1 is a sum of squares times a positive weight: never
     * NaN, and never inf - inf in the sum, unless some u, v or w is NaN.  So
     * h1 is NaN exactly when the new state holds a NaN (ubar is finite),
     * and only then do the maxima depend on the nodes' order. */
    if (h1 == h1)
        maxima(n, un, wn, vn, ubar, top);
    else
        nan_maxima(n, un, wn, vn, ubar, top);
    rec[R_MAX_U * stride] = top[0];
    rec[R_MAX_UX * stride] = top[1];
    rec[R_MAX_UT * stride] = top[2];
    rec[R_E1 * stride] = e1;
    rec[R_H1 * stride] = h1;
    *top_m = top[3];
}

/* Steps the batch from state src, recording the first step at `index`;
 * returns the steps it took, 0 when the first fails. */
long lw_advance(const lw_batch *batch, long src, long index)
{
    const long B = batch->members, capacity = batch->capacity, stride = batch->runs * capacity;
    double *io = batch->io;
    double *t = io + T * B, *dt = io + DT * B, *speed = io + SPEED * B, *top = io + TOP * B;
    double *status = io + STATUS * B, *value = io + VALUE * B, *at = io + AT * B;
    const double *t_snap = io + T_SNAP * B, *t_end = io + T_END * B;
    const double *cfl_dx = io + CFL_DX * B, *guard = io + GUARD * B, *slot = io + SLOT * B;
    const double *a = batch->coefficients;

    for (long i = 0; i < B; i++)
        status[i] = RUNNING;
    for (long step = index; step < capacity; step++, src = 1 - src) {
        int failed = 0, stop = 0;

        /* the time step, clipped to land on the next snapshot time; every
         * member passes the CFL test before any member steps */
        for (long i = 0; i < B; i++) {
            const double x = cfl_dx[i] / speed[i], y = t_snap[i] - t[i];
            dt[i] = y < x ? y : x;                  /* Python's min(x, y) */
            const double cfl = dt[i] * speed[i] / batch->dx;
            if (cfl > 1.0 + 1e-12) {
                status[i] = CFL_FAILED;
                value[i] = cfl;
                at[i] = t[i];
                failed = 1;
            }
        }
        if (failed)
            return step - index;

        for (long i = 0; i < B; i++) {
            double *rec = batch->records + (long)slot[i] * capacity + step, b[3];
            rec[R_T * stride] = t[i] + dt[i];
            disturbance(io + DISTURBANCE * B + i, B, rec[R_T * stride], b);
            rec[R_B * stride] = b[0];
            rec[R_B_T * stride] = b[1];
            lw_step(batch, i, src, dt[i], b[1], rec, stride, top + i);
            if (!(rec[R_MAX_U * stride] <= guard[i])) {     /* written so that NaN fails too */
                status[i] = GUARD_FAILED;
                value[i] = rec[R_MAX_U * stride];
                at[i] = rec[R_T * stride];
                failed = 1;
            }
        }
        if (failed)
            return step - index;

        for (long i = 0; i < B; i++) {
            t[i] += dt[i];
            speed[i] = top[i] + a[i];
            if (t[i] >= t_snap[i] - 1e-12 || !(t[i] < t_end[i] - 1e-12))
                stop = 1;
        }
        if (stop)
            return step + 1 - index;
    }
    return capacity - index;        /* the records are full */
}
