/* One two-step Lax-Wendroff (Richtmyer) step of a batch, as one loop.
 *
 * `lw_step` does the arithmetic of `pipestab.dynamics.step`: the time-step
 * coefficients, the predictor, the corrector, both boundary closures, the
 * u update, and each member's max|u| and max|ubar + u|.  Every value is
 * computed by the same IEEE operations, in the same order, as the NumPy
 * form of the step in tests/oracles.py, so the results are equal bit for
 * bit.  That holds only when the compiler neither contracts a * b + c into
 * a fused multiply-add nor reorders arithmetic: build with
 * -ffp-contract=off and without -ffast-math.  The callers check shapes,
 * dtypes and contiguity before they pass pointers.
 */
#include <math.h>
#include <stddef.h>

typedef struct {
    long members;               /* B */
    long n;                     /* grid nodes per member */
    long slots;                 /* states the block holds */
    double dx;
    double *block;              /* (3, slots, B, n): u, v, w of every slot */
    double *half;               /* (3, n - 1): u, v, w at t + dt/2 of one member */
    double *io;                 /* (4, B): dt, b_t in; max|u|, max|ubar + u| out */
    const double *coefficients; /* (5, B): a, a^2, k, theta, 1.5 theta */
    const double *ubar;         /* (B, n) at the nodes */
    const double *ubar_x;
    const double *ubar_m;       /* (B, n - 1) on the midpoints */
    const double *ubarx_m;
    const double *d_bar_m;      /* (B, n - 1): stationary forcing on the midpoints */
    const double *f_bar_m;
    const double *d_bar_i;      /* (B, n - 2): stationary forcing at the interior nodes */
    const double *f_bar_i;
} lw_batch;

/* The max of np.maximum.reduce: NaN as soon as one value is NaN. */
static double nan_max(double top, double x)
{
    return (x > top || x != x) ? x : top;
}

/* One half of a step over `cells` cells, from the cell averages of (u, v, w),
 * which hold cells + 1 values:
 *
 *     out_v = base_v - c (2 m dv - d dw) + e F,   out_w = base_w + c dv,
 *
 * with m = ubar + u, d = a^2 - m^2 and F the lower-order term; base_v and
 * base_w are the averages themselves when NULL.  When out_u is given it
 * receives um + e out_v.
 */
static void half_step(long cells, const double *u, const double *v, const double *w,
                      const double *ubar, const double *ubar_x,
                      const double *d_bar, const double *f_bar,
                      double a2, double theta, double theta_1_5, double c, double e,
                      const double *base_v, const double *base_w,
                      double *out_u, double *out_v, double *out_w)
{
    for (long j = 0; j < cells; j++) {
        double um = 0.5 * (u[j] + u[j + 1]);
        double vm = 0.5 * (v[j] + v[j + 1]);
        double wm = 0.5 * (w[j] + w[j + 1]);
        double m = ubar[j] + um;
        double d = a2 - m * m;

        /* F = F~(m, wm + ubar_x, vm) - (d / d_bar) f_bar */
        double x = wm + ubar_x[j];
        double abs_m = fabs(m);
        double two_m = 2.0 * m;
        double f = -2.0 * vm * x;
        f = f - two_m * (x * x);
        f = f - theta_1_5 * m * abs_m * x;
        f = f - theta * abs_m * vm;
        f = f - d / d_bar[j] * f_bar[j];

        double dv = v[j + 1] - v[j];
        double dw = w[j + 1] - w[j];
        double out = (base_v ? base_v[j] : vm) - c * (two_m * dv - d * dw) + e * f;
        out_v[j] = out;
        out_w[j] = (base_w ? base_w[j] : wm) + c * dv;
        if (out_u)
            out_u[j] = um + e * out;
    }
}

void lw_step(const lw_batch *batch, long src, long dst)
{
    const long B = batch->members, n = batch->n;
    const long state = B * n, field = batch->slots * state;
    double *uh = batch->half, *vh = uh + (n - 1), *wh = vh + (n - 1);

    for (long i = 0; i < B; i++) {
        const double *coef = batch->coefficients + i;
        const double a = coef[0], a2 = coef[B], k = coef[2 * B];
        const double theta = coef[3 * B], theta_1_5 = coef[4 * B];
        const double dt = batch->io[i], b_t = batch->io[B + i];
        const double half_dt = dt / 2.0;
        const double *ubar = batch->ubar + i * n, *ubar_x = batch->ubar_x + i * n;
        const double *u = batch->block + src * state + i * n, *v = u + field, *w = v + field;
        double *un = batch->block + dst * state + i * n, *vn = un + field, *wn = vn + field;

        /* predictor: provisional values at (x_{j+1/2}, t + dt/2) */
        half_step(n - 1, u, v, w, batch->ubar_m + i * (n - 1), batch->ubarx_m + i * (n - 1),
                  batch->d_bar_m + i * (n - 1), batch->f_bar_m + i * (n - 1),
                  a2, theta, theta_1_5, dt / (2.0 * batch->dx), half_dt,
                  NULL, NULL, uh, vh, wh);

        /* corrector at interior nodes, coefficients at the half-time level */
        half_step(n - 2, uh, vh, wh, ubar + 1, ubar_x + 1,
                  batch->d_bar_i + i * (n - 2), batch->f_bar_i + i * (n - 2),
                  a2, theta, theta_1_5, dt / batch->dx, dt,
                  v + 1, w + 1, NULL, vn + 1, wn + 1);

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

        /* u at t + dt, its max|u| for the guard and max|ubar + u| for the next wave speed */
        double top_u = -1.0, top_m = -1.0;
        for (long j = 0; j < n; j++) {
            un[j] = u[j] + half_dt * (v[j] + vn[j]);
            top_u = nan_max(top_u, fabs(un[j]));
            top_m = nan_max(top_m, fabs(ubar[j] + un[j]));
        }
        batch->io[2 * B + i] = top_u;
        batch->io[3 * B + i] = top_m;
    }
}
