#include "image/denoise.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/parallel.hh"
#include "common/simd.hh"

#if HIFI_SIMD_AVX2_COMPILED
#include <immintrin.h>
#endif

namespace hifi
{
namespace image
{

namespace
{

/// Rows per parallel chunk; fixed so partitioning (and therefore the
/// output bits) never depends on the thread count.
constexpr size_t kRowGrain = 16;

/*
 * The row helpers below are loop-split rewrites of the original
 * per-pixel boundary branches: the x == 0 / x == w-1 columns are
 * peeled and the y-boundary choice is resolved once per row (via a
 * shared zero row or a last-row flag), so the interior loop carries no
 * conditionals.  Operand order matches the branchy originals exactly —
 * including quirks like `sum = 0.0f; sum += v` (which is NOT the same
 * bits as `sum = v` when v is -0.0f) — so the outputs are bitwise
 * identical; tests/test_image.cc pins this down.
 */

/// One dual-field pixel update.
inline void
chambollePoint(float gx, float gy, float tau, float &px_v, float &py_v)
{
    const float mag = std::sqrt(gx * gx + gy * gy);
    const float denom = 1.0f + tau * mag;
    px_v = (px_v + tau * gx) / denom;
    py_v = (py_v + tau * gy) / denom;
}

/// Soft-threshold for the split-Bregman d-step.
inline float
shrink(float v, float t)
{
    if (v > t)
        return v - t;
    if (v < -t)
        return v + t;
    return 0.0f;
}

#if HIFI_SIMD_AVX2_COMPILED

/*
 * AVX2 row kernels.  Each reproduces the scalar loop's per-element
 * operation sequence exactly: float add/sub/mul/div/sqrt are IEEE
 * exactly-rounded element-wise, negation is a sign-bit xor, and every
 * branch becomes a quiet-ordered compare + blend pair, so the stored
 * bits match the scalar path bit for bit (no FMA contraction — these
 * are discrete intrinsics).
 */

/// Interior columns [1, w-1) of divergenceRow.
HIFI_AVX2_TARGET inline void
divergenceInteriorAvx2(const float *px_row, const float *py_row,
                       const float *py_prev, bool last_row, size_t w,
                       float *out)
{
    const __m256 signbit = _mm256_set1_ps(-0.0f);
    size_t x = 1;
    if (last_row) {
        for (; x + 8 <= w - 1; x += 8) {
            const __m256 ddx =
                _mm256_sub_ps(_mm256_loadu_ps(px_row + x),
                              _mm256_loadu_ps(px_row + x - 1));
            const __m256 ndy =
                _mm256_xor_ps(_mm256_loadu_ps(py_prev + x), signbit);
            _mm256_storeu_ps(out + x, _mm256_add_ps(ddx, ndy));
        }
        for (; x + 1 < w; ++x)
            out[x] = (px_row[x] - px_row[x - 1]) + -(py_prev[x]);
    } else {
        for (; x + 8 <= w - 1; x += 8) {
            const __m256 ddx =
                _mm256_sub_ps(_mm256_loadu_ps(px_row + x),
                              _mm256_loadu_ps(px_row + x - 1));
            const __m256 ddy =
                _mm256_sub_ps(_mm256_loadu_ps(py_row + x),
                              _mm256_loadu_ps(py_prev + x));
            _mm256_storeu_ps(out + x, _mm256_add_ps(ddx, ddy));
        }
        for (; x + 1 < w; ++x)
            out[x] = (px_row[x] - px_row[x - 1]) +
                (py_row[x] - py_prev[x]);
    }
}

/// Columns [0, n) of the Chambolle dual update (n = w - 1; the caller
/// peels the last column, whose gx is 0).
HIFI_AVX2_TARGET inline void
chambolleInteriorAvx2(const float *g_row, const float *g_next,
                      bool last_row, size_t n, float tau, float *px_row,
                      float *py_row)
{
    const __m256 vtau = _mm256_set1_ps(tau);
    const __m256 one = _mm256_set1_ps(1.0f);
    size_t x = 0;
    for (; x + 8 <= n; x += 8) {
        const __m256 g0 = _mm256_loadu_ps(g_row + x);
        const __m256 gx =
            _mm256_sub_ps(_mm256_loadu_ps(g_row + x + 1), g0);
        const __m256 gy = last_row
            ? _mm256_setzero_ps()
            : _mm256_sub_ps(_mm256_loadu_ps(g_next + x), g0);
        const __m256 mag = _mm256_sqrt_ps(_mm256_add_ps(
            _mm256_mul_ps(gx, gx), _mm256_mul_ps(gy, gy)));
        const __m256 denom =
            _mm256_add_ps(one, _mm256_mul_ps(vtau, mag));
        const __m256 opx = _mm256_loadu_ps(px_row + x);
        const __m256 opy = _mm256_loadu_ps(py_row + x);
        const __m256 npx = _mm256_div_ps(
            _mm256_add_ps(opx, _mm256_mul_ps(vtau, gx)), denom);
        const __m256 npy = _mm256_div_ps(
            _mm256_add_ps(opy, _mm256_mul_ps(vtau, gy)), denom);
        _mm256_storeu_ps(px_row + x, npx);
        _mm256_storeu_ps(py_row + x, npy);
    }
    for (; x < n; ++x)
        chambollePoint(g_row[x + 1] - g_row[x],
                       last_row ? 0.0f : g_next[x] - g_row[x], tau,
                       px_row[x], py_row[x]);
}

/// Vector shrink(): the two exclusive threshold branches as blends.
HIFI_AVX2_TARGET inline __m256
shrinkAvx2(__m256 v, __m256 t, __m256 nt, __m256 zero)
{
    const __m256 hi = _mm256_cmp_ps(v, t, _CMP_GT_OQ);
    const __m256 lo = _mm256_cmp_ps(v, nt, _CMP_LT_OQ);
    const __m256 r = _mm256_blendv_ps(zero, _mm256_sub_ps(v, t), hi);
    return _mm256_blendv_ps(r, _mm256_add_ps(v, t), lo);
}

/// Split-Bregman shrinkage + Bregman update for one full row.
HIFI_AVX2_TARGET inline void
bregmanShrinkRowAvx2(const float *u_row, const float *u_down, size_t w,
                     float inv_lam, float *dx_row, float *bx_row,
                     float *dy_row, float *by_row)
{
    const __m256 t = _mm256_set1_ps(inv_lam);
    const __m256 nt = _mm256_xor_ps(t, _mm256_set1_ps(-0.0f));
    const __m256 zero = _mm256_setzero_ps();
    size_t x = 0;
    const size_t n = w - 1; // gx reads u_row[x + 1]
    for (; x + 8 <= n; x += 8) {
        const __m256 u0 = _mm256_loadu_ps(u_row + x);
        const __m256 gx =
            _mm256_sub_ps(_mm256_loadu_ps(u_row + x + 1), u0);
        const __m256 gy = u_down
            ? _mm256_sub_ps(_mm256_loadu_ps(u_down + x), u0)
            : zero;
        const __m256 vbx = _mm256_loadu_ps(bx_row + x);
        const __m256 vby = _mm256_loadu_ps(by_row + x);
        const __m256 ndx = shrinkAvx2(_mm256_add_ps(gx, vbx), t, nt,
                                      zero);
        const __m256 ndy = shrinkAvx2(_mm256_add_ps(gy, vby), t, nt,
                                      zero);
        _mm256_storeu_ps(dx_row + x, ndx);
        _mm256_storeu_ps(dy_row + x, ndy);
        _mm256_storeu_ps(
            bx_row + x, _mm256_add_ps(vbx, _mm256_sub_ps(gx, ndx)));
        _mm256_storeu_ps(
            by_row + x, _mm256_add_ps(vby, _mm256_sub_ps(gy, ndy)));
    }
    for (; x < w; ++x) {
        const float gx = x + 1 < w ? u_row[x + 1] - u_row[x] : 0.0f;
        const float gy = u_down ? u_down[x] - u_row[x] : 0.0f;
        dx_row[x] = shrink(gx + bx_row[x], inv_lam);
        dy_row[x] = shrink(gy + by_row[x], inv_lam);
        bx_row[x] += gx - dx_row[x];
        by_row[x] += gy - dy_row[x];
    }
}

#endif // HIFI_SIMD_AVX2_COMPILED

/// Interior columns of divergenceRow, dispatched on the active ISA.
inline void
divergenceInterior(const float *px_row, const float *py_row,
                   const float *py_prev, bool last_row, size_t w,
                   float *out)
{
#if HIFI_SIMD_AVX2_COMPILED
    if (common::simd::avx2()) {
        divergenceInteriorAvx2(px_row, py_row, py_prev, last_row, w,
                               out);
        return;
    }
#endif
    if (last_row) {
        for (size_t x = 1; x + 1 < w; ++x)
            out[x] = (px_row[x] - px_row[x - 1]) + -(py_prev[x]);
    } else {
        for (size_t x = 1; x + 1 < w; ++x)
            out[x] = (px_row[x] - px_row[x - 1]) +
                (py_row[x] - py_prev[x]);
    }
}

/**
 * Backward-difference divergence of the dual field (px, py) for one
 * row: out[x] = dx-part + dy-part.  `py_prev` is the previous row of
 * py, or an all-zero row when y == 0; `last_row` selects the y == h-1
 * boundary form.
 */
inline void
divergenceRow(const float *px_row, const float *py_row,
              const float *py_prev, bool last_row, size_t w, float *out)
{
    if (last_row) {
        if (w == 1) {
            out[0] = -0.0f + -(py_prev[0]);
            return;
        }
        out[0] = (px_row[0] - 0.0f) + -(py_prev[0]);
        divergenceInterior(px_row, py_row, py_prev, true, w, out);
        out[w - 1] = -(px_row[w - 2]) + -(py_prev[w - 1]);
    } else {
        if (w == 1) {
            out[0] = -0.0f + (py_row[0] - py_prev[0]);
            return;
        }
        out[0] = (px_row[0] - 0.0f) + (py_row[0] - py_prev[0]);
        divergenceInterior(px_row, py_row, py_prev, false, w, out);
        out[w - 1] = -(px_row[w - 2]) +
            (py_row[w - 1] - py_prev[w - 1]);
    }
}

/**
 * Dual update p = (p + tau grad g) / (1 + tau |grad g|) for one row.
 * `g_next` is the next row of g (unused when last_row: the forward
 * y-difference is 0 there).
 */
inline void
chambolleRow(const float *g_row, const float *g_next, bool last_row,
             size_t w, float tau, float *px_row, float *py_row)
{
#if HIFI_SIMD_AVX2_COMPILED
    if (common::simd::avx2()) {
        chambolleInteriorAvx2(g_row, g_next, last_row, w - 1, tau,
                              px_row, py_row);
        chambollePoint(0.0f,
                       last_row ? 0.0f : g_next[w - 1] - g_row[w - 1],
                       tau, px_row[w - 1], py_row[w - 1]);
        return;
    }
#endif
    if (last_row) {
        for (size_t x = 0; x + 1 < w; ++x)
            chambollePoint(g_row[x + 1] - g_row[x], 0.0f, tau,
                           px_row[x], py_row[x]);
        chambollePoint(0.0f, 0.0f, tau, px_row[w - 1], py_row[w - 1]);
    } else {
        for (size_t x = 0; x + 1 < w; ++x)
            chambollePoint(g_row[x + 1] - g_row[x],
                           g_next[x] - g_row[x], tau, px_row[x],
                           py_row[x]);
        chambollePoint(0.0f, g_next[w - 1] - g_row[w - 1], tau,
                       px_row[w - 1], py_row[w - 1]);
    }
}

/// Per-row state handed to the split-Bregman relaxation helpers.
struct BregmanRows
{
    float *u_row;
    const float *u_up;   ///< row y-1 of u, or nullptr at y == 0
    const float *u_down; ///< row y+1 of u, or nullptr at y == h-1
    const float *f_row;
    const float *dx_row, *bx_row;
    const float *dy_row, *by_row;
    const float *dy_up, *by_up; ///< row y-1 of dy/by, or zero rows
};

/// One red-black Gauss-Seidel pixel with all four neighbours present.
inline void
bregmanInteriorPixel(const BregmanRows &r, size_t x, float mu,
                     float lam, float denom4)
{
    float sum = 0.0f;
    sum += r.u_row[x - 1];
    sum += r.u_row[x + 1];
    sum += r.u_up[x];
    sum += r.u_down[x];

    float div = 0.0f;
    div += (r.dx_row[x] - r.bx_row[x]) -
        (r.dx_row[x - 1] - r.bx_row[x - 1]);
    div += (r.dy_row[x] - r.by_row[x]) - (r.dy_up[x] - r.by_up[x]);

    const float rhs = mu * r.f_row[x] - lam * div;
    r.u_row[x] = (rhs + lam * sum) / denom4;
}

/// Generic (boundary-capable) pixel: branches on which neighbours
/// exist, exactly like the original per-pixel code.
inline void
bregmanBorderPixel(const BregmanRows &r, size_t x, size_t w, float mu,
                   float lam)
{
    float sum = 0.0f;
    int nbrs = 0;
    if (x > 0) { sum += r.u_row[x - 1]; ++nbrs; }
    if (x + 1 < w) { sum += r.u_row[x + 1]; ++nbrs; }
    if (r.u_up) { sum += r.u_up[x]; ++nbrs; }
    if (r.u_down) { sum += r.u_down[x]; ++nbrs; }

    // div(d - b) with backward differences.
    float div = 0.0f;
    div += (r.dx_row[x] - r.bx_row[x]) -
        (x > 0 ? (r.dx_row[x - 1] - r.bx_row[x - 1]) : 0.0f);
    div += (r.dy_row[x] - r.by_row[x]) - (r.dy_up[x] - r.by_up[x]);

    // Normal equation: (mu - lam Laplacian) u = mu f - lam div(d - b).
    const float rhs = mu * r.f_row[x] - lam * div;
    r.u_row[x] = (rhs + lam * sum) /
        (mu + lam * static_cast<float>(nbrs));
}

} // namespace

Image2D
denoiseChambolle(const Image2D &input, const TvParams &params)
{
    if (input.empty())
        throw std::invalid_argument("denoiseChambolle: empty image");
    const size_t w = input.width();
    const size_t h = input.height();
    const float lambda = static_cast<float>(params.lambda);
    const float tau = 0.125f; // <= 1/8 guarantees convergence

    // Dual field p = (px, py).
    Image2D px(w, h, 0.0f), py(w, h, 0.0f);
    Image2D g(w, h, 0.0f);
    const std::vector<float> zero(w, 0.0f);

    // Each pass writes only its own rows and reads fields that are
    // constant for the duration of the pass, so row-band parallelism
    // is bitwise equal to the serial sweep.
    for (size_t it = 0; it < params.iterations; ++it) {
        // g = div p - f / lambda
        common::parallelFor(0, h, kRowGrain, [&](size_t y0, size_t y1) {
            std::vector<float> div(w);
            for (size_t y = y0; y < y1; ++y) {
                divergenceRow(px.row(y), py.row(y),
                              y > 0 ? py.row(y - 1) : zero.data(),
                              y + 1 == h, w, div.data());
                const float *f_row = input.row(y);
                float *g_row = g.row(y);
                for (size_t x = 0; x < w; ++x)
                    g_row[x] = div[x] - f_row[x] / lambda;
            }
        });
        // p = (p + tau grad g) / (1 + tau |grad g|)
        common::parallelFor(0, h, kRowGrain, [&](size_t y0, size_t y1) {
            for (size_t y = y0; y < y1; ++y) {
                const bool last = y + 1 == h;
                chambolleRow(g.row(y), last ? nullptr : g.row(y + 1),
                             last, w, tau, px.row(y), py.row(y));
            }
        });
    }

    // u = f - lambda div p (recompute div with the final p).
    Image2D out(w, h);
    common::parallelFor(0, h, kRowGrain, [&](size_t y0, size_t y1) {
        std::vector<float> div(w);
        for (size_t y = y0; y < y1; ++y) {
            divergenceRow(px.row(y), py.row(y),
                          y > 0 ? py.row(y - 1) : zero.data(),
                          y + 1 == h, w, div.data());
            const float *f_row = input.row(y);
            float *o_row = out.row(y);
            for (size_t x = 0; x < w; ++x)
                o_row[x] = f_row[x] - lambda * div[x];
        }
    });
    return out;
}

Image2D
denoiseSplitBregman(const Image2D &input, const TvParams &params)
{
    if (input.empty())
        throw std::invalid_argument("denoiseSplitBregman: empty image");
    const size_t w = input.width();
    const size_t h = input.height();

    // Goldstein-Osher weights: mu couples to data, lam to the splitting.
    const float mu = static_cast<float>(1.0 / std::max(1e-6,
                                                       params.lambda));
    const float lam = 2.0f * mu;
    const float denom4 = mu + lam * 4.0f;

    Image2D u = input;
    Image2D dx(w, h, 0.0f), dy(w, h, 0.0f);
    Image2D bx(w, h, 0.0f), by(w, h, 0.0f);
    const std::vector<float> zero(w, 0.0f);

    // Several Gauss-Seidel sweeps per outer iteration: the u-step must
    // approximately solve its linear system before the shrinkage step,
    // otherwise the lagged div(d - b) feedback oscillates.  The sweeps
    // use red-black ordering: within one half-sweep a pixel reads only
    // opposite-colour neighbours, which are frozen, so each colour
    // pass is row-parallel and scheduling-independent.
    constexpr int kInnerSweeps = 4;

    auto rowsAt = [&](size_t y) {
        BregmanRows r;
        r.u_row = u.row(y);
        r.u_up = y > 0 ? u.row(y - 1) : nullptr;
        r.u_down = y + 1 < h ? u.row(y + 1) : nullptr;
        r.f_row = input.row(y);
        r.dx_row = dx.row(y);
        r.bx_row = bx.row(y);
        r.dy_row = dy.row(y);
        r.by_row = by.row(y);
        r.dy_up = y > 0 ? dy.row(y - 1) : zero.data();
        r.by_up = y > 0 ? by.row(y - 1) : zero.data();
        return r;
    };

    auto relaxColor = [&](int color) {
        common::parallelFor(0, h, kRowGrain, [&](size_t y0, size_t y1) {
            for (size_t y = y0; y < y1; ++y) {
                const BregmanRows r = rowsAt(y);
                const size_t x_start =
                    (static_cast<size_t>(color) + y) % 2;
                if (y == 0 || y + 1 == h || w < 3) {
                    // Boundary row: every pixel may miss a neighbour.
                    for (size_t x = x_start; x < w; x += 2)
                        bregmanBorderPixel(r, x, w, mu, lam);
                    continue;
                }
                // Interior row: peel the x borders, no branches inside.
                size_t x = x_start;
                if (x == 0) {
                    bregmanBorderPixel(r, 0, w, mu, lam);
                    x = 2;
                }
                for (; x + 1 < w; x += 2)
                    bregmanInteriorPixel(r, x, mu, lam, denom4);
                if (x + 1 == w)
                    bregmanBorderPixel(r, x, w, mu, lam);
            }
        });
    };

    for (size_t it = 0; it < params.iterations; ++it) {
        for (int sweep = 0; sweep < kInnerSweeps; ++sweep) {
            relaxColor(0);
            relaxColor(1);
        }
        // Shrinkage step on d, then Bregman update on b.  u is frozen
        // here and every pixel writes only itself: row-parallel.
        common::parallelFor(0, h, kRowGrain, [&](size_t y0, size_t y1) {
            for (size_t y = y0; y < y1; ++y) {
                const float *u_row = u.row(y);
                const float *u_down = y + 1 < h ? u.row(y + 1) : nullptr;
                float *dx_row = dx.row(y), *bx_row = bx.row(y);
                float *dy_row = dy.row(y), *by_row = by.row(y);
#if HIFI_SIMD_AVX2_COMPILED
                if (common::simd::avx2()) {
                    bregmanShrinkRowAvx2(u_row, u_down, w, 1.0f / lam,
                                         dx_row, bx_row, dy_row,
                                         by_row);
                    continue;
                }
#endif
                for (size_t x = 0; x < w; ++x) {
                    const float gx =
                        x + 1 < w ? u_row[x + 1] - u_row[x] : 0.0f;
                    const float gy =
                        u_down ? u_down[x] - u_row[x] : 0.0f;
                    dx_row[x] = shrink(gx + bx_row[x], 1.0f / lam);
                    dy_row[x] = shrink(gy + by_row[x], 1.0f / lam);
                    bx_row[x] += gx - dx_row[x];
                    by_row[x] += gy - dy_row[x];
                }
            }
        });
    }
    return u;
}

} // namespace image
} // namespace hifi
