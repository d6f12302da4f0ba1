#include "image/registration.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/parallel.hh"
#include "common/simd.hh"
#include "common/telemetry.hh"

#if HIFI_SIMD_AVX2_COMPILED
#include <immintrin.h>
#endif

namespace hifi
{
namespace image
{

namespace
{

/// Candidate offsets per parallel chunk in the MI shift search.
constexpr size_t kCandidateGrain = 4;

/// pickBest's tie tolerance on exact MI scores.
constexpr double kTieTol = 1e-12;

/// Quantize an intensity into [0, bins).
inline size_t
quantize(float v, float lo, float inv_range, size_t bins)
{
    double t = (v - lo) * inv_range;
    t = std::clamp(t, 0.0, 1.0 - 1e-9);
    return static_cast<size_t>(t * static_cast<double>(bins));
}

/// Intensity ranges of both images, hoisted out of the shift search.
struct MiRanges
{
    float alo, ainv, blo, binv;
};

MiRanges
miRanges(const Image2D &a, const Image2D &b)
{
    MiRanges r;
    r.alo = a.minValue();
    const float ahi = a.maxValue();
    r.blo = b.minValue();
    const float bhi = b.maxValue();
    r.ainv = (ahi > r.alo) ? 1.0f / (ahi - r.alo) : 0.0f;
    r.binv = (bhi > r.blo) ? 1.0f / (bhi - r.blo) : 0.0f;
    return r;
}

/// Interleaved counters per joint cell: pixel x bumps word x % 4 of
/// its cell (the scatter unrolls by four), so a run of equal bins
/// (common on denoised frames) no longer serializes on one counter's
/// store-to-load dependency.
constexpr size_t kSubHists = 4;

/// Reusable per-worker buffers for the quantized MI accumulation.
struct MiWorkspace
{
    std::vector<uint32_t> sub;   ///< kSubHists counters per joint cell
    std::vector<uint32_t> joint; ///< summed joint counts
    std::vector<uint32_t> idx;   ///< per-row joint indices (AVX2)
    std::vector<double> pa, pb;
};

#if HIFI_SIMD_AVX2_COMPILED

/**
 * Vector form of quantize() for four floats: the float subtract /
 * multiply, the widening to double, the std::clamp comparison order,
 * and the truncating cast are each reproduced exactly, so every lane
 * lands in the same bin the scalar call would pick.
 */
HIFI_AVX2_TARGET inline __m128i
quantize4Avx2(__m128 v, __m128 vlo, __m128 vinv, __m256d vbins,
              __m256d zero, __m256d top)
{
    const __m128 tf = _mm_mul_ps(_mm_sub_ps(v, vlo), vinv);
    __m256d t = _mm256_cvtps_pd(tf);
    t = _mm256_blendv_pd(t, zero, _mm256_cmp_pd(t, zero, _CMP_LT_OQ));
    t = _mm256_blendv_pd(t, top, _mm256_cmp_pd(top, t, _CMP_LT_OQ));
    return _mm256_cvttpd_epi32(_mm256_mul_pd(t, vbins));
}

/// Fused one-shot row kernel: quantize both images on the fly and emit
/// joint indices, no intermediate QuantizedPlane.
HIFI_AVX2_TARGET inline void
quantIndicesAvx2(const float *pa, const float *pb, size_t count,
                 const MiRanges &r, uint32_t bins, uint32_t *out)
{
    const __m128 alo = _mm_set1_ps(r.alo), ainv = _mm_set1_ps(r.ainv);
    const __m128 blo = _mm_set1_ps(r.blo), binv = _mm_set1_ps(r.binv);
    const __m256d vbins = _mm256_set1_pd(static_cast<double>(bins));
    const __m256d zero = _mm256_setzero_pd();
    const __m256d top = _mm256_set1_pd(1.0 - 1e-9);
    const __m256i ibins = _mm256_set1_epi32(static_cast<int>(bins));
    size_t k = 0;
    for (; k + 8 <= count; k += 8) {
        const __m256i ia = _mm256_set_m128i(
            quantize4Avx2(_mm_loadu_ps(pa + k + 4), alo, ainv, vbins,
                          zero, top),
            quantize4Avx2(_mm_loadu_ps(pa + k), alo, ainv, vbins, zero,
                          top));
        const __m256i ib = _mm256_set_m128i(
            quantize4Avx2(_mm_loadu_ps(pb + k + 4), blo, binv, vbins,
                          zero, top),
            quantize4Avx2(_mm_loadu_ps(pb + k), blo, binv, vbins, zero,
                          top));
        const __m256i idx =
            _mm256_add_epi32(_mm256_mullo_epi32(ia, ibins), ib);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + k), idx);
    }
    for (; k < count; ++k)
        out[k] = static_cast<uint32_t>(
            quantize(pa[k], r.alo, r.ainv, bins) * bins +
            quantize(pb[k], r.blo, r.binv, bins));
}

#endif // HIFI_SIMD_AVX2_COMPILED

/**
 * Marginals + entropy sum over an integer joint histogram.  The loop
 * structure mirrors the re-quantizing reference (tests/oracles.hh)
 * term for term, and each uint32 count converts to the same double
 * the reference accumulates by repeated `+= 1.0`.
 */
double
miFromJointCounts(MiWorkspace &ws, size_t bins, size_t n)
{
    const double inv_n = 1.0 / static_cast<double>(n);
    ws.pa.assign(bins, 0.0);
    ws.pb.assign(bins, 0.0);
    for (size_t i = 0; i < bins; ++i) {
        for (size_t j = 0; j < bins; ++j) {
            const double p =
                static_cast<double>(ws.joint[i * bins + j]) * inv_n;
            ws.pa[i] += p;
            ws.pb[j] += p;
        }
    }
    double mi = 0.0;
    for (size_t i = 0; i < bins; ++i) {
        if (ws.pa[i] <= 0.0)
            continue;
        for (size_t j = 0; j < bins; ++j) {
            const double p =
                static_cast<double>(ws.joint[i * bins + j]) * inv_n;
            if (p > 0.0 && ws.pb[j] > 0.0)
                mi += p * std::log(p / (ws.pa[i] * ws.pb[j]));
        }
    }
    return mi;
}

/// k log k, with 0 log 0 = 0.
double
xlogx(size_t k)
{
    return k < 2 ? 0.0
                 : static_cast<double>(k) *
                       std::log(static_cast<double>(k));
}

/// Counts below this read k log k from the screen's table; larger
/// ones (overlaps above 64 Ki pixels) compute it.
constexpr size_t kXlogxTableSize = size_t{1} << 16;

/**
 * The screen's table xlogx(k) for k < kXlogxTableSize: static storage
 * (512 KiB, off the heap), filled once per process on first use, so
 * no search or candidate pays for its logs.  It is not a heap block:
 * a long-lived heap block allocated mid-run pinned the heap top and
 * kept the allocator from trimming it (DESIGN.md).
 */
const double *
xlogxTable()
{
    static const struct Table
    {
        double v[kXlogxTableSize];
        Table()
        {
            for (size_t k = 0; k < kXlogxTableSize; ++k)
                v[k] = xlogx(k);
        }
    } table;
    return table.v;
}

/// xlogx(k) through the table when it covers k; the same double.
inline double
xlogxAt(const double *table, size_t k)
{
    return k < kXlogxTableSize ? table[k] : xlogx(k);
}

/**
 * Screening score of an integer joint histogram, the exact MI in
 * count form: (sum_c xlogx[c] + xlogx[n] - sum_i xlogx[row_i] -
 * sum_j xlogx[col_j]) / n.  `count(c)` yields cell c's count (row-major,
 * fixed bin major); the marginals are exact integers.  Within
 * miScreenErrorBound of miFromJointCounts, not bitwise equal to it.
 * The column sums live in a local array (no aliasing with the
 * counters `count` clears) and each row keeps its own partial sum, so
 * the cells do not form one serial chain of additions.
 */
template <typename Count>
double
screenFromCounts(size_t bins, size_t n, Count &&count)
{
    const double *xlogx = xlogxTable();
    uint32_t cols[kMaxMiBins] = {};
    double cells = 0.0, rows = 0.0;
    for (size_t i = 0; i < bins; ++i) {
        uint32_t row = 0;
        double cells_i = 0.0;
        for (size_t j = 0; j < bins; ++j) {
            const uint32_t c = count(i * bins + j);
            cells_i += xlogxAt(xlogx, c);
            row += c;
            cols[j] += c;
        }
        cells += cells_i;
        rows += xlogxAt(xlogx, row);
    }
    double colsum = 0.0;
    for (size_t j = 0; j < bins; ++j)
        colsum += xlogxAt(xlogx, cols[j]);
    return (cells + xlogxAt(xlogx, n) - rows - colsum) /
        static_cast<double>(n);
}

/**
 * The one joint-histogram scatter kernel, shared by the search and the
 * fused one-shot so they cannot drift.  `rowIndex(y, x0, x1)` returns
 * row y's `at(x)`: the first counter of pixel x's joint cell,
 * `(ia * bins + ib) * kSubHists`, for x in [x0, x1).  Returns the
 * overlap's pixel count n (0, with nothing scattered, for an empty
 * overlap); takeCell then sums each cell's counters as exact integers
 * and clears them for the next call.
 */
template <typename RowIndex>
size_t
scatterPairs(MiWorkspace &ws, size_t bins, long w, long h, long dx,
             long dy, RowIndex &&rowIndex)
{
    const long x0 = std::max(0l, dx), x1 = std::min(w, w + dx);
    const long y0 = std::max(0l, dy), y1 = std::min(h, h + dy);
    if (x0 >= x1 || y0 >= y1)
        return 0;

    // Zero between calls: takeCell clears what the scatter wrote.
    const size_t cells = bins * bins;
    if (ws.sub.size() != cells * kSubHists)
        ws.sub.assign(cells * kSubHists, 0);
    uint32_t *sub = ws.sub.data();
    for (long y = y0; y < y1; ++y) {
        const auto at = rowIndex(y, x0, x1);
        long x = x0;
        for (; x + 4 <= x1; x += 4) {
            ++sub[at(x)];
            ++sub[at(x + 1) + 1];
            ++sub[at(x + 2) + 2];
            ++sub[at(x + 3) + 3];
        }
        for (size_t lane = 0; x < x1; ++x, ++lane)
            ++sub[at(x) + lane];
    }
    return static_cast<size_t>(x1 - x0) * static_cast<size_t>(y1 - y0);
}

/// Cell c's count from its interleaved counters, which it clears.
inline uint32_t
takeCell(MiWorkspace &ws, size_t c)
{
    uint32_t *s = ws.sub.data() + c * kSubHists;
    const uint32_t count = s[0] + s[1] + s[2] + s[3];
    s[0] = s[1] = s[2] = s[3] = 0;
    return count;
}

/// Exact MI of the n scattered pairs, bitwise that of the reference.
double
exactFromScatter(MiWorkspace &ws, size_t bins, size_t n)
{
    if (n == 0)
        return 0.0;
    ws.joint.resize(bins * bins);
    for (size_t c = 0; c < ws.joint.size(); ++c)
        ws.joint[c] = takeCell(ws, c);
    return miFromJointCounts(ws, bins, n);
}

/**
 * Both planes of a search as scatter offsets, built once and shared
 * read-only by every candidate: a fixed pixel's bin times the joint
 * row stride (bins * kSubHists) and a moving pixel's bin times
 * kSubHists, so a pixel pair's first counter is one add away.
 */
struct MiPlanes
{
    MiPlanes(const QuantizedPlane &a, const QuantizedPlane &b)
        : bins(a.bins), width(static_cast<long>(a.width)),
          height(static_cast<long>(a.height)),
          fixed(a.idx.begin(), a.idx.end()),
          moving(b.idx.begin(), b.idx.end())
    {
        for (uint32_t &v : fixed)
            v *= static_cast<uint32_t>(bins * kSubHists);
        for (uint32_t &v : moving)
            v *= static_cast<uint32_t>(kSubHists);
    }
    MiPlanes(const Image2D &a, const Image2D &b, size_t bins)
        : MiPlanes(quantizePlane(a, bins), quantizePlane(b, bins)) {}

    size_t bins;
    long width, height;
    std::vector<uint32_t> fixed, moving;
};

/// Scatter the overlap at shift (dx, dy) of pre-quantized planes.
size_t
scatterPlanes(const MiPlanes &p, long dx, long dy, MiWorkspace &ws)
{
    return scatterPairs(ws, p.bins, p.width, p.height, dx, dy,
                        [&](long y, long, long) {
        const uint32_t *ra =
            p.fixed.data() + static_cast<size_t>(y * p.width);
        const uint32_t *rb =
            p.moving.data() + static_cast<size_t>((y - dy) * p.width);
        return [=](long x) { return size_t{ra[x]} + rb[x - dx]; };
    });
}

/// Exact MI at a shift over pre-quantized planes.
double
miAtShiftQ(const MiPlanes &p, long dx, long dy, MiWorkspace &ws)
{
    return exactFromScatter(ws, p.bins, scatterPlanes(p, dx, dy, ws));
}

/// Screening score at a shift over pre-quantized planes.
double
screenAtShiftQ(const MiPlanes &p, long dx, long dy, MiWorkspace &ws)
{
    const size_t n = scatterPlanes(p, dx, dy, ws);
    if (n == 0)
        return 0.0;
    return screenFromCounts(p.bins, n,
                            [&](size_t c) { return takeCell(ws, c); });
}

/**
 * Fused one-shot MI: quantizes both images on the fly straight into
 * the scatter, skipping the QuantizedPlane allocations — for a single
 * evaluation (mutualInformation / mutualInformationAtShift) the plane
 * build costs more than it saves.  quantize() arithmetic is shared, so
 * the score is bitwise that of the pre-quantized path.
 */
double
miOneShotQ(const Image2D &a, const Image2D &b, long dx, long dy,
           size_t bins, MiWorkspace &ws)
{
    const MiRanges r = miRanges(a, b);
    const long w = static_cast<long>(a.width());
    const long h = static_cast<long>(a.height());
#if HIFI_SIMD_AVX2_COMPILED
    if (common::simd::avx2()) {
        ws.idx.resize(a.width());
        return exactFromScatter(ws, bins,
                                scatterPairs(ws, bins, w, h, dx, dy,
                                             [&](long y, long x0, long x1) {
            quantIndicesAvx2(a.row(static_cast<size_t>(y)) + x0,
                             b.row(static_cast<size_t>(y - dy)) +
                                 (x0 - dx),
                             static_cast<size_t>(x1 - x0), r,
                             static_cast<uint32_t>(bins), ws.idx.data());
            const uint32_t *idx = ws.idx.data();
            return [=](long x) {
                return size_t{idx[x - x0]} * kSubHists;
            };
        }));
    }
#endif
    return exactFromScatter(ws, bins,
                            scatterPairs(ws, bins, w, h, dx, dy,
                                         [&](long y, long, long) {
        const float *pa = a.row(static_cast<size_t>(y));
        const float *pb = b.row(static_cast<size_t>(y - dy));
        return [=, &r](long x) {
            return (quantize(pa[x], r.alo, r.ainv, bins) * bins +
                    quantize(pb[x - dx], r.blo, r.binv, bins)) *
                kSubHists;
        };
    }));
}

/**
 * score[i] = scoreAt(i, ws) for i in [0, n), in parallel over chunks of
 * kCandidateGrain candidates with one workspace per chunk.  A single
 * chunk (the usual one-candidate re-score) runs inline: posting it
 * would add a pool job per search for no parallelism.
 */
template <typename ScoreAt>
std::vector<double>
scoreEach(size_t n, ScoreAt &&scoreAt)
{
    std::vector<double> score(n);
    const auto chunk = [&](size_t i0, size_t i1) {
        MiWorkspace ws;
        for (size_t i = i0; i < i1; ++i)
            score[i] = scoreAt(i, ws);
    };
    if (n <= kCandidateGrain)
        chunk(0, n);
    else
        common::parallelFor(0, n, kCandidateGrain, chunk);
    return score;
}

/**
 * The near-max set of a screen: indices into `screen`, in ascending
 * (scan) order, of the scores down to the first gap larger than `gap`
 * in descending order; every index when no such gap exists.
 */
std::vector<size_t>
nearMaxSet(const std::vector<double> &screen, double gap)
{
    std::vector<size_t> order(screen.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return screen[a] > screen[b] || (screen[a] == screen[b] && a < b);
    });
    size_t keep = order.size();
    for (size_t k = 0; k + 1 < order.size(); ++k) {
        if (screen[order[k]] - screen[order[k + 1]] > gap) {
            keep = k + 1;
            break;
        }
    }
    order.resize(keep);
    std::sort(order.begin(), order.end());
    return order;
}

/**
 * Winner selection: the highest score, with ties (within kTieTol)
 * broken by the smallest |dx| + |dy| and then lexicographically by
 * (dy, dx).  A serial scan over precomputed
 * scores, so the result never depends on the thread count.
 */
std::pair<long, long>
pickBest(const std::vector<std::pair<long, long>> &cands,
         const std::vector<double> &score)
{
    double best = 0.0;
    long best_dx = 0, best_dy = 0, best_l1 = 0;
    bool have = false;
    for (size_t i = 0; i < cands.size(); ++i) {
        const long dx = cands[i].first, dy = cands[i].second;
        const long l1 = std::labs(dx) + std::labs(dy);
        const bool wins = !have || score[i] > best + kTieTol;
        const bool tied = have && !wins && score[i] >= best - kTieTol;
        if (wins ||
            (tied && (l1 < best_l1 ||
                      (l1 == best_l1 &&
                       std::make_pair(dy, dx) <
                           std::make_pair(best_dy, best_dx))))) {
            best = std::max(have ? best : score[i], score[i]);
            best_dx = dx;
            best_dy = dy;
            best_l1 = l1;
            have = true;
        }
    }
    return {best_dx, best_dy};
}

/// Every (dx, dy) in [-bound, bound]^2, row-major by dy then dx (the
/// scan order the tie-break's serial pass walks).
std::vector<std::pair<long, long>>
windowCandidates(long bound)
{
    std::vector<std::pair<long, long>> cands;
    const auto side = static_cast<size_t>(2 * bound + 1);
    cands.reserve(side * side);
    for (long dy = -bound; dy <= bound; ++dy)
        for (long dx = -bound; dx <= bound; ++dx)
            cands.emplace_back(dx, dy);
    return cands;
}

void
checkShape(const Image2D &a, const Image2D &b, const char *who)
{
    if (a.width() != b.width() || a.height() != b.height())
        throw std::invalid_argument(std::string(who) +
                                    ": shape mismatch");
}

void
checkBins(size_t bins, const char *who)
{
    if (bins < 2)
        throw std::invalid_argument(std::string(who) + ": bins < 2");
    if (bins > kMaxMiBins)
        throw std::invalid_argument(std::string(who) +
                                    ": bins above kMaxMiBins");
}

/// Validate a bins x bins count histogram; returns its total n.
size_t
checkJoint(const std::vector<uint32_t> &joint, size_t bins,
           const char *who)
{
    checkBins(bins, who);
    if (joint.size() != bins * bins)
        throw std::invalid_argument(std::string(who) +
                                    ": joint size is not bins^2");
    const size_t n =
        std::accumulate(joint.begin(), joint.end(), size_t{0});
    if (n > std::numeric_limits<uint32_t>::max())
        throw std::invalid_argument(std::string(who) +
                                    ": total count above 2^32 - 1");
    return n;
}

} // namespace

QuantizedPlane
quantizePlane(const Image2D &img, size_t bins)
{
    checkBins(bins, "quantizePlane");
    QuantizedPlane q;
    q.width = img.width();
    q.height = img.height();
    q.bins = bins;
    q.idx.resize(img.size());
    const float lo = img.minValue();
    const float hi = img.maxValue();
    const float inv = (hi > lo) ? 1.0f / (hi - lo) : 0.0f;
    const std::vector<float> &d = img.data();
    for (size_t i = 0; i < d.size(); ++i)
        q.idx[i] = static_cast<uint16_t>(quantize(d[i], lo, inv, bins));
    return q;
}

double
mutualInformation(const Image2D &a, const Image2D &b, size_t bins)
{
    return mutualInformationAtShift(a, b, 0, 0, bins);
}

double
mutualInformationAtShift(const Image2D &a, const Image2D &b, long dx,
                         long dy, size_t bins)
{
    checkShape(a, b, "mutualInformationAtShift");
    checkBins(bins, "mutualInformationAtShift");
    // One evaluation: the fused path skips the quantized-plane build.
    MiWorkspace ws;
    return miOneShotQ(a, b, dx, dy, bins, ws);
}

double
mutualInformationAtShift(const QuantizedPlane &a, const QuantizedPlane &b,
                         long dx, long dy)
{
    if (a.width != b.width || a.height != b.height || a.bins != b.bins)
        throw std::invalid_argument(
            "mutualInformationAtShift: plane mismatch");
    checkBins(a.bins, "mutualInformationAtShift");
    MiWorkspace ws;
    return miAtShiftQ(MiPlanes(a, b), dx, dy, ws);
}

double
jointCountsMi(const std::vector<uint32_t> &joint, size_t bins)
{
    const size_t n = checkJoint(joint, bins, "jointCountsMi");
    MiWorkspace ws;
    ws.joint = joint;
    return n == 0 ? 0.0 : miFromJointCounts(ws, bins, n);
}

double
jointCountsMiScreen(const std::vector<uint32_t> &joint, size_t bins)
{
    const size_t n = checkJoint(joint, bins, "jointCountsMiScreen");
    if (n == 0)
        return 0.0;
    return screenFromCounts(bins, n, [&](size_t c) { return joint[c]; });
}

double
miScreenErrorBound(size_t n, size_t bins)
{
    const double u = std::numeric_limits<double>::epsilon() / 2.0;
    const double log_n = std::max(1.0, std::log(static_cast<double>(n)));
    const double cells = std::min(static_cast<double>(bins * bins),
                                  static_cast<double>(n));
    return 4.0 * u * log_n * (cells + 2.0 * static_cast<double>(bins) + 16.0);
}

std::pair<long, long>
registerShiftMi(const Image2D &fixed, const Image2D &moving,
                const MiParams &params)
{
    checkShape(fixed, moving, "registerShiftMi");

    // Quantize each image exactly once, then score in two steps (see
    // the header): screen every candidate from its integer counts, and
    // re-score exactly only the near-max set.  Every kept candidate's
    // exact score beats every dropped one's by more than
    // gap - 2 * eps >= 2 * kTieTol, so in pickBest's scan the first
    // kept candidate wins against any running best built from dropped
    // ones, and afterwards no dropped candidate can win or tie: the
    // scan over the kept set alone picks the full scan's shift.
    const auto cands = windowCandidates(params.maxShift);
    const MiPlanes planes(fixed, moving, params.bins);
    const std::vector<double> screen =
        scoreEach(cands.size(), [&](size_t i, MiWorkspace &ws) {
            return screenAtShiftQ(planes, cands[i].first,
                                  cands[i].second, ws);
        });
    const double eps = miScreenErrorBound(fixed.size(), params.bins);
    const double gap = std::max(1e-9, 10.0 * (2.0 * eps + 2.0 * kTieTol));
    const std::vector<size_t> kept = nearMaxSet(screen, gap);

    std::vector<std::pair<long, long>> kept_cands;
    kept_cands.reserve(kept.size());
    for (const size_t i : kept)
        kept_cands.push_back(cands[i]);
    const std::vector<double> exact =
        scoreEach(kept.size(), [&](size_t k, MiWorkspace &ws) {
            return miAtShiftQ(planes, kept_cands[k].first,
                              kept_cands[k].second, ws);
        });
    if (telemetry::enabled()) {
        telemetry::registry().counter("mi.searches").add(1);
        telemetry::registry().counter("mi.exhaustive.evals")
            .add(cands.size());
        telemetry::registry().counter("mi.exact_rescored")
            .add(kept.size());
    }
    return pickBest(kept_cands, exact);
}

double
alignmentResidual(const std::vector<std::pair<long, long>> &recovered,
                  const std::vector<std::pair<long, long>> &truth)
{
    if (recovered.size() != truth.size() || recovered.empty())
        throw std::invalid_argument("alignmentResidual: size mismatch");
    const long ox = truth[0].first - recovered[0].first;
    const long oy = truth[0].second - recovered[0].second;
    double sum = 0.0;
    for (size_t i = 0; i < recovered.size(); ++i) {
        const double ex = static_cast<double>(
            recovered[i].first + ox - truth[i].first);
        const double ey = static_cast<double>(
            recovered[i].second + oy - truth[i].second);
        sum += std::hypot(ex, ey);
    }
    return sum / static_cast<double>(recovered.size());
}

} // namespace image
} // namespace hifi
