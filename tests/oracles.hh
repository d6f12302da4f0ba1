/**
 * @file
 * Test oracles for the imaging chain, kept out of the library because
 * nothing but tests and the imaging bench calls them:
 *
 *  - mutualInformationAtShiftReference / registerShiftMiReference:
 *    the MI score and the exhaustive shift search, written the
 *    straightforward way (re-quantize both images per candidate, one
 *    serial scan).  They keep their own copy of the quantize/range
 *    arithmetic and of the tie-break rule, so they share no code with
 *    the quantized-plane kernels in src/image/registration.cc that
 *    must reproduce them bit for bit.
 *  - alignStack / assembleVolume: the dense post-processing chain
 *    (chained pairwise registration, in-core assembly) that the
 *    streamed, tiled chain in scope::postprocessStreamed must match.
 */

#ifndef HIFI_TESTS_ORACLES_HH
#define HIFI_TESTS_ORACLES_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/parallel.hh"
#include "image/image2d.hh"
#include "image/registration.hh"
#include "image/volume3d.hh"

namespace hifi
{
namespace oracle
{

/// Quantize an intensity into [0, bins).
inline size_t
quantize(float v, float lo, float inv_range, size_t bins)
{
    double t = (v - lo) * inv_range;
    t = std::clamp(t, 0.0, 1.0 - 1e-9);
    return static_cast<size_t>(t * static_cast<double>(bins));
}

/// Intensity range of both images, as (lo, 1 / (hi - lo)) pairs.
struct MiRanges
{
    float alo, ainv, blo, binv;
};

inline MiRanges
miRanges(const image::Image2D &a, const image::Image2D &b)
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

/// MI over the overlap of `a` and `b` translated by (dx, dy),
/// quantizing every pixel for this one candidate.
inline double
miAtShiftRef(const image::Image2D &a, const image::Image2D &b,
             const MiRanges &r, long dx, long dy, size_t bins)
{
    const long w = static_cast<long>(a.width());
    const long h = static_cast<long>(a.height());

    std::vector<double> joint(bins * bins, 0.0);
    std::vector<double> pa(bins, 0.0), pb(bins, 0.0);
    size_t n = 0;

    const long x0 = std::max(0l, dx), x1 = std::min(w, w + dx);
    const long y0 = std::max(0l, dy), y1 = std::min(h, h + dy);
    for (long y = y0; y < y1; ++y) {
        for (long x = x0; x < x1; ++x) {
            const size_t ia = quantize(
                a.at(static_cast<size_t>(x), static_cast<size_t>(y)),
                r.alo, r.ainv, bins);
            const size_t ib = quantize(
                b.at(static_cast<size_t>(x - dx),
                     static_cast<size_t>(y - dy)),
                r.blo, r.binv, bins);
            joint[ia * bins + ib] += 1.0;
            ++n;
        }
    }
    if (n == 0)
        return 0.0;

    const double inv_n = 1.0 / static_cast<double>(n);
    for (size_t i = 0; i < bins; ++i) {
        for (size_t j = 0; j < bins; ++j) {
            const double p = joint[i * bins + j] * inv_n;
            pa[i] += p;
            pb[j] += p;
        }
    }
    double mi = 0.0;
    for (size_t i = 0; i < bins; ++i) {
        if (pa[i] <= 0.0)
            continue;
        for (size_t j = 0; j < bins; ++j) {
            const double p = joint[i * bins + j] * inv_n;
            if (p > 0.0 && pb[j] > 0.0)
                mi += p * std::log(p / (pa[i] * pb[j]));
        }
    }
    return mi;
}

/// Reference of image::mutualInformationAtShift (images of one shape).
inline double
mutualInformationAtShiftReference(const image::Image2D &a,
                                  const image::Image2D &b, long dx,
                                  long dy, size_t bins = 32)
{
    if (a.width() != b.width() || a.height() != b.height())
        throw std::invalid_argument(
            "mutualInformationAtShiftReference: shape mismatch");
    return miAtShiftRef(a, b, miRanges(a, b), dx, dy, bins);
}

/**
 * Reference of image::registerShiftMi: score every shift of the
 * window in one serial scan and keep the best, with ties (within
 * 1e-12) broken by the smallest |dx| + |dy|, then by (dy, dx).
 */
inline std::pair<long, long>
registerShiftMiReference(const image::Image2D &fixed,
                         const image::Image2D &moving,
                         const image::MiParams &params = {})
{
    if (fixed.width() != moving.width() ||
        fixed.height() != moving.height())
        throw std::invalid_argument(
            "registerShiftMiReference: shape mismatch");
    const MiRanges ranges = miRanges(fixed, moving);
    double best = 0.0;
    long best_dx = 0, best_dy = 0;
    bool have = false;
    for (long dy = -params.maxShift; dy <= params.maxShift; ++dy) {
        for (long dx = -params.maxShift; dx <= params.maxShift; ++dx) {
            const double score =
                miAtShiftRef(fixed, moving, ranges, dx, dy, params.bins);
            const long l1 = std::labs(dx) + std::labs(dy);
            const long best_l1 = std::labs(best_dx) + std::labs(best_dy);
            const bool wins = !have || score > best + 1e-12;
            const bool tied = have && !wins && score >= best - 1e-12;
            if (wins ||
                (tied && (l1 < best_l1 ||
                          (l1 == best_l1 &&
                           std::make_pair(dy, dx) <
                               std::make_pair(best_dy, best_dx))))) {
                best = have ? std::max(best, score) : score;
                best_dx = dx;
                best_dy = dy;
                have = true;
            }
        }
    }
    return {best_dx, best_dy};
}

/**
 * Chained stack alignment: slice i is registered to slice i-1 with
 * image::registerShiftMi and the shifts are accumulated, exactly as
 * the paper's per-slice procedure.
 *
 * @return absolute shift of every slice relative to slice 0
 *         (element 0 is always {0, 0})
 */
inline std::vector<std::pair<long, long>>
alignStack(const std::vector<image::Image2D> &slices,
           const image::MiParams &params = {})
{
    if (slices.empty())
        throw std::invalid_argument("alignStack: no slices");

    // Each neighbouring pair registers independently; only the prefix
    // accumulation into slice-0 coordinates is sequential.
    std::vector<std::pair<long, long>> pairwise(slices.size(),
                                                {0, 0});
    common::parallelFor(1, slices.size(), 1, [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i)
            pairwise[i] =
                image::registerShiftMi(slices[i - 1], slices[i], params);
    });

    std::vector<std::pair<long, long>> shifts;
    shifts.reserve(slices.size());
    shifts.emplace_back(0, 0);
    long acc_x = 0, acc_y = 0;
    for (size_t i = 1; i < slices.size(); ++i) {
        // registerShiftMi returns the offset of slice i relative to
        // slice i-1; accumulate to express it relative to slice 0.
        acc_x += -pairwise[i].first;
        acc_y += -pairwise[i].second;
        shifts.emplace_back(acc_x, acc_y);
    }
    return shifts;
}

/**
 * Assemble an aligned slice stack into a dense volume: slice i,
 * translated by -shifts[i], becomes the cross-section at x = i.
 */
inline image::Volume3D
assembleVolume(const std::vector<image::Image2D> &slices,
               const std::vector<std::pair<long, long>> &shifts)
{
    if (slices.empty())
        throw std::invalid_argument("assembleVolume: no slices");
    if (shifts.size() != slices.size())
        throw std::invalid_argument("assembleVolume: shift count");
    const size_t ny = slices[0].width();
    const size_t nz = slices[0].height();
    image::Volume3D vol(slices.size(), ny, nz);
    for (size_t i = 0; i < slices.size(); ++i) {
        const image::Image2D corrected =
            slices[i].shifted(-shifts[i].first, -shifts[i].second);
        if (corrected.width() != ny || corrected.height() != nz)
            throw std::invalid_argument("assembleVolume: slice shape");
        for (size_t z = 0; z < nz; ++z)
            for (size_t y = 0; y < ny; ++y)
                vol.at(i, y, z) = corrected.at(y, z);
    }
    return vol;
}

} // namespace oracle
} // namespace hifi

#endif // HIFI_TESTS_ORACLES_HH
