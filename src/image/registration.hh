/**
 * @file
 * Mutual-information slice registration (Section IV-C).
 *
 * The paper aligns each FIB/SEM slice to its predecessor with Dragonfly's
 * mutual-information algorithm.  Planar-view fidelity requires residual
 * alignment error below 0.77% of the slice height, so we expose the
 * pairwise MI search (one exhaustive scan over the shift window) and
 * report the residual against ground truth in tests/benches.
 *
 * Fast path: both images are quantized into bin-index planes *once* per
 * registration, and every candidate offset scatters its pixel pairs
 * into an integer joint histogram over those planes.  The scatter
 * keeps four interleaved uint32 sub-histograms (pixel x bumps counter
 * x % 4 of its cell), so runs of equal bins on denoised frames do not
 * serialize on one counter; the four are summed once per candidate.
 * The search's scatter is scalar over planes pre-scaled to counter
 * offsets (an AVX2 joint-index kernel gave no consistent gain and was
 * removed); the same scatter kernel serves the one-shot entry points,
 * which quantize on the fly (with AVX2 where available).  Bin
 * assignment, counts, and the MI arithmetic are exactly those of the
 * straightforward per-candidate re-quantization, so the scores — and
 * therefore the recovered shifts — are bitwise identical to the
 * reference implementation in tests/oracles.hh, which shares no code
 * with these kernels.
 *
 * Every MI entry point rejects more than kMaxMiBins bins: the joint
 * histogram holds 4 * bins^2 counters per candidate.
 */

#ifndef HIFI_IMAGE_REGISTRATION_HH
#define HIFI_IMAGE_REGISTRATION_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "image/image2d.hh"

namespace hifi
{
namespace image
{

/// Largest histogram bin count any MI entry point accepts.
constexpr size_t kMaxMiBins = 256;

/** Parameters for the MI shift search. */
struct MiParams
{
    /// Histogram bins per axis for the joint intensity histogram.
    size_t bins = 32;

    /// Search window: shifts in [-maxShift, maxShift] on both axes.
    long maxShift = 8;
};

/**
 * One image pre-quantized into contiguous bin indices (row-major, same
 * layout as the source Image2D).  Building this once per image is what
 * lets the shift search drop the per-candidate re-quantization.
 */
struct QuantizedPlane
{
    size_t width = 0;
    size_t height = 0;
    size_t bins = 0;
    std::vector<uint16_t> idx; ///< bin index per pixel, < bins
};

/**
 * Quantize an image into its bin-index plane using the image's own
 * intensity range — the identical bin assignment the reference MI
 * uses.  Throws std::invalid_argument for bins outside
 * [2, kMaxMiBins].
 */
QuantizedPlane quantizePlane(const Image2D &img, size_t bins);

/**
 * Mutual information (nats) between two images of identical shape,
 * computed from a joint histogram over the overlapping region.
 * Throws std::invalid_argument for a shape mismatch or bins outside
 * [2, kMaxMiBins].
 */
double mutualInformation(const Image2D &a, const Image2D &b,
                         size_t bins = 32);

/**
 * MI over the overlap of `a` and `b` when b is conceptually translated
 * by (dx, dy) — the per-candidate score of the shift search, exposed
 * for the equivalence tests.  Fused one-shot path; same argument
 * checks as mutualInformation.
 */
double mutualInformationAtShift(const Image2D &a, const Image2D &b,
                                long dx, long dy, size_t bins = 32);

/**
 * The search's own per-candidate score over two pre-quantized planes
 * of identical shape and bin count (what registerShiftMi evaluates for
 * each offset), exposed for the equivalence tests.
 */
double mutualInformationAtShift(const QuantizedPlane &a,
                                const QuantizedPlane &b, long dx,
                                long dy);

/**
 * Find the integer (dx, dy) translation of `moving` that maximizes
 * mutual information with `fixed`.  Ties (within 1e-12) are broken by
 * the smallest |dx| + |dy|, then lexicographically by (dy, dx), so a
 * featureless frame registers at (0, 0) instead of the window corner.
 *
 * @return the shift to *apply to moving* so it best overlays fixed.
 */
std::pair<long, long> registerShiftMi(const Image2D &fixed,
                                      const Image2D &moving,
                                      const MiParams &params = {});

/**
 * Residual alignment error against ground truth drift, as the mean
 * Euclidean pixel distance between recovered and true per-slice shifts
 * (after removing the global offset of slice 0).
 */
double alignmentResidual(
    const std::vector<std::pair<long, long>> &recovered,
    const std::vector<std::pair<long, long>> &truth);

} // namespace image
} // namespace hifi

#endif // HIFI_IMAGE_REGISTRATION_HH
