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
 * serialize on one counter; the four are summed once per candidate
 * (into the search's screen, or into the exact score's histogram).
 * The search's scatter is scalar over planes pre-scaled to counter
 * offsets (an AVX2 joint-index kernel gave no consistent gain and was
 * removed); the same scatter kernel serves the one-shot entry points,
 * which quantize on the fly (with AVX2 where available).  Bin
 * assignment, counts, and the exact MI arithmetic are those of the
 * straightforward per-candidate re-quantization, so the exact scores —
 * and, through the screen's proof below, the recovered shifts — are
 * bitwise identical to the reference implementation in
 * tests/oracles.hh, which shares no code with these kernels.
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
 * mutual information with `fixed`.  Ties (within tau = 1e-12) are
 * broken by the smallest |dx| + |dy|, then lexicographically by
 * (dy, dx), so a featureless frame registers at (0, 0) instead of the
 * window corner.
 *
 * The search scores in two steps and returns bitwise the shift of an
 * exact score at every candidate:
 *
 *  1. Screen.  Every candidate's integer joint counts c (marginals
 *     row_i, col_j, total n) are scored in count form,
 *     (sum xlogx[c] + xlogx[n] - sum xlogx[row_i] - sum xlogx[col_j]) / n,
 *     with xlogx[k] = k log k read from a static table filled once
 *     per process (counts of 2^16 and above compute it), see
 *     jointCountsMiScreen.  This is the MI, but rounded differently
 *     from the exact score (jointCountsMi), which mirrors the
 *     reference term for term.
 *  2. Re-score the near-max set.  Sort the screened scores in
 *     descending order and keep them down to the first gap larger than
 *     G = max(1e-9, 10 (2 eps + 2 tau)), with eps = miScreenErrorBound
 *     of the largest overlap; with no such gap (constant frames,
 *     periodic ties) keep every candidate.  The kept candidates get
 *     the exact score, and the unchanged tie-break scan runs over them
 *     in scan order.
 *
 * Why the shift is unchanged: a kept screen exceeds a dropped one by
 * more than G, so the kept exact score exceeds the dropped exact score
 * by more than G - 2 eps >= 2 tau.  The tie-break scan's running best
 * is always one of the scores it has seen, so when the full scan meets
 * the first kept candidate (in scan order), that candidate beats any
 * running best drawn from dropped candidates by more than tau and wins
 * outright, leaving the same state as a scan over the kept set alone.
 * From then on the running best never falls below that kept score, so
 * no dropped candidate can win or tie.  Telemetry counts searches in
 * "mi.searches", screened candidates in "mi.exhaustive.evals" and
 * exact re-scores in "mi.exact_rescored".
 *
 * @return the shift to *apply to moving* so it best overlays fixed.
 */
std::pair<long, long> registerShiftMi(const Image2D &fixed,
                                      const Image2D &moving,
                                      const MiParams &params = {});

/**
 * Exact MI (nats) of a bins x bins joint count histogram (row-major,
 * fixed bin major): the arithmetic registerShiftMi re-scores with,
 * bitwise the reference's.  Exposed, with the two functions below, for
 * the screening-bound tests.  Throws std::invalid_argument for bins
 * outside [2, kMaxMiBins], a size other than bins^2, or a total count
 * above 2^32 - 1.
 */
double jointCountsMi(const std::vector<uint32_t> &joint, size_t bins);

/**
 * registerShiftMi's screening score of the same histogram (same
 * argument checks).
 */
double jointCountsMiScreen(const std::vector<uint32_t> &joint,
                           size_t bins);

/**
 * eps(n, bins): a bound on |jointCountsMiScreen - jointCountsMi| for
 * any histogram with total count at most n.  With u = 2^-53,
 * L = max(1, ln n), m = min(bins^2, n) and b = bins, to first order in
 * u (every count and marginal is an exact integer, std::log is within
 * one ulp, i.e. 2u relative):
 *
 *  - screen: each table entry is within 3u of k ln k; the cell, row
 *    and column sums have nonnegative terms totalling at most n L over
 *    at most m, b and b terms; three combining operations and the
 *    division follow, so |screen - MI| <= u L (m + 2b + 19);
 *  - exact: p = c (1/n) is within 2u, a marginal summed over b terms
 *    within (b + 1) u, so the log's argument is within (2b + 6) u;
 *    |ln(p / (pa pb))| <= L since the argument lies in [1/n, n], and
 *    the terms sum (at most m of them) to at most L in magnitude, so
 *    |exact - MI| <= u ((2b + 6) + L (m + 5)).
 *
 * Together |screen - exact| <= u L (2m + 4b + 30) for L >= 1; the
 * returned 4 u L (m + 2b + 16) doubles that for second-order terms.
 * It grows with n, so the bound at the largest overlap covers every
 * candidate of a search.
 */
double miScreenErrorBound(size_t n, size_t bins);

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
