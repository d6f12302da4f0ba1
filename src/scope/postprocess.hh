/**
 * @file
 * Image post-processing chain (Section IV-C): denoise each slice with
 * an edge-preserving TV filter, align the stack slice-to-slice with
 * mutual information, and assemble the planar-viewable volume.
 */

#ifndef HIFI_SCOPE_POSTPROCESS_HH
#define HIFI_SCOPE_POSTPROCESS_HH

#include <utility>
#include <vector>

#include "common/result.hh"
#include "image/denoise.hh"
#include "image/registration.hh"
#include "image/tiled_volume.hh"
#include "image/volume3d.hh"

namespace hifi
{
namespace scope
{

/// Default post-processing window width (postprocessStreamed),
/// matched to the transient solver's default lane batch
/// (circuit::TranParams::batchLanes = 8) so a window maps onto full
/// SIMD lane groups.
constexpr size_t kStreamWindowSlices = 8;

/// Which TV denoiser to run (both are supported, as in the paper).
enum class DenoiseAlgo { SplitBregman, Chambolle, None };

/** Post-processing parameters. */
struct PostprocessParams
{
    DenoiseAlgo algo = DenoiseAlgo::Chambolle;
    image::TvParams tv{0.05, 50};
    image::MiParams mi{32, 6};
};

/** Post-processing output: the assembled volume stays tiled. */
struct StreamedPostprocessResult
{
    /// Assembled volume, sealed into its tile store (no owned voxel
    /// memory; call toDense() to opt back into an in-core volume).
    /// Empty for an empty stack.
    image::TiledVolume3D volume;

    /// Recovered per-slice shifts relative to slice 0.
    std::vector<std::pair<long, long>> shifts;

    /// Mean pixel residual vs the stack's ground-truth drift (0 when
    /// the stack carries no drift for every slice).
    double alignmentResidualPx = 0.0;

    /// Paper requirement: residual below 0.77% of the slice height.
    bool meetsAlignmentBudget(size_t slice_height_px) const
    {
        return alignmentResidualPx <=
            0.0077 * static_cast<double>(slice_height_px);
    }
};

/**
 * Run the chain over `stack` in windows of `windowSlices` slices
 * (0 = kStreamWindowSlices): denoise the window's slices in parallel,
 * register each against its predecessor with MI (the previous
 * window's last denoised slice anchors the first), accumulate the
 * chained shifts in slice order, and write each corrected slice
 * straight into a TiledVolume3D over `store`.
 *
 * The working set is one window of denoised frames, the registration
 * anchor and the volume's dirty tiles (`dirtyBudgetBytes`, 0 =
 * unbounded).  An in-RAM run passes a memory-only store
 * (image::TileStoreConfig with no dir and no budget); a budgeted run
 * passes a spilling one.  The result is bitwise identical at any
 * window size, tile edge, budget and thread count (asserted by
 * tests/test_volume.cc against the dense denoise, chained alignment
 * and in-core assembly of tests/oracles.hh).
 *
 * Degenerate stacks are well defined: an empty stack yields an empty
 * volume with no shifts, and a single slice gets the identity shift.
 * Tile-store failures come back as typed errors.
 */
common::Result<StreamedPostprocessResult> postprocessStreamed(
    const image::SliceStack &stack, image::TileStore &store,
    const PostprocessParams &params = {},
    size_t tileEdge = image::TiledVolume3D::kDefaultTileEdge,
    size_t dirtyBudgetBytes = 0,
    size_t windowSlices = kStreamWindowSlices);

} // namespace scope
} // namespace hifi

#endif // HIFI_SCOPE_POSTPROCESS_HH
