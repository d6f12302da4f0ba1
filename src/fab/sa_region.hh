/**
 * @file
 * Virtual fab: parametric generator of sense-amplifier-region layouts.
 *
 * The generator produces a physically plausible slice of the SA strip
 * between two MATs, with the layout facts the paper reverse engineers
 * (Section V):
 *
 *  - bitlines (M1) run along X through the region, at the MAT pitch;
 *  - column-mux transistors are the first elements after the MAT,
 *    staggered over four X slots (one per bitline in a group of 4);
 *  - latch devices are coupled pairs sharing one active region, with
 *    their width along X and gate-poly tabs cross-coupling each gate
 *    to the partner bitline through a contact (Fig. 8); adjacent
 *    pairs are staggered over two X sub-columns, as in Fig. 10;
 *  - precharge / isolation / offset-cancellation devices are
 *    common-gate strips spanning the whole region along Y, with one
 *    folded active segment per bitline pair;
 *  - classic chips bridge the precharge and equalizer strips into one
 *    PEQ-driven component; OCSA chips have three independent strips
 *    (ISO, OC, PRE) and no equalizer;
 *  - an LSA block (next datapath stage) sits at the far end.
 *
 * The generator returns both the layout cell and the exact ground
 * truth (device rectangles, roles, strip count), which the reverse-
 * engineering pipeline is validated against.
 */

#ifndef HIFI_FAB_SA_REGION_HH
#define HIFI_FAB_SA_REGION_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/geometry.hh"
#include "fab/voxelizer.hh"
#include "layout/cell.hh"
#include "models/chip_data.hh"
#include "models/process.hh"

namespace hifi
{
namespace fab
{

/** Geometry of the generated SA-region slice. */
struct SaRegionSpec
{
    models::Topology topology = models::Topology::Classic;

    /// Sense-amplifier pairs in the slice (2 bitlines per pair).
    size_t pairs = 4;

    /**
     * Stacked SA sets between the two MATs (Section V-C: all studied
     * chips place two).  With 2, even pairs are served by SA1 (near
     * the left MAT) and odd pairs by the mirrored SA2 (near the right
     * MAT): layout MAT | SA1 | SA2 | MAT.
     */
    size_t stackedSas = 1;

    double blPitchNm = 39.0;
    double blWidthNm = 26.0;
    double transitionNm = 330.0;

    /**
     * Minimum gap kept between independent features so that they stay
     * resolvable at the imaging resolution (the pipeline sets this to
     * a few pixels).  Device widths that would violate it are clipped
     * and the clipped value recorded in the truth.
     */
    double minGapNm = 16.0;

    /**
     * Process variation: per-device gaussian jitter (sigma, nm)
     * applied to drawn widths and lengths.  The jittered values are
     * recorded in the truth, so validation stays exact.  0 disables.
     */
    double dimJitterNm = 0.0;

    /// Seed for the jitter draw (only used when dimJitterNm > 0 or
    /// variation.cdSigmaFrac > 0).
    uint64_t jitterSeed = 1;

    /**
     * Process-corner variation (models::cornerVariation preset or
     * custom): systematic CD bias, random per-device CD sigma and
     * cross-wafer CD drift are applied to the drawn dimensions here
     * (and recorded in the truth, so validation stays exact); the
     * LER fields are consumed by the voxelizer.  The default
     * (typical corner, all zero) reproduces the clean fab
     * bit-for-bit.
     */
    models::CornerVariation variation;

    // Drawn transistor dimensions (W, L in nm).
    models::Dims nsa{210, 52};
    models::Dims psa{150, 48};
    models::Dims pre{260, 39};
    models::Dims eq{250, 62};  ///< classic only
    models::Dims col{180, 38};
    models::Dims iso{300, 36}; ///< OCSA only
    models::Dims oc{120, 40};  ///< OCSA only
    models::Dims lsa{240, 45};

    /// Populate from a measured chip dataset.
    static SaRegionSpec fromChip(const models::ChipSpec &chip,
                                 size_t pairs = 4);
};

/** Ground-truth record of one placed transistor. */
struct PlacedDevice
{
    models::Role role = models::Role::Nsa;
    common::Rect gate;    ///< drawn gate rectangle (the W x L body)
    common::Rect active;  ///< active region it sits on
    size_t bitline = 0;   ///< index of the bitline it serves
    size_t couplesTo = 0; ///< latch only: bitline driving the gate

    /// Latch only: the contact joining this gate's poly tab to the
    /// partner bitline (Fig. 8).  Empty for non-latch devices.  The
    /// defect library erases exactly this rect for a missing-via
    /// defect.
    common::Rect couplingContact;
};

/** Ground truth for a generated region. */
struct SaRegionTruth
{
    models::Topology topology = models::Topology::Classic;
    common::Rect region;                ///< full region bounds
    std::vector<common::Rect> bitlines; ///< M1 bitline rects, by index
    std::vector<PlacedDevice> devices;

    /// Independent common-gate components (1 classic, 3 OCSA, per
    /// stacked SA set).
    size_t commonGateComponents = 0;

    /**
     * How to voxelize `region`: the corner's line-edge roughness
     * (seeded with the spec's jitter seed) and the overhang the
     * layout legitimately has past the region rect, as
     * outOfBoundsTolNm.  voxelNm and zMaxNm keep their defaults; set
     * voxelNm to the imaging pitch.
     */
    VoxelizeParams voxelize;

    size_t countRole(models::Role role) const;
};

/**
 * Build the SA-region slice.
 *
 * @param spec  geometry (possibly from SaRegionSpec::fromChip)
 * @param truth filled with the exact generated ground truth
 */
std::shared_ptr<layout::Cell> buildSaRegion(const SaRegionSpec &spec,
                                            SaRegionTruth &truth);

} // namespace fab
} // namespace hifi

#endif // HIFI_FAB_SA_REGION_HH
