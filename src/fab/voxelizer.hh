/**
 * @file
 * Rasterizes a layout cell into a 3-D material volume, the "silicon"
 * the microscope simulator images.
 *
 * With a non-zero line-edge-roughness sigma the drawn edges are
 * perturbed by a smooth, per-edge value-noise profile (correlation
 * length `lerCorrLenNm`), scaled per material by fab::lerScale.  All
 * roughness draws are counter-seeded pure functions of
 * (lerSeed, shape index, edge, knot), so the rasterized volume is
 * identical at any thread count and any scenario is reproducible from
 * its parameters alone.
 */

#ifndef HIFI_FAB_VOXELIZER_HH
#define HIFI_FAB_VOXELIZER_HH

#include <cstdint>

#include "common/result.hh"
#include "fab/materials.hh"
#include "image/volume3d.hh"
#include "layout/cell.hh"

namespace hifi
{
namespace fab
{

/** Voxelization settings. */
struct VoxelizeParams
{
    /// Edge length of a voxel (nm); isotropic.
    double voxelNm = 5.0;

    /// Vertical extent of the volume (nm above substrate).
    double zMaxNm = 270.0;

    /// Line-edge roughness amplitude (nm, 1 sigma); 0 disables and
    /// keeps the rasterization bit-identical to the clean fab.
    double lerSigmaNm = 0.0;

    /// LER correlation length along an edge (nm).
    double lerCorrLenNm = 40.0;

    /// Seed for the roughness draws (counter-seeded per shape/edge).
    uint64_t lerSeed = 1;

    /**
     * How far (nm) a drawn shape may extend beyond the volume bounds
     * before voxelize treats the clip as an error.  An SA region's
     * legitimate overhang is in SaRegionTruth::voxelize.
     */
    double outOfBoundsTolNm = 0.0;
};

/**
 * Rasterize the flattened cell into a material volume.  Voxel values
 * are Material enum codes stored as floats; the background is Oxide.
 * Shapes are painted in layer z-order, later layers over earlier ones
 * (they occupy different z slabs anyway).
 *
 * The volume origin coincides with `bounds.x0/y0`; voxel (x,y,z)
 * covers [x*v, (x+1)*v) nm etc.
 *
 * InvalidArgument for empty or non-finite bounds, a non-positive or
 * non-finite voxel size or z extent, or a negative tolerance;
 * FailedPrecondition for a shape that extends beyond the bounds by
 * more than `params.outOfBoundsTolNm`.  Shapes within the tolerance
 * are clipped to the bounds.
 */
common::Result<image::Volume3D>
voxelize(const layout::Cell &cell, const common::Rect &bounds,
         const VoxelizeParams &params = {});

/// Material of a voxel value (clamped to the enum range).
Material voxelMaterial(float value);

} // namespace fab
} // namespace hifi

#endif // HIFI_FAB_VOXELIZER_HH
