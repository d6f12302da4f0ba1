#include "re/gds_pipeline.hh"

#include "fab/voxelizer.hh"
#include "layout/gdsii.hh"
#include "scope/sem.hh"

namespace hifi
{
namespace re
{

common::Result<RegionAnalysis>
analyzeGdsFile(const std::string &path, double voxel_nm)
{
    const layout::Cell cell = layout::readGdsFile(path);
    const common::Rect bounds = cell.boundingBox();

    fab::VoxelizeParams vox;
    vox.voxelNm = voxel_nm;
    const auto voxelized = fab::voxelize(cell, bounds, vox);
    if (!voxelized.ok())
        return voxelized.error();
    const image::Volume3D &materials = voxelized.value();

    // Noise-free rendering: the GDSII is already the ground truth.
    image::Volume3D intensity(materials.nx(), materials.ny(),
                              materials.nz());
    for (size_t z = 0; z < materials.nz(); ++z)
        for (size_t y = 0; y < materials.ny(); ++y)
            for (size_t x = 0; x < materials.nx(); ++x)
                intensity.at(x, y, z) = static_cast<float>(
                    scope::materialContrast(
                        fab::voxelMaterial(materials.at(x, y, z)),
                        models::Detector::Se));

    PlanarScales scales{voxel_nm, voxel_nm, voxel_nm};
    return analyzeRegion(intensity, scales, models::Detector::Se);
}

} // namespace re
} // namespace hifi
