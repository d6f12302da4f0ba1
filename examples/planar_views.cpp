/**
 * @file
 * Exports the reconstructed planar views of an SA region and a MAT
 * slice as PGM images - the visual artifacts behind Fig. 7 (bitlines
 * and honeycomb capacitors in the MAT; wires, gates and active
 * regions in the SA region).
 *
 * Usage: planar_views [chip-id] [output-dir]   (default C5 /tmp)
 */

#include <iostream>
#include <string>

#include "fab/mat.hh"
#include "fab/sa_region.hh"
#include "fab/voxelizer.hh"
#include "image/pgm.hh"
#include "layout/layer.hh"
#include "scope/fib.hh"
#include "scope/postprocess.hh"

int
main(int argc, char **argv)
{
    using namespace hifi;
    const std::string chip_id = argc > 1 ? argv[1] : "C5";
    const std::string dir = argc > 2 ? argv[2] : "/tmp";
    const auto &chip = models::chip(chip_id);

    const double voxel = 4.0;

    auto image_cell = [&](const layout::Cell &cell,
                          const common::Rect &bounds,
                          fab::VoxelizeParams vox,
                          const std::string &tag) {
        // A failure throws with its message.
        vox.voxelNm = voxel;
        const auto mats = fab::voxelize(cell, bounds, vox).takeValue();
        scope::FibSemParams fib;
        fib.sem.detector = chip.detector;
        fib.sem.dwellUs = chip.dwellUs;
        fib.sem.seQuality = chip.seQuality;
        fib.sliceVoxels = std::max<size_t>(
            1, static_cast<size_t>(chip.sliceNm / voxel + 0.5));
        const auto stack = scope::acquire(mats, fib, scope::FaultParams{},
                                          scope::RecoveryParams{}, 11)
                               .stack;
        // Memory-only tile store; a failure throws with its message.
        image::TileStore store(image::TileStoreConfig{});
        const auto post =
            scope::postprocessStreamed(stack, store).takeValue();

        for (const auto layer :
             {layout::Layer::Active, layout::Layer::Gate,
              layout::Layer::Metal1, layout::Layer::Capacitor}) {
            const auto z = layout::layerZ(layer);
            const auto z0 = static_cast<size_t>(z.z0 / voxel);
            const auto z1 = std::min<size_t>(
                post.volume.nz(),
                static_cast<size_t>(z.z1 / voxel + 0.5));
            if (z0 >= post.volume.nz() || z1 <= z0)
                continue;
            const auto slab =
                post.volume.planarSlab(z0, z1).takeValue();
            const std::string path = dir + "/hifi_" + chip_id + "_" +
                tag + "_" + layout::layerName(layer) + ".pgm";
            image::writePgm(path, slab);
            std::cout << "wrote " << path << " (" << slab.width()
                      << "x" << slab.height() << ")\n";
        }
        // One raw cross section, as acquired.
        image::writePgm(dir + "/hifi_" + chip_id + "_" + tag +
                            "_cross_section.pgm",
                        stack.slices[stack.slices.size() / 2]);
    };

    // SA region (Fig. 7b-d).
    fab::SaRegionTruth truth;
    const auto sa = fab::buildSaRegion(
        fab::SaRegionSpec::fromChip(chip, 3), truth);
    image_cell(*sa, truth.region, truth.voxelize, "sa");

    // MAT slice (Fig. 7a: bitlines below, honeycomb capacitors above).
    const auto mat =
        fab::buildMatSlice(fab::MatSpec::fromChip(chip, 10, 14));
    image_cell(*mat, mat->boundingBox(), {}, "mat");

    std::cout << "done; view with any PGM-capable viewer\n";
    return 0;
}
