/**
 * @file
 * SEM parameter study: sweeps dwell time (the paper uses 3 us and
 * 6 us) and slice thickness (10/20 nm), and reports image SNR,
 * alignment residual, and reconstruction fidelity - the trade-offs
 * Section IV discusses (dwell costs acquisition time, slices cost
 * X resolution).
 *
 * Usage: imaging_study [chip-id]   (default C5)
 */

#include <iostream>
#include <string>

#include "common/rng.hh"
#include "common/table.hh"
#include "core/pipeline.hh"
#include "fab/sa_region.hh"
#include "fab/voxelizer.hh"
#include "image/noise.hh"
#include "scope/fib.hh"
#include "scope/postprocess.hh"

int
main(int argc, char **argv)
{
    using namespace hifi;
    using common::Table;

    const std::string chip_id = argc > 1 ? argv[1] : "C5";
    const auto &chip = models::chip(chip_id);

    std::cout << "Imaging parameter study on " << chip_id << " ("
              << (chip.detector == models::Detector::Se ? "SE" : "BSE")
              << " detector)\n\n";

    // Fab once.
    fab::SaRegionSpec spec = fab::SaRegionSpec::fromChip(chip, 2);
    const double voxel = 4.0;
    spec.minGapNm = 4.0 * voxel;
    fab::SaRegionTruth truth;
    const auto cell = fab::buildSaRegion(spec, truth);
    fab::VoxelizeParams vox = truth.voxelize;
    vox.voxelNm = voxel;
    // A failure throws with its message.
    const auto mats = fab::voxelize(*cell, truth.region, vox).takeValue();

    Table t({"dwell", "slice", "slices", "SNR", "align res (px)",
             "budget", "topology"});
    for (const double dwell : {1.0, 3.0, 6.0}) {
        for (const double slice_nm : {12.0, 20.0}) {
            scope::FibSemParams fib;
            fib.sem.detector = chip.detector;
            fib.sem.dwellUs = dwell;
            fib.sliceVoxels =
                static_cast<size_t>(slice_nm / voxel + 0.5);

            const auto stack =
                scope::acquire(mats, fib, scope::FaultParams{},
                               scope::RecoveryParams{}, 7)
                    .stack;

            // SNR of the central raw slice against its clean render.
            const size_t mid =
                stack.slices.size() / 2 * fib.sliceVoxels;
            const auto clean = scope::semImageClean(
                mats, mid, fib.sliceVoxels, fib.sem);
            double snr_mid = 0.0;
            {
                common::Rng rng2(7);
                auto noisy = scope::semImage(
                    mats, mid, fib.sliceVoxels, fib.sem, rng2);
                snr_mid = image::snr(noisy, clean);
            }

            // Memory-only tile store; a failure throws with its
            // message.
            image::TileStore store(image::TileStoreConfig{});
            const auto post =
                scope::postprocessStreamed(stack, store).takeValue();
            re::PlanarScales scales{
                static_cast<double>(fib.sliceVoxels) * voxel, voxel,
                voxel};
            const auto analysis =
                re::analyzeRegion(post.volume.toDense().takeValue(),
                                  scales, chip.detector)
                    .takeValue();

            t.addRow({Table::num(dwell, 0) + " us",
                      Table::num(fib.sliceVoxels * voxel, 0) + " nm",
                      std::to_string(stack.slices.size()),
                      Table::num(snr_mid, 1),
                      Table::num(post.alignmentResidualPx, 2),
                      post.meetsAlignmentBudget(
                          stack.slices.front().height())
                          ? "met"
                          : "missed",
                      analysis.topology == truth.topology ? "ok"
                                                          : "WRONG"});
        }
    }
    t.print(std::cout);
    std::cout << "\nLonger dwell raises SNR (at acquisition-time "
                 "cost); thinner slices raise X resolution (at mill-"
                 "count cost) - the Section IV trade-offs.\n";
    return 0;
}
