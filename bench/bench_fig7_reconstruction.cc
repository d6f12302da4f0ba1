/**
 * @file
 * Reproduces Figs. 7-8 / Section IV-D: end-to-end imaging capability.
 * Runs the full pipeline (virtual fab -> FIB/SEM with drift and noise
 * -> TV denoise -> MI alignment -> planar reconstruction -> reverse
 * engineering) on every chip configuration, and reports how faithfully
 * the circuit is recovered, including the Fig. 8-style cross-coupling
 * trace through gate tabs and contacts.
 */

#include <iostream>

#include "common/table.hh"
#include "common/telemetry.hh"
#include "core/pipeline.hh"
#include "fab/mat.hh"
#include "fab/voxelizer.hh"
#include "re/mat_analyze.hh"
#include "scope/fib.hh"
#include "scope/postprocess.hh"

int
main()
{
    hifi::telemetry::reportPeakRssAtExit();
    using namespace hifi;
    using common::Table;

    std::cout << "Figs. 7-8: end-to-end reconstruction fidelity "
                 "(4 SA pairs per chip)\n\n";
    Table t({"chip", "topology", "strips", "bitlines", "devices",
             "x-coupling", "align(px)", "budget", "max dim err",
             "matched template"});
    bool all_ok = true;
    for (const auto &chip : models::allChips()) {
        core::PipelineConfig config;
        config.chipId = chip.id;
        config.pairs = 4;
        config.seed = 2024;
        const auto run = core::runPipelineChecked(config);
        if (!run.ok()) {
            std::cerr << chip.id << ": " << run.error().message << "\n";
            return 1;
        }
        const core::PipelineReport &rep = run.value();
        all_ok &= rep.topologyCorrect && rep.crossCouplingConsistent;

        t.addRow({rep.chipId,
                  std::string(rep.topologyCorrect ? "ok " : "BAD ") +
                      (rep.extractedTopology == models::Topology::Ocsa
                           ? "(OCSA)"
                           : "(classic)"),
                  std::to_string(rep.extractedCommonGateStrips) + "/" +
                      std::to_string(rep.trueCommonGateStrips),
                  std::to_string(rep.bitlinesFound) + "/" +
                      std::to_string(rep.bitlinesTrue),
                  std::to_string(rep.extractedDevices) + "/" +
                      std::to_string(rep.trueDevices),
                  rep.crossCouplingConsistent ? "traced" : "FAILED",
                  Table::num(rep.alignmentResidualPx, 2),
                  rep.alignmentBudgetMet ? "met" : "MISSED",
                  Table::num(rep.maxDimErrorNm, 1) + " nm",
                  rep.matchedTemplate + " (" +
                      Table::num(rep.matchScore, 2) + ")"});
    }
    t.print(std::cout);
    std::cout << "\nAlignment budget: 0.77% of the slice height "
                 "(Section IV-C).  Cross-coupling is traced through "
                 "the poly tabs and contacts as in Fig. 8.\n";

    // Fig. 7a: the C5 MAT - bitlines below, honeycomb capacitors
    // above - recovered through the full noisy imaging chain.
    {
        const auto &chip = models::chip("C5");
        const auto cell = fab::buildMatSlice(
            fab::MatSpec::fromChip(chip, 8, 12));
        const double voxel = 4.0;
        const auto mats =
            fab::voxelize(*cell, cell->boundingBox(), {voxel, 280.0})
                .takeValue();
        scope::FibSemParams fib;
        fib.sem.detector = chip.detector;
        fib.sem.dwellUs = chip.dwellUs;
        fib.sliceVoxels = 2;
        const auto stack = scope::acquire(mats, fib, scope::FaultParams{},
                                          scope::RecoveryParams{}, 7)
                               .stack;
        // Memory-only tile store; a failure throws with its message.
        image::TileStore store(image::TileStoreConfig{});
        const auto volume = scope::postprocessStreamed(stack, store)
                                .value()
                                .volume.toDense()
                                .takeValue();
        re::PlanarScales scales{2.0 * voxel, voxel, voxel};
        const auto mat =
            re::analyzeMatRegion(volume, scales, chip.detector)
                .takeValue();
        std::cout << "\nFig. 7a (C5 MAT through the noisy chain): "
                  << mat.bitlines << " bitlines at "
                  << Table::num(mat.blPitchNm, 1) << " nm pitch, "
                  << mat.wordlines << " buried wordlines, "
                  << mat.capacitors << " capacitors, "
                  << (mat.honeycomb ? "honeycomb packing confirmed"
                                    : "HONEYCOMB NOT FOUND")
                  << " (row offset "
                  << Table::num(mat.rowOffsetNm, 1) << " nm)\n";
        all_ok &= mat.honeycomb;
    }
    return all_ok ? 0 : 1;
}
