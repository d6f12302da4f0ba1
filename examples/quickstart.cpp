/**
 * @file
 * Quickstart: the full HiFi-DRAM methodology in one call.
 *
 * Fabricates a virtual B5-like SA region, images it with the simulated
 * FIB/SEM (noise + stage drift), post-processes the stack (TV denoise,
 * MI alignment), reverse engineers the circuit, and finally rebuilds
 * the recovered circuit as an analog netlist and simulates an
 * activation with the measured transistor sizes.
 *
 * Usage: quickstart [chip-id]   (default B5; try C4 for a classic SA)
 */

#include <iostream>
#include <string>

#include "circuit/sense_amp.hh"
#include "common/table.hh"
#include "core/pipeline.hh"
#include "re/netlist_build.hh"

int
main(int argc, char **argv)
{
    using namespace hifi;
    using common::Table;

    core::PipelineConfig config;
    config.chipId = argc > 1 ? argv[1] : "B5";
    config.pairs = 3;
    config.seed = 1;

    std::cout << "HiFi-DRAM quickstart on chip " << config.chipId
              << "\n\n[1/3] fab -> FIB/SEM -> post-process -> reverse "
                 "engineer...\n";
    const auto run = core::runPipelineChecked(config);
    if (!run.ok()) {
        std::cerr << "pipeline failed: " << run.error().message << "\n";
        return 1;
    }
    const core::PipelineReport &report = run.value();

    std::cout << "  slices acquired:     " << report.slices << "\n"
              << "  alignment residual:  "
              << Table::num(report.alignmentResidualPx, 2) << " px ("
              << (report.alignmentBudgetMet ? "within" : "OUTSIDE")
              << " the 0.77% budget)\n"
              << "  topology extracted:  "
              << (report.extractedTopology == models::Topology::Ocsa
                      ? "offset-cancellation (OCSA)"
                      : "classic")
              << (report.topologyCorrect ? "  [correct]" : "  [WRONG]")
              << "\n  devices recovered:   " << report.extractedDevices
              << "/" << report.trueDevices << "\n"
              << "  matched template:    " << report.matchedTemplate
              << " (score " << Table::num(report.matchScore, 2)
              << ")\n"
              << "  cross-coupling:      "
              << (report.crossCouplingConsistent ? "traced (Fig. 8)"
                                                 : "incomplete")
              << "\n\n[2/3] recovered dimensions vs fab ground truth "
                 "(nm):\n";

    Table t({"role", "true W", "meas W", "true L", "meas L"});
    for (const auto &[role, rec] : report.roles) {
        t.addRow({models::roleName(role), Table::num(rec.trueW, 0),
                  Table::num(rec.measuredW, 1),
                  Table::num(rec.trueL, 0),
                  Table::num(rec.measuredL, 1)});
    }
    t.print(std::cout);

    std::cout << "\n[3/3] rebuilding the recovered circuit and "
                 "simulating one activation...\n";
    circuit::SaParams params =
        re::saParamsFromAnalysis(report.analysis);
    params.storeOne = true;
    const circuit::SaRun sa = circuit::simulateActivation(params);
    std::cout << "  stored '1' latched "
              << (sa.latchedCorrectly ? "correctly" : "WRONG")
              << "; BL=" << Table::num(sa.blAtRestore, 2)
              << " V, BLB=" << Table::num(sa.blbAtRestore, 2)
              << " V after restore; cell recharged to "
              << Table::num(sa.cellAtRestore, 2) << " V\n";
    return report.topologyCorrect && sa.latchedCorrectly ? 0 : 1;
}
