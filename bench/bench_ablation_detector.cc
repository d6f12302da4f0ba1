/**
 * @file
 * Ablation: detector choice per vendor (Section IV-B).
 *
 * The paper imaged A4/A5 with SE but found SE contrast inadequate on
 * vendors B and C ("likely due to manufacturing processes") and
 * switched those chips to BSE.  This bench forces each detector on a
 * vendor-A and a vendor-B chip and shows the reverse-engineering
 * outcome: SE works on A4, degrades on B4; BSE recovers B4.
 */

#include <iostream>

#include "common/table.hh"
#include "common/telemetry.hh"
#include "core/pipeline.hh"

int
main()
{
    hifi::telemetry::reportPeakRssAtExit();
    using namespace hifi;
    using common::Table;

    std::cout << "Ablation: SE vs BSE per vendor "
                 "(Table I detector assignments)\n\n";
    Table t({"chip", "detector", "topology", "devices", "bitlines",
             "verdict"});
    struct Case
    {
        const char *chip;
        int detector; // 0 = SE, 1 = BSE
    };
    for (const Case &c : {Case{"A4", 0}, Case{"A4", 1}, Case{"B4", 0},
                          Case{"B4", 1}, Case{"C5", 0},
                          Case{"C5", 1}}) {
        core::PipelineConfig config;
        config.chipId = c.chip;
        config.pairs = 3;
        config.seed = 5;
        config.detectorOverride = c.detector;
        const auto run = core::runPipelineChecked(config);
        if (!run.ok()) {
            std::cerr << c.chip << ": " << run.error().message << "\n";
            return 1;
        }
        const core::PipelineReport &rep = run.value();

        const bool full = rep.topologyCorrect &&
            rep.extractedDevices == rep.trueDevices &&
            rep.bitlinesFound == rep.bitlinesTrue;
        const bool usable = rep.topologyCorrect &&
            rep.extractedDevices >= rep.trueDevices / 2;
        t.addRow({c.chip, c.detector == 0 ? "SE" : "BSE",
                  rep.topologyCorrect ? "correct" : "WRONG",
                  std::to_string(rep.extractedDevices) + "/" +
                      std::to_string(rep.trueDevices),
                  std::to_string(rep.bitlinesFound) + "/" +
                      std::to_string(rep.bitlinesTrue),
                  full ? "full recovery"
                       : (usable ? "degraded" : "unusable")});
    }
    t.print(std::cout);
    std::cout << "\nVendor A's materials give good SE contrast; "
                 "vendors B and C need BSE - matching the paper's "
                 "detector choices in Table I.\n";
    return 0;
}
