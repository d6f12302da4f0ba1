#include "core/study.hh"

#include <cmath>
#include <sstream>

#include "core/pipeline.hh"
#include "eval/model_accuracy.hh"
#include "eval/overheads.hh"
#include "eval/recommendations.hh"
#include "re/measure.hh"
#include "scope/fib.hh"
#include "scope/prep.hh"
#include "scope/roi_search.hh"

namespace hifi
{
namespace core
{

namespace
{

std::string
pct(double v, int digits = 0)
{
    std::ostringstream ss;
    ss.precision(digits);
    ss << std::fixed << v * 100.0 << "%";
    return ss.str();
}

std::string
num(double v, int digits = 1)
{
    std::ostringstream ss;
    ss.precision(digits);
    ss << std::fixed << v;
    return ss.str();
}

} // namespace

StudyResult
runFullStudy(const StudyConfig &config)
{
    StudyResult result;
    std::ostringstream md;

    std::vector<std::string> chips = config.chips;
    if (chips.empty())
        for (const auto &c : models::allChips())
            chips.push_back(c.id);

    md << "# HiFi-DRAM study report\n\n"
       << "Deterministic reproduction run (seed " << config.seed
       << ", " << config.pairs << " SA pairs per region).\n";

    // ---- Imaging methodology ------------------------------------------
    md << "\n## Imaging methodology (Section IV)\n\n"
       << "| chip | prep | ROI identification | SA strip found | "
          "acquisition |\n|---|---|---|---|---|\n";
    for (const auto &id : chips) {
        const auto &chip = models::chip(id);
        const auto prep = scope::prepareChip(chip);
        const auto cost = scope::campaignCost(chip);
        md << "| " << id << " | " << num(prep.prepMinutes(), 0)
           << " min | ";
        if (prep.matsVisible)
            md << "optical (MATs visible), "
               << num(prep.identificationHours(), 1) << " h";
        else
            md << "blind search, " << prep.blindSearch.crossSections
               << " sections, " << num(prep.identificationHours(), 1)
               << " h";
        md << " | ";
        if (prep.matsVisible)
            md << num(chip.saHeightNm / 1e3, 2) << " um (optical)";
        else
            md << num(prep.blindSearch.saWidthNm() / 1e3, 2) << " um";
        md << " | " << num(cost.totalHours) << " h |\n";
    }

    // ---- Reverse engineering -------------------------------------------
    md << "\n## Reverse engineering (Section V)\n\n"
       << "| chip | topology | template (score) | devices | "
          "cross-coupling | max dim err |\n|---|---|---|---|---|---|\n";
    for (const auto &id : chips) {
        PipelineConfig pc;
        pc.chipId = id;
        pc.pairs = config.pairs;
        pc.seed = config.seed;
        const auto run = runPipelineChecked(pc);
        if (!run.ok()) {
            result.allTopologiesCorrect = false;
            result.allCrossCouplingsTraced = false;
            md << "| " << id << " | failed: " << run.error().message
               << " | | | | |\n";
            continue;
        }
        const PipelineReport &rep = run.value();

        result.allTopologiesCorrect &= rep.topologyCorrect;
        result.allCrossCouplingsTraced &= rep.crossCouplingConsistent;
        ++result.chipsStudied;

        md << "| " << id << " | "
           << (rep.extractedTopology == models::Topology::Ocsa
                   ? "OCSA"
                   : "classic")
           << (rep.topologyCorrect ? "" : " (WRONG)") << " | "
           << rep.matchedTemplate << " (" << num(rep.matchScore, 2)
           << ") | " << rep.extractedDevices << "/" << rep.trueDevices
           << " | "
           << (rep.crossCouplingConsistent ? "traced" : "failed")
           << " | " << num(rep.maxDimErrorNm) << " nm |\n";
    }

    // ---- Measurements ----------------------------------------------------
    const auto campaign = re::measurementCampaign(config.seed);
    md << "\n## Measurements (Section V-B)\n\n"
       << campaign.totalMeasurements
       << " measurements across the chips (paper: "
       << re::kPaperMeasurements << "); repeated-measurement mean "
       << "relative error " << pct(campaign.meanRelativeError(), 1)
       << ".\n";

    // ---- Model accuracy ---------------------------------------------------
    md << "\n## Public model accuracy (Section VI-A)\n\n"
       << "| model | DDR | W/L avg | W/L max | W avg | W max | L avg "
          "| L max |\n|---|---|---|---|---|---|---|---|\n";
    for (const auto &acc : eval::fig12Summary()) {
        md << "| " << acc.model << " | " << acc.ddr << " | "
           << pct(acc.avgWl) << " | " << pct(acc.maxWl) << " ("
           << acc.maxWlAt << ") | " << pct(acc.avgW) << " | "
           << pct(acc.maxW) << " | " << pct(acc.avgL) << " | "
           << pct(acc.maxL) << " |\n";
    }

    // ---- Research audit ----------------------------------------------------
    md << "\n## Research audit (Sections VI-B/C, Table II)\n\n"
       << "| paper | inaccuracies | error | porting cost |\n"
       << "|---|---|---|---|\n";
    for (const auto &audit : eval::auditAllPapers()) {
        md << "| " << audit.paper->name << " | "
           << models::inaccuracyLabel(*audit.paper) << " | ";
        if (std::isnan(audit.overheadError))
            md << "N/A";
        else
            md << num(audit.overheadError) << "x";
        md << " | " << num(audit.portingCost) << "x |\n";
    }
    md << "\nPapers affected by I1 need "
       << pct(eval::i1MatExtensionOverhead())
       << " chip overhead for the MAT extension alone.\n";

    // ---- Recommendations -----------------------------------------------------
    md << "\n## Recommendations (Section VI-E)\n\n";
    for (const auto &rec : eval::recommendations())
        md << "- **" << rec.id << "**: " << rec.title << "\n";

    result.markdown = md.str();
    return result;
}

} // namespace core
} // namespace hifi
