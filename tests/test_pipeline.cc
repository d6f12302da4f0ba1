/**
 * @file
 * Integration tests for the end-to-end pipeline: virtual fab ->
 * FIB/SEM -> post-processing -> reverse engineering, validated against
 * the generated ground truth on every studied chip configuration.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/pipeline.hh"
#include "core/study.hh"
#include "fab/sa_region.hh"
#include "re/netlist_build.hh"

namespace
{

using namespace hifi;
using models::Role;
using models::Topology;

class PipelinePerChip : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PipelinePerChip, RecoversTopologyAndStructure)
{
    core::PipelineConfig config;
    config.chipId = GetParam();
    config.pairs = 3;
    config.seed = 42;

    const core::PipelineReport report =
        core::runPipelineChecked(config).value();

    EXPECT_TRUE(report.topologyCorrect)
        << report.chipId << ": extracted "
        << (report.extractedTopology == Topology::Ocsa ? "OCSA"
                                                       : "classic")
        << " strips=" << report.extractedCommonGateStrips;
    EXPECT_EQ(report.extractedCommonGateStrips,
              report.trueCommonGateStrips);
    EXPECT_EQ(report.bitlinesFound, report.bitlinesTrue);
    EXPECT_TRUE(report.crossCouplingConsistent) << report.chipId;

    // Every role present in the truth must be recovered with sane
    // dimensions (within ~1.5 slices of the drawn values).
    const models::ChipSpec &chip = models::chip(config.chipId);
    const double tol = 1.5 * chip.sliceNm;
    for (const auto &[role, rec] : report.roles) {
        EXPECT_GT(rec.measuredW, 0.0)
            << report.chipId << " missing " << models::roleName(role);
        if (rec.measuredW > 0.0) {
            EXPECT_NEAR(rec.measuredW, rec.trueW, tol)
                << report.chipId << " " << models::roleName(role);
            EXPECT_NEAR(rec.measuredL, rec.trueL, tol)
                << report.chipId << " " << models::roleName(role);
        }
    }

    // Alignment met the paper's 0.77% budget.
    EXPECT_TRUE(report.alignmentBudgetMet)
        << "residual " << report.alignmentResidualPx << " px";
}

INSTANTIATE_TEST_SUITE_P(AllChips, PipelinePerChip,
                         ::testing::Values("A4", "B4", "C4", "A5",
                                           "B5", "C5"));

TEST(Pipeline, DeviceCountsMatchTruth)
{
    core::PipelineConfig config;
    config.chipId = "B5";
    config.pairs = 3;
    config.seed = 7;
    const auto report = core::runPipelineChecked(config).value();
    EXPECT_EQ(report.extractedDevices, report.trueDevices);
    // OCSA slice with 3 pairs: 6 column, 3 iso, 3 oc, 6 nSA, 6 pSA,
    // 3 precharge, 3 LSA.
    EXPECT_EQ(report.analysis.countRole(Role::Column), 6u);
    EXPECT_EQ(report.analysis.countRole(Role::Iso), 3u);
    EXPECT_EQ(report.analysis.countRole(Role::Oc), 3u);
    EXPECT_EQ(report.analysis.countRole(Role::Nsa), 6u);
    EXPECT_EQ(report.analysis.countRole(Role::Psa), 6u);
    EXPECT_EQ(report.analysis.countRole(Role::Precharge), 3u);
    EXPECT_EQ(report.analysis.countRole(Role::Lsa), 3u);
    EXPECT_EQ(report.analysis.countRole(Role::Equalizer), 0u);
}

TEST(Pipeline, ClassicChipHasEqualizerNoIsoOc)
{
    core::PipelineConfig config;
    config.chipId = "C4";
    config.pairs = 3;
    config.seed = 7;
    const auto report = core::runPipelineChecked(config).value();
    EXPECT_GT(report.analysis.countRole(Role::Equalizer), 0u);
    EXPECT_EQ(report.analysis.countRole(Role::Iso), 0u);
    EXPECT_EQ(report.analysis.countRole(Role::Oc), 0u);
}

TEST(Pipeline, ReconstructedNetlistSensesCorrectly)
{
    // Close the loop: the reverse-engineered circuit, rebuilt as a
    // netlist with the measured dimensions, must latch correctly in
    // transient simulation.
    core::PipelineConfig config;
    config.chipId = "B5";
    config.pairs = 2;
    config.seed = 3;
    const auto report = core::runPipelineChecked(config).value();

    circuit::SaParams params =
        re::saParamsFromAnalysis(report.analysis);
    EXPECT_EQ(params.topology,
              circuit::SaTopology::OffsetCancellation);

    params.storeOne = true;
    const circuit::SaRun one = circuit::simulateActivation(params);
    EXPECT_TRUE(one.latchedCorrectly);

    params.storeOne = false;
    const circuit::SaRun zero = circuit::simulateActivation(params);
    EXPECT_TRUE(zero.latchedCorrectly);
}

class PipelineSeedSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PipelineSeedSweep, RobustAcrossAcquisitionNoise)
{
    // The reverse engineering must not depend on a lucky noise draw:
    // topology, structure and cross-coupling hold for every seed.
    core::PipelineConfig config;
    config.chipId = "C5";
    config.pairs = 2;
    config.seed = GetParam();
    const auto report = core::runPipelineChecked(config).value();
    EXPECT_TRUE(report.topologyCorrect) << "seed " << GetParam();
    EXPECT_EQ(report.extractedDevices, report.trueDevices)
        << "seed " << GetParam();
    EXPECT_TRUE(report.crossCouplingConsistent)
        << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSeedSweep,
                         ::testing::Values(101, 202, 303, 404));

class StackedSasTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(StackedSasTest, TwoStackedSasRecoverFully)
{
    // Section V-C: every studied chip places two stacked SAs between
    // MATs (MAT | SA1 | SA2 | MAT).  The RE must handle the mirrored
    // second set: reversed strip order, columns at both ends.
    core::PipelineConfig config;
    config.chipId = GetParam();
    config.pairs = 4;
    config.stackedSas = 2;
    config.seed = 42;
    const auto rep = core::runPipelineChecked(config).value();

    EXPECT_TRUE(rep.topologyCorrect) << rep.chipId;
    EXPECT_EQ(rep.extractedCommonGateStrips,
              rep.trueCommonGateStrips);
    const bool ocsa =
        models::chip(config.chipId).topology == Topology::Ocsa;
    EXPECT_EQ(rep.trueCommonGateStrips, ocsa ? 6u : 2u);
    EXPECT_EQ(rep.extractedDevices, rep.trueDevices);
    EXPECT_TRUE(rep.crossCouplingConsistent);
    EXPECT_GT(rep.matchScore, 0.9);
}

INSTANTIATE_TEST_SUITE_P(OneOcsaOneClassic, StackedSasTest,
                         ::testing::Values("B5", "C4"));

TEST(Pipeline, SurvivesProcessVariation)
{
    // With per-device dimension jitter in the fab, the RE still
    // recovers the structure; measured role means track the jittered
    // truth means (which the report compares against by design).
    fab::SaRegionSpec spec =
        fab::SaRegionSpec::fromChip(models::chip("C5"), 3);
    spec.dimJitterNm = 3.0;
    spec.jitterSeed = 9;
    fab::SaRegionTruth truth;
    fab::buildSaRegion(spec, truth);

    // Jitter actually varies the drawn devices.
    double w_min = 1e9, w_max = 0.0;
    for (const auto &d : truth.devices) {
        if (d.role != Role::Nsa)
            continue;
        w_min = std::min(w_min, d.gate.width());
        w_max = std::max(w_max, d.gate.width());
    }
    EXPECT_GT(w_max - w_min, 1.0);
    EXPECT_LT(w_max - w_min, 20.0);
}

TEST(Pipeline, DeterministicGivenSeed)
{
    core::PipelineConfig config;
    config.chipId = "C5";
    config.pairs = 2;
    config.seed = 11;
    const auto a = core::runPipelineChecked(config).value();
    const auto b = core::runPipelineChecked(config).value();
    EXPECT_EQ(a.extractedDevices, b.extractedDevices);
    EXPECT_EQ(a.alignmentResidualPx, b.alignmentResidualPx);
    EXPECT_EQ(a.maxDimErrorNm, b.maxDimErrorNm);
}

TEST(Pipeline, RepeatabilityAcrossAcquisitions)
{
    // The in-silico analogue of the paper's repeated measurements:
    // independent acquisitions agree to within a few nm.
    core::PipelineConfig base;
    base.chipId = "C5";
    base.pairs = 2;
    base.seed = 900;
    const auto rep = core::repeatPipeline(base, 3).value();
    EXPECT_EQ(rep.topologyCorrect, 3u);
    EXPECT_EQ(rep.crossCouplingTraced, 3u);
    const auto it = rep.dims.find(Role::Nsa);
    ASSERT_NE(it, rep.dims.end());
    EXPECT_EQ(it->second.first.count(), 3u);
    EXPECT_LT(it->second.first.stddev(), 4.0); // W spread < 4 nm
    EXPECT_LT(it->second.second.stddev(), 4.0);
}

TEST(Study, SingleChipReportContainsAllSections)
{
    core::StudyConfig config;
    config.chips = {"C5"};
    config.pairs = 2;
    config.seed = 5;
    const auto result = core::runFullStudy(config);
    EXPECT_EQ(result.chipsStudied, 1u);
    EXPECT_TRUE(result.allTopologiesCorrect);
    EXPECT_TRUE(result.allCrossCouplingsTraced);
    for (const char *needle :
         {"Imaging methodology", "Reverse engineering",
          "Measurements", "Public model accuracy", "Research audit",
          "Recommendations", "CoolDRAM", "classic SA", "R4"}) {
        EXPECT_NE(result.markdown.find(needle), std::string::npos)
            << needle;
    }
}

} // namespace
