/**
 * @file
 * Tests for the reverse-engineering module: segmentation, connected
 * components, sub-pixel measurement, the analysis on clean volumes,
 * and the 835-measurement campaign.
 */

#include <gtest/gtest.h>

#include "fab/mat.hh"
#include "fab/sa_region.hh"
#include "layout/gdsii.hh"
#include "fab/voxelizer.hh"
#include "re/analyze.hh"
#include "re/mat_analyze.hh"
#include "re/measure.hh"
#include "re/gds_pipeline.hh"
#include "re/layout_export.hh"
#include "re/netlist_build.hh"
#include "re/topology_match.hh"
#include "re/segmentation.hh"
#include "scope/sem.hh"

namespace
{

using namespace hifi;
using image::Image2D;
using models::Detector;
using models::Role;
using models::Topology;

TEST(Segmentation, MaterialMaskBinaryThreshold)
{
    Image2D img(4, 1, 0.0f);
    img.at(0, 0) = 0.05f; // oxide-ish
    img.at(1, 0) = 0.65f; // copper-ish (SE: 0.92, threshold 0.52)
    img.at(2, 0) = 0.95f;
    img.at(3, 0) = 0.40f;
    const auto mask = re::materialMask(img, fab::Material::Copper,
                                       Detector::Se);
    EXPECT_FLOAT_EQ(mask.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(mask.at(1, 0), 1.0f);
    EXPECT_FLOAT_EQ(mask.at(2, 0), 1.0f);
    EXPECT_FLOAT_EQ(mask.at(3, 0), 0.0f);
}

TEST(Segmentation, ConnectedComponentsSeparatesBlobs)
{
    Image2D mask(16, 8, 0.0f);
    mask.fillRect(1, 1, 5, 4, 1.0f);   // 4x3 blob
    mask.fillRect(8, 2, 14, 7, 1.0f);  // 6x5 blob
    mask.at(15, 7) = 1.0f;             // single pixel (filtered)

    const auto comps = re::connectedComponents(mask, 4);
    ASSERT_EQ(comps.size(), 2u);
    EXPECT_EQ(comps[0].width(), 4u);
    EXPECT_EQ(comps[0].height(), 3u);
    EXPECT_EQ(comps[0].pixels, 12u);
    EXPECT_EQ(comps[1].pixels, 30u);
}

TEST(Segmentation, ComponentsAreFourConnected)
{
    // Two diagonal pixels are separate components.
    Image2D mask(4, 4, 0.0f);
    mask.at(1, 1) = 1.0f;
    mask.at(2, 2) = 1.0f;
    EXPECT_EQ(re::connectedComponents(mask, 1).size(), 2u);
}

TEST(Segmentation, MorphologicalOpenRemovesBridges)
{
    // Two blocks joined by a 1-px line: opening cuts the line.
    Image2D mask(20, 9, 0.0f);
    mask.fillRect(0, 0, 6, 9, 1.0f);
    mask.fillRect(14, 0, 20, 9, 1.0f);
    mask.fillRect(6, 4, 14, 5, 1.0f); // bridge (1 px tall)
    EXPECT_EQ(re::connectedComponents(mask, 4).size(), 1u);
    const auto opened = re::morphologicalOpen(mask, 1);
    EXPECT_EQ(re::connectedComponents(opened, 4).size(), 2u);
}

TEST(Segmentation, MorphologicalOpenPreservesWideFeatures)
{
    Image2D mask(10, 10, 0.0f);
    mask.fillRect(2, 2, 8, 8, 1.0f);
    const auto opened = re::morphologicalOpen(mask, 1);
    const auto comps = re::connectedComponents(opened, 4);
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].pixels, 36u);
}

TEST(Segmentation, MeasureRunExactOnSharpEdges)
{
    Image2D img(20, 5, 0.1f);
    img.fillRect(4, 0, 11, 5, 0.9f); // 7 px wide
    const auto mask =
        re::materialMask(img, fab::Material::Copper, Detector::Se);
    EXPECT_NEAR(re::measureRun(img, mask, 7, 2, true), 7.0, 0.05);
}

TEST(Segmentation, MeasureRunInterpolatesSubPixel)
{
    // Feature covering 6.5 px: boundary pixel at half intensity.
    Image2D img(20, 3, 0.1f);
    img.fillRect(4, 0, 10, 3, 0.9f);
    for (size_t y = 0; y < 3; ++y)
        img.at(10, y) = 0.5f; // half-covered pixel
    Image2D mask(20, 3, 0.0f);
    mask.fillRect(4, 0, 11, 3, 1.0f);
    EXPECT_NEAR(re::measureRun(img, mask, 7, 1, true), 6.5, 0.1);
}

TEST(Segmentation, MeasureRunZeroOutsideMask)
{
    Image2D img(8, 8, 0.0f);
    Image2D mask(8, 8, 0.0f);
    EXPECT_DOUBLE_EQ(re::measureRun(img, mask, 3, 3, true), 0.0);
}

TEST(Segmentation, MeasureRunVertical)
{
    Image2D img(5, 20, 0.1f);
    img.fillRect(0, 6, 5, 15, 0.9f);
    Image2D mask(5, 20, 0.0f);
    mask.fillRect(0, 6, 5, 15, 1.0f);
    EXPECT_NEAR(re::measureRun(img, mask, 2, 10, false), 9.0, 0.05);
}

// ---- Analysis on clean (noise-free) volumes --------------------------

class CleanAnalysis : public ::testing::TestWithParam<Topology>
{
  protected:
    re::RegionAnalysis
    analyze(Topology topology, fab::SaRegionTruth &truth) const
    {
        fab::SaRegionSpec spec;
        spec.topology = topology;
        spec.pairs = 3;
        spec.minGapNm = 20.0;
        const auto cell = fab::buildSaRegion(spec, truth);

        fab::VoxelizeParams vox = truth.voxelize;
        vox.voxelNm = 5.0;
        const auto mats =
            fab::voxelize(*cell, truth.region, vox).takeValue();

        // Noise-free imaging at 5 nm everywhere.
        image::Volume3D intensity(mats.nx(), mats.ny(), mats.nz());
        for (size_t z = 0; z < mats.nz(); ++z)
            for (size_t y = 0; y < mats.ny(); ++y)
                for (size_t x = 0; x < mats.nx(); ++x)
                    intensity.at(x, y, z) = static_cast<float>(
                        scope::materialContrast(
                            fab::voxelMaterial(mats.at(x, y, z)),
                            Detector::Se));

        re::PlanarScales scales{5.0, 5.0, 5.0};
        return re::analyzeRegion(intensity, scales, Detector::Se)
            .takeValue();
    }
};

TEST_P(CleanAnalysis, PerfectRecoveryWithoutNoise)
{
    fab::SaRegionTruth truth;
    const auto analysis = analyze(GetParam(), truth);

    EXPECT_EQ(analysis.topology, GetParam());
    EXPECT_EQ(analysis.commonGateStrips, truth.commonGateComponents);
    EXPECT_EQ(analysis.bitlines.size(), truth.bitlines.size());
    EXPECT_EQ(analysis.devices.size(), truth.devices.size());
    EXPECT_TRUE(analysis.crossCouplingConsistent());

    // Dimension recovery within half a voxel + interpolation slack.
    for (const auto role :
         {Role::Nsa, Role::Psa, Role::Precharge, Role::Column}) {
        const auto dims = analysis.meanDims(role);
        ASSERT_TRUE(dims) << models::roleName(role);
        double tw = 0.0, tl = 0.0;
        size_t n = 0;
        for (const auto &d : truth.devices) {
            if (d.role != role)
                continue;
            const bool latch_like =
                role == Role::Nsa || role == Role::Psa;
            tw += latch_like ? d.gate.width() : d.gate.height();
            tl += latch_like ? d.gate.height() : d.gate.width();
            ++n;
        }
        EXPECT_NEAR(dims->w, tw / n, 6.0) << models::roleName(role);
        EXPECT_NEAR(dims->l, tl / n, 6.0) << models::roleName(role);
    }
}

INSTANTIATE_TEST_SUITE_P(Topologies, CleanAnalysis,
                         ::testing::Values(Topology::Classic,
                                           Topology::Ocsa));

TEST(NetlistBuild, TransfersTopologyAndSizing)
{
    re::RegionAnalysis analysis;
    analysis.topology = Topology::Ocsa;
    analysis.devices.push_back(
        {Role::Nsa, {}, 150.0, 42.0, 0, 1});
    analysis.devices.push_back(
        {Role::Nsa, {}, 154.0, 44.0, 1, 0});
    analysis.devices.push_back({Role::Iso, {}, 52.0, 35.0, 0, 0});

    const auto params = re::saParamsFromAnalysis(analysis);
    EXPECT_EQ(params.topology,
              circuit::SaTopology::OffsetCancellation);
    EXPECT_NEAR(params.sizing.nsaW, 152.0, 1e-9);
    EXPECT_NEAR(params.sizing.nsaL, 43.0, 1e-9);
    EXPECT_NEAR(params.sizing.isoW, 52.0, 1e-9);
    // Roles missing from the analysis keep their defaults.
    circuit::SaParams defaults;
    EXPECT_DOUBLE_EQ(params.sizing.colW, defaults.sizing.colW);
}

TEST(Segmentation, OtsuSeparatesBimodalImage)
{
    Image2D img(40, 20, 0.15f);
    img.fillRect(5, 5, 20, 15, 0.75f);
    const float t = re::otsuThreshold(img);
    EXPECT_GT(t, 0.2f);
    EXPECT_LT(t, 0.75f);
    // All bright pixels above, all dark below.
    EXPECT_GT(img.at(10, 10), t);
    EXPECT_LT(img.at(0, 0), t);
    EXPECT_THROW(re::otsuThreshold(Image2D()), std::invalid_argument);
}

TEST(Segmentation, OtsuFlatImageReturnsItsValue)
{
    Image2D flat(8, 8, 0.4f);
    EXPECT_FLOAT_EQ(re::otsuThreshold(flat), 0.4f);
}

TEST(GdsPipeline, AnalyzesTheOpenSourcedLayoutDirectly)
{
    // Fab a region, export it as GDSII (the paper's artifact), then
    // analyze the file as a downstream user would.
    fab::SaRegionSpec spec;
    spec.topology = Topology::Ocsa;
    spec.pairs = 2;
    spec.minGapNm = 20.0;
    fab::SaRegionTruth truth;
    const auto cell = fab::buildSaRegion(spec, truth);
    layout::writeGdsFile("/tmp/hifi_gds_input.gds", *cell);

    const auto analysis =
        re::analyzeGdsFile("/tmp/hifi_gds_input.gds", 5.0).takeValue();
    EXPECT_EQ(analysis.topology, Topology::Ocsa);
    EXPECT_EQ(analysis.commonGateStrips, 3u);
    EXPECT_EQ(analysis.bitlines.size(), truth.bitlines.size());
    EXPECT_EQ(analysis.devices.size(), truth.devices.size());
    EXPECT_TRUE(analysis.crossCouplingConsistent());

    // A voxelization error is passed on as a typed error.
    const auto bad_pitch =
        re::analyzeGdsFile("/tmp/hifi_gds_input.gds", 0.0);
    ASSERT_FALSE(bad_pitch.ok());
    EXPECT_EQ(bad_pitch.error().code,
              common::ErrorCode::InvalidArgument);
}

TEST(RegionAnalysis, EmptyVolumeIsATypedError)
{
    const image::Volume3D empty(0, 4, 4);
    const re::PlanarScales scales{5.0, 5.0, 5.0};
    EXPECT_EQ(re::analyzeRegion(empty, scales, Detector::Se).error().code,
              common::ErrorCode::InvalidArgument);
    EXPECT_EQ(
        re::analyzeMatRegion(empty, scales, Detector::Bse).error().code,
        common::ErrorCode::InvalidArgument);
}

TEST(LayoutExport, ReconstructedLayoutRoundTripsThroughGds)
{
    re::RegionAnalysis analysis;
    analysis.bitlines.push_back({0, 10, 2000, 31});
    analysis.bitlines.push_back({0, 42, 2000, 63});
    re::ExtractedDevice dev;
    dev.role = Role::Nsa;
    dev.gate = {500, 15, 660, 55};
    dev.wNm = 160;
    dev.lNm = 40;
    analysis.devices.push_back(dev);
    re::ExtractedDevice strip;
    strip.role = Role::Precharge;
    strip.gate = {1500, 10, 1533, 60};
    strip.wNm = 48;
    strip.lNm = 33;
    analysis.devices.push_back(strip);

    const auto cell = re::layoutFromAnalysis(analysis, "RE_TEST");
    EXPECT_EQ(cell->countOnLayer(layout::Layer::Metal1), 2u);
    EXPECT_EQ(cell->countOnLayer(layout::Layer::Gate), 2u);
    EXPECT_EQ(cell->countOnLayer(layout::Layer::Active), 2u);

    re::writeAnalysisGds("/tmp/hifi_re_layout.gds", analysis,
                         "RE_TEST");
    const auto back = layout::readGdsFile("/tmp/hifi_re_layout.gds");
    EXPECT_EQ(back.name(), "RE_TEST");
    EXPECT_EQ(back.shapes().size(), cell->flatten().size());
}

// ---- Topology template matching (Section V-A) ---------------------------

TEST(TopologyMatch, LibraryContainsDeployedDesigns)
{
    const auto &lib = re::topologyLibrary();
    ASSERT_GE(lib.size(), 4u);
    bool has_classic = false, has_ocsa = false;
    for (const auto &t : lib) {
        if (t.name == "classic SA")
            has_classic = true;
        if (t.name == "offset-cancellation SA") {
            has_ocsa = true;
            EXPECT_EQ(t.commonGateComponents, 3u);
            EXPECT_FALSE(t.hasEqualizer);
        }
    }
    EXPECT_TRUE(has_classic);
    EXPECT_TRUE(has_ocsa);
}

class TemplateMatchClean : public ::testing::TestWithParam<Topology>
{
};

TEST_P(TemplateMatchClean, PinpointsTheGeneratedDesign)
{
    // Build a clean analysis straight from the generator's truth.
    fab::SaRegionSpec spec;
    spec.topology = GetParam();
    spec.pairs = 3;
    fab::SaRegionTruth truth;
    fab::buildSaRegion(spec, truth);

    re::RegionAnalysis analysis;
    analysis.topology = truth.topology;
    analysis.commonGateStrips = truth.commonGateComponents;
    for (const auto &d : truth.devices) {
        re::ExtractedDevice dev;
        dev.role = d.role;
        dev.wNm = 100;
        dev.lNm = 40;
        dev.bitline = static_cast<long>(d.bitline);
        dev.couplesTo = static_cast<long>(d.couplesTo);
        analysis.devices.push_back(dev);
    }

    const auto scores = re::matchTopology(analysis);
    ASSERT_FALSE(scores.empty());
    const auto &best = *scores.front().candidate;
    EXPECT_EQ(best.family, GetParam());
    EXPECT_EQ(best.name, GetParam() == Topology::Ocsa
                             ? "offset-cancellation SA"
                             : "classic SA");
    EXPECT_GT(scores.front().score, 0.9);
    // And decisively: the runner-up scores clearly lower.
    EXPECT_GT(scores.front().score, scores[1].score + 0.1);
}

INSTANTIATE_TEST_SUITE_P(Both, TemplateMatchClean,
                         ::testing::Values(Topology::Classic,
                                           Topology::Ocsa));

TEST(TopologyMatch, RejectsWrongFamilyWithMismatchNotes)
{
    re::RegionAnalysis analysis;
    analysis.topology = Topology::Ocsa;
    analysis.commonGateStrips = 3;
    for (int pair = 0; pair < 2; ++pair) {
        for (int i = 0; i < 2; ++i) {
            re::ExtractedDevice n;
            n.role = Role::Nsa;
            n.bitline = 2 * pair + i;
            n.couplesTo = 2 * pair + 1 - i;
            analysis.devices.push_back(n);
            re::ExtractedDevice p;
            p.role = Role::Psa;
            p.bitline = 2 * pair + i;
            p.couplesTo = 2 * pair + 1 - i;
            analysis.devices.push_back(p);
        }
        analysis.devices.push_back({Role::Iso, {}, 50, 35, 0, 0});
        analysis.devices.push_back({Role::Oc, {}, 50, 35, 0, 0});
        analysis.devices.push_back(
            {Role::Precharge, {}, 50, 35, 0, 0});
        analysis.devices.push_back({Role::Column, {}, 90, 35, 0, 0});
        analysis.devices.push_back({Role::Column, {}, 90, 35, 1, 1});
    }
    const auto scores = re::matchTopology(analysis);
    // The classic template must carry mismatch notes.
    for (const auto &ms : scores) {
        if (ms.candidate->name == "classic SA") {
            EXPECT_LT(ms.score, scores.front().score);
            EXPECT_FALSE(ms.mismatches.empty());
        }
    }
    EXPECT_EQ(re::bestMatch(analysis).family, Topology::Ocsa);
}

// ---- MAT analysis (Fig. 7a) ----------------------------------------------

TEST(MatAnalysis, RecoversHoneycombCapacitorsAndGrid)
{
    // Clean render of a C5-like MAT slice.
    const auto &chip = models::chip("C5");
    fab::MatSpec spec = fab::MatSpec::fromChip(chip, 8, 12);
    const auto cell = fab::buildMatSlice(spec);

    fab::VoxelizeParams vox;
    vox.voxelNm = 4.0;
    vox.zMaxNm = 280.0;
    const auto mats =
        fab::voxelize(*cell, cell->boundingBox(), vox).takeValue();
    image::Volume3D intensity(mats.nx(), mats.ny(), mats.nz());
    for (size_t z = 0; z < mats.nz(); ++z)
        for (size_t y = 0; y < mats.ny(); ++y)
            for (size_t x = 0; x < mats.nx(); ++x)
                intensity.at(x, y, z) = static_cast<float>(
                    scope::materialContrast(
                        fab::voxelMaterial(mats.at(x, y, z)),
                        Detector::Bse));

    re::PlanarScales scales{4.0, 4.0, 4.0};
    const auto mat =
        re::analyzeMatRegion(intensity, scales, Detector::Bse)
            .takeValue();

    EXPECT_EQ(mat.bitlines, 8u);
    EXPECT_EQ(mat.wordlines, 12u);
    EXPECT_EQ(mat.capacitors, 8u * 12u);
    EXPECT_NEAR(mat.blPitchNm, chip.blPitchNm, 3.0);
    EXPECT_TRUE(mat.honeycomb);
    EXPECT_NEAR(mat.rowOffsetNm, chip.blPitchNm / 2.0,
                0.25 * chip.blPitchNm);
}

// ---- Measurement campaign (Section V-B) --------------------------------

TEST(Measure, CampaignHasExactly835Measurements)
{
    const auto campaign = re::measurementCampaign();
    EXPECT_EQ(campaign.totalMeasurements, re::kPaperMeasurements);
}

TEST(Measure, RepeatedMeasurementsClusterAroundNominal)
{
    const auto campaign = re::measurementCampaign(7);
    EXPECT_LT(campaign.meanRelativeError(), 0.10);
    size_t repeated = 0;
    for (const auto &rec : campaign.records) {
        if (rec.samples.count() == 10) {
            ++repeated;
            EXPECT_NEAR(rec.samples.mean(), rec.nominalNm,
                        4.0 * rec.samples.stddev() + 6.0)
                << rec.chipId << " " << rec.target;
        }
    }
    EXPECT_EQ(repeated, 78u); // 39 role instances x 2 dims
}

TEST(Measure, CampaignIsDeterministicPerSeed)
{
    const auto a = re::measurementCampaign(3);
    const auto b = re::measurementCampaign(3);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t i = 0; i < a.records.size(); ++i)
        EXPECT_DOUBLE_EQ(a.records[i].samples.mean(),
                         b.records[i].samples.mean());
}

TEST(Measure, CoversAllSixChips)
{
    const auto campaign = re::measurementCampaign();
    for (const auto &chip : models::allChips()) {
        size_t n = 0;
        for (const auto &rec : campaign.records)
            if (rec.chipId == chip.id)
                ++n;
        EXPECT_GE(n, 10u) << chip.id;
    }
}

} // namespace
