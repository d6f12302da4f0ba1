/**
 * @file
 * Tests for the virtual fab (SA-region and MAT generators, voxelizer)
 * and the microscope simulator (SEM contrast, FIB acquisition, cost
 * model, ROI search, post-processing).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/telemetry.hh"
#include "core/pipeline.hh"
#include "fab/defects.hh"
#include "fab/mat.hh"
#include "image/noise.hh"
#include "image/registration.hh"
#include "fab/sa_region.hh"
#include "fab/voxelizer.hh"
#include "scope/fib.hh"
#include "scope/postprocess.hh"
#include "scope/prep.hh"
#include "scope/roi_search.hh"
#include "scope/sem.hh"

namespace
{

using namespace hifi;
using models::Detector;
using models::Role;
using models::Topology;

// ---- fab -------------------------------------------------------------

TEST(SaRegion, SpecFromChipCopiesTopologyAndDims)
{
    const auto spec =
        fab::SaRegionSpec::fromChip(models::chip("A4"), 4);
    EXPECT_EQ(spec.topology, Topology::Ocsa);
    EXPECT_DOUBLE_EQ(spec.nsa.w, 210);
    EXPECT_DOUBLE_EQ(spec.iso.l, 36);
    EXPECT_DOUBLE_EQ(spec.blPitchNm, 39);
}

class SaRegionTopology
    : public ::testing::TestWithParam<models::Topology>
{
};

TEST_P(SaRegionTopology, GeneratesExpectedStructure)
{
    fab::SaRegionSpec spec;
    spec.topology = GetParam();
    spec.pairs = 4;
    fab::SaRegionTruth truth;
    const auto cell = fab::buildSaRegion(spec, truth);

    const bool ocsa = GetParam() == Topology::Ocsa;
    EXPECT_EQ(truth.bitlines.size(), 8u);
    EXPECT_EQ(truth.countRole(Role::Column), 8u);
    EXPECT_EQ(truth.countRole(Role::Nsa), 8u);
    EXPECT_EQ(truth.countRole(Role::Psa), 8u);
    EXPECT_EQ(truth.countRole(Role::Precharge), 4u);
    EXPECT_EQ(truth.countRole(Role::Lsa), 4u);
    EXPECT_EQ(truth.countRole(Role::Iso), ocsa ? 4u : 0u);
    EXPECT_EQ(truth.countRole(Role::Oc), ocsa ? 4u : 0u);
    EXPECT_EQ(truth.countRole(Role::Equalizer), ocsa ? 0u : 4u);
    EXPECT_EQ(truth.commonGateComponents, ocsa ? 3u : 1u);

    // All devices inside the region.
    for (const auto &d : truth.devices) {
        EXPECT_TRUE(truth.region.overlaps(d.gate));
        EXPECT_TRUE(truth.region.overlaps(d.active));
    }
    fab::SaRegionSpec bad;
    bad.pairs = 0;
    EXPECT_THROW(fab::buildSaRegion(bad, truth),
                 std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Both, SaRegionTopology,
                         ::testing::Values(Topology::Classic,
                                           Topology::Ocsa));

TEST(SaRegion, ColumnsAreFirstAfterTheMat)
{
    // Section V-C: column transistors are the first elements the
    // bitlines meet.
    fab::SaRegionSpec spec;
    spec.pairs = 2;
    fab::SaRegionTruth truth;
    fab::buildSaRegion(spec, truth);

    double col_max = 0.0, others_min = 1e18;
    for (const auto &d : truth.devices) {
        if (d.role == Role::Column)
            col_max = std::max(col_max, d.gate.x1);
        else
            others_min = std::min(others_min, d.gate.x0);
    }
    EXPECT_LT(col_max, others_min);
}

TEST(SaRegion, LatchCrossCouplingRecordedInTruth)
{
    fab::SaRegionSpec spec;
    spec.pairs = 3;
    fab::SaRegionTruth truth;
    fab::buildSaRegion(spec, truth);
    for (const auto &d : truth.devices) {
        if (d.role == Role::Nsa || d.role == Role::Psa) {
            EXPECT_NE(d.bitline, d.couplesTo);
            EXPECT_EQ(d.bitline / 2, d.couplesTo / 2); // same pair
        }
    }
}

TEST(SaRegion, NoDesignRuleOverlapsWithinLayers)
{
    // Distinct-net gates must not overlap each other.
    fab::SaRegionSpec spec;
    spec.pairs = 4;
    fab::SaRegionTruth truth;
    const auto cell = fab::buildSaRegion(spec, truth);
    const auto shapes = cell->flatten();
    for (size_t i = 0; i < shapes.size(); ++i) {
        for (size_t j = i + 1; j < shapes.size(); ++j) {
            const auto &a = shapes[i];
            const auto &b = shapes[j];
            if (a.layer != b.layer ||
                a.layer != layout::Layer::Gate)
                continue;
            if (!a.net.empty() && a.net == b.net)
                continue;
            EXPECT_FALSE(a.rect.overlaps(b.rect))
                << a.net << " vs " << b.net;
        }
    }
}

TEST(Mat, HoneycombCapacitorsAndGrid)
{
    fab::MatSpec spec;
    spec.bitlines = 4;
    spec.wordlines = 6;
    const auto cell = fab::buildMatSlice(spec);
    EXPECT_EQ(cell->countOnLayer(layout::Layer::Metal1), 4u);
    EXPECT_EQ(cell->countOnLayer(layout::Layer::Gate), 6u);
    EXPECT_EQ(cell->countOnLayer(layout::Layer::Capacitor), 24u);

    // Honeycomb: odd-column capacitors offset by half a pitch.
    const auto flat = cell->flatten();
    double even_y = -1.0, odd_y = -1.0;
    for (const auto &s : flat) {
        if (s.layer != layout::Layer::Capacitor)
            continue;
        if (even_y < 0)
            even_y = s.rect.center().y;
        else if (odd_y < 0 && s.rect.center().x > even_y)
            odd_y = s.rect.center().y;
    }
    EXPECT_THROW(fab::buildMatSlice({0, 0}), std::invalid_argument);
}

TEST(Voxelizer, PaintsMaterialsAtLayerHeights)
{
    layout::Cell cell("c");
    cell.addShape(common::Rect(0, 0, 50, 50), layout::Layer::Metal1);
    cell.addShape(common::Rect(0, 0, 50, 50), layout::Layer::Active);

    fab::VoxelizeParams params;
    params.voxelNm = 10.0;
    const auto vol =
        fab::voxelize(cell, common::Rect(0, 0, 100, 100), params)
            .value();
    EXPECT_EQ(vol.nx(), 10u);
    EXPECT_EQ(vol.ny(), 10u);

    const auto m1z = layout::layerZ(layout::Layer::Metal1);
    const auto z_m1 = static_cast<size_t>((m1z.z0 + 5.0) / 10.0);
    EXPECT_EQ(fab::voxelMaterial(vol.at(2, 2, z_m1)),
              fab::Material::Copper);
    const auto az = layout::layerZ(layout::Layer::Active);
    const auto z_act = static_cast<size_t>((az.z0 + 5.0) / 10.0);
    EXPECT_EQ(fab::voxelMaterial(vol.at(2, 2, z_act)),
              fab::Material::Silicon);
    // Outside the shape: oxide.
    EXPECT_EQ(fab::voxelMaterial(vol.at(8, 8, z_m1)),
              fab::Material::Oxide);
    EXPECT_EQ(fab::voxelize(cell, common::Rect(), params).error().code,
              common::ErrorCode::InvalidArgument);
}

TEST(Voxelizer, MaterialDecodingClamps)
{
    EXPECT_EQ(fab::voxelMaterial(-3.0f), fab::Material::Oxide);
    EXPECT_EQ(fab::voxelMaterial(99.0f), fab::Material::Oxide);
    EXPECT_EQ(fab::voxelMaterial(1.2f), fab::Material::Silicon);
}

bool
sameVoxels(const image::Volume3D &a, const image::Volume3D &b)
{
    if (a.nx() != b.nx() || a.ny() != b.ny() || a.nz() != b.nz())
        return false;
    for (size_t z = 0; z < a.nz(); ++z)
        for (size_t y = 0; y < a.ny(); ++y)
            for (size_t x = 0; x < a.nx(); ++x) {
                const float av = a.at(x, y, z);
                const float bv = b.at(x, y, z);
                if (std::memcmp(&av, &bv, sizeof(float)) != 0)
                    return false;
            }
    return true;
}

TEST(Voxelizer, RejectsOutOfBoundsShapes)
{
    layout::Cell cell("c");
    cell.addShape(common::Rect(0, 0, 110, 50),
                  layout::Layer::Metal1); // 10 nm past the bounds
    const common::Rect bounds(0, 0, 100, 100);

    fab::VoxelizeParams params;
    params.voxelNm = 10.0;
    params.outOfBoundsTolNm = 5.0;
    const auto rejected = fab::voxelize(cell, bounds, params);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.error().code,
              common::ErrorCode::FailedPrecondition);
    EXPECT_NE(rejected.error().message.find("extends"),
              std::string::npos);

    // Within the tolerance the shape is clipped to the bounds.
    params.outOfBoundsTolNm = 20.0;
    const auto clipped = fab::voxelize(cell, bounds, params);
    ASSERT_TRUE(clipped.ok());
    EXPECT_EQ(clipped.value().nx(), 10u);
    const auto m1z = layout::layerZ(layout::Layer::Metal1);
    const auto z_m1 = static_cast<size_t>((m1z.z0 + 5.0) / 10.0);
    EXPECT_EQ(fab::voxelMaterial(clipped.value().at(9, 2, z_m1)),
              fab::Material::Copper);
}

TEST(Voxelizer, InvalidInputsAreTypedErrors)
{
    layout::Cell cell("c");
    cell.addShape(common::Rect(0, 0, 50, 50), layout::Layer::Metal1);
    const common::Rect bounds(0, 0, 100, 100);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();

    const auto invalid = [&](const common::Rect &r,
                             const fab::VoxelizeParams &p) {
        const auto v = fab::voxelize(cell, r, p);
        return !v.ok() &&
            v.error().code == common::ErrorCode::InvalidArgument;
    };
    const fab::VoxelizeParams good{10.0, 270.0};
    ASSERT_TRUE(fab::voxelize(cell, bounds, good).ok());
    EXPECT_TRUE(invalid(common::Rect(), good));
    EXPECT_TRUE(invalid(common::Rect(0, 0, inf, 100), good));
    EXPECT_TRUE(invalid(common::Rect(0, 0, nan, 100), good));
    for (const double bad : {0.0, -5.0, inf, nan}) {
        fab::VoxelizeParams voxel = good;
        voxel.voxelNm = bad;
        EXPECT_TRUE(invalid(bounds, voxel)) << "voxelNm " << bad;
        fab::VoxelizeParams zmax = good;
        zmax.zMaxNm = bad;
        EXPECT_TRUE(invalid(bounds, zmax)) << "zMaxNm " << bad;
    }
    // A zero z extent once escaped as an exception from the volume
    // constructor.
    EXPECT_TRUE(invalid(bounds, {5.0, 0.0}));
    for (const double bad : {-1.0, nan}) {
        fab::VoxelizeParams tol = good;
        tol.outOfBoundsTolNm = bad;
        EXPECT_TRUE(invalid(bounds, tol)) << "tolerance " << bad;
    }
}

TEST(Voxelizer, SaRegionsVoxelizeWithinTheirOwnOverhang)
{
    // Every chip at every corner, stacked or not: the region's own
    // voxelize settings accept its layout.
    for (const char *id : {"A4", "B4", "C4", "A5", "B5", "C5"}) {
        const models::ChipSpec &chip = models::chip(id);
        for (const auto corner :
             {models::ProcessCorner::Slow, models::ProcessCorner::Typical,
              models::ProcessCorner::Fast}) {
            for (const size_t sas : {1u, 2u}) {
                fab::SaRegionSpec spec =
                    fab::SaRegionSpec::fromChip(chip, 2);
                spec.stackedSas = sas;
                spec.variation =
                    models::cornerVariation(chip.vendor, corner);
                spec.jitterSeed = 7;
                fab::SaRegionTruth truth;
                const auto cell = fab::buildSaRegion(spec, truth);
                EXPECT_TRUE(
                    fab::voxelize(*cell, truth.region, truth.voxelize)
                        .ok())
                    << id << " corner " << static_cast<int>(corner)
                    << " sas " << sas;
            }
        }
    }
}

TEST(Voxelizer, ZeroLerSigmaIsBitIdenticalToCleanRaster)
{
    fab::SaRegionSpec spec;
    spec.pairs = 2;
    fab::SaRegionTruth truth;
    const auto cell = fab::buildSaRegion(spec, truth);

    fab::VoxelizeParams clean = truth.voxelize;
    clean.voxelNm = 5.0;
    fab::VoxelizeParams ler0 = clean;
    ler0.lerSigmaNm = 0.0;
    ler0.lerSeed = 77; // must not matter at sigma = 0

    const auto a = fab::voxelize(*cell, truth.region, clean).value();
    const auto b = fab::voxelize(*cell, truth.region, ler0).value();
    EXPECT_TRUE(sameVoxels(a, b));
}

TEST(Voxelizer, LerRasterIsThreadCountInvariant)
{
    fab::SaRegionSpec spec;
    spec.pairs = 2;
    fab::SaRegionTruth truth;
    const auto cell = fab::buildSaRegion(spec, truth);

    fab::VoxelizeParams params = truth.voxelize;
    params.voxelNm = 5.0;
    params.lerSigmaNm = 2.0;
    params.lerCorrLenNm = 40.0;
    params.lerSeed = 9;

    image::Volume3D one, many;
    {
        common::ScopedThreads st(1);
        one = fab::voxelize(*cell, truth.region, params).value();
    }
    {
        common::ScopedThreads st(8);
        many = fab::voxelize(*cell, truth.region, params).value();
    }
    EXPECT_TRUE(sameVoxels(one, many));
    // And the roughness actually moved some edges.
    params.lerSeed = 10;
    const auto other =
        fab::voxelize(*cell, truth.region, params).value();
    EXPECT_FALSE(sameVoxels(one, other));
}

// ---- silicon defects ---------------------------------------------------

TEST(Defects, PlantsRequestedMixInsideTheRegion)
{
    fab::SaRegionSpec spec =
        fab::SaRegionSpec::fromChip(models::chip("B5"), 4);
    fab::SaRegionTruth truth;
    const auto cell = fab::buildSaRegion(spec, truth);
    fab::VoxelizeParams vparams = truth.voxelize;
    vparams.voxelNm = 4.0;
    auto baseline =
        fab::voxelize(*cell, truth.region, vparams).takeValue();
    auto vol = baseline;

    fab::DefectParams dp;
    dp.seed = 3;
    dp.bitlineShorts = 1;
    dp.bitlineOpens = 1;
    dp.missingVias = 1;
    dp.particles = 1;
    const auto planted =
        fab::plantDefects(vol, truth, vparams.voxelNm, dp);
    ASSERT_TRUE(planted.ok()) << planted.error().message;
    ASSERT_EQ(planted.value().size(), 4u);

    const common::Rect wiggle = truth.region.inflate(1.0);
    size_t kinds_seen = 0;
    for (const auto &d : planted.value()) {
        kinds_seen |= 1u << static_cast<unsigned>(d.kind);
        EXPECT_FALSE(d.footprint.empty());
        EXPECT_GE(d.footprint.x0, wiggle.x0);
        EXPECT_LE(d.footprint.x1, wiggle.x1);
        if (d.kind == fab::DefectKind::BitlineShort) {
            ASSERT_GE(d.bitlineA, 0);
            ASSERT_GE(d.bitlineB, 0);
            EXPECT_EQ(d.bitlineB, d.bitlineA + 1);
        }
    }
    EXPECT_EQ(kinds_seen, 0b1111u); // every kind planted once

    // The stamp actually changed the silicon.
    EXPECT_FALSE(sameVoxels(vol, baseline));

    // Same seed, same silicon: the stamping is deterministic.
    auto again = baseline;
    const auto replay =
        fab::plantDefects(again, truth, vparams.voxelNm, dp);
    ASSERT_TRUE(replay.ok());
    EXPECT_TRUE(sameVoxels(vol, again));
}

TEST(Defects, ParamValidationAndTypedErrors)
{
    fab::DefectParams dp;
    dp.particleDiameterNm = 0.0;
    EXPECT_TRUE(fab::validate(dp).has_value());

    fab::DefectParams many;
    many.bitlineOpens = 65;
    EXPECT_TRUE(fab::validate(many).has_value());

    // Empty volume is a typed error, not a crash.
    image::Volume3D empty;
    fab::SaRegionTruth truth;
    fab::DefectParams one;
    one.particles = 1;
    const auto r = fab::plantDefects(empty, truth, 5.0, one);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, common::ErrorCode::InvalidArgument);

    // A region with a single bitline cannot host a short.
    fab::SaRegionSpec spec;
    spec.pairs = 2;
    fab::SaRegionTruth small;
    const auto cell = fab::buildSaRegion(spec, small);
    const fab::VoxelizeParams vparams = small.voxelize;
    auto vol = fab::voxelize(*cell, small.region, vparams).takeValue();
    fab::SaRegionTruth no_bl = small;
    no_bl.bitlines.clear();
    fab::DefectParams shorts;
    shorts.bitlineShorts = 1;
    const auto impossible =
        fab::plantDefects(vol, no_bl, vparams.voxelNm, shorts);
    ASSERT_FALSE(impossible.ok());
    EXPECT_EQ(impossible.error().code,
              common::ErrorCode::FailedPrecondition);
}

// ---- scope ------------------------------------------------------------

TEST(Fib, MiBinsAboveCapAreATypedError)
{
    // QC would zero-fill a bins^2 joint histogram per check: the cap
    // rejects a 257-bin request up front instead of allocating it.
    scope::RecoveryParams recovery;
    recovery.qc.miBins = image::kMaxMiBins;
    EXPECT_FALSE(scope::validate(recovery).has_value());
    recovery.qc.miBins = image::kMaxMiBins + 1;
    ASSERT_TRUE(scope::validate(recovery).has_value());
    EXPECT_EQ(scope::validate(recovery)->code,
              common::ErrorCode::InvalidArgument);

    core::PipelineConfig config;
    config.recovery.qc.miBins = image::kMaxMiBins + 1;
    const auto err = core::validateConfig(config);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, common::ErrorCode::InvalidArgument);
}

TEST(Sem, ContrastDistinguishesMaterialsPerDetector)
{
    using fab::Material;
    // SE orders by conductivity: copper above poly above oxide.
    EXPECT_GT(scope::materialContrast(Material::Copper, Detector::Se),
              scope::materialContrast(Material::Polysilicon,
                                      Detector::Se));
    // BSE orders by atomic number: tungsten brightest.
    EXPECT_GT(scope::materialContrast(Material::Tungsten,
                                      Detector::Bse),
              scope::materialContrast(Material::Copper,
                                      Detector::Bse));
    // Round trip through classification.
    for (size_t m = 0; m < fab::kNumMaterials; ++m) {
        const auto mat = static_cast<Material>(m);
        for (auto det : {Detector::Se, Detector::Bse}) {
            EXPECT_EQ(scope::classifyIntensity(
                          scope::materialContrast(mat, det), det),
                      mat);
        }
    }
}

TEST(Sem, SliceAveragingEnablesSubSliceEdges)
{
    // A material edge inside the slice produces an intermediate
    // intensity, which the measurement stage interpolates.
    image::Volume3D vol(8, 4, 4,
                        static_cast<float>(fab::Material::Oxide));
    for (size_t x = 3; x < 8; ++x)
        for (size_t y = 0; y < 4; ++y)
            for (size_t z = 0; z < 4; ++z)
                vol.at(x, y, z) =
                    static_cast<float>(fab::Material::Copper);

    scope::SemParams sem;
    sem.detector = Detector::Se;
    // Slice covering x in [2, 6): 1 of 4 voxels oxide.
    const auto img = scope::semImageClean(vol, 2, 4, sem);
    const double cu =
        scope::materialContrast(fab::Material::Copper, Detector::Se);
    const double ox =
        scope::materialContrast(fab::Material::Oxide, Detector::Se);
    EXPECT_NEAR(img.at(1, 1), 0.25 * ox + 0.75 * cu, 1e-6);
}

TEST(Sem, SeQualityCompressesContrast)
{
    // Section IV-B: vendor B/C materials give poor SE contrast.
    image::Volume3D vol(4, 2, 2,
                        static_cast<float>(fab::Material::Copper));
    scope::SemParams good;
    good.detector = Detector::Se;
    good.seQuality = 1.0;
    scope::SemParams poor = good;
    poor.seQuality = 0.45;

    const auto img_good = scope::semImageClean(vol, 0, 2, good);
    const auto img_poor = scope::semImageClean(vol, 0, 2, poor);
    const double pivot = 0.45;
    EXPECT_LT(std::abs(img_poor.at(0, 0) - pivot),
              std::abs(img_good.at(0, 0) - pivot));

    // BSE is unaffected by the sample's SE quality.
    scope::SemParams bse = poor;
    bse.detector = Detector::Bse;
    const auto img_bse = scope::semImageClean(vol, 0, 2, bse);
    EXPECT_FLOAT_EQ(img_bse.at(0, 0),
                    static_cast<float>(scope::materialContrast(
                        fab::Material::Copper, Detector::Bse)));
}

TEST(Sem, VendorSeQualityInDatasets)
{
    // Vendor A imaged with SE (quality 1); B and C needed BSE.
    EXPECT_DOUBLE_EQ(models::chip("A4").seQuality, 1.0);
    EXPECT_DOUBLE_EQ(models::chip("A5").seQuality, 1.0);
    for (const char *id : {"B4", "C4", "B5", "C5"})
        EXPECT_LT(models::chip(id).seQuality, 0.6) << id;
}

TEST(Fib, AcquisitionRecordsBoundedDrift)
{
    image::Volume3D vol(64, 16, 16, 0.0f);
    scope::FibSemParams params;
    params.sliceVoxels = 2;
    params.driftProbability = 0.9; // drift a lot
    params.maxDriftPx = 3;
    const auto stack = scope::acquire(vol, params, scope::FaultParams{},
                                      scope::RecoveryParams{}, 5)
                           .stack;
    EXPECT_EQ(stack.slices.size(), 32u);
    ASSERT_EQ(stack.trueDrift.size(), 32u);
    for (const auto &d : stack.trueDrift) {
        EXPECT_LE(std::abs(d.first), 3);
        EXPECT_LE(std::abs(d.second), 3);
    }
    EXPECT_EQ(stack.trueDrift.front(), (std::pair<long, long>{0, 0}));
}

TEST(Fib, CampaignCostMatchesPaperScale)
{
    // Section IV-B: the 100 um^2 scans (A4, A5) took more than 24 h;
    // the reduced 30 um^2 scans stay well below that.
    for (const auto &chip : models::allChips()) {
        const auto cost = scope::campaignCost(chip);
        if (chip.roiAreaUm2 >= 100.0) {
            EXPECT_GT(cost.totalHours, 24.0) << chip.id;
        } else {
            EXPECT_LT(cost.totalHours, 24.0) << chip.id;
        }
        EXPECT_GT(cost.slices, 100u);
    }
}

TEST(Fib, FinerSlicesCostMore)
{
    models::ChipSpec coarse = models::chip("C4"); // 20 nm slices
    models::ChipSpec fine = coarse;
    fine.sliceNm = 10.0;
    EXPECT_GT(scope::campaignCost(fine).totalHours,
              scope::campaignCost(coarse).totalHours);
}

/// Run the post-processing chain into a memory-only tile store.
scope::StreamedPostprocessResult
postprocessInRam(const image::SliceStack &stack)
{
    image::TileStore store(image::TileStoreConfig{});
    auto result = scope::postprocessStreamed(stack, store);
    EXPECT_TRUE(result.ok()) << result.error().message;
    return result.takeValue();
}

TEST(Postprocess, EmptyStackIsWellDefinedNoOp)
{
    image::SliceStack stack;
    const auto result = postprocessInRam(stack);
    EXPECT_TRUE(result.volume.empty());
    EXPECT_TRUE(result.shifts.empty());
    EXPECT_EQ(result.alignmentResidualPx, 0.0);
}

TEST(Postprocess, SingleSliceStackIsIdentity)
{
    // One slice has no neighbour to register against: the chain must
    // return the identity shift and a zero residual, not fall through
    // the MI alignment path.
    image::Volume3D vol(4, 12, 10, 0.3f);
    scope::FibSemParams params;
    params.sliceVoxels = 4;
    const auto stack = scope::acquire(vol, params, scope::FaultParams{},
                                      scope::RecoveryParams{}, 3)
                           .stack;
    ASSERT_EQ(stack.slices.size(), 1u);

    const auto result = postprocessInRam(stack);
    ASSERT_EQ(result.shifts.size(), 1u);
    EXPECT_EQ(result.shifts[0], (std::pair<long, long>{0, 0}));
    EXPECT_EQ(result.alignmentResidualPx, 0.0);
    EXPECT_EQ(result.volume.nx(), 1u);
    EXPECT_EQ(result.volume.ny(), 12u);
    EXPECT_EQ(result.volume.nz(), 10u);
}

TEST(Postprocess, MeetsAlignmentBudgetOnSyntheticStack)
{
    // Build a drifting noisy stack over a structured volume and check
    // the chain recovers the drift within the paper's 0.77% budget.
    image::Volume3D vol(96, 40, 40, 0.1f);
    for (size_t x = 0; x < 96; ++x)
        for (size_t y = 4; y < 36; y += 8)
            for (size_t z = 10; z < 20; ++z)
                for (size_t yy = y; yy < y + 4; ++yy)
                    vol.at(x, yy, z) = 0.8f;

    scope::FibSemParams params;
    params.sliceVoxels = 2;
    params.driftProbability = 0.5;
    const auto stack = scope::acquire(vol, params, scope::FaultParams{},
                                      scope::RecoveryParams{}, 6)
                           .stack;

    const auto result = postprocessInRam(stack);
    EXPECT_LT(result.alignmentResidualPx, 0.5);
    EXPECT_TRUE(result.meetsAlignmentBudget(512));
    EXPECT_EQ(result.volume.nx(), stack.slices.size());
}

// ---- ROI search (Fig. 6) ----------------------------------------------

TEST(RoiSearch, RegionClassification)
{
    const auto &chip = models::chip("C5");
    EXPECT_EQ(scope::regionAlongBitlines(chip, 0.0),
              scope::RegionKind::Mat);
    EXPECT_EQ(scope::regionAlongBitlines(chip,
                                         chip.matHeightNm + 10.0),
              scope::RegionKind::SaLogic);
    EXPECT_EQ(scope::regionAlongWordlines(chip,
                                          chip.matWidthNm + 10.0),
              scope::RegionKind::RowDriverLogic);
    // Periodicity.
    const double period = chip.matHeightNm + chip.saHeightNm;
    EXPECT_EQ(scope::regionAlongBitlines(chip, 3 * period + 10.0),
              scope::RegionKind::Mat);
}

class RoiSearchPerChip : public ::testing::TestWithParam<const char *>
{
};

TEST_P(RoiSearchPerChip, FindsSaAsTheWiderLogicStrip)
{
    const auto &chip = models::chip(GetParam());
    const auto result = scope::roiSearch(chip);

    // The SA strip is wider than the row drivers on every chip.
    EXPECT_TRUE(result.saIsSecondDirection);
    EXPECT_NEAR(result.w1Nm, chip.rowDriverWidthNm, 120.0);
    EXPECT_NEAR(result.w2Nm, chip.saHeightNm, 120.0);
    // Paper: identification takes no more than 2 hours per chip.
    EXPECT_LE(result.hoursSpent, 2.0);
    EXPECT_GT(result.crossSections, 10u);
}

INSTANTIATE_TEST_SUITE_P(AllChips, RoiSearchPerChip,
                         ::testing::Values("A4", "B4", "C4", "A5",
                                           "B5", "C5"));

TEST(Prep, PlanCoversDecapAndIdentification)
{
    // MAT-visible chips (A4, C4, C5) identify the ROI optically;
    // the rest need the Fig. 6 blind search.  Either way, the paper's
    // <= 2 h identification budget holds.
    for (const auto &chip : models::allChips()) {
        const auto plan = scope::prepareChip(chip);
        EXPECT_EQ(plan.matsVisible, chip.matsVisible) << chip.id;
        EXPECT_GE(plan.steps.size(), 4u);
        EXPECT_GT(plan.prepMinutes(), 30.0);
        EXPECT_LE(plan.identificationHours(), 2.0) << chip.id;
        if (!chip.matsVisible) {
            EXPECT_TRUE(plan.blindSearch.saIsSecondDirection)
                << chip.id;
        } else {
            EXPECT_EQ(plan.blindSearch.crossSections, 0u);
            EXPECT_LT(plan.identificationHours(), 1.0);
        }
    }
}

// ---- Imaging fast paths (contrast LUT, clean-frame cache) ----------

TEST(Sem, ContrastLutMatchesSwitchExactly)
{
    for (const auto det : {Detector::Se, Detector::Bse}) {
        const scope::ContrastLut lut = scope::contrastLut(det);
        for (size_t m = 0; m < fab::kNumMaterials; ++m) {
            EXPECT_EQ(lut[m],
                      scope::materialContrast(
                          static_cast<fab::Material>(m), det))
                << "material " << m;
        }
    }
}

TEST(Sem, ClassifyIntensityLutOverloadMatches)
{
    for (const auto det : {Detector::Se, Detector::Bse}) {
        const scope::ContrastLut lut = scope::contrastLut(det);
        for (const bool exclude : {false, true}) {
            for (int i = -5; i <= 105; ++i) {
                const double intensity = i / 100.0;
                EXPECT_EQ(scope::classifyIntensity(intensity, det,
                                                   exclude),
                          scope::classifyIntensity(intensity, lut,
                                                   exclude))
                    << "intensity " << intensity;
            }
        }
    }
}

namespace
{

/// Structured fault-exercising scene (mirrors test_robustness.cc).
image::Volume3D
cacheTestScene()
{
    const size_t nx = 60, ny = 32, nz = 40;
    image::Volume3D vol(nx, ny, nz, 1.0f);
    for (size_t x = 0; x < nx; ++x) {
        for (size_t y = 0; y < ny; ++y) {
            for (size_t z = 0; z < nz; ++z) {
                float v = 1.0f;
                if (z >= 12 && z < 16)
                    v = 0.0f;
                else if (z >= 22 && z < 26)
                    v = 2.0f;
                else if (z >= 16 && z < 22 && (y + x / 2) % 10 < 2)
                    v = 3.0f;
                vol.at(x, y, z) = v;
            }
        }
    }
    return vol;
}

} // namespace

bool
bitwiseEqual(const image::Image2D &a, const image::Image2D &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
        std::memcmp(a.data().data(), b.data().data(),
                    a.size() * sizeof(float)) == 0;
}

TEST(Fib, FaultFreeFramesAreTheFaultedRunsFirstAttempts)
{
    // Both modes draw from the same counter-seeded substreams: with
    // faults enabled at zero rates, every slice QC accepts on its
    // first attempt is bitwise the fault-free frame at the same seed,
    // and the fault-free stack is the same at any thread count.
    const auto vol = cacheTestScene();
    scope::FibSemParams params;
    params.sliceVoxels = 2;
    params.driftProbability = 0.6;
    params.maxDriftPx = 3;
    const scope::RecoveryParams recovery;
    scope::FaultParams zero_rates = scope::FaultParams{}.scaled(0.0);
    zero_rates.enabled = true;

    const auto faulted =
        scope::acquire(vol, params, zero_rates, recovery, 77);
    const auto clean = [&] {
        common::ScopedThreads serial(1);
        return scope::acquire(vol, params, scope::FaultParams{},
                              recovery, 77);
    }();
    ASSERT_EQ(faulted.stack.slices.size(), 30u);
    ASSERT_EQ(clean.stack.slices.size(), 30u);
    EXPECT_TRUE(clean.audit.empty());
    EXPECT_TRUE(clean.qc.empty());
    EXPECT_EQ(clean.retries, 0u);
    EXPECT_EQ(clean.qcConfidence, 1.0);
    size_t first_attempts = 0;
    for (size_t s = 0; s < 30; ++s) {
        const auto &prov = clean.stack.provenance.at(s);
        EXPECT_TRUE(prov.accepted && prov.attempts == 1);
        if (faulted.audit[s].attempts.size() != 1 ||
            !faulted.audit[s].accepted)
            continue;
        ++first_attempts;
        EXPECT_EQ(clean.stack.trueDrift[s], faulted.stack.trueDrift[s]);
        EXPECT_TRUE(bitwiseEqual(clean.stack.slices[s],
                                 faulted.stack.slices[s]))
            << "slice " << s;
    }
    EXPECT_GT(first_attempts, 10u);

    for (const size_t threads : {2u, 4u}) {
        common::ScopedThreads scoped(threads);
        const auto again = scope::acquire(
            vol, params, scope::FaultParams{}, recovery, 77);
        EXPECT_EQ(again.stack.trueDrift, clean.stack.trueDrift);
        for (size_t s = 0; s < 30; ++s)
            EXPECT_TRUE(bitwiseEqual(again.stack.slices[s],
                                     clean.stack.slices[s]))
                << "slice " << s << " at " << threads << " threads";
    }
}

TEST(Fib, CleanFrameCacheReturnsTheExactCleanFrame)
{
    // The cache must hand back the very frame semImageClean would
    // render: image a campaign with faults enabled at zero rates (so
    // every attempt goes through the cache and is the clean render +
    // deterministic noise) and compare slice 0's accepted frame
    // against an independent clean + noise reconstruction.
    const auto vol = cacheTestScene();
    scope::FibSemParams params;
    params.sliceVoxels = 2;
    params.driftProbability = 0.0;
    scope::FaultParams faults = scope::FaultParams{}.scaled(0.0);
    faults.enabled = true;
    const scope::RecoveryParams recovery;

    const auto robust =
        scope::acquire(vol, params, faults, recovery, 7);
    image::Image2D expected =
        scope::semImageClean(vol, 0, params.sliceVoxels, params.sem);
    const double electrons =
        params.sem.electronsPerUs * params.sem.dwellUs;
    const uint64_t frame_seed = common::Rng(7, 1).next();
    image::addSensorNoise(expected, electrons, params.sem.readNoise,
                          frame_seed);

    ASSERT_FALSE(robust.stack.slices.empty());
    ASSERT_EQ(robust.audit.front().attempts.size(), 1u);
    const auto &got = robust.stack.slices.front();
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(std::memcmp(got.data().data(),
                          expected.data().data(),
                          got.size() * sizeof(float)),
              0);
}

TEST(Fib, CleanFrameCacheCountersAppearInTelemetry)
{
    const auto vol = cacheTestScene();
    scope::FibSemParams params;
    params.sliceVoxels = 2;
    params.driftProbability = 0.3;
    scope::FaultParams faults;
    faults = faults.scaled(2.0);
    faults.enabled = true;
    const scope::RecoveryParams recovery;

    telemetry::Session session;
    const auto robust =
        scope::acquire(vol, params, faults, recovery, 42);
    const auto collected = session.finish({});

    const auto &counters = collected->metrics.counters;
    ASSERT_TRUE(counters.count("sem.clean_cache.miss"));
    ASSERT_TRUE(counters.count("sem.clean_cache.hit"));
    // Every retry re-images an unchanged mill position, so each one
    // must be a cache hit (skip-overshoot collisions can add more).
    EXPECT_GT(robust.retries, 0u);
    EXPECT_GE(counters.at("sem.clean_cache.hit"), robust.retries);
    // Misses cannot exceed one clean render per slice.
    EXPECT_LE(counters.at("sem.clean_cache.miss"),
              robust.stack.slices.size());
}

TEST(Sem, SimdShadingMatchesPortableScalarBitwise)
{
    // Odd dims plus fractional and out-of-range voxel codes: the
    // gathered LUT path must decode (round, clamp-to-Oxide) exactly
    // like the scalar voxelMaterial() loop, bit for bit.
    image::Volume3D vol(19, 13, 7);
    common::Rng rng(3, 1);
    for (size_t z = 0; z < 7; ++z)
        for (size_t y = 0; y < 13; ++y)
            for (size_t x = 0; x < 19; ++x) {
                const double u = rng.uniform();
                vol.at(x, y, z) = static_cast<float>(
                    u < 0.1 ? -2.0 + u : u * 8.0 - 0.49);
            }
    scope::SemParams sp;
    for (auto det : {Detector::Se, Detector::Bse}) {
        sp.detector = det;
        const image::Image2D fast =
            scope::semImageClean(vol, 2, 15, sp);
        common::simd::ScopedForceScalar off;
        const image::Image2D portable =
            scope::semImageClean(vol, 2, 15, sp);
        ASSERT_EQ(fast.width(), portable.width());
        ASSERT_EQ(fast.height(), portable.height());
        EXPECT_EQ(std::memcmp(fast.data().data(),
                              portable.data().data(),
                              fast.size() * sizeof(float)),
                  0)
            << "detector " << (det == Detector::Se ? "SE" : "BSE");
    }
}

} // namespace
