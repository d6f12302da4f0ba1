#include "core/stages.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/fnv.hh"
#include "common/log.hh"
#include "common/parallel.hh"
#include "fab/voxelizer.hh"
#include "re/topology_match.hh"
#include "scope/fib.hh"

namespace hifi
{
namespace core
{

using models::Role;

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::Fab:
        return "fab";
      case Stage::Acquire:
        return "acquire";
      case Stage::Postprocess:
        return "postprocess";
      case Stage::Analyze:
        return "analyze";
      case Stage::Finalize:
        return "finalize";
      case Stage::Done:
        return "done";
    }
    return "unknown";
}

namespace
{

/// Span names must be string literals that outlive the session.
const char *
stageSpanName(Stage stage)
{
    switch (stage) {
      case Stage::Fab:
        return "pipeline.stage.fab";
      case Stage::Acquire:
        return "pipeline.stage.acquire";
      case Stage::Postprocess:
        return "pipeline.stage.postprocess";
      case Stage::Analyze:
        return "pipeline.stage.analyze";
      case Stage::Finalize:
        return "pipeline.stage.finalize";
      case Stage::Done:
        return "pipeline.stage.done";
    }
    return "pipeline.stage.unknown";
}

/// Voxel pick shared by the stages (pure function of the config).
double
resolveVoxelNm(const PipelineConfig &config,
               const models::ChipSpec &chip)
{
    if (config.voxelNm > 0.0)
        return config.voxelNm;
    const double bl_gap = chip.blPitchNm - chip.blWidthNm;
    return std::min({chip.pixelResNm, bl_gap / 2.5, 5.0});
}

/// Detector pick shared by Acquire and Analyze.
models::Detector
resolveDetector(const PipelineConfig &config,
                const models::ChipSpec &chip)
{
    if (config.detectorOverride == 0)
        return models::Detector::Se;
    if (config.detectorOverride == 1)
        return models::Detector::Bse;
    return chip.detector;
}

/**
 * Lazily provide the tile store the Postprocess stage assembles into.
 * The campaign service installs its own store up front (rooted under
 * the checkpoint directory).  A standalone in-RAM run
 * (memoryBudget == 0) gets a memory-only store; a standalone
 * memory-budgeted run gets one that spills into `spillDir`, or into a
 * per-process temp directory removed when the last reference to the
 * store — state, checkpoints, tiled artifacts — is gone.  Which store
 * backs the volume never affects a report bit.
 */
void
ensureTileStore(const PipelineConfig &config, StagedState &state)
{
    if (state.tileStore)
        return;
    if (config.memoryBudget == 0) {
        state.tileStore =
            std::make_shared<image::TileStore>(image::TileStoreConfig{});
        return;
    }
    namespace fs = std::filesystem;

    image::TileStoreConfig tc;
    tc.budgetBytes = config.memoryBudget;
    const bool owned = config.spillDir.empty();
    if (!owned) {
        tc.dir = config.spillDir;
    } else {
        std::error_code ec;
        fs::path base = fs::temp_directory_path(ec);
        if (ec)
            base = ".";
        unsigned long long pid = 0;
#if defined(__unix__) || defined(__APPLE__)
        pid = static_cast<unsigned long long>(::getpid());
#endif
        tc.dir = (base /
                  ("hifi-spill-" + std::to_string(pid) + "-" +
                   std::to_string(config.seed)))
                     .string();
    }
    const std::string dir = tc.dir;
    state.tileStore = std::shared_ptr<image::TileStore>(
        new image::TileStore(std::move(tc)),
        [owned, dir](image::TileStore *s) {
            delete s;
            if (owned) {
                std::error_code ec;
                std::filesystem::remove_all(dir, ec);
            }
        });
}

// ---- Stage bodies --------------------------------------------------

std::optional<common::Error>
stageFab(const PipelineConfig &config, StagedState &state)
{
    const models::ChipSpec &chip = models::chip(config.chipId);
    PipelineReport &report = state.report;

    const double voxel = resolveVoxelNm(config, chip);
    state.voxelNm = voxel;

    const models::CornerVariation variation =
        models::cornerVariation(chip.vendor, config.corner);

    fab::SaRegionSpec spec =
        fab::SaRegionSpec::fromChip(chip, config.pairs);
    spec.stackedSas = config.stackedSas;
    spec.minGapNm = std::max(spec.minGapNm, 4.0 * voxel);
    spec.variation = variation;
    spec.jitterSeed = config.seed;

    fab::SaRegionTruth truth;
    const auto cell = fab::buildSaRegion(spec, truth);
    report.trueCommonGateStrips = truth.commonGateComponents;
    report.trueDevices = truth.devices.size();
    report.bitlinesTrue = truth.bitlines.size();

    fab::VoxelizeParams vox = truth.voxelize;
    vox.voxelNm = voxel;
    auto volume = fab::voxelize(*cell, truth.region, vox);
    if (!volume.ok())
        return volume.error();
    state.materials =
        std::make_shared<image::Volume3D>(volume.takeValue());

    if (config.defects.any()) {
        auto planted = fab::plantDefects(*state.materials, truth,
                                         voxel, config.defects);
        if (!planted.ok())
            return planted.error();
        for (auto &p : planted.value())
            report.siliconDefects.planted.push_back({p, false});
    }

    // Per-role truth dimension means, captured now so later stages
    // (and checkpoints) never need the layout truth again.  Latch
    // roles draw W along the gate rect's width, the rest swapped.
    std::map<Role, std::pair<double, double>> truth_sum;
    std::map<Role, size_t> truth_n;
    for (const auto &d : truth.devices) {
        const bool latch_like =
            d.role == Role::Nsa || d.role == Role::Psa ||
            d.role == Role::Lsa;
        const double w =
            latch_like ? d.gate.width() : d.gate.height();
        const double l =
            latch_like ? d.gate.height() : d.gate.width();
        truth_sum[d.role].first += w;
        truth_sum[d.role].second += l;
        ++truth_n[d.role];
    }
    for (const auto &[role, sums] : truth_sum) {
        RoleRecovery rec;
        const auto n = static_cast<double>(truth_n[role]);
        rec.trueW = sums.first / n;
        rec.trueL = sums.second / n;
        report.roles[role] = rec;
    }

    state.next = Stage::Acquire;
    return std::nullopt;
}

std::optional<common::Error>
stageAcquire(const PipelineConfig &config, StagedState &state)
{
    const models::ChipSpec &chip = models::chip(config.chipId);
    PipelineReport &report = state.report;
    const double voxel = state.voxelNm;
    const image::Volume3D &materials = *state.materials;

    scope::FibSemParams fib;
    fib.sem.detector = resolveDetector(config, chip);
    fib.sem.dwellUs = chip.dwellUs;
    fib.sem.seQuality = chip.seQuality;
    fib.sliceVoxels = std::max<size_t>(
        1, static_cast<size_t>(std::lround(chip.sliceNm / voxel)));
    fib.driftProbability = config.driftProbability;

    common::inform("pipeline " + chip.id + ": acquiring " +
                   std::to_string(materials.nx() / fib.sliceVoxels) +
                   " slices");
    // Fault injection, per-slice QC, bounded re-imaging and neighbour
    // interpolation when faults are enabled; one parallel pass of
    // single attempts otherwise.  Counter-seeded either way, so the
    // stack and the recovery log are pure functions of the seed.
    scope::RobustAcquisition acquired = scope::acquire(
        materials, fib, config.faults, config.recovery, config.seed,
        state.cleanFrames, state.volumeKey);
    auto stack =
        std::make_shared<image::SliceStack>(std::move(acquired.stack));
    report.slicesRetried = acquired.slicesRetried;
    report.retries = acquired.retries;
    report.slicesInterpolated = acquired.slicesInterpolated;
    report.interpolatedSlices = std::move(acquired.interpolatedSlices);
    report.slicesUnrecoverable = acquired.slicesUnrecoverable;
    report.faultsInjected = acquired.faultsInjected;
    report.faultsDetected = acquired.faultsDetected;
    report.qcConfidence = acquired.qcConfidence;
    report.qcAudit = std::move(acquired.audit);
    report.degraded = acquired.slicesInterpolated > 0 ||
        acquired.slicesUnrecoverable > 0;
    if (report.degraded)
        common::warn("pipeline " + chip.id + ": degraded (" +
                     std::to_string(acquired.slicesInterpolated) +
                     " interpolated, " +
                     std::to_string(acquired.slicesUnrecoverable) +
                     " unrecoverable slices)");
    if (stack->slices.empty())
        return common::Error{
            common::ErrorCode::FailedPrecondition,
            "pipeline " + chip.id +
                ": acquisition produced no slices (volume spans " +
                std::to_string(materials.nx()) +
                " voxels, slice needs " +
                std::to_string(fib.sliceVoxels) + ")"};
    stack->sliceThicknessNm =
        static_cast<double>(fib.sliceVoxels) * voxel;
    stack->pixelResolutionNm = voxel;
    state.sliceThicknessNm = stack->sliceThicknessNm;
    report.slices = stack->slices.size();
    report.campaign = scope::campaignCost(chip);
    scope::chargeRetries(report.campaign, report.retries);

    state.stack = std::move(stack);
    state.materials.reset(); // no longer needed downstream
    state.next = Stage::Postprocess;
    return std::nullopt;
}

std::optional<common::Error>
stagePostprocess(const PipelineConfig &config, StagedState &state)
{
    const models::ChipSpec &chip = models::chip(config.chipId);
    PipelineReport &report = state.report;
    const image::SliceStack &stack = *state.stack;

    scope::PostprocessParams post;
    post.algo = config.denoise;
    post.mi.bins = 16;
    post.mi.maxShift = 6;
    // One chain for every run: stream denoise -> register ->
    // assemble over bounded slice windows into a tiled volume.  An
    // in-RAM run's store is memory-only; a budgeted run's dirty tiles
    // and store residency are bounded and spill to disk.
    ensureTileStore(config, state);
    auto streamed = scope::postprocessStreamed(
        stack, *state.tileStore, post,
        image::TiledVolume3D::kDefaultTileEdge, config.memoryBudget / 2);
    if (!streamed.ok())
        return streamed.error();
    scope::StreamedPostprocessResult result = streamed.takeValue();
    report.alignmentResidualPx = result.alignmentResidualPx;
    report.alignmentBudgetMet =
        result.meetsAlignmentBudget(stack.slices.front().height());
    state.processedTiled =
        std::make_shared<image::TiledVolume3D>(std::move(result.volume));
    if (!report.alignmentBudgetMet)
        common::warn("pipeline " + chip.id +
                     ": alignment residual exceeds the 0.77% budget");

    state.stack.reset(); // no longer needed downstream
    state.next = Stage::Analyze;
    return std::nullopt;
}

std::optional<common::Error>
stageAnalyze(const PipelineConfig &config, StagedState &state)
{
    const models::ChipSpec &chip = models::chip(config.chipId);
    PipelineReport &report = state.report;

    re::PlanarScales scales;
    scales.xNm = state.sliceThicknessNm;
    scales.yNm = state.voxelNm;
    scales.zNm = state.voxelNm;

    if (!state.processedTiled)
        return common::Error{
            common::ErrorCode::FailedPrecondition,
            "stageAnalyze: no processed volume (resume from a "
            "Postprocess checkpoint first)"};

    // The analysis kernels are in-core: the tiled volume materializes
    // just in time — after the stack has been dropped — so the two
    // never coexist.
    auto dense = state.processedTiled->toDense();
    if (!dense.ok())
        return dense.error();
    // Nothing downstream reads tiles: drop the volume and the state's
    // reference to its store, so a store this run created (memory-
    // only, or a temp spill directory) is released before the
    // analysis allocates.
    state.processedTiled.reset();
    state.tileStore.reset();
    auto analysis = re::analyzeRegion(dense.value(), scales,
                                      resolveDetector(config, chip));
    if (!analysis.ok())
        return analysis.error();
    report.analysis = analysis.takeValue();
    state.next = Stage::Finalize;
    return std::nullopt;
}

std::optional<common::Error>
stageFinalize(const PipelineConfig &config, StagedState &state)
{
    const models::ChipSpec &chip = models::chip(config.chipId);
    PipelineReport &report = state.report;

    report.extractedTopology = report.analysis.topology;
    report.topologyCorrect =
        report.extractedTopology == report.trueTopology;
    if (!report.topologyCorrect)
        common::warn("pipeline " + chip.id +
                     ": extracted topology disagrees with the truth");
    report.extractedCommonGateStrips =
        report.analysis.commonGateStrips;
    report.extractedDevices = report.analysis.devices.size();
    report.bitlinesFound = report.analysis.bitlines.size();
    report.crossCouplingConsistent =
        report.analysis.crossCouplingConsistent();

    const auto matches = re::matchTopology(report.analysis);
    if (!matches.empty()) {
        report.matchedTemplate = matches.front().candidate->name;
        report.matchScore = matches.front().score;
    }

    // Silicon defect scoring: planted ground truth vs RE detections.
    report.siliconDefects.detected = report.analysis.defects;
    scoreSiliconDefects(report.siliconDefects);
    if (!report.siliconDefects.allDetected())
        common::warn(
            "pipeline " + chip.id + ": " +
            std::to_string(report.siliconDefects.planted.size() -
                           report.siliconDefects.matched) +
            " planted silicon defect(s) escaped detection");

    // Measured dimensions vs the truth means captured in Fab.
    for (auto &[role, rec] : report.roles) {
        if (const auto dims = report.analysis.meanDims(role)) {
            rec.measuredW = dims->w;
            rec.measuredL = dims->l;
            report.maxDimErrorNm = std::max(
                {report.maxDimErrorNm, rec.errW(), rec.errL()});
        }
    }

    state.next = Stage::Done;
    return std::nullopt;
}

} // namespace

common::Result<StagedState>
initStagedRun(const PipelineConfig &config)
{
    if (const auto err = validateConfig(config))
        return common::Result<StagedState>(*err);
    StagedState state;
    const models::ChipSpec &chip = models::chip(config.chipId);
    state.report.chipId = chip.id;
    state.report.trueTopology = chip.topology;
    return common::Result<StagedState>(std::move(state));
}

std::optional<common::Error>
runStage(const PipelineConfig &config, StagedState &state)
{
    const Stage stage = state.next;
    if (stage == Stage::Done)
        return common::Error{common::ErrorCode::FailedPrecondition,
                             "runStage: pipeline already completed"};
    const common::ScopedThreads threads(config.threads);
    const telemetry::Span span(stageSpanName(stage));
    try {
        switch (stage) {
          case Stage::Fab:
            return stageFab(config, state);
          case Stage::Acquire:
            return stageAcquire(config, state);
          case Stage::Postprocess:
            return stagePostprocess(config, state);
          case Stage::Analyze:
            return stageAnalyze(config, state);
          case Stage::Finalize:
            return stageFinalize(config, state);
          case Stage::Done:
            break; // rejected above
        }
    } catch (const std::exception &e) {
        return common::Error{
            common::ErrorCode::Internal,
            std::string("stage ") + stageName(stage) +
                " failed: " + e.what()};
    } catch (...) {
        return common::Error{
            common::ErrorCode::Internal,
            std::string("stage ") + stageName(stage) +
                " failed with a non-standard exception"};
    }
    return std::nullopt;
}

// ---- Report digest -------------------------------------------------

uint64_t
reportDigest(const PipelineReport &report)
{
    common::Fnv1a f;
    f.str(report.chipId);
    f.u64(static_cast<uint64_t>(report.trueTopology));
    f.u64(static_cast<uint64_t>(report.extractedTopology));
    f.u64(report.topologyCorrect);
    f.u64(report.trueCommonGateStrips);
    f.u64(report.extractedCommonGateStrips);
    f.u64(report.trueDevices);
    f.u64(report.extractedDevices);
    f.u64(report.bitlinesFound);
    f.u64(report.bitlinesTrue);
    f.u64(report.crossCouplingConsistent);
    f.str(report.matchedTemplate);
    f.f64(report.matchScore);
    f.u64(report.slices);
    f.f64(report.alignmentResidualPx);
    f.u64(report.alignmentBudgetMet);
    f.u64(report.roles.size());
    for (const auto &[role, rec] : report.roles) {
        f.u64(static_cast<uint64_t>(role));
        f.f64(rec.trueW);
        f.f64(rec.trueL);
        f.f64(rec.measuredW);
        f.f64(rec.measuredL);
    }
    f.f64(report.maxDimErrorNm);

    f.u64(report.slicesRetried);
    f.u64(report.retries);
    f.u64(report.slicesInterpolated);
    f.u64(report.interpolatedSlices.size());
    for (const size_t s : report.interpolatedSlices)
        f.u64(s);
    f.u64(report.slicesUnrecoverable);
    f.u64(report.faultsInjected);
    f.u64(report.faultsDetected);
    f.f64(report.qcConfidence);
    f.u64(report.degraded);

    const scope::CampaignCost &c = report.campaign;
    f.u64(c.slices);
    f.f64(c.pixelsPerImage);
    f.f64(c.millSecondsPerSlice);
    f.f64(c.imageSecondsPerSlice);
    f.f64(c.secondsPerSlice);
    f.u64(c.reimagedSlices);
    f.f64(c.retryHours);
    f.f64(c.totalHours);

    const SiliconDefectReport &sd = report.siliconDefects;
    f.u64(sd.planted.size());
    for (const auto &p : sd.planted) {
        f.u64(static_cast<uint64_t>(p.planted.kind));
        f.rect(p.planted.footprint);
        f.u64(static_cast<uint64_t>(p.planted.bitlineA));
        f.u64(static_cast<uint64_t>(p.planted.bitlineB));
        f.u64(p.detected);
    }
    f.u64(sd.detected.size());
    for (const auto &d : sd.detected) {
        f.u64(static_cast<uint64_t>(d.kind));
        f.rect(d.where);
        f.u64(static_cast<uint64_t>(d.bitlineA));
        f.u64(static_cast<uint64_t>(d.bitlineB));
    }
    f.u64(sd.matched);
    f.u64(sd.spurious);

    const re::RegionAnalysis &a = report.analysis;
    f.u64(static_cast<uint64_t>(a.topology));
    f.u64(a.commonGateStrips);
    f.u64(a.bitlines.size());
    for (const auto &b : a.bitlines)
        f.rect(b);
    f.u64(a.devices.size());
    for (const auto &dev : a.devices) {
        f.u64(static_cast<uint64_t>(dev.role));
        f.rect(dev.gate);
        f.f64(dev.wNm);
        f.f64(dev.lNm);
        f.u64(static_cast<uint64_t>(dev.bitline));
        f.u64(static_cast<uint64_t>(dev.couplesTo));
    }
    f.u64(a.defects.size());
    for (const auto &d : a.defects) {
        f.u64(static_cast<uint64_t>(d.kind));
        f.rect(d.where);
        f.u64(static_cast<uint64_t>(d.bitlineA));
        f.u64(static_cast<uint64_t>(d.bitlineB));
    }

    f.u64(report.qcAudit.size());
    for (const auto &dec : report.qcAudit) {
        f.u64(dec.slice);
        f.u64(static_cast<uint64_t>(dec.injectedFault));
        f.u64(dec.accepted);
        f.u64(dec.interpolated);
        f.u64(dec.unrecoverable);
        f.u64(dec.attempts.size());
        for (const auto &att : dec.attempts) {
            f.u64(att.attempt);
            f.u64(static_cast<uint64_t>(att.fault));
            f.u64(att.contentConfirmed);
            f.u64(att.accepted);
            const image::QcMetrics &m = att.metrics;
            f.f64(m.snr);
            f.f64(m.focusScore);
            f.f64(m.saturationFraction);
            f.f64(m.deadRowFraction);
            f.f64(m.stripeScore);
            f.f64(m.miVsPrev);
            f.u64(static_cast<uint64_t>(m.shiftX));
            f.u64(static_cast<uint64_t>(m.shiftY));
            f.u64(m.flags);
        }
    }
    return f.h;
}

} // namespace core
} // namespace hifi
