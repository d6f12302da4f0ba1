/**
 * @file
 * The HiFi-DRAM end-to-end pipeline: virtual fab -> FIB/SEM
 * acquisition -> post-processing -> reverse engineering -> validation
 * against the fab's ground truth.  This is the library's headline API:
 * one call reproduces the paper's methodology on a synthetic chip and
 * quantifies how faithfully the circuit is recovered.
 */

#ifndef HIFI_CORE_PIPELINE_HH
#define HIFI_CORE_PIPELINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hh"
#include "common/stats.hh"
#include "common/telemetry.hh"
#include "fab/defects.hh"
#include "fab/sa_region.hh"
#include "models/chip_data.hh"
#include "re/analyze.hh"
#include "scope/fib.hh"
#include "scope/postprocess.hh"

namespace hifi
{
namespace core
{

/// Smallest accepted PipelineConfig::memoryBudget: one 64^3-float
/// tile layer of a paper-scale stack plus the streaming slice window
/// comfortably fit in 16 MiB.
constexpr size_t kMinMemoryBudgetBytes = 16ull << 20;

/** Pipeline configuration. */
struct PipelineConfig
{
    /// Chip dataset providing geometry, topology, detector, slicing.
    std::string chipId = "B5";

    /// SA pairs in the generated region slice.
    size_t pairs = 4;

    /// Stacked SA sets (Section V-C: real chips place 2).
    size_t stackedSas = 1;

    uint64_t seed = 1;

    /// Run the TV denoiser (disable to study its contribution).
    scope::DenoiseAlgo denoise = scope::DenoiseAlgo::Chambolle;

    /// Stage-drift step probability per slice.
    double driftProbability = 0.15;

    /**
     * Process corner the virtual fab runs at.  Typical is the clean
     * legacy fab (bit-identical); Slow/Fast apply the chip vendor's
     * models::cornerVariation preset — systematic CD bias, per-device
     * CD sigma, cross-wafer drift and line-edge roughness.
     */
    models::ProcessCorner corner = models::ProcessCorner::Typical;

    /**
     * Silicon defects to plant into the voxelized volume after the
     * fab (fab/defects.hh).  Disabled by default; when any are
     * requested the report's `siliconDefects` scores the RE stage's
     * detection against the planted ground truth.
     */
    fab::DefectParams defects;

    /**
     * Override for the in-plane voxel size; <= 0 picks automatically
     * from the chip's pixel resolution and bitline gap.
     */
    double voxelNm = -1.0;

    /**
     * Detector override: -1 uses the chip's Table I detector,
     * 0 forces SE, 1 forces BSE.  Forcing SE on vendor B/C chips
     * reproduces the poor-contrast failure that made the paper
     * switch those chips to BSE.
     */
    int detectorOverride = -1;

    /**
     * Worker threads for the hot kernels (denoise, registration, SEM
     * imaging, voxelization); 0 inherits the process-wide setting
     * (common::setNumThreads / HIFI_THREADS).  The report is
     * bitwise-identical for any value — see common/parallel.hh.
     */
    size_t threads = 0;

    /**
     * Acquisition fault model (scope/faults.hh).  Disabled by default:
     * scope::acquire then images each slice once, with no QC.  With
     * faults enabled the same acquisition injects faults, QC-checks
     * every slice, re-images within a bounded budget and interpolates
     * from neighbours, and the degradation fields of the report
     * become meaningful.  Both modes draw from the same counter-seeded
     * substreams, so a fault-free frame is the faulted run's first
     * attempt when that attempt draws no fault.
     */
    scope::FaultParams faults;

    /// Retry/interpolation policy and QC thresholds of the re-imaging
    /// loop (only used when faults.enabled).
    scope::RecoveryParams recovery;

    /**
     * Out-of-core memory budget in bytes for the assembled volume.
     * Every run streams the acquired stack through the one denoise →
     * register → assemble chain, a window of slices at a time, into
     * a tiled volume.  0 (the default) keeps the tiles in a
     * memory-only store.  When set, the volume's unsealed tiles are
     * bounded by half the budget and the store's resident tiles by
     * the budget; the rest spill to disk, so the volume no longer
     * has to fit in memory (the acquired stack still does).  The
     * report is bitwise identical at any budget, tile size and
     * thread count (tests/test_golden.cc, tests/test_volume.cc).
     * Budgets smaller than one tile layer are rejected by
     * validateConfig.
     */
    size_t memoryBudget = 0;

    /**
     * Directory for spilled volume tiles when memoryBudget is set;
     * empty picks a unique directory under the system temp dir that
     * is removed when the run completes.  Must stay empty when
     * memoryBudget == 0: the memory-only store spills nothing.
     */
    std::string spillDir;

    /**
     * Observability (common/telemetry.hh); off by default.  When
     * enabled the run is wrapped in a telemetry::Session: stage spans
     * and metric deltas land in PipelineReport::telemetry, and any
     * paths named in the config are written on completion.  Purely
     * observational — the report's data fields are bitwise identical
     * with telemetry on or off (asserted by tests/test_telemetry.cc).
     */
    telemetry::TelemetryConfig telemetry;
};

/**
 * Domain validation of a pipeline configuration: unknown chip ids,
 * zero pairs/stacked sets, out-of-range probabilities, inconsistent
 * fault/recovery parameters.  nullopt when the config is runnable.
 */
std::optional<common::Error>
validateConfig(const PipelineConfig &config);

/** Per-role dimension recovery. */
struct RoleRecovery
{
    double trueW = 0.0, trueL = 0.0;
    double measuredW = 0.0, measuredL = 0.0;

    double errW() const { return std::abs(measuredW - trueW); }
    double errL() const { return std::abs(measuredL - trueL); }
};

/** One planted silicon defect and whether the RE stage flagged it. */
struct DefectOutcome
{
    fab::PlantedDefect planted;
    bool detected = false;
};

/** Planted-vs-detected silicon defect scoring. */
struct SiliconDefectReport
{
    /// Ground truth, one entry per planted defect, with match flags.
    std::vector<DefectOutcome> planted;

    /// Everything the RE stage flagged (matched or not).
    std::vector<re::DetectedDefect> detected;

    size_t matched = 0;  ///< planted defects correctly flagged
    size_t spurious = 0; ///< detections with no planted counterpart

    /// Every planted defect was flagged with the right kind/site.
    bool
    allDetected() const
    {
        return matched == planted.size();
    }
};

/**
 * Greedy planted-vs-detected matching: fills `matched`, `spurious`
 * and the per-defect `detected` flags of a report whose `planted`
 * and `detected` lists are populated.  A detection matches when the
 * kinds agree, the sites are within a few hundred nm, and the
 * identified bitlines are compatible.  Shared by the pipeline and
 * the direct fuzz tier (core/fuzz.hh).
 */
void scoreSiliconDefects(SiliconDefectReport &report);

/** Pipeline outcome. */
struct PipelineReport
{
    std::string chipId;

    models::Topology trueTopology = models::Topology::Classic;
    models::Topology extractedTopology = models::Topology::Classic;
    bool topologyCorrect = false;

    size_t trueCommonGateStrips = 0;
    size_t extractedCommonGateStrips = 0;

    size_t trueDevices = 0;
    size_t extractedDevices = 0;
    size_t bitlinesFound = 0;
    size_t bitlinesTrue = 0;

    bool crossCouplingConsistent = false;

    /// Best-matching published topology template (Section V-A) and
    /// its structural agreement score in [0, 1].
    std::string matchedTemplate;
    double matchScore = 0.0;

    size_t slices = 0;
    double alignmentResidualPx = 0.0;
    bool alignmentBudgetMet = false;

    std::map<models::Role, RoleRecovery> roles;

    /// Worst absolute dimension error across recovered roles (nm).
    double maxDimErrorNm = 0.0;

    // ---- Robustness / degradation accounting ----------------------
    // All zero / 1.0 / false when faults are disabled.

    /// Slices that needed more than one imaging attempt.
    size_t slicesRetried = 0;

    /// Total re-imaged frames (charged to the campaign cost).
    size_t retries = 0;

    /// Slices replaced by neighbour interpolation after the retry
    /// budget ran out, and their indices (seed-deterministic).
    size_t slicesInterpolated = 0;
    std::vector<size_t> interpolatedSlices;

    /// Slices no attempt nor interpolation could recover.
    size_t slicesUnrecoverable = 0;

    /// Injected-fault ground truth vs QC detection (simulator-only).
    size_t faultsInjected = 0;
    size_t faultsDetected = 0;

    /// Aggregate acquisition trust in [0, 1] (see RobustAcquisition).
    double qcConfidence = 1.0;

    /// True when any slice was interpolated or unrecoverable: the
    /// report is best-effort and downstream numbers deserve scrutiny.
    bool degraded = false;

    /// Table-I campaign cost for this chip, with re-imaging charged.
    scope::CampaignCost campaign;

    /// Silicon defect scoring (empty when config.defects is empty
    /// and the RE stage flagged nothing).
    SiliconDefectReport siliconDefects;

    /// Full analysis, for further inspection.
    re::RegionAnalysis analysis;

    /// Per-slice QC decision trail of the acquisition (empty when
    /// faults are disabled: no QC runs).  Seed-pure: identical
    /// with telemetry on or off.  Export with scope::qcAuditJson().
    std::vector<scope::SliceDecision> qcAudit;

    /// Trace + metric deltas when config.telemetry.enabled; null
    /// otherwise.  Not part of the seeded result — compare reports
    /// with this field excluded.
    std::shared_ptr<const telemetry::PipelineTelemetry> telemetry;
};

/**
 * Run the full pipeline on one chip configuration.  Validates the
 * configuration up front and converts any internal failure into a
 * typed error, so callers always get either a report (possibly with
 * `degraded` set) or an Error — never an exception.
 */
common::Result<PipelineReport>
runPipelineChecked(const PipelineConfig &config);

/**
 * End a run's telemetry session into its report: attach the spans and
 * metric deltas (finish() writes the trace and metrics files) and
 * write the QC audit trail when `config.telemetry.qcAuditPath` is set.
 * Call on the thread that opened the session; runPipelineChecked and
 * the campaign service both end their runs through it.
 */
void finishTelemetry(telemetry::Session &session,
                     const PipelineConfig &config,
                     PipelineReport &report);

/** Repeatability over independent acquisitions (different seeds). */
struct Repeatability
{
    size_t runs = 0;
    size_t topologyCorrect = 0;
    size_t crossCouplingTraced = 0;

    /// Per-role spread of the measured W and L across runs.
    std::map<models::Role, std::pair<common::Accumulator,
                                     common::Accumulator>>
        dims;
};

/**
 * Re-run the pipeline `runs` times with seeds base.seed, base.seed+1,
 * ... - the in-silico analogue of the paper's repeated measurements.
 * The first failed run's error is returned instead.
 */
common::Result<Repeatability> repeatPipeline(const PipelineConfig &base,
                                             size_t runs);

} // namespace core
} // namespace hifi

#endif // HIFI_CORE_PIPELINE_HH
