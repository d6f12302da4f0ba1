#include "core/fuzz.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/fnv.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "fab/defects.hh"
#include "fab/voxelizer.hh"
#include "re/measure.hh"
#include "scope/sem.hh"

namespace hifi
{
namespace core
{

using models::ProcessCorner;

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

std::string
serializeScenario(const ScenarioParams &p)
{
    std::ostringstream ss;
    ss << "chip=" << p.chipId << " pairs=" << p.pairs
       << " sas=" << p.stackedSas
       << " corner=" << models::cornerName(p.corner)
       << " shorts=" << p.bitlineShorts << " opens=" << p.bitlineOpens
       << " vias=" << p.missingVias << " particles=" << p.particles
       << " faults=" << (p.faults ? 1 : 0)
       << " full=" << (p.fullPipeline ? 1 : 0) << " seed=" << p.seed;
    return ss.str();
}

common::Result<ScenarioParams>
parseScenario(const std::string &line)
{
    using R = common::Result<ScenarioParams>;
    ScenarioParams p;
    std::istringstream ss(line);
    std::string token;
    size_t tokens = 0;
    while (ss >> token) {
        ++tokens;
        const auto eq = token.find('=');
        if (eq == std::string::npos)
            return R::failure(common::ErrorCode::InvalidArgument,
                              "parseScenario: token without '=': '" +
                                  token + "'");
        const std::string key = token.substr(0, eq);
        const std::string val = token.substr(eq + 1);
        try {
            if (key == "chip") {
                p.chipId = val;
            } else if (key == "pairs") {
                p.pairs = std::stoul(val);
            } else if (key == "sas") {
                p.stackedSas = std::stoul(val);
            } else if (key == "corner") {
                bool found = false;
                for (size_t c = 0;
                     c < static_cast<size_t>(
                             ProcessCorner::NumCorners);
                     ++c) {
                    if (val ==
                        models::cornerName(
                            static_cast<ProcessCorner>(c))) {
                        p.corner = static_cast<ProcessCorner>(c);
                        found = true;
                    }
                }
                if (!found)
                    return R::failure(
                        common::ErrorCode::InvalidArgument,
                        "parseScenario: unknown corner '" + val +
                            "'");
            } else if (key == "shorts") {
                p.bitlineShorts = std::stoul(val);
            } else if (key == "opens") {
                p.bitlineOpens = std::stoul(val);
            } else if (key == "vias") {
                p.missingVias = std::stoul(val);
            } else if (key == "particles") {
                p.particles = std::stoul(val);
            } else if (key == "faults") {
                p.faults = std::stoul(val) != 0;
            } else if (key == "full") {
                p.fullPipeline = std::stoul(val) != 0;
            } else if (key == "seed") {
                p.seed = std::stoull(val);
            } else {
                return R::failure(
                    common::ErrorCode::InvalidArgument,
                    "parseScenario: unknown key '" + key + "'");
            }
        } catch (const std::exception &) {
            return R::failure(common::ErrorCode::InvalidArgument,
                              "parseScenario: bad value for '" + key +
                                  "': '" + val + "'");
        }
    }
    if (tokens == 0)
        return R::failure(common::ErrorCode::InvalidArgument,
                          "parseScenario: empty scenario line");
    return R(std::move(p));
}

// ---------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------

ScenarioParams
sampleScenario(uint64_t seed)
{
    common::Rng rng(seed, 0xF022);
    ScenarioParams p;
    p.seed = seed;

    const auto &chips = models::allChips();
    const auto ci = std::min(
        chips.size() - 1,
        static_cast<size_t>(rng.uniform(
            0.0, static_cast<double>(chips.size()))));
    p.chipId = chips[ci].id;

    p.pairs =
        2 + std::min<size_t>(
                3, static_cast<size_t>(rng.uniform(0.0, 4.0)));
    p.stackedSas = rng.uniform() < 0.25 ? 2 : 1;
    p.corner = static_cast<ProcessCorner>(std::min<size_t>(
        2, static_cast<size_t>(rng.uniform(0.0, 3.0))));

    // Defect mix; the worst case (1 short + 2 opens = 4 bitlines)
    // always fits the minimum 2 pairs, and <= 2 missing vias always
    // have free latch contacts.
    if (rng.uniform() < 0.30)
        p.bitlineShorts = 1;
    if (rng.uniform() < 0.35)
        p.bitlineOpens = rng.uniform() < 0.2 ? 2 : 1;
    if (rng.uniform() < 0.30)
        p.missingVias = rng.uniform() < 0.2 ? 2 : 1;
    if (rng.uniform() < 0.30)
        p.particles = 1;

    p.faults = rng.uniform() < 0.25;
    p.fullPipeline = rng.uniform() < 0.04;
    return p;
}

// ---------------------------------------------------------------------
// Signatures
// ---------------------------------------------------------------------

namespace
{

uint64_t
analysisSignature(const re::RegionAnalysis &a)
{
    common::Fnv1a f;
    f.u64(static_cast<uint64_t>(a.topology));
    f.u64(a.commonGateStrips);
    f.u64(a.bitlines.size());
    for (const auto &b : a.bitlines)
        f.rect(b);
    f.u64(a.devices.size());
    for (const auto &d : a.devices) {
        f.u64(static_cast<uint64_t>(d.role));
        f.rect(d.gate);
        f.f64(d.wNm);
        f.f64(d.lNm);
        f.u64(static_cast<uint64_t>(d.bitline));
        f.u64(static_cast<uint64_t>(d.couplesTo));
    }
    f.u64(a.defects.size());
    for (const auto &d : a.defects) {
        f.u64(static_cast<uint64_t>(d.kind));
        f.rect(d.where);
        f.u64(static_cast<uint64_t>(d.bitlineA));
        f.u64(static_cast<uint64_t>(d.bitlineB));
    }
    return f.h;
}

uint64_t
reportSignature(const PipelineReport &r)
{
    common::Fnv1a f;
    f.u64(analysisSignature(r.analysis));
    f.u64(r.slices);
    f.u64(r.retries);
    f.u64(r.slicesInterpolated);
    f.u64(r.slicesUnrecoverable);
    f.u64(r.faultsInjected);
    f.f64(r.qcConfidence);
    f.f64(r.maxDimErrorNm);
    f.f64(r.matchScore);
    return f.h;
}

// ---------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------

fab::DefectParams
defectParamsOf(const ScenarioParams &p)
{
    fab::DefectParams d;
    d.seed = p.seed;
    d.bitlineShorts = p.bitlineShorts;
    d.bitlineOpens = p.bitlineOpens;
    d.missingVias = p.missingVias;
    d.particles = p.particles;
    return d;
}

/**
 * Shared invariant checks on an analysis scored against the fab
 * truth.  `tol_nm` is the corner-scaled measurement tolerance.
 */
void
checkAnalysis(const re::RegionAnalysis &analysis,
              const fab::SaRegionTruth &truth,
              const SiliconDefectReport &defects,
              const ScenarioParams &p, double tol_nm, double max_err,
              std::vector<std::string> &violations)
{
    if (analysis.topology != truth.topology)
        violations.push_back("topology not recovered");
    if (analysis.bitlines.size() != truth.bitlines.size())
        violations.push_back(
            "bitlines: found " +
            std::to_string(analysis.bitlines.size()) + " of " +
            std::to_string(truth.bitlines.size()));

    if (!defects.allDetected())
        violations.push_back(
            std::to_string(defects.planted.size() - defects.matched) +
            " planted defect(s) undetected");
    if (defects.spurious > 0)
        violations.push_back(
            std::to_string(defects.spurious) +
            " spurious defect detection(s)");

    if (p.missingVias == 0 && !analysis.crossCouplingConsistent())
        violations.push_back("cross-coupling not fully traced");

    if (!std::isfinite(max_err))
        violations.push_back("non-finite dimension error");
    else if (max_err > tol_nm)
        violations.push_back(
            "dimension error " + std::to_string(max_err) +
            " nm exceeds tolerance " + std::to_string(tol_nm) +
            " nm");
    for (const auto &d : analysis.devices)
        if (!std::isfinite(d.wNm) || !std::isfinite(d.lNm)) {
            violations.push_back("non-finite device measurement");
            break;
        }
}

/// Worst mean-dimension recovery error vs the fab truth (the direct
/// tier's analogue of PipelineReport::maxDimErrorNm).
double
maxDimError(const re::RegionAnalysis &analysis,
            const fab::SaRegionTruth &truth)
{
    using models::Role;
    std::map<Role, std::pair<double, double>> sum;
    std::map<Role, size_t> n;
    for (const auto &d : truth.devices) {
        const bool latch_like = d.role == Role::Nsa ||
            d.role == Role::Psa || d.role == Role::Lsa;
        const double w =
            latch_like ? d.gate.width() : d.gate.height();
        const double l =
            latch_like ? d.gate.height() : d.gate.width();
        sum[d.role].first += w;
        sum[d.role].second += l;
        ++n[d.role];
    }
    double worst = 0.0;
    for (const auto &[role, s] : sum) {
        const auto cnt = static_cast<double>(n[role]);
        if (const auto dims = analysis.meanDims(role)) {
            worst = std::max(
                worst, std::abs(dims->w - s.first / cnt));
            worst = std::max(
                worst, std::abs(dims->l - s.second / cnt));
        }
    }
    return worst;
}

/// Direct tier: fab -> voxelize -> defects -> ideal-contrast render
/// -> RE analysis.  No microscope simulation; isolates the fab and
/// RE layers and runs in tens of milliseconds.
void
runDirectTier(const ScenarioParams &p, const models::ChipSpec &chip,
              ScenarioResult &result)
{
    const models::CornerVariation variation =
        models::cornerVariation(chip.vendor, p.corner);

    const double bl_gap = chip.blPitchNm - chip.blWidthNm;
    const double voxel =
        std::min({chip.pixelResNm, bl_gap / 2.5, 5.0});

    fab::SaRegionSpec spec =
        fab::SaRegionSpec::fromChip(chip, p.pairs);
    spec.stackedSas = p.stackedSas;
    spec.minGapNm = std::max(spec.minGapNm, 4.0 * voxel);
    spec.variation = variation;
    spec.jitterSeed = p.seed;

    fab::SaRegionTruth truth;
    const auto cell = fab::buildSaRegion(spec, truth);

    fab::VoxelizeParams vox = truth.voxelize;
    vox.voxelNm = voxel;
    auto volume = fab::voxelize(*cell, truth.region, vox);
    if (!volume.ok()) {
        result.violations.push_back("voxelize: " +
                                    volume.error().message);
        return;
    }
    image::Volume3D materials = volume.takeValue();

    SiliconDefectReport defects;
    auto planted = fab::plantDefects(materials, truth, voxel,
                                     defectParamsOf(p));
    if (!planted.ok()) {
        result.violations.push_back("plantDefects: " +
                                    planted.error().message);
        return;
    }
    for (auto &pd : planted.value())
        defects.planted.push_back({pd, false});

    // Ideal render: every voxel at its exact material contrast.
    // Voxel values are exact small enum codes; mapping them inline
    // (instead of through the out-of-line fab::voxelMaterial) keeps
    // this loop from dominating the scenario wall-clock.
    const scope::ContrastLut lut = scope::contrastLut(chip.detector);
    constexpr int kNumMaterials =
        static_cast<int>(fab::Material::NumMaterials);
    float code_lut[kNumMaterials];
    for (int m = 0; m < kNumMaterials; ++m)
        code_lut[m] = static_cast<float>(lut[static_cast<size_t>(m)]);
    image::Volume3D ideal(materials.nx(), materials.ny(),
                          materials.nz());
    common::parallelFor(
        0, materials.nz(), 4, [&](size_t z0, size_t z1) {
            for (size_t z = z0; z < z1; ++z)
                for (size_t y = 0; y < materials.ny(); ++y)
                    for (size_t x = 0; x < materials.nx(); ++x) {
                        const int m = static_cast<int>(
                            materials.at(x, y, z) + 0.5f);
                        ideal.at(x, y, z) =
                            (m < 0 || m >= kNumMaterials)
                                ? code_lut[0]
                                : code_lut[m];
                    }
        });

    re::PlanarScales scales;
    scales.xNm = voxel;
    scales.yNm = voxel;
    scales.zNm = voxel;
    auto analyzed = re::analyzeRegion(ideal, scales, chip.detector);
    if (!analyzed.ok()) {
        result.violations.push_back("analyzeRegion: " +
                                    analyzed.error().message);
        return;
    }
    const re::RegionAnalysis &analysis = analyzed.value();

    defects.detected = analysis.defects;
    scoreSiliconDefects(defects);

    re::MeasureParams mp;
    mp.toleranceScale = variation.measureTolScale;
    // LER physically displaces the voxelized edges relative to the
    // drawn truth; with only a handful of devices per role the mean
    // keeps a few sigma of that, on top of the quantization terms.
    const double tol_nm = mp.dimensionToleranceNm(voxel, voxel) +
        4.0 * variation.lerSigmaNm;
    const double err = maxDimError(analysis, truth);
    checkAnalysis(analysis, truth, defects, p, tol_nm, err,
                  result.violations);
    result.signature = analysisSignature(analysis);
}

/// Full tier: the entire FIB/SEM pipeline through
/// core::runPipelineChecked.
void
runFullTier(const ScenarioParams &p, const models::ChipSpec &chip,
            size_t threads, ScenarioResult &result)
{
    PipelineConfig cfg;
    cfg.chipId = p.chipId;
    cfg.pairs = p.pairs;
    cfg.stackedSas = p.stackedSas;
    cfg.corner = p.corner;
    cfg.defects = defectParamsOf(p);
    cfg.seed = p.seed;
    cfg.threads = threads;
    cfg.faults.enabled = p.faults;

    auto run = runPipelineChecked(cfg);
    if (!run.ok()) {
        result.violations.push_back("pipeline: " +
                                    run.error().message);
        return;
    }
    const PipelineReport &report = run.value();

    const models::CornerVariation variation =
        models::cornerVariation(chip.vendor, p.corner);
    re::MeasureParams mp;
    mp.toleranceScale = variation.measureTolScale;
    const double bl_gap = chip.blPitchNm - chip.blWidthNm;
    const double voxel =
        std::min({chip.pixelResNm, bl_gap / 2.5, 5.0});

    // A degraded report (interpolated or unrecoverable slices) is
    // explicitly best-effort: the recovery invariants don't apply,
    // only structural sanity does.  Injected faults that slipped past
    // QC (faultsDetected < faultsInjected) corrupt slices silently;
    // gross structure must survive them, but fine-grained results
    // (defect scoring, coupling traces, dimensions) may not.
    const bool clean_slices =
        report.faultsInjected == report.faultsDetected;
    if (!report.degraded) {
        if (report.extractedTopology != report.trueTopology)
            result.violations.push_back("topology not recovered");
        if (report.bitlinesFound != report.bitlinesTrue)
            result.violations.push_back(
                "bitlines: found " +
                std::to_string(report.bitlinesFound) + " of " +
                std::to_string(report.bitlinesTrue));
    }
    if (!report.degraded && clean_slices) {
        if (!report.siliconDefects.allDetected())
            result.violations.push_back(
                std::to_string(
                    report.siliconDefects.planted.size() -
                    report.siliconDefects.matched) +
                " planted defect(s) undetected");
        if (report.siliconDefects.spurious > 0)
            result.violations.push_back(
                std::to_string(report.siliconDefects.spurious) +
                " spurious defect detection(s)");
        if (p.missingVias == 0 && !report.crossCouplingConsistent)
            result.violations.push_back(
                "cross-coupling not fully traced");
        if (std::isfinite(report.maxDimErrorNm) &&
            report.maxDimErrorNm >
                mp.dimensionToleranceNm(chip.sliceNm, voxel))
            result.violations.push_back(
                "dimension error " +
                std::to_string(report.maxDimErrorNm) +
                " nm exceeds tolerance " +
                std::to_string(
                    mp.dimensionToleranceNm(chip.sliceNm, voxel)) +
                " nm");
    } else if (p.defectTotal() == 0 && !p.faults) {
        result.violations.push_back(
            "degraded report on a fault-free run");
    }
    if (!std::isfinite(report.maxDimErrorNm) ||
        !std::isfinite(report.matchScore) ||
        !std::isfinite(report.qcConfidence))
        result.violations.push_back("non-finite report field");
    for (const auto &d : report.analysis.devices)
        if (!std::isfinite(d.wNm) || !std::isfinite(d.lNm)) {
            result.violations.push_back(
                "non-finite device measurement");
            break;
        }
    result.signature = reportSignature(report);
}

} // namespace

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

ScenarioResult
runScenario(const ScenarioParams &params, size_t threads)
{
    ScenarioResult result;
    result.params = params;

    const models::ChipSpec *chip = models::findChip(params.chipId);
    if (chip == nullptr) {
        result.violations.push_back("unknown chip '" + params.chipId +
                                    "'");
        return result;
    }
    if (params.pairs < 2) {
        result.violations.push_back(
            "scenario needs at least 2 pairs");
        return result;
    }

    try {
        if (params.fullPipeline) {
            runFullTier(params, *chip, threads, result);
        } else {
            const common::ScopedThreads scoped(threads);
            runDirectTier(params, *chip, result);
        }
    } catch (const std::exception &e) {
        result.violations.push_back(std::string("crash: ") +
                                    e.what());
    } catch (...) {
        result.violations.push_back("crash: unknown exception");
    }
    return result;
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

ScenarioParams
shrinkScenario(const ScenarioParams &failing,
               const FailPredicate &fails, size_t maxEvals)
{
    ScenarioParams best = failing;
    size_t evals = 0;
    bool progress = true;
    while (progress && evals < maxEvals) {
        progress = false;

        std::vector<ScenarioParams> candidates;
        const auto propose = [&](auto mutate) {
            ScenarioParams c = best;
            mutate(c);
            candidates.push_back(std::move(c));
        };
        if (best.faults)
            propose([](ScenarioParams &c) { c.faults = false; });
        if (best.corner != ProcessCorner::Typical)
            propose([](ScenarioParams &c) {
                c.corner = ProcessCorner::Typical;
            });
        if (best.stackedSas > 1)
            propose([](ScenarioParams &c) { c.stackedSas = 1; });
        if (best.pairs > 2) {
            propose([](ScenarioParams &c) { c.pairs = 2; });
            propose([](ScenarioParams &c) { --c.pairs; });
        }
        if (best.bitlineShorts > 0)
            propose([](ScenarioParams &c) { c.bitlineShorts = 0; });
        if (best.bitlineOpens > 0)
            propose([](ScenarioParams &c) { c.bitlineOpens = 0; });
        if (best.missingVias > 0)
            propose([](ScenarioParams &c) { c.missingVias = 0; });
        if (best.particles > 0)
            propose([](ScenarioParams &c) { c.particles = 0; });
        if (best.chipId != "B5")
            propose([](ScenarioParams &c) { c.chipId = "B5"; });
        if (best.fullPipeline)
            propose(
                [](ScenarioParams &c) { c.fullPipeline = false; });

        for (const auto &c : candidates) {
            if (evals >= maxEvals)
                break;
            ++evals;
            if (fails(c)) {
                best = c;
                progress = true;
                break; // restart from the smaller scenario
            }
        }
    }
    return best;
}

} // namespace core
} // namespace hifi
