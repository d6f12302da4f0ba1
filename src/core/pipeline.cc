#include "core/pipeline.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/stages.hh"
#include "fab/voxelizer.hh"
#include "scope/fib.hh"

namespace hifi
{
namespace core
{

std::optional<common::Error>
validateConfig(const PipelineConfig &config)
{
    using common::Error;
    using common::ErrorCode;
    if (models::findChip(config.chipId) == nullptr)
        return Error{ErrorCode::NotFound,
                     "PipelineConfig: unknown chipId '" +
                         config.chipId + "'"};
    if (config.pairs == 0)
        return Error{ErrorCode::InvalidArgument,
                     "PipelineConfig: pairs must be > 0"};
    if (config.stackedSas == 0)
        return Error{ErrorCode::InvalidArgument,
                     "PipelineConfig: stackedSas must be > 0"};
    if (!(config.driftProbability >= 0.0) ||
        !(config.driftProbability <= 1.0))
        return Error{ErrorCode::InvalidArgument,
                     "PipelineConfig: driftProbability outside "
                     "[0, 1]"};
    if (config.detectorOverride < -1 || config.detectorOverride > 1)
        return Error{ErrorCode::InvalidArgument,
                     "PipelineConfig: detectorOverride must be "
                     "-1, 0 or 1"};
    if (config.corner < models::ProcessCorner::Slow ||
        config.corner >= models::ProcessCorner::NumCorners)
        return Error{ErrorCode::InvalidArgument,
                     "PipelineConfig: corner out of range"};
    if (const auto err = fab::validate(config.defects))
        return err;
    // Rough feasibility of the defect mix: shorts claim two adjacent
    // bitlines and opens one, out of 2*pairs; missing vias each need
    // a distinct latch coupling contact (two per pair).
    if (2 * config.defects.bitlineShorts + config.defects.bitlineOpens >
        2 * config.pairs)
        return Error{ErrorCode::FailedPrecondition,
                     "PipelineConfig: defect mix needs more bitlines "
                     "than 'pairs' provides"};
    if (config.defects.missingVias > 2 * config.pairs)
        return Error{ErrorCode::FailedPrecondition,
                     "PipelineConfig: more missing vias than latch "
                     "coupling contacts"};
    if (const auto err = scope::validate(config.faults))
        return err;
    if (const auto err = scope::validate(config.recovery))
        return err;
    if (config.memoryBudget != 0 &&
        config.memoryBudget < kMinMemoryBudgetBytes)
        return Error{ErrorCode::InvalidArgument,
                     "PipelineConfig: memoryBudget below the " +
                         std::to_string(kMinMemoryBudgetBytes >> 20) +
                         " MiB floor (one tile layer plus the "
                         "streaming window)"};
    if (!config.spillDir.empty() && config.memoryBudget == 0)
        return Error{ErrorCode::InvalidArgument,
                     "PipelineConfig: spillDir set but memoryBudget "
                     "is 0 (a memory-only store spills nothing)"};
    return std::nullopt;
}

/**
 * Greedy planted-vs-detected matching.  A detection matches a planted
 * defect when the kinds agree, the sites are close (a missing via is
 * reported at the orphaned gate, a few hundred nm from the erased
 * contact), and the identified bitlines are compatible.
 */
void
scoreSiliconDefects(SiliconDefectReport &rep)
{
    std::vector<char> used(rep.detected.size(), 0);
    for (auto &out : rep.planted) {
        const auto &p = out.planted;
        for (size_t i = 0; i < rep.detected.size(); ++i) {
            if (used[i])
                continue;
            const auto &d = rep.detected[i];
            if (d.kind != p.kind)
                continue;
            const common::Vec2 pc = p.footprint.center();
            const common::Vec2 dc = d.where.center();
            if (std::abs(pc.x - dc.x) > 400.0 ||
                std::abs(pc.y - dc.y) > 400.0)
                continue;
            // Bitline compatibility, when both sides identified any.
            std::vector<long> pb, db;
            for (long b : {p.bitlineA, p.bitlineB})
                if (b >= 0)
                    pb.push_back(b);
            for (long b : {d.bitlineA, d.bitlineB})
                if (b >= 0)
                    db.push_back(b);
            bool compatible = pb.empty() || db.empty();
            for (long a : pb)
                for (long b : db)
                    compatible = compatible || a == b;
            if (!compatible)
                continue;
            used[i] = 1;
            out.detected = true;
            ++rep.matched;
            break;
        }
    }
    for (char u : used)
        if (!u)
            ++rep.spurious;
}

void
finishTelemetry(telemetry::Session &session,
                const PipelineConfig &config, PipelineReport &report)
{
    report.telemetry = session.finish(config.telemetry);
    if (!config.telemetry.qcAuditPath.empty())
        telemetry::writeTextFile(config.telemetry.qcAuditPath,
                                 scope::qcAuditJson(report.qcAudit));
}

common::Result<PipelineReport>
runPipelineChecked(const PipelineConfig &config)
{
    using R = common::Result<PipelineReport>;
    // The session binds this thread (and, through the pool, every
    // fan-out it submits), so concurrent runs keep their spans and
    // metric deltas apart.
    std::optional<telemetry::Session> session;
    if (config.telemetry.enabled)
        session.emplace();
    auto init = [&] {
        const telemetry::Span span("pipeline.validate");
        return initStagedRun(config);
    }();
    if (!init.ok())
        return R(init.error());
    StagedState state = init.takeValue();
    {
        // The same stage loop the campaign service drives, minus the
        // checkpoints between stages.
        const telemetry::Span span("pipeline.run");
        while (state.next != Stage::Done)
            if (const auto err = runStage(config, state))
                return R(*err);
    }
    if (session)
        finishTelemetry(*session, config, state.report);
    return R(std::move(state.report));
}

} // namespace core
} // namespace hifi

namespace hifi
{
namespace core
{

common::Result<Repeatability>
repeatPipeline(const PipelineConfig &base, size_t runs)
{
    Repeatability rep;
    rep.runs = runs;
    for (size_t i = 0; i < runs; ++i) {
        PipelineConfig config = base;
        config.seed = base.seed + i;
        auto run = runPipelineChecked(config);
        if (!run.ok())
            return run.error();
        const PipelineReport &report = run.value();
        if (report.topologyCorrect)
            ++rep.topologyCorrect;
        if (report.crossCouplingConsistent)
            ++rep.crossCouplingTraced;
        for (const auto &[role, rr] : report.roles) {
            if (rr.measuredW <= 0.0)
                continue;
            auto &[w_acc, l_acc] = rep.dims[role];
            w_acc.add(rr.measuredW);
            l_acc.add(rr.measuredL);
        }
    }
    return rep;
}

} // namespace core
} // namespace hifi
