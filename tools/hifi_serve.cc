/**
 * @file
 * Campaign-service runner and chaos harness (service/campaign.hh).
 *
 *   hifi_serve [--jobs N] [--workers N] [--chips A4,B5,...]
 *              [--seed-namespace S] [--pairs N] [--faults]
 *              [--checkpoint-dir DIR] [--chaos] [--kill-prob P]
 *              [--stall-prob P] [--stage-timeout-sec T]
 *              [--max-queue N] [--memory-budget MIB]
 *              [--quick] [--no-verify]
 *
 * --memory-budget runs every job out-of-core: acquisition and
 * assembly stream through a bounded tile store spilled next to the
 * checkpoints, and the verifier re-runs the job in RAM to prove the
 * budgeted report is bit-identical.
 *
 * Submits N pipeline jobs to a CampaignService and drains it.  With
 * --chaos, deterministic crash injection aborts jobs at stage
 * boundaries; the service retries them from their checkpoints.  For
 * every completed job the harness re-runs the same configuration
 * directly through runPipelineChecked and asserts the report digests
 * match — i.e. a job that crashed, resumed and retried produced the
 * exact bits an undisturbed run produces (skip with --no-verify).
 *
 * --quick presets a CI-friendly soak: 4 jobs, 2 workers, chaos kills
 * at 50%, per-job wait budget 120 s.
 *
 * Exit status: 0 when every job completed (bit-identical when
 * verified) or failed with a typed terminal error and nothing hung;
 * 1 on a digest mismatch, hang, or untyped failure; 2 on usage
 * errors.
 */

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "service/campaign.hh"

namespace
{

using hifi::core::PipelineConfig;
using hifi::service::CampaignService;
using hifi::service::JobState;
using hifi::service::ServiceConfig;

struct Options
{
    size_t jobs = 8;
    size_t workers = 2;
    std::vector<std::string> chips = {"B5", "A4", "C4"};
    uint64_t seedNamespace = 0x5e21ceull;
    size_t pairs = 2;
    bool faults = true;
    std::string checkpointDir = "hifi_serve_ckpt";
    bool chaos = false;
    double killProb = 0.3;
    double stallProb = 0.0;
    double stageTimeoutSec = 0.0;
    size_t maxQueue = 64;
    bool verify = true;
    double waitBudgetSec = 120.0;

    /// Per-job PipelineConfig::memoryBudget in MiB (0 = in-RAM).
    size_t memoryBudgetMib = 0;
};

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

int
usage()
{
    std::cerr
        << "usage: hifi_serve [--jobs N] [--workers N] [--chips "
           "A4,B5] [--seed-namespace S] [--pairs N] [--faults]\n"
           "                  [--checkpoint-dir DIR] [--chaos] "
           "[--kill-prob P] [--stall-prob P]\n"
           "                  [--stage-timeout-sec T] [--max-queue "
           "N] [--memory-budget MIB]\n"
           "                  [--quick] [--no-verify]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--jobs") {
            const char *v = value();
            if (!v)
                return usage();
            opt.jobs = std::stoul(v);
        } else if (arg == "--workers") {
            const char *v = value();
            if (!v)
                return usage();
            opt.workers = std::stoul(v);
        } else if (arg == "--chips") {
            const char *v = value();
            if (!v)
                return usage();
            opt.chips = splitList(v);
        } else if (arg == "--seed-namespace") {
            const char *v = value();
            if (!v)
                return usage();
            opt.seedNamespace = std::stoull(v);
        } else if (arg == "--pairs") {
            const char *v = value();
            if (!v)
                return usage();
            opt.pairs = std::stoul(v);
        } else if (arg == "--faults") {
            opt.faults = true;
        } else if (arg == "--no-faults") {
            opt.faults = false;
        } else if (arg == "--checkpoint-dir") {
            const char *v = value();
            if (!v)
                return usage();
            opt.checkpointDir = v;
        } else if (arg == "--chaos") {
            opt.chaos = true;
        } else if (arg == "--kill-prob") {
            const char *v = value();
            if (!v)
                return usage();
            opt.killProb = std::stod(v);
        } else if (arg == "--stall-prob") {
            const char *v = value();
            if (!v)
                return usage();
            opt.stallProb = std::stod(v);
        } else if (arg == "--stage-timeout-sec") {
            const char *v = value();
            if (!v)
                return usage();
            opt.stageTimeoutSec = std::stod(v);
        } else if (arg == "--max-queue") {
            const char *v = value();
            if (!v)
                return usage();
            opt.maxQueue = std::stoul(v);
        } else if (arg == "--memory-budget") {
            const char *v = value();
            if (!v)
                return usage();
            opt.memoryBudgetMib = std::stoul(v);
        } else if (arg == "--quick") {
            opt.jobs = 4;
            opt.workers = 2;
            opt.chaos = true;
            opt.killProb = 0.5;
        } else if (arg == "--no-verify") {
            opt.verify = false;
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return usage();
        }
    }
    if (opt.chips.empty() || opt.jobs == 0)
        return usage();

    ServiceConfig cfg;
    cfg.workers = opt.workers;
    cfg.maxQueueDepth = opt.maxQueue;
    cfg.blockWhenFull = true;
    cfg.checkpointDir = opt.checkpointDir;
    cfg.seedNamespace = opt.seedNamespace;
    cfg.stageTimeoutSec = opt.stageTimeoutSec;
    cfg.cleanFrameCacheCapacity = 8;
    cfg.chaos.enabled = opt.chaos;
    cfg.chaos.killProbability = opt.chaos ? opt.killProb : 0.0;
    cfg.chaos.stallProbability = opt.chaos ? opt.stallProb : 0.0;
    // Give chaos kills room to succeed eventually: every stage that
    // completes is checkpointed, so maxAttempts bounds the number of
    // *boundary* crashes survived, not redone work.
    cfg.retry.maxAttempts = 8;
    cfg.retry.backoffBaseMs = 1.0;

    CampaignService service(cfg);

    std::vector<std::pair<uint64_t, PipelineConfig>> submitted;
    for (size_t i = 0; i < opt.jobs; ++i) {
        PipelineConfig pc;
        pc.chipId = opt.chips[i % opt.chips.size()];
        pc.pairs = opt.pairs;
        pc.faults.enabled = opt.faults;
        if (opt.memoryBudgetMib) {
            // Budgeted jobs stream their volumes through a tile
            // store spilled next to the checkpoints; the verify
            // re-run below proves the report is still bit-identical
            // to the unbudgeted in-RAM pipeline.
            pc.memoryBudget = opt.memoryBudgetMib << 20;
            pc.spillDir = opt.checkpointDir + "/spill-" +
                std::to_string(i);
        }
        const auto id = service.submit(
            "soak-" + std::to_string(i), pc);
        if (!id.ok()) {
            std::cerr << "submit failed: " << id.error().message
                      << "\n";
            return 1;
        }
        submitted.emplace_back(id.value(), pc);
    }

    bool ok = true;
    size_t completed = 0, failed = 0;
    for (const auto &[id, submittedConfig] : submitted) {
        if (!service.wait(id, opt.waitBudgetSec)) {
            std::cerr << "HUNG: job " << id
                      << " did not settle within "
                      << opt.waitBudgetSec << " s\n";
            ok = false;
            continue;
        }
        const auto st = service.status(id);
        if (st.state == JobState::Completed) {
            ++completed;
            std::cout << "job " << st.name << ": completed, seed "
                      << st.effectiveSeed << ", attempts "
                      << st.attempts << ", resumes " << st.resumes
                      << ", chaos kills " << st.chaosKills
                      << ", digest " << std::hex << st.reportDigest
                      << std::dec << "\n";
            if (opt.verify) {
                PipelineConfig pc = submittedConfig;
                pc.seed = st.effectiveSeed;
                // Verify budgeted jobs against the unbudgeted
                // in-RAM pipeline: the digests must still agree.
                pc.memoryBudget = 0;
                pc.spillDir.clear();
                const auto direct =
                    hifi::core::runPipelineChecked(pc);
                if (!direct.ok() ||
                    hifi::core::reportDigest(direct.value()) !=
                        st.reportDigest) {
                    std::cerr << "MISMATCH: job " << st.name
                              << " digest differs from the direct "
                                 "run\n";
                    ok = false;
                }
            }
        } else if (st.state == JobState::Failed && st.error) {
            ++failed;
            std::cout << "job " << st.name
                      << ": typed terminal error ("
                      << hifi::common::errorCodeName(
                             st.error->code)
                      << "): " << st.error->message << "\n";
        } else {
            std::cerr << "job " << st.name << ": unexpected state "
                      << hifi::service::jobStateName(st.state)
                      << "\n";
            ok = false;
        }
    }

    std::cout << "health: " << service.healthJson() << "\n";
    std::cout << completed << " completed, " << failed
              << " typed failures, " << submitted.size()
              << " jobs\n";
    return ok ? 0 : 1;
}
