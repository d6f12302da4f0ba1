/**
 * @file
 * Campaign-service throughput and fault-tolerance cost.
 *
 * Three questions, each a JSON block consumers can track over time
 * (transcribed into BENCH_service.json):
 *
 *  1. Scheduling: wall time and jobs/min for a fixed batch across
 *     worker-fleet sizes, against the serial direct-run baseline —
 *     what the queue + shared caches buy.
 *  2. Chaos tax: the same batch under deterministic crash injection
 *     (kill probability 0.5) — what a crash-and-resume cycle costs
 *     when every stage boundary is checkpointed.
 *  3. Checkpoint codec: encode/decode latency and image size at
 *     every stage boundary, with the artifact tiles in a memory-only
 *     store — the per-stage overhead a job pays for crash safety.
 *
 * `--quick` shrinks the batch for CI smoke runs.  Exit status is
 * non-zero if any job fails, hangs, or resumes to a report that is
 * not bit-identical to the direct run.
 */

#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/telemetry.hh"
#include "core/stages.hh"
#include "service/campaign.hh"
#include "service/checkpoint.hh"

namespace
{

using hifi::core::PipelineConfig;
using hifi::service::CampaignService;
using hifi::service::JobState;
using hifi::service::ServiceConfig;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

PipelineConfig
benchJob(uint64_t seed)
{
    PipelineConfig config;
    config.chipId = "B5";
    config.pairs = 2;
    config.faults.enabled = true;
    config.seed = seed;
    return config;
}

struct FleetPoint
{
    size_t workers = 0;
    size_t jobs = 0;
    double wallSec = 0.0;
    size_t volumeCacheHits = 0;
    bool ok = true;

    double jobsPerMin() const
    {
        return wallSec > 0.0 ? 60.0 * static_cast<double>(jobs) /
                wallSec
                             : 0.0;
    }
};

struct ChaosPoint
{
    size_t jobs = 0;
    double killProbability = 0.0;
    double wallSec = 0.0;
    size_t attempts = 0;
    size_t resumes = 0;
    size_t checkpointsSaved = 0;
    bool ok = true;
};

struct CodecPoint
{
    std::string stage;
    size_t bytes = 0;
    double encodeMs = 0.0;
    double decodeMs = 0.0;
};

/// Digest of the uninterrupted direct run, shared by both campaigns.
std::vector<uint64_t>
directDigests(size_t jobs)
{
    std::vector<uint64_t> digests;
    for (size_t i = 0; i < jobs; ++i) {
        const auto run =
            hifi::core::runPipelineChecked(benchJob(100 + i));
        if (!run.ok()) {
            std::cerr << "direct run failed: " << run.error().message
                      << "\n";
            std::exit(1);
        }
        digests.push_back(hifi::core::reportDigest(run.value()));
    }
    return digests;
}

bool
runBatch(CampaignService &service, size_t jobs,
         const std::vector<uint64_t> &expect, size_t &attempts,
         size_t &resumes, size_t &checkpoints, size_t &cacheHits)
{
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < jobs; ++i) {
        const auto id = service.submit("bench-" + std::to_string(i),
                                       benchJob(100 + i));
        if (!id.ok()) {
            std::cerr << "submit failed: " << id.error().message
                      << "\n";
            return false;
        }
        ids.push_back(id.value());
    }
    bool ok = true;
    for (size_t i = 0; i < ids.size(); ++i) {
        if (!service.wait(ids[i], 600.0)) {
            std::cerr << "job " << i << " hung\n";
            ok = false;
            continue;
        }
        const auto st = service.status(ids[i]);
        attempts += st.attempts;
        resumes += st.resumes;
        checkpoints += st.checkpointsSaved;
        if (st.state != JobState::Completed) {
            std::cerr << "job " << i << " ended "
                      << hifi::service::jobStateName(st.state)
                      << "\n";
            ok = false;
        } else if (st.reportDigest != expect[i]) {
            std::cerr << "job " << i
                      << " digest differs from the direct run\n";
            ok = false;
        }
        // A resumed job skips stages, visible as fewer stage runs
        // than attempts * stages; cache hits are reported instead
        // through stagesRun < kNumStages on a fresh attempt.
        if (st.resumes == 0 &&
            st.stagesRun < hifi::core::kNumStages)
            ++cacheHits;
    }
    return ok;
}

std::vector<CodecPoint>
benchCodec(const PipelineConfig &config)
{
    std::vector<CodecPoint> points;
    // Memory-only store: the codec cost without disk I/O.  The image
    // holds tile digests; the voxels stay in the store.
    const auto tiles = std::make_shared<hifi::image::TileStore>(
        hifi::image::TileStoreConfig{});
    auto init = hifi::core::initStagedRun(config);
    if (!init.ok())
        std::exit(1);
    auto state = init.takeValue();
    state.tileStore = tiles; // as in the service: one store for both
    while (state.next != hifi::core::Stage::Done) {
        const auto before = state.next;
        if (hifi::core::runStage(config, state))
            std::exit(1);
        if (state.next == hifi::core::Stage::Done)
            break;
        CodecPoint p;
        p.stage = hifi::core::stageName(before);
        const auto t0 = Clock::now();
        auto encoded =
            hifi::service::encodeCheckpoint(config, state, tiles);
        p.encodeMs = secondsSince(t0) * 1e3;
        if (!encoded.ok()) {
            std::cerr << "encode failed at " << p.stage << ": "
                      << encoded.error().message << "\n";
            std::exit(1);
        }
        const std::string image = encoded.takeValue();
        p.bytes = image.size();
        const auto t1 = Clock::now();
        auto decoded =
            hifi::service::decodeCheckpoint(image, config, tiles);
        p.decodeMs = secondsSince(t1) * 1e3;
        if (!decoded.ok()) {
            std::cerr << "decode failed at " << p.stage << ": "
                      << decoded.error().message << "\n";
            std::exit(1);
        }
        points.push_back(p);
    }
    return points;
}

} // namespace

int
main(int argc, char **argv)
{
    hifi::telemetry::reportPeakRssAtExit();
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;

    const size_t jobs = quick ? 3 : 6;
    const std::vector<size_t> fleets =
        quick ? std::vector<size_t>{1, 2}
              : std::vector<size_t>{1, 2, 4};

    std::cout << "campaign service benchmark (" << jobs
              << " jobs, B5 x 2 pairs, faults on)\n\n";

    const auto t0 = Clock::now();
    const auto expect = directDigests(jobs);
    const double directSec = secondsSince(t0);
    std::cout << "serial direct baseline: " << directSec << " s\n";

    bool ok = true;

    std::vector<FleetPoint> fleet;
    for (const size_t workers : fleets) {
        ServiceConfig cfg;
        cfg.workers = workers;
        cfg.volumeCacheCapacity = 2;
        cfg.cleanFrameCacheCapacity = 8;
        CampaignService service(cfg);
        FleetPoint p;
        p.workers = workers;
        p.jobs = jobs;
        size_t attempts = 0, resumes = 0, ckpts = 0;
        const auto start = Clock::now();
        p.ok = runBatch(service, jobs, expect, attempts, resumes,
                        ckpts, p.volumeCacheHits);
        p.wallSec = secondsSince(start);
        ok = ok && p.ok;
        std::cout << "fleet of " << workers << ": " << p.wallSec
                  << " s, " << p.jobsPerMin() << " jobs/min\n";
        fleet.push_back(p);
    }

    ChaosPoint chaos;
    {
        const auto dir = std::filesystem::temp_directory_path() /
            "hifi_bench_service_ckpt";
        std::filesystem::remove_all(dir);
        ServiceConfig cfg;
        cfg.workers = 2;
        cfg.checkpointDir = dir.string();
        cfg.volumeCacheCapacity = 2;
        cfg.cleanFrameCacheCapacity = 8;
        cfg.chaos.enabled = true;
        cfg.chaos.killProbability = 0.5;
        cfg.retry.maxAttempts = 8;
        cfg.retry.backoffBaseMs = 1.0;
        CampaignService service(cfg);
        chaos.jobs = jobs;
        chaos.killProbability = cfg.chaos.killProbability;
        size_t cacheHits = 0;
        const auto start = Clock::now();
        chaos.ok = runBatch(service, jobs, expect, chaos.attempts,
                            chaos.resumes, chaos.checkpointsSaved,
                            cacheHits);
        chaos.wallSec = secondsSince(start);
        ok = ok && chaos.ok;
        std::filesystem::remove_all(dir);
        std::cout << "chaos (kill 0.5): " << chaos.wallSec << " s, "
                  << chaos.attempts << " attempts, " << chaos.resumes
                  << " resumes, every report bit-identical\n";
    }

    const auto codec = benchCodec(benchJob(100));
    for (const auto &p : codec)
        std::cout << "checkpoint after " << p.stage << ": "
                  << p.bytes << " B, encode " << p.encodeMs
                  << " ms, decode " << p.decodeMs << " ms\n";

    // Machine-readable block (transcribed into BENCH_service.json).
    std::cout << "\nJSON:\n{\n \"direct_serial_sec\": " << directSec
              << ",\n \"fleet\": [";
    for (size_t i = 0; i < fleet.size(); ++i) {
        const FleetPoint &p = fleet[i];
        std::cout << (i ? ",\n  " : "\n  ")
                  << "{\"workers\": " << p.workers
                  << ", \"jobs\": " << p.jobs
                  << ", \"wall_sec\": " << p.wallSec
                  << ", \"jobs_per_min\": " << p.jobsPerMin()
                  << ", \"volume_cache_hits\": " << p.volumeCacheHits
                  << "}";
    }
    std::cout << "\n ],\n \"chaos\": {\"jobs\": " << chaos.jobs
              << ", \"kill_probability\": " << chaos.killProbability
              << ", \"wall_sec\": " << chaos.wallSec
              << ", \"attempts\": " << chaos.attempts
              << ", \"resumes\": " << chaos.resumes
              << ", \"checkpoints_saved\": " << chaos.checkpointsSaved
              << "},\n \"checkpoint\": [";
    for (size_t i = 0; i < codec.size(); ++i) {
        const CodecPoint &p = codec[i];
        std::cout << (i ? ",\n  " : "\n  ") << "{\"stage\": \""
                  << p.stage << "\", \"bytes\": " << p.bytes
                  << ", \"encode_ms\": " << p.encodeMs
                  << ", \"decode_ms\": " << p.decodeMs << "}";
    }
    std::cout << "\n ]\n}\n";

    if (!ok) {
        std::cerr << "service benchmark found regressions\n";
        return 1;
    }
    return 0;
}
