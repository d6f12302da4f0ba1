#include "service/campaign.hh"

#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <list>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/telemetry.hh"
#include "scope/fib.hh"
#include "service/checkpoint.hh"

namespace hifi
{
namespace service
{

namespace
{

/// Service instrumentation (global registry; per-job numbers also
/// live in JobStatus so tests can assert without telemetry).
struct ServiceMetrics
{
    telemetry::Counter &submitted;
    telemetry::Counter &completed;
    telemetry::Counter &failed;
    telemetry::Counter &cancelled;
    telemetry::Counter &rejected;
    telemetry::Counter &interrupted;
    telemetry::Counter &degraded;
    telemetry::Counter &retryAttempts;
    telemetry::Counter &watchdogTimeouts;
    telemetry::Counter &checkpointSaved;
    telemetry::Counter &checkpointResumed;
    telemetry::Counter &volumeHit;
    telemetry::Counter &volumeMiss;
    telemetry::Counter &volumeEvicted;
    telemetry::Counter &chaosKills;
    telemetry::Counter &chaosStalls;

    static ServiceMetrics &
    get()
    {
        static ServiceMetrics *m = new ServiceMetrics{
            telemetry::registry().counter("service.jobs.submitted"),
            telemetry::registry().counter("service.jobs.completed"),
            telemetry::registry().counter("service.jobs.failed"),
            telemetry::registry().counter("service.jobs.cancelled"),
            telemetry::registry().counter("service.jobs.rejected"),
            telemetry::registry().counter("service.jobs.interrupted"),
            telemetry::registry().counter("service.jobs.degraded"),
            telemetry::registry().counter("service.retry.attempts"),
            telemetry::registry().counter("service.watchdog.timeouts"),
            telemetry::registry().counter("service.checkpoint.saved"),
            telemetry::registry().counter("service.checkpoint.resumed"),
            telemetry::registry().counter("service.cache.volume.hit"),
            telemetry::registry().counter("service.cache.volume.miss"),
            telemetry::registry().counter("service.cache.volume.evicted"),
            telemetry::registry().counter("service.chaos.kills"),
            telemetry::registry().counter("service.chaos.stalls")};
        return *m;
    }
};

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::string
sanitizeName(const std::string &name)
{
    std::string out = name;
    for (char &c : out)
        if (!(std::isalnum(static_cast<unsigned char>(c)) ||
              c == '-' || c == '_' || c == '.'))
            c = '_';
    return out;
}

} // namespace

const char *
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Queued:
        return "queued";
      case JobState::Running:
        return "running";
      case JobState::Backoff:
        return "backoff";
      case JobState::Interrupted:
        return "interrupted";
      case JobState::Completed:
        return "completed";
      case JobState::Failed:
        return "failed";
      case JobState::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

struct CampaignService::Impl
{
    /** One job's full record.  Plain fields are guarded by `mu`;
     *  the atomics are touched from the watchdog / cancel paths. */
    struct Job
    {
        uint64_t id = 0;
        std::string name;
        core::PipelineConfig config; // seed already namespaced
        uint64_t fabKey = 0;

        JobState state = JobState::Queued;
        size_t attempts = 0;
        size_t stagesRun = 0;
        size_t checkpointsSaved = 0;
        size_t resumes = 0;
        size_t chaosKills = 0;
        size_t timeouts = 0;
        core::Stage cursor = core::Stage::Fab;
        double costHours = 0.0;

        std::shared_ptr<core::PipelineReport> report;
        uint64_t digest = 0;
        bool degraded = false;
        std::optional<common::Error> error;

        std::atomic<bool> cancelRequested{false};
        std::atomic<bool> timedOut{false};
        std::atomic<uint64_t> stageStartNs{0}; // 0: not in a stage
    };

    ServiceConfig cfg;

    mutable std::mutex mu;
    std::condition_variable cvQueue; ///< workers wait for work
    std::condition_variable cvState; ///< job-state / backoff waiters
    std::map<uint64_t, std::unique_ptr<Job>> jobs;
    std::deque<Job *> queue;
    uint64_t nextId = 1;
    uint64_t submissions = 0;
    size_t active = 0; ///< jobs neither terminal nor interrupted
    double queuedHours = 0.0;
    bool stopping = false;

    std::vector<std::thread> workers;
    std::thread watchdog;

    std::optional<scope::CleanFrameCache> cleanFrames;

    /// Tile store backing the checkpoints and every job's processed
    /// volume; null when checkpointing is disabled (each job's
    /// Postprocess stage then provides its own store).
    std::shared_ptr<image::TileStore> tileStore;

    /// Content-addressed post-Fab cache: fabDigest -> StagedState
    /// snapshot (cursor at Acquire, materials aliased).  LRU.
    std::list<std::pair<uint64_t,
                        std::shared_ptr<const core::StagedState>>>
        volLru;
    std::map<uint64_t, decltype(volLru)::iterator> volIndex;

    explicit Impl(ServiceConfig config) : cfg(std::move(config))
    {
        if (cfg.workers == 0)
            cfg.workers = 1;
        if (cfg.cleanFrameCacheCapacity > 0)
            cleanFrames.emplace(cfg.cleanFrameCacheCapacity);
        if (!cfg.checkpointDir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(cfg.checkpointDir,
                                                ec);
            image::TileStoreConfig tc;
            tc.dir = cfg.checkpointDir + "/tiles";
            tc.budgetBytes = cfg.tileCacheBytes;
            tileStore =
                std::make_shared<image::TileStore>(std::move(tc));
        }
        workers.reserve(cfg.workers);
        for (size_t i = 0; i < cfg.workers; ++i)
            workers.emplace_back([this] { workerLoop(); });
        if (cfg.stageTimeoutSec > 0.0)
            watchdog = std::thread([this] { watchdogLoop(); });
    }

    std::string
    checkpointPath(const Job &j) const
    {
        if (cfg.checkpointDir.empty())
            return {};
        return cfg.checkpointDir + "/job-" + sanitizeName(j.name) +
            ".ckpt";
    }

    // ---- Worker fleet ---------------------------------------------

    void
    workerLoop()
    {
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            cvQueue.wait(lock, [&] {
                return stopping || !queue.empty();
            });
            if (stopping)
                return;
            Job *j = queue.front();
            queue.pop_front();
            if (j->cancelRequested.load()) {
                finishLocked(*j, JobState::Cancelled);
                continue;
            }
            j->state = JobState::Running;
            lock.unlock();
            processJob(*j);
            lock.lock();
        }
    }

    /// Terminal (or interrupted) transition; callers hold `mu`.
    void
    finishLocked(Job &j, JobState state)
    {
        j.state = state;
        --active;
        queuedHours -= j.costHours;
        ServiceMetrics &m = ServiceMetrics::get();
        switch (state) {
          case JobState::Completed:
            m.completed.add(1);
            if (j.degraded)
                m.degraded.add(1);
            break;
          case JobState::Failed:
            m.failed.add(1);
            break;
          case JobState::Cancelled:
            if (!j.error)
                j.error = common::Error{
                    common::ErrorCode::Cancelled,
                    "job '" + j.name + "' cancelled"};
            m.cancelled.add(1);
            break;
          case JobState::Interrupted:
            m.interrupted.add(1);
            break;
          default:
            break;
        }
        cvState.notify_all();
    }

    /// One attempt's outcome.
    struct Attempt
    {
        enum Kind
        {
            Ok,   ///< report ready
            Fail, ///< typed error (retry decided by the caller)
            Stop, ///< service shutting down; checkpoint persisted
        };
        Kind kind = Fail;
        common::Error error;
        core::PipelineReport report;
    };

    void
    processJob(Job &j)
    {
        // Per-job telemetry scope: spans/metric deltas produced by
        // this worker (and the pool threads it fans out to) are
        // attributed to this job's session.  Declared before the
        // bind so the bind is released first.
        std::optional<telemetry::Session> session;
        std::optional<telemetry::SessionBind> bind;
        if (j.config.telemetry.enabled) {
            session.emplace();
            bind.emplace(*session);
        }

        const std::string ckpt = checkpointPath(j);
        for (size_t attempt = 1;; ++attempt) {
            {
                std::lock_guard<std::mutex> lock(mu);
                ++j.attempts;
                if (attempt > 1)
                    ServiceMetrics::get().retryAttempts.add(1);
            }
            Attempt out = runAttempt(j, attempt, ckpt);

            std::unique_lock<std::mutex> lock(mu);
            if (out.kind == Attempt::Ok) {
                if (session) {
                    lock.unlock();
                    out.report.telemetry =
                        session->finish(j.config.telemetry);
                    if (!j.config.telemetry.qcAuditPath.empty())
                        telemetry::writeTextFile(
                            j.config.telemetry.qcAuditPath,
                            scope::qcAuditJson(out.report.qcAudit));
                    session.reset();
                    bind.reset();
                    lock.lock();
                }
                j.digest = core::reportDigest(out.report);
                j.degraded = out.report.degraded;
                j.report = std::make_shared<core::PipelineReport>(
                    std::move(out.report));
                j.cursor = core::Stage::Done;
                // Remove the checkpoint before the terminal
                // transition: anyone woken by wait() must not find a
                // stale checkpoint for a completed job.
                if (!ckpt.empty()) {
                    lock.unlock();
                    removeCheckpoint(ckpt);
                    lock.lock();
                }
                finishLocked(j, JobState::Completed);
                return;
            }
            if (out.kind == Attempt::Stop) {
                finishLocked(j, JobState::Interrupted);
                return;
            }
            if (j.cancelRequested.load() ||
                out.error.code == common::ErrorCode::Cancelled) {
                j.error = std::move(out.error);
                finishLocked(j, JobState::Cancelled);
                return;
            }
            const bool retryable =
                common::isTransient(out.error.code) &&
                attempt < cfg.retry.maxAttempts;
            if (!retryable) {
                j.error = std::move(out.error);
                finishLocked(j, JobState::Failed);
                return;
            }

            // Exponential backoff with deterministic jitter.
            j.state = JobState::Backoff;
            double delayMs = cfg.retry.backoffBaseMs;
            for (size_t a = 1; a < attempt; ++a)
                delayMs *= cfg.retry.backoffFactor;
            common::Rng jitter(cfg.retry.seed,
                               (j.id << 8) | attempt);
            delayMs *= 1.0 +
                cfg.retry.jitterFrac * (jitter.uniform() - 0.5);
            common::warn("service: job '" + j.name + "' attempt " +
                         std::to_string(attempt) + " failed (" +
                         common::errorCodeName(out.error.code) +
                         "), retrying in " +
                         std::to_string(delayMs) + " ms");
            cvState.wait_for(
                lock,
                std::chrono::microseconds(
                    static_cast<long long>(delayMs * 1000.0)),
                [&] {
                    return stopping || j.cancelRequested.load();
                });
            if (stopping) {
                finishLocked(j, JobState::Interrupted);
                return;
            }
            if (j.cancelRequested.load()) {
                finishLocked(j, JobState::Cancelled);
                return;
            }
            j.state = JobState::Running;
        }
    }

    Attempt
    runAttempt(Job &j, size_t attempt, const std::string &ckpt)
    {
        ServiceMetrics &m = ServiceMetrics::get();
        Attempt out;
        core::StagedState state;
        bool haveState = false;

        // 1. Resume from the newest checkpoint when one exists.
        if (!ckpt.empty()) {
            auto loaded = loadCheckpoint(ckpt, j.config, tileStore);
            if (loaded.ok()) {
                state = loaded.takeValue();
                haveState = true;
                if (state.next != core::Stage::Fab) {
                    m.checkpointResumed.add(1);
                    std::lock_guard<std::mutex> lock(mu);
                    ++j.resumes;
                }
            } else if (loaded.error().code !=
                       common::ErrorCode::NotFound) {
                common::warn("service: job '" + j.name +
                             "': discarding checkpoint (" +
                             loaded.error().message + ")");
                removeCheckpoint(ckpt);
            }
        }

        // 2. Fresh start, possibly satisfied by the fab cache.
        if (!haveState) {
            auto init = core::initStagedRun(j.config);
            if (!init.ok()) {
                out.error = init.error();
                return out;
            }
            state = init.takeValue();
            if (cfg.volumeCacheCapacity > 0) {
                std::lock_guard<std::mutex> lock(mu);
                const auto it = volIndex.find(j.fabKey);
                if (it != volIndex.end()) {
                    volLru.splice(volLru.begin(), volLru,
                                  it->second);
                    state = *it->second->second;
                    m.volumeHit.add(1);
                } else {
                    m.volumeMiss.add(1);
                }
            }
        }

        if (cleanFrames) {
            state.cleanFrames = &*cleanFrames;
            state.volumeKey = j.fabKey;
        }
        if (tileStore)
            state.tileStore = tileStore; // spill beside checkpoints

        // 3. Stage loop: run, record, cache, checkpoint, (chaos).
        while (state.next != core::Stage::Done) {
            if (j.cancelRequested.load()) {
                out.error = common::Error{
                    common::ErrorCode::Cancelled,
                    "job '" + j.name + "' cancelled at stage " +
                        core::stageName(state.next)};
                return out;
            }
            {
                std::lock_guard<std::mutex> lock(mu);
                if (stopping) {
                    out.kind = Attempt::Stop;
                    return out;
                }
            }

            const core::Stage stage = state.next;
            j.timedOut.store(false);
            j.stageStartNs.store(nowNs());
            const auto err = core::runStage(j.config, state);
            {
                std::lock_guard<std::mutex> lock(mu);
                ++j.stagesRun;
                j.cursor = state.next;
            }
            if (err) {
                j.stageStartNs.store(0);
                out.error = *err;
                return out;
            }

            if (stage == core::Stage::Fab &&
                cfg.volumeCacheCapacity > 0)
                storeFabSnapshot(j.fabKey, state);

            if (!ckpt.empty() && state.next != core::Stage::Done) {
                if (const auto serr = saveCheckpoint(
                        ckpt, j.config, state, tileStore)) {
                    common::warn("service: job '" + j.name +
                                 "': checkpoint failed (" +
                                 serr->message + ")");
                } else {
                    m.checkpointSaved.add(1);
                    std::lock_guard<std::mutex> lock(mu);
                    ++j.checkpointsSaved;
                }
            }

            // Deterministic chaos at the stage boundary (after the
            // checkpoint, so a "crash" resumes from this stage).
            if (cfg.chaos.enabled &&
                state.next != core::Stage::Done) {
                common::Rng chaos(
                    cfg.chaos.seed ^ j.config.seed,
                    (static_cast<uint64_t>(stage) << 8) | attempt);
                const double u = chaos.uniform();
                if (u < cfg.chaos.killProbability) {
                    m.chaosKills.add(1);
                    {
                        std::lock_guard<std::mutex> lock(mu);
                        ++j.chaosKills;
                    }
                    j.stageStartNs.store(0);
                    out.error = common::Error{
                        common::ErrorCode::Internal,
                        "chaos: injected crash after stage " +
                            std::string(core::stageName(stage))};
                    return out;
                }
                if (u < cfg.chaos.killProbability +
                        cfg.chaos.stallProbability) {
                    m.chaosStalls.add(1);
                    stallTicks(j);
                }
            }
            j.stageStartNs.store(0);

            if (j.timedOut.load()) {
                m.watchdogTimeouts.add(1);
                {
                    std::lock_guard<std::mutex> lock(mu);
                    ++j.timeouts;
                }
                out.error = common::Error{
                    common::ErrorCode::DeadlineExceeded,
                    "stage " + std::string(core::stageName(stage)) +
                        " of job '" + j.name +
                        "' exceeded the watchdog deadline"};
                return out;
            }
        }

        out.kind = Attempt::Ok;
        out.report = std::move(state.report);
        return out;
    }

    /// Chaos stall: sleep in 1 ms ticks so the watchdog (or a
    /// cancel/shutdown) can cut it short.
    void
    stallTicks(Job &j)
    {
        const uint64_t t0 = nowNs();
        const auto budget =
            static_cast<uint64_t>(cfg.chaos.stallMs * 1.0e6);
        while (nowNs() - t0 < budget) {
            if (j.timedOut.load() || j.cancelRequested.load())
                return;
            {
                std::lock_guard<std::mutex> lock(mu);
                if (stopping)
                    return;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    }

    /// Insert a copy of the post-Fab state into the LRU (no-op when
    /// the key is already present).
    void
    storeFabSnapshot(uint64_t key, const core::StagedState &state)
    {
        auto snap = std::make_shared<core::StagedState>(state);
        snap->cleanFrames = nullptr; // rebound per job on reuse
        snap->volumeKey = 0;
        snap->tileStore.reset();
        std::lock_guard<std::mutex> lock(mu);
        if (volIndex.count(key))
            return;
        volLru.emplace_front(key, std::move(snap));
        volIndex[key] = volLru.begin();
        while (volLru.size() > cfg.volumeCacheCapacity) {
            volIndex.erase(volLru.back().first);
            volLru.pop_back();
            ServiceMetrics::get().volumeEvicted.add(1);
        }
    }

    /// Status snapshot of one job; callers hold `mu`.
    static JobStatus
    makeStatus(const Job &j)
    {
        JobStatus s;
        s.id = j.id;
        s.name = j.name;
        s.state = j.state;
        s.attempts = j.attempts;
        s.stagesRun = j.stagesRun;
        s.checkpointsSaved = j.checkpointsSaved;
        s.resumes = j.resumes;
        s.chaosKills = j.chaosKills;
        s.timeouts = j.timeouts;
        s.cursor = j.cursor;
        s.effectiveSeed = j.config.seed;
        s.costHours = j.costHours;
        s.reportDigest = j.digest;
        s.degraded = j.degraded;
        s.error = j.error;
        return s;
    }

    // ---- Watchdog -------------------------------------------------

    void
    watchdogLoop()
    {
        const auto deadlineNs =
            static_cast<uint64_t>(cfg.stageTimeoutSec * 1.0e9);
        std::unique_lock<std::mutex> lock(mu);
        while (!stopping) {
            cvState.wait_for(lock, std::chrono::milliseconds(5),
                             [&] { return stopping; });
            if (stopping)
                return;
            for (auto &[id, j] : jobs) {
                const uint64_t start = j->stageStartNs.load();
                if (start != 0 && nowNs() - start > deadlineNs)
                    j->timedOut.store(true);
            }
        }
    }
};

// ---- Public API ----------------------------------------------------

CampaignService::CampaignService(ServiceConfig config)
    : impl_(new Impl(std::move(config)))
{}

CampaignService::~CampaignService()
{
    shutdown();
}

common::Result<uint64_t>
CampaignService::submit(const std::string &name,
                        const core::PipelineConfig &config)
{
    using R = common::Result<uint64_t>;
    ServiceMetrics &m = ServiceMetrics::get();
    Impl &im = *impl_;

    if (const auto err = core::validateConfig(config)) {
        m.rejected.add(1);
        return R(*err);
    }

    // Table-I admission: the cost model is cheap and needs only the
    // chip spec, so estimate before touching the queue.
    const models::ChipSpec &chip = models::chip(config.chipId);
    const double costHours = scope::campaignCost(chip).totalHours;
    if (im.cfg.maxJobHours > 0.0 &&
        costHours > im.cfg.maxJobHours) {
        m.rejected.add(1);
        return R::failure(
            common::ErrorCode::ResourceExhausted,
            "job '" + name + "' estimated at " +
                std::to_string(costHours) +
                " h exceeds the per-job budget of " +
                std::to_string(im.cfg.maxJobHours) + " h");
    }

    std::unique_lock<std::mutex> lock(im.mu);
    for (;;) {
        if (im.stopping) {
            m.rejected.add(1);
            return R::failure(common::ErrorCode::FailedPrecondition,
                              "service is shut down");
        }
        const bool queueFull = im.active >= im.cfg.maxQueueDepth;
        const bool budgetFull = im.cfg.maxQueuedHours > 0.0 &&
            im.queuedHours + costHours > im.cfg.maxQueuedHours;
        if (!queueFull && !budgetFull)
            break;
        if (!im.cfg.blockWhenFull) {
            m.rejected.add(1);
            return R::failure(
                common::ErrorCode::ResourceExhausted,
                queueFull
                    ? "queue depth limit of " +
                        std::to_string(im.cfg.maxQueueDepth) +
                        " reached"
                    : "queued campaign budget of " +
                        std::to_string(im.cfg.maxQueuedHours) +
                        " h reached");
        }
        im.cvState.wait(lock);
    }

    auto job = std::make_unique<Impl::Job>();
    job->id = im.nextId++;
    job->name = name;
    job->config = config;
    if (im.cfg.seedNamespace != 0)
        job->config.seed =
            common::Rng(im.cfg.seedNamespace, im.submissions).next();
    ++im.submissions;
    job->fabKey = fabDigest(job->config);
    job->costHours = costHours;

    const uint64_t id = job->id;
    Impl::Job *raw = job.get();
    im.jobs.emplace(id, std::move(job));
    im.queue.push_back(raw);
    ++im.active;
    im.queuedHours += costHours;
    m.submitted.add(1);
    im.cvQueue.notify_one();
    return R(uint64_t{id});
}

bool
CampaignService::cancel(uint64_t id)
{
    Impl &im = *impl_;
    std::lock_guard<std::mutex> lock(im.mu);
    const auto it = im.jobs.find(id);
    if (it == im.jobs.end())
        return false;
    Impl::Job &j = *it->second;
    if (isTerminal(j.state) || j.state == JobState::Interrupted)
        return false;
    j.cancelRequested.store(true);
    if (j.state == JobState::Queued) {
        for (auto qit = im.queue.begin(); qit != im.queue.end();
             ++qit) {
            if (*qit == &j) {
                im.queue.erase(qit);
                break;
            }
        }
        im.finishLocked(j, JobState::Cancelled);
    } else {
        im.cvState.notify_all(); // interrupt a backoff wait
    }
    return true;
}

JobStatus
CampaignService::status(uint64_t id) const
{
    const Impl &im = *impl_;
    std::lock_guard<std::mutex> lock(im.mu);
    return Impl::makeStatus(*im.jobs.at(id));
}

std::vector<JobStatus>
CampaignService::statuses() const
{
    const Impl &im = *impl_;
    std::lock_guard<std::mutex> lock(im.mu);
    std::vector<JobStatus> out;
    out.reserve(im.jobs.size());
    for (const auto &[id, j] : im.jobs)
        out.push_back(Impl::makeStatus(*j));
    return out;
}

common::Result<core::PipelineReport>
CampaignService::result(uint64_t id) const
{
    using R = common::Result<core::PipelineReport>;
    const Impl &im = *impl_;
    std::lock_guard<std::mutex> lock(im.mu);
    const auto it = im.jobs.find(id);
    if (it == im.jobs.end())
        return R::failure(common::ErrorCode::NotFound,
                          "unknown job id " + std::to_string(id));
    const Impl::Job &j = *it->second;
    if (j.state == JobState::Completed)
        return R(core::PipelineReport(*j.report));
    if (j.error)
        return R(*j.error);
    return R::failure(common::ErrorCode::FailedPrecondition,
                      "job '" + j.name + "' is " +
                          jobStateName(j.state));
}

bool
CampaignService::wait(uint64_t id, double timeoutSec)
{
    Impl &im = *impl_;
    std::unique_lock<std::mutex> lock(im.mu);
    const auto it = im.jobs.find(id);
    if (it == im.jobs.end())
        return false;
    Impl::Job &j = *it->second;
    const auto settled = [&] {
        return isTerminal(j.state) ||
            j.state == JobState::Interrupted || im.stopping;
    };
    if (timeoutSec < 0.0)
        im.cvState.wait(lock, settled);
    else
        im.cvState.wait_for(
            lock,
            std::chrono::microseconds(
                static_cast<long long>(timeoutSec * 1.0e6)),
            settled);
    return isTerminal(j.state);
}

void
CampaignService::drain()
{
    Impl &im = *impl_;
    std::unique_lock<std::mutex> lock(im.mu);
    im.cvState.wait(lock, [&] {
        return im.active == 0 || im.stopping;
    });
}

void
CampaignService::shutdown()
{
    Impl &im = *impl_;
    {
        std::lock_guard<std::mutex> lock(im.mu);
        if (im.stopping)
            return;
        im.stopping = true;
    }
    im.cvQueue.notify_all();
    im.cvState.notify_all();
    for (auto &w : im.workers)
        w.join();
    im.workers.clear();
    if (im.watchdog.joinable())
        im.watchdog.join();
}

size_t
CampaignService::queueDepth() const
{
    const Impl &im = *impl_;
    std::lock_guard<std::mutex> lock(im.mu);
    return im.active;
}

std::string
CampaignService::healthJson() const
{
    const Impl &im = *impl_;
    std::map<std::string, size_t> states;
    size_t depth = 0;
    {
        std::lock_guard<std::mutex> lock(im.mu);
        depth = im.active;
        for (const auto &[id, j] : im.jobs)
            ++states[jobStateName(j->state)];
    }
    const telemetry::MetricsSnapshot snap =
        telemetry::registry().snapshot();
    std::ostringstream os;
    os << "{\"queueDepth\":" << depth << ",\"jobs\":{";
    bool first = true;
    for (const auto &[name, n] : states) {
        os << (first ? "" : ",") << "\"" << name << "\":" << n;
        first = false;
    }
    os << "},\"counters\":{";
    first = true;
    for (const auto &[name, v] : snap.counters) {
        if (name.rfind("service.", 0) != 0 &&
            name.rfind("sem.clean_cache.", 0) != 0)
            continue;
        os << (first ? "" : ",") << "\"" << name << "\":" << v;
        first = false;
    }
    os << "}}";
    return os.str();
}

} // namespace service
} // namespace hifi
