/**
 * @file
 * Performance-ledger runner: runs one benchmark workload against the
 * hifi library's public entry points, checks every output, and prints
 * one JSON result line.  See README.md in this directory for the
 * workloads, the metrics and what each metric should move.
 *
 *   hifi_ledger --workload <campaign_inram|service_budget_faults|yield_mc>
 *               --seed N --seconds S --trace 0|1 --workdir DIR
 *               [--trace-out FILE]
 *
 * With --trace 0 the result carries the end-to-end metrics; with
 * --trace 1 the program's telemetry session is switched on (to read
 * its counter deltas), the runner records its own spans around every
 * call into a layer, writes them as a Chrome trace to --trace-out and
 * reports the per-layer metrics.  Exit status: 1 on a digest or golden
 * mismatch, 2 on usage or set-up errors, else 0; runs failing an
 * output check are counted in the result (`failed`, `correct`).
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/mismatch.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "common/telemetry.hh"
#include "core/stages.hh"
#include "image/tile_store.hh"
#include "models/public_models.hh"
#include "service/campaign.hh"
#include "service/checkpoint.hh"

namespace
{

using namespace hifi;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_processStart = Clock::now();

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
secondsSince(Clock::time_point a)
{
    return secondsBetween(a, Clock::now());
}

/// SplitMix64 finalizer: derives every input seed from the workload
/// seed, so one seed fixes all inputs of a run.
uint64_t
deriveSeed(uint64_t seed, uint64_t a, uint64_t b = 0)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (a + 1) +
        0xbf58476d1ce4e5b9ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

const std::vector<std::string> kChips = {"A4", "B4", "C4",
                                         "A5", "B5", "C5"};

// ---- Benchmark-side spans ------------------------------------------

/** Spans recorded by the benchmark around its calls into the library. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    void
    span(const char *name, uint32_t tid, Clock::time_point begin,
         Clock::time_point end)
    {
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> lock(mu_);
        events_.push_back({name, tid, begin, end});
    }

    /// Summed duration (ms) of the spans named `name`.
    double
    totalMs(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        double ms = 0.0;
        for (const Event &e : events_)
            if (name == e.name)
                ms += secondsBetween(e.begin, e.end) * 1e3;
        return ms;
    }

    /// Chrome trace_event JSON ("X" events, microseconds).
    std::string
    chromeJson() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::ostringstream out;
        out.setf(std::ios::fixed);
        out.precision(3);
        out << "{\"traceEvents\":[";
        for (size_t i = 0; i < events_.size(); ++i) {
            const Event &e = events_[i];
            const double ts =
                secondsBetween(g_processStart, e.begin) * 1e6;
            const double dur = secondsBetween(e.begin, e.end) * 1e6;
            out << (i ? ",\n" : "\n") << "{\"name\":\"" << e.name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
                << ",\"ts\":" << ts << ",\"dur\":" << dur << "}";
        }
        out << "\n],\"displayTimeUnit\":\"ms\"}\n";
        return out.str();
    }

  private:
    struct Event
    {
        const char *name;
        uint32_t tid;
        Clock::time_point begin, end;
    };

    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Event> events_;
};

// ---- Result assembly -----------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Outcome
{
    size_t attempted = 0;
    size_t failed = 0;     ///< typed errors + failed jobs + bad outcomes
    bool mismatch = false; ///< digest or golden mismatch
    std::vector<Metric> metrics;
    std::vector<std::string> notes; ///< "key": value JSON fragments

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void
    note(const std::string &key, const std::string &json)
    {
        notes.push_back("\"" + key + "\": " + json);
    }
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// User + system CPU seconds of this process so far.
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                   ru.ru_stime.tv_usec);
}

/**
 * Reset the kernel's peak-RSS mark (VmHWM) to the current RSS, so
 * peak_rss_mib covers the timed window and not the set-up (whose
 * unbudgeted reference runs would otherwise set the peak).  Returns
 * false where the kernel refuses; the figure then covers the whole
 * process.
 */
bool
resetPeakRss()
{
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
    f.flush();
    return static_cast<bool>(f);
}

/**
 * The timed window: wall and CPU time, and the registry deltas over
 * it.  Most program counters only count while a telemetry session is
 * active, so the per-layer numbers are read in traced runs only.
 */
class Window
{
  public:
    Window()
        : peakReset_(resetPeakRss()),
          base_(telemetry::registry().snapshot()), cpu0_(cpuSeconds()),
          t0_(Clock::now())
    {
    }

    void
    stop()
    {
        wall_ = secondsSince(t0_);
        cpu_ = cpuSeconds() - cpu0_;
        delta_ = telemetry::registry().snapshot().since(base_);
    }

    double wall() const { return wall_; }
    double cpu() const { return cpu_; }
    bool peakReset() const { return peakReset_; }

    double
    counter(const std::string &name) const
    {
        const auto it = delta_.counters.find(name);
        return it == delta_.counters.end()
            ? 0.0
            : static_cast<double>(it->second);
    }

    /// Observations a histogram recorded over the window.
    double
    observations(const std::string &name) const
    {
        const auto it = delta_.histograms.find(name);
        return it == delta_.histograms.end()
            ? 0.0
            : static_cast<double>(it->second.count);
    }

    /// hit / (hit + miss) of the counters "<prefix>hit", "<prefix>miss".
    double
    hitRatio(const std::string &prefix) const
    {
        const double hit = counter(prefix + "hit");
        return ratio(hit, hit + counter(prefix + "miss"));
    }

  private:
    bool peakReset_;
    telemetry::MetricsSnapshot base_, delta_;
    double cpu0_ = 0.0, cpu_ = 0.0, wall_ = 0.0;
    Clock::time_point t0_;
};

/**
 * Set-up bookkeeping: setup_s is the one-off set-up time (process
 * start to the first timed operation, less the repeated passes) plus
 * the median of the repeated set-up passes.
 */
class Setup
{
  public:
    static constexpr size_t kPasses = 3;

    template <typename F>
    void
    pass(F &&body)
    {
        const auto t0 = Clock::now();
        body();
        passes_.push_back(secondsSince(t0));
    }

    double
    seconds() const
    {
        const double sum =
            std::accumulate(passes_.begin(), passes_.end(), 0.0);
        return secondsSince(g_processStart) - sum + median(passes_);
    }

  private:
    std::vector<double> passes_;
};

/** Run latencies (s) of a timed window, one vector per round. */
struct Timed
{
    double seconds = 0.0;
    std::vector<std::vector<double>> rounds;

    std::vector<double>
    all() const
    {
        std::vector<double> v;
        for (const auto &r : rounds)
            v.insert(v.end(), r.begin(), r.end());
        return v;
    }
};

/**
 * Closed-loop timed window: runs whole rounds, each one complete input
 * mix, and stops at the round boundary nearest `seconds`, after at
 * least `minRounds` rounds (enough runs that run_tail_s has ten
 * samples beyond it even on a slow host).  `round` appends the latency
 * of every run it completes.
 */
Timed
timedRounds(double seconds, size_t minRounds,
            const std::function<void(size_t, std::vector<double> &)> &round)
{
    Timed t;
    const auto t0 = Clock::now();
    for (size_t rounds = 1;; ++rounds) {
        t.rounds.emplace_back();
        round(rounds - 1, t.rounds.back());
        t.seconds = secondsSince(t0);
        if (rounds >= minRounds &&
            t.seconds * (1.0 + 0.5 / static_cast<double>(rounds)) >=
                seconds)
            return t;
    }
}

// ---- Pipeline reports ------------------------------------------------

/// The pipeline outcome checks: topology, every device, every bitline.
bool
outcomeOk(const core::PipelineReport &r)
{
    return r.topologyCorrect && r.extractedDevices == r.trueDevices &&
        r.bitlinesFound == r.bitlinesTrue;
}

/// Report-quality accumulators behind qc_confidence and dim_err_nm.
struct Quality
{
    /// |measured - true| of W and of L of every recovered role.
    std::vector<double> dimErrNm;
    double qcSum = 0.0;
    size_t reports = 0, degraded = 0;
    size_t bitlinesFound = 0, bitlinesTrue = 0;

    /// Reports not flagged degraded that still miss a bitline.
    size_t cleanMissingBitlines = 0;

    void
    add(const core::PipelineReport &r)
    {
        for (const auto &[role, rec] : r.roles) {
            dimErrNm.push_back(rec.errW());
            dimErrNm.push_back(rec.errL());
        }
        qcSum += r.qcConfidence;
        ++reports;
        degraded += r.degraded ? 1 : 0;
        bitlinesFound += r.bitlinesFound;
        bitlinesTrue += r.bitlinesTrue;
        if (!r.degraded && r.bitlinesFound != r.bitlinesTrue)
            ++cleanMissingBitlines;
    }
};

/**
 * The end-to-end metrics (peak_rss_mib is added by main).
 *
 * run_p50_s is the median over rounds of each round's median latency.
 * A round mixes short and long runs in equal numbers (campaign_inram:
 * A4/C4/A5 vs B4/B5/C5), so the pooled median falls in the gap between
 * them and one disturbed run moves it; per-round medians confine a
 * disturbance to its round.  dim_err_nm is the median W/L error over
 * all recovered roles of all reports: under faults a few gross
 * mis-measurements (100+ nm) would dominate a mean, which is printed
 * beside it.  `dimErrNm` >= 0 overrides it.
 */
void
addEndToEnd(Outcome &out, double setupS, const Timed &timed,
            const Window &window, const Quality &q, double dimErrNm = -1.0)
{
    std::vector<double> sorted = timed.all(), roundMedians;
    std::sort(sorted.begin(), sorted.end());
    for (const auto &r : timed.rounds)
        roundMedians.push_back(median(r));
    // The highest percentile with at least ten samples beyond it: the
    // value at rank N-10; with fewer than 11 samples, the maximum.
    const size_t n = sorted.size();
    const size_t rank = n >= 11 ? n - 10 : n;
    out.add("setup_s", setupS, "s");
    out.add("runs_per_min",
            ratio(60.0 * static_cast<double>(n), timed.seconds), "1/min");
    out.add("run_p50_s", median(roundMedians), "s");
    out.add("run_tail_s", rank ? sorted[rank - 1] : 0.0, "s");
    out.add("ok_frac",
            1.0 - ratio(static_cast<double>(out.failed),
                        static_cast<double>(out.attempted)),
            "ratio");
    // No reports (yield_mc): nothing was acquired, nothing degraded.
    out.add("qc_confidence",
            q.reports ? q.qcSum / static_cast<double>(q.reports) : 1.0,
            "ratio");
    out.add("dim_err_nm", dimErrNm >= 0.0 ? dimErrNm : median(q.dimErrNm),
            "nm");

    out.note("run_tail",
             "{\"percentile\": " +
                 jsonNumber(ratio(100.0 * static_cast<double>(rank),
                                  static_cast<double>(n))) +
                 ", \"samples\": " + std::to_string(n) +
                 ", \"beyond\": " + std::to_string(n - rank) + "}");
    out.note("dim_err_mean_nm",
             jsonNumber(ratio(std::accumulate(q.dimErrNm.begin(),
                                              q.dimErrNm.end(), 0.0),
                              static_cast<double>(q.dimErrNm.size()))));
    out.note("degraded_frac",
             jsonNumber(ratio(static_cast<double>(q.degraded),
                              static_cast<double>(q.reports))));
    out.note("bitline_recall",
             jsonNumber(q.bitlinesTrue
                            ? static_cast<double>(q.bitlinesFound) /
                                static_cast<double>(q.bitlinesTrue)
                            : 1.0));
    out.note("clean_reports_missing_bitlines",
             std::to_string(q.cleanMissingBitlines));
    out.note("peak_rss_scope",
             window.peakReset() ? "\"window\"" : "\"process\"");
}

/// Pool / CPU metrics of a traced window.  Every runnable thread
/// executes chunks (pool workers, and callers — on the service both
/// fleet workers), so the runnable threads are the capacity.
void
addPoolMetrics(Outcome &out, const Window &w, double runs,
               double runnableThreads)
{
    const double jobs = w.counter("pool.jobs");
    const double capacity = w.wall() * runnableThreads;
    out.add("pool.jobs_per_run", ratio(jobs, runs), "count");
    out.add("pool.chunks_per_job", ratio(w.counter("pool.chunks"), jobs),
            "count");
    out.add("pool.utilization",
            ratio(w.counter("pool.worker_busy_ns") * 1e-9, capacity),
            "ratio");
    out.add("proc.cpu_util", ratio(w.cpu(), capacity), "ratio");
}

// ---- Staged pipeline runs ------------------------------------------

const char *const kStageSpan[core::kNumStages] = {
    "fab.stage", "scope.acquire", "image.postprocess", "re.analyze",
    "re.finalize"};

/** Timings of one staged pipeline run, and its report. */
struct RunResult
{
    std::string error; ///< empty on success
    double wallS = 0.0;
    double stageS = 0.0; ///< summed stage spans
    double hookS = 0.0;  ///< time in the boundary hook (benchmark-side)
    core::PipelineReport report;
};

/// Called after every stage but the last (the checkpoint codec probe).
using BoundaryHook =
    std::function<void(const core::PipelineConfig &, core::StagedState &)>;

RunResult
stagedRun(const core::PipelineConfig &config, Tracer &tracer,
          std::shared_ptr<image::TileStore> tiles = {},
          const BoundaryHook &hook = {})
{
    RunResult r;
    const auto t0 = Clock::now();
    auto init = core::initStagedRun(config);
    if (!init.ok()) {
        r.error = init.error().message;
        return r;
    }
    core::StagedState state = init.takeValue();
    state.tileStore = std::move(tiles);
    while (state.next != core::Stage::Done) {
        const size_t stage = static_cast<size_t>(state.next);
        const auto s0 = Clock::now();
        const auto err = core::runStage(config, state);
        const auto s1 = Clock::now();
        tracer.span(kStageSpan[stage], 0, s0, s1);
        r.stageS += secondsBetween(s0, s1);
        if (err) {
            r.error = err->message;
            return r;
        }
        if (hook && state.next != core::Stage::Done) {
            hook(config, state);
            r.hookS += secondsSince(s1);
        }
    }
    const auto t1 = Clock::now();
    tracer.span("core.run", 0, t0, t1);
    r.wallS = secondsBetween(t0, t1);
    r.report = std::move(state.report);
    return r;
}

/// Stage spans (mean per run) and the unattributed remainder.
void
addStageMetrics(Outcome &out, const Tracer &tracer,
                const std::vector<RunResult> &runs)
{
    const double n = static_cast<double>(runs.size());
    for (const char *span : kStageSpan)
        out.add(std::string(span) + "_ms",
                ratio(tracer.totalMs(span), n), "ms");
    double unattributed = 0.0;
    size_t flagged = 0;
    for (const RunResult &r : runs) {
        const double gap = r.wallS - r.stageS - r.hookS;
        unattributed += gap;
        flagged += gap > 0.05 * r.wallS ? 1 : 0;
    }
    out.add("core.unattributed_ms", ratio(unattributed * 1e3, n), "ms");
    out.add("core.unattributed_flagged", static_cast<double>(flagged),
            "count");
}

std::unique_ptr<telemetry::Session>
sessionIf(const Tracer &tracer)
{
    return tracer.enabled() ? std::make_unique<telemetry::Session>()
                            : nullptr;
}

// ---- Workload: campaign_inram --------------------------------------

/**
 * One pipeline at a time through initStagedRun + runStage on a
 * 4-thread global pool; chips A4..C5 with the default PipelineConfig,
 * repeated in rounds, a fresh derived seed per (round, chip).
 */
Outcome
campaignInram(uint64_t seed, double seconds, Tracer &tracer)
{
    Outcome out;
    common::setNumThreads(4);
    Setup setup;

    auto configFor = [&](size_t round, size_t chip) {
        core::PipelineConfig c;
        c.chipId = kChips[chip];
        c.seed = deriveSeed(seed, round + 1, chip);
        return c;
    };

    // Warm-up: one run of the first chip per pass (pool start-up,
    // memoized tables, allocator).
    for (size_t p = 0; p < Setup::kPasses; ++p)
        setup.pass([&] {
            core::PipelineConfig c = configFor(0, 0);
            c.seed = deriveSeed(seed, 0, p);
            Tracer off(false);
            const RunResult r = stagedRun(c, off);
            if (!r.error.empty() || !outcomeOk(r.report)) {
                std::cerr << "warm-up run failed: " << r.error << "\n";
                std::exit(2);
            }
        });
    const double setupS = setup.seconds();

    const auto session = sessionIf(tracer);
    Window window;
    std::vector<RunResult> runs;
    Quality quality;
    const auto runRound = [&](size_t round, std::vector<double> &latency) {
        for (size_t chip = 0; chip < kChips.size(); ++chip) {
            ++out.attempted;
            const core::PipelineConfig config = configFor(round, chip);
            RunResult r = stagedRun(config, tracer);
            if (!r.error.empty()) {
                std::cerr << kChips[chip] << ": " << r.error << "\n";
                ++out.failed;
                continue;
            }
            latency.push_back(r.wallS);
            if (!outcomeOk(r.report)) {
                std::cerr << kChips[chip] << " seed " << config.seed
                          << ": outcome check failed\n";
                ++out.failed;
            }
            quality.add(r.report);
            r.report = core::PipelineReport{}; // keep only the timings
            runs.push_back(std::move(r));
        }
    };
    const Timed timed = timedRounds(seconds, 4, runRound);
    window.stop();
    const double n = static_cast<double>(runs.size());
    out.note("window_runs_per_min", jsonNumber(60.0 * n / timed.seconds));

    if (!tracer.enabled()) {
        addEndToEnd(out, setupS, timed, window, quality);
        return out;
    }
    addStageMetrics(out, tracer, runs);
    addPoolMetrics(out, window, n, 4.0);
    out.add("mi.evals_per_run",
            ratio(window.counter("mi.exhaustive.evals"), n), "count");
    return out;
}

// ---- Workload: service_budget_faults -------------------------------

/// Submission order of one round, as (chip, drift variant): chips in
/// pairs, first variants then second variants (A4 B4 A4' B4' C4 A5 ...).
/// Two workers take a pair's first variants together; the second
/// variants start after those finished, while the fab-volume cache
/// (capacity 2) still holds both post-Fab states.
std::vector<std::pair<size_t, size_t>>
serviceRoundOrder()
{
    std::vector<std::pair<size_t, size_t>> order;
    for (size_t pair = 0; pair < kChips.size(); pair += 2)
        for (size_t variant = 0; variant < 2; ++variant)
            for (size_t chip = pair; chip < pair + 2; ++chip)
                order.push_back({chip, variant});
    return order;
}

constexpr double kDrift[2] = {0.15, 0.30};
constexpr size_t kServiceBudget = 64ull << 20;

/**
 * One round's inputs: the twelve job configs in submission order, with
 * the report and digest of each config run directly, unbudgeted and
 * without chaos.  A round of set k gives every chip the fab seed
 * derived from (workload seed, k), shared by both drift variants.
 */
struct JobSet
{
    std::vector<core::PipelineConfig> configs;
    std::vector<core::PipelineReport> refs;
    std::vector<uint64_t> digests;
};

/// Builds a set and its references on four single-threaded runners (a
/// pool of one runs every fan-out inline, so the runners never share
/// the pool's gate).
JobSet
makeJobSet(uint64_t seed, size_t set)
{
    JobSet js;
    for (const auto &[chip, variant] : serviceRoundOrder()) {
        core::PipelineConfig c;
        c.chipId = kChips[chip];
        c.pairs = 2;
        c.seed = deriveSeed(seed, 1000 + set, chip);
        c.driftProbability = kDrift[variant];
        c.faults.enabled = true;
        c.memoryBudget = kServiceBudget;
        js.configs.push_back(c);
    }
    const size_t n = js.configs.size();
    js.refs.resize(n);
    std::vector<std::string> errors(n);
    const common::ScopedThreads serial(1);
    std::atomic<size_t> next{0};
    std::vector<std::thread> runners;
    for (size_t t = 0; t < 4; ++t)
        runners.emplace_back([&] {
            for (size_t i; (i = next++) < n;) {
                core::PipelineConfig c = js.configs[i];
                c.memoryBudget = 0;
                auto run = core::runPipelineChecked(c);
                if (run.ok())
                    js.refs[i] = run.takeValue();
                else
                    errors[i] = run.error().message;
            }
        });
    for (std::thread &t : runners)
        t.join();
    for (const std::string &e : errors)
        if (!e.empty()) {
            std::cerr << "reference run failed: " << e << "\n";
            std::exit(2);
        }
    for (const core::PipelineReport &r : js.refs)
        js.digests.push_back(core::reportDigest(r));
    return js;
}

/// A fresh directory, removed with everything in it at scope exit.
class ScopedDir
{
  public:
    explicit ScopedDir(std::string path) : path_(std::move(path))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ScopedDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ScopedDir(const ScopedDir &) = delete;
    ScopedDir &operator=(const ScopedDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/**
 * The checkpoint codec probe of the traced service run: one direct
 * budgeted staged run per chip (first variant), encoding and decoding
 * every stage-boundary state against a tile store.  Adds the stage and
 * codec metrics; any digest or round-trip difference is a mismatch.
 */
void
directBudgetedRuns(Outcome &out, const JobSet &set, Tracer &tracer,
                   const std::string &dir)
{
    std::vector<RunResult> runs;
    double encodeMs = 0.0, decodeMs = 0.0, bytes = 0.0, boundaries = 0.0;
    for (size_t i = 0; i < set.configs.size(); ++i) {
        const core::PipelineConfig &c = set.configs[i];
        if (c.driftProbability != kDrift[0])
            continue;
        image::TileStoreConfig tc;
        tc.dir = dir + "/" + c.chipId;
        tc.budgetBytes = c.memoryBudget;
        auto tiles = std::make_shared<image::TileStore>(tc);
        const BoundaryHook codec = [&](const core::PipelineConfig &cfg,
                                       core::StagedState &state) {
            const auto e0 = Clock::now();
            auto image = service::encodeCheckpoint(cfg, state, tiles);
            const auto e1 = Clock::now();
            tracer.span("service.checkpoint.encode", 0, e0, e1);
            if (!image.ok()) {
                std::cerr << "MISMATCH: checkpoint encode failed: "
                          << image.error().message << "\n";
                out.mismatch = true;
                return;
            }
            auto decoded =
                service::decodeCheckpoint(image.value(), cfg, tiles);
            const auto d1 = Clock::now();
            tracer.span("service.checkpoint.decode", 0, e1, d1);
            if (!decoded.ok() || decoded.value().next != state.next) {
                std::cerr << "MISMATCH: checkpoint round trip failed\n";
                out.mismatch = true;
            }
            encodeMs += secondsBetween(e0, e1) * 1e3;
            decodeMs += secondsBetween(e1, d1) * 1e3;
            bytes += static_cast<double>(image.value().size());
            boundaries += 1.0;
        };
        RunResult r = stagedRun(c, tracer, tiles, codec);
        if (!r.error.empty() ||
            core::reportDigest(r.report) != set.digests[i]) {
            std::cerr << "MISMATCH: direct budgeted run of " << c.chipId
                      << " differs from the reference\n";
            out.mismatch = true;
        }
        r.report = core::PipelineReport{};
        runs.push_back(std::move(r));
    }
    addStageMetrics(out, tracer, runs);
    out.add("service.checkpoint.encode_ms", ratio(encodeMs, boundaries),
            "ms");
    out.add("service.checkpoint.decode_ms", ratio(decodeMs, boundaries),
            "ms");
    out.add("service.checkpoint.bytes", ratio(bytes, boundaries), "bytes");
}

/**
 * A CampaignService with 2 workers over a 2-thread global pool:
 * checkpoints and spills in a fresh directory, 64 MiB memory budget,
 * faults on, chaos kills at 20% of stage boundaries, volume cache of
 * 2 and a shared clean-frame cache.  Each round submits every chip
 * twice (drift 0.15 / 0.30, same fab identity) and drains.
 */
Outcome
serviceBudgetFaults(uint64_t seed, double seconds, Tracer &tracer,
                    const std::string &workdir)
{
    Outcome out;
    Setup setup;

    // One input set per set-up pass; round r runs set r mod 3, so a run
    // samples the fab seeds of several sets while the reference work
    // stays a fixed twelve direct runs per pass.
    std::vector<JobSet> sets;
    for (size_t p = 0; p < Setup::kPasses; ++p)
        setup.pass([&] { sets.push_back(makeJobSet(seed, p)); });

    common::setNumThreads(2);
    const ScopedDir dir(workdir + "/service-" + std::to_string(getpid()));
    service::ServiceConfig sc;
    sc.workers = 2;
    sc.checkpointDir = dir.path() + "/checkpoints";
    sc.volumeCacheCapacity = 2;
    sc.cleanFrameCacheCapacity = 64;
    sc.chaos.enabled = true;
    sc.chaos.killProbability = 0.2;
    sc.chaos.seed = 0xc4405ull;
    // Enough attempts that a 20% kill rate at four stage boundaries
    // never exhausts a job's retries.
    sc.retry.maxAttempts = 16;
    auto svc = std::make_unique<service::CampaignService>(sc);
    const double setupS = setup.seconds();

    const auto session = sessionIf(tracer);
    Window window;
    std::vector<double> submitMs;
    size_t stagesRun = 0, resumes = 0;
    double retries = 0.0, interpolated = 0.0;
    Quality quality;
    const auto runRound = [&](size_t round, std::vector<double> &latency) {
        const auto r0 = Clock::now();
        const JobSet &set = sets[round % sets.size()];
        const size_t jobs = set.configs.size();
        std::vector<uint64_t> ids(jobs, 0);
        std::vector<Clock::time_point> submitted(jobs), done(jobs);
        std::vector<std::thread> waiters;
        for (size_t i = 0; i < jobs; ++i) {
            ++out.attempted;
            const std::string name =
                std::to_string(round) + "." + std::to_string(i);
            submitted[i] = Clock::now();
            auto id = svc->submit(name, set.configs[i]);
            const auto s1 = Clock::now();
            tracer.span("service.submit", 0, submitted[i], s1);
            submitMs.push_back(secondsBetween(submitted[i], s1) * 1e3);
            if (!id.ok()) {
                std::cerr << "submit failed: " << id.error().message
                          << "\n";
                ++out.failed;
                continue;
            }
            ids[i] = id.value();
            waiters.emplace_back([&, i] {
                svc->wait(ids[i]);
                done[i] = Clock::now();
            });
        }
        for (std::thread &t : waiters)
            t.join();
        svc->drain();
        tracer.span("service.round", 0, r0, Clock::now());

        for (size_t i = 0; i < jobs; ++i) {
            if (ids[i] == 0)
                continue; // rejected at submit, already counted
            tracer.span("service.job", static_cast<uint32_t>(100 + i),
                        submitted[i], done[i]);
            const service::JobStatus st = svc->status(ids[i]);
            stagesRun += st.stagesRun;
            resumes += st.resumes;
            if (st.state != service::JobState::Completed) {
                std::cerr << "job " << st.name << " ended "
                          << service::jobStateName(st.state) << "\n";
                ++out.failed;
                continue;
            }
            latency.push_back(secondsBetween(submitted[i], done[i]));
            if (st.reportDigest != set.digests[i]) {
                std::cerr << "MISMATCH: job " << st.name
                          << " digest differs from the direct run\n";
                out.mismatch = true;
                ++out.failed;
                continue;
            }
            // Digest-identical to the reference: read its fields.  A
            // degraded report is best-effort by contract, so only a
            // clean one must recover the topology (as the fuzz
            // invariants require).
            const core::PipelineReport &r = set.refs[i];
            if (!r.degraded && !r.topologyCorrect) {
                std::cerr << "job " << st.name << " (" << r.chipId
                          << "): topology not recovered\n";
                ++out.failed;
            }
            quality.add(r);
            retries += static_cast<double>(r.retries);
            interpolated += static_cast<double>(r.slicesInterpolated);
        }
    };
    const Timed timed = timedRounds(seconds, 2, runRound);
    window.stop();
    svc.reset();
    const double jobs = static_cast<double>(timed.all().size());
    out.note("window_runs_per_min", jsonNumber(60.0 * jobs / timed.seconds));

    if (!tracer.enabled()) {
        addEndToEnd(out, setupS, timed, window, quality);
        return out;
    }
    const ScopedDir direct(dir.path() + "/direct");
    directBudgetedRuns(out, sets.front(), tracer, direct.path());
    addPoolMetrics(out, window, jobs, 3.0);
    out.add("mi.evals_per_run",
            ratio(window.counter("mi.exhaustive.evals"), jobs), "count");
    out.add("scope.retries_per_run", ratio(retries, jobs), "count");
    out.add("scope.interpolated_per_run", ratio(interpolated, jobs),
            "count");
    out.add("sem.clean_cache.hit_ratio",
            window.hitRatio("sem.clean_cache."), "ratio");
    out.add("volume.tile.hit_ratio", window.hitRatio("volume.tile."),
            "ratio");
    out.add("volume.tile.spilled_mib",
            ratio(window.counter("volume.tile.spilled_bytes") / 1048576.0,
                  jobs),
            "MiB");
    out.add("service.submit_ms",
            ratio(std::accumulate(submitMs.begin(), submitMs.end(), 0.0),
                  static_cast<double>(submitMs.size())),
            "ms");
    out.add("service.useful_stage_ratio",
            ratio(static_cast<double>(core::kNumStages) * jobs,
                  static_cast<double>(stagesRun)),
            "ratio");
    out.add("service.resumes_per_job",
            ratio(static_cast<double>(resumes), jobs), "count");
    out.add("service.volume_cache.hit_ratio",
            window.hitRatio("service.cache.volume."), "ratio");
    return out;
}

// ---- Workload: yield_mc --------------------------------------------

using RoleDims =
    std::optional<models::Dims>[static_cast<size_t>(models::Role::NumRoles)];

/// Testbench sizing from drawn dimensions; roles a source does not
/// give keep the testbench defaults.
circuit::SaSizing
sizingFrom(const RoleDims &dims)
{
    circuit::SaSizing s;
    auto set = [&](models::Role role, double &w, double &l) {
        if (const auto &d = dims[static_cast<size_t>(role)]) {
            w = d->w;
            l = d->l;
        }
    };
    set(models::Role::Nsa, s.nsaW, s.nsaL);
    set(models::Role::Psa, s.psaW, s.psaL);
    set(models::Role::Precharge, s.preW, s.preL);
    set(models::Role::Equalizer, s.eqW, s.eqL);
    set(models::Role::Column, s.colW, s.colL);
    set(models::Role::Iso, s.isoW, s.isoL);
    set(models::Role::Oc, s.ocW, s.ocL);
    return s;
}

/// Each chip's measured dims with its own topology, then REM and CROW
/// (classic testbench, as published).
std::vector<circuit::SaParams>
yieldSizings()
{
    std::vector<circuit::SaParams> out;
    for (const std::string &id : kChips) {
        const models::ChipSpec &chip = models::chip(id);
        circuit::SaParams sa;
        sa.topology = chip.topology == models::Topology::Ocsa
            ? circuit::SaTopology::OffsetCancellation
            : circuit::SaTopology::Classic;
        sa.sizing = sizingFrom(chip.dims);
        out.push_back(sa);
    }
    for (const models::PublicModel *m : models::publicModels()) {
        circuit::SaParams sa;
        sa.sizing = sizingFrom(m->dims);
        out.push_back(sa);
    }
    return out;
}

/**
 * The W/L audit figure yield_mc reports as dim_err_nm: mean |model -
 * silicon| of the latch devices' W and L, each public model against
 * each chip.  yield_mc runs no reverse engineering, so this is the
 * dimension error of the model sizings it simulates.
 */
double
auditDimErrorNm()
{
    double sum = 0.0;
    size_t n = 0;
    for (const models::PublicModel *m : models::publicModels())
        for (const models::ChipSpec &chip : models::allChips())
            for (models::Role role : {models::Role::Nsa, models::Role::Psa}) {
                const auto &md = m->role(role);
                const auto &cd = chip.role(role);
                if (md && cd) {
                    sum += std::abs(md->w - cd->w) + std::abs(md->l - cd->l);
                    n += 2;
                }
            }
    return ratio(sum, static_cast<double>(n));
}

constexpr double kAvtPoints[2] = {3.0, 9.0};
constexpr size_t kCellTrials = 256;

circuit::TranParams
yieldTran()
{
    circuit::TranParams tran = circuit::defaultSaTran();
    tran.dt = 50e-12;
    return tran;
}

/// The bench_solver golden cell: classic SA, A_VT 9 V*nm, dt 50 ps,
/// 1024 trials, default seed -> 210 failures, meanSignal 0.131616443.
bool
goldenCellOk(Tracer &tracer)
{
    circuit::MismatchParams mc;
    mc.avtVnm = 9.0;
    mc.trials = 1024;
    const auto t0 = Clock::now();
    const circuit::YieldResult y =
        circuit::sensingYield(circuit::SaParams{}, mc, yieldTran());
    tracer.span("circuit.golden", 0, t0, Clock::now());
    const bool ok =
        y.failures == 210 && std::abs(y.meanSignal - 0.131616443) < 5e-10;
    if (!ok)
        std::cerr << "MISMATCH: golden cell gave " << y.failures
                  << " failures, meanSignal " << jsonNumber(y.meanSignal)
                  << "\n";
    return ok;
}

/**
 * sensingYield cells on a 4-thread pool: every sizing at two A_VT
 * points with a fixed trial count, a fresh derived Monte-Carlo seed
 * per (pass, cell); each pass first re-checks the golden cell.
 */
Outcome
yieldMc(uint64_t seed, double seconds, Tracer &tracer)
{
    Outcome out;
    common::setNumThreads(4);
    Setup setup;
    const std::vector<circuit::SaParams> sizings = yieldSizings();
    const circuit::TranParams tran = yieldTran();

    // One pass: the golden check, then every cell once (builds each
    // testbench, fills the memoized timing tables).
    for (size_t p = 0; p < Setup::kPasses; ++p)
        setup.pass([&] {
            Tracer off(false);
            if (!goldenCellOk(off))
                out.mismatch = true;
            for (const circuit::SaParams &sa : sizings)
                for (double avt : kAvtPoints) {
                    circuit::MismatchParams mc;
                    mc.avtVnm = avt;
                    mc.trials = kCellTrials;
                    mc.seed = deriveSeed(seed, 1000 + p);
                    circuit::sensingYield(sa, mc, tran);
                }
        });
    const double setupS = setup.seconds();

    const auto session = sessionIf(tracer);
    Window window;
    double trials = 0.0;
    const auto runPass = [&](size_t pass, std::vector<double> &latency) {
        const auto p0 = Clock::now();
        if (!goldenCellOk(tracer)) {
            out.mismatch = true;
            ++out.failed;
        }
        size_t cell = 0;
        for (const circuit::SaParams &sa : sizings)
            for (double avt : kAvtPoints) {
                ++out.attempted;
                circuit::MismatchParams mc;
                mc.avtVnm = avt;
                mc.trials = kCellTrials;
                mc.seed = deriveSeed(seed, pass, cell++);
                const auto c0 = Clock::now();
                const circuit::YieldResult y =
                    circuit::sensingYield(sa, mc, tran);
                const auto c1 = Clock::now();
                tracer.span("circuit.cell", 0, c0, c1);
                latency.push_back(secondsBetween(c0, c1));
                trials += static_cast<double>(y.trials);
                if (y.trials != kCellTrials || y.failures > y.trials ||
                    !std::isfinite(y.meanSignal) || y.meanSignal <= 0.0) {
                    std::cerr << "cell " << cell - 1 << " A_VT " << avt
                              << ": implausible yield result\n";
                    ++out.failed;
                }
            }
        tracer.span("yield.pass", 0, p0, Clock::now());
    };
    const Timed timed = timedRounds(seconds, 1, runPass);
    window.stop();
    const double cells = static_cast<double>(timed.all().size());
    out.note("window_runs_per_min", jsonNumber(60.0 * cells / timed.seconds));

    if (!tracer.enabled()) {
        addEndToEnd(out, setupS, timed, window, Quality{},
                    auditDimErrorNm());
        return out;
    }
    addPoolMetrics(out, window, cells, 4.0);
    out.add("circuit.cell_ms",
            ratio(tracer.totalMs("circuit.cell"), cells), "ms");
    out.add("solver.newton_per_trial",
            ratio(window.counter("solver.newton_iterations"), trials),
            "count");
    out.add("solver.lu_refactor_per_trial",
            ratio(window.counter("solver.lu_refactorizations"), trials),
            "count");
    out.add("solver.dense_fallbacks",
            window.counter("solver.dense_fallbacks"), "count");
    out.add("solver.batch.retired_early_ratio",
            ratio(window.counter("solver.batch.retired_early"),
                  window.observations("solver.newton_per_step")),
            "ratio");
    return out;
}

// ---- Entry point -------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workdir;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    if (argc % 2 != 1)
        return false;
    bool haveSeed = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i], val = argv[i + 1];
        try {
            if (key == "--workload")
                a.workload = val;
            else if (key == "--seed")
                a.seed = std::stoull(val), haveSeed = true;
            else if (key == "--seconds")
                a.seconds = std::stod(val);
            else if (key == "--trace")
                a.trace = std::stoi(val) != 0;
            else if (key == "--workdir")
                a.workdir = val;
            else if (key == "--trace-out")
                a.traceOut = val;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return haveSeed && a.seconds > 0.0 && !a.workload.empty() &&
        !a.workdir.empty() && (!a.trace || !a.traceOut.empty());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: hifi_ledger --workload W --seed N --seconds S"
                     " --trace 0|1 --workdir DIR [--trace-out FILE]\n";
        return 2;
    }

    Tracer tracer(args.trace);
    Outcome out;
    size_t workers = 0;
    if (args.workload == "campaign_inram") {
        out = campaignInram(args.seed, args.seconds, tracer);
    } else if (args.workload == "service_budget_faults") {
        out = serviceBudgetFaults(args.seed, args.seconds, tracer,
                                  args.workdir);
        workers = 2;
    } else if (args.workload == "yield_mc") {
        out = yieldMc(args.seed, args.seconds, tracer);
    } else {
        std::cerr << "unknown workload '" << args.workload << "'\n";
        return 2;
    }

    if (args.trace) {
        std::ofstream f(args.traceOut, std::ios::binary);
        f << tracer.chromeJson();
        if (!f) {
            std::cerr << "cannot write " << args.traceOut << "\n";
            return 2;
        }
    } else {
        out.add("peak_rss_mib",
                static_cast<double>(telemetry::peakRssBytes()) / 1048576.0,
                "MiB");
    }

    // One JSON line: the result fields, then the environment block and
    // the side values.  run.py reshapes it into the final result line.
    const bool correct = !out.mismatch && out.failed == 0;
    std::ostringstream json;
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
             << jsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    json << "}, \"env\": {\"nproc\": " << std::thread::hardware_concurrency()
         << ", \"pool_threads\": " << common::numThreads()
         << ", \"workers\": " << workers << ", \"simd\": \""
         << common::simd::isaName(common::simd::activeIsa())
         << "\", \"build_type\": \"" << HIFI_LEDGER_BUILD_TYPE
         << "\", \"compiler\": \"" << HIFI_LEDGER_COMPILER
         << "\", \"workload_seed\": " << args.seed << "}";
    for (const std::string &n : out.notes)
        json << ", " << n;
    json << "}";
    std::cout << json.str() << std::endl;
    return out.mismatch ? 1 : 0;
}
