/**
 * @file
 * Zero-overhead-when-disabled tracing and metrics for the pipeline.
 *
 * Two instruments, one switch:
 *
 *  - **Spans**: RAII `Span` objects mark a named interval on the
 *    calling thread.  Records land in per-thread buffers (no shared
 *    mutable hot state; the only lock is a per-buffer mutex that is
 *    uncontended except during the final drain), nest arbitrarily,
 *    and export as Chrome `trace_event` JSON, so a trace opens
 *    directly in Perfetto / chrome://tracing.
 *  - **Metrics**: a process-global registry of named counters, gauges
 *    and fixed-bucket histograms.  All updates are atomic;
 *    registration is mutex-protected but call sites cache the
 *    returned reference (instruments are never deallocated while the
 *    registry lives).
 *
 * The determinism contract: telemetry only *reads* the computation —
 * clocks and counters live entirely outside the seed-pure data path,
 * so every seeded result is bitwise identical with telemetry on or
 * off, at any thread count (asserted by tests/test_telemetry.cc).
 * When disabled (the default), every instrumentation site reduces to
 * one relaxed atomic load and a predictable branch.
 *
 * Collection is scoped by a `Session`.  Sessions may run concurrently
 * (the campaign service traces every job), so attribution follows
 * one rule: a session binds the thread that opens it, and only bound
 * threads record.  Spans ended and counter / histogram updates made
 * on a bound thread are tagged with its session; the thread pool
 * re-applies the submitting thread's binding on its workers, so a
 * fan-out stays attributed to the job that launched it.  An unbound
 * thread records no spans and no metric deltas, whatever sessions
 * are active elsewhere.  finish() drains only its own session's
 * records.  Gauges stay global last-write-wins, and the registry's
 * global totals count every thread (MetricsSnapshot::since gives
 * whole-process deltas).
 */

#ifndef HIFI_COMMON_TELEMETRY_HH
#define HIFI_COMMON_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hifi
{
namespace telemetry
{

// ---- The switch ----------------------------------------------------

class Counter;
class Histogram;
class Session;

namespace detail
{
extern std::atomic<bool> g_enabled;

/// Accumulate a counter increment into the calling thread's routed
/// delta store for its bound session; no-op when the thread is
/// unbound.  Only called while telemetry is enabled.
void routeCounterAdd(const Counter *counter, uint64_t n);

/// Same for one histogram observation.
void routeHistogramObserve(const Histogram *histogram, double x);

/// Session id the calling thread is bound to (0 = unbound).
uint64_t currentSessionBinding();

/// RAII re-application of a binding captured with
/// currentSessionBinding() on another thread (used by the thread
/// pool to attribute worker-side records to the submitting job).
class ScopedSessionBinding
{
  public:
    explicit ScopedSessionBinding(uint64_t session);
    ~ScopedSessionBinding();

    ScopedSessionBinding(const ScopedSessionBinding &) = delete;
    ScopedSessionBinding &operator=(const ScopedSessionBinding &) =
        delete;

  private:
    uint64_t previous_ = 0;
};
} // namespace detail

/// True while a collection session is active.  Relaxed load: the
/// disabled fast path is exactly this branch.
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

// ---- Span tracing --------------------------------------------------

/** One completed span, as drained from a thread buffer. */
struct SpanRecord
{
    const char *name = "";  ///< static string literal
    uint32_t tid = 0;       ///< small dense per-thread id
    uint32_t depth = 0;     ///< nesting depth on its thread
    uint64_t startNs = 0;   ///< ns since session start
    uint64_t durationNs = 0;

    /// Owning session id (the recording thread's binding); finish()
    /// only claims its own records.
    uint64_t session = 0;
};

/**
 * RAII tracing span.  When telemetry is disabled construction and
 * destruction are a flag check each; when enabled and the calling
 * thread is bound to a session the destructor appends one record to
 * the thread's buffer.
 *
 * @param name must be a string literal (or otherwise outlive the
 *             session); the record stores the pointer, not a copy.
 */
class Span
{
  public:
    explicit Span(const char *name)
    {
        if (enabled())
            begin(name);
    }

    ~Span()
    {
        if (active_)
            end();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    void begin(const char *name);
    void end();

    const char *name_ = nullptr;
    uint64_t startNs_ = 0;
    uint32_t depth_ = 0;
    bool active_ = false;
};

// ---- Metrics -------------------------------------------------------

/** Monotonic counter. */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
        // Routed per-session delta for bound threads; one TLS load
        // and a predictable branch when the thread is unbound.
        if (enabled())
            detail::routeCounterAdd(this, n);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram.  Bucket i counts observations with
 * x <= edges[i] (first matching edge); one implicit overflow bucket
 * catches everything above the last edge.  Edges are fixed at
 * registration — re-registering the same name with different edges
 * keeps the first layout.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> upperEdges);

    void observe(double x);

    const std::vector<double> &edges() const { return edges_; }

    /// Per-bucket counts, size edges().size() + 1 (last = overflow).
    std::vector<uint64_t> bucketCounts() const;

    uint64_t count() const;
    double sum() const;

  private:
    std::vector<double> edges_;
    std::vector<std::atomic<uint64_t>> buckets_;
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/** Point-in-time copy of one histogram. */
struct HistogramSnapshot
{
    std::vector<double> edges;
    std::vector<uint64_t> buckets; ///< edges.size() + 1 counts
    uint64_t count = 0;
    double sum = 0.0;
};

/** Point-in-time copy of the whole registry (or a delta of two). */
struct MetricsSnapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /// Counter / histogram deltas vs an earlier baseline; gauges keep
    /// their current values (they are instantaneous, not cumulative).
    MetricsSnapshot since(const MetricsSnapshot &baseline) const;
};

/**
 * Process-global metrics registry.  Lookup registers on first use and
 * returns a reference that stays valid for the registry's lifetime;
 * cache it at the call site (e.g. in a function-local static) to keep
 * hot paths off the registration mutex.
 */
class Registry
{
  public:
    static Registry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name,
                         std::vector<double> upperEdges);

    MetricsSnapshot snapshot() const;

  private:
    Registry() = default;

    struct Impl;
    Impl &impl() const;
};

/// Shorthand for Registry::global().
inline Registry &
registry()
{
    return Registry::global();
}

// ---- Process memory ------------------------------------------------

/**
 * Peak resident set size of this process in bytes (the kernel's
 * high-water mark, VmHWM in /proc/self/status).  0 on platforms
 * without procfs.  This is the number the bench harnesses record so
 * memory regressions are tracked alongside time.
 */
size_t peakRssBytes();

/// Current resident set size in bytes (VmRSS); 0 without procfs.
size_t currentRssBytes();

/**
 * Register an atexit hook that prints "peak RSS: N MiB" to stderr
 * when the process ends (covering every return path, including early
 * failure exits).  Idempotent; every bench harness calls this first
 * thing in main so memory is recorded alongside time.  No output on
 * platforms without procfs.
 */
void reportPeakRssAtExit();

/**
 * Bytes currently handed out by the allocator (glibc mallinfo2
 * uordblks); 0 on other C libraries.  Unlike RSS this shrinks when
 * memory is freed, so peakRssBytes() - heapAllocatedBytes() exposes
 * high-water transients that RSS alone hides.
 */
size_t heapAllocatedBytes();

/// Refresh the "mem.peak_rss_bytes", "mem.rss_bytes" and
/// "mem.heap_allocated_bytes" gauges from the sources above.
void recordMemoryGauges();

// ---- Sessions and export -------------------------------------------

/** What to collect and where to put it; off by default. */
struct TelemetryConfig
{
    /// Master switch; everything below is ignored when false.
    bool enabled = false;

    /// Write the Chrome trace_event JSON here (empty: keep in memory
    /// only, available through PipelineTelemetry::traceJson()).
    std::string tracePath;

    /// Write the metrics JSON (this run's deltas) here.
    std::string metricsPath;

    /// Write the QC audit trail JSON here (robust acquisition only;
    /// see scope::qcAuditJson).
    std::string qcAuditPath;
};

/** Wall-clock accounting of one span name. */
struct StageTiming
{
    uint64_t count = 0;
    uint64_t wallNs = 0;
};

/** Everything one collection session produced. */
struct PipelineTelemetry
{
    std::vector<SpanRecord> spans;
    MetricsSnapshot metrics; ///< deltas over the session

    /// Total wall time per span name, aggregated from `spans`.
    std::map<std::string, StageTiming> stageWallNs;

    /// Chrome trace_event JSON ("X" complete events, ts/dur in us).
    std::string traceJson() const;

    /// Counters / gauges / histograms as a JSON object.
    std::string metricsJson() const;
};

/**
 * RAII collection scope, opened and closed on one thread.
 * Construction registers the session as active (clearing stale span
 * buffers when it is the first one), enables collection and binds the
 * calling thread to it; finish() (or destruction) deregisters it,
 * restores the thread's previous binding (so sessions nest) and
 * disables collection when no session remains.  finish() drains this
 * session's spans and routed metric deltas and writes the files named
 * by `config`.  See the file comment for the attribution rule.
 */
class Session
{
  public:
    Session();
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /// Unique id of this session (never 0).
    uint64_t id() const { return id_; }

    /// End collection and package the results (idempotent: the
    /// second call returns the same object).
    std::shared_ptr<const PipelineTelemetry>
    finish(const TelemetryConfig &config);

  private:
    std::shared_ptr<const PipelineTelemetry> result_;
    uint64_t id_ = 0;
    uint64_t startNs_ = 0;
    uint64_t previousBinding_ = 0;
    bool finished_ = false;
};

/// Drop all buffered span records (used by tests and Session).
void clearTrace();

/// Write `text` to `path`; returns false (and warns) on I/O failure.
bool writeTextFile(const std::string &path, const std::string &text);

// ---- Trace validation ----------------------------------------------

/** Options for validateChromeTrace. */
struct TraceCheckOptions
{
    /// Minimum number of distinct span names.
    size_t minDistinctNames = 1;

    /// Name prefixes that must each appear on at least one span
    /// (e.g. {"fab", "scope"} matches "fab.voxelize").
    std::vector<std::string> requiredPrefixes;
};

/** What the validator found. */
struct TraceStats
{
    size_t events = 0;
    size_t distinctNames = 0;
    std::vector<std::string> names; ///< sorted distinct names
};

/**
 * Validate a Chrome trace_event JSON document: well-formed JSON, a
 * `traceEvents` array of "X" events with string `name` and numeric
 * `ts` / `dur` / `pid` / `tid`, per-thread spans properly nested
 * (intervals on one tid are disjoint or contained, never partially
 * overlapping), plus the checks in `options`.  Returns true on
 * success; on failure `error` (when non-null) explains the first
 * violation.  `stats` (when non-null) is filled on success.
 */
bool validateChromeTrace(const std::string &json,
                         const TraceCheckOptions &options = {},
                         std::string *error = nullptr,
                         TraceStats *stats = nullptr);

} // namespace telemetry
} // namespace hifi

#endif // HIFI_COMMON_TELEMETRY_HH
