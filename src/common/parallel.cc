#include "common/parallel.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/telemetry.hh"

namespace hifi
{
namespace common
{

namespace
{

/**
 * Pool instrumentation (registered once, referenced lock-free after).
 * Purely observational: the counters never feed back into chunk
 * partitioning or scheduling, so enabling telemetry cannot perturb
 * the deterministic-output contract (asserted in test_parallel).
 * There is no steal/queue-depth metric because the pool is
 * work-stealing-free by design: one atomic chunk cursor, one job at
 * a time (see the header comment).
 */
struct PoolMetrics
{
    telemetry::Counter &jobs;       ///< fan-outs posted (incl. serial)
    telemetry::Counter &chunks;     ///< chunk bodies executed
    telemetry::Counter &busyNs;     ///< summed per-worker busy time
    telemetry::Histogram &chunksPerJob;
    telemetry::Gauge &workers;

    static PoolMetrics &
    get()
    {
        static PoolMetrics *metrics = new PoolMetrics{
            telemetry::registry().counter("pool.jobs"),
            telemetry::registry().counter("pool.chunks"),
            telemetry::registry().counter("pool.worker_busy_ns"),
            telemetry::registry().histogram(
                "pool.chunks_per_job",
                {1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
            telemetry::registry().gauge("pool.workers")};
        return *metrics;
    }
};

uint64_t
busyClockNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// True while this thread is executing chunks of some job; nested
/// parallel calls from such a thread run serially to avoid deadlock.
thread_local bool t_inside_pool = false;

/// True while this thread's time is being counted into
/// pool.worker_busy_ns: it is running chunks of some job, pooled or
/// serial.  A fan-out nested in such a chunk is already inside that
/// interval and must not count its time again.
thread_local bool t_busy_counted = false;

/// Marks the calling thread's time as counted for its lifetime;
/// `nested` tells whether an enclosing interval already counts it.
struct BusyInterval
{
    const bool nested = t_busy_counted;
    BusyInterval() { t_busy_counted = true; }
    ~BusyInterval() { t_busy_counted = nested; }
    BusyInterval(const BusyInterval &) = delete;
    BusyInterval &operator=(const BusyInterval &) = delete;
};

/// Thread count of this thread's innermost ScopedThreads (0 = none):
/// a per-caller cap on the jobs it posts, never the pool's own size.
thread_local size_t t_scoped_threads = 0;

size_t
defaultThreadCount()
{
    if (const char *env = std::getenv("HIFI_THREADS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && v >= 1)
            return static_cast<size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace

size_t
chunkCount(size_t n, size_t grain)
{
    if (n == 0)
        return 0;
    const size_t g = grain ? grain : 1;
    return (n + g - 1) / g;
}

std::pair<size_t, size_t>
chunkBounds(size_t begin, size_t end, size_t grain, size_t chunk)
{
    const size_t g = grain ? grain : 1;
    const size_t b = begin + chunk * g;
    const size_t e = b + g < end ? b + g : end;
    return {b < end ? b : end, e};
}

struct ThreadPool::Impl
{
    /// One fan-out; heap-shared so late-waking workers can observe a
    /// drained job even after run() has returned.
    struct Job
    {
        const std::function<void(size_t)> *body = nullptr;
        size_t chunks = 0;
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        std::atomic<bool> abort{false};
        std::exception_ptr error; // guarded by the pool mutex

        /// Pool workers this job may take (its thread count - 1) and
        /// how many joined so far, both guarded by the pool mutex.
        size_t admit = 0;
        size_t admitted = 0;

        /// Telemetry session binding of the submitting thread,
        /// re-applied on every worker so spans/metrics produced by
        /// the fan-out are attributed to the submitting job.
        uint64_t telemetryBinding = 0;
    };

    std::mutex mutex;
    std::condition_variable wake;
    std::condition_variable finished;
    std::vector<std::thread> workers;
    std::shared_ptr<Job> job;       // nullptr when idle
    uint64_t generation = 0;        // bumped per posted job
    size_t threads = 1;             // configured count, >= 1
    bool stopping = false;

    /// Serializes concurrent run() callers (one job at a time) and
    /// every change to the worker set.
    std::mutex gate;

    /// Top-level run() calls in flight, serial or not.
    std::atomic<size_t> callers{0};

    void
    work(Job &j)
    {
        const bool instrumented = telemetry::enabled();
        const telemetry::detail::ScopedSessionBinding bind(
            j.telemetryBinding);

        const BusyInterval busy;
        t_inside_pool = true;
        for (;;) {
            const size_t i = j.next.fetch_add(1);
            if (i >= j.chunks)
                break;
            if (!j.abort.load(std::memory_order_relaxed)) {
                const uint64_t t0 = instrumented ? busyClockNs() : 0;
                try {
                    (*j.body)(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (!j.error)
                        j.error = std::current_exception();
                    j.abort = true;
                }
                // Counted before `done` can release the caller, so no
                // add lands after the job has returned (and inside the
                // next telemetry session's window).
                if (instrumented) {
                    PoolMetrics &m = PoolMetrics::get();
                    m.chunks.add(1);
                    if (!busy.nested)
                        m.busyNs.add(busyClockNs() - t0);
                }
            }
            if (j.done.fetch_add(1) + 1 == j.chunks) {
                std::lock_guard<std::mutex> lock(mutex);
                finished.notify_all();
            }
        }
        t_inside_pool = false;
    }

    void
    workerLoop()
    {
        uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            wake.wait(lock, [&] {
                return stopping || (job && generation != seen);
            });
            if (stopping)
                return;
            seen = generation;
            const std::shared_ptr<Job> j = job;
            if (j->admitted == j->admit)
                continue; // the job's thread count is reached
            ++j->admitted;
            lock.unlock();
            work(*j);
            lock.lock();
        }
    }

    /// Launch workers until `count` threads (workers plus the
    /// caller) can serve one job.  Never shrinks; call with the gate
    /// and the mutex held.
    void
    grow(size_t count)
    {
        while (workers.size() + 1 < count)
            workers.emplace_back([this] { workerLoop(); });
    }

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            stopping = true;
        }
        wake.notify_all();
        for (auto &w : workers)
            w.join();
        workers.clear();
        stopping = false;
    }
};

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool(size_t threads) : impl_(new Impl)
{
    impl_->threads = threads ? threads : defaultThreadCount();
}

ThreadPool::~ThreadPool()
{
    impl_->stop();
    delete impl_;
}

size_t
ThreadPool::numThreads() const
{
    if (t_scoped_threads != 0)
        return t_scoped_threads;
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->threads;
}

void
ThreadPool::resize(size_t threads)
{
    const size_t count = threads ? threads : defaultThreadCount();
    std::lock_guard<std::mutex> gate(impl_->gate);
    impl_->stop();
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->threads = count;
}

void
ThreadPool::run(size_t chunks, const std::function<void(size_t)> &body)
{
    if (chunks == 0)
        return;
    // Every other caller in flight occupies one thread of this job's
    // count, so concurrent callers never oversubscribe it.
    struct InFlight
    {
        std::atomic<size_t> *callers;
        ~InFlight()
        {
            if (callers)
                --*callers;
        }
    } in_flight{t_inside_pool ? nullptr : &impl_->callers};
    const size_t others =
        in_flight.callers ? in_flight.callers->fetch_add(1) : 0;
    const size_t threads = numThreads();
    const size_t admit = threads > others + 1 ? threads - others - 1 : 0;

    // Serial paths: tiny jobs, no worker to admit, a nested call from
    // inside a worker (which would otherwise deadlock waiting on the
    // pool it is running on), or a pool busy with another caller's job
    // (waiting for it would idle this thread).  Chunk order matches the
    // cursor order of the parallel path, so outputs are identical.
    const bool instrumented = telemetry::enabled();
    if (instrumented) {
        PoolMetrics &m = PoolMetrics::get();
        m.jobs.add(1);
        m.chunksPerJob.observe(static_cast<double>(chunks));
        m.workers.set(static_cast<double>(threads));
    }
    std::unique_lock<std::mutex> gate(impl_->gate, std::defer_lock);
    if (chunks == 1 || t_inside_pool || admit == 0 || !gate.try_lock()) {
        const uint64_t t0 = instrumented ? busyClockNs() : 0;
        const BusyInterval busy;
        for (size_t i = 0; i < chunks; ++i)
            body(i);
        if (instrumented) {
            PoolMetrics &m = PoolMetrics::get();
            m.chunks.add(chunks);
            // A nested call runs inside a chunk whose busy time the
            // enclosing job already counts; adding it again would
            // push pool.utilization past 1.
            if (!busy.nested)
                m.busyNs.add(busyClockNs() - t0);
        }
        return;
    }

    auto job = std::make_shared<Impl::Job>();
    job->body = &body;
    job->chunks = chunks;
    job->admit = admit;
    job->telemetryBinding = telemetry::detail::currentSessionBinding();
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->grow(threads);
        impl_->job = job;
        ++impl_->generation;
    }
    impl_->wake.notify_all();

    impl_->work(*job); // the caller is a worker too

    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->finished.wait(lock, [&] {
        return job->done.load() == job->chunks;
    });
    impl_->job.reset();
    const std::exception_ptr error = job->error;
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

void
setNumThreads(size_t threads)
{
    ThreadPool::global().resize(threads);
}

size_t
numThreads()
{
    return ThreadPool::global().numThreads();
}

ScopedThreads::ScopedThreads(size_t threads)
{
    if (threads == 0)
        return;
    previous_ = t_scoped_threads;
    active_ = true;
    t_scoped_threads = threads;
}

ScopedThreads::~ScopedThreads()
{
    if (active_)
        t_scoped_threads = previous_;
}

void
parallelForChunks(size_t begin, size_t end, size_t grain,
                  const std::function<void(size_t, size_t, size_t)> &body)
{
    const size_t n = end > begin ? end - begin : 0;
    const size_t chunks = chunkCount(n, grain);
    if (chunks == 0)
        return;
    ThreadPool::global().run(chunks, [&](size_t chunk) {
        const auto [b, e] = chunkBounds(begin, end, grain, chunk);
        body(chunk, b, e);
    });
}

void
parallelFor(size_t begin, size_t end, size_t grain,
            const std::function<void(size_t, size_t)> &body)
{
    parallelForChunks(begin, end, grain,
                      [&](size_t, size_t b, size_t e) { body(b, e); });
}

} // namespace common
} // namespace hifi
