/**
 * @file
 * Deterministic thread-pool parallelism for the hot kernels.
 *
 * Every substrate that fans work out (denoising, registration, SEM
 * frame formation, voxelization, Monte-Carlo sweeps) must produce
 * bitwise-identical output at any thread count, or the reproduction
 * stops being a reproduction.  The contract that guarantees this:
 *
 *  - Work over an index range [begin, end) is split into chunks of a
 *    caller-fixed `grain`; chunk boundaries depend only on the range
 *    and the grain, never on the thread count or on scheduling.
 *  - Chunks may execute on any thread in any order, so a chunk body
 *    must only write state owned by its chunk (or reduce through
 *    parallelReduce, which combines partials in chunk-index order).
 *  - Anything random inside a chunk draws from a counter-seeded RNG
 *    stream (see Rng(seed, stream)), not from a shared generator.
 *
 * The pool itself is deliberately work-stealing-free: a single atomic
 * chunk cursor hands out chunk indices, the calling thread
 * participates, and `threads == 1` (or a nested call from inside a
 * worker) degrades to plain serial execution of the same chunks in
 * the same order.  The pool runs one job at a time; a caller that
 * finds it busy with another caller's job runs its own chunks inline
 * rather than wait, and every other caller in flight takes one thread
 * of a job's count, so concurrent callers (service workers, runner
 * threads) never oversubscribe it.
 *
 * Thread-count selection, in priority order: the calling thread's
 * ScopedThreads override > setNumThreads() > the HIFI_THREADS
 * environment variable > std::thread::hardware_concurrency().  A
 * ScopedThreads count is a per-caller cap, not a pool setting: a job
 * posted under ScopedThreads(k) admits at most k - 1 pool workers, so
 * concurrent callers with different counts (service workers running
 * jobs with different PipelineConfig::threads) never overwrite each
 * other.  The pool launches more workers, under its job gate, only
 * when a cap exceeds the ones it has; setNumThreads is the only writer
 * of the global count.
 *
 * Instrumentation: while a telemetry session is active
 * (common/telemetry.hh) the pool records "pool.jobs", "pool.chunks",
 * "pool.worker_busy_ns", the "pool.chunks_per_job" histogram and the
 * "pool.workers" gauge.  Busy time is the time threads spend running
 * chunks; a fan-out nested inside a chunk is counted once, by the
 * enclosing chunk, so busy time never exceeds wall time x threads.
 * Collection is purely observational — it never alters partitioning
 * or scheduling, so outputs stay bitwise identical with telemetry on
 * or off (asserted in test_parallel).
 */

#ifndef HIFI_COMMON_PARALLEL_HH
#define HIFI_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace hifi
{
namespace common
{

/// Number of grain-sized chunks covering n items (0 for n == 0).
size_t chunkCount(size_t n, size_t grain);

/**
 * Half-open index range of chunk `chunk` over [begin, end) with the
 * given grain.  Chunks tile the range exactly: chunk i covers
 * [begin + i*grain, min(end, begin + (i+1)*grain)).
 */
std::pair<size_t, size_t> chunkBounds(size_t begin, size_t end,
                                      size_t grain, size_t chunk);

/** Fixed-partition thread pool; see the file comment for the rules. */
class ThreadPool
{
  public:
    /// The process-wide pool used by parallelFor / parallelReduce.
    static ThreadPool &global();

    /// @param threads 0 picks HIFI_THREADS or hardware concurrency.
    explicit ThreadPool(size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /// The caller's effective thread count (>= 1): its innermost
    /// ScopedThreads count, else the configured one.  1 means serial.
    size_t numThreads() const;

    /// Stop the workers and set the configured count (0 = auto);
    /// workers relaunch on demand.
    void resize(size_t threads);

    /**
     * Execute body(chunk) for every chunk in [0, chunks), blocking
     * until all chunks ran.  The calling thread participates, with at
     * most numThreads() - 1 pool workers, one fewer per other caller
     * in flight.  The first exception thrown by any chunk is rethrown
     * here (remaining unclaimed chunks are skipped).  Safe to call from
     * inside a chunk body, or while another thread's job holds the
     * pool: such calls run serially on the calling thread.
     */
    void run(size_t chunks, const std::function<void(size_t)> &body);

  private:
    struct Impl;
    Impl *impl_;
};

/// Configure the global pool (0 = auto from HIFI_THREADS / hardware).
void setNumThreads(size_t threads);

/// The calling thread's effective count on the global pool (>= 1).
size_t numThreads();

/**
 * RAII thread-count override for the jobs the calling thread posts
 * (other threads and the global count are unaffected); nestable, and
 * `threads == 0` leaves the current count in force.
 */
class ScopedThreads
{
  public:
    explicit ScopedThreads(size_t threads);
    ~ScopedThreads();

    ScopedThreads(const ScopedThreads &) = delete;
    ScopedThreads &operator=(const ScopedThreads &) = delete;

  private:
    size_t previous_ = 0;
    bool active_ = false;
};

/**
 * Run body(chunkBegin, chunkEnd) over grain-sized chunks of
 * [begin, end) on the global pool.  Chunk boundaries are thread-count
 * independent; bodies writing disjoint per-index state therefore give
 * bitwise-identical results at any thread count.
 */
void parallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)> &body);

/// parallelFor variant whose body also receives the chunk index.
void parallelForChunks(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t)> &body);

/**
 * Deterministic parallel reduction: `map(chunkBegin, chunkEnd)`
 * produces one partial per chunk; partials are combined with
 * `combine(acc, partial)` serially in chunk-index order, so the
 * result is independent of the thread count (floating-point sums
 * included).
 */
template <typename T, typename Map, typename Combine>
T
parallelReduce(size_t begin, size_t end, size_t grain, T init,
               Map map, Combine combine)
{
    const size_t n = end > begin ? end - begin : 0;
    const size_t chunks = chunkCount(n, grain);
    if (chunks == 0)
        return init;
    std::vector<T> partial(chunks);
    parallelForChunks(begin, end, grain,
                      [&](size_t chunk, size_t b, size_t e) {
                          partial[chunk] = map(b, e);
                      });
    T acc = std::move(init);
    for (auto &p : partial)
        acc = combine(std::move(acc), std::move(p));
    return acc;
}

} // namespace common
} // namespace hifi

#endif // HIFI_COMMON_PARALLEL_HH
