#include "parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common.hpp"
#include "thread_annotations.hpp"

namespace olive {
namespace par {

namespace {

/**
 * True while this thread is executing a parallelFor chunk — on a pool
 * worker or on the calling thread, which participates in its own
 * region.  A nested parallelFor must run inline in both cases: the
 * caller still holds the pool's region lock, so re-entering the pool
 * would self-deadlock.
 */
thread_local bool tls_in_region = false;

/** RAII setter for tls_in_region around user-kernel invocations. */
struct RegionGuard
{
    bool prev;
    RegionGuard()
        : prev(tls_in_region)
    {
        tls_in_region = true;
    }
    ~RegionGuard() { tls_in_region = prev; }
};

/** Thread count implied by the environment (OLIVE_THREADS or hardware). */
size_t
envThreads()
{
    // getenv() is not reentrant against setenv(), which this codebase
    // never calls after main() starts; the one read happens on first
    // pool use.  (NOLINT: concurrency-mt-unsafe — see above.)
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *env = std::getenv(kThreadsEnv);
    if (env && *env) {
        const size_t v = parseThreadCount(env, kThreadsEnv);
        if (v > 0)
            return v;
        // 0 falls through to the hardware default.
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/**
 * Run the chunk loop inline on the calling thread (serial path).
 * Mirrors the pool's exception semantics — every chunk runs, the first
 * exception is rethrown after the loop drains — so the state a caller
 * observes on catch does not depend on the thread count.
 */
void
runChunksSerial(size_t begin, size_t end, size_t grain,
                const std::function<void(size_t, size_t)> &fn)
{
    RegionGuard region;
    std::exception_ptr err;
    for (size_t b = begin; b < end; b += grain) {
        try {
            fn(b, std::min(end, b + grain));
        } catch (...) {
            if (!err)
                err = std::current_exception();
        }
    }
    if (err)
        std::rethrow_exception(err);
}

/**
 * The global pool.  One parallel region runs at a time (apiMutex_).
 * Chunks are handed out from a cursor guarded by jobMutex_ — chunks are
 * coarse (a grain of work each), so the per-chunk lock is noise, and it
 * makes every job field access trivially synchronized: a worker that
 * outlives a job can never observe or steal from a later one, because
 * the generation check and the cursor pop happen under the same lock.
 * The caller participates in its own job, so a region never deadlocks
 * waiting for busy workers.
 *
 * Lock hierarchy: apiMutex_ may be held while taking jobMutex_ (run(),
 * stopWorkersLocked()); jobMutex_ is never held while taking apiMutex_.
 */
class Pool
{
  public:
    static Pool &
    instance()
    {
        static Pool pool;
        return pool;
    }

    ~Pool() { stopWorkers(); }

    size_t
    threads() const
    {
        // Lock-free so kernels may size work by pool width without
        // re-entering apiMutex_ (which run() holds for the region).
        // relaxed: the mirror is a monotone-free standalone value with
        // no data published through it — any recent value is valid.
        return targetMirror_.load(std::memory_order_relaxed);
    }

    void
    resize(size_t n) OLIVE_EXCLUDES(apiMutex_)
    {
        OLIVE_ASSERT(!tls_in_region,
                     "setThreadCount inside a parallel region would "
                     "deadlock the pool");
        const MutexLock lock(apiMutex_);
        const size_t want = n ? n : envDefault();
        if (want == target_)
            return;
        stopWorkersLocked();
        target_ = want;
        // relaxed: threads() readers need the value, not an ordering —
        // resize happens-before the next region via apiMutex_ anyway.
        targetMirror_.store(want, std::memory_order_relaxed);
    }

    void
    run(size_t begin, size_t end, size_t grain,
        const std::function<void(size_t, size_t)> &fn)
        OLIVE_EXCLUDES(apiMutex_, jobMutex_)
    {
        const MutexLock lock(apiMutex_);
        const size_t chunks = chunkCount(begin, end, grain);
        if (target_ == 1 || chunks <= 1) {
            runChunksSerial(begin, end, grain, fn);
            return;
        }
        ensureWorkersLocked();

        u64 gen;
        {
            const MutexLock job_lock(jobMutex_);
            job_.fn = &fn;
            job_.begin = begin;
            job_.end = end;
            job_.grain = grain;
            job_.chunks = chunks;
            job_.nextChunk = 0;
            job_.doneChunks = 0;
            job_.error = nullptr;
            gen = ++generation_;
        }
        jobCv_.notifyAll();

        work(gen);

        MutexLock job_lock(jobMutex_);
        doneCv_.wait(job_lock, [this]() OLIVE_REQUIRES(jobMutex_) {
            return job_.doneChunks == job_.chunks;
        });
        job_.fn = nullptr;
        if (job_.error) {
            std::exception_ptr err = job_.error;
            job_.error = nullptr;
            job_lock.unlock();
            std::rethrow_exception(err);
        }
    }

  private:
    struct Job
    {
        const std::function<void(size_t, size_t)> *fn = nullptr;
        size_t begin = 0;
        size_t end = 0;
        size_t grain = 1;
        size_t chunks = 0;
        size_t nextChunk = 0;
        size_t doneChunks = 0;
        std::exception_ptr error;
    };

    Pool()
        : target_(envDefault()),
          targetMirror_(target_)
    {
    }

    static size_t
    envDefault()
    {
        static const size_t n = envThreads();
        return n;
    }

    void
    ensureWorkersLocked() OLIVE_REQUIRES(apiMutex_)
    {
        if (!workers_.empty() || target_ <= 1)
            return;
        workers_.reserve(target_ - 1);
        for (size_t i = 0; i + 1 < target_; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    void
    stopWorkers() OLIVE_EXCLUDES(apiMutex_)
    {
        const MutexLock lock(apiMutex_);
        stopWorkersLocked();
    }

    void
    stopWorkersLocked() OLIVE_REQUIRES(apiMutex_)
    {
        if (workers_.empty())
            return;
        {
            const MutexLock job_lock(jobMutex_);
            stop_ = true;
        }
        jobCv_.notifyAll();
        for (std::thread &w : workers_)
            w.join();
        workers_.clear();
        {
            const MutexLock job_lock(jobMutex_);
            stop_ = false;
        }
    }

    void
    workerLoop() OLIVE_EXCLUDES(jobMutex_)
    {
        u64 seen = 0;
        for (;;) {
            u64 gen;
            {
                MutexLock job_lock(jobMutex_);
                jobCv_.wait(job_lock,
                            [this, seen]() OLIVE_REQUIRES(jobMutex_) {
                                return stop_ ||
                                       (generation_ != seen && job_.fn);
                            });
                if (stop_)
                    return;
                gen = generation_;
            }
            seen = gen;
            work(gen);
        }
    }

    /** Execute chunks of job @p gen until its cursor drains. */
    void
    work(u64 gen) OLIVE_EXCLUDES(jobMutex_)
    {
        for (;;) {
            size_t b, e;
            const std::function<void(size_t, size_t)> *fn;
            {
                const MutexLock job_lock(jobMutex_);
                if (generation_ != gen || !job_.fn ||
                    job_.nextChunk >= job_.chunks)
                    return;
                const size_t c = job_.nextChunk++;
                b = job_.begin + c * job_.grain;
                e = std::min(job_.end, b + job_.grain);
                fn = job_.fn;
            }
            try {
                RegionGuard region;
                (*fn)(b, e);
            } catch (...) {
                const MutexLock job_lock(jobMutex_);
                if (generation_ == gen && !job_.error)
                    job_.error = std::current_exception();
            }
            {
                const MutexLock job_lock(jobMutex_);
                if (generation_ == gen &&
                    ++job_.doneChunks == job_.chunks)
                    doneCv_.notifyAll();
            }
        }
    }

    Mutex apiMutex_; //!< Serializes regions and resizes.
    /** Pool size (workers_ plus the caller). */
    size_t target_ OLIVE_GUARDED_BY(apiMutex_);
    std::atomic<size_t> targetMirror_; //!< Lock-free copy for threads().
    std::vector<std::thread> workers_ OLIVE_GUARDED_BY(apiMutex_);

    Mutex jobMutex_;   //!< Guards every field below.
    CondVar jobCv_;    //!< Wakes workers for a new job.
    CondVar doneCv_;   //!< Wakes the caller on completion.
    u64 generation_ OLIVE_GUARDED_BY(jobMutex_) = 0;
    bool stop_ OLIVE_GUARDED_BY(jobMutex_) = false;
    Job job_ OLIVE_GUARDED_BY(jobMutex_);
};

} // namespace

size_t
threadCount()
{
    return Pool::instance().threads();
}

void
setThreadCount(size_t n)
{
    Pool::instance().resize(n);
}

bool
inParallelRegion()
{
    return tls_in_region;
}

size_t
parseThreadCount(const char *s, const char *what)
{
    // Far beyond any useful pool size, but small enough that a typo
    // dies here as fatal() instead of as a failed thread spawn.
    constexpr long kMaxThreads = 4096;
    char *endp = nullptr;
    errno = 0;
    const long v = std::strtol(s, &endp, 10);
    if (endp == s || *endp != '\0' || errno == ERANGE || v < 0 ||
        v > kMaxThreads) {
        OLIVE_FATAL(std::string(what) + " must be an integer in [0, " +
                    std::to_string(kMaxThreads) + "], got \"" + s + "\"");
    }
    return static_cast<size_t>(v);
}

void
parallelFor(size_t begin, size_t end, size_t grain,
            const std::function<void(size_t, size_t)> &fn)
{
    if (end <= begin)
        return;
    if (grain == 0)
        grain = 1;
    // Nested regions run serially on the issuing thread: same chunks,
    // same results, no deadlock (the enclosing region holds the pool).
    // A single-chunk region runs there too without taking the pool's
    // lock, so a caller may start one while holding a lock that pool
    // chunks also take (the decoded-block cache decodes a row under
    // its fill mutex) without ordering that lock against the pool's.
    if (tls_in_region || chunkCount(begin, end, grain) <= 1) {
        runChunksSerial(begin, end, grain, fn);
        return;
    }
    Pool::instance().run(begin, end, grain, fn);
}

} // namespace par
} // namespace olive
