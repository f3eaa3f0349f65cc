/**
 * @file
 * Deterministic parallel execution engine.
 *
 * A lazily-initialized global thread pool drives parallelFor(), which
 * splits an index range [begin, end) into fixed-size chunks of `grain`
 * indices and hands every chunk to exactly one invocation of the
 * callback.  Chunk boundaries depend only on (begin, end, grain) —
 * never on the thread count or on runtime scheduling — so any kernel
 * whose per-index work is a pure function of that index's inputs
 * produces bit-identical results at every thread count, including 1.
 * That property is what keeps quantization and the transformer forward
 * bit-exact under parallel execution (the CTest "determinism" legs
 * assert it).
 *
 * Reductions stay deterministic by the same construction: accumulate
 * one partial per chunk (indexed via chunkIndex()) and combine the
 * partials in chunk order after the loop returns.
 *
 * The pool size comes from the OLIVE_THREADS environment variable
 * (default: hardware_concurrency(); 1 forces fully serial execution;
 * 0 or unset selects the hardware default) and can be changed between
 * parallel regions with setThreadCount() — util/args wires a --threads
 * flag into every driver, and the scaling bench sweeps it.  A
 * parallelFor() issued from inside another parallelFor chunk (nested
 * parallelism — on a worker or on the participating caller) runs
 * serially on the issuing thread, so composed parallel code cannot
 * deadlock or oversubscribe.  A single-chunk parallelFor() runs the
 * same way and never touches the pool or its lock.
 *
 * Do not OLIVE_FATAL inside a parallel kernel: fatal() runs static
 * destructors from the calling thread, and a worker cannot join itself.
 * Internal invariants should use OLIVE_ASSERT (abort) as usual.
 */

#ifndef OLIVE_UTIL_PARALLEL_HPP
#define OLIVE_UTIL_PARALLEL_HPP

#include <cstddef>
#include <functional>

namespace olive {
namespace par {

/** Environment variable that selects the worker-thread count. */
inline constexpr const char *kThreadsEnv = "OLIVE_THREADS";

/**
 * Threads the pool will use: the last setThreadCount() value, else
 * OLIVE_THREADS, else hardware_concurrency().  Never zero.  Lock-free,
 * so kernels may call it from inside a parallel region.
 */
size_t threadCount();

/**
 * Resize the pool to @p n threads (0 = the ambient default:
 * OLIVE_THREADS if set, else hardware concurrency).  Existing
 * workers are joined first; call it only between parallel regions —
 * calling from inside a kernel is asserted against (it would deadlock
 * the pool that is running the kernel).  Results of parallelFor
 * kernels are unaffected by construction — this only changes how fast
 * they run.
 */
void setThreadCount(size_t n);

/**
 * True while this thread is executing a parallelFor chunk (worker or
 * participating caller).  A parallelFor issued in that state runs its
 * chunks inline on the issuing thread.
 */
bool inParallelRegion();

/**
 * Parse a thread-count string for setThreadCount(): a non-negative
 * integer, 0 meaning "ambient default", capped at a sanity limit.
 * fatal() on anything else, naming @p what (the flag or variable the
 * string came from).  Shared by OLIVE_THREADS and --threads so the two
 * spellings cannot drift.
 */
size_t parseThreadCount(const char *s, const char *what);

/**
 * Invoke @p fn once per chunk of [begin, end), where chunk c covers
 * [begin + c*grain, min(begin + (c+1)*grain, end)).  Chunks may run on
 * any thread in any order, but the chunk partition itself is a pure
 * function of (begin, end, grain).  @p grain == 0 is treated as 1.
 * Blocks until every chunk has finished; the first exception thrown by
 * a chunk (if any) is rethrown on the calling thread after the loop
 * drains.
 */
void parallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)> &fn);

/** Number of chunks parallelFor() will produce for this range. */
constexpr size_t
chunkCount(size_t begin, size_t end, size_t grain)
{
    if (end <= begin)
        return 0;
    const size_t g = grain ? grain : 1;
    return (end - begin + g - 1) / g;
}

/** Chunk index of @p chunk_begin within a parallelFor over @p begin. */
constexpr size_t
chunkIndex(size_t begin, size_t grain, size_t chunk_begin)
{
    const size_t g = grain ? grain : 1;
    return (chunk_begin - begin) / g;
}

} // namespace par
} // namespace olive

#endif // OLIVE_UTIL_PARALLEL_HPP
