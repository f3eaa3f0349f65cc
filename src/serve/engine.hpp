/**
 * @file
 * Continuous-batching serving engine over the incremental decoder.
 *
 * Requests (a prompt plus a generation budget and optional stop-token
 * set) enter a FIFO queue; each engine step admits pending requests
 * into the active batch, assigns every active request a share of a
 * configurable per-step token budget (decode phase: one token, plus up
 * to draftLen speculative drafts; prefill phase: a chunk of the
 * remaining prompt — chunked prefill), and runs the assigned tokens
 * batched across requests with util/parallel.  Every row a request
 * runs goes through one path: each turn builds a slab — a chunk of
 * prompt rows, or the decode feed token plus any speculative drafts —
 * and pushes it through nn::Transformer::forwardChunk in one call.
 * With speculate on, a pluggable Proposer supplies the drafts, and
 * greedy accept/reject against the target logits keeps every stream
 * bit-identical to plain decode; rejected draft rows roll back via
 * KvCache::truncate before the step ends.  Finished
 * requests are evicted at the end of the step, releasing their
 * KV-cache blocks to the pool's free list without copying a byte.
 *
 * KV storage is paged by default (ServeConfig::pagedCache): one global
 * BlockPool per engine holds fixed-size blocks of a few token rows
 * each, and every (request, layer) cache is a block table into it.
 * Admission reserves each request's worst-case block count against the
 * pool capacity (poolBlocks) so allocation can never fail mid-step;
 * requests whose prompts share a tokenized prefix with an active
 * request reference the donor's full prefix blocks read-only
 * (refcounted, copy-on-write at the first divergent partial block) and
 * skip recomputing the shared rows — bit-exactly, because causal K/V
 * rows depend only on the tokens at or before them.  With
 * retainPrefixes on, retiring requests additionally park their block
 * tables in a bounded retention LRU so a later request (the next turn
 * of a conversation) can share the prefix with no live donor; retained
 * blocks are evicted under pool pressure before any admission stall.
 * The contiguous layout survives as pagedCache = false, the oracle
 * configuration the churn-fuzz suite compares against.
 *
 * Determinism contract: admission, budgeting, sharing and eviction are
 * pure functions of the queue state, and each request's step work is a
 * pure function of its own state, so the generated token streams are
 * bit-identical at every OLIVE_THREADS value (the CTest "serve" legs
 * assert this).  Only the measured latencies vary with the machine.
 *
 * Thread safety: one thread drives submit()/step(); an engine-wide
 * mutex makes the snapshot-style introspection hooks (metricsSnapshot,
 * pendingCount, activeCount, finishedCount, activeIds, plus the
 * pool's and decoded cache's own locked accessors) safe to call from
 * other threads while a step is in flight — a poller simply serializes
 * against step boundaries.  The reference-returning accessors
 * (metrics(), finished(), activeState()) remain quiescent-phase hooks:
 * valid only while no step() is running.  The step's parallel batch
 * region runs *inside* the engine's critical section; workers are
 * synchronized with the lock-holding issuer by the thread pool's job
 * handoff, so their access to the active batch is race-free even
 * though only the issuer formally holds the lock (annotated at the
 * lambda).  Lock hierarchy: engine mutex before pool mutex before
 * decoded-cache mutex, never any reverse edge.
 */

#ifndef OLIVE_SERVE_ENGINE_HPP
#define OLIVE_SERVE_ENGINE_HPP

#include <chrono>
#include <deque>
#include <list>
#include <memory>
#include <vector>

#include "block_pool.hpp"
#include "decoded_cache.hpp"
#include "eval/perplexity.hpp"
#include "kv_cache.hpp"
#include "proposer.hpp"
#include "quant/scheme.hpp"
#include "util/thread_annotations.hpp"

namespace olive {
namespace serve {

/** Engine configuration. */
struct ServeConfig
{
    KvCacheFormat cacheFormat = KvCacheFormat::Fp32;
    size_t maxBatchTokens = 8;    //!< Token budget per engine step.
    size_t maxActiveRequests = 8; //!< Continuous-batch width cap.
    Scheme *actScheme = nullptr;  //!< Optional per-token activation quant.

    bool pagedCache = true;  //!< Block-table storage (false = contiguous).
    size_t blockRows = 4;    //!< Token rows per block (paged only).
    size_t poolBlocks = 0;   //!< Pool capacity in blocks; 0 = unbounded.
    bool prefixSharing = true; //!< Share prompt-prefix blocks (paged only).

    /**
     * Cached-prefix retention (paged + prefixSharing only): when a
     * request retires, keep its block tables alive in a bounded LRU so
     * a follow-up request — e.g. the next turn of a conversation that
     * re-submits prompt + reply as its prefix — can seed via
     * shareFromTable with no live donor.  Retained blocks are extra
     * references outside the admission reservation sum, so the
     * capacity gate counts them and evicts retained entries (LRU
     * first) before it ever stalls a candidate: retention can only
     * save work, never delay admission.  Token streams are unaffected
     * by construction — the fuzz tier compares on vs off bit for bit.
     */
    bool retainPrefixes = false;
    /**
     * Retention budget in blocks (block-table entries summed across
     * layers and entries); 0 = unbounded.  A retiring prefix larger
     * than the whole budget is simply not retained.
     */
    size_t retainBlocks = 0;

    /**
     * Decoded-block working set (paged only): attention reads FP32
     * block contents from a shared LRU cache instead of re-decoding the
     * whole prefix into scratch each step — O(1) amortized codec work
     * per decode step, and prefix-shared blocks decode once per cohort.
     * false retains the scratch-materializing oracle path.
     */
    bool decodedCache = true;
    /** Working-set capacity in blocks; 0 = unbounded.  A soft cap:
     *  blocks pinned by in-flight attention are never evicted. */
    size_t decodedCacheBlocks = 0;

    /**
     * Batched prefill: prompt rows per Transformer::forwardChunk call
     * (capped by the step's token quota).  0 or 1 feeds the prompt as
     * one-row slabs through the same loop — token-by-token prefill,
     * the reference schedule the parity sweeps compare against.
     */
    size_t prefillChunk = 32;

    /**
     * Speculative decode: draft up to draftLen tokens per decode turn
     * (from @p proposer, or a default NgramProposer when null) and
     * append them to the turn's slab behind the feed token, so the
     * same forwardChunk call that decodes also verifies.  Greedy
     * accept/reject against the target logits keeps the token streams
     * bit-identical to speculate = false; rejected draft rows are
     * rolled back (KvCache::truncate) before the next step.
     */
    bool speculate = false;
    size_t draftLen = 4;      //!< Max drafted tokens per decode turn.
    Proposer *proposer = nullptr; //!< Non-owning; must outlive the engine.
};

/** One generation request. */
struct Request
{
    u64 id = 0;
    std::vector<int> prompt;
    size_t maxNewTokens = 0;
    std::vector<int> stopTokens; //!< Generation ends at any of these.
    /** Admission priority: higher drains first; equal priorities keep
     *  strict FIFO order, so the default (every request at 0) is the
     *  original FIFO schedule — the determinism suites are unchanged. */
    int priority = 0;
};

/** A retired request with its generation and latency bookkeeping. */
struct FinishedRequest
{
    u64 id = 0;
    std::vector<int> prompt;
    std::vector<int> generated;
    u64 submitStep = 0;     //!< Engine step count at submit().
    u64 admitStep = 0;      //!< Step that admitted it into the batch.
    u64 firstTokenStep = 0; //!< Step that produced its first token.
    u64 finishStep = 0;     //!< Step that produced its last token.
    size_t cacheEncodedBytes = 0; //!< KV footprint at finish (its peak).
    size_t cacheFp32Bytes = 0;    //!< Same cache uncompressed.
    size_t sharedPrefixRows = 0;  //!< Rows seeded by prefix sharing.
    bool stoppedByToken = false;  //!< Ended at a stop token, not budget.
    bool cancelled = false;       //!< Retired by cancel(), not finished.
    double ttftSeconds = 0.0;     //!< Wall time, submit -> first token.
    u64 specDrafted = 0;          //!< Draft tokens verified for it.
    u64 specAccepted = 0;         //!< Drafts the target model confirmed.
};

/** Aggregate throughput/latency/memory accounting. */
struct ServeMetrics
{
    u64 steps = 0;
    u64 tokensProcessed = 0; //!< Prefill + decode tokens.
    u64 tokensGenerated = 0;
    double totalSeconds = 0.0;
    std::vector<float> stepSeconds;    //!< Per-step wall time.
    size_t peakEncodedCacheBytes = 0;  //!< Across all in-flight requests.
    size_t peakFp32CacheBytes = 0;
    /** Peak of the pool's (refs-1) x block bytes — what sharing saves. */
    size_t peakSharedSavedBytes = 0;
    /** Rows whose payload was memcpy'd (copy-on-write only; admission
     *  and eviction never copy — bench_serving asserts 0 unshared). */
    u64 cowCopyRows = 0;
    /** Prefill rows skipped because a shared prefix seeded them. */
    u64 sharedPrefillRowsSkipped = 0;
    /** Decoded-block working set counters (cumulative; zero when the
     *  cache is off or the engine is contiguous).  decodedCacheRows is
     *  the O(1)-amortization witness: (K, V) slot pairs ever decoded —
     *  linear in appended rows when the working set holds, quadratic if
     *  every step re-decoded its prefix.  Exact values are
     *  deterministic only single-threaded (thread interleaving reorders
     *  LRU traffic); token streams are bit-identical regardless. */
    u64 decodedCacheHits = 0;
    u64 decodedCacheMisses = 0;
    u64 decodedCacheEvictions = 0;
    u64 decodedCacheRows = 0;
    size_t decodedCachePeakBytes = 0;
    /** Per-request wall time from submit() to its first generated
     *  token (time-to-first-token), in finish-of-first-token order.
     *  A measured latency: varies with the machine, never with the
     *  thread count in token content terms. */
    std::vector<float> ttftSeconds;
    /** Speculative decode: drafts verified / drafts accepted.  Pure
     *  functions of the schedule, deterministic at every thread
     *  count (unlike the latencies). */
    u64 specDrafted = 0;
    u64 specAccepted = 0;
    /** Requests retired through cancel() (queued or active). */
    u64 requestsCancelled = 0;
    /** Cached-prefix retention counters (all 0 when retainPrefixes is
     *  off).  retainedBlocks/retainedPeakBytes are pool-level (each
     *  distinct block counted once however many entries hold it);
     *  retentionEvictions counts entries dropped for any reason —
     *  admission pressure, the retainBlocks cap, or an explicit
     *  clearRetainedPrefixes(). */
    u64 retentionStored = 0;  //!< Retired prefixes entered into the LRU.
    u64 retentionHits = 0;    //!< Admissions seeded from a retained prefix.
    u64 retentionSharedRows = 0; //!< Prefill rows those admissions skipped.
    u64 retentionEvictions = 0;  //!< Entries dropped from the LRU.
    size_t retainedBlocks = 0;   //!< Pool blocks retention holds now.
    size_t retainedPeakBytes = 0; //!< Peak pool bytes held by retention.

    /** Processed tokens per wall second. */
    double tokensPerSecond() const;

    /** Generated tokens per wall second. */
    double generatedPerSecond() const;

    /** p-th percentile (0..100) of step latency, in milliseconds. */
    double stepLatencyMs(double p) const;

    /** p-th percentile (0..100) of time-to-first-token, in ms. */
    double ttftMs(double p) const;

    /** Accepted / drafted; 0 when nothing was drafted. */
    double specAcceptRate() const;
};

/**
 * The serving engine.  The model and the config's actScheme must
 * outlive the engine.
 */
class ServeEngine
{
  public:
    ServeEngine(const eval::LmModel &model, ServeConfig config);

    /** Releases every retained prefix reference before the pool dies. */
    ~ServeEngine();

    /**
     * Enqueue a request; returns its id.  @pre prompt non-empty.
     * Generation ends at max_new_tokens or at the first token in
     * @p stop_tokens (which is included in the generation).  The queue
     * is ordered by descending @p priority, FIFO within a priority.
     */
    u64 submit(std::vector<int> prompt, size_t max_new_tokens,
               std::vector<int> stop_tokens = {},
               int priority = 0) OLIVE_EXCLUDES(mu_);

    /**
     * Retire a queued or active request immediately, releasing its
     * KV-cache blocks and capacity reservation; it lands in finished()
     * with cancelled = true and whatever tokens it had generated.
     * Returns false when @p id is unknown or already finished.  Safe
     * to call from any thread; a call during a step() serializes at
     * the step boundary (the step's tokens land before the cancel).
     */
    bool cancel(u64 id) OLIVE_EXCLUDES(mu_);

    /**
     * Run one continuous-batching step (admit, budget, decode, evict).
     * Returns false — doing nothing — when no work is queued or active.
     * Holds the engine mutex for the whole step: concurrent pollers of
     * the snapshot accessors observe between-step states only.
     */
    bool step() OLIVE_EXCLUDES(mu_);

    /**
     * Step until every submitted request has finished; returns the
     * number of steps taken.  @p max_steps 0 means no limit (progress
     * is guaranteed: every step with active work processes >= 1 token).
     */
    size_t runToCompletion(size_t max_steps = 0);

    // ---- snapshot introspection (locked: pollable from any thread
    // while another thread steps; see the file comment) ----
    size_t pendingCount() const OLIVE_EXCLUDES(mu_);
    size_t activeCount() const OLIVE_EXCLUDES(mu_);
    size_t finishedCount() const OLIVE_EXCLUDES(mu_);

    /** Copy of the metrics, taken under the engine mutex. */
    ServeMetrics metricsSnapshot() const OLIVE_EXCLUDES(mu_);

    /** Ids of currently active requests, in batch order (test hook). */
    std::vector<u64> activeIds() const OLIVE_EXCLUDES(mu_);

    /** Ids of queued (not yet admitted) requests, in queue order. */
    std::vector<u64> pendingIds() const OLIVE_EXCLUDES(mu_);

    /**
     * Copies of finished()[from..], taken under the engine mutex — the
     * incremental-consumption form of finished() that is safe while
     * another thread steps.  @p from beyond the end returns empty.
     */
    std::vector<FinishedRequest> finishedSnapshot(size_t from = 0) const
        OLIVE_EXCLUDES(mu_);

    /** Generation progress of one active request (progressSnapshot). */
    struct ActiveProgress
    {
        u64 id = 0;
        size_t promptRows = 0;   //!< Prompt length in tokens.
        size_t position = 0;     //!< Cache rows appended so far.
        std::vector<int> generated; //!< Tokens emitted so far (copy).
    };

    /** Progress of every active request, in batch order, under the
     *  engine mutex — how a streaming front end observes tokens of
     *  requests that have not finished (and so are not yet visible
     *  through finishedSnapshot()). */
    std::vector<ActiveProgress> progressSnapshot() const
        OLIVE_EXCLUDES(mu_);

    /** Block references the retention LRU holds right now, summed over
     *  entries and layers (the capacity-gate charge; the pool's
     *  retainedBlocks() is the each-block-once view). */
    size_t retainedBlockCount() const OLIVE_EXCLUDES(mu_);

    /** Drop every retained prefix, releasing its block references —
     *  counted in retentionEvictions.  Safe from any thread. */
    void clearRetainedPrefixes() OLIVE_EXCLUDES(mu_);

    /** Model vocabulary size (immutable; any thread). */
    size_t vocab() const { return model_->vocab; }

    // ---- quiescent-phase accessors (valid only while no step() is in
    // flight: they hand out references into engine-guarded state) ----
    /** Retired requests, in finish order. */
    const std::vector<FinishedRequest> &finished() const { return finished_; }

    const ServeMetrics &metrics() const { return metrics_; }
    const ServeConfig &config() const { return cfg_; }
    const KvScheme &kvScheme() const { return *scheme_; }

    /** The pool behind a paged engine; nullptr when contiguous.  The
     *  pointer is fixed at construction, and the pool's accounting
     *  accessors take its own lock — safe to poll concurrently. */
    const BlockPool *blockPool() const { return pool_.get(); }

    /** The decoded-block working set; nullptr when off or contiguous.
     *  Fixed at construction; its accessors lock internally. */
    const DecodedBlockCache *decodedCache() const { return dcache_.get(); }

    /** Decode state of an active request; nullptr if not active.  The
     *  lookup locks, but the returned pointer targets guarded state —
     *  dereference it only in quiescent phases (no step() in flight). */
    const DecodeState *activeState(u64 id) const OLIVE_EXCLUDES(mu_);

  private:
    struct ActiveRequest
    {
        Request req;
        u64 submitStep = 0;
        u64 admitStep = 0;
        u64 firstTokenStep = 0;
        std::chrono::steady_clock::time_point submitTime;
        double ttftSeconds = 0.0;
        DecodeState state;
        std::vector<int> generated;
        bool done = false;
        bool stoppedByToken = false;
        size_t sharedPrefixRows = 0;
        size_t reservedBlocks = 0; //!< Admission-time capacity charge.
        u64 specDrafted = 0;
        u64 specAccepted = 0;
    };

    /**
     * One retired request's cached prefix, kept alive past its
     * lifetime by retention references on every table entry.  tokens
     * holds the first rows entries of prompt ++ generated — exactly
     * the tokens whose K/V rows the tables cover, which is what a
     * follow-up prompt is prefix-matched against.
     */
    struct RetainedPrefix
    {
        std::vector<int> tokens;
        size_t rows = 0;   //!< Cache rows the tables cover.
        size_t blocks = 0; //!< Table entries summed across layers.
        std::vector<std::vector<u32>> tables; //!< Per-layer block ids.
    };

    /** FIFO admission into the active batch (see admit() in the .cpp). */
    void admit() OLIVE_REQUIRES(mu_);

    /** Enter a retiring request's prefix into the retention LRU (no-op
     *  unless retention applies and the prefix spans >= one block). */
    void retainPrefix(ActiveRequest &a) OLIVE_REQUIRES(mu_);

    /** Drop the least-recently-used retained prefix. */
    void evictOldestRetained() OLIVE_REQUIRES(mu_);

    /** Worst-case pool blocks @p req can ever reference, all layers. */
    size_t worstCaseBlocks(const Request &req) const;

    /** Run up to @p ntok tokens of one request; returns tokens done. */
    size_t runRequest(ActiveRequest &a, size_t ntok, u64 step_no) const;

    const eval::LmModel *model_;
    ServeConfig cfg_;
    std::unique_ptr<KvScheme> scheme_;
    /** Default n-gram proposer when speculate is on and cfg_.proposer
     *  is null; proposer_ points at whichever is in force. */
    std::unique_ptr<Proposer> ownedProposer_;
    const Proposer *proposer_ = nullptr;
    std::unique_ptr<BlockPool> pool_; //!< Paged engines only.
    /** Shared decoded working set.  Declared after pool_ and before the
     *  request containers: destroying active_/pending_ releases blocks,
     *  whose pool hook invalidates dcache_ — so caches die first, the
     *  working set second, the pool last. */
    std::unique_ptr<DecodedBlockCache> dcache_;

    /** Serializes submit()/step() against the snapshot accessors.
     *  ServeMetrics' plain (non-atomic) fields are sound because every
     *  read and write happens under this lock — the documented
     *  alternative to per-counter atomics, chosen so a snapshot is
     *  internally consistent (e.g. steps matches stepSeconds.size()). */
    mutable Mutex mu_;
    size_t committedBlocks_ OLIVE_GUARDED_BY(mu_) =
        0; //!< Sum of active reservations.
    /** Submitted, not yet admitted. */
    std::deque<ActiveRequest> pending_ OLIVE_GUARDED_BY(mu_);
    std::vector<ActiveRequest> active_ OLIVE_GUARDED_BY(mu_);
    std::vector<FinishedRequest> finished_ OLIVE_GUARDED_BY(mu_);
    /** Retention LRU: front is the eviction victim, a matched entry is
     *  spliced to the back.  std::list so the in-flight match iterator
     *  survives evicting other entries during the capacity gate. */
    std::list<RetainedPrefix> retained_ OLIVE_GUARDED_BY(mu_);
    /** Sum of retained_ entry block counts (the capacity-gate charge;
     *  a block shared by two entries is deliberately counted twice —
     *  conservative, so the reservation proof stays airtight). */
    size_t retainedHeldBlocks_ OLIVE_GUARDED_BY(mu_) = 0;
    ServeMetrics metrics_ OLIVE_GUARDED_BY(mu_);
    u64 nextId_ OLIVE_GUARDED_BY(mu_) = 1;
};

} // namespace serve
} // namespace olive

#endif // OLIVE_SERVE_ENGINE_HPP
