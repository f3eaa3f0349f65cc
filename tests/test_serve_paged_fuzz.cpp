/**
 * @file
 * Randomized churn fuzz for the paged KV cache: seeded random request
 * mixes (prompt lengths, arrival order, shared/unshared prefixes, stop
 * tokens, forced admission stalls via tiny pool capacities) are driven
 * through a paged engine and through the contiguous KvCacheReference
 * engine side by side, and every generated token stream must be
 * bit-identical between the two — the oracle discipline of the
 * *Reference() kernels (PR 3) applied to the storage layer.
 *
 * For scheduling-identical configurations (sharing off, unbounded
 * pool) the two engines are additionally run in lockstep and their
 * decoded cache contents compared bitwise after every step, so a paged
 * row landing in the wrong (block, slot) is caught at the byte level,
 * not just through a diverged argmax.  Pool invariants are re-checked
 * after every step of every paged run.
 *
 * The DecodedCacheFuzz suite re-runs the same schedules with the
 * decoded-block working set forced to degenerate capacities (one
 * block, barely-enough, unbounded, off), demanding oracle-identical
 * streams from each and meta-asserting that tiny capacities actually
 * evict.
 *
 * Every schedule also takes its prefill chunk (1, 2, 5 or 32 prompt
 * rows per forwardChunk call) from its seed, so the engine's one slab
 * loop runs token-by-token, odd-sized and default prefill chunks under
 * sharing, stop tokens, tiny pools, speculation and rollback.
 *
 * The ctest "serve" legs run this whole binary at OLIVE_THREADS=1 and
 * =8; a dedicated test also flips the pool size in-process.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "eval/perplexity.hpp"
#include "models/config.hpp"
#include "models/synthetic.hpp"
#include "serve/engine.hpp"
#include "serve/workload.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace olive {
namespace {

eval::LmModel
fuzzLm(u64 seed)
{
    auto config = models::bertBase();
    config.evalLayers = 2;
    config.evalDModel = 24;
    config.evalHeads = 4;
    config.evalDFf = 48;
    config.evalVocab = 64;
    eval::LmModel lm;
    lm.vocab = config.evalVocab;
    lm.backbone = models::makeBackbone(config, seed);
    lm.backbone.causal = true;
    lm.embedding = Tensor({lm.vocab, config.evalDModel});
    Rng rng(seed ^ 0xabcdULL);
    for (auto &v : lm.embedding.data())
        v = static_cast<float>(rng.gaussian());
    return lm;
}

/** One submission of a churn schedule. */
struct SubSpec
{
    size_t atStep = 0; //!< Engine step index to submit before.
    std::vector<int> prompt;
    size_t maxNew = 1;
    std::vector<int> stops;
};

/** One randomized schedule: a request mix plus an engine shape. */
struct Schedule
{
    std::vector<SubSpec> subs;
    serve::ServeConfig paged; //!< pagedCache = true variant.
    serve::ServeConfig ref;   //!< Same scheduling knobs, contiguous.
};

/**
 * Prompt rows per forwardChunk call for schedule @p seed, from
 * {1, 2, 5, 32}: token-by-token prefill, tiny and odd chunks that split
 * prompts and block boundaries unevenly, and the default.  Keyed on
 * seed / 4 so it varies independently of SpeculativeFuzz's
 * draftLen = 1 + seed % 4, and taken from the seed rather than the
 * schedule's Rng, which leaves every schedule's draws unchanged.
 */
size_t
prefillChunkFor(u64 seed)
{
    constexpr size_t kChunks[] = {1, 2, 5, 32};
    return kChunks[(seed / 4) % 4];
}

Schedule
randomSchedule(Rng &rng, u64 seed, size_t vocab, size_t n_layers)
{
    Schedule s;
    serve::ServeConfig &cfg = s.paged;
    cfg.prefillChunk = prefillChunkFor(seed);
    switch (rng.uniformInt(8)) {
    case 0:
        cfg.cacheFormat = serve::KvCacheFormat::Olive4;
        break;
    case 1:
        cfg.cacheFormat = serve::KvCacheFormat::Int8;
        break;
    default:
        cfg.cacheFormat = serve::KvCacheFormat::Fp32;
        break;
    }
    cfg.maxBatchTokens = 1 + rng.uniformInt(8);
    cfg.maxActiveRequests = 1 + rng.uniformInt(4);
    cfg.blockRows = 1 + rng.uniformInt(5);
    cfg.prefixSharing = rng.uniformInt(2) == 0;

    // Base prompt some requests extend — the shared-prefix population.
    std::vector<int> base(4 + rng.uniformInt(9));
    for (auto &t : base)
        t = static_cast<int>(rng.uniformInt(vocab));

    const size_t n_req = 2 + rng.uniformInt(5);
    size_t max_blocks_one = 0, total_blocks = 0;
    for (size_t r = 0; r < n_req; ++r) {
        SubSpec sub;
        sub.atStep = rng.uniformInt(8);
        if (rng.uniformInt(2) == 0) {
            // Shared-prefix request: base prefix + divergent suffix.
            const size_t keep = 2 + rng.uniformInt(base.size() - 1);
            sub.prompt.assign(base.begin(),
                              base.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      std::min(keep, base.size())));
            const size_t extra = rng.uniformInt(5);
            for (size_t i = 0; i < extra; ++i)
                sub.prompt.push_back(
                    static_cast<int>(rng.uniformInt(vocab)));
        } else {
            sub.prompt.resize(1 + rng.uniformInt(12));
            for (auto &t : sub.prompt)
                t = static_cast<int>(rng.uniformInt(vocab));
        }
        sub.maxNew = 1 + rng.uniformInt(6);
        if (rng.uniformInt(2) == 0) {
            // Stop tokens from a small vocab make hits likely, so
            // request lengths become genuinely data-dependent.
            sub.stops.resize(1 + rng.uniformInt(4));
            for (auto &t : sub.stops)
                t = static_cast<int>(rng.uniformInt(vocab));
        }
        const size_t rows = sub.prompt.size() + sub.maxNew - 1;
        const size_t blocks =
            (rows + cfg.blockRows - 1) / cfg.blockRows * n_layers;
        max_blocks_one = std::max(max_blocks_one, blocks);
        total_blocks += blocks;
        s.subs.push_back(std::move(sub));
    }
    // Half the schedules run with a pool barely above the largest
    // single request — forcing admission to stall on capacity and
    // requests to churn through the free list.
    if (rng.uniformInt(2) == 0) {
        cfg.poolBlocks =
            max_blocks_one +
            rng.uniformInt(std::max<size_t>(1, total_blocks -
                                                   max_blocks_one));
    }

    s.ref = cfg;
    s.ref.pagedCache = false;
    s.ref.prefixSharing = false;
    s.ref.poolBlocks = 0;
    return s;
}

/** Drive one engine through a schedule; returns id -> generated. */
std::map<u64, std::vector<int>>
runSchedule(const eval::LmModel &lm, const serve::ServeConfig &cfg,
            const std::vector<SubSpec> &subs,
            serve::ServeMetrics *metrics_out = nullptr,
            size_t *stopped_out = nullptr)
{
    serve::ServeEngine eng(lm, cfg);
    size_t step_idx = 0, si = 0;
    while (si < subs.size() || eng.pendingCount() > 0 ||
           eng.activeCount() > 0) {
        while (si < subs.size() && subs[si].atStep <= step_idx) {
            eng.submit(subs[si].prompt, subs[si].maxNew, subs[si].stops);
            ++si;
        }
        eng.step();
        if (const serve::BlockPool *pool = eng.blockPool())
            pool->checkInvariants();
        if (const serve::DecodedBlockCache *dc = eng.decodedCache())
            dc->checkInvariants();
        ++step_idx;
        if (step_idx >= 100000u) {
            ADD_FAILURE() << "schedule did not drain";
            break;
        }
    }
    std::map<u64, std::vector<int>> out;
    for (const serve::FinishedRequest &f : eng.finished())
        out[f.id] = f.generated;
    if (metrics_out)
        *metrics_out = eng.metrics();
    if (stopped_out) {
        *stopped_out = 0;
        for (const serve::FinishedRequest &f : eng.finished())
            *stopped_out += f.stoppedByToken ? 1u : 0u;
    }
    if (const serve::BlockPool *pool = eng.blockPool()) {
        // Fully drained: every block went back to the free list.
        EXPECT_EQ(pool->blocksInUse(), 0u);
        pool->checkInvariants();
    }
    return out;
}

bool
bitIdentical(std::span<const float> a, std::span<const float> b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct ThreadCountGuard
{
    ~ThreadCountGuard() { par::setThreadCount(0); }
};

// The acceptance bar: >= 100 seeded schedules, each compared
// bit-identically against the contiguous oracle (the ctest serve legs
// run this at OLIVE_THREADS=1 and =8, covering both pool shapes).
TEST(PagedFuzz, ChurnSchedulesMatchReferenceOracle)
{
    const eval::LmModel lm = fuzzLm(4242);
    u64 shared_rows_total = 0, stopped_total = 0, capped_pools = 0;
    for (u64 seed = 1; seed <= 100; ++seed) {
        Rng rng(seed * 7919);
        const Schedule s =
            randomSchedule(rng, seed, lm.vocab, lm.backbone.layers.size());
        SCOPED_TRACE(testing::Message()
                     << "seed=" << seed << " fmt="
                     << static_cast<int>(s.paged.cacheFormat)
                     << " blockRows=" << s.paged.blockRows << " pool="
                     << s.paged.poolBlocks << " share="
                     << s.paged.prefixSharing);
        serve::ServeMetrics pm;
        size_t stopped = 0;
        const auto paged = runSchedule(lm, s.paged, s.subs, &pm, &stopped);
        const auto ref = runSchedule(lm, s.ref, s.subs);
        EXPECT_EQ(paged, ref);
        shared_rows_total += pm.sharedPrefillRowsSkipped;
        stopped_total += stopped;
        capped_pools += s.paged.poolBlocks > 0 ? 1u : 0u;
        // Copy-on-write is the only payload copier; without sharing
        // nothing may ever be copied.
        if (!s.paged.prefixSharing) {
            EXPECT_EQ(pm.cowCopyRows, 0u);
        }
    }
    // The fuzz must actually exercise what it claims to pin down.
    EXPECT_GT(shared_rows_total, 0u) << "no schedule shared a prefix";
    EXPECT_GT(stopped_total, 0u) << "no schedule hit a stop token";
    EXPECT_GT(capped_pools, 20u) << "too few capacity-capped schedules";
}

// Scheduling-identical configurations (sharing off, unbounded pool)
// run in lockstep: after every step the active sets must coincide and
// every active cache must decode to bit-identical K/V tensors.
TEST(PagedFuzz, LockstepCacheContentsBitIdentical)
{
    const eval::LmModel lm = fuzzLm(990);
    const size_t d = lm.backbone.dModel;
    for (u64 seed = 1; seed <= 15; ++seed) {
        Rng rng(seed * 104729);
        Schedule s =
            randomSchedule(rng, seed, lm.vocab, lm.backbone.layers.size());
        s.paged.prefixSharing = false;
        s.paged.poolBlocks = 0;
        SCOPED_TRACE(testing::Message() << "seed=" << seed);

        serve::ServeEngine paged(lm, s.paged);
        serve::ServeEngine ref(lm, s.ref);
        size_t step_idx = 0, si = 0;
        while (si < s.subs.size() || paged.pendingCount() > 0 ||
               paged.activeCount() > 0) {
            while (si < s.subs.size() && s.subs[si].atStep <= step_idx) {
                const SubSpec &sub = s.subs[si];
                ASSERT_EQ(paged.submit(sub.prompt, sub.maxNew, sub.stops),
                          ref.submit(sub.prompt, sub.maxNew, sub.stops));
                ++si;
            }
            paged.step();
            ref.step();
            ++step_idx;
            ASSERT_LT(step_idx, 100000u);

            const auto ids = paged.activeIds();
            ASSERT_EQ(ids, ref.activeIds());
            for (u64 id : ids) {
                const serve::DecodeState *ps = paged.activeState(id);
                const serve::DecodeState *rs = ref.activeState(id);
                ASSERT_NE(ps, nullptr);
                ASSERT_NE(rs, nullptr);
                ASSERT_EQ(ps->position, rs->position);
                for (size_t li = 0; li < ps->layers.size(); ++li) {
                    const serve::KvCache &pc = *ps->layers[li];
                    const serve::KvCache &rc = *rs->layers[li];
                    ASSERT_EQ(pc.length(), rc.length());
                    if (pc.length() == 0)
                        continue;
                    Tensor pk({pc.length(), d}), rk({rc.length(), d});
                    Tensor pv({pc.length(), d}), rv({rc.length(), d});
                    pc.decodeK(pk);
                    rc.decodeK(rk);
                    pc.decodeV(pv);
                    rc.decodeV(rv);
                    ASSERT_TRUE(bitIdentical(pk.data(), rk.data()))
                        << "K layer " << li << " req " << id;
                    ASSERT_TRUE(bitIdentical(pv.data(), rv.data()))
                        << "V layer " << li << " req " << id;
                }
            }
        }
        std::map<u64, std::vector<int>> pout, rout;
        for (const serve::FinishedRequest &f : paged.finished())
            pout[f.id] = f.generated;
        for (const serve::FinishedRequest &f : ref.finished())
            rout[f.id] = f.generated;
        EXPECT_EQ(pout, rout);
    }
}

// Prefix sharing must be invisible in the token streams: the same
// schedule with sharing forced on and forced off produces identical
// generations (only the memory accounting may differ).
TEST(PagedFuzz, SharingIsTokenStreamInvisible)
{
    const eval::LmModel lm = fuzzLm(551);
    u64 shared_total = 0;
    for (u64 seed = 1; seed <= 20; ++seed) {
        Rng rng(seed * 31337);
        Schedule s =
            randomSchedule(rng, seed, lm.vocab, lm.backbone.layers.size());
        s.paged.poolBlocks = 0; // isolate sharing from capacity stalls
        SCOPED_TRACE(testing::Message() << "seed=" << seed);
        serve::ServeConfig on = s.paged, off = s.paged;
        on.prefixSharing = true;
        off.prefixSharing = false;
        serve::ServeMetrics m_on;
        const auto a = runSchedule(lm, on, s.subs, &m_on);
        const auto b = runSchedule(lm, off, s.subs);
        EXPECT_EQ(a, b);
        shared_total += m_on.sharedPrefillRowsSkipped;
    }
    EXPECT_GT(shared_total, 0u);
}

// Decoded-block working set under churn: every schedule re-runs with
// the working set at degenerate capacities — one single block (maximum
// eviction pressure; the soft cap overflows transiently whenever a
// table pins more than one block), barely enough for the largest
// request, unbounded, and off entirely (the retained scratch path) —
// and each variant's token streams must stay bit-identical to the
// contiguous oracle.  The capacity knob may only move work, never a
// value.  Registered as the ctest serve.decoded_cache legs at
// OLIVE_THREADS=1 and =8.
TEST(DecodedCacheFuzz, CapacitySweepMatchesReferenceOracle)
{
    const eval::LmModel lm = fuzzLm(4242);
    const size_t n_layers = lm.backbone.layers.size();
    u64 evictions_tiny = 0, hits_unbounded = 0, hits_tiny = 0;
    for (u64 seed = 1; seed <= 100; ++seed) {
        Rng rng(seed * 7919);
        const Schedule s = randomSchedule(rng, seed, lm.vocab, n_layers);
        SCOPED_TRACE(testing::Message()
                     << "seed=" << seed << " blockRows="
                     << s.paged.blockRows << " pool=" << s.paged.poolBlocks);
        const auto ref = runSchedule(lm, s.ref, s.subs);
        // Barely enough: the largest single request's full block count
        // across all layers — its own working set fits, but any
        // concurrency or sharing across requests contends.
        size_t barely = 1;
        for (const SubSpec &sub : s.subs) {
            const size_t rows = sub.prompt.size() + sub.maxNew - 1;
            const size_t blocks = (rows + s.paged.blockRows - 1) /
                                  s.paged.blockRows * n_layers;
            barely = std::max(barely, blocks);
        }
        const struct
        {
            bool on;
            size_t cap;
        } variants[] = {{true, 1}, {true, barely}, {true, 0}, {false, 0}};
        for (const auto &var : variants) {
            serve::ServeConfig cfg = s.paged;
            cfg.decodedCache = var.on;
            cfg.decodedCacheBlocks = var.cap;
            serve::ServeMetrics m;
            const auto out = runSchedule(lm, cfg, s.subs, &m);
            EXPECT_EQ(out, ref)
                << "decodedCache=" << var.on << " cap=" << var.cap;
            if (!var.on) {
                EXPECT_EQ(m.decodedCacheMisses, 0u);
                EXPECT_EQ(m.decodedCacheRows, 0u);
                continue;
            }
            if (var.cap == 1) {
                evictions_tiny += m.decodedCacheEvictions;
                hits_tiny += m.decodedCacheHits;
            } else if (var.cap == 0) {
                hits_unbounded += m.decodedCacheHits;
                EXPECT_EQ(m.decodedCacheEvictions, 0u)
                    << "an unbounded working set must never evict";
            }
        }
    }
    // Meta-asserts: the sweep must actually exercise the machinery it
    // claims to pin — a tiny cache must thrash, a large one must hit.
    EXPECT_GT(evictions_tiny, 0u)
        << "capacity 1 never evicted — the cap is not binding";
    EXPECT_GT(hits_unbounded, hits_tiny)
        << "an unbounded working set should out-hit a single block";
    EXPECT_GT(hits_unbounded, 0u) << "no schedule ever hit the cache";
}

// Speculative decode must be a pure scheduling optimization: the same
// schedule run with speculation on (draft lengths 1..4, n-gram
// proposer, stop tokens and prefix sharing in the mix exactly as the
// churn fuzz rolls them) produces token streams bit-identical to the
// plain greedy engine, across >= 100 seeds.  Rejected drafts exercise
// KvCache::truncate under every codec, block-rows setting, and pool
// capacity randomSchedule emits; runSchedule's per-step
// checkInvariants + drained-pool check make "rollback leaves the pool
// accounting clean" a hard assertion rather than a hope.  Registered
// as the ctest serve.spec_decode legs at OLIVE_THREADS=1 and =8.
TEST(SpeculativeFuzz, StreamsBitIdenticalToGreedyDecode)
{
    const eval::LmModel lm = fuzzLm(4242);
    u64 drafted = 0, accepted = 0;
    u64 shared_rows_total = 0, stopped_total = 0;
    for (u64 seed = 1; seed <= 100; ++seed) {
        Rng rng(seed * 7919);
        Schedule s =
            randomSchedule(rng, seed, lm.vocab, lm.backbone.layers.size());
        // Speculation only engages when the step budget exceeds the
        // guaranteed per-request token, so give the batch headroom.
        s.paged.maxBatchTokens =
            std::max<size_t>(s.paged.maxBatchTokens, 4);
        serve::ServeConfig spec = s.paged;
        spec.speculate = true;
        spec.draftLen = 1 + seed % 4;
        SCOPED_TRACE(testing::Message()
                     << "seed=" << seed << " draftLen=" << spec.draftLen
                     << " blockRows=" << spec.blockRows << " pool="
                     << spec.poolBlocks << " share="
                     << spec.prefixSharing);
        serve::ServeMetrics sm;
        size_t stopped = 0;
        const auto a = runSchedule(lm, spec, s.subs, &sm, &stopped);
        const auto b = runSchedule(lm, s.paged, s.subs);
        EXPECT_EQ(a, b);
        // Every finished request records exactly one TTFT sample.
        EXPECT_EQ(sm.ttftSeconds.size(), a.size());
        drafted += sm.specDrafted;
        accepted += sm.specAccepted;
        shared_rows_total += sm.sharedPrefillRowsSkipped;
        stopped_total += stopped;
    }
    // Meta-asserts: the sweep must draft, accept, AND reject (the
    // whole deterministic sweep always sees the same counts, so these
    // pin real coverage, not luck).  accepted < drafted proves the
    // truncate/rollback path ran; accepted > 0 proves the accept path
    // and its position bookkeeping ran.
    EXPECT_GT(drafted, 0u) << "no schedule ever drafted";
    EXPECT_GT(accepted, 0u) << "no draft was ever accepted";
    EXPECT_LT(accepted, drafted) << "no draft was ever rejected";
    EXPECT_GT(shared_rows_total, 0u)
        << "speculation never ran beside prefix sharing";
    EXPECT_GT(stopped_total, 0u)
        << "speculation never ran into a stop token";
}

/** A random multi-turn conversation workload: the churn pattern the
 *  cached-prefix retention LRU exists for — every turn after the first
 *  re-submits prompt + reply as its prefix AFTER the donor retired. */
serve::WorkloadSpec
randomMultiTurnSpec(Rng &rng, size_t vocab)
{
    serve::WorkloadSpec s;
    s.seed = rng.next();
    s.sessions = 2 + rng.uniformInt(3);
    s.vocab = vocab;
    s.arrival.kind = serve::ArrivalSpec::Kind::Uniform;
    s.arrival.gap = rng.uniformInt(3);
    s.promptLen.kind = serve::LengthSpec::Kind::Uniform;
    s.promptLen.lo = 2;
    s.promptLen.hi = 8;
    s.outputLen.kind = serve::LengthSpec::Kind::Uniform;
    s.outputLen.lo = 2;
    s.outputLen.hi = 5;
    s.turnsMin = 2;
    s.turnsMax = 3;
    s.turnGapSteps = rng.uniformInt(2);
    if (rng.uniformInt(2) == 0) {
        // Stop tokens make turn lengths data-dependent, so retained
        // prefixes end at genuinely random row counts.
        s.stopTokenCount = 1 + rng.uniformInt(2);
        s.stopPercent = 50;
    }
    return s;
}

// The retention acceptance bar: 100 seeded multi-turn churn schedules,
// each replayed with retention on and off, streams compared bit for
// bit (retention must be invisible in token space).  Pool invariants
// are re-checked after every step; after the drain every block still
// in use must be held by retention and exactly balance the pool's
// retained-block accounting, and clearRetainedPrefixes must return the
// pool to zero.  A third of the schedules run with a tiny retention
// budget and a third with a pool capacity barely above the largest
// request, so LRU-cap evictions and evict-before-stall pressure both
// fire (meta-asserted below).
TEST(RetentionFuzz, MultiTurnChurnRetentionIsStreamInvisible)
{
    const eval::LmModel lm = fuzzLm(4242);
    const size_t n_layers = lm.backbone.layers.size();
    u64 hits = 0, stored = 0, evicted_cap = 0, evicted_pressure = 0;
    for (u64 seed = 1; seed <= 100; ++seed) {
        Rng rng(seed * 6151);
        const serve::Workload w =
            serve::Workload::generate(randomMultiTurnSpec(rng, lm.vocab));

        serve::ServeConfig cfg;
        cfg.prefillChunk = prefillChunkFor(seed);
        switch (rng.uniformInt(4)) {
        case 0:
            cfg.cacheFormat = serve::KvCacheFormat::Olive4;
            break;
        case 1:
            cfg.cacheFormat = serve::KvCacheFormat::Int8;
            break;
        default:
            cfg.cacheFormat = serve::KvCacheFormat::Fp32;
            break;
        }
        cfg.maxBatchTokens = 1 + rng.uniformInt(8);
        cfg.maxActiveRequests = 1 + rng.uniformInt(4);
        cfg.blockRows = 1 + rng.uniformInt(5);
        const u64 pressure_kind = rng.uniformInt(3);
        if (pressure_kind == 1) {
            cfg.retainBlocks = 1 + rng.uniformInt(8 * n_layers);
        } else if (pressure_kind == 2) {
            // Pool barely above the worst single request of the whole
            // trace: chained turn prompts grow, so admission must
            // repeatedly evict retained prefixes before stalling.
            std::map<u64, size_t> chain_rows;
            size_t worst = 0;
            for (const serve::WorkloadRequest &r : w.requests()) {
                size_t &cum = chain_rows[r.conversation];
                cum += r.userTokens.size() + r.maxNew;
                worst = std::max(worst, cum);
            }
            const size_t blocks =
                (worst + cfg.blockRows - 1) / cfg.blockRows * n_layers;
            cfg.poolBlocks = blocks + rng.uniformInt(blocks);
        }
        SCOPED_TRACE(testing::Message()
                     << "seed=" << seed << " blockRows=" << cfg.blockRows
                     << " retainBlocks=" << cfg.retainBlocks << " pool="
                     << cfg.poolBlocks);

        serve::ReplayOptions opts;
        opts.onStep = [](serve::ServeEngine &e) {
            if (const serve::BlockPool *pool = e.blockPool())
                pool->checkInvariants();
        };
        const auto replay = [&](bool retain, serve::ServeMetrics *m) {
            serve::ServeConfig c = cfg;
            c.retainPrefixes = retain;
            serve::ServeEngine eng(lm, c);
            const serve::ReplayResult r =
                serve::replayTrace(eng, w, opts);
            *m = eng.metricsSnapshot();
            const serve::BlockPool *pool = eng.blockPool();
            // Drained: whatever is still alive, retention holds — and
            // the pool's own byte accounting must agree exactly.
            EXPECT_EQ(pool->blocksInUse(), pool->retainedBlocks());
            EXPECT_GE(eng.retainedBlockCount(), pool->retainedBlocks());
            EXPECT_EQ(pool->retainedBytes(),
                      pool->retainedBlocks() * pool->blockBytes());
            pool->checkInvariants();
            eng.clearRetainedPrefixes();
            EXPECT_EQ(pool->blocksInUse(), 0u);
            EXPECT_EQ(pool->retainedBlocks(), 0u);
            EXPECT_EQ(eng.retainedBlockCount(), 0u);
            pool->checkInvariants();
            std::vector<std::vector<int>> streams;
            streams.reserve(r.requests.size());
            for (const serve::ReplayRequestResult &q : r.requests)
                streams.push_back(q.generated);
            return streams;
        };
        serve::ServeMetrics on, off;
        const auto a = replay(true, &on);
        const auto b = replay(false, &off);
        EXPECT_EQ(a, b) << "retention changed a token stream";
        // A tiny retainBlocks budget may legitimately reject every
        // entry as oversized; an unbounded LRU must always store.
        if (cfg.retainBlocks == 0) {
            EXPECT_GT(on.retentionStored, 0u);
        }
        EXPECT_EQ(off.retentionStored, 0u);
        EXPECT_EQ(off.retentionHits, 0u);
        hits += on.retentionHits;
        stored += on.retentionStored;
        if (pressure_kind == 1)
            evicted_cap += on.retentionEvictions;
        else if (pressure_kind == 2)
            evicted_pressure += on.retentionEvictions;
    }
    // The fuzz must exercise what it claims to pin down: real LRU
    // hits, cap-driven evictions, and pressure-driven evictions.
    EXPECT_GT(hits, 0u) << "no follow-up turn ever hit the LRU";
    EXPECT_GT(stored, 0u);
    EXPECT_GT(evicted_cap, 0u) << "the retainBlocks cap never bound";
    EXPECT_GT(evicted_pressure, 0u)
        << "pool pressure never evicted a retained prefix";
}

// In-process thread-count sweep over a few schedules, mirroring the
// ServeDeterminism suite: the fuzz streams themselves must not depend
// on the pool size (the ctest legs then re-run everything above under
// OLIVE_THREADS=1 and =8).
TEST(PagedFuzz, SchedulesBitIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const eval::LmModel lm = fuzzLm(77);
    for (u64 seed : {3u, 11u, 42u}) {
        Rng rng(seed * 7919);
        const Schedule s =
            randomSchedule(rng, seed, lm.vocab, lm.backbone.layers.size());
        SCOPED_TRACE(testing::Message() << "seed=" << seed);
        par::setThreadCount(1);
        const auto serial = runSchedule(lm, s.paged, s.subs);
        for (size_t threads : {2u, 0u}) {
            par::setThreadCount(threads);
            EXPECT_EQ(runSchedule(lm, s.paged, s.subs), serial)
                << threads;
        }
    }
}

} // namespace
} // namespace olive
