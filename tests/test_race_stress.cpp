/**
 * @file
 * Concurrency stress tier (CTest label "race"): hammers every
 * cross-thread seam of the serving stack with real std::threads so the
 * TSan build has races to find and the mutex/atomic protocols have
 * witnesses.  Seven seams, matching the documented lock inventory:
 *
 *  1. DecodedBlockCache acquire/release churn over overlapping block
 *     ids, with a capacity cap small enough to force constant eviction
 *     and an invariant-checker thread sampling mid-flight.
 *  2. BlockPool release-hook invalidation (pool mutex held, cache mutex
 *     taken inside it) racing lease readers of other blocks.
 *  3. Concurrent acquire() of the *same* block with different row
 *     targets: whichever thread extends first must publish bytes
 *     identical to the serial oracle, and rowsOf() must be monotone.
 *  4. setThreadCount() resizes racing parallelFor() issuers on other
 *     threads, and ServeEngine::step() racing the snapshot accessors —
 *     with the generated token streams checked bit-identical to a
 *     serial reference engine.
 *  5. A serve::Service session driven on one thread while other
 *     threads hammer its cross-thread entry points (statsLine(),
 *     cancel()) — the transcript must stay structurally valid and the
 *     engine fully drained.
 *  6. Cached-prefix retention under a tight pool: a stepping engine
 *     whose admission gate evicts retained prefixes races a follow-up
 *     submitter (multi-turn chat via finishedSnapshot), cancellers,
 *     and a snapshot poller watching the retention counters stay
 *     monotone and the pool accounting stay whole-block.
 *  7. Prefill chunks that share a prefix with a live donor: each chunk
 *     runs alone at the top level of step(), so its per-row KV encode
 *     and chunk attention fan out over the pool while reading the
 *     donor's shared blocks, and a snapshot poller hammers the
 *     accessors — streams checked bit-identical to a serial reference.
 *
 * Functional assertions here are deliberately coarse (exact values are
 * checked by the serial suites); the point of this tier is that every
 * interleaving is *well-defined* — no torn reads, no use-after-free, no
 * lock-order inversion — which is what TSan and the invariant checkers
 * verify.  Every test joins all threads before asserting aggregates.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/perplexity.hpp"
#include "models/config.hpp"
#include "models/synthetic.hpp"
#include "serve/block_pool.hpp"
#include "serve/decoded_cache.hpp"
#include "serve/engine.hpp"
#include "serve/kv_cache.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace olive {
namespace {

constexpr size_t kD = 8;
constexpr size_t kStressThreads = 8;

/** Restores the ambient pool size when a test returns. */
struct ThreadCountGuard
{
    ~ThreadCountGuard() { par::setThreadCount(0); }
};

/** Write the canonical fp32 pattern into one (block, slot) pair. */
void
fillSlot(serve::BlockPool &pool, u32 id, size_t slot, float tag)
{
    std::vector<float> k(kD), v(kD);
    for (size_t i = 0; i < kD; ++i) {
        k[i] = tag + static_cast<float>(slot) * 10.0f +
               static_cast<float>(i);
        v[i] = -k[i] + 0.5f;
    }
    std::memcpy(pool.kRow(id, slot), k.data(), kD * sizeof(float));
    std::memcpy(pool.vRow(id, slot), v.data(), kD * sizeof(float));
}

/** Check a lease's decoded prefix against the fillSlot oracle. */
void
expectPrefix(const serve::DecodedBlockCache::Lease &lease, size_t rows,
             float tag)
{
    for (size_t slot = 0; slot < rows; ++slot) {
        for (size_t i = 0; i < kD; ++i) {
            const float want = tag + static_cast<float>(slot) * 10.0f +
                               static_cast<float>(i);
            ASSERT_EQ(lease.k[slot * kD + i], want);
            ASSERT_EQ(lease.v[slot * kD + i], -want + 0.5f);
        }
    }
}

// Seam 1: many threads acquire/release overlapping ids while the
// soft-capacity cap forces eviction churn, and a checker thread runs
// the full invariant sweep mid-flight.
TEST(RaceStress, DecodedCacheChurnOverOverlappingBlocks)
{
    const serve::Fp32KvScheme fp32;
    constexpr size_t kBlocks = 8;
    constexpr size_t kRows = 4;
    serve::BlockPool pool(fp32, kD, kRows);
    serve::DecodedBlockCache cache(pool, /*capacity_blocks=*/kBlocks / 2);
    pool.setReleaseHook([&cache](u32 id) { cache.invalidate(id); });

    std::vector<u32> ids(kBlocks);
    for (size_t b = 0; b < kBlocks; ++b) {
        ids[b] = pool.allocate(); // main's ref keeps every block live
        for (size_t s = 0; s < kRows; ++s)
            fillSlot(pool, ids[b], s, 100.0f * static_cast<float>(b));
    }

    constexpr int kIters = 300;
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    threads.reserve(kStressThreads + 1);
    for (size_t t = 0; t < kStressThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(0x9e3779b9ULL * (t + 1));
            for (int it = 0; it < kIters; ++it) {
                const size_t b = rng.uniformInt(kBlocks);
                const size_t rows = 1 + rng.uniformInt(kRows);
                const auto lease = cache.acquire(ids[b], rows);
                expectPrefix(lease, rows,
                             100.0f * static_cast<float>(b));
                // Exercise retain/release concurrency too; main's ref
                // keeps the count above zero, so no hook fires here.
                pool.retain(ids[b]);
                pool.release(ids[b]);
                cache.release(ids[b]);
            }
        });
    }
    threads.emplace_back([&] { // invariant checker samples mid-flight
        while (!done.load(std::memory_order_relaxed)) {
            cache.checkInvariants();
            pool.checkInvariants();
            (void)cache.entryCount();
            (void)cache.pinnedCount();
            (void)pool.bytesInUse();
            std::this_thread::yield();
        }
    });
    for (size_t t = 0; t < kStressThreads; ++t)
        threads[t].join();
    done.store(true, std::memory_order_relaxed);
    threads.back().join();

    cache.checkInvariants();
    pool.checkInvariants();
    EXPECT_EQ(cache.pinnedCount(), 0u);
    EXPECT_LE(cache.entryCount(), kBlocks / 2); // cap holds at rest
    EXPECT_EQ(cache.hits() + cache.misses(),
              kStressThreads * static_cast<u64>(kIters));
    for (u32 id : ids)
        pool.release(id);
    EXPECT_EQ(pool.blocksInUse(), 0u);
    EXPECT_EQ(cache.entryCount(), 0u); // hook drained every entry
}

// Seam 2: the pool's release hook invalidates decoded entries while
// holding the pool mutex (pool mu_ -> cache mu_), racing lease readers
// and accounting pollers that take the cache mutex bare.  Churn blocks
// (allocated/freed per iteration) are disjoint from the shared blocks
// the readers pin, so the @pre of invalidate() — entry unpinned —
// holds by construction, exactly as it does in the engine.
TEST(RaceStress, ReleaseHookInvalidationRacesLeaseReaders)
{
    const serve::Fp32KvScheme fp32;
    constexpr size_t kShared = 4;
    constexpr size_t kRows = 4;
    serve::BlockPool pool(fp32, kD, kRows);
    serve::DecodedBlockCache cache(pool, /*capacity_blocks=*/0);
    pool.setReleaseHook([&cache](u32 id) { cache.invalidate(id); });

    std::vector<u32> shared(kShared);
    for (size_t b = 0; b < kShared; ++b) {
        shared[b] = pool.allocate();
        for (size_t s = 0; s < kRows; ++s)
            fillSlot(pool, shared[b], s, 100.0f * static_cast<float>(b));
    }

    constexpr int kIters = 250;
    std::vector<std::thread> threads;
    threads.reserve(kStressThreads);
    // Two churn threads: allocate, decode, unpin, free — every free
    // runs the invalidation hook under the pool lock.
    for (size_t t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(0xc0ffeeULL * (t + 1));
            for (int it = 0; it < kIters; ++it) {
                const u32 id = pool.allocate();
                const size_t rows = 1 + rng.uniformInt(kRows);
                for (size_t s = 0; s < rows; ++s)
                    fillSlot(pool, id, s, -7.0f);
                const auto lease = cache.acquire(id, rows);
                expectPrefix(lease, rows, -7.0f);
                cache.release(id);
                pool.release(id); // refcount 0 -> hook -> invalidate
            }
        });
    }
    for (size_t t = 2; t < kStressThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(0xfeedULL * (t + 1));
            for (int it = 0; it < kIters; ++it) {
                const size_t b = rng.uniformInt(kShared);
                const size_t rows = 1 + rng.uniformInt(kRows);
                const auto lease = cache.acquire(shared[b], rows);
                expectPrefix(lease, rows,
                             100.0f * static_cast<float>(b));
                (void)cache.rowsOf(shared[b]);
                (void)cache.invalidations();
                cache.release(shared[b]);
            }
        });
    }
    for (auto &th : threads)
        th.join();

    cache.checkInvariants();
    pool.checkInvariants();
    EXPECT_EQ(cache.invalidations(), 2u * kIters);
    for (u32 id : shared)
        pool.release(id);
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_EQ(pool.blocksInUse(), 0u);
}

// Seam 3 (the fill/mu_ lock-domain crossing): concurrent acquire() of
// one block with *different* row targets.  Whichever thread wins the
// fill race must publish bytes identical to the serial oracle, losers
// must observe a decoded prefix covering their target, and rowsOf()
// must be monotone under sampling — the Entry::rows release/acquire
// contract, end to end.
TEST(RaceStress, ConcurrentAcquireSameBlockDifferentRowTargets)
{
    const serve::Fp32KvScheme fp32;
    constexpr size_t kRows = 32; // wide block: a fill takes real time
    serve::BlockPool pool(fp32, kD, kRows);

    constexpr int kRounds = 40;
    for (int round = 0; round < kRounds; ++round) {
        serve::DecodedBlockCache cache(pool, 0);
        const u32 id = pool.allocate();
        for (size_t s = 0; s < kRows; ++s)
            fillSlot(pool, id, s, 42.0f);

        std::atomic<bool> done{false};
        std::vector<std::thread> threads;
        threads.reserve(kStressThreads + 1);
        for (size_t t = 0; t < kStressThreads; ++t) {
            threads.emplace_back([&, t] {
                // Distinct, interleaved targets: thread t asks for
                // progressively larger prefixes offset by its index.
                for (size_t rows = 1 + t % kRows; rows <= kRows;
                     rows += kStressThreads) {
                    const auto lease = cache.acquire(id, rows);
                    ASSERT_GE(cache.rowsOf(id), rows);
                    expectPrefix(lease, rows, 42.0f);
                    cache.release(id);
                }
            });
        }
        threads.emplace_back([&] { // monotonicity sampler
            size_t last = 0;
            while (!done.load(std::memory_order_relaxed)) {
                const size_t now = cache.rowsOf(id);
                ASSERT_GE(now, last);
                ASSERT_LE(now, kRows);
                last = now;
                std::this_thread::yield();
            }
        });
        for (size_t t = 0; t < kStressThreads; ++t)
            threads[t].join();
        done.store(true, std::memory_order_relaxed);
        threads.back().join();

        // At rest the decoded plane equals the serial oracle in full.
        const auto lease = cache.acquire(id, kRows);
        expectPrefix(lease, kRows, 42.0f);
        cache.release(id);
        // Decode work is never repeated: every slot decoded exactly
        // once no matter how the acquirers interleaved.
        EXPECT_EQ(cache.decodedRows(), kRows);
        cache.checkInvariants();
        pool.release(id);
    }
}

// Seam 4a: pool resizes racing parallelFor issuers.  Two issuer
// threads run deterministic chunked reductions while a third cycles
// setThreadCount through 1..8; every reduction must produce the exact
// serial sum regardless of how resizes interleave with regions.
TEST(RaceStress, SetThreadCountRacesParallelFor)
{
    const ThreadCountGuard guard;
    constexpr size_t kN = 512;
    constexpr size_t kGrain = 16;
    constexpr int kIters = 60;
    const u64 want = kN * (kN - 1) / 2; // sum of [0, kN)

    std::atomic<bool> done{false};
    std::thread resizer([&] {
        size_t n = 1;
        while (!done.load(std::memory_order_relaxed)) {
            par::setThreadCount(1 + n % 8);
            ++n;
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> issuers;
    issuers.reserve(2);
    for (size_t t = 0; t < 2; ++t) {
        issuers.emplace_back([&] {
            for (int it = 0; it < kIters; ++it) {
                std::vector<u64> partial(
                    par::chunkCount(0, kN, kGrain), 0);
                par::parallelFor(0, kN, kGrain, [&](size_t b, size_t e) {
                    u64 acc = 0;
                    for (size_t i = b; i < e; ++i)
                        acc += i;
                    partial[par::chunkIndex(0, kGrain, b)] = acc;
                });
                const u64 got = std::accumulate(partial.begin(),
                                                partial.end(), u64{0});
                ASSERT_EQ(got, want);
            }
        });
    }
    for (auto &th : issuers)
        th.join();
    done.store(true, std::memory_order_relaxed);
    resizer.join();
}

// Seam 4b: a stepping engine racing the locked snapshot accessors.
// One thread drives the engine to completion; a poller hammers every
// snapshot hook (and the pool's/cache's own locked accounting)
// mid-step.  The generated streams must stay bit-identical to a serial
// reference engine fed the same requests — introspection is an
// observer, never a participant.
TEST(RaceStress, EngineStepRacesSnapshotAccessors)
{
    auto config = models::bertBase();
    config.evalLayers = 2;
    config.evalDModel = 24;
    config.evalHeads = 4;
    config.evalDFf = 48;
    config.evalVocab = 64;
    eval::LmModel lm;
    lm.vocab = config.evalVocab;
    lm.backbone = models::makeBackbone(config, 1234);
    lm.backbone.causal = true;
    lm.embedding = Tensor({lm.vocab, config.evalDModel});
    Rng erng(0xabcdULL);
    for (auto &v : lm.embedding.data())
        v = static_cast<float>(erng.gaussian());

    serve::ServeConfig cfg;
    cfg.maxBatchTokens = 4;
    cfg.maxActiveRequests = 4;
    cfg.blockRows = 4;

    Rng rng(2024);
    std::vector<std::vector<int>> prompts(10);
    for (auto &p : prompts) {
        p.resize(1 + rng.uniformInt(6));
        for (auto &tok : p)
            tok = static_cast<int>(rng.uniformInt(lm.vocab));
    }
    constexpr size_t kMaxNew = 5;

    // Serial reference: same requests, no concurrent observers.
    serve::ServeEngine ref(lm, cfg);
    for (const auto &p : prompts)
        ref.submit(p, kMaxNew);
    ref.runToCompletion();

    serve::ServeEngine eng(lm, cfg);
    std::vector<u64> ids;
    ids.reserve(prompts.size());
    for (const auto &p : prompts)
        ids.push_back(eng.submit(p, kMaxNew));

    std::atomic<bool> done{false};
    std::thread poller([&] {
        u64 last_steps = 0;
        size_t last_finished = 0;
        while (!done.load(std::memory_order_relaxed)) {
            const serve::ServeMetrics m = eng.metricsSnapshot();
            ASSERT_GE(m.steps, last_steps); // monotone across samples
            ASSERT_EQ(m.stepSeconds.size(), m.steps); // consistent snap
            last_steps = m.steps;
            const size_t fin = eng.finishedCount();
            ASSERT_GE(fin, last_finished);
            last_finished = fin;
            ASSERT_LE(eng.pendingCount() + eng.activeCount() + fin,
                      prompts.size() + 1); // never invents requests
            for (u64 id : eng.activeIds())
                (void)eng.activeState(id); // lookup only; no deref
            ASSERT_EQ(eng.blockPool()->bytesInUse() % // whole blocks
                          eng.blockPool()->blockBytes(),
                      0u);
            eng.blockPool()->checkInvariants();
            if (eng.decodedCache() != nullptr)
                eng.decodedCache()->checkInvariants();
            std::this_thread::yield();
        }
    });
    eng.runToCompletion();
    done.store(true, std::memory_order_relaxed);
    poller.join();

    ASSERT_EQ(eng.finishedCount(), prompts.size());
    ASSERT_EQ(ref.finished().size(), prompts.size());
    // Finish order is data-dependent but deterministic: the observed
    // engine must retire the same requests in the same order as the
    // unobserved reference, with bit-identical streams.
    for (size_t i = 0; i < prompts.size(); ++i) {
        const serve::FinishedRequest &a = eng.finished()[i];
        const serve::FinishedRequest &b = ref.finished()[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.generated, b.generated); // bit-identical streams
        EXPECT_LE(a.id, ids.back()); // ids were handed out in order
    }
    const serve::ServeMetrics m = eng.metricsSnapshot();
    EXPECT_EQ(m.tokensGenerated,
              ref.metricsSnapshot().tokensGenerated);
}

// Seam 5: the serve::Service front end.  One thread drives a whole
// scripted session through Service::run(); concurrent callers hammer
// the two cross-thread entry points — statsLine() (locked snapshot
// serialization) and cancel() (reason map under the service mutex,
// then the engine's own locked cancel).  Which requests the cancellers
// catch is timing-dependent, so the assertions are structural: every
// emitted line is valid JSON, every request reaches exactly one done,
// and the engine ends fully drained with the pool empty.
TEST(RaceStress, ServiceRunRacesStatsAndCancel)
{
    auto config = models::bertBase();
    config.evalLayers = 2;
    config.evalDModel = 24;
    config.evalHeads = 4;
    config.evalDFf = 48;
    config.evalVocab = 64;
    eval::LmModel lm;
    lm.vocab = config.evalVocab;
    lm.backbone = models::makeBackbone(config, 4321);
    lm.backbone.causal = true;
    lm.embedding = Tensor({lm.vocab, config.evalDModel});
    Rng erng(0xdcbaULL);
    for (auto &v : lm.embedding.data())
        v = static_cast<float>(erng.gaussian());

    serve::ServeConfig cfg;
    cfg.maxBatchTokens = 4;
    cfg.maxActiveRequests = 3;
    cfg.blockRows = 4;
    serve::ServeEngine engine(lm, cfg);

    constexpr size_t kRequests = 8;
    Rng rng(77);
    std::stringstream in;
    for (size_t i = 0; i < kRequests; ++i) {
        Json prompt = Json::array();
        const size_t len = 1 + rng.uniformInt(6);
        for (size_t j = 0; j < len; ++j)
            prompt.push(static_cast<int>(rng.uniformInt(lm.vocab)));
        in << Json::object({{"op", "submit"},
                            {"prompt", prompt},
                            {"max_new", 12}})
                  .dump()
           << "\n";
    }
    in << "{\"op\":\"drain\"}\n{\"op\":\"shutdown\"}\n";

    serve::ServiceConfig svc;
    svc.autoDrain = false; // keep the batch full while the pollers run
    serve::Service service(engine, svc);

    std::atomic<bool> done{false};
    std::stringstream out;
    std::thread driver([&] {
        service.run(in, out);
        done.store(true, std::memory_order_relaxed);
    });
    std::vector<std::thread> pollers;
    for (size_t t = 0; t < kStressThreads / 2; ++t) {
        pollers.emplace_back([&] {
            while (!done.load(std::memory_order_relaxed)) {
                const std::string line = service.statsLine();
                std::string err;
                const auto stats = Json::parse(line, &err);
                ASSERT_TRUE(stats.has_value()) << line << " -> " << err;
                ASSERT_LE(static_cast<size_t>(
                              stats->find("finished")->asInt()),
                          service.submittedCount());
                std::this_thread::yield();
            }
        });
    }
    for (size_t t = 0; t < kStressThreads / 2; ++t) {
        pollers.emplace_back([&, t] {
            Rng crng(1000 + t);
            while (!done.load(std::memory_order_relaxed)) {
                // Cancelling an unknown/finished id is a benign false.
                (void)service.cancel(1 + crng.uniformInt(kRequests));
                std::this_thread::yield();
            }
        });
    }
    driver.join();
    for (auto &th : pollers)
        th.join();

    // Structural checks on the session transcript.
    size_t done_events = 0;
    std::string line;
    while (std::getline(out, line)) {
        std::string err;
        const auto ev = Json::parse(line, &err);
        ASSERT_TRUE(ev.has_value()) << line << " -> " << err;
        const std::string &kind = ev->find("event")->asString();
        ASSERT_NE(kind, "error") << line;
        if (kind == "done") {
            ++done_events;
            ASSERT_EQ(static_cast<size_t>(ev->find("n")->asInt()),
                      ev->find("tokens")->size());
        }
    }
    EXPECT_EQ(done_events, kRequests); // exactly one terminal each
    EXPECT_EQ(engine.finishedCount(), kRequests);
    EXPECT_EQ(engine.pendingCount() + engine.activeCount(), 0u);
    ASSERT_NE(engine.blockPool(), nullptr);
    EXPECT_EQ(engine.blockPool()->blocksInUse(), 0u);
    engine.blockPool()->checkInvariants();
}

// Seam 6: retention eviction inside the admission gate racing the
// other cross-thread entry points.  A driver thread steps a paged
// engine with retainPrefixes on and a pool tight enough that retained
// prefixes must be evicted before later turns can admit; a submitter
// thread chains multi-turn conversations through finishedSnapshot()
// (each follow-up re-submits prompt + reply, the retention hit path);
// cancellers retire a fixed subset of ids mid-flight; a poller watches
// the retention counters stay monotone and the pool accounting stay
// whole-block.  Which admissions hit a retained donor is timing-
// dependent, so the end-state assertions are structural: every
// conversation completes its turns, retention stored and (pressure-)
// evicted entries, and clearing the LRU leaves the pool empty.
TEST(RaceStress, RetentionEvictionRacesSubmitCancelSnapshot)
{
    auto config = models::bertBase();
    config.evalLayers = 2;
    config.evalDModel = 24;
    config.evalHeads = 4;
    config.evalDFf = 48;
    config.evalVocab = 64;
    eval::LmModel lm;
    lm.vocab = config.evalVocab;
    lm.backbone = models::makeBackbone(config, 777);
    lm.backbone.causal = true;
    lm.embedding = Tensor({lm.vocab, config.evalDModel});
    Rng erng(0x7777ULL);
    for (auto &v : lm.embedding.data())
        v = static_cast<float>(erng.gaussian());

    constexpr size_t kConversations = 5;
    constexpr size_t kTurns = 3;
    constexpr size_t kTotal = kConversations * kTurns;
    constexpr size_t kMaxNew = 4;

    serve::ServeConfig cfg;
    cfg.maxBatchTokens = 6;
    cfg.maxActiveRequests = 2;
    cfg.blockRows = 4;
    cfg.retainPrefixes = true;
    // Tight pool: far below the ~4 blocks each retiring turn retains
    // times kTotal retirements, but above the worst single admission
    // (final-turn prompt <= 16, rows <= 19, 5 blocks x 2 layers), so
    // the gate must evict retained entries yet never deadlocks.
    cfg.poolBlocks = 16;
    serve::ServeEngine eng(lm, cfg);

    // Turn-0 prompts submitted before any thread starts; the id ->
    // conversation map is owned by the submitter thread afterwards.
    Rng rng(31337);
    std::map<u64, size_t> conversationOf;
    std::map<size_t, size_t> turnsDone;
    for (size_t c = 0; c < kConversations; ++c) {
        std::vector<int> p(4 + rng.uniformInt(3));
        for (auto &tok : p)
            tok = static_cast<int>(rng.uniformInt(lm.vocab));
        conversationOf[eng.submit(p, kMaxNew)] = c;
    }

    std::atomic<bool> done{false};
    std::thread driver([&] {
        while (eng.finishedCount() < kTotal) {
            if (!eng.step())
                std::this_thread::yield();
        }
    });
    std::thread submitter([&] {
        size_t from = 0;
        size_t seen = 0;
        Rng srng(0x515ULL);
        while (seen < kTotal) {
            const auto batch = eng.finishedSnapshot(from);
            if (batch.empty()) {
                std::this_thread::yield();
                continue;
            }
            from += batch.size();
            seen += batch.size();
            for (const auto &f : batch) {
                const size_t c = conversationOf.at(f.id);
                const size_t turn = ++turnsDone[c];
                if (turn >= kTurns)
                    continue;
                // Next turn: prior prompt + reply + one fresh token.
                std::vector<int> p = f.prompt;
                p.insert(p.end(), f.generated.begin(),
                         f.generated.end());
                p.push_back(static_cast<int>(
                    srng.uniformInt(lm.vocab)));
                conversationOf[eng.submit(p, kMaxNew)] = c;
            }
        }
    });
    std::vector<std::thread> hammers;
    for (size_t t = 0; t < 2; ++t) {
        hammers.emplace_back([&, t] { // cancellers: ids 5, 10, 15 only
            Rng crng(900 + t);
            while (!done.load(std::memory_order_relaxed)) {
                const u64 id = 5 * (1 + crng.uniformInt(kTotal / 5));
                (void)eng.cancel(id);
                std::this_thread::yield();
            }
        });
    }
    hammers.emplace_back([&] { // retention/pool snapshot poller
        u64 last_stored = 0;
        u64 last_evicted = 0;
        while (!done.load(std::memory_order_relaxed)) {
            const serve::ServeMetrics m = eng.metricsSnapshot();
            ASSERT_GE(m.retentionStored, last_stored);
            ASSERT_GE(m.retentionEvictions, last_evicted);
            last_stored = m.retentionStored;
            last_evicted = m.retentionEvictions;
            ASSERT_LE(m.retainedBlocks, cfg.poolBlocks);
            // Separate locked call; values may move between the two,
            // so exercise it without cross-snapshot comparison.
            (void)eng.retainedBlockCount();
            ASSERT_EQ(eng.blockPool()->retainedBytes() %
                          eng.blockPool()->blockBytes(),
                      0u);
            eng.blockPool()->checkInvariants();
            std::this_thread::yield();
        }
    });
    driver.join();
    submitter.join();
    done.store(true, std::memory_order_relaxed);
    for (auto &th : hammers)
        th.join();

    // Every conversation ran its full turn budget, cancelled or not.
    EXPECT_EQ(eng.finishedCount(), kTotal);
    EXPECT_EQ(eng.pendingCount() + eng.activeCount(), 0u);
    for (const auto &[c, turns] : turnsDone)
        EXPECT_EQ(turns, kTurns) << "conversation " << c;
    for (const auto &f : eng.finished())
        for (const int tok : f.generated) {
            EXPECT_GE(tok, 0);
            EXPECT_LT(tok, static_cast<int>(lm.vocab));
        }

    // Retention did real work under pressure: uncancelled turns store
    // >= 4 blocks each, so the cumulative footprint exceeds the pool
    // many times over and the gate must have evicted.
    const serve::ServeMetrics m = eng.metricsSnapshot();
    EXPECT_GT(m.retentionStored, 0u);
    EXPECT_GT(m.retentionEvictions, 0u);

    // At rest every live block is a retained block, and clearing the
    // LRU drains the pool completely.
    ASSERT_NE(eng.blockPool(), nullptr);
    EXPECT_EQ(eng.blockPool()->blocksInUse(),
              eng.blockPool()->retainedBlocks());
    eng.blockPool()->checkInvariants();
    eng.clearRetainedPrefixes();
    EXPECT_EQ(eng.retainedBlockCount(), 0u);
    EXPECT_EQ(eng.blockPool()->blocksInUse(), 0u);
    EXPECT_EQ(eng.blockPool()->retainedBlocks(), 0u);
}

// Seam 7: multi-row requests run at the top level of step(), so the
// pool workers encode KV rows into the sharer's exclusive tail blocks
// and read the donor's shared prefix blocks (block table, decoded-block
// cache) while the poller takes the engine, pool and cache locks.
TEST(RaceStress, SharedPrefixPrefillChunkRacesSnapshotAccessors)
{
    auto config = models::bertBase();
    config.evalLayers = 2;
    config.evalDModel = 24;
    config.evalHeads = 4;
    config.evalDFf = 48;
    config.evalVocab = 64;
    eval::LmModel lm;
    lm.vocab = config.evalVocab;
    lm.backbone = models::makeBackbone(config, 4321);
    lm.backbone.causal = true;
    lm.embedding = Tensor({lm.vocab, config.evalDModel});
    Rng erng(0x4321ULL);
    for (auto &v : lm.embedding.data())
        v = static_cast<float>(erng.gaussian());

    serve::ServeConfig cfg;
    cfg.cacheFormat = serve::KvCacheFormat::Olive4;
    cfg.maxBatchTokens = 16;
    cfg.prefillChunk = 8;
    cfg.blockRows = 4;
    constexpr size_t kMaxNew = 4;

    Rng rng(77);
    std::vector<int> donor(24);
    for (auto &tok : donor)
        tok = static_cast<int>(rng.uniformInt(lm.vocab));
    std::vector<std::vector<int>> sharers(3, donor);
    for (auto &p : sharers)
        for (size_t i = 0; i < 12; ++i)
            p.push_back(static_cast<int>(rng.uniformInt(lm.vocab)));

    // The donor prefills alone; the sharers arrive while it decodes.
    const auto run = [&](serve::ServeEngine &eng) {
        eng.submit(donor, 16);
        while (eng.metricsSnapshot().tokensGenerated == 0)
            eng.step();
        for (const auto &p : sharers)
            eng.submit(p, kMaxNew);
    };
    serve::ServeEngine ref(lm, cfg);
    run(ref);
    ref.runToCompletion();

    serve::ServeEngine eng(lm, cfg);
    run(eng);
    std::atomic<bool> done{false};
    std::thread poller([&] {
        u64 last_steps = 0;
        while (!done.load(std::memory_order_relaxed)) {
            const serve::ServeMetrics m = eng.metricsSnapshot();
            ASSERT_GE(m.steps, last_steps);
            last_steps = m.steps;
            for (u64 id : eng.activeIds())
                (void)eng.activeState(id); // lookup only; no deref
            (void)eng.pendingIds();
            ASSERT_EQ(eng.blockPool()->bytesInUse() %
                          eng.blockPool()->blockBytes(),
                      0u);
            eng.blockPool()->checkInvariants();
            eng.decodedCache()->checkInvariants();
            std::this_thread::yield();
        }
    });
    eng.runToCompletion();
    done.store(true, std::memory_order_relaxed);
    poller.join();

    ASSERT_EQ(eng.finishedCount(), 1 + sharers.size());
    ASSERT_EQ(ref.finished().size(), 1 + sharers.size());
    for (size_t i = 0; i < eng.finished().size(); ++i) {
        EXPECT_EQ(eng.finished()[i].id, ref.finished()[i].id);
        EXPECT_EQ(eng.finished()[i].generated, ref.finished()[i].generated);
    }
    // The sharers really skipped the donor's full blocks.
    EXPECT_GE(eng.metricsSnapshot().sharedPrefillRowsSkipped,
              sharers.size() * 20);
    eng.blockPool()->checkInvariants();
    EXPECT_EQ(eng.blockPool()->blocksInUse(), 0u);
}

} // namespace
} // namespace olive
