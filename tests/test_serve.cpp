/**
 * @file
 * Tests of the serving subsystem: KV-cache codecs (round trips, byte
 * accounting, compression), the continuous-batching engine (greedy
 * generation against a full-forward reference, scheduling invariance,
 * budget bookkeeping), the cache-quantization eval hook, and the
 * ServeDeterminism.* suite the ctest "serve" legs pin at
 * OLIVE_THREADS=1 and =8.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "baselines/uniform.hpp"
#include "serve/block_pool.hpp"
#include "eval/perplexity.hpp"
#include "models/config.hpp"
#include "models/synthetic.hpp"
#include "serve/cache_eval.hpp"
#include "serve/engine.hpp"
#include "serve/kv_cache.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace olive {
namespace {

bool
bitIdentical(std::span<const float> a, std::span<const float> b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float>
outlierRow(size_t n, u64 seed)
{
    Rng rng(seed);
    std::vector<float> xs(n);
    for (auto &v : xs)
        v = static_cast<float>(rng.heavyTail(0.01, 3.5, 60.0));
    return xs;
}

/** Restores the ambient pool size when a test returns. */
struct ThreadCountGuard
{
    ~ThreadCountGuard() { par::setThreadCount(0); }
};

eval::LmModel
tinyLm(u64 seed = 1234)
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

std::vector<std::vector<int>>
randomPrompts(size_t n, size_t max_len, size_t vocab, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<int>> prompts(n);
    for (auto &p : prompts) {
        p.resize(1 + rng.uniformInt(max_len));
        for (auto &t : p)
            t = static_cast<int>(rng.uniformInt(vocab));
    }
    return prompts;
}

/** Per-request streams keyed by id: finish ORDER may legitimately vary
 * with scheduling (speculation finishes requests in fewer steps), the
 * streams themselves never may. */
std::map<u64, std::vector<int>>
serveWorkloadById(const eval::LmModel &lm, serve::ServeConfig cfg,
                  const std::vector<std::vector<int>> &prompts,
                  size_t max_new,
                  serve::ServeMetrics *metrics_out = nullptr)
{
    serve::ServeEngine engine(lm, cfg);
    for (const auto &p : prompts)
        engine.submit(p, max_new);
    engine.runToCompletion(100000);
    std::map<u64, std::vector<int>> out;
    for (const serve::FinishedRequest &f : engine.finished())
        out[f.id] = f.generated;
    if (metrics_out)
        *metrics_out = engine.metrics();
    return out;
}

/** Concatenated (id, generated...) streams, the determinism fingerprint. */
std::vector<int>
serveWorkload(const eval::LmModel &lm, serve::ServeConfig cfg,
              const std::vector<std::vector<int>> &prompts, size_t max_new,
              serve::ServeMetrics *metrics_out = nullptr)
{
    serve::ServeEngine engine(lm, cfg);
    for (const auto &p : prompts)
        engine.submit(p, max_new);
    engine.runToCompletion(100000);
    std::vector<int> out;
    for (const serve::FinishedRequest &f : engine.finished()) {
        out.push_back(static_cast<int>(f.id));
        out.insert(out.end(), f.generated.begin(), f.generated.end());
    }
    if (metrics_out)
        *metrics_out = engine.metrics();
    return out;
}

// -------------------------------------------------------- kv codecs

TEST(KvScheme, Fp32RoundTripIsBitExact)
{
    const serve::Fp32KvScheme s;
    EXPECT_TRUE(s.lossless());
    const auto row = outlierRow(96, 1);
    std::vector<u8> bytes;
    serve::KvRowMeta meta;
    s.encodeRow(row, bytes, meta);
    EXPECT_EQ(bytes.size(), s.rowBytes(row.size()));
    std::vector<float> back(row.size());
    s.decodeRow(bytes, meta, back);
    EXPECT_TRUE(bitIdentical(row, back));
}

TEST(KvScheme, OvpRowMatchesCodecFakeQuant)
{
    // The cache's encode/decode must be exactly the OliVe PTQ round
    // trip for the row: per-row calibration + OvpCodec packing.
    for (int bits : {4, 8}) {
        const serve::OvpKvScheme s(bits);
        const OliveQuantizer quantizer(OliveConfig{.bits = bits});
        for (u64 seed : {2u, 3u, 4u}) {
            const auto row = outlierRow(96, seed);
            std::vector<u8> bytes;
            serve::KvRowMeta meta;
            s.encodeRow(row, bytes, meta);
            ASSERT_EQ(bytes.size(), s.rowBytes(row.size()));
            std::vector<float> back(row.size());
            s.decodeRow(bytes, meta, back);
            const auto ref = quantizer.fakeQuant(row);
            EXPECT_TRUE(bitIdentical(ref, back)) << bits << ":" << seed;
        }
    }
}

TEST(KvScheme, OvpAllZeroRowDecodesToZeros)
{
    const serve::OvpKvScheme s(4);
    const std::vector<float> row(32, 0.0f);
    std::vector<u8> bytes;
    serve::KvRowMeta meta;
    s.encodeRow(row, bytes, meta);
    EXPECT_EQ(meta.scale, 0.0f);
    std::vector<float> back(row.size(), 1.0f);
    s.decodeRow(bytes, meta, back);
    for (float v : back)
        EXPECT_EQ(v, 0.0f);
}

TEST(KvScheme, OvpDecodeIsThresholdIndependent)
{
    // The accounting claim behind metaBytesPerRow() == 5: the decoder
    // needs only (scale, normal type) — the threshold shapes pair
    // classification at encode time and can be discarded afterwards.
    const serve::OvpKvScheme s(4);
    const auto row = outlierRow(96, 21);
    std::vector<u8> bytes;
    serve::KvRowMeta meta;
    s.encodeRow(row, bytes, meta);
    std::vector<float> back(row.size()), back2(row.size());
    s.decodeRow(bytes, meta, back);
    serve::KvRowMeta forged = meta;
    forged.threshold = meta.threshold * 1000.0 + 1.0;
    s.decodeRow(bytes, forged, back2);
    EXPECT_TRUE(bitIdentical(back, back2));
}

TEST(KvScheme, Int8RowMatchesUniformFakeQuant)
{
    const serve::Int8KvScheme s;
    const auto row = outlierRow(96, 5);
    std::vector<u8> bytes;
    serve::KvRowMeta meta;
    s.encodeRow(row, bytes, meta);
    ASSERT_EQ(bytes.size(), row.size());
    std::vector<float> back(row.size());
    s.decodeRow(bytes, meta, back);
    const float scale = searchUniformScale(row, 127);
    EXPECT_EQ(meta.scale, scale);
    const auto ref = uniformFakeQuant(row, scale, 127);
    // Integer codes cannot carry the sign of zero, so a -0.0f in the
    // fake-quant reference decodes as +0.0f; values are otherwise
    // reproduced bit for bit.
    ASSERT_EQ(ref.size(), back.size());
    for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i], back[i]) << i; // arithmetic: -0 == +0
        if (ref[i] != 0.0f) {
            EXPECT_TRUE(bitIdentical({&ref[i], 1}, {&back[i], 1})) << i;
        }
    }
}

TEST(KvScheme, OvpDecodeCodecCacheIsBitIdentical)
{
    // decodeRow amortizes OvpCodec construction across rows and steps
    // sharing a (normal type, scale); the cached codec must decode
    // exactly like a codec freshly constructed from the row's meta.
    for (int bits : {4, 8}) {
        const serve::OvpKvScheme s(bits);
        for (u64 seed : {31u, 32u, 33u}) {
            const auto row = outlierRow(96, seed);
            std::vector<u8> bytes;
            serve::KvRowMeta meta;
            s.encodeRow(row, bytes, meta);
            std::vector<float> cached(row.size());
            s.decodeRow(bytes, meta, cached);
            const OvpCodec fresh(meta.normal, meta.scale, meta.threshold);
            const std::vector<float> ref = fresh.decode(bytes, row.size());
            EXPECT_TRUE(bitIdentical(cached, ref)) << bits << ":" << seed;
            // The second decode is a guaranteed cache hit — and must
            // still be byte-for-byte the fresh-codec result.
            std::vector<float> again(row.size());
            s.decodeRow(bytes, meta, again);
            EXPECT_TRUE(bitIdentical(cached, again)) << bits << ":" << seed;
        }
    }
}

TEST(KvCache, ByteAccountingAndCompression)
{
    const size_t d = 96, rows = 16;
    const serve::Fp32KvScheme fp32;
    const serve::OvpKvScheme olive4(4);
    serve::KvCacheReference cache_fp32(fp32, d);
    serve::KvCacheReference cache_ovp(olive4, d);
    for (size_t i = 0; i < rows; ++i) {
        const auto k = outlierRow(d, 100 + i);
        const auto v = outlierRow(d, 200 + i);
        cache_fp32.append(k, v);
        cache_ovp.append(k, v);
    }
    EXPECT_EQ(cache_fp32.length(), rows);
    EXPECT_EQ(cache_fp32.fp32Bytes(), 2 * rows * d * sizeof(float));
    EXPECT_EQ(cache_fp32.encodedBytes(), cache_fp32.fp32Bytes());
    EXPECT_EQ(cache_ovp.encodedBytes(),
              2 * rows * (olive4.rowBytes(d) + olive4.metaBytesPerRow()));
    // The acceptance bar: OVP-4 cache <= 0.25x of fp32 bytes.
    EXPECT_LE(static_cast<double>(cache_ovp.encodedBytes()),
              0.25 * static_cast<double>(cache_ovp.fp32Bytes()));

    // Decoded shapes and fp32 exactness.
    Tensor k_dec({rows, d}), v_dec({rows, d});
    cache_fp32.decodeK(k_dec);
    cache_fp32.decodeV(v_dec);
    const auto k0 = outlierRow(d, 100);
    EXPECT_TRUE(bitIdentical(k_dec.row(0), k0));
}

TEST(KvCache, FormatFactoryAndParse)
{
    for (const std::string &id : serve::kvCacheFormatIds()) {
        const auto scheme =
            serve::makeKvScheme(serve::parseKvCacheFormat(id));
        EXPECT_FALSE(scheme->name().empty());
    }
    EXPECT_EQ(serve::makeKvScheme(serve::KvCacheFormat::Olive4)->name(),
              "kv-olive4");
}

// ------------------------------------------------------ paged cache

TEST(PagedKvCache, DecodesBitIdenticalToReferenceLayout)
{
    // The same appended rows must decode to the same floats whether
    // they live in one contiguous stream or scattered across blocks —
    // the per-row codec bytes are independent of placement.
    const size_t d = 96, rows = 8;
    const serve::Fp32KvScheme fp32;
    const serve::OvpKvScheme olive4(4);
    const serve::Int8KvScheme int8;
    for (const serve::KvScheme *s :
         {static_cast<const serve::KvScheme *>(&fp32),
          static_cast<const serve::KvScheme *>(&olive4),
          static_cast<const serve::KvScheme *>(&int8)}) {
        serve::BlockPool pool(*s, d, 3); // 8 rows -> 3 blocks, 1 partial
        serve::PagedKvCache paged(pool);
        serve::KvCacheReference ref(*s, d);
        for (size_t i = 0; i < rows; ++i) {
            const auto k = outlierRow(d, 300 + i);
            const auto v = outlierRow(d, 400 + i);
            paged.append(k, v);
            ref.append(k, v);
        }
        EXPECT_EQ(paged.length(), rows);
        EXPECT_EQ(paged.blockCount(), 3u);
        EXPECT_EQ(paged.encodedBytes(), 3 * pool.blockBytes());
        Tensor pk({rows, d}), rk({rows, d}), pv({rows, d}), rv({rows, d});
        paged.decodeK(pk);
        ref.decodeK(rk);
        paged.decodeV(pv);
        ref.decodeV(rv);
        EXPECT_TRUE(bitIdentical(pk.data(), rk.data())) << s->name();
        EXPECT_TRUE(bitIdentical(pv.data(), rv.data())) << s->name();
        pool.checkInvariants();
    }
}

TEST(PagedKvCache, ShareFromRefcountsFullBlocksAndCopiesThePartial)
{
    const size_t d = 16, B = 4;
    const serve::Fp32KvScheme fp32;
    serve::BlockPool pool(fp32, d, B);
    auto donor = std::make_unique<serve::PagedKvCache>(pool);
    for (size_t i = 0; i < 10; ++i)
        donor->append(outlierRow(d, 500 + i), outlierRow(d, 600 + i));
    ASSERT_EQ(donor->blockCount(), 3u); // 4 + 4 + 2 rows

    serve::PagedKvCache sharer(pool);
    sharer.shareFrom(*donor, 9); // 2 full blocks + 1 CoW row
    EXPECT_EQ(sharer.length(), 9u);
    EXPECT_EQ(sharer.blockCount(), 3u);
    // Full prefix blocks are the donor's own, refcounted — no copy.
    EXPECT_EQ(sharer.blockId(0), donor->blockId(0));
    EXPECT_EQ(sharer.blockId(1), donor->blockId(1));
    EXPECT_EQ(pool.refcount(donor->blockId(0)), 2);
    EXPECT_EQ(pool.refcount(donor->blockId(1)), 2);
    // The partial boundary block is copy-on-write: a fresh block with
    // exactly the shared row copied into it.
    EXPECT_NE(sharer.blockId(2), donor->blockId(2));
    EXPECT_EQ(pool.refcount(sharer.blockId(2)), 1);
    EXPECT_EQ(pool.payloadCopyRows(), 1u);
    EXPECT_EQ(pool.sharedSavedBytes(), 2 * pool.blockBytes());

    // Shared rows decode bit-identical to the donor's prefix; the
    // sharer can append divergent rows without touching the donor.
    sharer.append(outlierRow(d, 700), outlierRow(d, 701));
    Tensor sk({10, d}), dk({10, d});
    sharer.decodeK(sk);
    donor->decodeK(dk);
    for (size_t i = 0; i < 9; ++i)
        EXPECT_TRUE(bitIdentical(sk.row(i), dk.row(i))) << i;
    EXPECT_FALSE(bitIdentical(sk.row(9), dk.row(9))); // diverged

    // Donor eviction releases its references; shared blocks survive
    // for the sharer, then die with it.
    donor.reset();
    EXPECT_EQ(pool.refcount(sharer.blockId(0)), 1);
    EXPECT_EQ(pool.sharedSavedBytes(), 0u);
    pool.checkInvariants();
}

// ----------------------------------------------------------- engine

TEST(ServeEngine, GreedyMatchesFullForwardReference)
{
    // With the FP32 cache, the engine's incremental greedy decode must
    // reproduce the naive full-recompute reference token for token.
    const eval::LmModel lm = tinyLm();
    std::vector<int> prompt = {5, 17, 3, 40, 22};
    const size_t max_new = 6;

    std::vector<int> ref_seq = prompt;
    std::vector<int> ref_generated;
    for (size_t i = 0; i < max_new; ++i) {
        const Tensor lg = lm.logits(ref_seq);
        const int tok = ops::argmaxRow(lg.row(lg.dim(0) - 1));
        ref_generated.push_back(tok);
        ref_seq.push_back(tok);
    }

    serve::ServeConfig cfg;
    cfg.cacheFormat = serve::KvCacheFormat::Fp32;
    serve::ServeEngine engine(lm, cfg);
    engine.submit(prompt, max_new);
    engine.runToCompletion(1000);
    ASSERT_EQ(engine.finished().size(), 1u);
    EXPECT_EQ(engine.finished()[0].generated, ref_generated);
}

TEST(ServeEngine, OutputsInvariantToSchedulingConfig)
{
    // Token outputs depend only on the model and the request — not on
    // batch width or the per-step token budget.
    const eval::LmModel lm = tinyLm(77);
    const auto prompts = randomPrompts(5, 9, lm.vocab, 8);
    const size_t max_new = 5;

    serve::ServeConfig wide;
    wide.maxBatchTokens = 64;
    wide.maxActiveRequests = 8;
    serve::ServeConfig narrow;
    narrow.maxBatchTokens = 2;
    narrow.maxActiveRequests = 2;
    serve::ServeConfig mid;
    mid.maxBatchTokens = 3;
    mid.maxActiveRequests = 3;

    // Finish ORDER legitimately depends on scheduling (a narrow batch
    // finishes early arrivals sooner), so compare per-request streams.
    const auto by_id = [&](serve::ServeConfig cfg) {
        serve::ServeEngine engine(lm, cfg);
        for (const auto &p : prompts)
            engine.submit(p, max_new);
        engine.runToCompletion(100000);
        std::map<u64, std::vector<int>> out;
        for (const serve::FinishedRequest &f : engine.finished())
            out[f.id] = f.generated;
        return out;
    };
    const auto a = by_id(wide);
    EXPECT_EQ(a, by_id(narrow));
    EXPECT_EQ(a, by_id(mid));
}

TEST(ServeEngine, ContinuousBatchingBookkeeping)
{
    const eval::LmModel lm = tinyLm(99);
    const auto prompts = randomPrompts(6, 7, lm.vocab, 9);
    const size_t max_new = 4;

    serve::ServeConfig cfg;
    cfg.maxBatchTokens = 4;
    cfg.maxActiveRequests = 2; // forces queueing + admission waves
    serve::ServeEngine engine(lm, cfg);
    size_t total_prompt = 0;
    for (const auto &p : prompts) {
        engine.submit(p, max_new);
        total_prompt += p.size();
    }
    EXPECT_EQ(engine.pendingCount(), prompts.size());
    engine.runToCompletion(100000);
    EXPECT_EQ(engine.pendingCount(), 0u);
    EXPECT_EQ(engine.activeCount(), 0u);
    ASSERT_EQ(engine.finished().size(), prompts.size());

    const serve::ServeMetrics &m = engine.metrics();
    EXPECT_EQ(m.tokensProcessed,
              total_prompt + prompts.size() * (max_new - 1));
    EXPECT_EQ(m.tokensGenerated, prompts.size() * max_new);
    EXPECT_EQ(m.stepSeconds.size(), m.steps);
    EXPECT_GT(m.peakEncodedCacheBytes, 0u);

    for (const serve::FinishedRequest &f : engine.finished()) {
        EXPECT_EQ(f.generated.size(), max_new);
        EXPECT_GE(f.firstTokenStep, f.admitStep);
        EXPECT_GE(f.finishStep, f.firstTokenStep);
        EXPECT_GT(f.cacheEncodedBytes, 0u);
        EXPECT_EQ(f.cacheFp32Bytes,
                  2 * (f.prompt.size() + max_new - 1) *
                      lm.backbone.dModel * sizeof(float) *
                      lm.backbone.layers.size());
        EXPECT_LE(f.cacheEncodedBytes, m.peakEncodedCacheBytes);
    }
}

TEST(ServeEngine, QuantizedCacheServesAndCompresses)
{
    const eval::LmModel lm = tinyLm(55);
    const auto prompts = randomPrompts(3, 6, lm.vocab, 10);
    serve::ServeConfig cfg;
    cfg.cacheFormat = serve::KvCacheFormat::Olive4;
    serve::ServeMetrics m;
    const auto tokens = serveWorkload(lm, cfg, prompts, 4, &m);
    EXPECT_FALSE(tokens.empty());
    for (int t : tokens)
        EXPECT_TRUE(t >= 0 && static_cast<size_t>(t) < lm.vocab);
    EXPECT_LE(static_cast<double>(m.peakEncodedCacheBytes),
              0.25 * static_cast<double>(m.peakFp32CacheBytes));
}

TEST(ServeEngine, StopTokensEndGenerationEarly)
{
    // Find what the model would greedily generate, then make its
    // second token a stop token: generation must end there (inclusive)
    // instead of running to the budget — identically in the paged and
    // contiguous engines, so data-dependent lengths do not perturb the
    // storage layer.
    const eval::LmModel lm = tinyLm(42);
    const std::vector<int> prompt = {7, 21, 3};
    const size_t max_new = 6;

    serve::ServeConfig plain;
    serve::ServeEngine probe(lm, plain);
    probe.submit(prompt, max_new);
    probe.runToCompletion(1000);
    const std::vector<int> full = probe.finished()[0].generated;
    ASSERT_EQ(full.size(), max_new);
    const int stop = full[1];

    for (bool paged : {true, false}) {
        serve::ServeConfig cfg;
        cfg.pagedCache = paged;
        serve::ServeEngine engine(lm, cfg);
        engine.submit(prompt, max_new, {stop});
        engine.runToCompletion(1000);
        ASSERT_EQ(engine.finished().size(), 1u);
        const serve::FinishedRequest &f = engine.finished()[0];
        EXPECT_TRUE(f.stoppedByToken) << paged;
        ASSERT_EQ(f.generated.size(), 2u) << paged;
        EXPECT_EQ(f.generated[0], full[0]);
        EXPECT_EQ(f.generated[1], stop);
    }
}

TEST(ServeEngine, StopTokenEvictionKeepsStreamsBitIdentical)
{
    // Data-dependent request lengths reshape eviction and admission
    // timing; the paged engine must still match the contiguous oracle
    // token for token.  Low-entropy stop sets make hits frequent.
    const eval::LmModel lm = tinyLm(43);
    const auto prompts = randomPrompts(6, 8, lm.vocab, 19);
    Rng rng(77);
    const auto by_id = [&](bool paged) {
        serve::ServeConfig cfg;
        cfg.pagedCache = paged;
        cfg.maxBatchTokens = 4;
        cfg.maxActiveRequests = 2;
        cfg.blockRows = 2;
        serve::ServeEngine engine(lm, cfg);
        Rng stops_rng(55);
        for (const auto &p : prompts) {
            std::vector<int> stops = {
                static_cast<int>(stops_rng.uniformInt(lm.vocab)),
                static_cast<int>(stops_rng.uniformInt(lm.vocab))};
            engine.submit(p, 6, stops);
        }
        engine.runToCompletion(100000);
        std::map<u64, std::vector<int>> out;
        size_t stopped = 0;
        for (const serve::FinishedRequest &f : engine.finished()) {
            out[f.id] = f.generated;
            stopped += f.stoppedByToken ? 1u : 0u;
        }
        EXPECT_GT(stopped, 0u); // the schedule is genuinely dynamic
        return out;
    };
    EXPECT_EQ(by_id(true), by_id(false));
}

TEST(ServeEngine, SharedPrefixShrinksPoolFootprint)
{
    // Requests sharing a long prompt prefix: with sharing on, later
    // requests reference the first request's prefix blocks instead of
    // re-caching them, so the pool's peak footprint drops strictly
    // below the unshared run while the token streams stay identical.
    const eval::LmModel lm = tinyLm(91);
    Rng rng(17);
    std::vector<int> prefix(16);
    for (auto &t : prefix)
        t = static_cast<int>(rng.uniformInt(lm.vocab));
    std::vector<std::vector<int>> prompts(5, prefix);
    for (auto &p : prompts) {
        p.push_back(static_cast<int>(rng.uniformInt(lm.vocab)));
        p.push_back(static_cast<int>(rng.uniformInt(lm.vocab)));
    }

    const auto run = [&](bool share, serve::ServeMetrics *m) {
        serve::ServeConfig cfg;
        cfg.prefixSharing = share;
        // Wide enough that every sharer overlaps the donor: a sharer
        // admitted only after its donor finished shares nothing (the
        // blocks died with the donor), which is correct but not what
        // this test wants to demonstrate.
        cfg.maxActiveRequests = prompts.size();
        cfg.maxBatchTokens = 8;
        serve::ServeEngine engine(lm, cfg);
        for (const auto &p : prompts)
            engine.submit(p, 4);
        engine.runToCompletion(100000);
        std::map<u64, std::vector<int>> out;
        size_t shared_reqs = 0;
        for (const serve::FinishedRequest &f : engine.finished()) {
            out[f.id] = f.generated;
            shared_reqs += f.sharedPrefixRows > 0 ? 1u : 0u;
        }
        if (share) {
            EXPECT_EQ(shared_reqs, prompts.size() - 1);
        }
        *m = engine.metrics();
        return out;
    };
    serve::ServeMetrics shared, unshared;
    const auto a = run(true, &shared);
    const auto b = run(false, &unshared);
    EXPECT_EQ(a, b); // sharing is invisible in the streams
    EXPECT_LT(shared.peakEncodedCacheBytes,
              unshared.peakEncodedCacheBytes);
    EXPECT_GT(shared.peakSharedSavedBytes, 0u);
    EXPECT_GT(shared.sharedPrefillRowsSkipped, 0u);
    // Admission/eviction copy nothing, ever; copy-on-write only.
    EXPECT_EQ(unshared.cowCopyRows, 0u);
    EXPECT_LE(shared.cowCopyRows,
              shared.sharedPrefillRowsSkipped);
}

TEST(ServeEngine, TinyPoolForcesAdmissionWavesButSameStreams)
{
    // A pool barely larger than one request's worst case serializes
    // admission through capacity waves; outputs must not change.
    const eval::LmModel lm = tinyLm(92);
    const auto prompts = randomPrompts(5, 7, lm.vocab, 23);
    const size_t max_new = 4;

    const auto run = [&](size_t pool_blocks) {
        serve::ServeConfig cfg;
        cfg.poolBlocks = pool_blocks;
        cfg.blockRows = 2;
        cfg.prefixSharing = false;
        serve::ServeEngine engine(lm, cfg);
        for (const auto &p : prompts)
            engine.submit(p, max_new);
        engine.runToCompletion(100000);
        std::map<u64, std::vector<int>> out;
        for (const serve::FinishedRequest &f : engine.finished())
            out[f.id] = f.generated;
        return out;
    };
    // Worst case for one request: ceil((7 + 4 - 1) / 2) * layers.
    const size_t w_max = ((7 + max_new - 1 + 1) / 2) *
                         lm.backbone.layers.size();
    const auto waves = run(w_max);
    EXPECT_EQ(waves, run(0));
}

TEST(ServeEngine, PerTokenActivationSchemeSupported)
{
    const eval::LmModel lm = tinyLm(60);
    OliveScheme olive8(8);
    serve::ServeConfig cfg;
    cfg.actScheme = &olive8;
    const auto prompts = randomPrompts(2, 5, lm.vocab, 11);
    const auto tokens = serveWorkload(lm, cfg, prompts, 3);
    EXPECT_EQ(tokens.size(), 2u * (1 + 3));
}

// ------------------------------------------- batched prefill + spec

TEST(ServeEngine, PrefillChunkIsTokenStreamInvisible)
{
    // The prefill chunk size is pure scheduling: 0 and 1 run the
    // token-by-token oracle loop, larger values the batched
    // forwardChunk path, and every setting must emit identical
    // streams.  TTFT bookkeeping rides along: one sample per request.
    const eval::LmModel lm = tinyLm(90);
    const auto prompts = randomPrompts(4, 9, lm.vocab, 16);
    serve::ServeConfig base;
    base.maxBatchTokens = 12;
    base.prefillChunk = 0;
    const auto oracle = serveWorkload(lm, base, prompts, 4);
    for (size_t chunk : {1u, 2u, 5u, 32u}) {
        serve::ServeConfig cfg = base;
        cfg.prefillChunk = chunk;
        serve::ServeMetrics m;
        EXPECT_EQ(serveWorkload(lm, cfg, prompts, 4, &m), oracle)
            << "prefillChunk=" << chunk;
        EXPECT_EQ(m.ttftSeconds.size(), prompts.size());
        EXPECT_GE(m.ttftMs(0.5), 0.0);
    }
}

TEST(ServeEngine, SpeculationIsTokenStreamInvisible)
{
    // A periodic prompt gives the n-gram proposer something to chew
    // on; whatever it drafts, the streams must match plain greedy
    // decode and the drafted/accepted counters must reconcile.
    const eval::LmModel lm = tinyLm(91);
    std::vector<std::vector<int>> prompts;
    for (int r = 0; r < 3; ++r) {
        std::vector<int> p;
        for (int i = 0; i < 12; ++i)
            p.push_back(10 + r * 3 + i % 3); // 3-periodic pattern
        prompts.push_back(std::move(p));
    }
    serve::ServeConfig plain;
    plain.maxBatchTokens = 16;
    const auto oracle = serveWorkloadById(lm, plain, prompts, 8);
    serve::ServeConfig spec = plain;
    spec.speculate = true;
    for (size_t draft : {1u, 3u, 4u}) {
        spec.draftLen = draft;
        serve::ServeMetrics m;
        EXPECT_EQ(serveWorkloadById(lm, spec, prompts, 8, &m), oracle)
            << "draftLen=" << draft;
        EXPECT_GT(m.specDrafted, 0u) << draft;
        EXPECT_GE(m.specDrafted, m.specAccepted);
        EXPECT_EQ(m.specAcceptRate(),
                  static_cast<double>(m.specAccepted) /
                      static_cast<double>(m.specDrafted));
    }
}

TEST(ServeEngine, ExternalProposerIsUsedVerbatim)
{
    // A deliberately terrible proposer (always drafts token 0) may
    // slow decoding down but can never change a stream — the verify
    // step only accepts what greedy would have produced anyway.
    struct ZeroProposer final : serve::Proposer
    {
        std::string name() const override { return "zero"; }
        std::vector<int> propose(std::span<const int>,
                                 size_t max_draft) const override
        {
            return std::vector<int>(max_draft, 0);
        }
    };
    const eval::LmModel lm = tinyLm(92);
    const auto prompts = randomPrompts(3, 7, lm.vocab, 17);
    serve::ServeConfig plain;
    plain.maxBatchTokens = 10;
    const auto oracle = serveWorkloadById(lm, plain, prompts, 5);
    ZeroProposer zero;
    serve::ServeConfig spec = plain;
    spec.speculate = true;
    spec.draftLen = 2;
    spec.proposer = &zero;
    serve::ServeMetrics m;
    EXPECT_EQ(serveWorkloadById(lm, spec, prompts, 5, &m), oracle);
    EXPECT_GT(m.specDrafted, 0u);
}

TEST(ServeEngineDeathTest, SpeculateRequiresPositiveDraftLen)
{
    const eval::LmModel lm = tinyLm(93);
    serve::ServeConfig cfg;
    cfg.speculate = true;
    cfg.draftLen = 0;
    EXPECT_DEATH(serve::ServeEngine(lm, cfg), "draftLen >= 1");
}

// ---------------------------------------------------------- proposer

TEST(NgramProposer, DraftsTheLoopContinuation)
{
    const serve::NgramProposer p;
    // Suffix [2,3,1,2] recurs at the start; the tokens after that
    // occurrence are the draft.
    const std::vector<int> h = {1, 2, 3, 1, 2, 3, 1, 2};
    EXPECT_EQ(p.propose(h, 4), (std::vector<int>{3, 1, 2}));
    EXPECT_EQ(p.propose(h, 2), (std::vector<int>{3, 1}));
}

TEST(NgramProposer, MostRecentOccurrenceWins)
{
    const serve::NgramProposer p;
    // [1,2] occurs twice before the suffix; the later one (followed
    // by 9) is the loop the stream is most plausibly in.
    const std::vector<int> h = {7, 1, 2, 5, 1, 2, 9, 1, 2};
    EXPECT_EQ(p.propose(h, 3), (std::vector<int>{9, 1, 2}));
    EXPECT_EQ(p.propose(h, 1), (std::vector<int>{9}));
}

TEST(NgramProposer, NoMatchNoShortHistoryNoZeroBudget)
{
    const serve::NgramProposer p;
    EXPECT_TRUE(p.propose(std::vector<int>{1, 2, 3, 4, 5}, 4).empty());
    EXPECT_TRUE(p.propose(std::vector<int>{}, 4).empty());
    EXPECT_TRUE(p.propose(std::vector<int>{3}, 4).empty());
    EXPECT_TRUE(p.propose(std::vector<int>{1, 2, 1, 2}, 0).empty());
}

TEST(NgramProposer, FactoryAndWindowValidation)
{
    const auto p = serve::makeProposer("ngram");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), "ngram");
    EXPECT_DEATH((void)serve::makeProposer("bogus"), "unknown proposer");
    EXPECT_DEATH(serve::NgramProposer(0), "1 <= min <= max");
    EXPECT_DEATH(serve::NgramProposer(2, 3), "1 <= min <= max");
}

// -------------------------------------------------------- eval hook

TEST(CacheImpact, Fp32IsExactAndMatchesPerplexityEval)
{
    const eval::LmModel lm = tinyLm(70);
    Rng rng(12);
    const eval::TokenData text = eval::sampleText(lm, 2, 8, rng);
    const serve::Fp32KvScheme fp32;
    const serve::CacheImpact impact = serve::cacheImpact(lm, text, fp32);
    EXPECT_EQ(impact.hiddenMse, 0.0);
    EXPECT_EQ(impact.logitMse, 0.0);
    EXPECT_DOUBLE_EQ(impact.perplexity, eval::perplexity(lm, text));
    EXPECT_EQ(impact.encodedBytes, impact.fp32Bytes);
}

TEST(CacheImpact, QuantizedCacheTradesExactnessForBytes)
{
    const eval::LmModel lm = tinyLm(71);
    Rng rng(13);
    const eval::TokenData text = eval::sampleText(lm, 2, 8, rng);
    const serve::OvpKvScheme olive4(4);
    const serve::Int8KvScheme int8;
    const auto i4 = serve::cacheImpact(lm, text, olive4);
    const auto i8 = serve::cacheImpact(lm, text, int8);
    for (const serve::CacheImpact *c : {&i4, &i8}) {
        EXPECT_GT(c->hiddenMse, 0.0);
        EXPECT_TRUE(std::isfinite(c->perplexity));
        EXPECT_GE(c->perplexity, 1.0);
        EXPECT_LT(c->compression(), 0.5);
    }
    EXPECT_LE(i4.compression(), 0.25);
}

// ----------------------------------------------------- determinism

TEST(ServeDeterminism, TokenStreamsBitIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const eval::LmModel lm = tinyLm(80);
    const auto prompts = randomPrompts(4, 8, lm.vocab, 14);
    for (serve::KvCacheFormat fmt :
         {serve::KvCacheFormat::Fp32, serve::KvCacheFormat::Olive4}) {
        serve::ServeConfig cfg;
        cfg.cacheFormat = fmt;
        cfg.maxBatchTokens = 6;
        cfg.maxActiveRequests = 3;

        par::setThreadCount(1);
        serve::ServeMetrics m1;
        const auto serial = serveWorkload(lm, cfg, prompts, 5, &m1);
        // 0 = the ambient OLIVE_THREADS default, so the ctest "serve"
        // legs (OLIVE_THREADS=1 and =8) exercise both pool shapes.
        for (size_t threads : {2u, 0u}) {
            par::setThreadCount(threads);
            serve::ServeMetrics m2;
            EXPECT_EQ(serveWorkload(lm, cfg, prompts, 5, &m2), serial)
                << threads;
            EXPECT_EQ(m1.tokensProcessed, m2.tokensProcessed);
            EXPECT_EQ(m1.peakEncodedCacheBytes, m2.peakEncodedCacheBytes);
        }
    }
}

TEST(ServeDeterminism, DecodeStepBitIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const eval::LmModel lm = tinyLm(81);
    const serve::OvpKvScheme olive4(4);
    Rng rng(15);
    Tensor x({1, lm.backbone.dModel});

    par::setThreadCount(1);
    serve::DecodeState s1 = serve::makeDecodeState(lm.backbone, olive4);
    std::vector<Tensor> ref;
    std::vector<Tensor> inputs;
    for (size_t t = 0; t < 6; ++t) {
        for (auto &v : x.data())
            v = static_cast<float>(rng.gaussian());
        inputs.push_back(x.clone());
        ref.push_back(lm.backbone.forwardStep(x, s1));
    }
    for (size_t threads : {2u, 0u}) {
        par::setThreadCount(threads);
        serve::DecodeState s2 = serve::makeDecodeState(lm.backbone, olive4);
        for (size_t t = 0; t < 6; ++t) {
            const Tensor h = lm.backbone.forwardStep(inputs[t], s2);
            EXPECT_TRUE(bitIdentical(h.data(), ref[t].data()))
                << threads << ":" << t;
        }
    }
}

/** Greedy continuation by full-sequence recompute: the forward() oracle. */
std::vector<int>
forwardGreedy(const eval::LmModel &lm, std::vector<int> seq, size_t max_new)
{
    std::vector<int> out;
    for (size_t i = 0; i < max_new; ++i) {
        const Tensor lg = lm.logits(seq);
        out.push_back(ops::argmaxRow(lg.row(lg.dim(0) - 1)));
        seq.push_back(out.back());
    }
    return out;
}

/**
 * The token-by-token, contiguous-cache oracle at one thread: every row
 * goes through forwardStep, so no multi-row request ever reaches the
 * engine's second phase.
 */
std::map<u64, std::vector<int>>
stepwiseOracle(const eval::LmModel &lm, serve::KvCacheFormat fmt,
               const std::vector<std::vector<int>> &prompts, size_t max_new)
{
    par::setThreadCount(1);
    serve::ServeConfig cfg;
    cfg.cacheFormat = fmt;
    cfg.pagedCache = false;
    cfg.prefillChunk = 1;
    return serveWorkloadById(lm, cfg, prompts, max_new);
}

// A lone long prompt: its prefill chunks are the only multi-row work of
// their steps, so they run at the top level of step() and their KV
// encode and chunk attention fan out over the whole pool.
TEST(ServeDeterminism, LoneLongPromptChunkBitIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const eval::LmModel lm = tinyLm(82);
    const std::vector<std::vector<int>> prompts =
        randomPrompts(1, 1, lm.vocab, 16);
    std::vector<int> prompt = prompts[0];
    Rng rng(17);
    while (prompt.size() < 45)
        prompt.push_back(static_cast<int>(rng.uniformInt(lm.vocab)));
    const size_t max_new = 4;
    for (serve::KvCacheFormat fmt :
         {serve::KvCacheFormat::Fp32, serve::KvCacheFormat::Olive4,
          serve::KvCacheFormat::Olive8}) {
        const auto oracle = stepwiseOracle(lm, fmt, {prompt}, max_new);
        ASSERT_EQ(oracle.size(), 1u);
        if (fmt == serve::KvCacheFormat::Fp32) {
            EXPECT_EQ(oracle.begin()->second,
                      forwardGreedy(lm, prompt, max_new));
        }
        serve::ServeConfig cfg;
        cfg.cacheFormat = fmt;
        cfg.maxBatchTokens = 16;
        cfg.prefillChunk = 16;
        for (size_t threads : {1u, 2u, 0u}) {
            par::setThreadCount(threads);
            serve::ServeMetrics m;
            EXPECT_EQ(serveWorkloadById(lm, cfg, {prompt}, max_new, &m),
                      oracle)
                << static_cast<int>(fmt) << " threads=" << threads;
            // 45 prompt rows in 16-row chunks: three multi-row steps.
            EXPECT_EQ(m.steps, 3u + (max_new - 1));
        }
    }
}

// One step holding both kinds of work: a decoding request's single row
// (phase 1, parallel across requests) and another request's prefill
// chunk (phase 2, alone at the top level).
TEST(ServeDeterminism, MixedDecodeAndPrefillStepBitIdentical)
{
    ThreadCountGuard guard;
    const eval::LmModel lm = tinyLm(83);
    std::vector<std::vector<int>> prompts = randomPrompts(3, 4, lm.vocab, 18);
    Rng rng(19);
    prompts[2].resize(30);
    for (auto &t : prompts[2])
        t = static_cast<int>(rng.uniformInt(lm.vocab));
    const size_t max_new = 8;
    for (serve::KvCacheFormat fmt :
         {serve::KvCacheFormat::Fp32, serve::KvCacheFormat::Olive4,
          serve::KvCacheFormat::Olive8}) {
        const auto oracle = stepwiseOracle(lm, fmt, prompts, max_new);
        if (fmt == serve::KvCacheFormat::Fp32) {
            for (size_t i = 0; i < prompts.size(); ++i)
                EXPECT_EQ(oracle.at(i + 1),
                          forwardGreedy(lm, prompts[i], max_new));
        }
        serve::ServeConfig cfg;
        cfg.cacheFormat = fmt;
        cfg.maxBatchTokens = 12;
        cfg.prefillChunk = 8;
        for (size_t threads : {1u, 2u, 0u}) {
            par::setThreadCount(threads);
            serve::ServeEngine engine(lm, cfg);
            // The short prompts reach decode before the long one
            // arrives, so its chunks share steps with decode rows.
            engine.submit(prompts[0], max_new);
            engine.submit(prompts[1], max_new);
            engine.step();
            engine.step();
            engine.submit(prompts[2], max_new);
            const serve::ServeMetrics before = engine.metricsSnapshot();
            engine.step();
            const serve::ServeMetrics after = engine.metricsSnapshot();
            EXPECT_EQ(after.tokensGenerated - before.tokensGenerated, 2u);
            EXPECT_EQ(after.tokensProcessed - before.tokensProcessed, 12u);
            engine.runToCompletion(1000);
            std::map<u64, std::vector<int>> got;
            for (const serve::FinishedRequest &f : engine.finished())
                got[f.id] = f.generated;
            EXPECT_EQ(got, oracle)
                << static_cast<int>(fmt) << " threads=" << threads;
        }
    }
}

// ------------------------------------------------- metrics percentiles

// The percentile accessors must be well-defined numbers at the edge
// populations the serving front end reads them at: zero finished
// requests (a stats op before the first step) and exactly one sample.
TEST(ServeMetrics, PercentilesWellDefinedAtZeroAndOneSample)
{
    serve::ServeMetrics m;
    for (const double p : {50.0, 99.0, 0.0, 100.0}) {
        EXPECT_EQ(m.stepLatencyMs(p), 0.0) << p; // empty: 0, not NaN
        EXPECT_EQ(m.ttftMs(p), 0.0) << p;
    }
    EXPECT_EQ(m.specAcceptRate(), 0.0); // nothing drafted yet
    EXPECT_EQ(m.generatedPerSecond(), 0.0);

    // One sample: every percentile is that sample (no interpolation
    // partner, no out-of-range index).
    m.stepSeconds.push_back(0.002f);
    m.ttftSeconds.push_back(0.004f);
    for (const double p : {0.0, 50.0, 99.0, 100.0}) {
        EXPECT_FLOAT_EQ(static_cast<float>(m.stepLatencyMs(p)), 2.0f)
            << p;
        EXPECT_FLOAT_EQ(static_cast<float>(m.ttftMs(p)), 4.0f) << p;
    }
}

TEST(ServeMetrics, EnginePercentilesFiniteAfterSingleRequest)
{
    const eval::LmModel lm = tinyLm(82);
    serve::ServeEngine engine(lm, {});
    // Before any work: the live stats read must already be valid.
    serve::ServeMetrics m = engine.metricsSnapshot();
    EXPECT_EQ(m.ttftMs(50.0), 0.0);
    EXPECT_EQ(m.stepLatencyMs(99.0), 0.0);

    engine.submit({1, 2, 3}, 4);
    engine.runToCompletion(1000);
    m = engine.metricsSnapshot();
    ASSERT_EQ(m.ttftSeconds.size(), 1u);
    for (const double p : {50.0, 99.0}) {
        EXPECT_TRUE(std::isfinite(m.ttftMs(p))) << p;
        EXPECT_TRUE(std::isfinite(m.stepLatencyMs(p))) << p;
        EXPECT_GE(m.ttftMs(p), 0.0) << p;
    }
    EXPECT_LE(m.stepLatencyMs(50.0), m.stepLatencyMs(99.0));
}

// --------------------------------------------------------- cancel, priority

// Cancelling a still-pending request retires it with zero generated
// tokens and no admission step; the schedule of everything else is
// untouched.
TEST(ServeEngine, CancelPendingRequestRetiresWithoutTokens)
{
    const eval::LmModel lm = tinyLm(83);
    serve::ServeConfig cfg;
    cfg.maxActiveRequests = 1;
    serve::ServeEngine engine(lm, cfg);
    const auto prompts = randomPrompts(2, 6, lm.vocab, 21);
    const u64 first = engine.submit(prompts[0], 4);
    const u64 second = engine.submit(prompts[1], 4);
    ASSERT_TRUE(engine.step()); // admits first; second stays pending
    EXPECT_EQ(engine.pendingCount(), 1u);

    EXPECT_FALSE(engine.cancel(9999)); // unknown id: no effect
    EXPECT_TRUE(engine.cancel(second));
    EXPECT_FALSE(engine.cancel(second)); // already retired
    EXPECT_EQ(engine.pendingCount(), 0u);

    engine.runToCompletion(1000);
    ASSERT_EQ(engine.finishedCount(), 2u);
    const serve::FinishedRequest &f = engine.finished()[0];
    EXPECT_EQ(f.id, second); // retired at cancel time, before first
    EXPECT_TRUE(f.cancelled);
    EXPECT_TRUE(f.generated.empty());
    EXPECT_EQ(f.admitStep, 0u); // never admitted
    EXPECT_FALSE(engine.finished()[1].cancelled);
    EXPECT_EQ(engine.finished()[1].id, first);
    EXPECT_EQ(engine.metricsSnapshot().requestsCancelled, 1u);
}

// Cancelling an active request mid-generation frees its blocks AND its
// worst-case reservation: a pool sized for exactly one resident
// request can then admit the next one.
TEST(ServeEngine, CancelActiveRequestReleasesBlocksAndReservation)
{
    const eval::LmModel lm = tinyLm(84);
    serve::ServeConfig cfg;
    cfg.maxActiveRequests = 4;
    cfg.blockRows = 4;
    cfg.poolBlocks = 4; // one request's worst case, exactly
    serve::ServeEngine engine(lm, cfg);
    const u64 first = engine.submit({1, 2, 3, 4}, 4);
    const u64 second = engine.submit({5, 6, 7, 8}, 4);
    ASSERT_TRUE(engine.step());
    ASSERT_TRUE(engine.step());
    EXPECT_EQ(engine.activeCount(), 1u); // capacity blocks the second
    EXPECT_EQ(engine.pendingCount(), 1u);
    EXPECT_GT(engine.blockPool()->blocksInUse(), 0u);

    EXPECT_TRUE(engine.cancel(first));
    EXPECT_EQ(engine.activeCount(), 0u);
    EXPECT_EQ(engine.blockPool()->blocksInUse(), 0u); // all released
    engine.blockPool()->checkInvariants();

    engine.runToCompletion(1000); // the reservation is free again
    ASSERT_EQ(engine.finishedCount(), 2u);
    EXPECT_TRUE(engine.finished()[0].cancelled);
    EXPECT_EQ(engine.finished()[0].id, first);
    EXPECT_GE(engine.finished()[0].generated.size(), 1u); // mid-stream
    const serve::FinishedRequest &f = engine.finished()[1];
    EXPECT_EQ(f.id, second);
    EXPECT_FALSE(f.cancelled);
    EXPECT_EQ(f.generated.size(), 4u);
    EXPECT_EQ(engine.blockPool()->blocksInUse(), 0u);
    engine.blockPool()->checkInvariants();
}

// Higher priority jumps the admission queue; ties keep FIFO order, so
// all-default submissions reproduce the historical schedule exactly.
TEST(ServeEngine, PriorityOrdersAdmissionWithFifoTies)
{
    const eval::LmModel lm = tinyLm(85);
    const auto prompts = randomPrompts(3, 6, lm.vocab, 22);
    serve::ServeConfig cfg;
    cfg.maxActiveRequests = 1;

    serve::ServeEngine engine(lm, cfg);
    const u64 a = engine.submit(prompts[0], 3, {}, 0);
    const u64 b = engine.submit(prompts[1], 3, {}, 1);
    const u64 c = engine.submit(prompts[2], 3, {}, 1);
    EXPECT_EQ(engine.pendingIds(), (std::vector<u64>{b, c, a}));
    engine.runToCompletion(1000);
    ASSERT_EQ(engine.finishedCount(), 3u);
    EXPECT_EQ(engine.finished()[0].id, b);
    EXPECT_EQ(engine.finished()[1].id, c);
    EXPECT_EQ(engine.finished()[2].id, a);

    // Default priorities: bit-identical streams and finish order to
    // the pre-priority engine (the determinism contract's schedule).
    const auto byId = serveWorkloadById(lm, cfg, prompts, 3);
    serve::ServeEngine plain(lm, cfg);
    for (const auto &p : prompts)
        plain.submit(p, 3);
    plain.runToCompletion(1000);
    for (const serve::FinishedRequest &f : plain.finished())
        EXPECT_EQ(f.generated, byId.at(f.id));
}

// ------------------------------------------------ cached-prefix retention

// Retention defaults to off, and off means off: retiring requests
// release every block and the retention counters never move.
TEST(ServeRetention, DisabledByDefaultReleasesEverything)
{
    const eval::LmModel lm = tinyLm(86);
    EXPECT_FALSE(serve::ServeConfig{}.retainPrefixes);
    serve::ServeEngine engine(lm, {});
    engine.submit({1, 2, 3, 4, 5, 6}, 4);
    engine.runToCompletion(1000);
    EXPECT_EQ(engine.blockPool()->blocksInUse(), 0u);
    EXPECT_EQ(engine.blockPool()->retainedBlocks(), 0u);
    EXPECT_EQ(engine.retainedBlockCount(), 0u);
    EXPECT_EQ(engine.metricsSnapshot().retentionStored, 0u);
    engine.blockPool()->checkInvariants();
}

// The multi-turn chat pattern: a follow-up request extending a RETIRED
// request's prompt + reply seeds from the retention LRU with no live
// donor, skips the shared prefill rows, and still generates the
// bit-identical stream a retention-free engine produces.
TEST(ServeRetention, SharesFromRetiredDonorBitExactly)
{
    const eval::LmModel lm = tinyLm(87);
    const auto prompts = randomPrompts(1, 5, lm.vocab, 31);
    std::vector<int> first = prompts[0];
    first.push_back(7); // length >= 2 so a block-aligned prefix exists

    const auto run = [&](bool retain, serve::ServeMetrics *m) {
        serve::ServeConfig cfg;
        cfg.retainPrefixes = retain;
        cfg.blockRows = 2;
        serve::ServeEngine engine(lm, cfg);
        engine.submit(first, 4);
        engine.runToCompletion(1000);
        // The donor is fully retired before the follow-up exists.
        EXPECT_EQ(engine.activeCount(), 0u);
        std::vector<int> follow = first;
        const auto &ga = engine.finished()[0].generated;
        follow.insert(follow.end(), ga.begin(), ga.end());
        follow.push_back(3);
        engine.submit(follow, 4);
        engine.runToCompletion(1000);
        *m = engine.metricsSnapshot();
        const serve::FinishedRequest &f = engine.finished()[1];
        if (retain) {
            EXPECT_GT(f.sharedPrefixRows, 0u);
        } else {
            EXPECT_EQ(f.sharedPrefixRows, 0u);
        }
        return f.generated;
    };
    serve::ServeMetrics on, off;
    const auto a = run(true, &on);
    const auto b = run(false, &off);
    EXPECT_EQ(a, b); // retention is invisible in the streams
    EXPECT_EQ(on.retentionStored, 2u); // both retirements parked
    EXPECT_EQ(on.retentionHits, 1u);
    EXPECT_GT(on.retentionSharedRows, 0u);
    EXPECT_EQ(on.retentionSharedRows, on.sharedPrefillRowsSkipped);
    EXPECT_EQ(off.retentionStored, 0u);
    EXPECT_EQ(off.retentionHits, 0u);
}

// The retainBlocks budget is a hard cap: storing a new entry evicts
// oldest-first until it fits, and the held-block count never exceeds
// the budget.
TEST(ServeRetention, RetainBlocksCapEvictsOldest)
{
    const eval::LmModel lm = tinyLm(88);
    // Equal-length prompts: both retirements park equal-sized entries,
    // so a one-entry budget must evict (an OVERSIZED entry would be
    // skipped instead — that path is pinned separately below).
    const std::vector<std::vector<int>> prompts = {{1, 2, 3, 4, 5, 6},
                                                   {9, 8, 7, 6, 5, 4}};

    // Learn one entry's size from an unbounded engine first.
    serve::ServeConfig cfg;
    cfg.retainPrefixes = true;
    cfg.blockRows = 2;
    size_t entry_blocks = 0;
    {
        serve::ServeEngine probe(lm, cfg);
        probe.submit(prompts[0], 3);
        probe.runToCompletion(1000);
        entry_blocks = probe.retainedBlockCount();
        ASSERT_GT(entry_blocks, 0u);
    }
    // Budget for roughly one entry: the second retirement must evict
    // the first, and the count must never exceed the cap.
    cfg.retainBlocks = entry_blocks;
    serve::ServeEngine engine(lm, cfg);
    for (const auto &p : prompts) {
        engine.submit(p, 3);
        engine.runToCompletion(1000);
        EXPECT_LE(engine.retainedBlockCount(), cfg.retainBlocks);
    }
    const serve::ServeMetrics m = engine.metricsSnapshot();
    EXPECT_EQ(m.retentionStored, 2u);
    EXPECT_GE(m.retentionEvictions, 1u);
    engine.blockPool()->checkInvariants();

    // An entry larger than the whole budget is simply not retained.
    serve::ServeConfig tiny_cfg = cfg;
    tiny_cfg.retainBlocks = 1;
    serve::ServeEngine tiny(lm, tiny_cfg);
    tiny.submit(prompts[0], 3);
    tiny.runToCompletion(1000);
    EXPECT_EQ(tiny.metricsSnapshot().retentionStored, 0u);
    EXPECT_EQ(tiny.blockPool()->blocksInUse(), 0u);
}

// Retained blocks sit outside the admission reservation sum, so the
// capacity gate evicts them before it ever stalls: a pool with room
// for exactly one request admits the follow-up immediately even when
// retention holds the whole pool.
TEST(ServeRetention, PoolPressureEvictsRetainedBeforeStall)
{
    const eval::LmModel lm = tinyLm(89);
    serve::ServeConfig cfg;
    cfg.retainPrefixes = true;
    cfg.blockRows = 4;
    // Worst case for one request: ceil((4 + 4 - 1) / 4) * 2 layers.
    cfg.poolBlocks = 2 * lm.backbone.layers.size();
    serve::ServeEngine engine(lm, cfg);
    engine.submit({1, 2, 3, 4}, 4);
    engine.runToCompletion(1000);
    EXPECT_GT(engine.blockPool()->retainedBlocks(), 0u);

    // An unrelated request needing the whole pool: admission must
    // evict the retained prefix and admit on the next step, never
    // stall (retention can only save work, never delay admission).
    engine.submit({9, 10, 11, 12}, 4);
    ASSERT_TRUE(engine.step());
    EXPECT_EQ(engine.activeCount(), 1u); // admitted, no stall
    EXPECT_EQ(engine.pendingCount(), 0u);
    engine.runToCompletion(1000);
    ASSERT_EQ(engine.finishedCount(), 2u);
    EXPECT_EQ(engine.finished()[1].generated.size(), 4u);
    EXPECT_GE(engine.metricsSnapshot().retentionEvictions, 1u);
    engine.blockPool()->checkInvariants();
}

// clearRetainedPrefixes drops every reference: the drained pool goes
// back to zero blocks in use and the byte accounting follows.
TEST(ServeRetention, ClearReleasesAllRetainedBlocks)
{
    const eval::LmModel lm = tinyLm(95);
    serve::ServeConfig cfg;
    cfg.retainPrefixes = true;
    cfg.blockRows = 2;
    serve::ServeEngine engine(lm, cfg);
    for (const auto &p : randomPrompts(2, 6, lm.vocab, 35)) {
        engine.submit(p, 3);
        engine.runToCompletion(1000);
    }
    const serve::BlockPool *pool = engine.blockPool();
    // Everything still alive is alive only because retention holds it.
    EXPECT_GT(pool->retainedBlocks(), 0u);
    EXPECT_EQ(pool->blocksInUse(), pool->retainedBlocks());
    EXPECT_GT(pool->retainedBytes(), 0u);
    EXPECT_GE(engine.retainedBlockCount(), pool->retainedBlocks());
    pool->checkInvariants();

    engine.clearRetainedPrefixes();
    EXPECT_EQ(pool->blocksInUse(), 0u);
    EXPECT_EQ(pool->retainedBlocks(), 0u);
    EXPECT_EQ(pool->retainedBytes(), 0u);
    EXPECT_EQ(engine.retainedBlockCount(), 0u);
    EXPECT_EQ(engine.metricsSnapshot().retentionEvictions, 2u);
    pool->checkInvariants();
}

} // namespace
} // namespace olive
