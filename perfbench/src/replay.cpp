/**
 * @file
 * Shape replay: the traced run cannot see inside ServeEngine::step(),
 * so it repeats the public calls step() makes — forwardStep,
 * forwardChunk, selfAttentionStep/Chunk, logitsFromHidden,
 * linearForward/matmulTransB and the olive4 KvScheme codec — at the
 * row counts and context lengths it observed, and times each one.
 *
 * Every call runs inside a one-chunk parallel region, exactly as
 * step() runs a request's work on a batch worker: nested parallel
 * regions then execute inline, so each time is one request's serial
 * cost.  The step.* shares combine these times with the run's exact
 * row counts into an estimate of where a step's CPU time goes.
 */

#include <algorithm>

#include "common.hpp"
#include "nn/transformer.hpp"
#include "serve/block_pool.hpp"
#include "serve/decoded_cache.hpp"
#include "serve/kv_cache.hpp"
#include "tensor/gemm.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace perfbench {

using namespace olive;

namespace {

/** Minimum wall time and repetitions per timed call. */
constexpr double kMinSeconds = 0.03;
constexpr size_t kMinReps = 5;

/** Row counts the GEMM shapes are timed at. */
constexpr size_t kGemmRows[3] = {1, 8, 32};

/** Median microseconds of @p fn (setup, then timed body) over enough
 *  repetitions, each run the way step() runs a request. */
template <class Body>
double
timeUs(Body &&body)
{
    std::vector<double> us;
    const auto begin = Clock::now();
    for (size_t rep = 0;
         rep < kMinReps + 1 ||
         secondsBetween(begin, Clock::now()) < kMinSeconds;
         ++rep) {
        double dt = 0.0;
        par::parallelFor(0, 1, 1, [&](size_t, size_t) {
            dt = body();
        });
        if (rep > 0) // the first repetition warms caches
            us.push_back(dt * 1e6);
    }
    return percentile(us, 50.0);
}

/** Time one call of @p fn, in seconds. */
template <class Fn>
double
timed(Fn &&fn)
{
    const auto t0 = Clock::now();
    fn();
    return secondsBetween(t0, Clock::now());
}

double
medianOf(std::vector<size_t> xs)
{
    std::vector<double> d(xs.begin(), xs.end());
    return percentile(d, 50.0);
}

Tensor
randomRows(size_t m, size_t n, Rng &rng)
{
    Tensor t({m, n});
    for (float &x : t.data())
        x = static_cast<float>(rng.gaussian());
    return t;
}

/** A paged decode state (olive4 pool + decoded-block cache) prefilled
 *  to @p context rows of real token embeddings. */
struct PagedState
{
    serve::BlockPool pool;
    serve::DecodedBlockCache dcache;
    serve::DecodeState state;

    PagedState(const eval::LmModel &lm, const serve::ServeConfig &cfg,
               const serve::KvScheme &scheme, size_t context, Rng &rng)
        : pool(scheme, lm.backbone.dModel, cfg.blockRows),
          dcache(pool, cfg.decodedCacheBlocks)
    {
        pool.setReleaseHook([this](u32 id) { dcache.invalidate(id); });
        state = serve::makePagedDecodeState(lm.backbone, pool, &dcache);
        std::vector<int> toks(context);
        for (int &t : toks)
            t = static_cast<int>(rng.uniformInt(lm.vocab));
        for (size_t p = 0; p < context; p += 32) {
            const size_t m = std::min<size_t>(32, context - p);
            lm.backbone.forwardChunk(
                lm.embed(std::span<const int>(toks).subspan(p, m)), state);
        }
    }

    ~PagedState() { state.layers.clear(); } // caches release into pool

    PagedState(const PagedState &) = delete;
    PagedState &operator=(const PagedState &) = delete;

    /** Roll every layer back to @p rows after a timed call. */
    void rollback(size_t rows)
    {
        for (auto &layer : state.layers)
            layer->truncate(rows);
        state.position = rows;
    }
};

} // namespace

LayerTimes
replayShapes(const Stack &st, const Observed &obs)
{
    LayerTimes lt;
    const eval::LmModel &lm = *st.model;
    const nn::Transformer &bb = lm.backbone;
    const nn::Layer &layer = bb.layers.front();
    const serve::ServeConfig &cfg = st.engine->config();
    const serve::KvScheme &scheme = st.engine->kvScheme();
    const size_t d = bb.dModel;
    Rng rng(0x5eedULL);
    const auto put = [&](const std::string &name, double v) {
        lt.values.emplace_back(name, v);
    };

    // Observed shapes: median decode context, median prefill-chunk
    // context (chunks of > 1 row; the decode context when none ran).
    std::vector<size_t> decodeCtx, chunkCtx;
    for (const ForwardCall &c : obs.calls) {
        if (!c.prefill)
            decodeCtx.push_back(c.context);
        else if (c.rows > 1)
            chunkCtx.push_back(c.context);
    }
    const size_t stepCtx =
        std::max<size_t>(1, static_cast<size_t>(medianOf(decodeCtx)));
    const size_t chunkAt =
        chunkCtx.empty() ? stepCtx : static_cast<size_t>(medianOf(chunkCtx));
    const size_t m = 32;

    // ---- gemm.*: the four weight shapes at m = 1, 8, 32 ----
    struct Op
    {
        const char *name;
        const Tensor *w;
        const Tensor *bias; // null: matmulTransB (the vocab head)
    };
    const Op ops[] = {{"attn_proj", &layer.q.w, &layer.q.b},
                      {"ff1", &layer.ff1.w, &layer.ff1.b},
                      {"ff2", &layer.ff2.w, &layer.ff2.b},
                      {"head", &lm.embedding, nullptr}};
    double flops[3] = {0, 0, 0}, us[3] = {0, 0, 0};
    for (const Op &op : ops) {
        for (size_t mi = 0; mi < 3; ++mi) {
            const size_t rows = kGemmRows[mi];
            const Tensor a = randomRows(rows, op.w->dim(1), rng);
            const double t = timeUs([&] {
                return timed([&] {
                    if (op.bias)
                        (void)linearForward(a, *op.w, *op.bias);
                    else
                        (void)matmulTransB(a, *op.w);
                });
            });
            put(std::string("gemm.") + op.name + ".m" +
                    std::to_string(rows) + "_us",
                t);
            flops[mi] += 2.0 * static_cast<double>(rows * op.w->dim(0) *
                                                   op.w->dim(1));
            us[mi] += t;
            if (op.bias) {
                // Per-row cost of one layer's dense work: q, k, v, o
                // (four d x d) plus both feed-forward matrices.
                const bool proj = op.w == &layer.q.w;
                const double perRow =
                    (proj ? 4.0 : 1.0) * t / static_cast<double>(rows);
                lt.gemmUsPerRow[mi] += perRow;
                if (proj)
                    lt.projUsPerRow[mi] = perRow;
            }
        }
    }
    put("gemm.m1_gflops", flops[0] / (us[0] * 1e3));
    put("gemm.m32_gflops", flops[2] / (us[2] * 1e3));

    // ---- codec.*: olive4 encode/decode of real K rows ----
    {
        std::vector<int> toks(64);
        for (int &t : toks)
            t = static_cast<int>(rng.uniformInt(lm.vocab));
        const Tensor k = layer.k.forward(lm.embed(toks));
        std::vector<std::vector<u8>> bytes(k.dim(0));
        std::vector<serve::KvRowMeta> meta(k.dim(0));
        lt.encodeUsPerRow =
            timeUs([&] {
                return timed([&] {
                    for (size_t r = 0; r < k.dim(0); ++r) {
                        bytes[r].clear();
                        scheme.encodeRow(k.row(r), bytes[r], meta[r]);
                    }
                });
            }) /
            static_cast<double>(k.dim(0));
        std::vector<float> out(d);
        lt.decodeUsPerRow =
            timeUs([&] {
                return timed([&] {
                    for (size_t r = 0; r < k.dim(0); ++r)
                        scheme.decodeRow(bytes[r], meta[r], out);
                });
            }) /
            static_cast<double>(k.dim(0));
        put("codec.encode_us_per_row", lt.encodeUsPerRow);
        put("codec.decode_us_per_row", lt.decodeUsPerRow);
    }

    // ---- nn.*: the forward calls at the observed contexts ----
    {
        PagedState ps(lm, cfg, scheme, stepCtx, rng);
        const Tensor x = lm.embed(std::vector<int>{1});
        put("nn.step_us", timeUs([&] {
                const double t =
                    timed([&] { (void)bb.forwardStep(x, ps.state); });
                ps.rollback(stepCtx);
                return t;
            }));
        lt.attnStepUs = timeUs([&] {
            const double t = timed([&] {
                (void)nn::selfAttentionStep(x, layer, bb.nHeads,
                                            *ps.state.layers.front(),
                                            nullptr);
            });
            ps.state.layers.front()->truncate(stepCtx);
            return t;
        });
        put("nn.attn_step_us", lt.attnStepUs);
        const Tensor h = randomRows(1, d, rng);
        lt.headUsPerRow = timeUs([&] {
            return timed([&] { (void)lm.logitsFromHidden(h); });
        });
        put("nn.head_us_per_row", lt.headUsPerRow);
    }
    {
        PagedState ps(lm, cfg, scheme, chunkAt, rng);
        std::vector<int> toks(m);
        for (int &t : toks)
            t = static_cast<int>(rng.uniformInt(lm.vocab));
        const Tensor rows = lm.embed(toks);
        put("nn.chunk_us_per_row",
            timeUs([&] {
                const double t =
                    timed([&] { (void)bb.forwardChunk(rows, ps.state); });
                ps.rollback(chunkAt);
                return t;
            }) / static_cast<double>(m));
        lt.attnChunkUsPerRow =
            timeUs([&] {
                const double t = timed([&] {
                    (void)nn::selfAttentionChunk(rows, layer, bb.nHeads,
                                                 *ps.state.layers.front(),
                                                 nullptr);
                });
                ps.state.layers.front()->truncate(chunkAt);
                return t;
            }) /
            static_cast<double>(m);
        put("nn.attn_chunk_us_per_row", lt.attnChunkUsPerRow);
    }
    return lt;
}

} // namespace perfbench
