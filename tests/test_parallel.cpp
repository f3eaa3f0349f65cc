/**
 * @file
 * Tests of the deterministic parallel engine (util/parallel): chunk
 * coverage and boundaries, nesting, exception propagation, pool
 * resizing — and the bit-exactness guarantee that quantization, GEMM,
 * and the transformer forward produce identical bytes at every thread
 * count.  The Determinism.* suite also runs as the CTest "determinism"
 * legs under OLIVE_THREADS=1 and OLIVE_THREADS=8.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "models/config.hpp"
#include "models/synthetic.hpp"
#include "nn/transformer.hpp"
#include "quant/quantizer.hpp"
#include "tensor/gemm.hpp"
#include "util/bitops.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace olive {
namespace {

/** Restore the ambient (env-or-hardware) pool size on scope exit. */
struct ThreadCountGuard
{
    ~ThreadCountGuard() { par::setThreadCount(0); }
};

std::vector<float>
heavyTailData(size_t n, u64 seed)
{
    Rng rng(seed);
    std::vector<float> xs(n);
    for (auto &v : xs)
        v = static_cast<float>(rng.heavyTail(0.008, 3.5, 90.0));
    return xs;
}

Tensor
gaussianTensor(std::initializer_list<size_t> shape, u64 seed)
{
    Tensor t(shape);
    Rng rng(seed);
    for (auto &v : t.data())
        v = static_cast<float>(rng.gaussian());
    return t;
}

bool
bitIdentical(std::span<const float> a, std::span<const float> b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ------------------------------------------------------------- engine

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadCountGuard guard;
    par::setThreadCount(4);
    std::vector<int> hits(1237, 0);
    par::parallelFor(0, hits.size(), 7, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            ++hits[i];
    });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelFor, ChunkBoundariesDependOnlyOnGrain)
{
    ThreadCountGuard guard;
    for (size_t threads : {1u, 3u, 6u}) {
        par::setThreadCount(threads);
        std::mutex mu;
        std::vector<std::pair<size_t, size_t>> chunks;
        par::parallelFor(5, 50, 8, [&](size_t b, size_t e) {
            std::lock_guard<std::mutex> lock(mu);
            chunks.emplace_back(b, e);
        });
        std::sort(chunks.begin(), chunks.end());
        ASSERT_EQ(chunks.size(), par::chunkCount(5, 50, 8));
        for (size_t c = 0; c < chunks.size(); ++c) {
            EXPECT_EQ(chunks[c].first, 5 + c * 8);
            EXPECT_EQ(chunks[c].second,
                      std::min<size_t>(50, 5 + (c + 1) * 8));
            EXPECT_EQ(par::chunkIndex(5, 8, chunks[c].first), c);
        }
    }
}

TEST(ParallelFor, EmptyRangeNeverInvokes)
{
    bool called = false;
    par::parallelFor(10, 10, 4, [&](size_t, size_t) { called = true; });
    par::parallelFor(10, 3, 4, [&](size_t, size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, ZeroGrainActsAsOne)
{
    std::atomic<size_t> calls{0};
    par::parallelFor(0, 17, 0, [&](size_t b, size_t e) {
        EXPECT_EQ(e, b + 1);
        ++calls;
    });
    EXPECT_EQ(calls.load(), 17u);
}

TEST(ParallelFor, NestedCallsRunWithoutDeadlock)
{
    // Nesting happens constantly in practice (e.g. the calibration
    // sweep invokes the parallel codec); it must run inline on the
    // issuing thread at every pool size — including 1, where the outer
    // region executes inside the pool's region lock.
    ThreadCountGuard guard;
    for (size_t threads : {1u, 4u}) {
        par::setThreadCount(threads);
        std::atomic<int> total{0};
        par::parallelFor(0, 8, 2, [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) {
                par::parallelFor(0, 10, 3, [&](size_t ib, size_t ie) {
                    total += static_cast<int>(ie - ib);
                });
            }
        });
        EXPECT_EQ(total.load(), 80) << threads;
    }
}

TEST(ParallelFor, PropagatesFirstException)
{
    ThreadCountGuard guard;
    par::setThreadCount(4);
    EXPECT_THROW(
        par::parallelFor(0, 100, 1,
                         [](size_t b, size_t) {
                             if (b == 37)
                                 throw std::runtime_error("chunk 37");
                         }),
        std::runtime_error);
    // The pool survives and runs the next region normally.
    std::atomic<size_t> n{0};
    par::parallelFor(0, 64, 4, [&](size_t b, size_t e) { n += e - b; });
    EXPECT_EQ(n.load(), 64u);
}

TEST(ParallelFor, SetThreadCountRoundTrip)
{
    ThreadCountGuard guard;
    par::setThreadCount(5);
    EXPECT_EQ(par::threadCount(), 5u);
    par::setThreadCount(1);
    EXPECT_EQ(par::threadCount(), 1u);
    par::setThreadCount(0);
    EXPECT_GE(par::threadCount(), 1u);
}

TEST(ParallelFor, RegionFlagTracksKernelScope)
{
    ThreadCountGuard guard;
    for (size_t threads : {1u, 4u}) {
        par::setThreadCount(threads);
        EXPECT_FALSE(par::inParallelRegion());
        std::atomic<bool> all_inside{true};
        par::parallelFor(0, 32, 1, [&](size_t, size_t) {
            if (!par::inParallelRegion())
                all_inside = false;
        });
        EXPECT_TRUE(all_inside.load()) << threads;
        EXPECT_FALSE(par::inParallelRegion());
    }
}

// -------------------------------------------------------- determinism

TEST(Determinism, GemmBitExactAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const Tensor b = gaussianTensor({96, 53}, 2);
    const Tensor w = gaussianTensor({53, 96}, 3);
    const Tensor bias = gaussianTensor({53}, 4);

    // m = 1 is a single decode row, 37 one partial 64-row parallel
    // chunk, and 130 spans three chunks (the last a ragged 2 rows).
    for (const size_t m : {1u, 37u, 130u}) {
        const Tensor a = gaussianTensor({m, 96}, 1);

        par::setThreadCount(1);
        const Tensor c1 = matmul(a, b);
        const Tensor t1 = matmulTransB(a, w);
        const Tensor l1 = linearForward(a, w, bias);

        // 0 = the ambient OLIVE_THREADS default, so the CTest
        // determinism legs (OLIVE_THREADS=1 and =8) genuinely exercise
        // that pool size.
        for (size_t threads : {2u, 5u, 0u}) {
            par::setThreadCount(threads);
            EXPECT_TRUE(bitIdentical(matmul(a, b).data(), c1.data()))
                << "m=" << m << " threads=" << threads;
            EXPECT_TRUE(bitIdentical(matmulTransB(a, w).data(), t1.data()))
                << "m=" << m << " threads=" << threads;
            EXPECT_TRUE(bitIdentical(linearForward(a, w, bias).data(),
                                     l1.data()))
                << "m=" << m << " threads=" << threads;
        }
    }
}

TEST(Determinism, MatmulAgreesWithMatmulTransB)
{
    // Satellite regression: both paths accumulate in double over
    // ascending l, so on transposed inputs they agree bitwise.
    const Tensor a = gaussianTensor({29, 64}, 5);
    const Tensor b = gaussianTensor({64, 41}, 6);
    Tensor bt({41, 64});
    for (size_t i = 0; i < 64; ++i)
        for (size_t j = 0; j < 41; ++j)
            bt.at(j, i) = b.at(i, j);
    EXPECT_TRUE(bitIdentical(matmul(a, b).data(),
                             matmulTransB(a, bt).data()));
}

TEST(Determinism, FakeQuantBitExactAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const auto xs = heavyTailData(100001, 7); // odd length on purpose
    const OliveQuantizer q;

    par::setThreadCount(1);
    const auto ref = q.fakeQuant(xs);
    for (size_t threads : {2u, 6u, 0u}) { // 0 = ambient OLIVE_THREADS
        par::setThreadCount(threads);
        EXPECT_TRUE(bitIdentical(q.fakeQuant(xs), ref)) << threads;
    }
}

TEST(Determinism, TransformerForwardBitExactAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const auto config = models::byName("BERT-base");
    const nn::Transformer model = models::makeBackbone(config, 11);
    const Tensor x =
        gaussianTensor({config.evalSeqLen, config.evalDModel}, 12);

    par::setThreadCount(1);
    const Tensor ref = model.forward(x, nullptr);
    for (size_t threads : {2u, 5u, 0u}) { // 0 = ambient OLIVE_THREADS
        par::setThreadCount(threads);
        EXPECT_TRUE(bitIdentical(model.forward(x, nullptr).data(),
                                 ref.data()))
            << threads;
    }
}

// ------------------------------------------------------------- bitops

TEST(SignExtendDeath, ZeroWidthAborts)
{
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    volatile unsigned width = 0;
    EXPECT_DEATH(bits::signExtend(1u, width), "signExtend width");
}

TEST(SignExtend, FullAndPartialWidths)
{
    EXPECT_EQ(bits::signExtend(0xFu, 4), -1);
    EXPECT_EQ(bits::signExtend(0x7u, 4), 7);
    EXPECT_EQ(bits::signExtend(0x8u, 4), -8);
    EXPECT_EQ(bits::signExtend(0xFFFFFFFFu, 32), -1);
    EXPECT_EQ(bits::signExtend(1u, 1), -1);
}

} // namespace
} // namespace olive
