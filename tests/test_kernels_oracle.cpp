/**
 * @file
 * Exhaustive oracle suite for the LUT / boundary-table / tiled fast
 * paths introduced by the kernel overhaul: every fast path must be
 * bit-identical to the retained reference implementation.
 *
 *  - NormalCodec: all codes x all three NormalTypes through the decode
 *    LUTs, plus a dense value sweep (and adversarial midpoint probes)
 *    through the boundary-table encoder.
 *  - OvpCodec: all code pairs through decodePair for both abfloat
 *    widths, dense outlier quantization sweeps, and full-tensor
 *    encode/decode/fakeQuant round trips against the pre-LUT reference.
 *  - OliveQuantizer: the lockstep grid scorer's per-candidate MSE ==
 *    stats::mse(s, fakeQuantReference(s)) bitwise, on adversarial
 *    rows too; its early exit only ever drops lanes strictly above
 *    the bound; and calibrate() decision == calibrateReference()
 *    decision, ties and top-level parallel calls included.
 *  - GEMM: tiled matmul and row-dot matmulTransB/linearForward bytewise
 *    against the untiled references, including the serving weight
 *    shapes at every row-tile split and ragged n/k tails, and the
 *    column split of small-m calls under a multi-thread pool; parallel
 *    axpy against a serial loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "quant/quantizer.hpp"
#include "tensor/gemm.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace olive {
namespace {

constexpr NormalType kAllTypes[] = {NormalType::Int4, NormalType::Flint4,
                                    NormalType::Int8};

std::vector<float>
heavyTailData(size_t n, u64 seed, double outlier_frac = 0.02,
              double sigma = 1.0, double outlier_mag = 40.0)
{
    Rng rng(seed);
    std::vector<float> xs(n);
    for (auto &v : xs)
        v = static_cast<float>(rng.heavyTail(outlier_frac, sigma,
                                             outlier_mag));
    return xs;
}

bool
bitEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    // Empty vectors may hand memcmp null pointers, which UBSan flags.
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

class NormalCodecOracle : public ::testing::TestWithParam<NormalType>
{
};

TEST_P(NormalCodecOracle, DecodeLutMatchesReferenceForAllCodes)
{
    const NormalCodec codec(GetParam());
    const u32 n_codes = 1u << bitWidth(GetParam());
    for (u32 code = 0; code < n_codes; ++code) {
        if (codec.isIdentifier(code))
            continue;
        EXPECT_EQ(codec.decodeInt(code), codec.decodeIntReference(code))
            << "code " << code;
        const ExpInt fast = codec.decodeExpInt(code);
        const ExpInt ref = codec.decodeExpIntReference(code);
        EXPECT_EQ(fast.exponent, ref.exponent) << "code " << code;
        EXPECT_EQ(fast.integer, ref.integer) << "code " << code;
    }
}

TEST_P(NormalCodecOracle, EncodeMatchesReferenceOnDenseSweep)
{
    const NormalCodec codec(GetParam());
    for (const float scale : {0.013f, 0.37f, 1.0f, 1.5f, 42.0f}) {
        const float span =
            scale * static_cast<float>(maxNormalMagnitude(GetParam()) + 3);
        const float step = span / 4096.0f;
        for (float x = -span; x <= span; x += step) {
            ASSERT_EQ(codec.encode(x, scale), codec.encodeReference(x, scale))
                << "x=" << x << " scale=" << scale;
        }
    }
}

TEST_P(NormalCodecOracle, EncodeMatchesReferenceAtMidpointsAndNeighbours)
{
    const NormalCodec codec(GetParam());
    const auto vals = valueTable(GetParam());
    for (const float scale : {0.25f, 1.0f, 3.0f}) {
        for (size_t i = 0; i + 1 < vals.size(); ++i) {
            const double mid =
                (static_cast<double>(vals[i]) + vals[i + 1]) / 2.0;
            // Probe the real-domain images of the midpoint and its
            // float neighbours: the tie-break rule must agree exactly.
            const float at = static_cast<float>(mid) * scale;
            for (const float x : {at, std::nextafterf(at, -1e30f),
                                  std::nextafterf(at, 1e30f)}) {
                ASSERT_EQ(codec.encode(x, scale),
                          codec.encodeReference(x, scale))
                    << "x=" << x << " scale=" << scale;
            }
        }
    }
}

TEST_P(NormalCodecOracle, EncodeMatchesReferenceOnExtremes)
{
    const NormalCodec codec(GetParam());
    for (const float x : {-1e30f, -65536.0f, -0.0f, 0.0f, 1e-30f, 65536.0f,
                          1e30f}) {
        EXPECT_EQ(codec.encode(x, 0.5f), codec.encodeReference(x, 0.5f))
            << "x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, NormalCodecOracle,
                         ::testing::ValuesIn(kAllTypes),
                         [](const auto &info) {
                             return toString(info.param);
                         });

class OvpOracle : public ::testing::TestWithParam<NormalType>
{
};

TEST_P(OvpOracle, DecodePairLutMatchesReferenceForAllCodePairs)
{
    // Covers both abfloat widths: E2M1 for the 4-bit types, E4M3 for
    // int8.
    const OvpCodec codec(GetParam(), 0.37f, 2.5);
    const u32 n_codes = 1u << bitWidth(GetParam());
    const u32 identifier = outlierIdentifier(GetParam());
    for (u32 c1 = 0; c1 < n_codes; ++c1) {
        for (u32 c2 = 0; c2 < n_codes; ++c2) {
            if (c1 == identifier && c2 == identifier)
                continue;
            float f1, f2, r1, r2;
            codec.decodePair(c1, c2, f1, f2);
            codec.decodePairReference(c1, c2, r1, r2);
            ASSERT_EQ(0, std::memcmp(&f1, &r1, sizeof(float)))
                << "codes " << c1 << "," << c2;
            ASSERT_EQ(0, std::memcmp(&f2, &r2, sizeof(float)))
                << "codes " << c1 << "," << c2;
        }
    }
}

TEST_P(OvpOracle, EncodePairMatchesReferenceOnDenseSweep)
{
    const OvpCodec codec(GetParam(), 0.41f, 3.3);
    // Sweep pairs through normal/outlier/pruned regimes, including
    // values far beyond the 2^15-grid-unit outlier clip.
    std::vector<float> probes;
    for (float x = -24.0f; x <= 24.0f; x += 0.37f)
        probes.push_back(x);
    for (const float big : {-3e4f, -777.7f, 123.4f, 2.9e4f, 1e9f})
        probes.push_back(big);
    for (const float v1 : probes) {
        for (const float v2 : probes) {
            u32 f1, f2, r1, r2;
            const PairRole fast = codec.encodePair(v1, v2, f1, f2);
            const PairRole ref = codec.encodePairReference(v1, v2, r1, r2);
            ASSERT_EQ(f1, r1) << v1 << "," << v2;
            ASSERT_EQ(f2, r2) << v1 << "," << v2;
            ASSERT_EQ(fast, ref) << v1 << "," << v2;
        }
    }
}

TEST_P(OvpOracle, StreamRoundTripMatchesReference)
{
    for (const size_t n : {0ul, 1ul, 7ul, 4096ul, 4097ul}) {
        const auto xs = heavyTailData(n, 17 + n);
        const OvpCodec codec(GetParam(), 0.2f, 1.1);
        OvpStats fast_st, ref_st;
        const auto fast = codec.fakeQuant(xs, &fast_st);
        const auto ref = codec.fakeQuantReference(xs, &ref_st);
        EXPECT_TRUE(bitEqual(fast, ref)) << "n=" << n;
        EXPECT_EQ(fast_st.pairs, ref_st.pairs);
        EXPECT_EQ(fast_st.outlierPairs, ref_st.outlierPairs);
        EXPECT_EQ(fast_st.prunedOutliers, ref_st.prunedOutliers);

        // The fused round trip must equal the packed byte-stream one.
        OvpStats enc_st;
        const auto bytes = codec.encode(xs, &enc_st);
        EXPECT_TRUE(bitEqual(codec.decode(bytes, xs.size()), fast));
        EXPECT_EQ(enc_st.outlierPairs, fast_st.outlierPairs);
        EXPECT_EQ(enc_st.prunedOutliers, fast_st.prunedOutliers);
    }
}

TEST_P(OvpOracle, FakeQuantMseMatchesStatsMse)
{
    for (const size_t n : {1ul, 5ul, 4096ul, 8191ul}) {
        const auto xs = heavyTailData(n, 23 + n);
        // Thresholds spanning "almost everything is an outlier" to
        // "nothing is".
        for (const double threshold : {0.4, 2.0, 60.0}) {
            const OvpCodec codec(GetParam(), 0.31f, threshold);
            const float scale = codec.scale();
            double fused = 0.0;
            ovpLockstepMse(GetParam(), xs, std::span(&scale, 1),
                           std::span(&threshold, 1), std::span(&fused, 1));
            const double ref = stats::mse(xs, codec.fakeQuant(xs));
            EXPECT_EQ(fused, ref) << "n=" << n << " thr=" << threshold;
        }
    }
}

/** Bitwise double comparison (EXPECT_EQ would accept -0.0 == 0.0). */
bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST_P(OvpOracle, LockstepMseMatchesReferenceOnAdversarialRows)
{
    const NormalType t = GetParam();
    const double max_mag = maxNormalMagnitude(t);
    // Midpoints of the normal grid and of the abfloat grid, in grid
    // units: the values where the codec's rounding flips.
    std::vector<double> mids, omids;
    const std::vector<int> vals = valueTable(t);
    for (size_t i = 0; i + 1 < vals.size(); ++i)
        mids.push_back((vals[i] + vals[i + 1]) / 2.0);
    const std::vector<i64> omags = outlierTypeFor(t).unsignedValueTable();
    for (size_t i = 1; i + 1 < omags.size(); ++i)
        omids.push_back(static_cast<double>(omags[i] + omags[i + 1]) / 2.0);

    // Candidates: scales whose products with every midpoint are exact
    // floats (so rows can sit exactly on them), an arbitrary scale and
    // a subnormal one; thresholds on the grid (|x| can equal them), one
    // ulp above it, and decoupled from it.  16 candidates span two
    // lockstep passes.
    const float exact_scales[] = {0.25f, 0.375f};
    const float scales[] = {0.25f, 0.375f, 0.31f, 0x1p-140f};
    std::vector<float> cand_scale;
    std::vector<double> cand_thr;
    for (const float sc : scales) {
        const double on_grid = sc * max_mag;
        for (const double thr :
             {on_grid, std::nextafter(on_grid, 1e300), on_grid / 2.0,
              on_grid * 3.0}) {
            cand_scale.push_back(sc);
            cand_thr.push_back(thr);
        }
    }

    std::vector<std::vector<float>> rows;
    std::vector<float> on_mids, on_thr, on_omids;
    for (const float sc : exact_scales) {
        for (const double m : mids) {
            const auto v = static_cast<float>(m * sc);
            for (const float x : {v, std::nextafter(v, 0.0f),
                                  std::nextafter(v, 1e30f)}) {
                on_mids.push_back(x);
                on_mids.push_back(-x);
            }
        }
        // |x| exactly at the on-grid threshold, paired with a smaller,
        // an equal and an opposite-signed equal partner.
        const auto thr = static_cast<float>(sc * max_mag);
        on_thr.insert(on_thr.end(), {thr, 0.5f * thr, thr, thr, -thr, thr,
                                     -thr, -thr, 0.5f * thr, -thr});
        for (const double m : omids) {
            const auto v = static_cast<float>(m * sc);
            for (const float x : {v, std::nextafter(v, 0.0f),
                                  std::nextafter(v, 1e30f)}) {
                on_omids.push_back(x);
                on_omids.push_back(-x);
            }
        }
        // Beyond the 2^15 grid clip (Int8's E4M3 reaches past it).
        for (const double g : {31744.0, 32768.0, 34816.0, 40000.0, 1e6}) {
            on_omids.push_back(static_cast<float>(g * sc));
            on_omids.push_back(static_cast<float>(-g * sc));
        }
    }
    rows.push_back(on_mids);
    rows.push_back(on_thr);
    rows.push_back(on_omids);
    // Equal-magnitude outlier pairs and signed zeros.
    rows.push_back({9.0f, -9.0f, -9.0f, 9.0f, 9.0f, 9.0f, 80.0f, -80.0f,
                    0.0f, -0.0f, -0.0f, 0.0f, -0.0f, 50.0f, 50.0f, -0.0f,
                    -0.0f, -0.0f});
    // Subnormals, alone and beside normal values.
    rows.push_back({0x1p-149f, -0x1p-149f, 0x1p-140f, -0x1.8p-139f,
                    0x1p-137f, -0x1p-136f, 0x1.4p-133f, 0x1p-126f, 0.3f,
                    -0x1p-145f});
    // Seeded heavy-tailed rows at serving widths.
    for (const size_t n : {127ul, 128ul, 256ul})
        rows.push_back(heavyTailData(n, 41 + n, 0.05));

    std::vector<double> out(cand_scale.size());
    const auto check = [&](std::span<const float> xs, const char *what) {
        ovpLockstepMse(t, xs, cand_scale, cand_thr, out);
        for (size_t c = 0; c < cand_scale.size(); ++c) {
            const OvpCodec codec(t, cand_scale[c], cand_thr[c]);
            const double ref =
                stats::mse(xs, codec.fakeQuantReference(xs));
            EXPECT_TRUE(bitEqual(out[c], ref))
                << what << " n=" << xs.size() << " candidate " << c
                << ": " << out[c] << " vs " << ref;
        }
    };
    for (const auto &row : rows) {
        check(row, "row");
        // Odd lengths leave a lone padded value in the last pair.
        check(std::span(row).first(row.size() - 1), "odd prefix");
        for (size_t i = 0; i < row.size(); i += 7)
            check(std::span(row).subspan(i, 1), "d=1");
    }
    ovpLockstepMse(t, {}, cand_scale, cand_thr, out);
    EXPECT_EQ(out[0], 0.0);
}

TEST_P(OvpOracle, DecodeIntoMatchesDecode)
{
    for (const size_t n : {1ul, 2ul, 7ul, 128ul, 4097ul}) {
        const auto xs = heavyTailData(n, 29 + n);
        const OvpCodec codec(GetParam(), 0.2f, 1.1);
        const auto bytes = codec.encode(xs);
        std::vector<float> into(n, std::nanf(""));
        codec.decodeInto(bytes, into);
        EXPECT_TRUE(bitEqual(into, codec.decode(bytes, n))) << "n=" << n;
    }
}

/** Candidates of the bound tests: two lockstep passes of four. */
struct BoundCandidates
{
    std::vector<float> scales;
    std::vector<double> thresholds;
};

BoundCandidates
boundCandidates(NormalType t, std::initializer_list<float> scales)
{
    BoundCandidates c;
    for (const float sc : scales) {
        const double on_grid = sc * maxNormalMagnitude(t);
        for (const double thr : {on_grid, on_grid / 2.0}) {
            c.scales.push_back(sc);
            c.thresholds.push_back(thr);
        }
    }
    return c;
}

/** Per-candidate reference MSE: the codec's round trip, stats::mse. */
std::vector<double>
referenceMse(NormalType t, std::span<const float> xs,
             const BoundCandidates &c)
{
    std::vector<double> ref;
    for (size_t k = 0; k < c.scales.size(); ++k) {
        const OvpCodec codec(t, c.scales[k], c.thresholds[k]);
        ref.push_back(stats::mse(xs, codec.fakeQuantReference(xs)));
    }
    return ref;
}

/**
 * ovpLockstepMse under @p bound, pass by pass (four candidates each):
 * a pass with a lane whose reference MSE is <= @p bound cannot stop, so
 * every lane scores its reference MSE bitwise; a pass whose lanes are
 * all above it scores +inf for all of them when its last check sees
 * the full sums (a pair count that is a multiple of 8), and otherwise
 * either that or the reference MSEs.
 */
void
expectBoundContract(NormalType t, std::span<const float> xs,
                    const BoundCandidates &c, double bound,
                    const std::string &what)
{
    const std::vector<double> ref = referenceMse(t, xs, c);
    std::vector<double> out(ref.size());
    ovpLockstepMse(t, xs, c.scales, c.thresholds, out, bound);
    const double inf = std::numeric_limits<double>::infinity();
    const bool last_check_full = !xs.empty() && (xs.size() + 1) / 2 % 8 == 0;
    for (size_t c0 = 0; c0 < ref.size(); c0 += 4) {
        const size_t c1 = std::min(ref.size(), c0 + 4);
        bool all_above = true;
        bool all_exact = true;
        bool all_inf = true;
        for (size_t k = c0; k < c1; ++k) {
            all_above = all_above && ref[k] > bound;
            all_exact = all_exact && bitEqual(out[k], ref[k]);
            all_inf = all_inf && out[k] == inf;
        }
        const std::string at = what + " n=" + std::to_string(xs.size()) +
                               " bound=" + std::to_string(bound) +
                               " pass " + std::to_string(c0 / 4);
        if (!all_above)
            EXPECT_TRUE(all_exact) << at;
        else if (last_check_full)
            EXPECT_TRUE(all_inf) << at;
        else
            EXPECT_TRUE(all_exact || all_inf) << at;
    }
}

TEST_P(OvpOracle, BoundBelowEveryLaneScoresInfinity)
{
    const NormalType t = GetParam();
    const BoundCandidates c = boundCandidates(t, {0.2f, 0.31f, 0.05f, 0.7f});
    for (const size_t n : {16ul, 128ul, 256ul}) {
        const auto xs = heavyTailData(n, 53 + n, 0.05);
        const std::vector<double> ref = referenceMse(t, xs, c);
        const double below =
            std::nextafter(*std::min_element(ref.begin(), ref.end()), 0.0);
        std::vector<double> out(ref.size());
        ovpLockstepMse(t, xs, c.scales, c.thresholds, out, below);
        for (size_t k = 0; k < out.size(); ++k) {
            EXPECT_EQ(out[k], std::numeric_limits<double>::infinity())
                << "n=" << n << " candidate " << k;
        }
        expectBoundContract(t, xs, c, below, "below");
        expectBoundContract(t, xs, c, 0.0, "zero");
    }
}

TEST_P(OvpOracle, BoundEqualToLaneMseKeepsThatLane)
{
    const NormalType t = GetParam();
    const BoundCandidates c = boundCandidates(t, {0.2f, 0.31f, 0.05f, 0.7f});
    for (const size_t n : {15ul, 16ul, 128ul, 255ul}) {
        const auto xs = heavyTailData(n, 59 + n, 0.05);
        const std::vector<double> ref = referenceMse(t, xs, c);
        std::vector<double> out(ref.size());
        for (size_t k = 0; k < ref.size(); ++k) {
            ovpLockstepMse(t, xs, c.scales, c.thresholds, out, ref[k]);
            EXPECT_TRUE(bitEqual(out[k], ref[k]))
                << "n=" << n << " candidate " << k << ": " << out[k]
                << " vs " << ref[k];
            expectBoundContract(t, xs, c, ref[k], "equal");
            expectBoundContract(t, xs, c, std::nextafter(ref[k], 0.0),
                                "just below");
        }
    }
}

TEST_P(OvpOracle, BoundHoldsOnSubnormalAndAllOutlierRows)
{
    const NormalType t = GetParam();
    const BoundCandidates c =
        boundCandidates(t, {0.25f, 0.31f, 0x1p-140f, 0x1.8p-139f});
    std::vector<std::vector<float>> rows;
    // Subnormals only, then beside normal values: 8 pairs each.
    rows.push_back({0x1p-149f, -0x1p-149f, 0x1p-140f, -0x1.8p-139f,
                    0x1p-137f, -0x1p-136f, 0x1.4p-133f, 0x1p-130f,
                    -0x1p-145f, 0x1p-141f, 0x1.8p-138f, -0x1p-149f,
                    0x1p-139f, 0x1p-142f, -0x1.4p-135f, 0x1p-144f});
    rows.push_back({0x1p-149f, 0.3f, -0x1p-140f, -1.2f, 0x1p-137f, 0.0f,
                    -0x1p-136f, 2.5f, 0x1p-126f, -0.7f, 0x1p-145f, 0.05f,
                    -0x1.8p-139f, 9.0f, 0x1p-133f, -3.0f});
    // Every value beyond every candidate's threshold, equal-magnitude
    // pairs included: each pair prunes its victim.
    std::vector<float> outliers;
    for (size_t i = 0; i < 64; ++i) {
        const auto v = static_cast<float>(50.0 + 3.0 * (i % 17));
        outliers.push_back(i % 3 == 0 ? -v : v);
    }
    outliers[1] = -outliers[0];
    rows.push_back(outliers);

    for (const auto &row : rows) {
        for (const auto xs :
             {std::span<const float>(row),
              std::span<const float>(row).first(row.size() - 1)}) {
            const std::vector<double> ref = referenceMse(t, xs, c);
            std::vector<double> bounds = {
                0.0, std::numeric_limits<double>::infinity()};
            for (const double r : ref) {
                bounds.push_back(r);
                bounds.push_back(std::nextafter(r, 0.0));
                bounds.push_back(std::nextafter(r, 1e300));
            }
            for (const double b : bounds)
                expectBoundContract(t, xs, c, b, "row");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, OvpOracle, ::testing::ValuesIn(kAllTypes),
                         [](const auto &info) {
                             return toString(info.param);
                         });

TEST(CalibrateOracle, DecisionMatchesReferenceGrid)
{
    struct Case { OliveConfig config; u64 seed; double frac; };
    OliveConfig c4;
    OliveConfig c8;
    c8.bits = 8;
    OliveConfig forced;
    forced.adaptiveType = false;
    forced.forcedType = NormalType::Flint4;
    const Case cases[] = {
        {c4, 3, 0.01}, {c4, 4, 0.10}, {c8, 5, 0.02}, {forced, 6, 0.005},
    };
    for (const Case &tc : cases) {
        const auto xs = heavyTailData(10000, tc.seed, tc.frac, 2.0, 80.0);
        const OliveQuantizer q(tc.config);
        const QuantDecision fast = q.calibrate(xs);
        const QuantDecision ref = q.calibrateReference(xs);
        EXPECT_EQ(fast.normal, ref.normal);
        EXPECT_EQ(fast.scale, ref.scale);
        EXPECT_EQ(fast.threshold, ref.threshold);
        EXPECT_EQ(fast.mse, ref.mse);
    }
}

TEST(CalibrateOracle, DecisionMatchesReferenceOnKvRows)
{
    // The per-row shapes serving calibrates (KV rows), across outlier
    // densities and scales, plus one tensor past sampleCap.
    OliveConfig c4;
    OliveConfig c8;
    c8.bits = 8;
    OliveConfig forced;
    forced.adaptiveType = false;
    forced.forcedType = NormalType::Flint4;
    const auto expectSame = [](const QuantDecision &fast,
                               const QuantDecision &ref,
                               const std::string &what) {
        EXPECT_EQ(fast.normal, ref.normal) << what;
        EXPECT_EQ(fast.scale, ref.scale) << what;
        EXPECT_EQ(fast.threshold, ref.threshold) << what;
        EXPECT_TRUE(bitEqual(fast.mse, ref.mse)) << what;
    };
    size_t rows = 0;
    u64 seed = 1000;
    for (const OliveConfig &config : {c4, c8, forced}) {
        const OliveQuantizer q(config);
        for (const size_t d : {1ul, 2ul, 127ul, 128ul, 256ul}) {
            for (size_t r = 0; r < 70; ++r) {
                const double frac = (r % 4) * 0.04;
                const double sigma = 0.01 * static_cast<double>(1 + r % 7);
                const auto xs =
                    heavyTailData(d, ++seed, frac, sigma, 60.0 * sigma);
                expectSame(q.calibrate(xs), q.calibrateReference(xs),
                           "bits=" + std::to_string(config.bits) +
                               " d=" + std::to_string(d) +
                               " seed=" + std::to_string(seed));
                ++rows;
            }
        }
        const auto big = heavyTailData(config.sampleCap * 2 + 6, ++seed);
        expectSame(q.calibrate(big), q.calibrateReference(big),
                   "past sampleCap");
    }
    EXPECT_GE(rows, 1000u);
}

TEST(CalibrateOracle, EqualMseTieKeepsEarliestCandidate)
{
    // A threshold sweep narrower than a float ulp of the scale: every
    // grid point of a type shares one scale and, with no value between
    // the thresholds, one MSE.  Middle-out scoring meets the middle
    // group first, yet the first grid point must still win.
    OliveConfig config;
    config.searchLo = 1.0;
    config.searchHi = 1.0 + 0x1p-30;
    const OliveQuantizer q(config);
    const size_t points = static_cast<size_t>(config.searchPoints);
    size_t ties = 0;
    for (u64 seed = 70; seed < 90; ++seed) {
        const auto xs = heavyTailData(128, seed, 0.04);
        const QuantDecision fast = q.calibrate(xs);
        const QuantDecision ref = q.calibrateReference(xs);
        EXPECT_EQ(fast.normal, ref.normal) << "seed=" << seed;
        EXPECT_EQ(fast.threshold, ref.threshold) << "seed=" << seed;
        EXPECT_EQ(fast.scale, ref.scale) << "seed=" << seed;
        EXPECT_TRUE(bitEqual(fast.mse, ref.mse)) << "seed=" << seed;
        // Count the rows that really tie: the winner's threshold is the
        // sweep's first (t0 * searchLo = t0), and the middle group of
        // its type (points 12..15) scores the same MSE.
        bool tie = true;
        for (size_t i = 12; i < 16; ++i) {
            const double mult =
                config.searchLo *
                std::pow(config.searchHi / config.searchLo,
                         static_cast<double>(i) /
                             static_cast<double>(points - 1));
            const double thr = ref.threshold * mult;
            const auto scale =
                static_cast<float>(thr / maxNormalMagnitude(ref.normal));
            const OvpCodec codec(ref.normal, scale, thr);
            tie = tie && thr != ref.threshold &&
                  bitEqual(stats::mse(xs, codec.fakeQuantReference(xs)),
                           ref.mse);
        }
        ties += tie ? 1 : 0;
    }
    EXPECT_GE(ties, 10u);
}

TEST(CalibrateOracle, TopLevelDecisionMatchesReferenceAtOneAndFourThreads)
{
    // At the top level, calibrate() scores its groups in parallel with
    // a bound the tasks share, so which passes stop early depends on
    // timing; the decision must not.
    OliveConfig c4;
    OliveConfig c8;
    c8.bits = 8;
    for (const size_t threads : {1ul, 4ul}) {
        par::setThreadCount(threads);
        u64 seed = 2000;
        for (const OliveConfig &config : {c4, c8}) {
            const OliveQuantizer q(config);
            for (const size_t d : {2ul, 128ul, 10000ul}) {
                for (size_t r = 0; r < (d > 128 ? 2 : 20); ++r) {
                    const auto xs =
                        heavyTailData(d, ++seed, (r % 4) * 0.03, 0.1, 8.0);
                    const QuantDecision fast = q.calibrate(xs);
                    const QuantDecision ref = q.calibrateReference(xs);
                    const std::string what =
                        "threads=" + std::to_string(threads) +
                        " seed=" + std::to_string(seed);
                    EXPECT_EQ(fast.normal, ref.normal) << what;
                    EXPECT_EQ(fast.scale, ref.scale) << what;
                    EXPECT_EQ(fast.threshold, ref.threshold) << what;
                    EXPECT_TRUE(bitEqual(fast.mse, ref.mse)) << what;
                }
            }
        }
    }
    par::setThreadCount(0);
}

TEST(CalibrateOracle, PercentileSelectionMatchesSortedDefinition)
{
    // stats::percentile switched from a full sort to nth_element-based
    // selection; the interpolated value must be unchanged.
    Rng rng(11);
    for (const size_t n : {1ul, 2ul, 17ul, 1000ul}) {
        std::vector<float> xs(n);
        for (auto &v : xs)
            v = static_cast<float>(rng.gaussian());
        std::vector<float> sorted(xs);
        std::sort(sorted.begin(), sorted.end());
        for (const double p : {0.0, 17.5, 50.0, 99.0, 100.0}) {
            const double rank = p / 100.0 * static_cast<double>(n - 1);
            const size_t lo = static_cast<size_t>(rank);
            const size_t hi = std::min(lo + 1, n - 1);
            const double frac = rank - static_cast<double>(lo);
            const double expect =
                sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
            EXPECT_EQ(stats::percentile(xs, p), expect)
                << "n=" << n << " p=" << p;
        }
    }
}

TEST(CalibrateOracle, PercentileSelectionMatchesSortedOnTiesAndRuns)
{
    // The selection partitions three ways around median-of-three
    // pivots; ties, constant, sorted and reversed inputs exercise the
    // equal-to-pivot band and the rounds that shrink one side only.
    Rng rng(12);
    for (int mode = 0; mode < 5; ++mode) {
        for (const size_t n : {1ul, 2ul, 3ul, 8ul, 127ul, 128ul, 1000ul}) {
            std::vector<float> xs(n);
            for (size_t i = 0; i < n; ++i) {
                const auto g = static_cast<float>(rng.gaussian());
                const float by_mode[] = {
                    std::round(2.0f * g), 1.0f, static_cast<float>(i),
                    static_cast<float>(n - i), i % 3 ? g : 0.0f};
                xs[i] = by_mode[mode];
            }
            std::vector<float> sorted(xs);
            std::sort(sorted.begin(), sorted.end());
            for (const double p : {0.0, 1.0, 50.0, 63.0, 99.0, 100.0}) {
                const double rank = p / 100.0 * static_cast<double>(n - 1);
                const size_t lo = static_cast<size_t>(rank);
                const size_t hi = std::min(lo + 1, n - 1);
                const double frac = rank - static_cast<double>(lo);
                const double expect =
                    sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
                EXPECT_EQ(stats::percentile(xs, p), expect)
                    << "mode=" << mode << " n=" << n << " p=" << p;
            }
        }
    }
    // A NaN pivot never splits a range: the selection must fall back to
    // nth_element rather than spin.
    const std::vector<float> nans(9, std::nanf(""));
    EXPECT_TRUE(std::isnan(stats::percentile(nans, 50.0)));
}

namespace gemm_oracle {

Tensor
randomTensor(std::initializer_list<size_t> shape, u64 seed)
{
    Tensor t(shape);
    Rng rng(seed);
    for (auto &v : t.data())
        v = static_cast<float>(rng.gaussian());
    return t;
}

bool
bitEqualTensor(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

} // namespace gemm_oracle

TEST(GemmOracle, TiledMatmulMatchesReference)
{
    using namespace gemm_oracle;
    // Shapes cover ragged row tiles and column pairs, the l tail
    // (k % 4 != 0), and the parallel row chunking.
    const size_t shapes[][3] = {
        {1, 1, 1}, {3, 5, 2}, {7, 13, 9}, {16, 64, 16},
        {33, 65, 17}, {64, 64, 64}, {65, 100, 130},
    };
    for (const auto &s : shapes) {
        const Tensor a = randomTensor({s[0], s[1]}, 7 * s[0] + s[2]);
        const Tensor b = randomTensor({s[1], s[2]}, 13 * s[1] + s[0]);
        EXPECT_TRUE(bitEqualTensor(matmul(a, b), matmulReference(a, b)))
            << s[0] << "x" << s[1] << "x" << s[2];
    }
}

TEST(GemmOracle, TransposedMatmulMatchesReference)
{
    using namespace gemm_oracle;
    const size_t shapes[][3] = {
        {1, 1, 1}, {3, 5, 2}, {7, 13, 9}, {16, 64, 16},
        {33, 65, 17}, {64, 64, 64}, {65, 100, 130},
    };
    for (const auto &s : shapes) {
        const Tensor a = randomTensor({s[0], s[1]}, 3 * s[0] + s[2]);
        const Tensor b = randomTensor({s[2], s[1]}, 5 * s[1] + s[0]);
        EXPECT_TRUE(bitEqualTensor(matmulTransB(a, b),
                                   matmulTransBReference(a, b)))
            << s[0] << "x" << s[1] << "x" << s[2];
    }
}

TEST(GemmOracle, BothMatmulPathsAgreeOnTransposedInputs)
{
    using namespace gemm_oracle;
    const Tensor a = randomTensor({33, 50}, 1);
    const Tensor b = randomTensor({50, 29}, 2);
    // Manual transpose of b for the TransB path.
    Tensor bt({29, 50});
    for (size_t i = 0; i < 50; ++i)
        for (size_t j = 0; j < 29; ++j)
            bt.at(j, i) = b.at(i, j);
    EXPECT_TRUE(bitEqualTensor(matmul(a, b), matmulTransB(a, bt)));
}

TEST(GemmOracle, LinearForwardMatchesReferencePlusBias)
{
    using namespace gemm_oracle;
    const size_t m = 21, k = 40, n = 35;
    const Tensor a = randomTensor({m, k}, 3);
    const Tensor w = randomTensor({n, k}, 4);
    const Tensor bias = randomTensor({n}, 5);
    const Tensor fast = linearForward(a, w, bias);
    Tensor ref = matmulTransBReference(a, w);
    for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < n; ++j)
            ref.at(i, j) += bias[j];
    EXPECT_TRUE(bitEqualTensor(fast, ref));
}

/**
 * Oracle-checks both row-dot entry points on one (m, k, n) shape:
 * matmulTransB against matmulTransBReference and linearForward against
 * the reference plus a float bias add, bytewise.
 */
void
expectRowDotMatchesReference(size_t m, size_t k, size_t n)
{
    using namespace gemm_oracle;
    const Tensor a = randomTensor({m, k}, 11 * m + k);
    const Tensor w = randomTensor({n, k}, 17 * n + k);
    const Tensor bias = randomTensor({n}, 19 * n + m);
    Tensor ref = matmulTransBReference(a, w);
    EXPECT_TRUE(bitEqualTensor(matmulTransB(a, w), ref))
        << "matmulTransB m=" << m << " k=" << k << " n=" << n;
    for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < n; ++j)
            ref.at(i, j) += bias[j];
    EXPECT_TRUE(bitEqualTensor(linearForward(a, w, bias), ref))
        << "linearForward m=" << m << " k=" << k << " n=" << n;
}

TEST(GemmOracle, RowDotServingShapesMatchReference)
{
    // The (n, k) weight shapes the GPT2-XL evaluation backbone serves
    // (d x d projections, both feed-forward matrices, the vocab head)
    // at every row-tile split: 1..5 rows, whole and ragged 8-row tiles,
    // and across the 64-row parallel chunk boundary.
    const size_t weights[][2] = {{128, 128}, {256, 128}, {128, 256},
                                 {1024, 128}};
    for (const auto &nk : weights)
        for (const size_t m : {1, 2, 3, 4, 5, 8, 31, 32, 33, 65, 130})
            expectRowDotMatchesReference(m, nk[1], nk[0]);
}

TEST(GemmOracle, RowDotRaggedTailsMatchReference)
{
    // n % 4 != 0 and odd n (the column-pair tail repeats its last
    // column), k % 4 != 0 (the scalar l tail) and k = 1.
    const size_t shapes[][3] = {
        {1, 1, 1}, {2, 1, 7}, {9, 1, 3}, {1, 3, 5}, {3, 7, 9}, {8, 13, 6},
        {5, 129, 10}, {17, 31, 131}, {64, 5, 63}, {70, 66, 2},
        {13, 255, 11},
    };
    for (const auto &s : shapes)
        expectRowDotMatchesReference(s[0], s[1], s[2]);
}

TEST(GemmOracle, ColumnSplitMatchesReference)
{
    // A single row chunk with enough work splits its columns over a
    // multi-thread pool when called at the top level.  Pin a 4-thread
    // pool so the split runs under every OLIVE_THREADS leg; ragged
    // column blocks, odd n and 1..64 rows included.
    par::setThreadCount(4);
    const size_t shapes[][3] = {
        {1, 256, 1024}, {5, 129, 1000}, {7, 128, 257}, {32, 128, 128},
        {33, 131, 95}, {64, 128, 255},
    };
    for (const auto &s : shapes)
        expectRowDotMatchesReference(s[0], s[1], s[2]);
    par::setThreadCount(0);
}

TEST(GemmOracle, RowDotKeepsAscendingOrderUnderCancellation)
{
    // Gaussian data is nearly order-blind at float precision: the
    // double accumulator hides a reordering in bits the float output
    // drops.  Here every third l pair (p, p + 1) adds and then exactly
    // cancels a 2^36-sized product, rounding the running sum to a
    // coarse grid at that point, so moving any term across a pair (a
    // split or reversed reduction, a misordered l tail) shows in the
    // float result.
    using namespace gemm_oracle;
    const size_t shapes[][3] = {
        {1, 7, 5}, {2, 30, 9}, {5, 31, 8},
        {8, 129, 17}, {9, 66, 4}, {33, 128, 128},
    };
    for (const auto &s : shapes) {
        const size_t m = s[0], k = s[1], n = s[2];
        Tensor a = randomTensor({m, k}, 23 * m + k);
        Tensor w = randomTensor({n, k}, 29 * n + k);
        for (size_t p = 0; p + 1 < k; p += 3) {
            for (size_t j = 0; j < n; ++j)
                w.at(j, p + 1) = w.at(j, p);
            for (size_t i = 0; i < m; ++i) {
                a.at(i, p) = (i + p) % 2 ? 0x1p36f : -0x1p36f;
                a.at(i, p + 1) = -a.at(i, p);
            }
        }
        EXPECT_TRUE(bitEqualTensor(matmulTransB(a, w),
                                   matmulTransBReference(a, w)))
            << m << "x" << k << "x" << n;
    }
}

TEST(GemmOracle, ParallelAxpyMatchesSerialLoop)
{
    using namespace gemm_oracle;
    for (const size_t n : {1ul, 255ul, 100000ul}) {
        Tensor fast({n});
        Tensor ref({n});
        const Tensor add = randomTensor({n}, 6 + n);
        {
            Rng rng(9);
            for (size_t i = 0; i < n; ++i) {
                const auto v = static_cast<float>(rng.gaussian());
                fast[i] = v;
                ref[i] = v;
            }
        }
        axpy(fast, add, 0.73f);
        for (size_t i = 0; i < n; ++i)
            ref[i] += 0.73f * add[i];
        EXPECT_TRUE(bitEqualTensor(fast, ref)) << "n=" << n;
    }
}

} // namespace
} // namespace olive
