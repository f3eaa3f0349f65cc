#include "ovp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "util/bitops.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace {

/** Pairs per parallelFor chunk in the codec/census loops. */
constexpr size_t kPairGrain = 8192;

} // namespace

namespace olive {

int
defaultAbfloatBias(NormalType t)
{
    // Chosen so the abfloat range starts just above the normal range
    // (Sec. 3.3): int4 max 7 -> E2M1 bias 2 covers {12..96}; flint4 max
    // 16 -> bias 3 covers {24..192}; int8 max 127 -> E4M3 bias 4 starts
    // at 144.
    switch (t) {
      case NormalType::Int4:
        return 2;
      case NormalType::Flint4:
        return 3;
      case NormalType::Int8:
        return 4;
    }
    OLIVE_PANIC("unknown NormalType");
}

AbFloat
outlierTypeFor(NormalType t, int bias)
{
    const int b = (bias < 0) ? defaultAbfloatBias(t) : bias;
    return (t == NormalType::Int8) ? AbFloat::e4m3(b) : AbFloat::e2m1(b);
}

double
PairCensus::normalNormalPct() const
{
    return total() ? 100.0 * static_cast<double>(normalNormal) /
                         static_cast<double>(total())
                   : 0.0;
}

double
PairCensus::outlierNormalPct() const
{
    return total() ? 100.0 * static_cast<double>(outlierNormal) /
                         static_cast<double>(total())
                   : 0.0;
}

double
PairCensus::outlierOutlierPct() const
{
    return total() ? 100.0 * static_cast<double>(outlierOutlier) /
                         static_cast<double>(total())
                   : 0.0;
}

PairCensus
pairCensus(std::span<const float> xs, double k_sigma)
{
    PairCensus c;
    if (xs.empty())
        return c;
    const double m = stats::mean(xs);
    const double sigma = stats::stddev(xs);
    const double limit = k_sigma * sigma;
    // A trailing lone value zero-pads into a pair exactly as
    // OvpCodec::encode does, so census totals match the codec's pair
    // count for the same tensor.
    const size_t pairs = (xs.size() + 1) / 2;
    const size_t chunks = par::chunkCount(0, pairs, kPairGrain);
    std::vector<PairCensus> partial(chunks);
    par::parallelFor(0, pairs, kPairGrain, [&](size_t pb, size_t pe) {
        PairCensus local;
        for (size_t p = pb; p < pe; ++p) {
            const float v1 = xs[2 * p];
            const bool has2 = 2 * p + 1 < xs.size();
            const bool o1 = std::fabs(v1 - m) > limit;
            // The pad is always a normal value, as in the codec (a
            // zero can never exceed the positive outlier threshold) —
            // it must not register as an outlier just because the
            // tensor's mean is far from zero.
            const bool o2 =
                has2 && std::fabs(xs[2 * p + 1] - m) > limit;
            if (o1 && o2)
                ++local.outlierOutlier;
            else if (o1 || o2)
                ++local.outlierNormal;
            else
                ++local.normalNormal;
        }
        partial[par::chunkIndex(0, kPairGrain, pb)] = local;
    });
    for (const PairCensus &p : partial) {
        c.normalNormal += p.normalNormal;
        c.outlierNormal += p.outlierNormal;
        c.outlierOutlier += p.outlierOutlier;
    }
    return c;
}

namespace {

/**
 * Scale-independent outlier-side tables of one abfloat format: the
 * decoded value of every code and the encode boundary/code tables with
 * their bit-exact verification against AbFloat::encode.  Building them
 * is the expensive part of OvpCodec construction (hundreds of abfloat
 * encodes for E4M3), so they are built once per (normal type, bias)
 * key for the life of the process and every codec points into them.
 */
struct OutlierTables
{
    u32 sign = 0;                    //!< Sign bit of the code space.
    std::array<double, 256> decoded{}; //!< abfloat_.decode(code).
    std::vector<double> mags;        //!< Nonzero magnitudes, ascending.
    std::vector<double> bounds;      //!< Magnitude midpoints.
    std::vector<u32> codes;          //!< Code per magnitude interval.
};

std::unique_ptr<const OutlierTables>
buildOutlierTables(NormalType normal, const AbFloat &abfloat)
{
    auto tabs = std::make_unique<OutlierTables>();
    const u32 identifier = outlierIdentifier(normal);
    const u32 n_codes = 1u << bitWidth(normal);
    for (u32 code = 0; code < n_codes; ++code)
        tabs->decoded[code] = abfloat.decode(code);

    // Outlier encode boundary table.  AbFloat::encode is a monotone
    // step function of the magnitude (round-to-nearest on the abfloat
    // grid, saturating at both ends); its switch points are the
    // midpoints between consecutive distinct representable magnitudes,
    // with ties rounding away from zero (llround).  All magnitudes are
    // integers times powers of two, so every midpoint is an exact
    // double and the step positions are verified exactly below.
    tabs->sign =
        1u << (static_cast<u32>(abfloat.expBits() + abfloat.mantBits()));
    // The value table is ascending and deduplicated; drop the leading
    // zero (the all-zeros code is never produced for outliers).
    for (i64 v : abfloat.unsignedValueTable()) {
        if (v > 0)
            tabs->mags.push_back(static_cast<double>(v));
    }
    const std::vector<double> &vals = tabs->mags;
    OLIVE_ASSERT(!vals.empty(), "empty abfloat magnitude table");
    tabs->codes.reserve(vals.size());
    for (double v : vals)
        tabs->codes.push_back(abfloat.encode(v));
    tabs->bounds.reserve(vals.size() - 1);
    for (size_t i = 0; i + 1 < vals.size(); ++i) {
        const double mid = (vals[i] + vals[i + 1]) / 2.0;
        tabs->bounds.push_back(mid);
        // Verify the step position bit-exactly: at the midpoint the
        // reference rounds up (away from zero); just below it rounds
        // down.
        OLIVE_ASSERT(abfloat.encode(mid) == tabs->codes[i + 1],
                     "abfloat midpoint must round up");
        OLIVE_ASSERT(abfloat.encode(std::nextafter(mid, 0.0)) ==
                         tabs->codes[i],
                     "abfloat below-midpoint must round down");
    }
    // Below-range magnitudes saturate up to the smallest nonzero code
    // and the codes can never collide with the identifier.
    OLIVE_ASSERT(abfloat.encode(vals.front() / 4.0) == tabs->codes[0],
                 "abfloat below-range must saturate to the minimum");
    for (u32 code : tabs->codes) {
        OLIVE_ASSERT(code != identifier && (code | tabs->sign) != identifier,
                     "outlier code must not be the identifier");
    }
    return tabs;
}

/**
 * The tables of @p normal's abfloat at @p bias.  Built on first use
 * under std::call_once and immutable afterwards, so concurrent codec
 * construction needs no lock after warm-up and a codec's table
 * pointers stay valid on any thread for the life of the process.
 */
const OutlierTables &
outlierTablesFor(NormalType normal, const AbFloat &abfloat)
{
    constexpr size_t kBiases = 41; // AbFloat asserts bias in [0, 40]
    constexpr size_t kKeys = 3 * kBiases;
    static std::array<std::once_flag, kKeys> once;
    static std::array<std::unique_ptr<const OutlierTables>, kKeys> tables;
    const size_t key = static_cast<size_t>(normal) * kBiases +
                       static_cast<size_t>(abfloat.bias());
    OLIVE_ASSERT(key < kKeys, "abfloat bias out of range");
    std::call_once(once[key], [&] {
        tables[key] = buildOutlierTables(normal, abfloat);
    });
    return *tables[key];
}

} // namespace

OvpCodec::OvpCodec(NormalType normal, float scale, double threshold,
                   int abfloat_bias)
    : normal_(normal),
      codec_(NormalCodec::shared(normal)),
      abfloat_(outlierTypeFor(normal, abfloat_bias)),
      scale_(scale),
      threshold_(threshold),
      identifier_(outlierIdentifier(normal))
{
    OLIVE_ASSERT(scale_ > 0.0f, "OVP scale must be positive");
    OLIVE_ASSERT(threshold_ > 0.0, "OVP threshold must be positive");

    const OutlierTables &tabs = outlierTablesFor(normal_, abfloat_);
    // Decoded real value of every code under the fixed scale, using
    // exactly the reference decode expressions so LUT lookups are
    // bit-identical to decodePairReference.
    const u32 n_codes = 1u << bitWidth(normal_);
    for (u32 code = 0; code < n_codes; ++code) {
        if (code != identifier_)
            normalValue_[code] = codec_.decode(code, scale_);
        outlierValue_[code] =
            static_cast<float>(tabs.decoded[code]) * scale_;
    }
    outlierSign_ = tabs.sign;
    outlierBounds_ = tabs.bounds;
    outlierCodes_ = tabs.codes;
}

size_t
OvpCodec::bytesPerPair() const
{
    return bytesPerPair(normal_);
}

size_t
OvpCodec::bytesPerPair(NormalType t)
{
    return bitWidth(t) == 4 ? 1 : 2;
}

template <bool kReference>
u32
OvpCodec::quantizeOutlierImpl(float val) const
{
    // Outliers quantize on the same integer grid as normals; the
    // accumulator-overflow rule of Sec. 4.5 clips the grid magnitude to
    // 2^15 (never reached in practice: the largest observed outliers sit
    // around 325 sigma ~ 768 grid units).
    double grid = static_cast<double>(val) / scale_;
    constexpr double kClip = 32768.0; // 2^15
    grid = std::clamp(grid, -kClip, kClip);
    if constexpr (kReference) {
        const u32 code = abfloat_.encode(grid);
        // Abfloat never emits +-0, so it can never collide with the
        // identifier (which is the -0 bit pattern of both widths).
        OLIVE_ASSERT(code != identifier_,
                     "outlier code must not be the identifier");
        return code;
    } else {
        // Boundary count instead of Algorithm 2's log2/round sequence;
        // the table construction verified the step positions against
        // the reference encoder, and the codes were screened against
        // the identifier once at construction.
        const double mag = std::fabs(grid);
        size_t idx;
        if (outlierBounds_.size() <= 16) {
            size_t n_above = 0;
            for (double b : outlierBounds_)
                n_above += (mag >= b) ? 1u : 0u;
            idx = n_above;
        } else {
            idx = static_cast<size_t>(
                std::upper_bound(outlierBounds_.begin(),
                                 outlierBounds_.end(), mag) -
                outlierBounds_.begin());
        }
        const u32 code = outlierCodes_[idx];
        return (grid < 0.0) ? (code | outlierSign_) : code;
    }
}

u32
OvpCodec::quantizeOutlier(float val) const
{
    return quantizeOutlierImpl<false>(val);
}

u32
OvpCodec::quantizeOutlierReference(float val) const
{
    return quantizeOutlierImpl<true>(val);
}

template <bool kReference>
PairRole
OvpCodec::encodePairImpl(float val1, float val2, u32 &out1, u32 &out2) const
{
    const double a1 = std::fabs(val1);
    const double a2 = std::fabs(val2);
    const bool o1 = a1 > threshold_;
    const bool o2 = a2 > threshold_;

    if (o1 && a1 >= a2) {
        // Left outlier: the right value is sacrificed as the victim.
        out1 = quantizeOutlierImpl<kReference>(val1);
        out2 = identifier_;
        return o2 ? PairRole::PrunedOutlier : PairRole::OutlierVictim;
    }
    if (o2) {
        // Right outlier: the left value is the victim.  If the left
        // value was itself an outlier (o1, but smaller), it is pruned.
        out1 = identifier_;
        out2 = quantizeOutlierImpl<kReference>(val2);
        return o1 ? PairRole::PrunedOutlier : PairRole::OutlierVictim;
    }
    if constexpr (kReference) {
        out1 = codec_.encodeReference(val1, scale_);
        out2 = codec_.encodeReference(val2, scale_);
    } else {
        out1 = codec_.encode(val1, scale_);
        out2 = codec_.encode(val2, scale_);
    }
    return PairRole::NormalNormal;
}

PairRole
OvpCodec::encodePair(float val1, float val2, u32 &out1, u32 &out2) const
{
    return encodePairImpl<false>(val1, val2, out1, out2);
}

PairRole
OvpCodec::encodePairReference(float val1, float val2, u32 &out1,
                              u32 &out2) const
{
    return encodePairImpl<true>(val1, val2, out1, out2);
}

void
OvpCodec::decodePair(u32 in1, u32 in2, float &val1, float &val2) const
{
    OLIVE_ASSERT(!(in1 == identifier_ && in2 == identifier_),
                 "both slots cannot hold the identifier");
    if (in1 == identifier_) {
        val1 = 0.0f;
        val2 = outlierValue_[in2];
    } else if (in2 == identifier_) {
        val1 = outlierValue_[in1];
        val2 = 0.0f;
    } else {
        val1 = normalValue_[in1];
        val2 = normalValue_[in2];
    }
}

void
OvpCodec::decodePairReference(u32 in1, u32 in2, float &val1,
                              float &val2) const
{
    OLIVE_ASSERT(!(in1 == identifier_ && in2 == identifier_),
                 "both slots cannot hold the identifier");
    if (in1 == identifier_) {
        val1 = 0.0f;
        val2 = static_cast<float>(abfloat_.decode(in2)) * scale_;
    } else if (in2 == identifier_) {
        val1 = static_cast<float>(abfloat_.decode(in1)) * scale_;
        val2 = 0.0f;
    } else {
        val1 = codec_.decode(in1, scale_);
        val2 = codec_.decode(in2, scale_);
    }
}

std::vector<u8>
OvpCodec::encode(std::span<const float> xs, OvpStats *stats) const
{
    std::vector<u8> out((xs.size() + 1) / 2 * bytesPerPair());
    encodeInto(xs, out, stats);
    return out;
}

void
OvpCodec::encodeInto(std::span<const float> xs, std::span<u8> out,
                     OvpStats *stats) const
{
    const size_t pairs = (xs.size() + 1) / 2;
    OLIVE_ASSERT(out.size() == pairs * bytesPerPair(),
                 "encode target must hold exactly the packed pairs");
    const bool nibble_packed = bytesPerPair() == 1;

    // Pairs encode independently into disjoint output bytes; the stats
    // counters reduce from per-chunk partials in chunk order, so both
    // the byte stream and the counts are thread-count invariant.
    const size_t chunks = par::chunkCount(0, pairs, kPairGrain);
    std::vector<OvpStats> partial(stats ? chunks : 0);
    const auto body = [&](size_t pb, size_t pe) {
        OvpStats st;
        for (size_t p = pb; p < pe; ++p) {
            const float v1 = xs[2 * p];
            const float v2 =
                (2 * p + 1 < xs.size()) ? xs[2 * p + 1] : 0.0f;
            u32 c1, c2;
            const PairRole role = encodePair(v1, v2, c1, c2);

            if (role != PairRole::NormalNormal) {
                ++st.outlierPairs;
                if (role == PairRole::PrunedOutlier)
                    ++st.prunedOutliers;
            }

            if (nibble_packed) {
                // Low nibble holds the first (left) element so a byte
                // read yields the pair in order.
                out[p] = bits::packNibbles(static_cast<u8>(c2),
                                           static_cast<u8>(c1));
            } else {
                out[2 * p] = static_cast<u8>(c1);
                out[2 * p + 1] = static_cast<u8>(c2);
            }
        }
        if (stats)
            partial[par::chunkIndex(0, kPairGrain, pb)] = st;
    };
    // A reference_wrapper fits std::function's inline storage, so the
    // region itself allocates nothing.
    par::parallelFor(0, pairs, kPairGrain, std::cref(body));

    if (stats) {
        OvpStats total;
        total.pairs = pairs;
        for (const OvpStats &st : partial) {
            total.outlierPairs += st.outlierPairs;
            total.prunedOutliers += st.prunedOutliers;
        }
        *stats = total;
    }
}

std::vector<float>
OvpCodec::decode(std::span<const u8> bytes, size_t count) const
{
    std::vector<float> out(count);
    decodeInto(bytes, out);
    return out;
}

void
OvpCodec::decodeInto(std::span<const u8> bytes, std::span<float> out) const
{
    const size_t count = out.size();
    const size_t pairs = (count + 1) / 2;
    OLIVE_ASSERT(bytes.size() >= pairs * bytesPerPair(),
                 "decode stream too short");
    const bool nibble_packed = bytesPerPair() == 1;
    const auto body = [&](size_t pb, size_t pe) {
        for (size_t p = pb; p < pe; ++p) {
            u32 c1, c2;
            if (nibble_packed) {
                c1 = bits::lowNibble(bytes[p]);
                c2 = bits::highNibble(bytes[p]);
            } else {
                c1 = bytes[2 * p];
                c2 = bytes[2 * p + 1];
            }
            float v1, v2;
            decodePair(c1, c2, v1, v2);
            out[2 * p] = v1;
            if (2 * p + 1 < count)
                out[2 * p + 1] = v2;
        }
    };
    // A reference_wrapper fits std::function's inline storage, so the
    // region itself allocates nothing.
    par::parallelFor(0, pairs, kPairGrain, std::cref(body));
}

std::vector<float>
OvpCodec::fakeQuant(std::span<const float> xs, OvpStats *stats) const
{
    // Fused value -> codes -> value pass: no byte stream, no second
    // sweep.  Codes are exactly what encode() would pack and decodePair
    // is the same table decode() uses, so the output floats and the
    // stats are bit-identical to decode(encode(xs), xs.size()).
    const size_t pairs = (xs.size() + 1) / 2;
    std::vector<float> out(xs.size());
    const size_t chunks = par::chunkCount(0, pairs, kPairGrain);
    std::vector<OvpStats> partial(stats ? chunks : 0);
    par::parallelFor(0, pairs, kPairGrain, [&](size_t pb, size_t pe) {
        OvpStats st;
        for (size_t p = pb; p < pe; ++p) {
            const float v1 = xs[2 * p];
            const bool has2 = 2 * p + 1 < xs.size();
            const float v2 = has2 ? xs[2 * p + 1] : 0.0f;
            u32 c1, c2;
            const PairRole role = encodePair(v1, v2, c1, c2);
            if (role != PairRole::NormalNormal) {
                ++st.outlierPairs;
                if (role == PairRole::PrunedOutlier)
                    ++st.prunedOutliers;
            }
            float q1, q2;
            decodePair(c1, c2, q1, q2);
            out[2 * p] = q1;
            if (has2)
                out[2 * p + 1] = q2;
        }
        if (stats)
            partial[par::chunkIndex(0, kPairGrain, pb)] = st;
    });
    if (stats) {
        OvpStats total;
        total.pairs = pairs;
        for (const OvpStats &st : partial) {
            total.outlierPairs += st.outlierPairs;
            total.prunedOutliers += st.prunedOutliers;
        }
        *stats = total;
    }
    return out;
}

std::vector<float>
OvpCodec::fakeQuantReference(std::span<const float> xs,
                             OvpStats *stats) const
{
    // The pre-LUT round trip: search-based normal encode into a packed
    // byte stream, then a second per-scalar decode sweep.  Serial on
    // purpose — it is the single-thread "before" baseline the micro
    // benchmark compares against, and the oracle the tests hold
    // fakeQuant() to.
    const size_t pairs = (xs.size() + 1) / 2;
    const bool nibble_packed = bytesPerPair() == 1;
    std::vector<u8> bytes(pairs * bytesPerPair());
    OvpStats st;
    st.pairs = pairs;
    for (size_t p = 0; p < pairs; ++p) {
        const float v1 = xs[2 * p];
        const float v2 = (2 * p + 1 < xs.size()) ? xs[2 * p + 1] : 0.0f;
        u32 c1, c2;
        const PairRole role = encodePairReference(v1, v2, c1, c2);
        if (role != PairRole::NormalNormal) {
            ++st.outlierPairs;
            if (role == PairRole::PrunedOutlier)
                ++st.prunedOutliers;
        }
        if (nibble_packed) {
            bytes[p] = bits::packNibbles(static_cast<u8>(c2),
                                         static_cast<u8>(c1));
        } else {
            bytes[2 * p] = static_cast<u8>(c1);
            bytes[2 * p + 1] = static_cast<u8>(c2);
        }
    }
    std::vector<float> out(xs.size());
    for (size_t p = 0; p < pairs; ++p) {
        u32 c1, c2;
        if (nibble_packed) {
            c1 = bits::lowNibble(bytes[p]);
            c2 = bits::highNibble(bytes[p]);
        } else {
            c1 = bytes[2 * p];
            c2 = bytes[2 * p + 1];
        }
        float v1, v2;
        decodePairReference(c1, c2, v1, v2);
        out[2 * p] = v1;
        if (2 * p + 1 < xs.size())
            out[2 * p + 1] = v2;
    }
    if (stats)
        *stats = st;
    return out;
}

namespace {

/**
 * Candidates one lockstep pass scores side by side.  A pass stops early
 * only once all of its lanes are past the bound, so narrow passes stop
 * sooner; four lanes also split the 28-point grid into full passes.
 */
constexpr size_t kLockstepWidth = 4;

/** Pairs between two checks of a pass's running sums against the bound. */
constexpr size_t kBoundPairs = 8;

/** Midpoints of the flint4 grid, pre-scaled per lane. */
constexpr size_t kFlintMids = 7;

/**
 * Scale-free value grid of one normal type and its default-bias
 * abfloat, as the lockstep scorer sees it: a value quantizes to the
 * magnitude whose interval between consecutive midpoints holds it.
 */
struct LockstepGrid
{
    std::vector<double> normalMags;  //!< 0 .. max normal, ascending.
    std::vector<double> normalMids;  //!< Midpoints of normalMags.
    std::vector<double> outlierMags; //!< Nonzero abfloat magnitudes.
    /**
     * Their midpoints up to 2^15, then +inf up to 2^k - 1 entries, so
     * the outlier search is k fixed, branch-free halvings.
     */
    std::vector<double> outlierMids;
    size_t outlierMidCount = 0; //!< Midpoints before the +inf padding.
    size_t outlierTopStep = 0;  //!< 2^(k-1), the search's first step.
};

LockstepGrid
buildLockstepGrid(NormalType t)
{
    LockstepGrid g;
    for (int v : valueTable(t)) {
        if (v >= 0)
            g.normalMags.push_back(v);
    }
    g.normalMids.reserve(g.normalMags.size() - 1);
    for (size_t i = 0; i + 1 < g.normalMags.size(); ++i)
        g.normalMids.push_back((g.normalMags[i] + g.normalMags[i + 1]) / 2);
    const OutlierTables &tabs = outlierTablesFor(t, outlierTypeFor(t));
    g.outlierMags = tabs.mags;
    // The 2^15 grid clip caps an outlier's magnitude before rounding,
    // so a midpoint beyond it is never reached.
    for (double b : tabs.bounds) {
        if (b <= 32768.0)
            g.outlierMids.push_back(b);
    }
    g.outlierMidCount = g.outlierMids.size();
    g.outlierTopStep = std::bit_ceil(g.outlierMidCount + 1) / 2;
    g.outlierMids.resize(2 * g.outlierTopStep - 1,
                         std::numeric_limits<double>::infinity());
    OLIVE_ASSERT(g.outlierMags.size() > g.outlierMidCount,
                 "one more outlier magnitude than midpoints");
    OLIVE_ASSERT(t != NormalType::Flint4 ||
                     g.normalMids.size() == kFlintMids,
                 "unexpected flint4 grid size");
    return g;
}

const LockstepGrid &
lockstepGrid(NormalType t)
{
    static const LockstepGrid int4 = buildLockstepGrid(NormalType::Int4);
    static const LockstepGrid flint4 =
        buildLockstepGrid(NormalType::Flint4);
    static const LockstepGrid int8 = buildLockstepGrid(NormalType::Int8);
    switch (t) {
      case NormalType::Int4:
        return int4;
      case NormalType::Flint4:
        return flint4;
      case NormalType::Int8:
        return int8;
    }
    OLIVE_PANIC("unknown NormalType");
}

// Two double lanes: the baseline vector width of x86-64 and AArch64
// (GCC/Clang vector extensions, no -march).
using D2 = double __attribute__((vector_size(16)));
using M2 = std::int64_t __attribute__((vector_size(16)));
using F2 = float __attribute__((vector_size(8)));

/** Lanes in one lockstep pass, as D2 vectors. */
constexpr size_t kLockstepVecs = kLockstepWidth / 2;
using Lanes = std::array<D2, kLockstepVecs>;

inline D2
splat(double x)
{
    return D2{x, x};
}

/** Lane-wise m ? a : b for a comparison mask m. */
inline D2
pick(M2 m, D2 a, D2 b)
{
    return reinterpret_cast<D2>((m & reinterpret_cast<M2>(a)) |
                                (~m & reinterpret_cast<M2>(b)));
}

/** Lane-wise m ? -x : x, as a sign-bit flip (exactly unary minus). */
inline D2
negateIf(M2 m, D2 x)
{
    const M2 sign = {INT64_MIN, INT64_MIN};
    return reinterpret_cast<D2>(reinterpret_cast<M2>(x) ^ (m & sign));
}

/**
 * One lockstep pass: kLockstepWidth candidate lanes of normal type
 * @p T scored over @p xs with the lane index innermost, in two-lane
 * vectors.  Lanes past @p n repeat candidate 0 and are discarded.
 * Every kBoundPairs pairs, a pass whose lanes all have a running MSE
 * strictly above @p bound stops and scores +inf for each of them.
 *
 * No division: every midpoint b has at most 8 significant bits and
 * every scale s is a float, so b * s is exact in double.  A nonzero
 * x - b * s is then at least 2^-33 |b * s|, far above half an ulp of
 * the quotient, so comparing fl(x / s) with b (what the codec does)
 * gives the same answer as comparing x with b * s, ties included.
 * Values are rebuilt as (float)(mag * s): mag * s is exact in double,
 * so one rounding to float is the codec's float product.
 */
template <NormalType T>
void
lockstepPass(const LockstepGrid &g, std::span<const float> xs,
             const float *scales, const double *thresholds, size_t n,
             double bound, double *out)
{
    constexpr size_t W = kLockstepWidth;
    constexpr size_t V = kLockstepVecs;
    // Flint4's non-uniform grid is pre-scaled per lane; the uniform
    // int grids are reached from a reciprocal estimate instead.
    constexpr bool kFlint = T == NormalType::Flint4;
    const double max_mag = g.normalMags.back();
    std::array<double, W> s{};
    Lanes sv{}, inv{}, thr{}, acc{};
    double thr_min = std::numeric_limits<double>::infinity();
    // A value passes flint midpoint j when |v| > mids[0][j] (mid * s)
    // for v >= 0 and when |v| >= mid * s, i.e. |v| > mids[1][j] (the
    // double just below), for v < 0: ties round toward the lower
    // value, as in NormalCodec.  Indexing by the sign picks the set
    // without a branch.  Passing it adds rise[j] to the decoded
    // magnitude; the rises are differences of consecutive decoded
    // floats, so their running sums are exact and land on the decoded
    // values.
    std::array<std::array<Lanes, kFlintMids>, 2> mids{};
    std::array<Lanes, kFlintMids> rise{};
    for (size_t c = 0; c < W; ++c) {
        const size_t src = c < n ? c : 0;
        OLIVE_ASSERT(scales[src] > 0.0f && std::isfinite(scales[src]) &&
                         thresholds[src] > 0.0,
                     "lockstep candidates need a positive scale and "
                     "threshold");
        s[c] = scales[src];
        thr[c / 2][c % 2] = thresholds[src];
        thr_min = std::min(thr_min, thresholds[src]);
        sv[c / 2][c % 2] = s[c];
        inv[c / 2][c % 2] = 1.0 / s[c];
        if constexpr (kFlint) {
            double prev = 0.0;
            for (size_t j = 0; j < kFlintMids; ++j) {
                const double b = g.normalMids[j] * s[c];
                const double q = static_cast<float>(
                    g.normalMags[j + 1] * s[c]);
                mids[0][j][c / 2][c % 2] = b;
                // nextafter(b, 0.0) for b > 0, without the libm call
                // (28 per pass, which were most of the pass setup).
                mids[1][j][c / 2][c % 2] = std::bit_cast<double>(
                    std::bit_cast<std::uint64_t>(b) - 1);
                rise[j][c / 2][c % 2] = q - prev;
                prev = q;
            }
        }
    }

    // err = v - (v quantized on each lane's normal grid).  Rows are
    // signed noise, so nothing on the per-value path branches on the
    // sign: a mispredicted branch costs as much as the arithmetic.
    const auto normalErr = [&](float v, Lanes &err) {
        const D2 a = splat(std::fabs(v));
        const bool neg = v < 0.0f;
        const D2 vd = splat(v);
        const M2 negm = vd < D2{};
        for (size_t h = 0; h < V; ++h) {
            D2 q;
            if constexpr (kFlint) {
                const auto &m = mids[neg];
                q = D2{};
                for (size_t j = 0; j < kFlintMids; ++j)
                    q += pick(a > m[j][h], rise[j][h], D2{});
            } else {
                // Uniform grid: y = a * (1 / s) is within 2^-44 of
                // a / s once clamped to the range, so its nearest
                // integer is the exact midpoint count unless y sits
                // within 2^-30 of a midpoint.  There (ties included)
                // one exact check on each side settles it.
                const D2 top = splat(max_mag);
                const D2 round = splat(0x1.8p52);
                const D2 y = pick(a * inv[h] < top, a * inv[h], top);
                D2 k = (y + round) - round;
                const D2 dist = y - k;
                const D2 edge = splat(0.5 - 0x1p-30);
                const M2 near = (dist > edge) | (dist < -edge);
                if (near[0] | near[1]) {
                    const D2 half = splat(0.5);
                    const D2 up = (k + half) * sv[h];
                    const D2 dn = (k - half) * sv[h];
                    const M2 past_up = neg ? (a >= up) : (a > up);
                    const M2 past_dn = neg ? (a >= dn) : (a > dn);
                    const M2 below_top = k < top;
                    const M2 above_zero = k > D2{};
                    k += pick(below_top & past_up, splat(1.0), D2{});
                    k -= pick(above_zero & ~past_dn, splat(1.0), D2{});
                }
                const F2 qf = __builtin_convertvector(k * sv[h], F2);
                q = __builtin_convertvector(qf, D2);
            }
            err[h] = vd - negateIf(negm, q);
        }
    };
    // Outlier magnitude index of a on lane c: the midpoints at or below
    // it (outlier ties round away from zero), by halvings of fixed
    // count over the padded midpoints.  The clamp only matters for an
    // infinite a, which passes the +inf padding too.
    const auto outlierIndex = [&](double a, size_t c) {
        size_t pos = 0;
        for (size_t step = g.outlierTopStep; step > 0; step /= 2)
            pos += a >= g.outlierMids[pos + step - 1] * s[c] ? step : 0;
        return std::min(pos, g.outlierMidCount);
    };

    Lanes e1{}, e2{};
    const size_t pairs = (xs.size() + 1) / 2;
    const D2 count = splat(static_cast<double>(xs.size()));
    for (size_t p = 0; p < pairs; ++p) {
        const float v1 = xs[2 * p];
        const bool has2 = 2 * p + 1 < xs.size();
        const float v2 = has2 ? xs[2 * p + 1] : 0.0f;
        normalErr(v1, e1);
        if (has2)
            normalErr(v2, e2);
        // Under any threshold the pair holds an outlier iff its larger
        // magnitude exceeds it; that value (the left one on a tie) is
        // quantized on the abfloat grid and the other, the victim,
        // decodes to 0.  The one branch is whether any lane sees an
        // outlier; the lanes then blend without branching.
        const double a1 = std::fabs(v1);
        const double a2 = std::fabs(v2);
        const double amax = a1 >= a2 ? a1 : a2;
        if (amax > thr_min) {
            const D2 d1 = splat(v1);
            const D2 d2 = splat(v2);
            const M2 left = splat(a1) >= splat(a2);
            const D2 vo = pick(left, d1, d2);
            const M2 vo_neg = vo < D2{};
            const D2 am = splat(amax);
            for (size_t h = 0; h < V; ++h) {
                D2 q;
                for (size_t k = 0; k < 2; ++k) {
                    const size_t c = 2 * h + k;
                    q[k] = static_cast<float>(
                        g.outlierMags[outlierIndex(amax, c)] * s[c]);
                }
                const D2 eo = vo - negateIf(vo_neg, q);
                const M2 outlier = am > thr[h];
                e1[h] = pick(outlier, pick(left, eo, d1), e1[h]);
                e2[h] = pick(outlier, pick(left, d2, eo), e2[h]);
            }
        }
        for (size_t h = 0; h < V; ++h)
            acc[h] += e1[h] * e1[h];
        if (has2) {
            for (size_t h = 0; h < V; ++h)
                acc[h] += e2[h] * e2[h];
        }
        // Divide before comparing: fl(acc / n) is what the lane would
        // score, and a sum-space test (acc > bound * n) could retire a
        // lane whose rounded MSE later equals the bound.  Lanes past n
        // mirror lane 0, so testing every lane tests the live ones.
        if (p % kBoundPairs == kBoundPairs - 1) {
            M2 over = acc[0] / count > splat(bound);
            for (size_t h = 1; h < V; ++h)
                over &= acc[h] / count > splat(bound);
            if (over[0] & over[1]) {
                std::fill_n(out, n, std::numeric_limits<double>::infinity());
                return;
            }
        }
    }
    for (size_t c = 0; c < n; ++c) {
        out[c] = xs.empty() ? 0.0
                            : acc[c / 2][c % 2] /
                                  static_cast<double>(xs.size());
    }
}

} // namespace

void
ovpLockstepMse(NormalType t, std::span<const float> xs,
               std::span<const float> scales,
               std::span<const double> thresholds, std::span<double> out,
               double bound)
{
    OLIVE_ASSERT(scales.size() == thresholds.size() &&
                     out.size() == scales.size(),
                 "lockstep scorer needs one scale, threshold and output "
                 "per candidate");
    const LockstepGrid &g = lockstepGrid(t);
    for (size_t c = 0; c < scales.size(); c += kLockstepWidth) {
        const size_t n = std::min(kLockstepWidth, scales.size() - c);
        const float *sc = scales.data() + c;
        const double *th = thresholds.data() + c;
        double *o = out.data() + c;
        switch (t) {
          case NormalType::Int4:
            lockstepPass<NormalType::Int4>(g, xs, sc, th, n, bound, o);
            break;
          case NormalType::Flint4:
            lockstepPass<NormalType::Flint4>(g, xs, sc, th, n, bound, o);
            break;
          case NormalType::Int8:
            lockstepPass<NormalType::Int8>(g, xs, sc, th, n, bound, o);
            break;
        }
    }
}

} // namespace olive
