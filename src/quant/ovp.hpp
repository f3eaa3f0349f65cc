/**
 * @file
 * Outlier-victim pair (OVP) encoding, the paper's core mechanism
 * (Sec. 3, Algorithm 1).
 *
 * Values are processed in adjacent non-overlapping pairs.  A pair with
 * no outlier encodes both values with the normal type; a pair with an
 * outlier sacrifices ("prunes") the other value — the victim — and
 * stores the outlier identifier code (1000_2 / 10000000_2) in the victim
 * slot while the outlier slot holds an abfloat code.  Because outlier
 * encoding never produces the identifier bit pattern, the decoder can
 * distinguish left-outlier (O-V) and right-outlier (V-O) pairs without
 * any index bits, keeping memory accesses byte-aligned.
 */

#ifndef OLIVE_QUANT_OVP_HPP
#define OLIVE_QUANT_OVP_HPP

#include <array>
#include <limits>
#include <span>
#include <vector>

#include "abfloat.hpp"
#include "dtype.hpp"
#include "util/common.hpp"

namespace olive {

/** Default adaptive bias that makes abfloat complementary to @p t. */
int defaultAbfloatBias(NormalType t);

/** The outlier abfloat format paired with normal type @p t. */
AbFloat outlierTypeFor(NormalType t, int bias = -1);

/** Classification of one value pair (Sec. 2.3, Table 2). */
enum class PairType
{
    NormalNormal,
    OutlierNormal,  //!< Exactly one value beyond the threshold.
    OutlierOutlier, //!< Both beyond; the smaller one becomes the victim.
};

/** Census of pair types over a tensor (Table 2 machinery). */
struct PairCensus
{
    u64 normalNormal = 0;
    u64 outlierNormal = 0;
    u64 outlierOutlier = 0;

    u64 total() const
    {
        return normalNormal + outlierNormal + outlierOutlier;
    }
    double normalNormalPct() const;
    double outlierNormalPct() const;
    double outlierOutlierPct() const;
};

/**
 * Count pair types of adjacent non-overlapping pairs using the k-sigma
 * rule (the paper uses k = 3).
 */
PairCensus pairCensus(std::span<const float> xs, double k_sigma = 3.0);

/** Per-tensor encode statistics reported by OvpCodec::encode. */
struct OvpStats
{
    u64 pairs = 0;          //!< Total pairs encoded.
    u64 outlierPairs = 0;   //!< Pairs encoded as outlier-victim.
    u64 prunedOutliers = 0; //!< Outliers lost to outlier-outlier pairs.
};

/**
 * Role the encoder assigned to a pair, reported by encodePair so stats
 * never re-derive the outlier/pruned classification with a second
 * threshold comparison that could drift from the encoder's tie-break
 * rule.
 */
enum class PairRole
{
    NormalNormal,   //!< Both values encoded with the normal type.
    OutlierVictim,  //!< One outlier; the other value was a normal victim.
    PrunedOutlier,  //!< Both beyond the threshold; one outlier was pruned.
};

/**
 * Tensor-level OVP codec for one (normal type, scale, threshold)
 * configuration.
 *
 * Real values relate to the integer grid as real ~= scale * grid.  The
 * outlier threshold is a real-domain magnitude; the quantization
 * framework ties it to the scale (threshold = scale * max normal
 * magnitude), but the codec accepts them independently so ablations can
 * decouple them.
 *
 * Construction precomputes the decoded real value of every normal and
 * abfloat code under the fixed scale, so the per-pair hot paths are
 * table lookups.  The scale-independent parts (NormalCodec tables, the
 * abfloat decode/boundary tables and their verification) are built once
 * per type for the life of the process and only the two scaled value
 * LUTs are filled per construction — the KV cache builds one codec per
 * encoded row.  The original per-scalar implementations are retained as
 * *Reference() oracles and are bit-identical to the fast paths
 * (tests/test_kernels_oracle.cpp asserts this exhaustively).
 */
class OvpCodec
{
  public:
    /**
     * @param normal    Normal-value data type.
     * @param scale     Positive real-per-grid-unit scale factor.
     * @param threshold Real-domain |value| above which a value is an
     *                  outlier.
     * @param abfloat_bias Adaptive bias; -1 selects the complementary
     *                  default for @p normal.
     */
    OvpCodec(NormalType normal, float scale, double threshold,
             int abfloat_bias = -1);

    NormalType normalType() const { return normal_; }
    const AbFloat &outlierType() const { return abfloat_; }
    float scale() const { return scale_; }
    double threshold() const { return threshold_; }

    /** Bytes per encoded pair (1 for 4-bit types, 2 for int8). */
    size_t bytesPerPair() const;

    /**
     * The same rule keyed by normal type, for callers (e.g. stream
     * deserialization) that must size a payload before a codec can be
     * constructed.
     */
    static size_t bytesPerPair(NormalType t);

    /**
     * Algorithm 1: encode one pair of reals into two codes.  Exactly one
     * of the output codes may be the identifier.  Returns the role the
     * encoder assigned to the pair.
     */
    PairRole encodePair(float val1, float val2, u32 &out1, u32 &out2) const;

    /** Inverse of encodePair: identifier slots decode to zero. */
    void decodePair(u32 in1, u32 in2, float &val1, float &val2) const;

    /** decodePair without the value LUTs, the decode oracle. */
    void decodePairReference(u32 in1, u32 in2, float &val1,
                             float &val2) const;

    /**
     * Encode a whole tensor into a packed, memory-aligned byte stream.
     * Odd-length inputs are padded with a zero element.  4-bit pairs
     * pack into single bytes (low nibble = first element); 8-bit pairs
     * into two bytes.
     */
    std::vector<u8> encode(std::span<const float> xs,
                           OvpStats *stats = nullptr) const;

    /**
     * encode() into a caller-owned buffer of exactly
     * (xs.size() + 1) / 2 * bytesPerPair() bytes, without allocating
     * (the per-row KV path encodes straight into its payload).
     */
    void encodeInto(std::span<const float> xs, std::span<u8> out,
                    OvpStats *stats = nullptr) const;

    /** Decode @p count elements from a packed stream. */
    std::vector<float> decode(std::span<const u8> bytes, size_t count) const;

    /**
     * decode() of out.size() elements into a caller-owned buffer,
     * without allocating (the per-row KV path decodes straight into
     * its attention row); bit-identical to decode().
     */
    void decodeInto(std::span<const u8> bytes, std::span<float> out) const;

    /**
     * Quantize-dequantize round trip without packing.  Fused: each pair
     * goes value -> codes -> value directly, never materializing the
     * byte stream, but producing bit-identical floats and stats to
     * decode(encode(xs), xs.size()).
     */
    std::vector<float> fakeQuant(std::span<const float> xs,
                                 OvpStats *stats = nullptr) const;

    /**
     * Pre-LUT round trip (search-based normal encode, per-scalar
     * abfloat decode, full encode -> byte stream -> decode).  Retained
     * as the bit-exactness oracle and the "before" baseline of
     * bench_micro_kernels.
     */
    std::vector<float> fakeQuantReference(std::span<const float> xs,
                                          OvpStats *stats = nullptr) const;

    /**
     * The encodePair used by fakeQuantReference: search-based normal
     * encode with the per-call scale assert.  Exposed for the oracle
     * tests and the micro benchmark.
     */
    PairRole encodePairReference(float val1, float val2, u32 &out1,
                                 u32 &out2) const;

  private:
    /**
     * Quantize one outlier value to an abfloat code (with 2^15 clip).
     * Fast path: counts precomputed midpoint boundaries between the
     * distinct representable abfloat magnitudes instead of running
     * Algorithm 2's log2/round sequence per scalar.  The boundary
     * semantics (ties round away from zero, like llround) are verified
     * against AbFloat::encode at construction.
     */
    u32 quantizeOutlier(float val) const;

    /** Algorithm 2 per scalar, the oracle for quantizeOutlier(). */
    u32 quantizeOutlierReference(float val) const;

    /** Shared clip + sign handling of the two outlier quantizers. */
    template <bool kReference>
    u32 quantizeOutlierImpl(float val) const;

    /** Shared body of encodePair / encodePairReference. */
    template <bool kReference>
    PairRole encodePairImpl(float val1, float val2, u32 &out1,
                            u32 &out2) const;

    NormalType normal_;
    /**
     * The shared immutable per-type instance (NormalCodec::shared):
     * codecs are constructed per threshold candidate per KV row, so
     * even copying the ~7 KB of tables was measurable.  A reference
     * member leaves OvpCodec copy-constructible (construct-in-place
     * everywhere) but not assignable, which nothing needs.
     */
    const NormalCodec &codec_;
    AbFloat abfloat_;
    float scale_;
    double threshold_;

    // Per-pair constants and decode value LUTs, fixed at construction:
    // the decoded real value of every normal / abfloat code under
    // scale_, computed with exactly the reference expressions.
    u32 identifier_;
    std::array<float, 256> normalValue_{};
    std::array<float, 256> outlierValue_{};

    // Outlier encode boundary table: outlierBounds_[i] is the midpoint
    // between the i-th and (i+1)-th distinct representable abfloat
    // magnitudes; a magnitude in interval i (mag < bounds[i], >= the
    // previous) encodes as outlierCodes_[i].  outlierSign_ is the sign
    // bit of the abfloat code space.  Both views point into the
    // process-lifetime per-(type, bias) tables.
    std::span<const double> outlierBounds_;
    std::span<const u32> outlierCodes_;
    u32 outlierSign_ = 0;
};

/**
 * Lockstep threshold scorer: the fake-quantization MSE of @p xs under
 * every OVP configuration (@p t, scales[c], thresholds[c]) with the
 * default abfloat bias, scored in passes of four candidates over @p xs
 * with the candidate index innermost.  Each candidate keeps its own
 * double accumulator in element order, so out[c] is bit-identical to
 * stats::mse(xs, OvpCodec(t, scales[c], thresholds[c])
 * .fakeQuantReference(xs)); no codec is built.
 *
 * Early exit: every 8 pairs a pass compares each lane's running sum,
 * divided by xs.size(), with @p bound.  Once all of its lanes are
 * strictly above it, the pass stops and writes +inf for all of them.
 * Squared errors are non-negative and rounded division is monotone,
 * so such a lane's full MSE is strictly above @p bound too; a lane
 * whose MSE is <= @p bound is always scored in full.  The default
 * (+inf) never stops a pass.  Serial: OliveQuantizer::calibrate
 * spreads the grid over candidate groups and shares the bound.  An
 * empty @p xs scores 0.
 * @pre scales[c] > 0 and finite, thresholds[c] > 0, equal span sizes
 */
void ovpLockstepMse(NormalType t, std::span<const float> xs,
                    std::span<const float> scales,
                    std::span<const double> thresholds,
                    std::span<double> out,
                    double bound = std::numeric_limits<double>::infinity());

} // namespace olive

#endif // OLIVE_QUANT_OVP_HPP
