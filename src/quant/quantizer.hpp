/**
 * @file
 * Per-tensor OliVe quantizer (Sec. 3.4).
 *
 * The quantizer picks the outlier-victim threshold (equivalently the
 * scale factor) by MSE minimization: starting from the 3-sigma rule it
 * grid-searches threshold candidates around 3 sigma, fake-quantizes a
 * sample under each candidate, and keeps the candidate with the lowest
 * mean squared error.  For 4-bit mode it additionally selects the
 * normal-value data type (int4 vs flint4) per tensor, following ANT's
 * insight that the best type depends on the tensor's distribution.
 */

#ifndef OLIVE_QUANT_QUANTIZER_HPP
#define OLIVE_QUANT_QUANTIZER_HPP

#include <span>
#include <vector>

#include "ovp.hpp"

namespace olive {

/** Configuration of the OliVe per-tensor quantizer. */
struct OliveConfig
{
    int bits = 4;              //!< 4 or 8.
    bool adaptiveType = true;  //!< Pick int4 vs flint4 by MSE (4-bit only).
    NormalType forcedType = NormalType::Int4; //!< Used when !adaptiveType.
    int searchPoints = 28;     //!< Threshold grid resolution.
    double searchLo = 0.25;    //!< Lowest candidate, in multiples of 3 sigma.
    double searchHi = 6.00;    //!< Highest candidate, in multiples of
                               //!< 3 sigma.
    size_t sampleCap = 8192;   //!< Max elements used during the MSE search.
};

/** Outcome of calibration for one tensor. */
struct QuantDecision
{
    NormalType normal = NormalType::Int4;
    float scale = 1.0f;      //!< Real value per integer grid unit.
    double threshold = 0.0;  //!< Real-domain outlier threshold.
    double mse = 0.0;        //!< Sample MSE achieved by this decision.
};

/**
 * The OliVe per-tensor quantizer: calibrate once (on calibration data),
 * then fake-quantize or encode any tensor with the frozen decision.
 */
class OliveQuantizer
{
  public:
    explicit OliveQuantizer(OliveConfig config = {});

    const OliveConfig &config() const { return config_; }

    /**
     * Search the threshold (and normal type) minimizing sample MSE.
     * Each type's grid candidates are scored four at a time in
     * lockstep passes over the shared sample (ovpLockstepMse): no
     * codec, byte stream or round-trip vector per candidate, and no
     * allocation once the calling thread's buffers are warm (unless
     * xs exceeds sampleCap and must be subsampled).  Passes run
     * middle-out and stop once every lane is provably worse than the
     * best MSE scored so far, which never changes the decision.
     * @pre xs is non-empty and not all zeros.
     */
    QuantDecision calibrate(std::span<const float> xs) const;

    /**
     * The reference grid search: per candidate, a full fake-quant
     * round trip (encode -> byte stream -> decode) scored with
     * stats::mse.  Retained as the decision oracle and the "before"
     * baseline of bench_micro_kernels; returns exactly the same
     * winning type/threshold/scale/MSE as calibrate().
     */
    QuantDecision calibrateReference(std::span<const float> xs) const;

    /** Codec implementing a frozen decision. */
    OvpCodec makeCodec(const QuantDecision &d) const;

    /** Calibrate on @p xs and return the round-tripped values. */
    std::vector<float> fakeQuant(std::span<const float> xs,
                                 QuantDecision *decision = nullptr) const;

  private:
    /** Pair-aligned subsample of at most sampleCap elements. */
    std::vector<float> sample(std::span<const float> xs) const;

    OliveConfig config_;
    /** Per grid point: its threshold over the 3-sigma start. */
    std::vector<double> gridMult_;
    /** calibrate()'s lockstep groups in scoring order (middle-out). */
    std::vector<size_t> groupOrder_;
};

} // namespace olive

#endif // OLIVE_QUANT_QUANTIZER_HPP
