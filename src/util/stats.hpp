/**
 * @file
 * Descriptive statistics and error metrics used throughout the
 * quantization framework and the evaluation harness.
 */

#ifndef OLIVE_UTIL_STATS_HPP
#define OLIVE_UTIL_STATS_HPP

#include <cstddef>
#include <span>
#include <vector>

namespace olive {
namespace stats {

/** Arithmetic mean; 0 for an empty span. */
double mean(std::span<const float> xs);

/** Population standard deviation; 0 for spans shorter than 2. */
double stddev(std::span<const float> xs);

/** Largest absolute value; 0 for an empty span. */
double absMax(std::span<const float> xs);

/** Fraction of values with |x - mean| > k * sigma. */
double outlierRatio(std::span<const float> xs, double k_sigma);

/**
 * Outlier-robust standard deviation estimate via the median absolute
 * deviation: sigma ~= MAD / 0.6745 for a Gaussian bulk.  Unlike
 * stddev(), a handful of 300-sigma outliers barely move it, which makes
 * it the right seed for the OliVe threshold search on extreme tensors.
 */
double robustSigma(std::span<const float> xs);

/**
 * robustSigma() selecting in @p scratch (at least xs.size() floats)
 * instead of allocating; the same value.  The per-row KV calibration
 * reuses one buffer across rows.
 */
double robustSigma(std::span<const float> xs, std::span<float> scratch);

/** Mean squared error between two equally sized spans. */
double mse(std::span<const float> a, std::span<const float> b);

/** Mean absolute error between two equally sized spans. */
double mae(std::span<const float> a, std::span<const float> b);

/**
 * Signal-to-quantization-noise ratio in dB:
 * 10*log10(sum(ref^2) / sum((ref-q)^2)).  Returns +inf for a perfect
 * reconstruction.
 */
double sqnrDb(std::span<const float> ref, std::span<const float> quant);

/** Geometric mean of strictly positive values. */
double geomean(std::span<const double> xs);

/** p-th percentile (0..100) via linear interpolation on a sorted copy. */
double percentile(std::span<const float> xs, double p);

/** percentile() selecting in place: reorders @p v, allocates nothing. */
double percentileInPlace(std::span<float> v, double p);

/** Pearson correlation coefficient of two equally sized spans. */
double pearson(std::span<const float> a, std::span<const float> b);

/**
 * Matthews correlation coefficient for binary predictions, the CoLA
 * metric.  Inputs are 0/1 labels.
 */
double matthews(std::span<const int> pred, std::span<const int> truth);

/** Classification accuracy in percent. */
double accuracyPct(std::span<const int> pred, std::span<const int> truth);

/** F1 score (binary, positive class = 1) in percent. */
double f1Pct(std::span<const int> pred, std::span<const int> truth);

/** Simple fixed-width histogram. */
struct Histogram
{
    double lo = 0.0;           //!< Left edge of the first bin.
    double hi = 0.0;           //!< Right edge of the last bin.
    std::vector<size_t> bins;  //!< Counts per bin.
    size_t underflow = 0;      //!< Count below lo.
    size_t overflow = 0;       //!< Count at or above hi.

    /** Total number of recorded samples. */
    size_t total() const;
};

/** Build a histogram of @p xs over [lo, hi) with @p nbins bins. */
Histogram histogram(std::span<const float> xs, double lo, double hi,
                    size_t nbins);

} // namespace stats
} // namespace olive

#endif // OLIVE_UTIL_STATS_HPP
