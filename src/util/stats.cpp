#include "stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common.hpp"

namespace olive {
namespace stats {

double
mean(std::span<const float> xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (float x : xs)
        acc += x;
    return acc / static_cast<double>(xs.size());
}

double
stddev(std::span<const float> xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double m = mean(xs);
    double acc = 0.0;
    for (float x : xs) {
        const double d = x - m;
        acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(xs.size()));
}

double
absMax(std::span<const float> xs)
{
    double best = 0.0;
    for (float x : xs)
        best = std::max(best, static_cast<double>(std::fabs(x)));
    return best;
}

double
outlierRatio(std::span<const float> xs, double k_sigma)
{
    if (xs.empty())
        return 0.0;
    const double m = mean(xs);
    const double s = stddev(xs);
    if (s == 0.0)
        return 0.0;
    size_t count = 0;
    for (float x : xs) {
        if (std::fabs(x - m) > k_sigma * s)
            ++count;
    }
    return static_cast<double>(count) / static_cast<double>(xs.size());
}

double
robustSigma(std::span<const float> xs)
{
    std::vector<float> scratch(xs.size());
    return robustSigma(xs, scratch);
}

double
robustSigma(std::span<const float> xs, std::span<float> scratch)
{
    if (xs.size() < 2)
        return 0.0;
    OLIVE_ASSERT(scratch.size() >= xs.size(),
                 "robustSigma scratch too small");
    const std::span<float> v = scratch.first(xs.size());
    std::copy(xs.begin(), xs.end(), v.begin());
    const double med = percentileInPlace(v, 50.0);
    for (size_t i = 0; i < xs.size(); ++i)
        v[i] = static_cast<float>(std::fabs(xs[i] - med));
    return percentileInPlace(v, 50.0) / 0.6745;
}

double
mse(std::span<const float> a, std::span<const float> b)
{
    OLIVE_ASSERT(a.size() == b.size(), "mse requires equal sizes");
    if (a.empty())
        return 0.0;
    double acc = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        acc += d * d;
    }
    return acc / static_cast<double>(a.size());
}

double
mae(std::span<const float> a, std::span<const float> b)
{
    OLIVE_ASSERT(a.size() == b.size(), "mae requires equal sizes");
    if (a.empty())
        return 0.0;
    double acc = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        acc += std::fabs(static_cast<double>(a[i]) - b[i]);
    return acc / static_cast<double>(a.size());
}

double
sqnrDb(std::span<const float> ref, std::span<const float> quant)
{
    OLIVE_ASSERT(ref.size() == quant.size(), "sqnr requires equal sizes");
    double sig = 0.0, noise = 0.0;
    for (size_t i = 0; i < ref.size(); ++i) {
        const double r = ref[i];
        const double d = r - quant[i];
        sig += r * r;
        noise += d * d;
    }
    if (noise == 0.0)
        return std::numeric_limits<double>::infinity();
    return 10.0 * std::log10(sig / noise);
}

double
geomean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs) {
        OLIVE_ASSERT(x > 0.0, "geomean requires positive values");
        acc += std::log(x);
    }
    return std::exp(acc / static_cast<double>(xs.size()));
}

double
percentile(std::span<const float> xs, double p)
{
    std::vector<float> v(xs.begin(), xs.end());
    return percentileInPlace(v, p);
}

namespace {

/**
 * Move the elements of @p v for which @p before holds to its front,
 * keeping the rest behind them; returns their count.  Every step swaps
 * and advances by the predicate's value, so nothing branches on the
 * data (Lomuto with an unconditional swap).
 */
template <typename Pred>
size_t
partitionBranchless(std::span<float> v, Pred before)
{
    size_t i = 0;
    for (size_t j = 0; j < v.size(); ++j) {
        const float x = v[j];
        v[j] = v[i];
        v[i] = x;
        i += before(x) ? 1 : 0;
    }
    return i;
}

/**
 * The k-th smallest value of @p v and the smallest value ranked after
 * it (+inf when k is the last), reordering @p v.  Quickselect with a
 * median-of-three pivot and branch-free three-way partitions: on the
 * short noisy rows calibration selects over, nth_element's
 * data-dependent branches mispredict about half the time.  Order
 * statistics are values, so the result is the one a sort would give.
 * A range that has not converged after 2 log2(n) rounds falls back to
 * nth_element.
 */
std::pair<float, float>
selectWithNext(std::span<float> v, size_t k)
{
    size_t b = 0;
    size_t e = v.size();
    // Minimum of the elements known to rank above [b, e).
    float above = std::numeric_limits<float>::infinity();
    for (int rounds = 2 * std::bit_width(v.size()); e - b > 1; --rounds) {
        const std::span<float> r = v.subspan(b, e - b);
        if (rounds == 0) {
            const auto kth = r.begin() + static_cast<std::ptrdiff_t>(k - b);
            std::nth_element(r.begin(), kth, r.end());
            if (kth + 1 != r.end())
                above = std::min(above, *std::min_element(kth + 1, r.end()));
            return {*kth, above};
        }
        const float x = r.front();
        const float y = r[r.size() / 2];
        const float z = r.back();
        const float pivot =
            std::max(std::min(x, y), std::min(std::max(x, y), z));
        const size_t lt =
            b + partitionBranchless(r, [=](float t) { return t < pivot; });
        const size_t le =
            lt + partitionBranchless(v.subspan(lt, e - lt),
                                     [=](float t) { return t <= pivot; });
        if (k < lt) {
            above = std::min(above, pivot);
            e = lt;
        } else if (k < le) {
            if (k + 1 < le)
                return {pivot, pivot};
            const std::span<const float> rest = v.subspan(le, e - le);
            if (!rest.empty())
                above = std::min(above, *std::min_element(rest.begin(),
                                                          rest.end()));
            return {pivot, above};
        } else {
            b = le;
        }
    }
    return {v[k], above};
}

} // namespace

double
percentileInPlace(std::span<float> v, double p)
{
    OLIVE_ASSERT(!v.empty(), "percentile of empty span");
    OLIVE_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    // Selection instead of a full sort: the lo-th and (lo+1)-th order
    // statistics are the same two values a sorted copy would yield, at
    // O(n) instead of O(n log n).  robustSigma calls this twice per
    // calibration, so it is on the quantizer's hot path.
    const auto [vlo, next] = selectWithNext(v, lo);
    const float vhi = (hi == lo) ? vlo : next;
    return vlo * (1.0 - frac) + vhi * frac;
}

double
pearson(std::span<const float> a, std::span<const float> b)
{
    OLIVE_ASSERT(a.size() == b.size(), "pearson requires equal sizes");
    if (a.size() < 2)
        return 0.0;
    const double ma = mean(a), mb = mean(b);
    double num = 0.0, da = 0.0, db = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        const double xa = a[i] - ma;
        const double xb = b[i] - mb;
        num += xa * xb;
        da += xa * xa;
        db += xb * xb;
    }
    if (da == 0.0 || db == 0.0)
        return 0.0;
    return num / std::sqrt(da * db);
}

double
matthews(std::span<const int> pred, std::span<const int> truth)
{
    OLIVE_ASSERT(pred.size() == truth.size(),
                 "matthews requires equal sizes");
    double tp = 0, tn = 0, fp = 0, fn = 0;
    for (size_t i = 0; i < pred.size(); ++i) {
        if (pred[i] == 1 && truth[i] == 1)
            ++tp;
        else if (pred[i] == 0 && truth[i] == 0)
            ++tn;
        else if (pred[i] == 1 && truth[i] == 0)
            ++fp;
        else
            ++fn;
    }
    const double denom =
        std::sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn));
    if (denom == 0.0)
        return 0.0;
    return (tp * tn - fp * fn) / denom;
}

double
accuracyPct(std::span<const int> pred, std::span<const int> truth)
{
    OLIVE_ASSERT(pred.size() == truth.size(),
                 "accuracy requires equal sizes");
    if (pred.empty())
        return 0.0;
    size_t correct = 0;
    for (size_t i = 0; i < pred.size(); ++i) {
        if (pred[i] == truth[i])
            ++correct;
    }
    return 100.0 * static_cast<double>(correct) /
           static_cast<double>(pred.size());
}

double
f1Pct(std::span<const int> pred, std::span<const int> truth)
{
    OLIVE_ASSERT(pred.size() == truth.size(), "f1 requires equal sizes");
    double tp = 0, fp = 0, fn = 0;
    for (size_t i = 0; i < pred.size(); ++i) {
        if (pred[i] == 1 && truth[i] == 1)
            ++tp;
        else if (pred[i] == 1 && truth[i] == 0)
            ++fp;
        else if (pred[i] == 0 && truth[i] == 1)
            ++fn;
    }
    if (tp == 0)
        return 0.0;
    const double precision = tp / (tp + fp);
    const double recall = tp / (tp + fn);
    return 100.0 * 2.0 * precision * recall / (precision + recall);
}

size_t
Histogram::total() const
{
    size_t n = underflow + overflow;
    for (size_t c : bins)
        n += c;
    return n;
}

Histogram
histogram(std::span<const float> xs, double lo, double hi, size_t nbins)
{
    OLIVE_ASSERT(hi > lo, "histogram range must be non-empty");
    OLIVE_ASSERT(nbins > 0, "histogram needs at least one bin");
    Histogram h;
    h.lo = lo;
    h.hi = hi;
    h.bins.assign(nbins, 0);
    const double width = (hi - lo) / static_cast<double>(nbins);
    for (float x : xs) {
        if (x < lo) {
            ++h.underflow;
        } else if (x >= hi) {
            ++h.overflow;
        } else {
            auto bin = static_cast<size_t>((x - lo) / width);
            if (bin >= nbins)
                bin = nbins - 1;
            ++h.bins[bin];
        }
    }
    return h;
}

} // namespace stats
} // namespace olive
