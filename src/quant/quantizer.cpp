#include "quantizer.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace olive {

namespace {

/**
 * Grid points of one type scored per lockstep call, one parallel task;
 * the scorer's pass width, so no pass carries idle lanes but the last.
 */
constexpr size_t kGroup = 4;

/** The normal types the search tries, in grid order; returns the count. */
size_t
searchTypes(const OliveConfig &config, std::array<NormalType, 2> &types)
{
    if (config.bits == 8) {
        types[0] = NormalType::Int8;
        return 1;
    }
    if (config.adaptiveType) {
        types = {NormalType::Int4, NormalType::Flint4};
        return 2;
    }
    types[0] = config.forcedType;
    return 1;
}

/**
 * Initial threshold from the 3-sigma rule (Sec. 3.4).  The sigma is
 * outlier-robust: on tensors whose outliers reach hundreds of sigma
 * (OPT-6.7B activations), the plain standard deviation is inflated by
 * the tail itself and would seed the search far above the bulk.
 * Degenerate near-constant tensors fall back to the absolute maximum.
 */
double
initialThreshold(double sigma, std::span<const float> s)
{
    const double amax = stats::absMax(s);
    OLIVE_ASSERT(amax > 0.0, "cannot calibrate an all-zero tensor");
    return (sigma > 0.0) ? 3.0 * sigma : amax;
}

/**
 * Multiplier of grid point @p i: a geometric sweep around 3 sigma.
 * Grid point i's threshold is t0 times it.
 */
double
gridMultiplier(const OliveConfig &config, size_t i)
{
    const double frac = static_cast<double>(i) /
                        static_cast<double>(config.searchPoints - 1);
    return config.searchLo *
           std::pow(config.searchHi / config.searchLo, frac);
}

/** The candidate (without its MSE) at threshold @p thr for type @p t. */
QuantDecision
candidate(NormalType t, double thr)
{
    QuantDecision c;
    c.normal = t;
    c.threshold = thr;
    c.scale = static_cast<float>(thr / maxNormalMagnitude(t));
    c.mse = std::numeric_limits<double>::infinity();
    return c;
}

/** A candidate whose scale underflowed or overflowed is never scored. */
bool
scorable(const QuantDecision &c)
{
    return c.scale > 0.0f && std::isfinite(c.scale);
}

/**
 * The serial first-strictly-better rule over the grid in (type, point)
 * order; invalid candidates carry an infinite MSE and never win.
 */
template <typename CandidateAt>
QuantDecision
pickBest(size_t n, const CandidateAt &at)
{
    QuantDecision best;
    best.mse = std::numeric_limits<double>::infinity();
    for (size_t idx = 0; idx < n; ++idx) {
        const QuantDecision c = at(idx);
        if (c.mse < best.mse)
            best = c;
    }
    OLIVE_ASSERT(std::isfinite(best.mse), "calibration found no candidate");
    return best;
}

/**
 * Per-thread buffers of calibrate(), reused across calls so the
 * per-row KV path allocates nothing once warm.
 */
struct CalibrateScratch
{
    std::vector<float> select;      //!< robustSigma's selection buffer.
    std::vector<double> thresholds; //!< Per grid point.
    std::vector<double> mse;        //!< Per (type, grid point).
};

/**
 * The groups of @p n_types grid types, @p points each, middle-out:
 * by the distance of a group's centre from the grid centre, ties in
 * (type, point) order.  The winner usually sits mid-grid, so scoring
 * there first tightens the early-exit bound for the rest.
 */
std::vector<size_t>
middleOutGroups(size_t n_types, size_t points)
{
    const size_t per_type = (points + kGroup - 1) / kGroup;
    // Twice the distance, so the centres stay integers.
    const auto dist = [&](size_t g) {
        const size_t first = (g % per_type) * kGroup;
        const size_t last = std::min(points, first + kGroup) - 1;
        const size_t c2 = first + last;
        return c2 > points - 1 ? c2 - (points - 1) : (points - 1) - c2;
    };
    std::vector<size_t> order(n_types * per_type);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return dist(a) < dist(b);
    });
    return order;
}

/** Lower @p bound to @p mse if it is smaller. */
void
storeMin(std::atomic<double> &bound, double mse)
{
    double cur = bound.load(std::memory_order_relaxed);
    while (mse < cur &&
           !bound.compare_exchange_weak(cur, mse, std::memory_order_relaxed)) {
    }
}

} // namespace

OliveQuantizer::OliveQuantizer(OliveConfig config)
    : config_(config)
{
    OLIVE_ASSERT(config_.bits == 4 || config_.bits == 8,
                 "OliVe supports 4-bit and 8-bit modes");
    OLIVE_ASSERT(config_.searchPoints >= 2, "need at least two candidates");
    OLIVE_ASSERT(config_.searchLo > 0.0 &&
                     config_.searchHi > config_.searchLo,
                 "bad threshold search range");
    const size_t points = static_cast<size_t>(config_.searchPoints);
    for (size_t i = 0; i < points; ++i)
        gridMult_.push_back(gridMultiplier(config_, i));
    std::array<NormalType, 2> types{};
    groupOrder_ = middleOutGroups(searchTypes(config_, types), points);
}

std::vector<float>
OliveQuantizer::sample(std::span<const float> xs) const
{
    if (xs.size() <= config_.sampleCap)
        return std::vector<float>(xs.begin(), xs.end());
    // Keep whole pairs so the OVP pairing behaviour is representative.
    const size_t pairs_total = xs.size() / 2;
    const size_t pairs_keep = config_.sampleCap / 2;
    const size_t stride = pairs_total / pairs_keep;
    std::vector<float> out;
    out.reserve(pairs_keep * 2);
    for (size_t p = 0; p < pairs_total && out.size() < pairs_keep * 2;
         p += stride) {
        out.push_back(xs[2 * p]);
        out.push_back(xs[2 * p + 1]);
    }
    return out;
}

QuantDecision
OliveQuantizer::calibrate(std::span<const float> xs) const
{
    OLIVE_ASSERT(!xs.empty(), "cannot calibrate on empty data");
    // Under the cap, sample(xs) would return a verbatim copy — score
    // the input span directly instead (per-row KV calibration lands
    // here for every appended token).
    const std::vector<float> sampled =
        xs.size() <= config_.sampleCap ? std::vector<float>() : sample(xs);
    const std::span<const float> s = sampled.empty() ? xs : sampled;

    thread_local CalibrateScratch scratch;
    if (scratch.select.size() < s.size())
        scratch.select.resize(s.size());
    const double t0 =
        initialThreshold(stats::robustSigma(s, scratch.select), s);

    std::array<NormalType, 2> types{};
    const size_t n_types = searchTypes(config_, types);
    const size_t points = static_cast<size_t>(config_.searchPoints);
    scratch.thresholds.resize(points);
    for (size_t i = 0; i < points; ++i)
        scratch.thresholds[i] = t0 * gridMult_[i];
    scratch.mse.resize(n_types * points);

    // Lockstep scoring: each task scores up to kGroup grid points of
    // one type in a single pass over the sample (ovpLockstepMse),
    // bit-identical to scoring each candidate's round trip on its own,
    // except that a pass stops once all its lanes are provably worse
    // than the smallest full MSE scored so far (the bound).  The bound
    // is always some candidate's MSE, so it is never below the
    // winner's: a stopped lane, scored +inf, can neither win nor tie,
    // and pickBest's choice does not depend on which passes stopped.
    // That makes the result independent of the order in which the
    // tasks run; a nested or one-thread region runs them serially in
    // middle-out order.
    const size_t groups_per_type = (points + kGroup - 1) / kGroup;
    const std::span<const size_t> order = groupOrder_;
    const std::span<const double> thr = scratch.thresholds;
    const std::span<double> mse = scratch.mse;
    std::atomic<double> bound{std::numeric_limits<double>::infinity()};
    const auto score = [&](size_t ob, size_t oe) {
        for (size_t o = ob; o < oe; ++o) {
            const size_t g = order[o];
            const size_t ti = g / groups_per_type;
            const size_t first = (g % groups_per_type) * kGroup;
            const size_t last = std::min(points, first + kGroup);
            const std::span<double> type_mse = mse.subspan(ti * points);
            std::array<float, kGroup> sc{};
            std::array<double, kGroup> th{}, out{};
            std::array<size_t, kGroup> at{};
            size_t n = 0;
            for (size_t i = first; i < last; ++i) {
                type_mse[i] = std::numeric_limits<double>::infinity();
                const QuantDecision c = candidate(types[ti], thr[i]);
                if (!scorable(c))
                    continue;
                sc[n] = c.scale;
                th[n] = c.threshold;
                at[n++] = i;
            }
            ovpLockstepMse(types[ti], s, std::span(sc).first(n),
                           std::span(th).first(n), std::span(out).first(n),
                           bound.load(std::memory_order_relaxed));
            for (size_t k = 0; k < n; ++k) {
                type_mse[at[k]] = out[k];
                storeMin(bound, out[k]);
            }
        }
    };
    // A reference_wrapper fits std::function's inline storage, so the
    // region allocates nothing.
    par::parallelFor(0, order.size(), 1, std::cref(score));

    return pickBest(n_types * points, [&](size_t idx) {
        QuantDecision c = candidate(types[idx / points], thr[idx % points]);
        c.mse = mse[idx];
        return c;
    });
}

QuantDecision
OliveQuantizer::calibrateReference(std::span<const float> xs) const
{
    OLIVE_ASSERT(!xs.empty(), "cannot calibrate on empty data");
    // The oracle scorer: per candidate, build its codec, materialize
    // the full round trip and score it with stats::mse.
    const std::vector<float> s = sample(xs);
    const double t0 = initialThreshold(stats::robustSigma(s), s);
    std::array<NormalType, 2> types{};
    const size_t n_types = searchTypes(config_, types);
    const size_t points = static_cast<size_t>(config_.searchPoints);
    std::vector<QuantDecision> grid(n_types * points);
    par::parallelFor(0, grid.size(), 1, [&](size_t cb, size_t ce) {
        for (size_t idx = cb; idx < ce; ++idx) {
            QuantDecision c = candidate(types[idx / points],
                                        t0 * gridMult_[idx % points]);
            if (scorable(c)) {
                const OvpCodec codec(c.normal, c.scale, c.threshold);
                c.mse = stats::mse(s, codec.fakeQuantReference(s));
            }
            grid[idx] = c;
        }
    });
    return pickBest(grid.size(), [&](size_t idx) { return grid[idx]; });
}

OvpCodec
OliveQuantizer::makeCodec(const QuantDecision &d) const
{
    return OvpCodec(d.normal, d.scale, d.threshold);
}

std::vector<float>
OliveQuantizer::fakeQuant(std::span<const float> xs,
                          QuantDecision *decision) const
{
    const QuantDecision d = calibrate(xs);
    if (decision)
        *decision = d;
    return makeCodec(d).fakeQuant(xs);
}

} // namespace olive
