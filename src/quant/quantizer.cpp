#include "quantizer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace olive {

namespace {

/**
 * Grid points of one type scored per lockstep call, one parallel task;
 * the scorer's pass width, so no pass carries idle lanes but the last.
 */
constexpr size_t kGroup = 8;

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

/** Threshold of grid point @p i: a geometric sweep around 3 sigma. */
double
gridThreshold(const OliveConfig &config, double t0, size_t i)
{
    const double frac = static_cast<double>(i) /
                        static_cast<double>(config.searchPoints - 1);
    const double mult = config.searchLo *
                        std::pow(config.searchHi / config.searchLo, frac);
    return t0 * mult;
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
        scratch.thresholds[i] = gridThreshold(config_, t0, i);
    scratch.mse.resize(n_types * points);

    // Lockstep scoring: each task scores up to kGroup grid points of
    // one type in a single pass over the sample (ovpLockstepMse),
    // bit-identical to scoring each candidate's round trip on its own.
    const size_t groups_per_type = (points + kGroup - 1) / kGroup;
    const std::span<const double> thr = scratch.thresholds;
    const std::span<double> mse = scratch.mse;
    const auto score = [&](size_t gb, size_t ge) {
        for (size_t g = gb; g < ge; ++g) {
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
                           std::span(th).first(n), std::span(out).first(n));
            for (size_t k = 0; k < n; ++k)
                type_mse[at[k]] = out[k];
        }
    };
    // A reference_wrapper fits std::function's inline storage, so the
    // region allocates nothing.
    par::parallelFor(0, n_types * groups_per_type, 1, std::cref(score));

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
            QuantDecision c = candidate(
                types[idx / points],
                gridThreshold(config_, t0, idx % points));
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
