/**
 * @file
 * Helpers shared by the self-timed bench drivers, so the timing policy
 * (best-of-reps) and workload generators cannot drift between the
 * drivers whose JSON outputs are meant to be comparable.
 */

#ifndef OLIVE_BENCH_COMMON_HPP
#define OLIVE_BENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <string>
#include <thread>

#include "tensor/tensor.hpp"
#include "util/benchjson.hpp"
#include "util/random.hpp"

namespace olive {
namespace benchutil {

/** Best-of-reps wall seconds of @p fn. */
inline double
secondsOf(int reps, const std::function<void()> &fn)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        best = std::min(best, dt.count());
    }
    return best;
}

/** Seeded standard-Gaussian tensor. */
inline Tensor
gaussianTensor(std::initializer_list<size_t> shape, u64 seed)
{
    Tensor t(shape);
    Rng rng(seed);
    for (auto &v : t.data())
        v = static_cast<float>(rng.gaussian());
    return t;
}

/**
 * Record the measuring host in @p report's meta: hardware thread count
 * and CPU model (from /proc/cpuinfo; "unknown" where that is absent),
 * so committed BENCH_*.json rows name the machine they came from.
 */
inline void
noteHost(BenchReport &report)
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                cpu = line.substr(colon + 2);
            break;
        }
    }
    report.note("host_nproc",
                std::to_string(std::thread::hardware_concurrency()));
    report.note("host_cpu", cpu);
}

} // namespace benchutil
} // namespace olive

#endif // OLIVE_BENCH_COMMON_HPP
