/**
 * @file
 * Serial-vs-parallel throughput of the three hot kernels the engine
 * feeds: reference GEMM (matmulTransB), OVP stream encode, and a full
 * transformer forward.  Each kernel runs pinned to 1 thread and then at
 * the ambient pool size (OLIVE_THREADS / --threads), verifying the
 * outputs are bit-identical before reporting throughput and speedup —
 * the determinism guarantee is part of what this bench demonstrates.
 *
 *   ./build/bench_parallel_scaling --threads 8 --reps 5
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "models/config.hpp"
#include "models/synthetic.hpp"
#include "nn/transformer.hpp"
#include "quant/quantizer.hpp"
#include "tensor/gemm.hpp"
#include "util/args.hpp"
#include "util/benchjson.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/smoke.hpp"
#include "util/table.hpp"

using namespace olive;

namespace {

using benchutil::gaussianTensor;
using benchutil::secondsOf;

struct KernelResult
{
    const char *name;
    double work;        //!< Work units per run (for the rate column).
    const char *unit;
    double serialSec = 0.0;
    double parallelSec = 0.0;
    bool identical = false;
};

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv, {{"reps", "3"}, {"out", "BENCH_parallel.json"}});
    smoke::banner();
    const int reps = static_cast<int>(args.getInt("reps"));
    const size_t nthreads = par::threadCount();

    // --- workloads -----------------------------------------------------
    const size_t dim = smoke::count(384, 96);
    const Tensor a = gaussianTensor({dim, dim}, 1);
    const Tensor w = gaussianTensor({dim, dim}, 2);

    const size_t quant_n = smoke::count(1u << 22, 1u << 16);
    Rng rng(3);
    std::vector<float> xs(quant_n);
    for (auto &v : xs)
        v = static_cast<float>(rng.heavyTail(0.008, 3.5, 90.0));
    const OliveQuantizer quantizer;
    const OvpCodec codec = quantizer.makeCodec(quantizer.calibrate(xs));

    const auto config = models::byName("BERT-base");
    const nn::Transformer model = models::makeBackbone(config, 4);
    const size_t seq = smoke::count(64, 16);
    const Tensor x = gaussianTensor({seq, config.evalDModel}, 5);

    // --- kernels -------------------------------------------------------
    KernelResult results[] = {
        {"GEMM (A*W^T)", 2.0 * static_cast<double>(dim) *
                             static_cast<double>(dim) *
                             static_cast<double>(dim) / 1e9,
         "GFLOP/s"},
        {"OVP encode", static_cast<double>(quant_n) / 1e6, "Melem/s"},
        {"transformer fwd", 1.0, "fwd/s"},
    };

    Tensor gemm_out[2];
    std::vector<u8> enc_out[2];
    Tensor fwd_out[2];

    par::setThreadCount(1);
    results[0].serialSec =
        secondsOf(reps, [&] { gemm_out[0] = matmulTransB(a, w); });
    results[1].serialSec =
        secondsOf(reps, [&] { enc_out[0] = codec.encode(xs); });
    results[2].serialSec =
        secondsOf(reps, [&] { fwd_out[0] = model.forward(x, nullptr); });

    par::setThreadCount(nthreads);
    results[0].parallelSec =
        secondsOf(reps, [&] { gemm_out[1] = matmulTransB(a, w); });
    results[1].parallelSec =
        secondsOf(reps, [&] { enc_out[1] = codec.encode(xs); });
    results[2].parallelSec =
        secondsOf(reps, [&] { fwd_out[1] = model.forward(x, nullptr); });
    par::setThreadCount(0);

    results[0].identical =
        gemm_out[0].size() == gemm_out[1].size() &&
        std::memcmp(gemm_out[0].raw(), gemm_out[1].raw(),
                    gemm_out[0].size() * sizeof(float)) == 0;
    results[1].identical = enc_out[0] == enc_out[1];
    results[2].identical =
        fwd_out[0].size() == fwd_out[1].size() &&
        std::memcmp(fwd_out[0].raw(), fwd_out[1].raw(),
                    fwd_out[0].size() * sizeof(float)) == 0;

    std::printf("== Parallel scaling: serial vs %zu threads ==\n\n",
                nthreads);
    Table t({"Kernel", "Serial", "Parallel", "Speedup", "Bit-identical"});
    BenchReport report("bench_parallel_scaling");
    report.note("mode", smoke::enabled() ? "smoke" : "full");
    report.note("threads", std::to_string(nthreads));
    benchutil::noteHost(report);
    for (const KernelResult &r : results) {
        const double rate_s = r.work / r.serialSec;
        const double rate_p = r.work / r.parallelSec;
        const double speedup = r.serialSec / r.parallelSec;
        t.addRow({r.name,
                  Table::num(rate_s, 2) + " " + r.unit,
                  Table::num(rate_p, 2) + " " + r.unit,
                  Table::num(speedup, 2) + "x",
                  r.identical ? "yes" : "NO"});
        report.add(r.name)
            .label("unit", r.unit)
            .metric("serial_sec", r.serialSec)
            .metric("parallel_sec", r.parallelSec)
            .metric("serial_rate", rate_s)
            .metric("parallel_rate", rate_p)
            .metric("speedup", speedup)
            .metric("identical", r.identical ? 1.0 : 0.0);
        OLIVE_ASSERT(r.identical,
                     "parallel output diverged from serial — determinism "
                     "violation");
    }
    t.print();
    report.writeFile(args.get("out"));
    std::printf("\nthreads: set OLIVE_THREADS or --threads; 1 forces "
                "serial.  Outputs are bit-identical by construction "
                "(deterministic static partitioning).  JSON written to "
                "%s.\n", args.get("out").c_str());
    return 0;
}
