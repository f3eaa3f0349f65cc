/**
 * @file
 * Before/after microbenchmarks of the software hot paths this repo
 * optimizes: normal-codec encode, OVP stream encode/decode, the fused
 * fakeQuant round trip, quantizer calibration (a 16K tensor and the
 * d = 128 KV rows serving calibrates one at a time), and the GEMM
 * kernels — the 256x256 squares plus the weight shapes serving runs (the
 * GPT2-XL evaluation backbone's projections, feed-forward matrices and
 * vocab head at m = 1, 4 and 32 rows).  Every kernel runs its retained
 * *Reference() oracle and its fast path back to back, asserts the
 * outputs are bit-identical, and reports both throughputs plus the
 * speedup.  Results are also written as machine-readable JSON
 * (BENCH_micro.json) so the repository's performance trajectory is
 * recorded across PRs.
 *
 * Measurements pin the pool to one thread: these are per-core kernel
 * numbers (bench_parallel_scaling covers scaling).  Under OLIVE_SMOKE
 * the workloads shrink and the run doubles as the `perf`-labelled CTest
 * leg: the bit-exactness asserts make kernel regressions fail CI
 * instead of just slowing it down.
 *
 *   ./build/bench_micro_kernels --reps 5 --out BENCH_micro.json
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "models/config.hpp"
#include "quant/quantizer.hpp"
#include "tensor/gemm.hpp"
#include "util/args.hpp"
#include "util/benchjson.hpp"
#include "util/bitops.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/smoke.hpp"
#include "util/table.hpp"

using namespace olive;

namespace {

using benchutil::gaussianTensor;
using benchutil::secondsOf;

std::vector<float>
benchData(size_t n)
{
    Rng rng(5);
    std::vector<float> xs(n);
    for (auto &v : xs)
        v = static_cast<float>(rng.heavyTail(0.01, 3.5, 60.0));
    return xs;
}

struct KernelRow
{
    std::string name;
    double work;  //!< Work units per run (for the rate columns).
    std::string unit;
    double refSec = 0.0;
    double fastSec = 0.0;
    bool identical = false;
};

/** Pre-LUT OVP stream encode: serial pack loop over reference pairs. */
std::vector<u8>
encodeStreamReference(const OvpCodec &codec, std::span<const float> xs)
{
    const size_t pairs = (xs.size() + 1) / 2;
    const bool nibble_packed = codec.bytesPerPair() == 1;
    std::vector<u8> out(pairs * codec.bytesPerPair());
    for (size_t p = 0; p < pairs; ++p) {
        const float v1 = xs[2 * p];
        const float v2 = (2 * p + 1 < xs.size()) ? xs[2 * p + 1] : 0.0f;
        u32 c1, c2;
        codec.encodePairReference(v1, v2, c1, c2);
        if (nibble_packed) {
            out[p] = bits::packNibbles(static_cast<u8>(c2),
                                       static_cast<u8>(c1));
        } else {
            out[2 * p] = static_cast<u8>(c1);
            out[2 * p + 1] = static_cast<u8>(c2);
        }
    }
    return out;
}

/** Pre-LUT OVP stream decode: serial unpack over reference pairs. */
std::vector<float>
decodeStreamReference(const OvpCodec &codec, std::span<const u8> bytes,
                      size_t count)
{
    const size_t pairs = (count + 1) / 2;
    const bool nibble_packed = codec.bytesPerPair() == 1;
    std::vector<float> out(count);
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
        codec.decodePairReference(c1, c2, v1, v2);
        out[2 * p] = v1;
        if (2 * p + 1 < count)
            out[2 * p + 1] = v2;
    }
    return out;
}

bool
sameTensor(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

/** Bitwise (not FP ==) vector comparison. */
bool
sameFloats(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool
sameDecision(const QuantDecision &a, const QuantDecision &b)
{
    return a.normal == b.normal && a.scale == b.scale &&
           a.threshold == b.threshold && a.mse == b.mse;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv, {{"reps", "5"}, {"out", "BENCH_micro.json"}});
    smoke::banner();
    const int reps = static_cast<int>(args.getInt("reps"));

    // Per-core kernel numbers: pin the pool to one thread.
    par::setThreadCount(1);

    // --- workloads -----------------------------------------------------
    const size_t codec_n = smoke::count(1u << 16, 1u << 12);
    const auto xs = benchData(codec_n);
    const OvpCodec codec(NormalType::Int4, 0.4f, 2.8);
    const NormalCodec normal(NormalType::Flint4);

    const size_t calib_n = smoke::count(1u << 14, 1u << 12);
    const auto calib_xs = benchData(calib_n);
    const OliveQuantizer quantizer;

    const size_t dim = smoke::count(256, 48);
    const Tensor ta = gaussianTensor({dim, dim}, 1);
    const Tensor tb = gaussianTensor({dim, dim}, 2);

    std::vector<KernelRow> rows;
    const double elems = static_cast<double>(codec_n) / 1e6;

    // --- normal-codec encode (search vs boundary table) ----------------
    {
        KernelRow r{"normal encode", elems, "Melem/s"};
        std::vector<u32> ref_codes(codec_n), fast_codes(codec_n);
        r.refSec = secondsOf(reps, [&] {
            for (size_t i = 0; i < codec_n; ++i)
                ref_codes[i] = normal.encodeReference(xs[i], 0.4f);
        });
        r.fastSec = secondsOf(reps, [&] {
            for (size_t i = 0; i < codec_n; ++i)
                fast_codes[i] = normal.encode(xs[i], 0.4f);
        });
        r.identical = ref_codes == fast_codes;
        rows.push_back(r);
    }

    // --- OVP stream encode / decode ------------------------------------
    std::vector<u8> ref_bytes, fast_bytes;
    {
        KernelRow r{"ovp encode", elems, "Melem/s"};
        r.refSec = secondsOf(
            reps, [&] { ref_bytes = encodeStreamReference(codec, xs); });
        r.fastSec = secondsOf(reps, [&] { fast_bytes = codec.encode(xs); });
        r.identical = ref_bytes == fast_bytes;
        rows.push_back(r);
    }
    {
        KernelRow r{"ovp decode", elems, "Melem/s"};
        std::vector<float> ref_vals, fast_vals;
        r.refSec = secondsOf(reps, [&] {
            ref_vals = decodeStreamReference(codec, ref_bytes, codec_n);
        });
        r.fastSec = secondsOf(
            reps, [&] { fast_vals = codec.decode(fast_bytes, codec_n); });
        r.identical = sameFloats(ref_vals, fast_vals);
        rows.push_back(r);
    }

    // --- fused fakeQuant round trip ------------------------------------
    {
        KernelRow r{"fakeQuant", elems, "Melem/s"};
        std::vector<float> ref_vals, fast_vals;
        OvpStats ref_st, fast_st;
        r.refSec = secondsOf(
            reps, [&] { ref_vals = codec.fakeQuantReference(xs, &ref_st); });
        r.fastSec = secondsOf(
            reps, [&] { fast_vals = codec.fakeQuant(xs, &fast_st); });
        r.identical = sameFloats(ref_vals, fast_vals) &&
                      ref_st.pairs == fast_st.pairs &&
                      ref_st.outlierPairs == fast_st.outlierPairs &&
                      ref_st.prunedOutliers == fast_st.prunedOutliers;
        rows.push_back(r);
    }

    // --- quantizer calibration -----------------------------------------
    {
        KernelRow r{"calibrate", 1.0, "calib/s"};
        QuantDecision ref_d, fast_d;
        r.refSec = secondsOf(
            reps, [&] { ref_d = quantizer.calibrateReference(calib_xs); });
        r.fastSec =
            secondsOf(reps, [&] { fast_d = quantizer.calibrate(calib_xs); });
        r.identical = sameDecision(ref_d, fast_d);
        rows.push_back(r);
    }
    // The shape serving calibrates: one d = 128 KV row at a time (the
    // GPT2-XL evaluation backbone's width), over a batch of rows.
    for (const int bits : {4, 8}) {
        OliveConfig config;
        config.bits = bits;
        const OliveQuantizer kv(config);
        const size_t d = models::byName("GPT2-XL").evalDModel;
        const size_t n_rows = smoke::count(256, 16);
        const auto kv_xs = benchData(d * n_rows);
        const auto row = [&](size_t i) {
            return std::span<const float>(kv_xs).subspan(i * d, d);
        };
        KernelRow r{"calibrate kv-row d" + std::to_string(d) + " olive" +
                        std::to_string(bits),
                    static_cast<double>(n_rows), "calib/s"};
        std::vector<QuantDecision> ref_d(n_rows), fast_d(n_rows);
        r.refSec = secondsOf(reps, [&] {
            for (size_t i = 0; i < n_rows; ++i)
                ref_d[i] = kv.calibrateReference(row(i));
        });
        r.fastSec = secondsOf(reps, [&] {
            for (size_t i = 0; i < n_rows; ++i)
                fast_d[i] = kv.calibrate(row(i));
        });
        r.identical = std::equal(ref_d.begin(), ref_d.end(), fast_d.begin(),
                                 sameDecision);
        rows.push_back(r);
    }

    // --- GEMM ----------------------------------------------------------
    const double gflop = 2.0 * static_cast<double>(dim) *
                         static_cast<double>(dim) *
                         static_cast<double>(dim) / 1e9;
    {
        KernelRow r{"gemm matmul", gflop, "GFLOP/s"};
        Tensor ref_c, fast_c;
        r.refSec = secondsOf(reps, [&] { ref_c = matmulReference(ta, tb); });
        r.fastSec = secondsOf(reps, [&] { fast_c = matmul(ta, tb); });
        r.identical = sameTensor(ref_c, fast_c);
        rows.push_back(r);
    }
    {
        KernelRow r{"gemm matmulTransB", gflop, "GFLOP/s"};
        Tensor ref_c, fast_c;
        r.refSec =
            secondsOf(reps, [&] { ref_c = matmulTransBReference(ta, tb); });
        r.fastSec = secondsOf(reps, [&] { fast_c = matmulTransB(ta, tb); });
        r.identical = sameTensor(ref_c, fast_c);
        rows.push_back(r);
    }

    // --- GEMM at the serving shapes ------------------------------------
    // linearForward on the layer weights, matmulTransB on the vocab head
    // (the embedding, as LmModel::logitsFromHidden runs it), each
    // oracle-checked against matmulTransBReference (+ the float bias).
    // Small shapes repeat inside one timed run so a run is ~4 MFLOP.
    {
        const models::ModelConfig gpt2 = models::byName("GPT2-XL");
        const size_t d = gpt2.evalDModel, dff = gpt2.evalDFf;
        const struct
        {
            const char *name;
            size_t n, k;
            bool bias;
        } shapes[] = {{"attn_proj", d, d, true},
                      {"ff1", dff, d, true},
                      {"ff2", d, dff, true},
                      {"head", gpt2.evalVocab, d, false}};
        u64 seed = 10;
        for (const auto &sh : shapes) {
            const Tensor w = gaussianTensor({sh.n, sh.k}, ++seed);
            const Tensor bias = gaussianTensor({sh.n}, ++seed);
            for (const size_t m : {1, 4, 32}) {
                const Tensor a = gaussianTensor({m, sh.k}, ++seed);
                const double flop =
                    2.0 * static_cast<double>(m * sh.n * sh.k);
                const size_t iters = std::max<size_t>(
                    1, smoke::count(4000000, 1) / static_cast<size_t>(flop));
                KernelRow r{std::string("gemm linear ") + sh.name + " m" +
                                std::to_string(m),
                            flop * static_cast<double>(iters) / 1e9,
                            "GFLOP/s"};
                Tensor ref_c, fast_c;
                r.refSec = secondsOf(reps, [&] {
                    for (size_t it = 0; it < iters; ++it) {
                        ref_c = matmulTransBReference(a, w);
                        if (sh.bias)
                            for (size_t i = 0; i < m; ++i)
                                for (size_t j = 0; j < sh.n; ++j)
                                    ref_c.at(i, j) += bias[j];
                    }
                });
                r.fastSec = secondsOf(reps, [&] {
                    for (size_t it = 0; it < iters; ++it)
                        fast_c = sh.bias ? linearForward(a, w, bias)
                                         : matmulTransB(a, w);
                });
                r.identical = sameTensor(ref_c, fast_c);
                rows.push_back(r);
            }
        }
    }

    // --- axpy ----------------------------------------------------------
    {
        const double mb = static_cast<double>(dim) *
                          static_cast<double>(dim) / 1e6;
        KernelRow r{"axpy", mb, "Melem/s"};
        Tensor ref_c = ta.clone();
        Tensor fast_c = ta.clone();
        const float alpha = 0.37f;
        float *rc = ref_c.raw();
        const float *ra = tb.raw();
        r.refSec = secondsOf(reps, [&] {
            for (size_t i = 0; i < ref_c.size(); ++i)
                rc[i] += alpha * ra[i];
        });
        r.fastSec = secondsOf(reps, [&] { axpy(fast_c, tb, alpha); });
        // Accumulated the same number of reps? No: best-of timing runs
        // the body `reps` times on both sides, so the tensors have seen
        // the same sequence of in-place updates and must still agree.
        r.identical = sameTensor(ref_c, fast_c);
        rows.push_back(r);
    }

    par::setThreadCount(0);

    // --- report --------------------------------------------------------
    std::printf("== Micro kernels: reference vs fast path (1 thread) ==\n\n");
    Table t({"Kernel", "Reference", "Fast", "Speedup", "Bit-identical"});
    BenchReport report("bench_micro_kernels");
    report.note("mode", smoke::enabled() ? "smoke" : "full");
    report.note("threads", "1");
    report.note("codec_n", std::to_string(codec_n));
    report.note("calibrate_n", std::to_string(calib_n));
    report.note("gemm_dim", std::to_string(dim));
    benchutil::noteHost(report);
    for (const KernelRow &r : rows) {
        const double rate_ref = r.work / r.refSec;
        const double rate_fast = r.work / r.fastSec;
        const double speedup = r.refSec / r.fastSec;
        t.addRow({r.name,
                  Table::num(rate_ref, 2) + " " + r.unit,
                  Table::num(rate_fast, 2) + " " + r.unit,
                  Table::num(speedup, 2) + "x",
                  r.identical ? "yes" : "NO"});
        report.add(r.name)
            .label("unit", r.unit)
            .metric("ref_sec", r.refSec)
            .metric("fast_sec", r.fastSec)
            .metric("ref_rate", rate_ref)
            .metric("fast_rate", rate_fast)
            .metric("speedup", speedup)
            .metric("identical", r.identical ? 1.0 : 0.0);
        OLIVE_ASSERT(r.identical,
                     "fast path diverged from reference oracle");
    }
    t.print();
    report.writeFile(args.get("out"));
    std::printf("\nJSON written to %s (smoke numbers are not "
                "paper-comparable).\n", args.get("out").c_str());
    return 0;
}
