/**
 * @file
 * Serving benchmark program (see perfbench/README.md).
 *
 *   olive_perfbench --workload <decode-heavy|long-prompt|chat>
 *                   --seed N --seconds S --trace <0|1>
 *                   --signatures perfbench/signatures.json
 *                   [--trace-dir DIR] [--mint N]
 *
 * --trace 0 runs the workload once and reports the end-to-end metrics.
 * --trace 1 runs it untraced, then again with spans and step-boundary
 * sampling, replays the observed shapes, and reports the per-layer
 * metrics.  Every pass checks its outputs (check.cpp).  Human-readable
 * lines with sample counts and ratio bases come first; the last line
 * of stdout is the JSON result.  --mint N writes the stream signatures
 * of the trace's first N requests into the signature file instead.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "serve/cache_eval.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

using namespace perfbench;
using namespace olive;

namespace {

/** Seconds of back-to-back stack builds before the timed pass and
 *  again after it; setup_s is the median build.  On a shared host the
 *  build time switches between two levels (about 10 and 16 ms) for a
 *  second or more at a time, so the builds are spread over time rather
 *  than taken as one short burst. */
constexpr double kSetupSampleS = 2.0;

/** Latency limits of slo_attain, per workload: TTFT (from the due
 *  time) and the request's mean inter-token latency, in ms.  The TTFT
 *  limits come from seed-code TTFT distributions (README.md): on chat
 *  just above the requests that met an idle service, so a request that
 *  waited behind another drain misses it; on long-prompt just past the
 *  seeds' 90th percentiles. */
struct Slo
{
    double ttftMs;
    double itlMs;
};

Slo
sloFor(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::DecodeHeavy:
        return {1000.0, 40.0};
    case WorkloadKind::LongPrompt:
        return {2000.0, 400.0};
    case WorkloadKind::Chat:
        return {40.0, 10.0};
    }
    return {0.0, 0.0};
}

/** Metrics in report order, with units, sample counts and bases. */
class Report
{
  public:
    void add(const std::string &name, double value, const char *unit,
             const std::string &note = "")
    {
        metrics_.set(name, Json::object({{"value", value}, {"unit", unit}}));
        print(name, value, unit, note);
    }

    /** Percentile @p p of @p xs, noting the sample count and whether
     *  at least ten samples lie beyond it.  @p judged false prints it
     *  without putting it into the JSON result. */
    void percentileMetric(const std::string &name,
                          const std::vector<double> &xs, double p,
                          const char *unit, bool judged = true)
    {
        const size_t beyond = samplesBeyond(xs.size(), p);
        const std::string note =
            "(n=" + std::to_string(xs.size()) +
            (p > 50.0 && beyond < 10 ? ", < 10 beyond: indicative" : "") +
            (judged ? ")" : "; not judged)");
        if (judged)
            add(name, percentile(xs, p), unit, note);
        else
            print(name, percentile(xs, p), unit, note);
    }

    /** @p num / @p den, printed with its base. */
    void ratio(const std::string &name, double num, double den,
               const char *unit, const std::string &what)
    {
        add(name, den > 0.0 ? num / den : 0.0, unit,
            "(" + fmt(num) + " / " + fmt(den) + " " + what + ")");
    }

    const Json &metrics() const { return metrics_; }

  private:
    static void print(const std::string &name, double value,
                      const char *unit, const std::string &note)
    {
        std::printf("  %-32s %14.6g %-6s %s\n", name.c_str(), value, unit,
                    note.c_str());
    }

    static std::string fmt(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        return buf;
    }
    Json metrics_ = Json::object();
};

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i], val;
        const size_t eq = key.find('=');
        if (eq != std::string::npos) {
            val = key.substr(eq + 1);
            key.resize(eq);
        } else if (i + 1 < argc) {
            val = argv[++i];
        } else {
            return false;
        }
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            o.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            o.trace = val == "1";
        else if (key == "--signatures")
            o.signatures = val;
        else if (key == "--trace-dir")
            o.traceDir = val;
        else if (key == "--mint")
            o.mint = std::strtoull(val.c_str(), nullptr, 10);
        else
            return false;
    }
    return parseWorkload(o.workload, o.kind) && o.seconds > 0.0 &&
           !o.signatures.empty();
}

/** Time to first token of each finished request, from its due time. */
std::vector<double>
ttftMs(const RunResult &r)
{
    std::vector<double> out;
    for (const RequestRecord &q : r.requests)
        if (!q.tokenTimes.empty())
            out.push_back(msBetween(q.due, q.tokenTimes.front()));
    return out;
}

std::vector<double>
itlMs(const RunResult &r)
{
    std::vector<double> out;
    for (const RequestRecord &q : r.requests)
        for (size_t i = 1; i < q.tokenTimes.size(); ++i)
            out.push_back(msBetween(q.tokenTimes[i - 1], q.tokenTimes[i]));
    return out;
}

/** Wall seconds the driving thread worked, per processed token. */
double
busyPerToken(const RunResult &r)
{
    return r.busyS /
           static_cast<double>(std::max<u64>(1, r.metrics.tokensProcessed));
}

RunResult
runPass(Stack &st, const serve::Workload &trace, const Options &o,
        Tracer &tr)
{
    return o.kind == WorkloadKind::Chat ? runChat(st, trace, o, tr)
                                        : runClosed(st, trace, o, tr);
}

/** Build stacks back to back for kSetupSampleS, appending each build
 *  time to @p times (the first counted from @p first); returns the
 *  last stack. */
std::unique_ptr<Stack>
timedBuilds(WorkloadKind kind, Clock::time_point first,
            std::vector<double> &times)
{
    // Each stack is torn down before the next start time is taken, so
    // teardown is not timed as set-up.
    for (auto start = first;; start = Clock::now()) {
        std::unique_ptr<Stack> st = makeStack(kind);
        times.push_back(secondsBetween(start, Clock::now()));
        if (secondsBetween(first, Clock::now()) >= kSetupSampleS)
            return st;
    }
}

void
endToEnd(Report &rep, const RunResult &r, const Options &o,
         const Stack &st, const std::vector<bool> &bad)
{
    const double window = secondsBetween(r.start, r.end);
    std::printf("  (window %.3f s, process CPU %.3f s", window, r.cpuS);
    if (st.service)
        std::printf(", service thread busy %.3f s of it", r.busyS);
    std::printf(")\n");
    rep.ratio("tok_per_s", static_cast<double>(r.metrics.tokensProcessed),
              r.busyS, "1/s", "tokens / busy s");
    rep.ratio("gen_tok_per_s", static_cast<double>(r.metrics.tokensGenerated),
              r.busyS, "1/s", "generated / busy s");
    const std::vector<double> ttft = ttftMs(r), itl = itlMs(r);
    rep.percentileMetric("ttft_ms_p50", ttft, 50.0, "ms", false);
    rep.percentileMetric("ttft_ms_p90", ttft, 90.0, "ms", false);
    rep.percentileMetric("itl_ms_p50", itl, 50.0, "ms");
    rep.percentileMetric("itl_ms_p99", itl, 99.0, "ms", false);

    const Slo slo = sloFor(o.kind);
    size_t met = 0;
    for (size_t i = 0; i < r.requests.size(); ++i) {
        const RequestRecord &q = r.requests[i];
        if (bad[i] || q.tokenTimes.empty())
            continue;
        const double first = msBetween(q.due, q.tokenTimes.front());
        const double span = msBetween(q.tokenTimes.front(), q.tokenTimes.back());
        const double meanItl =
            q.tokenTimes.size() > 1
                ? span / static_cast<double>(q.tokenTimes.size() - 1)
                : 0.0;
        if (first <= slo.ttftMs && meanItl <= slo.itlMs)
            ++met;
    }
    char what[96];
    std::snprintf(what, sizeof what,
                  "requests within TTFT %.0f ms and mean ITL %.0f ms",
                  slo.ttftMs, slo.itlMs);
    rep.ratio("slo_attain", static_cast<double>(met),
              static_cast<double>(r.requests.size()), "frac", what);
    rep.add("peak_kv_bytes", static_cast<double>(r.poolPeakBytes), "B",
            "(BlockPool::peakBytes, retained blocks included)");
    rep.add("peak_rss_mib", peakRssMib(), "MiB", "(ru_maxrss)");

    // KV quality guard, outside the timed window: proxy perplexity of
    // the olive4 decode path on fixed text, scored by a copy of the
    // model whose temperature is calibrated as bench_serving's is
    // (greedy serving is temperature-blind; perplexity is not).
    eval::LmModel teacher = *st.model;
    eval::calibrateToTarget(teacher, 24.0, 2, 12, 7);
    Rng rng(99);
    const eval::TokenData text = eval::sampleText(teacher, 3, 16, rng);
    const serve::CacheImpact impact =
        serve::cacheImpact(teacher, text, st.engine->kvScheme());
    rep.add("kv_proxy_ppl", impact.perplexity, "ppl",
            "(" + impact.scheme + ", 3 x 16 tokens)");
}

void
perLayer(Report &rep, const RunResult &r, const RunResult &untraced,
         const Stack &st, const LayerTimes &lt)
{
    const serve::ServeMetrics &m = r.metrics;
    const bool chat = st.service != nullptr;
    const double steps = static_cast<double>(std::max<u64>(1, m.steps));

    // service.*: due -> accepted, and event lines per generated token.
    std::vector<double> acceptLag, queue;
    double promptRows = 0.0;
    for (const RequestRecord &q : r.requests) {
        acceptLag.push_back(msBetween(q.due, q.accepted));
        if (q.admittedSeen)
            queue.push_back(msBetween(q.accepted, q.admitted));
        promptRows += static_cast<double>(q.prompt.size());
    }
    rep.percentileMetric("service.accept_lag_ms_p50", acceptLag, 50.0, "ms");
    rep.percentileMetric("service.accept_lag_ms_p90", acceptLag, 90.0, "ms");
    rep.ratio("service.events_per_token", static_cast<double>(r.eventLines),
              static_cast<double>(m.tokensGenerated), "count",
              chat ? "event lines / generated" : "no service layer");

    // engine.*
    std::vector<double> stepMs = r.obs.stepMs;
    if (chat) // no step hook through the service: the engine's own times
        for (float s : m.stepSeconds)
            stepMs.push_back(static_cast<double>(s) * 1e3);
    rep.percentileMetric("engine.step_ms_p50", stepMs, 50.0, "ms");
    rep.percentileMetric("engine.step_ms_p99", stepMs, 99.0, "ms");
    rep.ratio("engine.rows_per_step", static_cast<double>(m.tokensProcessed),
              steps, "count", "rows / steps");
    rep.add("engine.active_mean", mean(r.obs.activePerStep), "count",
            chat ? "(time-weighted while any request is admitted)"
                 : "(n=" + std::to_string(r.obs.activePerStep.size()) +
                       " steps)");
    rep.percentileMetric("engine.queue_ms_p50", queue, 50.0, "ms");
    rep.percentileMetric("engine.queue_ms_p90", queue, 90.0, "ms");
    // Every generated token after a request's first needs one decode
    // row; every other processed row is a prompt row.
    const double decodeRows = static_cast<double>(m.tokensGenerated) -
                              static_cast<double>(r.requests.size());
    const double prefillRows =
        static_cast<double>(m.tokensProcessed) - decodeRows;
    rep.add("engine.prefill_rows", prefillRows, "count");
    rep.add("engine.decode_rows", decodeRows, "count");
    const double cpu = chat ? r.cpuS : r.obs.stepCpuS;
    const double wall = chat ? r.busyS : mean(r.obs.stepMs) * steps * 1e-3;
    rep.ratio("engine.cpu_util", cpu, wall, "frac",
              chat ? "CPU s / busy s" : "CPU s / step s");

    // kv.*: the format's ratio (payload, metadata and block layout);
    // the run's peak ratio would count retained blocks on one side only.
    const serve::BlockPool &pool = *st.engine->blockPool();
    rep.ratio("kv.bytes_vs_fp32", static_cast<double>(pool.blockBytes()),
              static_cast<double>(2 * pool.blockRows() * pool.dModel() *
                                  sizeof(float)),
              "frac", "block bytes / fp32 bytes of its rows");
    rep.ratio("kv.prefix_hit_frac",
              static_cast<double>(m.sharedPrefillRowsSkipped), promptRows,
              "frac", "rows skipped / prompt rows");
    rep.add("kv.retention_hits", static_cast<double>(m.retentionHits),
            "count");
    rep.add("kv.retention_evictions",
            static_cast<double>(m.retentionEvictions), "count");
    rep.add("kv.cow_rows", static_cast<double>(m.cowCopyRows), "count");
    rep.add("kv.blocks_peak", static_cast<double>(r.obs.blocksPeak), "count",
            "(n=" + std::to_string(r.obs.samples) + " samples)");

    // dcache.*
    const size_t layers = st.model->backbone.layers.size();
    rep.ratio("dcache.hit_frac", static_cast<double>(r.dcacheHits),
              static_cast<double>(r.dcacheHits + r.dcacheMisses), "frac",
              "hits / acquires");
    rep.ratio("dcache.decodes_per_row",
              static_cast<double>(r.dcacheDecodedRows),
              static_cast<double>(m.tokensProcessed * layers), "count",
              "decoded / appended rows");
    rep.add("dcache.peak_bytes", static_cast<double>(r.dcachePeakBytes), "B");

    // codec.*, nn.*, gemm.* from the shape replay.
    for (const auto &[name, v] : lt.values) {
        const bool rate = name.find("gflops") != std::string::npos;
        rep.add(name, v, rate ? "GFLOP/s" : "us");
    }

    // step.*: estimated CPU per step by phase (replayed per-row costs x
    // the run's exact row counts), as shares of the measured CPU per
    // step; other_ms is the unexplained rest of the mean step.
    const double L = static_cast<double>(layers);
    double chunkRows = 0.0, chunkCalls = 0.0;
    for (const ForwardCall &c : r.obs.calls)
        if (c.prefill) {
            chunkRows += static_cast<double>(c.rows);
            chunkCalls += 1.0;
        }
    // Prefill rows cost what the nearest timed m (1, 8, 32) costs.
    const double meanChunk = chunkCalls > 0.0 ? chunkRows / chunkCalls : 1.0;
    const size_t mi = meanChunk < 4.0 ? 0 : meanChunk < 16.0 ? 1 : 2;
    const bool chunked = mi > 0;
    const double rows = decodeRows + prefillRows;
    const double encode = 2.0 * lt.encodeUsPerRow;
    const double gemmUs =
        L * (decodeRows * lt.gemmUsPerRow[0] + prefillRows * lt.gemmUsPerRow[mi]);
    const double projRow0 = lt.projUsPerRow[0];
    const double projRowM = lt.projUsPerRow[mi];
    // Attention net of its projections and KV encodes; the difference
    // of two timings, so floor it at 0 where attention is cheap.
    const double attnStepCore = std::max(0.0, lt.attnStepUs - projRow0 - encode);
    const double attnChunkCore =
        chunked ? std::max(0.0, lt.attnChunkUsPerRow - projRowM - encode)
                : attnStepCore;
    const double attnUs =
        L * (decodeRows * attnStepCore + prefillRows * attnChunkCore);
    const double codecUs =
        L * rows * encode +
        2.0 * static_cast<double>(r.dcacheDecodedRows) * lt.decodeUsPerRow;
    const double headUs =
        static_cast<double>(m.tokensGenerated) * lt.headUsPerRow;
    const double cpuPerStepUs = cpu / steps * 1e6;
    const double shares[4] = {gemmUs / steps / cpuPerStepUs,
                              attnUs / steps / cpuPerStepUs,
                              codecUs / steps / cpuPerStepUs,
                              headUs / steps / cpuPerStepUs};
    const char *names[4] = {"step.gemm_frac", "step.attn_frac",
                            "step.codec_frac", "step.head_frac"};
    double sum = 0.0;
    for (int i = 0; i < 4; ++i) {
        rep.add(names[i], shares[i], "frac",
                "(of " + std::to_string(cpuPerStepUs) + " CPU us/step)");
        sum += shares[i];
    }
    rep.add("step.other_ms", mean(stepMs) * (1.0 - sum), "ms",
            "(mean step x unexplained share)");

    // Lateness of the untraced pass, whose latencies are the judged ones.
    rep.percentileMetric("driver.lag_ms_p99", untraced.lagMs, 99.0, "ms");
    rep.add("trace.overhead_frac",
            busyPerToken(r) / busyPerToken(untraced) - 1.0, "frac",
            "(busy s per processed token, traced / untraced - 1)");
}

/** Check one pass and print the outcome; adds to @p failed and
 *  returns a failed flag per request. */
std::vector<bool>
check(const RunResult &r, const serve::Workload &trace, const Options &o,
      const Stack &st, size_t &failed)
{
    const CheckResult c = checkRun(r, trace, o, st);
    std::printf("  check: %zu requests, %zu failed, %zu signature-checked, "
                "%zu regenerated on the reference engine, %zu error events\n",
                r.requests.size(), c.failed.size(), c.signatureChecked,
                c.oracleChecked, r.errorEvents);
    for (const std::string &p : c.problems)
        std::printf("  FAIL %s\n", p.c_str());
    failed += c.failed.size() + r.errorEvents;
    std::vector<bool> bad(r.requests.size(), false);
    for (size_t i : c.failed)
        bad[i] = true;
    return bad;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto processStart = Clock::now();
    Options o;
    if (!parseArgs(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: olive_perfbench --workload "
                     "<decode-heavy|long-prompt|chat> --seed N --seconds S "
                     "--trace <0|1> --signatures FILE [--trace-dir DIR] "
                     "[--mint N]\n");
        return 2;
    }
    if (o.mint > 0)
        return mintSignatures(o);

    // Set-up: the first build counts from process start; the pass
    // runs on the last one.
    std::vector<double> setups;
    const std::unique_ptr<Stack> st = timedBuilds(o.kind, processStart, setups);

    const serve::Workload trace = makeTrace(o.kind, o.seed);
    std::printf("perfbench %s seed %llu, %.3g s, trace %d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);

    Tracer off(false, processStart);
    const RunResult run = runPass(*st, trace, o, off);
    size_t failed = 0, attempted = run.requests.size();
    const std::vector<bool> bad = check(run, trace, o, *st, failed);

    Report rep;
    if (!o.trace) {
        endToEnd(rep, run, o, *st, bad);
        (void)timedBuilds(o.kind, Clock::now(), setups);
        rep.add("setup_s", percentile(setups, 50.0), "s",
                "(median of " + std::to_string(setups.size()) +
                    " builds, before and after the pass)");
    } else {
        auto st2 = makeStack(o.kind);
        Tracer tr(true, Clock::now());
        const RunResult traced = runPass(*st2, trace, o, tr);
        attempted += traced.requests.size();
        (void)check(traced, trace, o, *st2, failed);
        const LayerTimes lt = replayShapes(*st2, traced.obs);
        perLayer(rep, traced, run, *st2, lt);
        if (!o.traceDir.empty()) {
            std::filesystem::create_directories(o.traceDir);
            const std::string path = o.traceDir + "/" + o.workload + "-seed" +
                                     std::to_string(o.seed) + ".jsonl";
            tr.write(path);
            std::printf("  %zu spans written to %s\n", tr.size(),
                        path.c_str());
        }
    }

    const bool correct = failed == 0;
    std::printf("%s\n", Json::object({{"correct", correct},
                                      {"attempted", attempted},
                                      {"failed", failed},
                                      {"metrics", rep.metrics()}})
                            .dump()
                            .c_str());
    return correct ? 0 : 1;
}
