/**
 * @file
 * Serving benchmark: continuous-batching decode throughput, step
 * latency, and KV-cache memory across cache formats (fp32, int8 /
 * olive8 / olive4), writing BENCH_serving.json.
 *
 * Each format serves the identical request workload twice — pinned to
 * one thread and at the ambient pool size — and the two generated
 * token streams are asserted bit-identical before any number is
 * reported: the engine's determinism guarantee is part of what this
 * bench demonstrates (the ctest "serve" legs run it at OLIVE_THREADS=1
 * and =8).  Storage is the paged block pool (the production layout); a
 * contiguous-reference fp32 row is kept for comparison, and a
 * shared-prefix workload row demonstrates prefix sharing: strictly
 * lower peak pool bytes than the identical unshared run, with zero
 * payload copies from admission/eviction (copy-on-write rows are the
 * only copies, asserted via the pool's copy counter).  The quality
 * columns come from serve::cacheImpact on text sampled from the same
 * model.
 *
 * Attention reads go through the decoded-block working set
 * (serve::DecodedBlockCache); every paged row reports its hit/miss/
 * eviction counters, and the bench asserts in-process that total codec
 * decode work grew linearly with processed tokens — the O(1)-per-step
 * amortization the working set exists for.  A kv-olive8-scratch row
 * re-runs olive8 with the working set off for comparison.
 *
 * Two further row pairs pin the batching work: a long-prompt workload
 * served with chunked prefill vs the token-by-token loop (median TTFT
 * must strictly improve, streams bit-identical), and a
 * repetitive-suffix workload served speculatively vs plain greedy
 * (streams bit-identical, accept rate asserted positive).  A final
 * service-olive4 row scripts the same workload through the
 * line-delimited JSON serve::Service front end and asserts the
 * reassembled token streams bit-identical to driving the engine
 * directly, pricing the session framing overhead.
 *
 *   ./build/bench_serving --requests 16 --max-new 16 --threads 8
 */

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "eval/perplexity.hpp"
#include "models/config.hpp"
#include "serve/cache_eval.hpp"
#include "serve/engine.hpp"
#include "serve/service.hpp"
#include "util/args.hpp"
#include "util/benchjson.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/smoke.hpp"
#include "util/table.hpp"

using namespace olive;

namespace {

/** One format's serving run: metrics + concatenated token stream. */
struct RunResult
{
    std::vector<int> tokens; //!< (id, generated...) in finish order.
    std::map<u64, std::vector<int>> byId; //!< Order-independent view.
    serve::ServeMetrics metrics;
    size_t steps = 0;
};

RunResult
runWorkload(const eval::LmModel &lm, serve::ServeConfig cfg,
            const std::vector<std::vector<int>> &prompts, size_t max_new)
{
    serve::ServeEngine engine(lm, cfg);
    for (const auto &p : prompts)
        engine.submit(p, max_new);
    RunResult r;
    r.steps = engine.runToCompletion();
    for (const serve::FinishedRequest &f : engine.finished()) {
        r.tokens.push_back(static_cast<int>(f.id));
        r.tokens.insert(r.tokens.end(), f.generated.begin(),
                        f.generated.end());
        r.byId[f.id] = f.generated;
    }
    r.metrics = engine.metrics();
    return r;
}

/** Serial-vs-ambient determinism check, then the ambient-pool run. */
RunResult
runChecked(const eval::LmModel &lm, const serve::ServeConfig &cfg,
           const std::vector<std::vector<int>> &prompts, size_t max_new,
           size_t nthreads)
{
    par::setThreadCount(1);
    const RunResult serial = runWorkload(lm, cfg, prompts, max_new);
    par::setThreadCount(nthreads);
    const RunResult run = runWorkload(lm, cfg, prompts, max_new);
    OLIVE_ASSERT(serial.tokens == run.tokens,
                 "serving output diverged across thread counts — "
                 "determinism violation");
    return run;
}

/** Did this run actually share rows, or merely have sharing enabled?
 *  "prefix_sharing" reports the config switch; random-prompt rows kept
 *  it on while exercising nothing, which read as misleading — so every
 *  row also reports "sharing_active", true only when prefix sharing
 *  demonstrably fired (rows seeded from a donor, or pool bytes saved
 *  by multi-reference blocks). */
bool
sharingActive(const serve::ServeMetrics &m)
{
    return m.sharedPrefillRowsSkipped > 0 || m.peakSharedSavedBytes > 0;
}

BenchReport::Entry &
reportRow(BenchReport &report, const std::string &name, const RunResult &r,
          const serve::ServeConfig &cfg)
{
    const serve::ServeMetrics &m = r.metrics;
    const double ratio =
        m.peakFp32CacheBytes
            ? static_cast<double>(m.peakEncodedCacheBytes) /
                  static_cast<double>(m.peakFp32CacheBytes)
            : 0.0;
    return report.add(name)
        .metric("tokens_per_sec", m.tokensPerSecond())
        .metric("generated_per_sec", m.generatedPerSecond())
        .metric("p50_step_ms", m.stepLatencyMs(50.0))
        .metric("p99_step_ms", m.stepLatencyMs(99.0))
        .metric("steps", static_cast<double>(r.steps))
        .metric("tokens_processed", static_cast<double>(m.tokensProcessed))
        .metric("tokens_generated", static_cast<double>(m.tokensGenerated))
        .metric("peak_cache_bytes",
                static_cast<double>(m.peakEncodedCacheBytes))
        .metric("peak_cache_fp32_bytes",
                static_cast<double>(m.peakFp32CacheBytes))
        .metric("cache_ratio_vs_fp32", ratio)
        .metric("paged", cfg.pagedCache ? 1.0 : 0.0)
        .metric("block_rows",
                cfg.pagedCache ? static_cast<double>(cfg.blockRows) : 0.0)
        .metric("prefix_sharing", cfg.prefixSharing ? 1.0 : 0.0)
        .metric("sharing_active", sharingActive(m) ? 1.0 : 0.0)
        .metric("peak_shared_saved_bytes",
                static_cast<double>(m.peakSharedSavedBytes))
        .metric("cow_copy_rows", static_cast<double>(m.cowCopyRows))
        .metric("shared_prefill_rows_skipped",
                static_cast<double>(m.sharedPrefillRowsSkipped))
        .metric("decoded_cache",
                cfg.pagedCache && cfg.decodedCache ? 1.0 : 0.0)
        .metric("decoded_cache_hits", static_cast<double>(m.decodedCacheHits))
        .metric("decoded_cache_misses",
                static_cast<double>(m.decodedCacheMisses))
        .metric("decoded_cache_evictions",
                static_cast<double>(m.decodedCacheEvictions))
        .metric("decoded_cache_rows",
                static_cast<double>(m.decodedCacheRows))
        .metric("decoded_cache_peak_bytes",
                static_cast<double>(m.decodedCachePeakBytes))
        .metric("prefill_chunk", static_cast<double>(cfg.prefillChunk))
        .metric("ttft_ms_p50", m.ttftMs(50.0))
        .metric("ttft_ms_p99", m.ttftMs(99.0))
        // Prefill throughput: rows processed that did not emit a token
        // (prompt rows dominate on long-prompt workloads).
        .metric("prefill_tokens_per_sec",
                m.totalSeconds > 0.0
                    ? static_cast<double>(m.tokensProcessed -
                                          m.tokensGenerated) /
                          m.totalSeconds
                    : 0.0)
        .metric("speculate", cfg.speculate ? 1.0 : 0.0)
        .metric("spec_drafted", static_cast<double>(m.specDrafted))
        .metric("spec_accepted", static_cast<double>(m.specAccepted))
        .metric("spec_accept_rate", m.specAcceptRate())
        .metric("deterministic", 1.0);
}

/**
 * The O(1)-amortization witness, asserted in-bench: with the decoded
 * working set on, codec decode work grows linearly with appended rows
 * — each (block, slot) decodes at most once per residency, so total
 * decoded (K, V) pairs are bounded by layers x processed tokens plus
 * the copy-on-write slots that land in fresh blocks.  The scratch path
 * it replaced re-decoded the whole prefix every step (quadratic in
 * request length), which blows far past this bound on any non-trivial
 * workload.
 */
void
assertDecodeWorkIsLinear(const serve::ServeMetrics &m, size_t layers)
{
    const u64 bound =
        static_cast<u64>(layers) * m.tokensProcessed + m.cowCopyRows;
    OLIVE_ASSERT(m.decodedCacheRows <= bound,
                 "decoded-cache codec work exceeded the linear bound — "
                 "the working set is re-decoding resident rows");
    OLIVE_ASSERT(m.decodedCacheRows > 0 && m.decodedCacheHits > 0,
                 "decoded cache saw no traffic on a decode workload");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv, {{"model", "GPT2-XL"},
                           {"requests", ""},
                           {"prompt-len", ""},
                           {"max-new", ""},
                           {"batch-tokens", "8"},
                           {"max-active", "4"},
                           {"block-rows", "4"},
                           {"seed", "23"},
                           {"out", "BENCH_serving.json"}});
    smoke::banner();
    const size_t nthreads = par::threadCount();

    const size_t n_requests =
        args.get("requests").empty()
            ? smoke::count(12, 3)
            : static_cast<size_t>(args.getInt("requests"));
    const size_t prompt_len =
        args.get("prompt-len").empty()
            ? smoke::count(20, 5)
            : static_cast<size_t>(args.getInt("prompt-len"));
    const size_t max_new = args.get("max-new").empty()
                               ? smoke::count(12, 4)
                               : static_cast<size_t>(args.getInt("max-new"));

    const auto config = models::byName(args.get("model"));
    eval::LmModel lm = eval::makeLm(config, 1234);
    // A calibrated teacher (see eval/perplexity.hpp) keeps the proxy
    // PPL columns comparable with the Table 9 machinery.
    eval::calibrateToTarget(lm, 24.0, smoke::count(2, 1),
                            smoke::count(12, 8), 7);

    Rng rng(static_cast<u64>(args.getInt("seed")));
    std::vector<std::vector<int>> prompts(n_requests);
    for (auto &p : prompts) {
        p.resize(1 + prompt_len / 2 + rng.uniformInt(prompt_len));
        for (auto &t : p)
            t = static_cast<int>(rng.uniformInt(lm.vocab));
    }

    Rng trng(99);
    const eval::TokenData text =
        eval::sampleText(lm, smoke::count(3, 1), smoke::count(16, 8), trng);

    serve::ServeConfig scfg;
    scfg.maxBatchTokens = static_cast<size_t>(args.getInt("batch-tokens"));
    scfg.maxActiveRequests = static_cast<size_t>(args.getInt("max-active"));
    scfg.blockRows = static_cast<size_t>(args.getInt("block-rows"));

    const std::vector<serve::KvCacheFormat> formats = {
        serve::KvCacheFormat::Fp32, serve::KvCacheFormat::Int8,
        serve::KvCacheFormat::Olive8, serve::KvCacheFormat::Olive4};

    std::printf("== Serving: %zu requests, prompt~%zu, max-new %zu, "
                "batch-tokens %zu, active<=%zu, block-rows %zu "
                "(%s eval dims) ==\n\n",
                n_requests, prompt_len, max_new, scfg.maxBatchTokens,
                scfg.maxActiveRequests, scfg.blockRows,
                config.name.c_str());

    Table t({"KV cache", "tok/s", "gen/s", "p50 ms", "p99 ms",
             "cache B", "vs fp32", "proxy PPL", "hidden MSE"});
    BenchReport report("bench_serving");
    report.note("mode", smoke::enabled() ? "smoke" : "full");
    report.note("threads", std::to_string(nthreads));
    report.note("model", config.name);
    benchutil::noteHost(report);
    report.note("requests", std::to_string(n_requests));
    report.note("max_new", std::to_string(max_new));
    report.note("batch_tokens", std::to_string(scfg.maxBatchTokens));
    report.note("block_rows", std::to_string(scfg.blockRows));
    report.note("storage", "paged");
    report.note("decode_codec_cache", "on");
    report.note("decoded_cache", "on");

    double olive4_ratio = -1.0;
    for (serve::KvCacheFormat fmt : formats) {
        scfg.cacheFormat = fmt;
        const RunResult run =
            runChecked(lm, scfg, prompts, max_new, nthreads);

        const auto scheme = serve::makeKvScheme(fmt);
        const serve::CacheImpact impact =
            serve::cacheImpact(lm, text, *scheme);

        const serve::ServeMetrics &m = run.metrics;
        const double ratio =
            m.peakFp32CacheBytes
                ? static_cast<double>(m.peakEncodedCacheBytes) /
                      static_cast<double>(m.peakFp32CacheBytes)
                : 0.0;
        if (fmt == serve::KvCacheFormat::Olive4)
            olive4_ratio = ratio;
        t.addRow({scheme->name(), Table::num(m.tokensPerSecond(), 1),
                  Table::num(m.generatedPerSecond(), 1),
                  Table::num(m.stepLatencyMs(50.0), 3),
                  Table::num(m.stepLatencyMs(99.0), 3),
                  std::to_string(m.peakEncodedCacheBytes),
                  Table::num(ratio, 3) + "x",
                  Table::num(impact.perplexity, 3),
                  Table::sci(impact.hiddenMse)});
        reportRow(report, scheme->name(), run, scfg)
            .metric("impact_proxy_ppl", impact.perplexity)
            .metric("impact_hidden_mse", impact.hiddenMse)
            .metric("impact_logit_mse", impact.logitMse);
        // Paged eviction/admission never copies payload bytes; with
        // sharing idle on random prompts the copy counter must be 0.
        OLIVE_ASSERT(m.cowCopyRows == 0,
                     "unshared workload performed payload copies");
        assertDecodeWorkIsLinear(m, lm.backbone.layers.size());
    }

    // The scratch-path comparison row: the same olive8 workload with
    // the decoded working set off, so the JSON records what block-table
    // attention buys over per-step whole-prefix re-decoding (the
    // pre-working-set behaviour, retained as the bit-exactness oracle).
    {
        serve::ServeConfig scratch = scfg;
        scratch.cacheFormat = serve::KvCacheFormat::Olive8;
        scratch.decodedCache = false;
        const RunResult run =
            runChecked(lm, scratch, prompts, max_new, nthreads);
        t.addRow({"kv-olive8-scratch",
                  Table::num(run.metrics.tokensPerSecond(), 1),
                  Table::num(run.metrics.generatedPerSecond(), 1),
                  Table::num(run.metrics.stepLatencyMs(50.0), 3),
                  Table::num(run.metrics.stepLatencyMs(99.0), 3),
                  std::to_string(run.metrics.peakEncodedCacheBytes), "-",
                  "-", "-"});
        reportRow(report, "kv-olive8-scratch", run, scratch);
    }

    // Contiguous-reference comparison row: the pre-paging layout the
    // fuzz suite uses as its oracle, same workload, fp32.
    {
        serve::ServeConfig ref = scfg;
        ref.cacheFormat = serve::KvCacheFormat::Fp32;
        ref.pagedCache = false;
        const RunResult run =
            runChecked(lm, ref, prompts, max_new, nthreads);
        t.addRow({"kv-fp32-contig",
                  Table::num(run.metrics.tokensPerSecond(), 1),
                  Table::num(run.metrics.generatedPerSecond(), 1),
                  Table::num(run.metrics.stepLatencyMs(50.0), 3),
                  Table::num(run.metrics.stepLatencyMs(99.0), 3),
                  std::to_string(run.metrics.peakEncodedCacheBytes), "-",
                  "-", "-"});
        reportRow(report, "kv-fp32-contig", run, ref);
    }

    // Shared-prefix workload: every request extends one long common
    // prompt prefix (the system-prompt serving pattern).  With sharing,
    // later requests reference the first request's prefix blocks
    // instead of re-caching (and re-computing) them: peak pool bytes
    // must drop strictly below the identical unshared run while the
    // token streams stay bit-identical.  The prefix dominates the
    // request length so the per-sharer saving (full prefix blocks)
    // clearly exceeds the one partial CoW block of slack.
    {
        std::vector<int> prefix(3 * prompt_len + 1);
        for (auto &tok : prefix)
            tok = static_cast<int>(rng.uniformInt(lm.vocab));
        std::vector<std::vector<int>> shared_prompts(n_requests, prefix);
        for (auto &p : shared_prompts) {
            const size_t tail = 1 + rng.uniformInt(3);
            for (size_t i = 0; i < tail; ++i)
                p.push_back(static_cast<int>(rng.uniformInt(lm.vocab)));
        }
        serve::ServeConfig base = scfg;
        base.cacheFormat = serve::KvCacheFormat::Fp32;
        base.maxActiveRequests = n_requests; // sharers overlap the donor
        serve::ServeConfig shared_cfg = base, unshared_cfg = base;
        shared_cfg.prefixSharing = true;
        unshared_cfg.prefixSharing = false;
        const RunResult shared =
            runChecked(lm, shared_cfg, shared_prompts, max_new, nthreads);
        const RunResult unshared = runChecked(lm, unshared_cfg,
                                              shared_prompts, max_new,
                                              nthreads);
        // Sharing reshapes the schedule (sharers skip prefill), so
        // finish ORDER may differ; per-request streams must not.
        OLIVE_ASSERT(shared.byId == unshared.byId,
                     "prefix sharing changed the generated tokens");
        // The headline claims of the paged refactor, asserted:
        OLIVE_ASSERT(shared.metrics.peakEncodedCacheBytes <
                         unshared.metrics.peakEncodedCacheBytes,
                     "prefix sharing failed to lower the peak footprint");
        OLIVE_ASSERT(unshared.metrics.cowCopyRows == 0,
                     "admission/eviction copied payload bytes");
        OLIVE_ASSERT(shared.metrics.sharedPrefillRowsSkipped > 0,
                     "shared-prefix workload shared nothing");
        // The sharing_active column must separate "enabled" from
        // "exercised": the shared-prefix row fires it, its unshared
        // twin (and the random-prompt rows above) must not.
        OLIVE_ASSERT(sharingActive(shared.metrics),
                     "shared-prefix row failed to flag sharing_active");
        OLIVE_ASSERT(!sharingActive(unshared.metrics),
                     "unshared row claimed active sharing");
        for (const auto &[name, run] :
             {std::pair<const char *, const RunResult &>(
                  "kv-fp32-shared-prefix", shared),
              std::pair<const char *, const RunResult &>(
                  "kv-fp32-unshared-prefix", unshared)}) {
            t.addRow({name, Table::num(run.metrics.tokensPerSecond(), 1),
                      Table::num(run.metrics.generatedPerSecond(), 1),
                      Table::num(run.metrics.stepLatencyMs(50.0), 3),
                      Table::num(run.metrics.stepLatencyMs(99.0), 3),
                      std::to_string(run.metrics.peakEncodedCacheBytes),
                      "-", "-", "-"});
        }
        reportRow(report, "kv-fp32-shared-prefix", shared, shared_cfg);
        reportRow(report, "kv-fp32-unshared-prefix", unshared,
                  unshared_cfg);
    }
    // Batched-prefill TTFT pair: identical long-prompt workload served
    // with chunked prefill (forwardChunk slabs) and with the
    // token-by-token oracle loop, same per-step token budget.  The
    // chunked run must strictly beat the loop on median time-to-first-
    // token — the weight matrices stream once per slab instead of once
    // per row — while the streams stay bit-identical (the loop IS the
    // oracle the chunk path is tested against).
    Table pt({"Prefill workload", "TTFT p50 ms", "TTFT p99 ms",
              "prefill tok/s", "drafted", "accepted", "accept"});
    {
        const size_t long_len = 4 * prompt_len + 1;
        const size_t n_long = smoke::count(4, 2);
        std::vector<std::vector<int>> long_prompts(n_long);
        for (auto &p : long_prompts) {
            p.resize(long_len);
            for (auto &tok : p)
                tok = static_cast<int>(rng.uniformInt(lm.vocab));
        }
        serve::ServeConfig batched = scfg;
        batched.cacheFormat = serve::KvCacheFormat::Fp32;
        // Budget wide enough for whole chunks; both variants get it.
        batched.maxBatchTokens =
            std::max<size_t>(scfg.maxBatchTokens, 64);
        batched.prefillChunk = 32;
        serve::ServeConfig stepwise = batched;
        stepwise.prefillChunk = 1;
        const RunResult fast =
            runChecked(lm, batched, long_prompts, 2, nthreads);
        const RunResult slow =
            runChecked(lm, stepwise, long_prompts, 2, nthreads);
        OLIVE_ASSERT(fast.byId == slow.byId,
                     "batched prefill changed the generated tokens");
        OLIVE_ASSERT(fast.metrics.ttftSeconds.size() == n_long &&
                         slow.metrics.ttftSeconds.size() == n_long,
                     "every request must record exactly one TTFT");
        OLIVE_ASSERT(fast.metrics.ttftMs(50.0) <
                         slow.metrics.ttftMs(50.0),
                     "batched prefill failed to beat the token-by-token "
                     "loop on median TTFT");
        for (const auto &[name, run] :
             {std::pair<const char *, const RunResult &>(
                  "long-prompt-batched", fast),
              std::pair<const char *, const RunResult &>(
                  "long-prompt-stepwise", slow)}) {
            const serve::ServeMetrics &m = run.metrics;
            pt.addRow({name, Table::num(m.ttftMs(50.0), 3),
                       Table::num(m.ttftMs(99.0), 3),
                       Table::num(m.totalSeconds > 0.0
                                      ? static_cast<double>(
                                            m.tokensProcessed -
                                            m.tokensGenerated) /
                                            m.totalSeconds
                                      : 0.0,
                                  1),
                       "-", "-", "-"});
        }
        reportRow(report, "long-prompt-batched", fast, batched);
        reportRow(report, "long-prompt-stepwise", slow, stepwise);
    }

    // Speculative decode on a repetitive-suffix workload (the pattern
    // n-gram lookup exists for): streams must be bit-identical to the
    // plain greedy run, and the proposer must actually land accepted
    // drafts — a >0 accept rate is asserted, the rate itself is
    // reported.
    {
        const size_t spec_new = 4 * max_new;
        std::vector<std::vector<int>> rep_prompts(n_requests);
        for (size_t r = 0; r < n_requests; ++r) {
            // A per-request 3-token motif repeated across the prompt:
            // the trailing n-gram always has an earlier occurrence.
            int motif[3];
            for (auto &tok : motif)
                tok = static_cast<int>(rng.uniformInt(lm.vocab));
            rep_prompts[r].resize(prompt_len + 1);
            for (size_t i = 0; i < rep_prompts[r].size(); ++i)
                rep_prompts[r][i] = motif[i % 3];
        }
        serve::ServeConfig greedy = scfg;
        greedy.cacheFormat = serve::KvCacheFormat::Fp32;
        serve::ServeConfig spec = greedy;
        spec.speculate = true;
        spec.draftLen = 4;
        const RunResult g =
            runChecked(lm, greedy, rep_prompts, spec_new, nthreads);
        const RunResult s =
            runChecked(lm, spec, rep_prompts, spec_new, nthreads);
        OLIVE_ASSERT(s.byId == g.byId,
                     "speculative decode changed a token stream");
        OLIVE_ASSERT(s.metrics.specDrafted > 0,
                     "repetitive workload produced no drafts");
        OLIVE_ASSERT(s.metrics.specAccepted > 0,
                     "repetitive workload accepted no drafts");
        const auto spec_row = [&](const char *name, const RunResult &run) {
            const serve::ServeMetrics &m = run.metrics;
            pt.addRow({name, Table::num(m.ttftMs(50.0), 3),
                       Table::num(m.ttftMs(99.0), 3), "-",
                       std::to_string(m.specDrafted),
                       std::to_string(m.specAccepted),
                       Table::num(100.0 * m.specAcceptRate(), 1) + "%"});
        };
        spec_row("repetitive-greedy", g);
        spec_row("repetitive-spec", s);
        reportRow(report, "repetitive-greedy", g, greedy);
        reportRow(report, "repetitive-spec", s, spec);
    }

    // Serving front end row: the identical olive4 workload scripted
    // through the line-delimited JSON Service (submit burst, drain,
    // shutdown).  The Service is an observer over the engine — the
    // per-request token streams reassembled from its token events must
    // be bit-identical to driving the engine directly, and the session
    // overhead (JSON framing + event emission) is what the row's
    // throughput columns price relative to the plain olive4 row.
    {
        serve::ServeConfig front = scfg;
        front.cacheFormat = serve::KvCacheFormat::Olive4;
        const RunResult direct = runWorkload(lm, front, prompts, max_new);

        serve::ServeEngine engine(lm, front);
        std::stringstream in;
        for (const auto &p : prompts) {
            Json prompt = Json::array();
            for (int tok : p)
                prompt.push(tok);
            in << Json::object({{"op", "submit"},
                                {"prompt", prompt},
                                {"max_new", max_new}})
                      .dump()
               << "\n";
        }
        in << "{\"op\":\"drain\"}\n{\"op\":\"shutdown\"}\n";
        serve::ServiceConfig svc;
        svc.autoDrain = false; // burst-then-drain: the direct schedule
        serve::Service service(engine, svc);
        std::stringstream out;
        service.run(in, out);

        std::map<u64, std::vector<int>> streamed;
        size_t session_events = 0;
        std::string line;
        while (std::getline(out, line)) {
            ++session_events;
            const auto ev = Json::parse(line);
            OLIVE_ASSERT(ev.has_value(),
                         "service emitted a non-JSON line");
            if (ev->find("event")->asString() == "token")
                streamed[static_cast<u64>(ev->find("id")->asInt())]
                    .push_back(
                        static_cast<int>(ev->find("token")->asInt()));
        }
        OLIVE_ASSERT(streamed == direct.byId,
                     "service front end altered the token streams");
        RunResult run;
        run.byId = std::move(streamed);
        run.metrics = engine.metrics();
        run.steps = run.metrics.steps;
        t.addRow({"service-olive4",
                  Table::num(run.metrics.tokensPerSecond(), 1),
                  Table::num(run.metrics.generatedPerSecond(), 1),
                  Table::num(run.metrics.stepLatencyMs(50.0), 3),
                  Table::num(run.metrics.stepLatencyMs(99.0), 3),
                  std::to_string(run.metrics.peakEncodedCacheBytes), "-",
                  "-", "-"});
        reportRow(report, "service-olive4", run, front)
            .metric("session_events",
                    static_cast<double>(session_events));
    }
    par::setThreadCount(0);

    t.print();
    std::printf("\n");
    pt.print();
    // The paper-level claim this subsystem exists for: the OVP cache
    // holds the same tokens in at most a quarter of the fp32 bytes.
    OLIVE_ASSERT(olive4_ratio > 0.0 && olive4_ratio <= 0.25,
                 "olive4 KV cache exceeded 0.25x of fp32 bytes");
    report.writeFile(args.get("out"));
    std::printf("\nAll rows served bit-identical token streams at 1 "
                "thread and %zu threads; the shared-prefix run peaked "
                "below the unshared run with zero admission/eviction "
                "copies; batched prefill beat the token-by-token loop "
                "on median TTFT; speculative streams matched greedy "
                "with a positive accept rate.  JSON written to %s.\n",
                nthreads, args.get("out").c_str());
    return 0;
}
