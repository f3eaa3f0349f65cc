/**
 * @file
 * Scenario-matrix serving benchmark: seeded serve::Workload traces
 * (uniform / Poisson / bursty / diurnal arrivals, a shared-system-
 * prompt population, multi-turn conversations) replayed through the
 * ServeEngine, one JSON row per scenario in BENCH_scenarios.json.
 *
 * Every scenario is replayed twice — pinned to one thread and at the
 * ambient pool size — and the per-request token streams plus all
 * step-domain latency numbers are asserted bit-identical before any
 * row is reported; --streams-out additionally writes the timing-free
 * stream signature to a file so the CI determinism leg can diff two
 * whole process runs byte for byte.
 *
 * The multi-turn scenario runs as a retention-on / retention-off pair
 * on the same trace: the pair is asserted bit-identical per request
 * (retention is invisible in token space), the retention-on row must
 * actually hit the retention LRU (shared_prefill_rows_skipped > 0),
 * and its median time-to-first-token — measured in engine steps, the
 * deterministic domain — must be strictly lower than the
 * retention-off run's: the cached prefix is what makes a follow-up
 * turn skip re-prefilling the whole dialogue.
 *
 *   ./build/bench_serving_scenarios --scenario multi-turn
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "eval/perplexity.hpp"
#include "models/config.hpp"
#include "serve/engine.hpp"
#include "serve/workload.hpp"
#include "util/args.hpp"
#include "util/benchjson.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/smoke.hpp"
#include "util/table.hpp"

using namespace olive;

namespace {

/** One scenario replay: engine metrics plus per-request outcomes. */
struct ScenarioRun
{
    serve::ServeMetrics metrics;
    serve::ReplayResult replay;
};

/** p-th percentile (nearest-rank on the sorted values; 0 if empty). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos =
        p / 100.0 * static_cast<double>(v.size() - 1) + 0.5;
    const size_t idx =
        std::min(v.size() - 1, static_cast<size_t>(pos));
    return v[idx];
}

/** Per-request TTFT in engine steps — the deterministic latency
 *  domain (wall TTFT varies with the machine, steps never do). */
std::vector<double>
ttftSteps(const serve::ReplayResult &r)
{
    std::vector<double> out;
    out.reserve(r.requests.size());
    for (const serve::ReplayRequestResult &q : r.requests)
        out.push_back(
            static_cast<double>(q.firstTokenStep - q.submitStep));
    return out;
}

/**
 * The timing-free signature of a replay: everything deterministic
 * about it (token streams, sharing rows, step-domain latencies), no
 * wall-clock fields.  Dumped for cross-run/process comparison.
 */
Json
streamsJson(const serve::ReplayResult &r)
{
    Json arr = Json::array();
    for (const serve::ReplayRequestResult &q : r.requests) {
        Json toks = Json::array();
        for (int t : q.generated)
            toks.push(Json(t));
        arr.push(Json::object({
            {"trace_id", q.traceId},
            {"prompt_tokens", q.promptTokens},
            {"shared_prefix_rows", q.sharedPrefixRows},
            {"submit_step", q.submitStep},
            {"first_token_step", q.firstTokenStep},
            {"finish_step", q.finishStep},
            {"generated", std::move(toks)},
        }));
    }
    return arr;
}

ScenarioRun
runScenario(const eval::LmModel &lm, const serve::ServeConfig &cfg,
            const serve::Workload &workload)
{
    serve::ServeEngine engine(lm, cfg);
    ScenarioRun r;
    r.replay = serve::replayTrace(engine, workload);
    r.metrics = engine.metrics();
    return r;
}

/** Serial-vs-ambient determinism check, then the ambient-pool run. */
ScenarioRun
runChecked(const eval::LmModel &lm, const serve::ServeConfig &cfg,
           const serve::Workload &workload, size_t nthreads)
{
    par::setThreadCount(1);
    const ScenarioRun serial = runScenario(lm, cfg, workload);
    par::setThreadCount(nthreads);
    ScenarioRun run = runScenario(lm, cfg, workload);
    OLIVE_ASSERT(streamsJson(serial.replay).dump() ==
                     streamsJson(run.replay).dump(),
                 "scenario replay diverged across thread counts — "
                 "determinism violation");
    return run;
}

bool
sharingActive(const serve::ServeMetrics &m)
{
    return m.sharedPrefillRowsSkipped > 0 || m.peakSharedSavedBytes > 0;
}

void
reportRow(BenchReport &report, const std::string &name,
          const ScenarioRun &r, const serve::ServeConfig &cfg,
          const serve::Workload &w)
{
    const serve::ServeMetrics &m = r.metrics;
    const std::vector<double> tsteps = ttftSteps(r.replay);
    report.add(name)
        .metric("requests", static_cast<double>(w.requests().size()))
        .metric("sessions", static_cast<double>(w.spec().sessions))
        .metric("ticks", static_cast<double>(r.replay.ticks))
        .metric("steps", static_cast<double>(m.steps))
        .metric("tokens_per_sec", m.tokensPerSecond())
        .metric("goodput_generated_per_sec", m.generatedPerSecond())
        .metric("p50_step_ms", m.stepLatencyMs(50.0))
        .metric("p99_step_ms", m.stepLatencyMs(99.0))
        .metric("ttft_ms_p50", m.ttftMs(50.0))
        .metric("ttft_ms_p99", m.ttftMs(99.0))
        .metric("ttft_steps_p50", percentile(tsteps, 50.0))
        .metric("ttft_steps_p99", percentile(tsteps, 99.0))
        .metric("peak_pending", static_cast<double>(r.replay.peakPending))
        .metric("peak_active", static_cast<double>(r.replay.peakActive))
        .metric("peak_cache_bytes",
                static_cast<double>(m.peakEncodedCacheBytes))
        .metric("peak_shared_saved_bytes",
                static_cast<double>(m.peakSharedSavedBytes))
        .metric("shared_prefill_rows_skipped",
                static_cast<double>(m.sharedPrefillRowsSkipped))
        .metric("cow_copy_rows", static_cast<double>(m.cowCopyRows))
        .metric("sharing_active", sharingActive(m) ? 1.0 : 0.0)
        .metric("requests_cancelled",
                static_cast<double>(m.requestsCancelled))
        .metric("retention_on", cfg.retainPrefixes ? 1.0 : 0.0)
        .metric("retention_stored",
                static_cast<double>(m.retentionStored))
        .metric("retention_hits", static_cast<double>(m.retentionHits))
        .metric("retention_shared_rows",
                static_cast<double>(m.retentionSharedRows))
        .metric("retention_evictions",
                static_cast<double>(m.retentionEvictions))
        .metric("retained_peak_bytes",
                static_cast<double>(m.retainedPeakBytes))
        .metric("deterministic", 1.0);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv, {{"model", "GPT2-XL"},
                           {"scenario", ""},
                           {"batch-tokens", "16"},
                           {"max-active", "4"},
                           {"block-rows", "4"},
                           {"out", "BENCH_scenarios.json"},
                           {"streams-out", ""}});
    smoke::banner();
    const size_t nthreads = par::threadCount();

    const auto config = models::byName(args.get("model"));
    const eval::LmModel lm = eval::makeLm(config, 1234);

    serve::ServeConfig base;
    base.cacheFormat = serve::KvCacheFormat::Olive4;
    base.maxBatchTokens =
        static_cast<size_t>(args.getInt("batch-tokens"));
    base.maxActiveRequests =
        static_cast<size_t>(args.getInt("max-active"));
    base.blockRows = static_cast<size_t>(args.getInt("block-rows"));

    /** The matrix: row name, named scenario, retention switch. */
    struct Row
    {
        const char *name;
        const char *scenario;
        bool retain;
    };
    const std::vector<Row> matrix = {
        {"uniform", "uniform", false},
        {"poisson", "poisson", false},
        {"bursty", "bursty", false},
        {"diurnal", "diurnal", false},
        {"shared-system", "shared-system", false},
        {"multi-turn-retain", "multi-turn", true},
        {"multi-turn-noretain", "multi-turn", false},
    };
    const std::string only = args.get("scenario");

    std::printf("== Serving scenarios: %s eval dims, batch-tokens %zu, "
                "active<=%zu, block-rows %zu ==\n\n",
                config.name.c_str(), base.maxBatchTokens,
                base.maxActiveRequests, base.blockRows);

    Table t({"Scenario", "reqs", "ticks", "gen/s", "p50 step ms",
             "TTFT p50 steps", "shared rows", "retention hits"});
    BenchReport report("bench_serving_scenarios");
    report.note("mode", smoke::enabled() ? "smoke" : "full");
    report.note("threads", std::to_string(nthreads));
    report.note("model", config.name);
    report.note("cache_format", "olive4");
    benchutil::noteHost(report);
    Json streams = Json::object({});

    std::map<std::string, ScenarioRun> runs;
    for (const Row &row : matrix) {
        if (!only.empty() && only != row.name && only != row.scenario)
            continue;
        serve::WorkloadSpec spec = serve::Workload::namedSpec(row.scenario);
        // Smoke mode shrinks the population, never the shape: the
        // arrival process and length distributions stay as specced.
        spec.sessions = smoke::count(spec.sessions, 4);
        const serve::Workload w = serve::Workload::generate(spec);
        serve::ServeConfig cfg = base;
        cfg.retainPrefixes = row.retain;
        const ScenarioRun run = runChecked(lm, cfg, w, nthreads);
        const serve::ServeMetrics &m = run.metrics;
        t.addRow({row.name, std::to_string(w.requests().size()),
                  std::to_string(run.replay.ticks),
                  Table::num(m.generatedPerSecond(), 1),
                  Table::num(m.stepLatencyMs(50.0), 3),
                  Table::num(percentile(ttftSteps(run.replay), 50.0), 1),
                  std::to_string(m.sharedPrefillRowsSkipped),
                  std::to_string(m.retentionHits)});
        reportRow(report, row.name, run, cfg, w);
        streams.set(row.name, streamsJson(run.replay));
        runs.emplace(row.name, run);
    }
    par::setThreadCount(0);
    OLIVE_ASSERT(!runs.empty(), "scenario filter matched nothing");

    // The shared-system-prompt population must actually exercise
    // sharing (live donors): the row's sharing_active is load-bearing.
    if (runs.count("shared-system")) {
        const serve::ServeMetrics &m = runs.at("shared-system").metrics;
        OLIVE_ASSERT(m.sharedPrefillRowsSkipped > 0,
                     "shared-system scenario shared no prefill rows");
    }

    // The retention pair: bit-identical streams, a real LRU hit rate,
    // and a strictly lower deterministic median TTFT.
    if (runs.count("multi-turn-retain") &&
        runs.count("multi-turn-noretain")) {
        const ScenarioRun &on = runs.at("multi-turn-retain");
        const ScenarioRun &off = runs.at("multi-turn-noretain");
        OLIVE_ASSERT(on.replay.requests.size() ==
                         off.replay.requests.size(),
                     "retention pair replayed different traces");
        for (size_t i = 0; i < on.replay.requests.size(); ++i)
            OLIVE_ASSERT(on.replay.requests[i].generated ==
                             off.replay.requests[i].generated,
                         "cached-prefix retention changed a token "
                         "stream");
        OLIVE_ASSERT(on.metrics.retentionStored > 0 &&
                         on.metrics.retentionHits > 0,
                     "multi-turn scenario never hit the retention LRU");
        OLIVE_ASSERT(on.metrics.sharedPrefillRowsSkipped > 0,
                     "retention hits skipped no prefill rows");
        OLIVE_ASSERT(off.metrics.retentionStored == 0 &&
                         off.metrics.retentionHits == 0,
                     "retention-off run stored retained prefixes");
        OLIVE_ASSERT(percentile(ttftSteps(on.replay), 50.0) <
                         percentile(ttftSteps(off.replay), 50.0),
                     "retention failed to lower the median TTFT "
                     "(engine-step domain)");
    }

    t.print();
    report.writeFile(args.get("out"));
    if (!args.get("streams-out").empty()) {
        std::ofstream f(args.get("streams-out"));
        OLIVE_ASSERT(f.good(), "cannot open --streams-out file");
        f << streams.dump() << "\n";
    }
    std::printf("\nEvery scenario served bit-identical streams at 1 "
                "thread and %zu threads; the multi-turn retention pair "
                "matched token-for-token with a strictly lower median "
                "TTFT when retaining.  JSON written to %s.\n",
                nthreads, args.get("out").c_str());
    return 0;
}
