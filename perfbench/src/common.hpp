/**
 * @file
 * Shared types of the serving benchmark: options, the per-request and
 * per-step records the workload runners fill, the in-memory span
 * tracer, and the percentile helpers the metric code uses.
 *
 * The benchmark drives only the library's public API: requests come
 * from serve::Workload::generate over benchmark-side WorkloadSpecs,
 * and every number is read through the engine's, pool's, decoded
 * cache's and service's public accessors (see README.md).
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "eval/perplexity.hpp"
#include "serve/engine.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "util/common.hpp"

namespace perfbench {

using olive::u64;
using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return secondsBetween(a, b) * 1e3;
}

/** Process CPU time, all threads, in seconds. */
double cpuSeconds();

/** Peak resident set of the process (ru_maxrss), in MiB. */
double peakRssMib();

enum class WorkloadKind
{
    DecodeHeavy,
    LongPrompt,
    Chat,
};

/** Parse a workload name; false for an unknown one. */
bool parseWorkload(const std::string &name, WorkloadKind &out);

/** Command-line options. */
struct Options
{
    std::string workload;
    WorkloadKind kind = WorkloadKind::DecodeHeavy;
    u64 seed = 1;
    double seconds = 15.0;
    bool trace = false;
    std::string signatures; //!< Path of the stream-signature file.
    std::string traceDir;   //!< Where traced runs write their spans.
    size_t mint = 0;        //!< > 0: print signatures of N requests.
};

/** The program under test: model, engine and (chat) service. */
struct Stack
{
    std::unique_ptr<olive::eval::LmModel> model;
    std::unique_ptr<olive::serve::ServeEngine> engine;
    std::unique_ptr<olive::serve::Service> service;
};

/** Build a ready-to-serve stack for @p kind. */
std::unique_ptr<Stack> makeStack(WorkloadKind kind);

/** The request trace of @p kind for @p seed (fixed session count). */
olive::serve::Workload makeTrace(WorkloadKind kind, u64 seed);

/** One request's life as the benchmark observed it. */
struct RequestRecord
{
    size_t traceIdx = 0; //!< 0-based position in the trace.
    u64 engineId = 0;
    std::vector<int> prompt;
    std::vector<int> generated;
    size_t maxNew = 0;
    std::string reason; //!< done reason; empty while unfinished.
    Clock::time_point due;      //!< Due (chat) / submit() call (closed).
    Clock::time_point sent;     //!< Line queued to the service (chat).
    Clock::time_point accepted; //!< accepted event / submit() return.
    Clock::time_point admitted; //!< First seen in the batch.
    bool admittedSeen = false;
    std::vector<Clock::time_point> tokenTimes;
};

/** One forward call step() made for one request, as the traced run
 *  reconstructs it from position deltas. */
struct ForwardCall
{
    size_t rows = 1;   //!< Token rows fed in the call.
    size_t context = 0; //!< Cache rows before the call.
    bool prefill = false;
};

/** Step-boundary observations of a traced run. */
struct Observed
{
    std::vector<double> stepMs;       //!< Wall time per step.
    double stepCpuS = 0.0;            //!< Process CPU inside the steps.
    std::vector<double> activePerStep;
    std::vector<ForwardCall> calls;
    size_t blocksPeak = 0;
    size_t samples = 0; //!< Step-boundary samples taken.
};

/** Everything one pass of a workload produced. */
struct RunResult
{
    std::vector<RequestRecord> requests; //!< Every request sent.
    Clock::time_point start, end; //!< First send .. last reply.
    /** Seconds of the window the driving thread worked: all of it for
     *  the closed workloads; chat leaves out the time Service::run
     *  waited for its next input line. */
    double busyS = 0.0;
    double cpuS = 0.0;   //!< Process CPU over the window.
    size_t errorEvents = 0;
    size_t eventLines = 0;
    std::vector<double> lagMs; //!< Chat generator lateness per send.
    olive::serve::ServeMetrics metrics;
    size_t poolPeakBytes = 0;
    u64 dcacheHits = 0, dcacheMisses = 0, dcacheDecodedRows = 0;
    size_t dcachePeakBytes = 0;
    Observed obs;
};

/** In-memory spans, written out when the run ends. */
class Tracer
{
  public:
    Tracer(bool on, Clock::time_point t0) : on_(on), t0_(t0) {}

    bool on() const { return on_; }

    /** Open a span; returns its index, or -1 when tracing is off. */
    long begin(const char *name, long parent = -1, u64 req = 0);

    /** Close a span opened by begin() (no-op for -1). */
    void end(long idx);

    /** Record a span whose endpoints are already known. */
    long add(const char *name, Clock::time_point start,
             Clock::time_point end, long parent = -1, u64 req = 0);

    /** Write the spans as one JSON object per line. */
    void write(const std::string &path) const;

    size_t size() const;

  private:
    struct Span
    {
        const char *name;
        Clock::time_point start, end;
        long parent;
        u64 req;
    };
    bool on_;
    Clock::time_point t0_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; // guarded by mu_
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const char *name, long parent = -1, u64 req = 0)
        : t_(t), idx_(t.begin(name, parent, req))
    {
    }
    ~SpanScope() { t_.end(idx_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &t_;
    long idx_;
};

/** Percentile p (0..100) by linear interpolation; 0 when empty. */
double percentile(std::vector<double> xs, double p);

/** Samples strictly beyond the p-th percentile of @p n samples. */
size_t samplesBeyond(size_t n, double p);

double mean(const std::vector<double> &xs);

// ---- workload runners (workloads.cpp) ----
RunResult runClosed(Stack &st, const olive::serve::Workload &trace,
                    const Options &o, Tracer &tr);
RunResult runChat(Stack &st, const olive::serve::Workload &trace,
                  const Options &o, Tracer &tr);

// ---- checks (check.cpp) ----
/** Outcome of the output checks over one pass. */
struct CheckResult
{
    std::vector<size_t> failed; //!< Indices of failed requests.
    size_t signatureChecked = 0;
    size_t oracleChecked = 0;
    std::vector<std::string> problems;
};

CheckResult checkRun(const RunResult &run,
                     const olive::serve::Workload &trace,
                     const Options &o, const Stack &st);

/** Print signatures of the first @p n requests of the trace. */
int mintSignatures(const Options &o);

// ---- shape replay (replay.cpp) ----
/** Per-layer timings the traced run measures by re-issuing the calls
 *  step() makes, at the shapes it observed. */
struct LayerTimes
{
    std::vector<std::pair<std::string, double>> values; //!< name, value
    double gemmUsPerRow[3] = {0, 0, 0}; //!< m = 1, 8, 32 (one layer).
    double projUsPerRow[3] = {0, 0, 0}; //!< Its q, k, v, o share.
    double attnStepUs = 0, attnChunkUsPerRow = 0;
    double encodeUsPerRow = 0, decodeUsPerRow = 0;
    double headUsPerRow = 0;
};

LayerTimes replayShapes(const Stack &st, const Observed &obs);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
