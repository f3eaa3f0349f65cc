/**
 * @file
 * The three workloads: request traces, engine configurations, and the
 * runners that send the requests and observe the replies.
 *
 * decode-heavy and long-prompt call ServeEngine::submit()/step()
 * directly and observe tokens through progressSnapshot() and
 * finishedSnapshot() after every step.  chat goes through
 * serve::Service: Service::run() reads op lines from a LineFeed on the
 * calling thread while one load-generator thread writes them at their
 * due times; replies are time-stamped line by line by an EventSink and
 * parsed after the run, except the done events, which schedule the
 * next turn of their conversation.
 */

#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <ctime>
#include <deque>
#include <fstream>
#include <functional>
#include <istream>
#include <map>
#include <ostream>
#include <streambuf>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "models/config.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace perfbench {

using namespace olive;

namespace {

/** Sessions per trace: far more than any run sends, and fixed, so a
 *  seed names one trace whatever --seconds is. */
constexpr size_t kTraceSessions = 2048;

/** decode-heavy: requests per closed batch (= maxActiveRequests). */
constexpr size_t kBatchWidth = 8;
/** long-prompt: clients in the closed loop. */
constexpr size_t kClients = 4;

/** chat: session openings per second, and the think time between a
 *  reply's done event and the conversation's next turn. */
constexpr double kChatRate = 0.5;
constexpr double kThinkMs = 1000.0;

/** Traced chat runs poll the engine this often (no step hook). */
constexpr auto kPollPeriod = std::chrono::microseconds(1000);

serve::ServeConfig
engineConfig(WorkloadKind kind)
{
    serve::ServeConfig c;
    c.cacheFormat = serve::KvCacheFormat::Olive4;
    c.pagedCache = true;
    c.decodedCache = true;
    c.speculate = false;
    switch (kind) {
    case WorkloadKind::DecodeHeavy:
        c.maxActiveRequests = kBatchWidth;
        c.maxBatchTokens = 8;
        break;
    case WorkloadKind::LongPrompt:
        c.maxBatchTokens = 128;
        c.prefillChunk = 32;
        break;
    case WorkloadKind::Chat:
        // olive_serve's defaults, plus cached-prefix retention.
        c.maxBatchTokens = 8;
        c.maxActiveRequests = 2;
        c.retainPrefixes = true;
        break;
    }
    return c;
}

/** Split cache rows [from, to) of one request into the forward calls
 *  step() made: prefill rows in chunks of at most @p chunk rows,
 *  then one call per decode row. */
void
addCalls(std::vector<ForwardCall> &calls, size_t from, size_t to,
         size_t prompt_rows, size_t chunk)
{
    size_t p = from;
    const size_t prefill_end = std::min(to, prompt_rows);
    while (p < prefill_end) {
        const size_t m = std::min(chunk, prefill_end - p);
        calls.push_back({m, p, true});
        p += m;
    }
    for (; p < to; ++p)
        calls.push_back({1, p, false});
}

/** Mean of a count over the time it is above zero, from +1/-1 edges. */
double
timeWeightedBusyMean(std::vector<std::pair<Clock::time_point, int>> edges)
{
    std::sort(edges.begin(), edges.end());
    double area = 0.0, busy = 0.0;
    int level = 0;
    for (size_t i = 0; i + 1 < edges.size(); ++i) {
        level += edges[i].second;
        const double dt = secondsBetween(edges[i].first, edges[i + 1].first);
        if (level > 0) {
            area += level * dt;
            busy += dt;
        }
    }
    return busy > 0.0 ? area / busy : 0.0;
}

const char *
reasonOf(const serve::FinishedRequest &f)
{
    if (f.cancelled)
        return "cancelled";
    return f.stoppedByToken ? "stop" : "length";
}

/** Fill the end-of-run counters every runner reports. */
void
finishCounters(const Stack &st, RunResult &out)
{
    out.metrics = st.engine->metricsSnapshot();
    if (const serve::BlockPool *pool = st.engine->blockPool())
        out.poolPeakBytes = pool->peakBytes();
    if (const serve::DecodedBlockCache *dc = st.engine->decodedCache()) {
        out.dcacheHits = dc->hits();
        out.dcacheMisses = dc->misses();
        out.dcacheDecodedRows = dc->decodedRows();
        out.dcachePeakBytes = dc->peakBytes();
    }
}

/** Sample the locked accessors at a step boundary (traced runs). */
void
sampleCounters(const Stack &st, Tracer &tr, Observed &obs)
{
    ++obs.samples;
    {
        SpanScope s(tr, "engine.pendingIds");
        (void)st.engine->pendingIds();
    }
    {
        SpanScope s(tr, "engine.activeIds");
        (void)st.engine->activeIds();
    }
    {
        SpanScope s(tr, "engine.metricsSnapshot");
        (void)st.engine->metricsSnapshot();
    }
    if (const serve::BlockPool *pool = st.engine->blockPool()) {
        SpanScope s(tr, "pool.blocksInUse");
        obs.blocksPeak = std::max(obs.blocksPeak, pool->blocksInUse());
    }
    if (const serve::DecodedBlockCache *dc = st.engine->decodedCache()) {
        SpanScope s(tr, "dcache.currentBytes");
        (void)dc->currentBytes();
    }
    if (st.service) {
        SpanScope s(tr, "service.statsLine");
        (void)st.service->statsLine();
    }
}

/** Drives a ServeEngine directly: submit, step, observe. */
class ClosedRunner
{
  public:
    ClosedRunner(Stack &st, const serve::Workload &trace, Tracer &tr,
                 RunResult &out)
        : st_(st), trace_(trace), tr_(tr), out_(out),
          chunk_(st.engine->config().prefillChunk)
    {
    }

    size_t outstanding() const { return outstanding_; }

    /** Send trace request @p idx now. */
    void submit(size_t idx)
    {
        OLIVE_ASSERT(idx < trace_.requests().size(),
                     "the trace ran out of requests");
        const serve::WorkloadRequest &r = trace_.requests()[idx];
        RequestRecord rec;
        rec.traceIdx = idx;
        rec.prompt = r.userTokens;
        rec.maxNew = r.maxNew;
        rec.due = Clock::now();
        {
            SpanScope s(tr_, "engine.submit", -1, r.id);
            rec.engineId =
                st_.engine->submit(rec.prompt, r.maxNew, r.stopTokens);
        }
        rec.accepted = Clock::now();
        byId_[rec.engineId] = out_.requests.size();
        out_.requests.push_back(std::move(rec));
        ++outstanding_;
    }

    /** One engine step plus observation; returns how many requests
     *  finished in it. */
    size_t step()
    {
        const bool traced = tr_.on();
        const auto t0 = Clock::now();
        const double c0 = traced ? cpuSeconds() : 0.0;
        bool worked = false;
        {
            SpanScope s(tr_, "engine.step");
            worked = st_.engine->step();
        }
        const auto t1 = Clock::now();
        OLIVE_ASSERT(worked, "the engine idled with requests outstanding");
        Observed &obs = out_.obs;
        if (traced) {
            obs.stepMs.push_back(msBetween(t0, t1));
            obs.stepCpuS += cpuSeconds() - c0;
        }

        std::vector<serve::ServeEngine::ActiveProgress> prog;
        {
            SpanScope s(tr_, "engine.progressSnapshot");
            prog = st_.engine->progressSnapshot();
        }
        for (const auto &p : prog) {
            RequestRecord &rec = out_.requests[byId_.at(p.id)];
            observe(rec, p.generated, t0, t1);
            advance(rec, p.promptRows, p.position);
        }
        std::vector<serve::FinishedRequest> fins;
        {
            SpanScope s(tr_, "engine.finishedSnapshot");
            fins = st_.engine->finishedSnapshot(finishedCursor_);
        }
        finishedCursor_ += fins.size();
        for (const auto &f : fins) {
            RequestRecord &rec = out_.requests[byId_.at(f.id)];
            observe(rec, f.generated, t0, t1);
            rec.reason = reasonOf(f);
            advance(rec, f.prompt.size(),
                    f.prompt.size() + f.generated.size() - 1);
            --outstanding_;
        }
        if (traced) {
            obs.activePerStep.push_back(
                static_cast<double>(prog.size() + fins.size()));
            sampleCounters(st_, tr_, obs);
        }
        return fins.size();
    }

  private:
    void observe(RequestRecord &rec, const std::vector<int> &generated,
                 Clock::time_point t0, Clock::time_point t1)
    {
        // Admission happens at the start of step(), so a request first
        // seen after this step was admitted by it.
        if (!rec.admittedSeen) {
            rec.admitted = t0;
            rec.admittedSeen = true;
        }
        for (size_t i = rec.generated.size(); i < generated.size(); ++i) {
            rec.generated.push_back(generated[i]);
            rec.tokenTimes.push_back(t1);
        }
    }

    void advance(const RequestRecord &rec, size_t prompt_rows,
                 size_t position)
    {
        size_t &last = lastPos_[rec.engineId];
        if (tr_.on())
            addCalls(out_.obs.calls, last, position, prompt_rows, chunk_);
        last = position;
    }

    Stack &st_;
    const serve::Workload &trace_;
    Tracer &tr_;
    RunResult &out_;
    size_t chunk_;
    size_t outstanding_ = 0;
    size_t finishedCursor_ = 0;
    std::unordered_map<u64, size_t> byId_;
    std::unordered_map<u64, size_t> lastPos_;
};

/**
 * Input side of the chat session: Service::run's std::getline blocks
 * here until the load generator queues the next op line.  The time it
 * blocks before each line is the driving thread's idle time.
 */
class LineFeed final : public std::streambuf
{
  public:
    /** Queue one op line (any thread); @p tag names its request, or -1. */
    void push(std::string line, long tag)
    {
        line += '\n';
        {
            const std::lock_guard<std::mutex> lock(mu_);
            queue_.emplace_back(std::move(line), tag);
        }
        cv_.notify_one();
    }

    // Reader-thread state: only Service::run's thread touches it.
    const std::vector<double> &waitSeconds() const { return waits_; }
    const std::vector<long> &consumedTags() const { return tags_; }
    const std::vector<Clock::time_point> &consumedTimes() const
    {
        return times_;
    }

  protected:
    int_type underflow() override
    {
        if (gptr() < egptr())
            return traits_type::to_int_type(*gptr());
        const auto t0 = Clock::now();
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !queue_.empty(); });
        cur_ = std::move(queue_.front().first);
        const long tag = queue_.front().second;
        queue_.pop_front();
        lock.unlock();
        const auto t1 = Clock::now();
        waits_.push_back(secondsBetween(t0, t1));
        tags_.push_back(tag);
        times_.push_back(t1);
        setg(cur_.data(), cur_.data(), cur_.data() + cur_.size());
        return traits_type::to_int_type(*gptr());
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::pair<std::string, long>> queue_; // guarded by mu_
    std::string cur_;
    std::vector<double> waits_;
    std::vector<long> tags_;
    std::vector<Clock::time_point> times_;
};

/** Output side of the chat session: every event line, time-stamped
 *  when its newline is written.  Only done lines are handed on during
 *  the run. */
class EventSink final : public std::streambuf
{
  public:
    using DoneFn = std::function<void(const std::string &, Clock::time_point)>;

    struct Line
    {
        Clock::time_point t;
        std::string text;
    };

    explicit EventSink(DoneFn on_done) : onDone_(std::move(on_done)) {}

    const std::vector<Line> &lines() const { return lines_; }

  protected:
    int_type overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            put(traits_type::to_char_type(c));
        return traits_type::not_eof(c);
    }

    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            put(s[i]);
        return n;
    }

  private:
    void put(char c)
    {
        if (c != '\n') {
            line_.push_back(c);
            return;
        }
        const auto t = Clock::now();
        static const std::string kDone = "{\"event\":\"done\"";
        if (line_.compare(0, kDone.size(), kDone) == 0)
            onDone_(line_, t);
        lines_.push_back({t, std::move(line_)});
        line_.clear();
    }

    DoneFn onDone_;
    std::string line_;
    std::vector<Line> lines_;
};

/** Static span name of an event type. */
const char *
eventSpanName(const std::string &type)
{
    static const char *kNames[][2] = {
        {"accepted", "service.event.accepted"},
        {"queued", "service.event.queued"},
        {"admitted", "service.event.admitted"},
        {"token", "service.event.token"},
        {"done", "service.event.done"},
        {"error", "service.event.error"},
        {"shutdown", "service.event.shutdown"}};
    for (const auto &n : kNames)
        if (type == n[0])
            return n[1];
    return "service.event.other";
}

Json
tokensJson(const std::vector<int> &toks)
{
    Json arr = Json::array();
    for (int t : toks)
        arr.push(t);
    return arr;
}

} // namespace

bool
parseWorkload(const std::string &name, WorkloadKind &out)
{
    if (name == "decode-heavy")
        out = WorkloadKind::DecodeHeavy;
    else if (name == "long-prompt")
        out = WorkloadKind::LongPrompt;
    else if (name == "chat")
        out = WorkloadKind::Chat;
    else
        return false;
    return true;
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::unique_ptr<Stack>
makeStack(WorkloadKind kind)
{
    auto st = std::make_unique<Stack>();
    st->model = std::make_unique<eval::LmModel>(
        eval::makeLm(models::byName("GPT2-XL"), 1234));
    st->engine = std::make_unique<serve::ServeEngine>(*st->model,
                                                      engineConfig(kind));
    if (kind == WorkloadKind::Chat)
        st->service = std::make_unique<serve::Service>(*st->engine);
    return st;
}

serve::Workload
makeTrace(WorkloadKind kind, u64 seed)
{
    serve::WorkloadSpec s;
    s.seed = seed;
    s.sessions = kTraceSessions;
    s.vocab = models::byName("GPT2-XL").evalVocab;
    // Arrival ticks are unused: the runners send in wall-clock time.
    s.arrival.kind = serve::ArrivalSpec::Kind::Uniform;
    s.arrival.gap = 0;
    using LK = serve::LengthSpec::Kind;
    switch (kind) {
    case WorkloadKind::DecodeHeavy:
        s.promptLen = {LK::Uniform, 16, 8, 24, 16, 0};
        s.outputLen = {LK::Uniform, 128, 96, 160, 128, 0};
        break;
    case WorkloadKind::LongPrompt:
        s.promptLen = {LK::LogNormalish, 256, 192, 448, 208, 1};
        s.outputLen = {LK::Fixed, 4, 4, 4, 4, 0};
        break;
    case WorkloadKind::Chat:
        s.systemPromptLen = 48;
        s.systemPromptPercent = 100;
        s.promptLen = {LK::Uniform, 12, 8, 16, 12, 0};
        s.outputLen = {LK::Uniform, 24, 16, 32, 24, 0};
        s.turnsMin = 2;
        s.turnsMax = 4;
        break;
    }
    return serve::Workload::generate(s);
}

RunResult
runClosed(Stack &st, const serve::Workload &trace, const Options &o,
          Tracer &tr)
{
    RunResult out;
    ClosedRunner d(st, trace, tr, out);
    const bool batch = o.kind == WorkloadKind::DecodeHeavy;
    const size_t width = batch ? kBatchWidth : kClients;
    const double c0 = cpuSeconds();
    out.start = Clock::now();
    const auto deadline =
        out.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(o.seconds));
    size_t next = 0;
    for (size_t i = 0; i < width; ++i)
        d.submit(next++);
    while (d.outstanding() > 0) {
        const size_t finished = d.step();
        if (finished == 0 || Clock::now() >= deadline)
            continue; // past the window: drain what was sent
        if (!batch) {
            for (size_t i = 0; i < finished; ++i)
                d.submit(next++); // each client sends its next request
        } else if (d.outstanding() == 0) {
            for (size_t i = 0; i < width; ++i)
                d.submit(next++); // the next closed batch
        }
    }
    out.end = Clock::now();
    out.busyS = secondsBetween(out.start, out.end);
    out.cpuS = cpuSeconds() - c0;
    finishCounters(st, out);
    return out;
}

RunResult
runChat(Stack &st, const serve::Workload &trace, const Options &o,
        Tracer &tr)
{
    RunResult out;
    const auto &reqs = trace.requests();

    // Session openings: a Poisson process at kChatRate conditioned on
    // its expected count in the window, i.e. that many sorted uniform
    // times — the count stays fixed so runs of one length carry equal
    // offered load.
    const size_t sessions = std::max<size_t>(
        1, static_cast<size_t>(kChatRate * o.seconds + 0.5));
    Rng rng(o.seed ^ 0xc4a7ULL);
    std::vector<double> offsets(sessions);
    for (double &x : offsets)
        x = rng.uniform() * o.seconds;
    std::sort(offsets.begin(), offsets.end());
    std::vector<size_t> firstTurn; // trace index of each session's turn 0
    for (size_t i = 0; i < reqs.size() && firstTurn.size() < sessions; ++i)
        if (reqs[i].turn == 0)
            firstTurn.push_back(i);

    struct Pending
    {
        size_t traceIdx;
        std::vector<int> prompt;
    };
    // Shared between the generator and the driving thread.
    std::mutex mu;
    std::condition_variable cv;
    std::multimap<Clock::time_point, Pending> schedule; // guarded by mu
    std::deque<RequestRecord> records;                  // guarded by mu
    size_t outstanding = 0;                             // guarded by mu
    u64 changes = 0;                                    // guarded by mu
    Clock::time_point lastDone;                         // guarded by mu
    // Session offsets count from here; set before either thread runs.
    Clock::time_point origin;

    LineFeed feed;
    const auto think = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(kThinkMs));
    const auto toDur = [](double s) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(s));
    };

    // Runs on the driving thread, inside Service::run's event emission.
    const auto onDone = [&](const std::string &line, Clock::time_point t) {
        const auto doc = Json::parse(line);
        OLIVE_ASSERT(doc && doc->find("id") && doc->find("tokens"),
                     "malformed done event: " + line);
        // The engine numbers submissions 1, 2, ... in op order, and
        // every line the generator sends is a valid submit, so id k is
        // the k-th consumed line (checked against accepted events
        // after the run).
        const size_t k = static_cast<size_t>(doc->find("id")->asInt()) - 1;
        OLIVE_ASSERT(k < feed.consumedTags().size(),
                     "done event for an unsent request");
        const long tag = feed.consumedTags()[k];
        const std::lock_guard<std::mutex> lock(mu);
        RequestRecord &rec = records.at(static_cast<size_t>(tag));
        --outstanding;
        ++changes;
        lastDone = t;
        const size_t nxt = rec.traceIdx + 1;
        if (nxt < reqs.size() &&
            reqs[nxt].conversation == reqs[rec.traceIdx].conversation &&
            t + think < origin + toDur(o.seconds)) {
            Pending p{nxt, rec.prompt};
            for (const Json &tok : doc->find("tokens")->elements())
                p.prompt.push_back(static_cast<int>(tok.asInt()));
            p.prompt.insert(p.prompt.end(), reqs[nxt].userTokens.begin(),
                            reqs[nxt].userTokens.end());
            schedule.emplace(t + think, std::move(p));
        }
        cv.notify_one();
    };
    EventSink sink(onDone);

    std::unordered_map<u64, size_t> lastPos; // generator thread only
    const auto poll = [&]() {
        std::vector<serve::ServeEngine::ActiveProgress> prog;
        {
            SpanScope s(tr, "engine.progressSnapshot");
            prog = st.engine->progressSnapshot();
        }
        for (const auto &p : prog) {
            // Prefill rows only (decode rows are exact from the token
            // events).  The first sighting is the baseline: rows seeded
            // by prefix sharing or retention were never computed.
            const size_t pos = std::min(p.position, p.promptRows);
            const auto it = lastPos.find(p.id);
            if (it != lastPos.end()) {
                addCalls(out.obs.calls, it->second, pos, p.promptRows,
                         st.engine->config().prefillChunk);
            }
            lastPos[p.id] = pos;
        }
        sampleCounters(st, tr, out.obs);
    };

    const double c0 = cpuSeconds();
    origin = Clock::now();
    lastDone = origin;
    std::jthread generator([&] {
        size_t nextOpen = 0;
        u64 seen = 0;
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            const auto now = Clock::now();
            std::vector<std::pair<std::string, long>> lines;
            const auto send = [&](Clock::time_point due, size_t idx,
                                  std::vector<int> prompt) {
                RequestRecord rec;
                rec.traceIdx = idx;
                rec.prompt = std::move(prompt);
                rec.maxNew = reqs[idx].maxNew;
                rec.due = due;
                rec.sent = now;
                out.lagMs.push_back(msBetween(due, now));
                Json op = Json::object({{"op", "submit"},
                                        {"prompt", tokensJson(rec.prompt)},
                                        {"max_new", rec.maxNew}});
                lines.emplace_back(op.dump(),
                                   static_cast<long>(records.size()));
                records.push_back(std::move(rec));
                ++outstanding;
            };
            while (nextOpen < sessions &&
                   origin + toDur(offsets[nextOpen]) <= now) {
                const size_t idx = firstTurn[nextOpen];
                send(origin + toDur(offsets[nextOpen]), idx,
                     reqs[idx].userTokens);
                ++nextOpen;
            }
            while (!schedule.empty() && schedule.begin()->first <= now) {
                auto node = schedule.extract(schedule.begin());
                send(node.key(), node.mapped().traceIdx,
                     std::move(node.mapped().prompt));
            }
            const bool finished = nextOpen == sessions &&
                                  schedule.empty() && outstanding == 0;
            lock.unlock();
            for (auto &[text, tag] : lines)
                feed.push(std::move(text), tag);
            if (finished) {
                feed.push("{\"op\":\"shutdown\"}", -1);
                return;
            }
            if (tr.on())
                poll();
            lock.lock();
            auto wake = Clock::time_point::max();
            if (nextOpen < sessions)
                wake = origin + toDur(offsets[nextOpen]);
            if (!schedule.empty())
                wake = std::min(wake, schedule.begin()->first);
            if (tr.on())
                wake = std::min(wake, Clock::now() + kPollPeriod);
            const auto changed = [&] { return changes != seen; };
            if (wake == Clock::time_point::max())
                cv.wait(lock, changed); // only a done event can wake us
            else
                cv.wait_until(lock, wake, changed);
            seen = changes;
        }
    });

    {
        std::istream in(&feed);
        std::ostream os(&sink);
        st.service->run(in, os);
    }
    generator.join();
    out.cpuS = cpuSeconds() - c0;
    out.requests.assign(std::make_move_iterator(records.begin()),
                        std::make_move_iterator(records.end()));

    // The window runs from the first send to the last done event.  The
    // service thread idled in the waits before every line but the
    // first (which precede the first send) and the shutdown line
    // (which follow the last done event).
    out.start = out.requests.front().sent;
    out.end = lastDone;
    out.busyS = secondsBetween(out.start, out.end);
    for (size_t k = 1; k < feed.consumedTags().size(); ++k)
        if (feed.consumedTags()[k] >= 0)
            out.busyS -= feed.waitSeconds()[k];

    // Parse the event stream now that the run is over.
    const std::vector<long> &tags = feed.consumedTags();
    std::vector<long> lineSpan(out.requests.size(), -1);
    for (size_t k = 0; k < tags.size(); ++k) {
        if (tags[k] < 0)
            continue;
        const auto &rec = out.requests[static_cast<size_t>(tags[k])];
        lineSpan[static_cast<size_t>(tags[k])] =
            tr.add("service.line", rec.sent, feed.consumedTimes()[k], -1,
                   reqs[rec.traceIdx].id);
    }
    size_t accepted = 0;
    for (const EventSink::Line &l : sink.lines()) {
        ++out.eventLines;
        const auto doc = Json::parse(l.text);
        OLIVE_ASSERT(doc && doc->find("event"), "malformed event: " + l.text);
        const std::string &type = doc->find("event")->asString();
        RequestRecord *rec = nullptr;
        long tag = -1;
        if (const Json *id = doc->find("id")) {
            const size_t k = static_cast<size_t>(id->asInt()) - 1;
            if (k < tags.size() && tags[k] >= 0) {
                tag = tags[k];
                rec = &out.requests[static_cast<size_t>(tag)];
            }
        }
        tr.add(eventSpanName(type), l.t, l.t,
               tag >= 0 ? lineSpan[static_cast<size_t>(tag)] : -1,
               rec ? reqs[rec->traceIdx].id : 0);
        if (type == "error") {
            ++out.errorEvents;
        } else if (rec == nullptr) {
            continue;
        } else if (type == "accepted") {
            // Line order and engine ids must agree (see onDone).
            if (doc->find("id")->asInt() != static_cast<long>(++accepted))
                ++out.errorEvents;
            rec->engineId = static_cast<u64>(doc->find("id")->asInt());
            rec->accepted = l.t;
        } else if (type == "admitted") {
            rec->admitted = l.t;
            rec->admittedSeen = true;
        } else if (type == "token") {
            rec->tokenTimes.push_back(l.t);
        } else if (type == "done") {
            rec->reason = doc->find("reason")->asString();
            for (const Json &tok : doc->find("tokens")->elements())
                rec->generated.push_back(static_cast<int>(tok.asInt()));
        }
    }
    if (tr.on()) {
        // Decode row j of a request runs at context prompt + j - 1, and
        // its occupancy interval runs from admitted to its last token.
        std::vector<std::pair<Clock::time_point, int>> edges;
        for (const RequestRecord &q : out.requests) {
            for (size_t j = 1; j < q.generated.size(); ++j)
                out.obs.calls.push_back({1, q.prompt.size() + j - 1, false});
            if (q.admittedSeen && !q.tokenTimes.empty()) {
                edges.emplace_back(q.admitted, 1);
                edges.emplace_back(q.tokenTimes.back(), -1);
            }
        }
        out.obs.activePerStep.push_back(timeWeightedBusyMean(edges));
    }
    finishCounters(st, out);
    return out;
}

// ---- Tracer and statistics helpers ----

long
Tracer::begin(const char *name, long parent, u64 req)
{
    if (!on_)
        return -1;
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now, now, parent, req});
    return static_cast<long>(spans_.size()) - 1;
}

void
Tracer::end(long idx)
{
    if (idx < 0)
        return;
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(idx)].end = now;
}

long
Tracer::add(const char *name, Clock::time_point start,
            Clock::time_point end, long parent, u64 req)
{
    if (!on_)
        return -1;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, parent, req});
    return static_cast<long>(spans_.size()) - 1;
}

size_t
Tracer::size() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream f(path);
    OLIVE_ASSERT(f.good(), "cannot write the trace file " + path);
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Span &s : spans_) {
        f << Json::object({{"name", s.name},
                           {"start_us", msBetween(t0_, s.start) * 1e3},
                           {"end_us", msBetween(t0_, s.end) * 1e3},
                           {"parent", s.parent},
                           {"req", s.req}})
                 .dump()
          << '\n';
    }
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

size_t
samplesBeyond(size_t n, double p)
{
    return static_cast<size_t>(static_cast<double>(n) * (100.0 - p) / 100.0);
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

} // namespace perfbench
