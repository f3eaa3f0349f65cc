/**
 * @file
 * Line-delimited JSON serving front end over ServeEngine.
 *
 * Service wraps one engine in a long-running session: a driving thread
 * calls run(in, out), which reads one JSON operation per input line
 * and writes one JSON event per output line.  The protocol (grammar in
 * DESIGN.md "Serving front end"):
 *
 *   ops     submit   {"op":"submit","prompt":[..],"max_new":N,
 *                     "stop":[..],"priority":P,"deadline_ms":D,
 *                     "policy":"name"}         (only prompt/max_new
 *                                              are required)
 *           cancel   {"op":"cancel","id":I}
 *           stats    {"op":"stats"}
 *           step     {"op":"step","n":K}       (K engine steps; dflt 1)
 *           drain    {"op":"drain"}            (step until idle)
 *           shutdown {"op":"shutdown"}         (drain, ack, return)
 *
 *   events  accepted {"event":"accepted","id":I,"max_new":M}
 *           queued   {"event":"queued","id":I}
 *           admitted {"event":"admitted","id":I}
 *           token    {"event":"token","id":I,"index":J,"token":T}
 *           done     {"event":"done","id":I,"reason":R,"n":N,
 *                     "tokens":[..]}
 *           cancel   {"event":"cancel","id":I,"ok":B}   (op ack)
 *           stats    {"event":"stats", ...counters...}
 *           error    {"event":"error","message":S}
 *           shutdown {"event":"shutdown","finished":N}
 *
 * Ordering guarantees, per request: accepted, then at most one queued
 * (emitted only when the request is still waiting for admission after
 * an engine step — the backpressure signal), then admitted, then token
 * events in index order, then exactly one terminal done with reason
 * "stop" | "length" | "cancelled" | "deadline".  No event for a
 * request ever follows its done: every event is emitted by the driving
 * thread from engine snapshots, so a cancel() arriving from another
 * thread mid-step surfaces as the done of a later flush, never as an
 * out-of-band line.
 *
 * Deadlines are enforced service-side against the wall clock (checked
 * before every engine step) and expire queued and active requests
 * alike through ServeEngine::cancel — the engine's schedule stays a
 * pure function of queue state, so the determinism contract is
 * untouched.  Token streams through the Service are bit-identical to
 * driving the engine directly (test_service asserts this, speculation
 * included): the Service never alters what the engine generates, only
 * observes it.
 *
 * Thread safety: run() owns the output stream and all event emission.
 * cancel(), statsLine() and requestShutdown() are safe from any other
 * thread (the race tier runs them against a driving thread under
 * TSan).  Lock hierarchy: the service mutex is leaf-like — it is never
 * held across an engine call, so service -> engine -> pool -> dcache
 * never cycles.
 */

#ifndef OLIVE_SERVE_SERVICE_HPP
#define OLIVE_SERVE_SERVICE_HPP

#include <atomic>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine.hpp"
#include "util/json.hpp"
#include "util/thread_annotations.hpp"

namespace olive {
namespace serve {

/**
 * Per-request output shaping hook, resolved by name from
 * ServiceConfig::policies when a submit op carries "policy".  apply()
 * runs after protocol validation and before ServeEngine::submit, on
 * the driving thread; implementations must keep maxNewTokens >= 1 and
 * every token within the vocabulary.
 */
class OutputPolicy
{
  public:
    virtual ~OutputPolicy() = default;

    /** Adjust the validated request in place before submission. */
    virtual void apply(Request &req) const = 0;
};

/** Union a fixed token set into every request's stop set. */
class StopSupersetPolicy : public OutputPolicy
{
  public:
    explicit StopSupersetPolicy(std::vector<int> extra_stops)
        : extra_(std::move(extra_stops))
    {
    }

    void apply(Request &req) const override;

  private:
    std::vector<int> extra_;
};

/** Cap every request's generation budget at a fixed limit (>= 1). */
class LengthCapPolicy : public OutputPolicy
{
  public:
    explicit LengthCapPolicy(size_t cap);

    void apply(Request &req) const override;

  private:
    size_t cap_;
};

/** Session configuration. */
struct ServiceConfig
{
    /**
     * Interactive mode: after every submit op, step the engine to
     * idle, streaming events as they happen — a client on a pipe sees
     * its tokens without issuing step ops.  false leaves stepping to
     * explicit step/drain ops, which is how the tests interleave
     * submits, cancels and steps deterministically.
     */
    bool autoDrain = true;

    /** Named output policies (non-owning; must outlive the service). */
    std::map<std::string, const OutputPolicy *> policies;
};

/** The session front end.  The engine must outlive the service. */
class Service
{
  public:
    Service(ServeEngine &engine, ServiceConfig config = {});

    /**
     * Blocking session loop on the driving thread: one op per input
     * line, one event per output line (each line flushed).  Returns
     * after a shutdown op, at input EOF, or at the first op boundary
     * after requestShutdown() — always draining in-flight requests and
     * emitting the shutdown event first.
     */
    void run(std::istream &in, std::ostream &out);

    /**
     * Cancel a queued or active request; safe from any thread.  The
     * request's done event (reason "cancelled") is emitted by the
     * driving thread at its next flush.  Returns false when the id is
     * unknown or already finished.
     */
    bool cancel(u64 id) OLIVE_EXCLUDES(mu_);

    /** One stats event line (no trailing newline); any thread. */
    std::string statsLine() const;

    /** Ask the running loop to drain and return at the next op
     *  boundary; safe from any thread. */
    void requestShutdown() { shutdown_.store(true); }

    /** Ids submitted over the session's lifetime; any thread. */
    size_t submittedCount() const { return submitted_.load(); }

  private:
    /** Dispatch one op line; false after a shutdown op (loop exits). */
    bool handleLine(const std::string &line, std::ostream &out);

    void handleSubmit(const Json &op, std::ostream &out);
    void handleCancel(const Json &op, std::ostream &out);
    void handleStep(const Json &op, std::ostream &out);

    /** Expire deadline-overrun requests via engine cancel. */
    void checkDeadlines() OLIVE_EXCLUDES(mu_);

    /** One engine step plus event flush; true while work remains. */
    bool stepAndEmit(std::ostream &out) OLIVE_EXCLUDES(mu_);

    /** Step until the engine is idle, streaming events. */
    void drain(std::ostream &out);

    /**
     * Emit everything new the engine snapshots reveal: admitted
     * transitions, token events beyond each request's emission cursor,
     * and done events for newly finished requests.
     */
    void flushEvents(std::ostream &out) OLIVE_EXCLUDES(mu_);

    /** Emit queued for requests still pending after a step. */
    void emitQueued(std::ostream &out);

    void emitLine(std::ostream &out, const Json &event);
    void emitError(std::ostream &out, const std::string &message);

    /** Record a cancel reason and cancel in the engine (any thread). */
    bool cancelWithReason(u64 id, const std::string &reason)
        OLIVE_EXCLUDES(mu_);

    ServeEngine *engine_;
    ServiceConfig cfg_;
    std::atomic<bool> shutdown_{false};
    /** Requests accepted this session (written by run()'s thread). */
    std::atomic<size_t> submitted_{0};

    // ---- driving-thread state (only run()'s thread touches it) ----
    size_t finishedCursor_ = 0;   //!< finished() entries already emitted.
    std::map<u64, size_t> emittedTokens_; //!< Token events per request.
    std::set<u64> queuedEmitted_;
    std::set<u64> admittedEmitted_;
    /** Absolute wall-clock expiry per request with a deadline. */
    std::map<u64, std::chrono::steady_clock::time_point> deadlines_;

    /** Guards cancelReasons_ — the one map other threads write. */
    mutable Mutex mu_;
    /** First-recorded retirement reason ("cancelled" | "deadline");
     *  consulted when a finished request has cancelled = true. */
    std::map<u64, std::string> cancelReasons_ OLIVE_GUARDED_BY(mu_);
};

} // namespace serve
} // namespace olive

#endif // OLIVE_SERVE_SERVICE_HPP
