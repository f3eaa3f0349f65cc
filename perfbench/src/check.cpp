/**
 * @file
 * Output checks.  Every sent request must finish with the stream the
 * model defines:
 *
 *  - its reason and length must match its budget (no stop tokens are
 *    sent, so every request ends at max_new with reason "length");
 *  - for the seeds kept in signatures.json, the hash of its prompt,
 *    generated tokens and reason must equal the stored one, minted on
 *    the reference engine configuration below;
 *  - on every seed, a seeded sample of requests is regenerated on that
 *    reference configuration after the timed window (contiguous
 *    KvCacheReference storage, token-by-token prefill, no sharing, no
 *    decoded-block cache) and must match token for token.
 *
 * The engine guarantees each stream is a function of its prompt and
 * budget alone (batching, paging, sharing, retention and thread count
 * are stream-invisible), which is what makes the reference comparable.
 */

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace perfbench {

using namespace olive;

namespace {

/** Requests regenerated on the reference engine per run. */
constexpr size_t kOracleSample = 3;

/** The oracle configuration (see the file comment). */
serve::ServeConfig
referenceConfig(size_t width)
{
    serve::ServeConfig c;
    c.cacheFormat = serve::KvCacheFormat::Olive4;
    c.pagedCache = false;
    c.prefillChunk = 1;
    c.maxActiveRequests = width;
    c.maxBatchTokens = width;
    return c;
}

/** FNV-1a over the request's stream, as 16 hex digits. */
std::string
streamHash(const std::vector<int> &prompt, const std::vector<int> &generated,
           const std::string &reason)
{
    u64 h = 0xcbf29ce484222325ULL;
    const auto mix = [&](u64 v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    mix(prompt.size());
    for (int t : prompt)
        mix(static_cast<u64>(t));
    mix(generated.size());
    for (int t : generated)
        mix(static_cast<u64>(t));
    for (char c : reason)
        mix(static_cast<u64>(static_cast<unsigned char>(c)));
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::optional<Json>
loadJson(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        return std::nullopt;
    std::stringstream text;
    text << f.rdbuf();
    return Json::parse(text.str());
}

/** Stored hashes for (workload, seed); empty when none are kept. */
std::vector<std::string>
storedSignatures(const Options &o)
{
    std::vector<std::string> out;
    const auto doc = loadJson(o.signatures);
    OLIVE_ASSERT(doc && doc->isObject(),
                 "cannot read the signature file " + o.signatures);
    const Json *w = doc->find(o.workload);
    const Json *s = w ? w->find(std::to_string(o.seed)) : nullptr;
    if (s != nullptr)
        for (const Json &e : s->elements())
            out.push_back(e.asString());
    return out;
}

} // namespace

CheckResult
checkRun(const RunResult &run, const serve::Workload &trace,
         const Options &o, const Stack &st)
{
    CheckResult res;
    std::set<size_t> bad;
    const auto fail = [&](size_t i, const std::string &why) {
        bad.insert(i);
        if (res.problems.size() < 8)
            res.problems.push_back(
                "request " + std::to_string(trace.requests()[
                                 run.requests[i].traceIdx].id) +
                ": " + why);
    };

    std::vector<size_t> complete;
    for (size_t i = 0; i < run.requests.size(); ++i) {
        const RequestRecord &r = run.requests[i];
        if (r.reason.empty())
            fail(i, "never finished");
        else if (r.reason != "length" || r.generated.size() != r.maxNew)
            fail(i, "ended with reason " + r.reason + " after " +
                        std::to_string(r.generated.size()) + " tokens");
        else if (r.tokenTimes.size() != r.generated.size())
            fail(i, "token events do not match the stream");
        else
            complete.push_back(i);
    }

    const std::vector<std::string> stored = storedSignatures(o);
    for (size_t i : complete) {
        const RequestRecord &r = run.requests[i];
        if (r.traceIdx >= stored.size())
            continue;
        ++res.signatureChecked;
        if (streamHash(r.prompt, r.generated, r.reason) != stored[r.traceIdx])
            fail(i, "stream differs from the stored signature");
    }

    // Regenerate a seeded sample on the reference configuration.
    Rng rng(o.seed ^ 0x0c1eULL);
    std::vector<size_t> sample;
    for (size_t k = 0; k < kOracleSample && !complete.empty(); ++k) {
        const size_t j = static_cast<size_t>(rng.uniformInt(complete.size()));
        sample.push_back(complete[j]);
        complete.erase(complete.begin() + static_cast<std::ptrdiff_t>(j));
    }
    serve::ServeEngine ref(*st.model, referenceConfig(sample.size() + 1));
    std::unordered_map<u64, size_t> byId;
    for (size_t i : sample)
        byId[ref.submit(run.requests[i].prompt, run.requests[i].maxNew)] = i;
    ref.runToCompletion();
    for (const serve::FinishedRequest &f : ref.finished()) {
        const size_t i = byId.at(f.id);
        ++res.oracleChecked;
        if (f.generated != run.requests[i].generated)
            fail(i, "stream differs from the reference engine");
    }
    res.failed.assign(bad.begin(), bad.end());
    return res;
}

int
mintSignatures(const Options &o)
{
    // Replay the first o.mint trace requests on the reference engine,
    // chaining each conversation's turns as the chat runner does.
    const serve::Workload trace = makeTrace(o.kind, o.seed);
    const auto &reqs = trace.requests();
    const size_t n = std::min(o.mint, reqs.size());
    const auto stack = makeStack(o.kind);
    serve::ServeEngine ref(*stack->model, referenceConfig(8));
    std::vector<std::vector<int>> prompts(n);
    std::unordered_map<u64, size_t> byId;
    const auto submit = [&](size_t i) {
        byId[ref.submit(prompts[i], reqs[i].maxNew, reqs[i].stopTokens)] = i;
    };
    for (size_t i = 0; i < n; ++i) {
        if (reqs[i].turn != 0)
            continue;
        prompts[i] = reqs[i].userTokens;
        submit(i);
    }
    std::vector<std::string> hashes(n);
    size_t cursor = 0;
    while (ref.step()) {
        for (const auto &f : ref.finishedSnapshot(cursor)) {
            ++cursor;
            const size_t i = byId.at(f.id);
            hashes[i] = streamHash(f.prompt, f.generated,
                                   f.stoppedByToken ? "stop" : "length");
            const size_t nxt = i + 1;
            if (nxt < n && reqs[nxt].conversation == reqs[i].conversation) {
                prompts[nxt] = f.prompt;
                prompts[nxt].insert(prompts[nxt].end(), f.generated.begin(),
                                    f.generated.end());
                prompts[nxt].insert(prompts[nxt].end(),
                                    reqs[nxt].userTokens.begin(),
                                    reqs[nxt].userTokens.end());
                submit(nxt);
            }
        }
    }

    // Merge into the signature file, one (workload, seed) per line.
    Json doc = Json::object();
    if (const auto old = loadJson(o.signatures))
        doc = *old;
    Json list = Json::array();
    for (const std::string &h : hashes)
        list.push(h);
    Json w = doc.find(o.workload) ? *doc.find(o.workload) : Json::object();
    w.set(std::to_string(o.seed), std::move(list));
    doc.set(o.workload, std::move(w));
    std::ofstream f(o.signatures);
    f << "{\n";
    bool firstW = true;
    for (const auto &[wname, seeds] : doc.members()) {
        f << (firstW ? "" : ",\n") << Json(wname).dump() << ": {\n";
        firstW = false;
        bool firstS = true;
        for (const auto &[seed, hs] : seeds.members()) {
            f << (firstS ? "" : ",\n") << "  " << Json(seed).dump() << ": "
              << hs.dump();
            firstS = false;
        }
        f << "\n}";
    }
    f << "\n}\n";
    std::printf("minted %zu signatures for %s seed %llu into %s\n", n,
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.signatures.c_str());
    return 0;
}

} // namespace perfbench
