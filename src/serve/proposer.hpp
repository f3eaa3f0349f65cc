/**
 * @file
 * Draft-token proposers for speculative decode.
 *
 * Speculative decode: a cheap Proposer guesses the next k tokens, and
 * the engine appends them to the decode turn's slab behind the feed
 * token, so the one forwardChunk call that decodes also verifies all
 * k.  Greedy accept/reject against the target's own logits makes the
 * output stream bit-identical to plain greedy decode BY CONSTRUCTION —
 * the proposer can only change how many rows each verification step
 * advances, never which tokens come out — so a proposer needs no
 * quality contract at all, only determinism.
 *
 * The built-in NgramProposer drafts by suffix matching over the
 * request's OWN token history (prompt + generation so far): if the
 * last n tokens occurred earlier in the stream, the tokens that
 * followed that occurrence are proposed to follow again.  This is the
 * draft-model-free scheme used by lookahead/prompt-lookup decoding:
 * free to evaluate, surprisingly effective on repetitive or
 * self-referential text, and exactly wrong-cost-free when it misses
 * (the verify chunk still produces one true token).
 *
 * Thread safety: propose() is const and must be pure — the engine
 * calls it concurrently from per-request batch lanes.
 */

#ifndef OLIVE_SERVE_PROPOSER_HPP
#define OLIVE_SERVE_PROPOSER_HPP

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace olive {
namespace serve {

/** Pluggable draft-token source for speculative decode. */
class Proposer
{
  public:
    virtual ~Proposer() = default;

    /** Display name, e.g. "ngram". */
    virtual std::string name() const = 0;

    /**
     * Propose up to @p max_draft tokens expected to follow @p history
     * (the request's prompt plus everything generated so far, oldest
     * first).  Returning fewer — or none — is always legal; the slab
     * is then just the feed token, a plain decode turn.  Must be a pure
     * function of its arguments (the engine's determinism contract
     * extends through it).
     */
    virtual std::vector<int> propose(std::span<const int> history,
                                     size_t max_draft) const = 0;
};

/**
 * Suffix-match n-gram proposer.  Finds the longest n in
 * [minNgram, maxNgram] such that the history's trailing n-gram occurred
 * earlier, picks the MOST RECENT earlier occurrence (recent context is
 * the best predictor of a loop's continuation), and drafts the tokens
 * that followed it.
 */
class NgramProposer final : public Proposer
{
  public:
    explicit NgramProposer(size_t max_ngram = 4, size_t min_ngram = 1);

    std::string name() const override { return "ngram"; }
    std::vector<int> propose(std::span<const int> history,
                             size_t max_draft) const override;

    size_t maxNgram() const { return maxNgram_; }
    size_t minNgram() const { return minNgram_; }

  private:
    size_t maxNgram_;
    size_t minNgram_;
};

/** Factory by id ("ngram"); fatal on an unknown id. */
std::unique_ptr<Proposer> makeProposer(const std::string &id);

} // namespace serve
} // namespace olive

#endif // OLIVE_SERVE_PROPOSER_HPP
