#include "cache_eval.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace olive {
namespace serve {

double
CacheImpact::compression() const
{
    return fp32Bytes > 0
               ? static_cast<double>(encodedBytes) /
                     static_cast<double>(fp32Bytes)
               : 0.0;
}

CacheImpact
cacheImpact(const eval::LmModel &model, const eval::TokenData &text,
            const KvScheme &scheme)
{
    const nn::Transformer &backbone = model.backbone;
    const size_t d = backbone.dModel;

    CacheImpact impact;
    impact.scheme = scheme.name();
    double ce_sum = 0.0, hid_se = 0.0, lg_se = 0.0;
    size_t ce_count = 0, hid_count = 0, lg_count = 0;

    for (const std::vector<int> &seq : text) {
        if (seq.size() < 2)
            continue;
        // Exact reference: the full-sequence forward (causality makes
        // its row t the ground truth for decode step t).
        const Tensor xfull = model.embed(seq);
        const Tensor href = backbone.forward(xfull);
        const Tensor lgref = model.logitsFromHidden(href);

        // Decode path through the candidate cache scheme, over the
        // contiguous layout: quality is layout-independent (rows
        // encode to the same bytes wherever they live — the paged
        // fuzz suite pins that bitwise), and the contiguous accounting
        // reports the codec's exact payload+meta bytes, free of paged
        // partial-block slack, which is what the compression() metric
        // is meant to isolate.  One forwardChunk runs the whole
        // sequence, bit-identical to feeding it token by token
        // (BatchedPrefillMatchesStepLoop).
        DecodeState state = makeDecodeState(backbone, scheme);
        const Tensor h = backbone.forwardChunk(xfull, state);
        const Tensor lg = model.logitsFromHidden(h);
        for (size_t t = 0; t < seq.size(); ++t) {
            for (size_t j = 0; j < d; ++j) {
                const double dv = static_cast<double>(h.row(t)[j]) -
                                  static_cast<double>(href.row(t)[j]);
                hid_se += dv * dv;
            }
            hid_count += d;
            for (size_t v = 0; v < model.vocab; ++v) {
                const double dv = static_cast<double>(lg.row(t)[v]) -
                                  static_cast<double>(lgref.row(t)[v]);
                lg_se += dv * dv;
            }
            lg_count += model.vocab;
            if (t + 1 < seq.size()) {
                ce_sum += ops::crossEntropyRow(lg.row(t), seq[t + 1]);
                ++ce_count;
            }
        }
        impact.encodedBytes += state.encodedBytes();
        impact.fp32Bytes += state.fp32Bytes();
    }

    OLIVE_ASSERT(ce_count > 0, "cache impact needs a next-token target");
    impact.perplexity =
        std::exp(ce_sum / static_cast<double>(ce_count));
    impact.hiddenMse = hid_se / static_cast<double>(hid_count);
    impact.logitMse = lg_se / static_cast<double>(lg_count);
    return impact;
}

} // namespace serve
} // namespace olive
