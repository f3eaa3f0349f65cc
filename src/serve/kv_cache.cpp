#include "kv_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "baselines/uniform.hpp"
#include "block_pool.hpp"
#include "decoded_cache.hpp"
#include "nn/transformer.hpp"
#include "quant/ovp.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace olive {
namespace serve {

namespace {

OliveConfig
withBits(OliveConfig config, int bits)
{
    config.bits = bits;
    return config;
}

/**
 * Decode-side OvpCodec amortization.  Constructing an OvpCodec builds
 * 256-entry value LUTs plus the outlier boundary tables — fine once per
 * tensor, wasteful once per cached row per decode step, because the
 * attention kernel re-decodes every cached row on every step and a
 * row's (normal type, scale) recurs unchanged across all of them.  The
 * codec's decode side is a pure function of (normal, scale): the
 * threshold only shapes encode-time pair classification
 * (KvScheme.OvpDecodeIsThresholdIndependent pins this), and OvpKvScheme
 * always uses the default complementary abfloat bias.  So decode codecs
 * are cached per (normal, scale-bits) key.
 *
 * The cache is thread_local: decodeRow runs concurrently across rows
 * under par::parallelFor, and a per-thread map needs no locks while
 * staying bit-deterministic (every thread constructs the identical
 * codec from the identical key).  Bounded so adversarial scale churn
 * cannot grow it without limit.
 */
const OvpCodec &
cachedDecodeCodec(NormalType normal, float scale)
{
    thread_local std::unordered_map<u64, std::unique_ptr<OvpCodec>> cache;
    const u64 key = (static_cast<u64>(std::bit_cast<u32>(scale)) << 8) |
                    static_cast<u64>(static_cast<u8>(normal));
    auto it = cache.find(key);
    if (it == cache.end()) {
        if (cache.size() >= 4096)
            cache.clear();
        // The threshold argument is irrelevant to decode; any positive
        // value yields the same decode LUTs under this (normal, scale).
        it = cache
                 .emplace(key, std::make_unique<OvpCodec>(
                                   normal, scale,
                                   static_cast<double>(scale)))
                 .first;
    }
    return *it->second;
}

} // namespace

// ------------------------------------------------------------ fp32

void
Fp32KvScheme::encodeRow(std::span<const float> row, std::vector<u8> &bytes,
                        KvRowMeta &meta) const
{
    meta = KvRowMeta{};
    const size_t off = bytes.size();
    bytes.resize(off + row.size() * sizeof(float));
    std::memcpy(bytes.data() + off, row.data(), row.size() * sizeof(float));
}

void
Fp32KvScheme::decodeRow(std::span<const u8> bytes, const KvRowMeta &,
                        std::span<float> out) const
{
    OLIVE_ASSERT(bytes.size() == out.size() * sizeof(float),
                 "fp32 kv row payload size mismatch");
    std::memcpy(out.data(), bytes.data(), bytes.size());
}

// ------------------------------------------------------------- ovp

OvpKvScheme::OvpKvScheme(int bits, OliveConfig config)
    : quantizer_(withBits(config, bits))
{
    OLIVE_ASSERT(bits == 4 || bits == 8, "OVP KV cache supports 4/8 bits");
}

std::string
OvpKvScheme::name() const
{
    return "kv-olive" + std::to_string(quantizer_.config().bits);
}

size_t
OvpKvScheme::rowBytes(size_t d) const
{
    const NormalType t = quantizer_.config().bits == 8 ? NormalType::Int8
                                                       : NormalType::Int4;
    return ((d + 1) / 2) * OvpCodec::bytesPerPair(t);
}

void
OvpKvScheme::encodeRow(std::span<const float> row, std::vector<u8> &bytes,
                       KvRowMeta &meta) const
{
    OLIVE_ASSERT(!row.empty(), "cannot encode an empty KV row");
    if (stats::absMax(row) == 0.0) {
        // Nothing to calibrate on; an all-zero row decodes to zeros.
        meta = KvRowMeta{};
        bytes.resize(bytes.size() + rowBytes(row.size()), 0);
        return;
    }
    const QuantDecision d = quantizer_.calibrate(row);
    const OvpCodec codec = quantizer_.makeCodec(d);
    // Encode straight into the payload: no per-row staging vector.
    const size_t off = bytes.size();
    bytes.resize(off + rowBytes(row.size()));
    codec.encodeInto(row, std::span<u8>(bytes).subspan(off));
    meta.scale = d.scale;
    meta.threshold = d.threshold;
    meta.normal = d.normal;
}

void
OvpKvScheme::decodeRow(std::span<const u8> bytes, const KvRowMeta &meta,
                       std::span<float> out) const
{
    if (meta.scale == 0.0f) {
        std::fill(out.begin(), out.end(), 0.0f);
        return;
    }
    // Construction amortized across rows and steps sharing a (normal,
    // scale); bit-identical to a freshly constructed codec
    // (KvScheme.OvpDecodeCodecCacheIsBitIdentical pins this).
    const OvpCodec &codec = cachedDecodeCodec(meta.normal, meta.scale);
    const std::vector<float> vals = codec.decode(bytes, out.size());
    std::copy(vals.begin(), vals.end(), out.begin());
}

// ------------------------------------------------------------ int8

void
Int8KvScheme::encodeRow(std::span<const float> row, std::vector<u8> &bytes,
                        KvRowMeta &meta) const
{
    OLIVE_ASSERT(!row.empty(), "cannot encode an empty KV row");
    meta = KvRowMeta{};
    const size_t off = bytes.size();
    bytes.resize(off + row.size());
    if (stats::absMax(row) == 0.0)
        return; // scale 0 sentinel, zero payload
    const float scale = searchUniformScale(row, 127);
    meta.scale = scale;
    for (size_t i = 0; i < row.size(); ++i) {
        // Exactly uniformFakeQuant's arithmetic, but storing the code.
        double q = std::nearbyint(static_cast<double>(row[i]) / scale);
        q = std::clamp(q, -127.0, 127.0);
        bytes[off + i] = static_cast<u8>(static_cast<i8>(q));
    }
}

void
Int8KvScheme::decodeRow(std::span<const u8> bytes, const KvRowMeta &meta,
                        std::span<float> out) const
{
    OLIVE_ASSERT(bytes.size() == out.size(),
                 "int8 kv row payload size mismatch");
    if (meta.scale == 0.0f) {
        std::fill(out.begin(), out.end(), 0.0f);
        return;
    }
    for (size_t i = 0; i < out.size(); ++i) {
        const auto q = static_cast<i8>(bytes[i]);
        out[i] = static_cast<float>(static_cast<double>(q) * meta.scale);
    }
}

// --------------------------------------------------------- factory

std::unique_ptr<KvScheme>
makeKvScheme(KvCacheFormat format)
{
    switch (format) {
    case KvCacheFormat::Fp32:
        return std::make_unique<Fp32KvScheme>();
    case KvCacheFormat::Olive4:
        return std::make_unique<OvpKvScheme>(4);
    case KvCacheFormat::Olive8:
        return std::make_unique<OvpKvScheme>(8);
    case KvCacheFormat::Int8:
        return std::make_unique<Int8KvScheme>();
    }
    OLIVE_PANIC("unreachable kv cache format");
}

KvCacheFormat
parseKvCacheFormat(const std::string &id)
{
    if (id == "fp32")
        return KvCacheFormat::Fp32;
    if (id == "olive4")
        return KvCacheFormat::Olive4;
    if (id == "olive8")
        return KvCacheFormat::Olive8;
    if (id == "int8")
        return KvCacheFormat::Int8;
    OLIVE_FATAL("unknown KV cache format \"" + id +
                "\" (known: fp32, olive4, olive8, int8)");
}

std::vector<std::string>
kvCacheFormatIds()
{
    return {"fp32", "olive4", "olive8", "int8"};
}

// --------------------------------------------------------- KvCache

KvCache::KvCache(const KvScheme &scheme, size_t d)
    : scheme_(&scheme), d_(d)
{
    OLIVE_ASSERT(d > 0, "KV cache row width must be positive");
}

void
KvCache::appendRows(const Tensor &k, const Tensor &v)
{
    OLIVE_ASSERT(k.rank() == 2 && v.rank() == 2 && k.dim(0) == v.dim(0) &&
                     k.dim(1) == d_ && v.dim(1) == d_,
                 "bulk append needs matching (m, d) K and V");
    // The oracle semantics: m ordinary appends in row order.  Storage
    // layouts override this for speed, never for different bytes.
    for (size_t i = 0; i < k.dim(0); ++i)
        append(k.row(i), v.row(i));
}

void
KvCache::withDecoded(
    const std::function<void(std::span<const KvSpan>)> &fn) const
{
    // The retained scratch-materializing path: decode every row into a
    // transient (length, d) pair and serve it as one span.  O(length)
    // codec work per call — the oracle the decoded-block working set is
    // measured (and bit-compared) against.
    const size_t len = length();
    if (len == 0) {
        fn(std::span<const KvSpan>());
        return;
    }
    Tensor k({len, d_}), v({len, d_});
    decodeK(k);
    decodeV(v);
    const KvSpan span{k.raw(), v.raw(), len};
    fn(std::span<const KvSpan>(&span, 1));
}

// ----------------------------------------------- KvCacheReference

KvCacheReference::KvCacheReference(const KvScheme &scheme, size_t d)
    : KvCache(scheme, d)
{
}

void
KvCacheReference::append(std::span<const float> k, std::span<const float> v)
{
    OLIVE_ASSERT(k.size() == d_ && v.size() == d_,
                 "KV row width must match the cache");
    const size_t rb = scheme_->rowBytes(d_);
    KvRowMeta km, vm;
    scheme_->encodeRow(k, kBytes_, km);
    scheme_->encodeRow(v, vBytes_, vm);
    OLIVE_ASSERT(kBytes_.size() == (kMeta_.size() + 1) * rb &&
                     vBytes_.size() == (vMeta_.size() + 1) * rb,
                 "KV codec appended a payload of unexpected size");
    kMeta_.push_back(km);
    vMeta_.push_back(vm);
}

void
KvCacheReference::truncate(size_t new_len)
{
    OLIVE_ASSERT(new_len <= kMeta_.size(), "truncate cannot grow the cache");
    const size_t rb = scheme_->rowBytes(d_);
    kBytes_.resize(new_len * rb);
    vBytes_.resize(new_len * rb);
    kMeta_.resize(new_len);
    vMeta_.resize(new_len);
}

void
KvCacheReference::decodeAll(const std::vector<u8> &bytes,
                            const std::vector<KvRowMeta> &meta,
                            Tensor &out) const
{
    OLIVE_ASSERT(out.rank() == 2 && out.dim(0) == meta.size() &&
                     out.dim(1) == d_,
                 "decode target must be (length, d)");
    const size_t rb = scheme_->rowBytes(d_);
    // Rows are independent and each is a pure function of its payload
    // bytes, so the decode parallelizes deterministically (and runs
    // inline when the engine is already parallel across requests).
    par::parallelFor(0, meta.size(), 1, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
            scheme_->decodeRow(
                std::span<const u8>(bytes.data() + i * rb, rb), meta[i],
                out.row(i));
        }
    });
}

void
KvCacheReference::decodeK(Tensor &out) const
{
    decodeAll(kBytes_, kMeta_, out);
}

void
KvCacheReference::decodeV(Tensor &out) const
{
    decodeAll(vBytes_, vMeta_, out);
}

size_t
KvCacheReference::encodedBytes() const
{
    return kBytes_.size() + vBytes_.size() +
           (kMeta_.size() + vMeta_.size()) * scheme_->metaBytesPerRow();
}

// --------------------------------------------------- PagedKvCache

PagedKvCache::PagedKvCache(BlockPool &pool, DecodedBlockCache *dcache)
    : KvCache(pool.scheme(), pool.dModel()), pool_(&pool), dcache_(dcache)
{
}

PagedKvCache::~PagedKvCache()
{
    // Eviction: every referenced block drops one reference; payload
    // bytes are never copied or cleared (the free list recycles them).
    for (u32 id : table_)
        pool_->release(id);
}

void
PagedKvCache::encodeSlot(u32 id, size_t slot, std::span<const float> k,
                         std::span<const float> v)
{
    // The codec appends into a staging vector (its contract); the row
    // is then placed into the block slot.  Same bytes per row as the
    // contiguous layout by construction.
    thread_local std::vector<u8> scratch; // capacity reused per row
    const size_t rb = pool_->rowBytes();
    const auto put = [&](std::span<const float> row, KvRowMeta &meta,
                         u8 *dst) {
        scratch.clear();
        scheme_->encodeRow(row, scratch, meta);
        OLIVE_ASSERT(scratch.size() == rb,
                     "KV codec appended a payload of unexpected size");
        std::memcpy(dst, scratch.data(), rb);
    };
    put(k, pool_->kMeta(id, slot), pool_->kRow(id, slot));
    put(v, pool_->vMeta(id, slot), pool_->vRow(id, slot));
}

void
PagedKvCache::append(std::span<const float> k, std::span<const float> v)
{
    OLIVE_ASSERT(k.size() == d_ && v.size() == d_,
                 "KV row width must match the cache");
    const size_t B = pool_->blockRows();
    const size_t slot = rows_ % B;
    if (slot == 0)
        table_.push_back(pool_->allocate());
    OLIVE_ASSERT(rows_ / B == table_.size() - 1,
                 "block table is out of sync with the row count");
    const u32 tail = table_.back();
    OLIVE_ASSERT(pool_->refcount(tail) == 1,
                 "appending into a shared block (tail must be exclusive)");
    encodeSlot(tail, slot, k, v);
    ++rows_;
}

void
PagedKvCache::appendRows(const Tensor &k, const Tensor &v)
{
    OLIVE_ASSERT(k.rank() == 2 && v.rank() == 2 && k.dim(0) == v.dim(0) &&
                     k.dim(1) == d_ && v.dim(1) == d_,
                 "bulk append needs matching (m, d) K and V");
    const size_t m = k.dim(0);
    if (m == 0)
        return;
    const size_t B = pool_->blockRows();
    const size_t start = rows_;
    // Allocate every block the chunk spills into up front, so the
    // per-row encode below touches no pool structure and can run in
    // parallel.  Each receiving block — the current tail included — is
    // exclusively owned (the append-once invariant bulk append must
    // preserve just like append()).
    while (table_.size() * B < start + m)
        table_.push_back(pool_->allocate());
    for (size_t b = start / B; b < table_.size(); ++b)
        OLIVE_ASSERT(pool_->refcount(table_[b]) == 1,
                     "bulk-appending into a shared block (tail blocks "
                     "must be exclusive)");
    // Rows encode to disjoint slots through a pure per-row codec, so
    // the fan-out is deterministic at any thread count and byte-equal
    // to m sequential append() calls.  ServeEngine::step runs a
    // calibrating format's multi-row slabs at the top level, so their
    // per-row calibration really spreads over the pool here.
    par::parallelFor(0, m, 1, [&](size_t bgn, size_t end) {
        for (size_t i = bgn; i < end; ++i) {
            const size_t pos = start + i;
            encodeSlot(table_[pos / B], pos % B, k.row(i), v.row(i));
        }
    });
    rows_ += m;
}

void
PagedKvCache::truncate(size_t new_len)
{
    OLIVE_ASSERT(new_len <= rows_, "truncate cannot grow the cache");
    if (new_len == rows_)
        return;
    const size_t B = pool_->blockRows();
    const size_t keep = (new_len + B - 1) / B;
    // Rolled-back rows only ever live in exclusively owned blocks (a
    // shared block's rows all precede any speculative row — see the
    // engine's rollback argument), so releasing them can never free
    // bytes another cache still references; the refcount assert makes
    // that proof load-bearing.
    for (size_t b = table_.size(); b-- > keep;) {
        OLIVE_ASSERT(pool_->refcount(table_[b]) == 1,
                     "truncating rows out of a shared block");
        pool_->release(table_[b]); // hook invalidates its decoded entry
    }
    table_.resize(keep);
    rows_ = new_len;
    // The kept boundary block may have decoded slots past the new
    // length; a later append re-encodes those slots with fresh bytes,
    // so the working set must forget them now.  Shrinking (rather than
    // invalidating) keeps the surviving decoded prefix resident, so
    // rollback costs no re-decode of rows it kept.
    if (dcache_ != nullptr && new_len % B != 0)
        dcache_->shrink(table_.back(), new_len % B);
}

void
PagedKvCache::decodePlane(bool k_plane, Tensor &out) const
{
    OLIVE_ASSERT(out.rank() == 2 && out.dim(0) == rows_ && out.dim(1) == d_,
                 "decode target must be (length, d)");
    const size_t B = pool_->blockRows();
    const size_t rb = pool_->rowBytes();
    // Row iteration walks the block table; rows stay independent, so
    // the decode parallelizes deterministically exactly like the
    // contiguous layout.
    par::parallelFor(0, rows_, 1, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
            const u32 id = table_[i / B];
            const size_t slot = i % B;
            const u8 *row =
                k_plane ? pool_->kRow(id, slot) : pool_->vRow(id, slot);
            const KvRowMeta &meta =
                k_plane ? pool_->kMeta(id, slot) : pool_->vMeta(id, slot);
            scheme_->decodeRow(std::span<const u8>(row, rb), meta,
                               out.row(i));
        }
    });
}

void
PagedKvCache::decodeK(Tensor &out) const
{
    decodePlane(true, out);
}

void
PagedKvCache::decodeV(Tensor &out) const
{
    decodePlane(false, out);
}

size_t
PagedKvCache::encodedBytes() const
{
    return table_.size() * pool_->blockBytes();
}

void
PagedKvCache::withDecoded(
    const std::function<void(std::span<const KvSpan>)> &fn) const
{
    if (dcache_ == nullptr || rows_ == 0) {
        // No working set attached (or nothing cached yet): fall back to
        // the scratch-materializing oracle path.
        KvCache::withDecoded(fn);
        return;
    }
    const size_t B = pool_->blockRows();
    // Pin every referenced block's decoded entry for the duration of
    // the callback.  Prefix-shared blocks hit entries decoded by (or
    // for) other requests; the tail block extends its decoded prefix by
    // exactly the rows appended since the last step — the O(1)
    // amortized codec work per step.
    std::vector<KvSpan> spans;
    spans.reserve(table_.size());
    for (size_t b = 0; b < table_.size(); ++b) {
        const size_t rows = std::min(B, rows_ - b * B);
        const DecodedBlockCache::Lease lease =
            dcache_->acquire(table_[b], rows);
        spans.push_back(KvSpan{lease.k, lease.v, rows});
    }
    fn(std::span<const KvSpan>(spans.data(), spans.size()));
    for (u32 id : table_)
        dcache_->release(id);
}

void
PagedKvCache::shareFrom(const PagedKvCache &donor, size_t rows)
{
    OLIVE_ASSERT(donor.pool_ == pool_, "sharing requires a common pool");
    shareFromTable(donor.table_, donor.rows_, rows);
}

void
PagedKvCache::shareFromTable(std::span<const u32> table, size_t donor_rows,
                             size_t rows)
{
    OLIVE_ASSERT(rows_ == 0 && table_.empty(),
                 "prefix sharing requires an empty cache");
    OLIVE_ASSERT(rows <= donor_rows, "donor does not cover the prefix");
    OLIVE_ASSERT(donor_rows <= table.size() * pool_->blockRows(),
                 "stored block table shorter than its row count");
    if (rows == 0)
        return;
    const size_t B = pool_->blockRows();
    // Full blocks are immutable (the donor only ever wrote its tail),
    // so they are shared by reference: refcount up, zero payload
    // copies.  This holds whether the table belongs to a live donor
    // cache or to a retained prefix of a retired one — retention never
    // appends, so every covered block is frozen either way.
    const size_t full = rows / B;
    for (size_t b = 0; b < full; ++b) {
        pool_->retain(table[b]);
        table_.push_back(table[b]);
    }
    // Copy-on-write at the first divergent block: the trailing partial
    // rows land in a fresh exclusive block this cache can append into.
    const size_t partial = rows % B;
    if (partial > 0) {
        const u32 fresh = pool_->allocate();
        pool_->copyRows(table[full], fresh, partial);
        table_.push_back(fresh);
    }
    rows_ = rows;
}

// ----------------------------------------------------- DecodeState

size_t
DecodeState::encodedBytes() const
{
    size_t n = 0;
    for (const auto &c : layers)
        n += c->encodedBytes();
    return n;
}

size_t
DecodeState::fp32Bytes() const
{
    size_t n = 0;
    for (const auto &c : layers)
        n += c->fp32Bytes();
    return n;
}

DecodeState
makeDecodeState(const nn::Transformer &model, const KvScheme &scheme)
{
    DecodeState state;
    state.layers.reserve(model.layers.size());
    for (size_t i = 0; i < model.layers.size(); ++i)
        state.layers.push_back(
            std::make_unique<KvCacheReference>(scheme, model.dModel));
    return state;
}

DecodeState
makePagedDecodeState(const nn::Transformer &model, BlockPool &pool,
                     DecodedBlockCache *dcache)
{
    OLIVE_ASSERT(pool.dModel() == model.dModel,
                 "pool row width must match the model");
    DecodeState state;
    state.layers.reserve(model.layers.size());
    for (size_t i = 0; i < model.layers.size(); ++i)
        state.layers.push_back(std::make_unique<PagedKvCache>(pool, dcache));
    return state;
}

} // namespace serve
} // namespace olive
