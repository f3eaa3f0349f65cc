/**
 * @file
 * Quantized KV cache for incremental (autoregressive) decode.
 *
 * In real LLM serving the KV cache is the dominant memory consumer —
 * it grows with every generated token of every in-flight request while
 * the weights stay fixed — which makes it the natural target for the
 * paper's hardware-friendly OVP format.  A KvCache stores the K and V
 * rows of one transformer layer for one request through a pluggable
 * per-row codec (KvScheme): rows are encoded to a packed byte stream
 * with per-row codec parameters (scale / threshold / normal type) when
 * appended, and decoded on the fly each step into the attention
 * kernel's scratch buffers.  Persistent storage is the compressed
 * stream; only the transient working set is FP32.
 *
 * Formats: FP32 passthrough (bit-exact — the decode-parity contract of
 * nn::Transformer::forwardChunk is stated against it), OVP at 4 or 8
 * bits (per-row OliveQuantizer calibration, the paper's method), and a
 * symmetric per-row int8 baseline (the standard "KV cache in int8"
 * deployment, no outlier mechanism).
 */

#ifndef OLIVE_SERVE_KV_CACHE_HPP
#define OLIVE_SERVE_KV_CACHE_HPP

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "quant/dtype.hpp"
#include "quant/quantizer.hpp"
#include "tensor/tensor.hpp"
#include "util/common.hpp"

namespace olive {
namespace nn {
struct Transformer;
} // namespace nn

namespace serve {

/**
 * Per-row codec parameters, stored alongside the packed payload.  The
 * fields a format actually uses are counted against its cache footprint
 * by KvScheme::metaBytesPerRow(); unused fields stay at their defaults.
 * scale == 0 marks an all-zero row (nothing to calibrate on), which
 * decodes to zeros for every lossy format.
 */
struct KvRowMeta
{
    float scale = 0.0f;
    double threshold = 0.0;
    NormalType normal = NormalType::Int4;
};

/**
 * Pluggable per-row KV codec.  encodeRow appends exactly
 * rowBytes(row.size()) payload bytes, so row offsets in a KvCache are a
 * pure function of the row index — no per-row index structure is
 * needed, mirroring how OVP itself keeps DRAM accesses aligned.
 */
class KvScheme
{
  public:
    virtual ~KvScheme() = default;

    /** Display name, e.g. "kv-olive4". */
    virtual std::string name() const = 0;

    /** Encode one row: append payload to @p bytes, fill @p meta. */
    virtual void encodeRow(std::span<const float> row,
                           std::vector<u8> &bytes, KvRowMeta &meta) const = 0;

    /** Decode one row previously produced by encodeRow. */
    virtual void decodeRow(std::span<const u8> bytes, const KvRowMeta &meta,
                           std::span<float> out) const = 0;

    /** Payload bytes per encoded row of @p d elements. */
    virtual size_t rowBytes(size_t d) const = 0;

    /** Bytes of KvRowMeta this format actually needs per row. */
    virtual size_t metaBytesPerRow() const = 0;

    /** True when decodeRow(encodeRow(x)) == x bitwise. */
    virtual bool lossless() const { return false; }

    /**
     * True when encodeRow searches the row's own quantization
     * parameters, which costs far more than the row's share of the
     * forward pass.  ServeEngine::step runs a multi-row slab of such a
     * format alone at the top level, so its row encodes fan out over
     * the pool; a cheap encode would not repay giving up the
     * across-request split.
     */
    virtual bool calibratesRows() const { return false; }
};

/** FP32 passthrough: 4 bytes/element, bit-exact round trip. */
class Fp32KvScheme : public KvScheme
{
  public:
    std::string name() const override { return "kv-fp32"; }
    void encodeRow(std::span<const float> row, std::vector<u8> &bytes,
                   KvRowMeta &meta) const override;
    void decodeRow(std::span<const u8> bytes, const KvRowMeta &meta,
                   std::span<float> out) const override;
    size_t rowBytes(size_t d) const override { return d * sizeof(float); }
    size_t metaBytesPerRow() const override { return 0; }
    bool lossless() const override { return true; }
};

/**
 * OVP KV cache rows: each row is calibrated with the OliVe per-tensor
 * quantizer (MSE threshold search, adaptive int4/flint4 type at 4 bits)
 * and packed with OvpCodec — identical bytes to a DRAM-resident OliVe
 * tensor.  Per-row calibration is the KV-cache analogue of per-tensor
 * PTQ: a row is one token's K (or V) projection, and token outliers are
 * exactly what OVP absorbs.
 */
class OvpKvScheme : public KvScheme
{
  public:
    /** @param bits 4 or 8.  @param config overrides the search grid. */
    explicit OvpKvScheme(int bits, OliveConfig config = {});

    std::string name() const override;
    void encodeRow(std::span<const float> row, std::vector<u8> &bytes,
                   KvRowMeta &meta) const override;
    void decodeRow(std::span<const u8> bytes, const KvRowMeta &meta,
                   std::span<float> out) const override;
    size_t rowBytes(size_t d) const override;
    /**
     * scale (4) + normal type tag (1).  The outlier threshold shapes
     * only the encode-side pair classification; OVP decode is a pure
     * (code, scale, type) lookup, so the threshold — kept in KvRowMeta
     * for bookkeeping — never needs to persist with the cache
     * (KvScheme.OvpDecodeIsThresholdIndependent asserts this).
     */
    size_t metaBytesPerRow() const override { return 5; }
    bool calibratesRows() const override { return true; }

  private:
    OliveQuantizer quantizer_;
};

/**
 * Symmetric per-row int8 baseline: one MSE-searched scale per row,
 * values round and saturate — the standard outlier-oblivious int8
 * KV-cache deployment the OVP format is compared against.
 */
class Int8KvScheme : public KvScheme
{
  public:
    std::string name() const override { return "kv-int8"; }
    void encodeRow(std::span<const float> row, std::vector<u8> &bytes,
                   KvRowMeta &meta) const override;
    void decodeRow(std::span<const u8> bytes, const KvRowMeta &meta,
                   std::span<float> out) const override;
    size_t rowBytes(size_t d) const override { return d; }
    /** scale (4). */
    size_t metaBytesPerRow() const override { return 4; }
    bool calibratesRows() const override { return true; }
};

/** KV cache storage formats selectable by drivers and the engine. */
enum class KvCacheFormat
{
    Fp32,
    Olive4,
    Olive8,
    Int8,
};

/** Factory for the format's codec. */
std::unique_ptr<KvScheme> makeKvScheme(KvCacheFormat format);

/** Parse a format id ("fp32", "olive4", "olive8", "int8"); fatal else. */
KvCacheFormat parseKvCacheFormat(const std::string &id);

/** All format ids (for driver --help strings and benches). */
std::vector<std::string> kvCacheFormatIds();

/**
 * One run of consecutive decoded rows served to block-table attention:
 * row i of the span's K plane lives at k + i*d (stride = the model d),
 * likewise for V.  A cache's rows [0, length) are presented as an
 * ordered list of spans — one per referenced block when a decoded
 * working set backs the cache, or a single all-rows span from the
 * retained scratch-materializing path.
 */
struct KvSpan
{
    const float *k = nullptr;
    const float *v = nullptr;
    size_t rows = 0;
};

/**
 * One transformer layer's K and V rows for one request, stored through
 * a KvScheme.  append() encodes one token's K and V projection rows;
 * decodeK/decodeV materialize the whole cache into (length, d) scratch
 * tensors for the attention kernel.
 *
 * Two storage layouts implement the interface: KvCacheReference keeps
 * one contiguous byte stream per (request, layer) — the original
 * design, retained as the bit-exactness oracle the paged fuzz suite
 * compares against — and PagedKvCache maps logical rows through a block
 * table into a shared BlockPool (eviction without copying, prefix
 * sharing between requests).  Both produce identical decoded tensors
 * for identical appended rows: the per-row codec bytes are a pure
 * function of the row, independent of where they are stored.
 */
class KvCache
{
  public:
    /** @param scheme must outlive the cache. */
    KvCache(const KvScheme &scheme, size_t d);
    virtual ~KvCache() = default;

    KvCache(const KvCache &) = delete;
    KvCache &operator=(const KvCache &) = delete;

    /** Append one token's K and V rows (each of d elements). */
    virtual void append(std::span<const float> k,
                        std::span<const float> v) = 0;

    /**
     * Bulk-append @p k / @p v (m, d): row i of each lands at logical
     * position length()+i, in ascending order — byte-identical storage
     * to m append() calls, because the codec encodes each row as a pure
     * function of that row alone.  The base implementation IS the
     * append() loop (the oracle); PagedKvCache overrides it to allocate
     * the covering blocks up front and encode the rows in parallel —
     * batched prefill's cache-write path.
     */
    virtual void appendRows(const Tensor &k, const Tensor &v);

    /**
     * Drop rows [new_len, length()) — speculative decode's rollback of
     * rejected draft rows.  @pre the dropped rows were appended by this
     * cache and are not shared (always true for speculative rows: they
     * live past every shareable prefix, see engine.cpp's rollback
     * proof); PagedKvCache asserts refcount == 1 on every block it
     * releases.  Appending after a truncate reuses the vacated logical
     * positions with fresh bytes.
     */
    virtual void truncate(size_t new_len) = 0;

    /** Tokens cached so far. */
    virtual size_t length() const = 0;

    /** Row width (the model d_model). */
    size_t dModel() const { return d_; }

    const KvScheme &scheme() const { return *scheme_; }

    /** Decode all K rows into @p out, shaped (length, d) by the caller. */
    virtual void decodeK(Tensor &out) const = 0;

    /** Decode all V rows into @p out, shaped (length, d) by the caller. */
    virtual void decodeV(Tensor &out) const = 0;

    /**
     * Serve the decoded form of rows [0, length) to @p fn as an ordered
     * span list (attention's read path).  The spans are valid only for
     * the duration of the call.  The base implementation materializes a
     * transient (length, d) scratch pair through decodeK/decodeV and
     * passes one span — the original O(length)-codec-work-per-step path,
     * retained as the bit-exactness oracle; PagedKvCache overrides it to
     * pin per-block entries of a shared DecodedBlockCache, decoding only
     * rows not already resident (O(1) amortized).  Both present
     * identical floats: decode is a pure per-row function, so where the
     * decoded copy lives can never change a value.
     */
    virtual void
    withDecoded(const std::function<void(std::span<const KvSpan>)> &fn) const;

    /**
     * Persistent footprint.  Contiguous: packed payload + per-row codec
     * params.  Paged: referenced blocks x block bytes — what this cache
     * would occupy if nothing were shared (pool-level bytesInUse() is
     * the deduplicated truth).
     */
    virtual size_t encodedBytes() const = 0;

    /** What the same cache would occupy uncompressed. */
    size_t fp32Bytes() const { return 2 * length() * d_ * sizeof(float); }

  protected:
    const KvScheme *scheme_;
    size_t d_;
};

/**
 * The original contiguous layout: one packed byte stream per K/V side.
 * Kept alive as the oracle for the paged implementation (the churn-fuzz
 * suite runs both side by side and demands bit-identical outputs).
 */
class KvCacheReference final : public KvCache
{
  public:
    KvCacheReference(const KvScheme &scheme, size_t d);

    void append(std::span<const float> k,
                std::span<const float> v) override;
    void truncate(size_t new_len) override;
    size_t length() const override { return kMeta_.size(); }
    void decodeK(Tensor &out) const override;
    void decodeV(Tensor &out) const override;
    size_t encodedBytes() const override;

  private:
    void decodeAll(const std::vector<u8> &bytes,
                   const std::vector<KvRowMeta> &meta, Tensor &out) const;

    std::vector<u8> kBytes_, vBytes_;
    std::vector<KvRowMeta> kMeta_, vMeta_;
};

class BlockPool;
class DecodedBlockCache;

/**
 * Paged layout: logical row i lives in slot i % blockRows of block
 * table_[i / blockRows], all blocks owned by a global BlockPool.  The
 * tail block is exclusively owned (refcount contribution 1, written by
 * appends); all earlier blocks are full and immutable, so they can be
 * shared read-only between requests via shareFrom().
 */
class PagedKvCache final : public KvCache
{
  public:
    /**
     * @param pool   must outlive the cache (and defines the scheme/d).
     * @param dcache optional decoded-block working set (shared across
     *               the engine's caches; must outlive this one).  When
     *               given, withDecoded() serves per-block spans pinned
     *               in it; when null, the base scratch path is used.
     */
    explicit PagedKvCache(BlockPool &pool,
                          DecodedBlockCache *dcache = nullptr);
    ~PagedKvCache() override;

    PagedKvCache(PagedKvCache &&) = delete;
    PagedKvCache &operator=(PagedKvCache &&) = delete;

    void append(std::span<const float> k,
                std::span<const float> v) override;
    void appendRows(const Tensor &k, const Tensor &v) override;
    void truncate(size_t new_len) override;
    size_t length() const override { return rows_; }
    void decodeK(Tensor &out) const override;
    void decodeV(Tensor &out) const override;
    void withDecoded(const std::function<void(std::span<const KvSpan>)>
                         &fn) const override;
    size_t encodedBytes() const override;

    /**
     * Seed this (empty) cache with the first @p rows rows of @p donor:
     * full blocks are shared by reference (refcount, zero copies); a
     * trailing partial block is copy-on-write duplicated so this cache
     * can append its own divergent rows after it.  The donor's rows
     * must cover @p rows.
     */
    void shareFrom(const PagedKvCache &donor, size_t rows);

    /**
     * shareFrom() without a live donor cache: seed this (empty) cache
     * with the first @p rows of a stored block table covering
     * @p donor_rows live rows — the engine's cached-prefix retention
     * holds the references that keep those blocks alive after the
     * donor request retired.  Identical mechanics (full covered
     * blocks by reference, a trailing partial block by copy-on-write)
     * and the identical bit-exactness argument: causal K/V rows are
     * pure functions of the tokens at or before them, wherever the
     * bytes happen to live.
     */
    void shareFromTable(std::span<const u32> table, size_t donor_rows,
                        size_t rows);

    /** Block-table length (referenced blocks), for accounting/tests. */
    size_t blockCount() const { return table_.size(); }

    /** Block id of table entry @p i (test/introspection hook). */
    u32 blockId(size_t i) const { return table_[i]; }

    BlockPool &pool() const { return *pool_; }

  private:
    /** Shared body of append/appendRows: encode one K/V row pair into
     *  slot @p slot of block @p id. */
    void encodeSlot(u32 id, size_t slot, std::span<const float> k,
                    std::span<const float> v);

    /** Shared body of decodeK/decodeV: walk the block table. */
    void decodePlane(bool k_plane, Tensor &out) const;

    BlockPool *pool_;
    DecodedBlockCache *dcache_; //!< Optional; engine-owned, shared.
    std::vector<u32> table_;
    size_t rows_ = 0;
};

/**
 * Per-request incremental decode state: one KvCache per transformer
 * layer plus the next position to fill.  Built by makeDecodeState
 * (contiguous reference caches) or makePagedDecodeState (block-table
 * caches over a shared pool) and advanced by
 * nn::Transformer::forwardChunk.
 */
struct DecodeState
{
    std::vector<std::unique_ptr<KvCache>> layers;
    size_t position = 0; //!< Tokens processed so far.

    /** Persistent cache footprint across all layers. */
    size_t encodedBytes() const;

    /** FP32-equivalent footprint across all layers. */
    size_t fp32Bytes() const;
};

/** Fresh contiguous decode state; @p scheme must outlive it. */
DecodeState makeDecodeState(const nn::Transformer &model,
                            const KvScheme &scheme);

/**
 * Fresh paged decode state over @p pool; the pool (and @p dcache when
 * given — the engine's shared decoded-block working set) must outlive
 * it.
 */
DecodeState makePagedDecodeState(const nn::Transformer &model,
                                 BlockPool &pool,
                                 DecodedBlockCache *dcache = nullptr);

} // namespace serve
} // namespace olive

#endif // OLIVE_SERVE_KV_CACHE_HPP
