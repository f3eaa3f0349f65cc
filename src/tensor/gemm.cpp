#include "gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/parallel.hpp"

namespace olive {

namespace {

/** Rows per parallel chunk (matmulReference also blocks l by it). */
constexpr size_t kBlock = 64;

/** Columns per parallel chunk when a single row chunk splits by column. */
constexpr size_t kColBlock = 32;

/**
 * Multiply-adds below which a single row chunk stays whole: waking the
 * pool costs more than a d = 128 GEMV saves (a few microseconds).
 */
constexpr size_t kColSplitMacs = size_t{1} << 18;

/** Elements per parallel chunk of axpy. */
constexpr size_t kAxpyGrain = 1u << 14;

// Two-lane SIMD values (GCC/Clang vector extensions; SSE2 on x86-64).
using V2d = double __attribute__((vector_size(16)));
using V4f = float __attribute__((vector_size(16)));

/** Lanes Lo and Hi of @p x, widened to a double pair (exact). */
template <int Lo, int Hi>
inline V2d
widen(V4f x)
{
    return __builtin_convertvector(__builtin_shufflevector(x, x, Lo, Hi),
                                   V2d);
}

/**
 * Row-dot register tile: t[r][q] holds the outputs (row r, columns 2q
 * and 2q+1) as one double pair, so W's widening and the column-pair
 * shuffles are paid once per l and reused by all R rows.  @p ad holds
 * the R A rows widened to double and duplicated into both lanes,
 * interleaved as ad[l * R + r]; @p w[c] points at W's row for tile
 * column c (a ragged tail repeats its last column).  Each lane is one
 * chain that starts at 0.0 and adds a(r,l) * w(c,l) for ascending l —
 * the reference order; float products are exact in double, so not even
 * FMA contraction could change a bit.
 */
template <size_t R, size_t Q>
void
rowDotTile(const V2d *ad, const float *const (&w)[2 * Q], size_t k,
           V2d (&t)[R][Q])
{
    // Local chains: @p t may alias @p ad as far as the compiler knows,
    // which would pin every partial sum to memory.
    V2d acc[R][Q];
    for (size_t r = 0; r < R; ++r)
        for (size_t q = 0; q < Q; ++q)
            acc[r][q] = V2d{0.0, 0.0};
    size_t l = 0;
    for (; l + 4 <= k; l += 4) {
        for (size_t q = 0; q < Q; ++q) {
            V4f x0, x1;
            std::memcpy(&x0, w[2 * q] + l, sizeof x0);
            std::memcpy(&x1, w[2 * q + 1] + l, sizeof x1);
            // Interleave the two columns: (c0[l], c1[l], c0[l+1], ...).
            const V4f lo = __builtin_shufflevector(x0, x1, 0, 4, 1, 5);
            const V4f hi = __builtin_shufflevector(x0, x1, 2, 6, 3, 7);
            const V2d y[4] = {widen<0, 1>(lo), widen<2, 3>(lo),
                              widen<0, 1>(hi), widen<2, 3>(hi)};
            for (size_t u = 0; u < 4; ++u)
                for (size_t r = 0; r < R; ++r)
                    acc[r][q] += ad[(l + u) * R + r] * y[u];
        }
    }
    for (; l < k; ++l) {
        for (size_t q = 0; q < Q; ++q) {
            const V2d y = {w[2 * q][l], w[2 * q + 1][l]};
            for (size_t r = 0; r < R; ++r)
                acc[r][q] += ad[l * R + r] * y;
        }
    }
    for (size_t r = 0; r < R; ++r)
        for (size_t q = 0; q < Q; ++q)
            t[r][q] = acc[r][q];
}

/**
 * C rows [i, i + R) of A * W^T (+ bias), swept over columns [j0, j1) of
 * n in rowDotTile<R, Q> tiles with eight accumulator pairs (at most
 * four column pairs: a single row is bound by W's widening, not by
 * chains).  @p ad is scratch for R * k pairs.
 */
template <size_t R>
void
rowDotRows(const float *pa, const float *pw, const float *bias, size_t i,
           size_t k, size_t n, size_t j0, size_t j1, float *pc, V2d *ad)
{
    constexpr size_t Q = std::min<size_t>(4, 8 / R);
    for (size_t l = 0; l < k; ++l) {
        for (size_t r = 0; r < R; ++r) {
            const double v = pa[(i + r) * k + l];
            ad[l * R + r] = V2d{v, v};
        }
    }
    // float(acc) + bias in float arithmetic, exactly the reference's
    // bias add on the stored float.
    const auto store = [&](size_t r, size_t j, double v) {
        float &out = pc[(i + r) * n + j];
        out = bias ? static_cast<float>(v) + bias[j] : static_cast<float>(v);
    };
    size_t j = j0;
    for (; j + 2 * Q <= j1; j += 2 * Q) {
        const float *w[2 * Q];
        for (size_t c = 0; c < 2 * Q; ++c)
            w[c] = pw + (j + c) * k;
        V2d t[R][Q];
        rowDotTile<R, Q>(ad, w, k, t);
        for (size_t r = 0; r < R; ++r) {
            for (size_t q = 0; q < Q; ++q) {
                store(r, j + 2 * q, t[r][q][0]);
                store(r, j + 2 * q + 1, t[r][q][1]);
            }
        }
    }
    for (; j < j1; j += 2) {
        const bool pair = j + 1 < j1;
        const float *w[2] = {pw + j * k, pw + (pair ? j + 1 : j) * k};
        V2d t[R][1];
        rowDotTile<R, 1>(ad, w, k, t);
        for (size_t r = 0; r < R; ++r) {
            store(r, j, t[r][0][0]);
            if (pair)
                store(r, j + 1, t[r][0][1]);
        }
    }
}

/**
 * Row-dot GEMM behind matmulTransB and linearForward: C = A(m,k) *
 * W(n,k)^T [+ bias], reading W's rows in place (they are already
 * unit-stride in l, so W is never transposed or copied).  Rows go in
 * kBlock-row parallel chunks, each cut into 8-, 4-, 2- and 1-row
 * register tiles.  A call with a single row chunk but enough work,
 * made at the top level of a multi-thread pool (a prefill chunk run
 * alone by ServeEngine::step), splits its columns into kColBlock-column
 * chunks instead, so it still fans out.  Every output element is one
 * double chain over ascending l, so the result is bit-identical to
 * matmulTransBReference at any row count, tile or column split and
 * thread count.
 */
Tensor
rowDotKernel(const Tensor &a, const Tensor &w, const float *bias)
{
    const size_t m = a.dim(0), k = a.dim(1), n = w.dim(0);
    Tensor c({m, n});
    const float *pa = a.raw();
    const float *pw = w.raw();
    float *pc = c.raw();

    const auto block = [&](size_t r0, size_t r1, size_t j0, size_t j1) {
        std::vector<V2d> ad(std::min<size_t>(8, r1 - r0) * k);
        for (size_t i = r0; i < r1;) {
            const size_t left = r1 - i;
            if (left >= 8) {
                rowDotRows<8>(pa, pw, bias, i, k, n, j0, j1, pc, ad.data());
                i += 8;
            } else if (left >= 4) {
                rowDotRows<4>(pa, pw, bias, i, k, n, j0, j1, pc, ad.data());
                i += 4;
            } else if (left >= 2) {
                rowDotRows<2>(pa, pw, bias, i, k, n, j0, j1, pc, ad.data());
                i += 2;
            } else {
                rowDotRows<1>(pa, pw, bias, i, k, n, j0, j1, pc, ad.data());
                i += 1;
            }
        }
    };
    if (m <= kBlock && m * n * k >= kColSplitMacs &&
        par::threadCount() > 1 && !par::inParallelRegion()) {
        par::parallelFor(0, n, kColBlock, [&](size_t j0, size_t j1) {
            block(0, m, j0, j1);
        });
    } else {
        par::parallelFor(0, m, kBlock, [&](size_t r0, size_t r1) {
            block(r0, r1, 0, n);
        });
    }
    return c;
}

} // namespace

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    OLIVE_ASSERT(a.rank() == 2 && b.rank() == 2, "matmul needs matrices");
    OLIVE_ASSERT(b.dim(0) == a.dim(1), "matmul inner dims must agree");
    // No serving path multiplies by an untransposed B, so one O(k*n)
    // transpose buys the row-dot kernel (and its exact ascending-l
    // order, hence bit-identity with matmulReference).
    const size_t k = b.dim(0), n = b.dim(1);
    Tensor bt({n, k});
    const float *pb = b.raw();
    float *pbt = bt.raw();
    for (size_t j = 0; j < n; ++j)
        for (size_t l = 0; l < k; ++l)
            pbt[j * k + l] = pb[l * n + j];
    return rowDotKernel(a, bt, nullptr);
}

Tensor
matmulTransB(const Tensor &a, const Tensor &b)
{
    OLIVE_ASSERT(a.rank() == 2 && b.rank() == 2, "matmul needs matrices");
    OLIVE_ASSERT(b.dim(1) == a.dim(1), "matmulTransB inner dims must agree");
    return rowDotKernel(a, b, nullptr);
}

Tensor
linearForward(const Tensor &a, const Tensor &w, const Tensor &bias)
{
    OLIVE_ASSERT(a.rank() == 2 && w.rank() == 2, "matmul needs matrices");
    OLIVE_ASSERT(w.dim(1) == a.dim(1), "matmulTransB inner dims must agree");
    OLIVE_ASSERT(bias.rank() == 1 && bias.dim(0) == w.dim(0),
                 "bias must match output features");
    return rowDotKernel(a, w, bias.raw());
}

void
axpy(Tensor &c, const Tensor &a, float alpha)
{
    OLIVE_ASSERT(c.size() == a.size(), "axpy size mismatch");
    float *cd = c.raw();
    const float *ad = a.raw();
    // Elements are independent and written exactly once, so the loop
    // parallelizes deterministically and the body vectorizes.
    par::parallelFor(0, c.size(), kAxpyGrain, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            cd[i] += alpha * ad[i];
    });
}

Tensor
matmulReference(const Tensor &a, const Tensor &b)
{
    OLIVE_ASSERT(a.rank() == 2 && b.rank() == 2, "matmul needs matrices");
    const size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    OLIVE_ASSERT(b.dim(0) == k, "matmul inner dims must agree");

    Tensor c({m, n});
    const float *pa = a.raw();
    const float *pb = b.raw();
    float *pc = c.raw();

    par::parallelFor(0, m, kBlock, [&](size_t r0, size_t r1) {
        std::vector<double> acc((r1 - r0) * n, 0.0);
        for (size_t l0 = 0; l0 < k; l0 += kBlock) {
            const size_t l1 = std::min(l0 + kBlock, k);
            for (size_t i = r0; i < r1; ++i) {
                double *arow = acc.data() + (i - r0) * n;
                for (size_t l = l0; l < l1; ++l) {
                    const double av = pa[i * k + l];
                    const float *brow = pb + l * n;
                    for (size_t j = 0; j < n; ++j)
                        arow[j] += av * brow[j];
                }
            }
        }
        for (size_t i = r0; i < r1; ++i) {
            const double *arow = acc.data() + (i - r0) * n;
            float *crow = pc + i * n;
            for (size_t j = 0; j < n; ++j)
                crow[j] = static_cast<float>(arow[j]);
        }
    });
    return c;
}

Tensor
matmulTransBReference(const Tensor &a, const Tensor &b)
{
    OLIVE_ASSERT(a.rank() == 2 && b.rank() == 2, "matmul needs matrices");
    const size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    OLIVE_ASSERT(b.dim(1) == k, "matmulTransB inner dims must agree");

    Tensor c({m, n});
    const float *pa = a.raw();
    const float *pb = b.raw();
    float *pc = c.raw();

    par::parallelFor(0, m, 1, [&](size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i) {
            const float *arow = pa + i * k;
            for (size_t j = 0; j < n; ++j) {
                const float *brow = pb + j * k;
                double acc = 0.0;
                for (size_t l = 0; l < k; ++l)
                    acc += static_cast<double>(arow[l]) * brow[l];
                pc[i * n + j] = static_cast<float>(acc);
            }
        }
    });
    return c;
}

} // namespace olive
