/**
 * @file
 * Single-precision GEMM and friends.
 *
 * C = A(m,k) * B(k,n) [+ bias], with optional transposition of B.  This
 * is the reference arithmetic path for the functional evaluation; the
 * hardware-accurate integer path lives in src/hw.
 *
 * Every variant accumulates each output element in double over
 * ascending inner index, so matmul and matmulTransB agree bitwise on
 * transposed inputs, and row-parallel execution (util/parallel) is
 * bit-identical to serial at any OLIVE_THREADS value.
 *
 * All three run one row-dot kernel.  For matmulTransB and linearForward
 * W is (n,k), so its rows are already unit-stride in the inner index and
 * are read in place, never transposed or copied; matmul, which no
 * serving path calls, transposes B once.  Register tiles of up to 8 rows
 * x 2 columns or 1 row x 8 columns give independent chains; each output
 * is still one double chain from 0.0 over ascending l, never split.
 * Tiling only regroups which output elements are computed together, so
 * the fast kernels are bit-identical to the straightforward *Reference()
 * implementations retained below as oracles
 * (tests/test_kernels_oracle.cpp compares them bytewise).
 */

#ifndef OLIVE_TENSOR_GEMM_HPP
#define OLIVE_TENSOR_GEMM_HPP

#include "tensor.hpp"

namespace olive {

/**
 * C = A * B.  A is (m,k), B is (k,n), C is resized/created as (m,n).
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/**
 * C = A * B^T.  A is (m,k), B is (n,k), C is (m,n).  This matches the
 * layout of transformer weight matrices stored as (out, in).
 */
Tensor matmulTransB(const Tensor &a, const Tensor &b);

/** C = A * B^T + bias (bias is rank-1 with n elements). */
Tensor linearForward(const Tensor &a, const Tensor &w, const Tensor &bias);

/** In-place C += alpha * A (parallel; each element written once). */
void axpy(Tensor &c, const Tensor &a, float alpha);

/** Untiled matmul, the bit-exactness oracle for matmul(). */
Tensor matmulReference(const Tensor &a, const Tensor &b);

/** Untiled matmulTransB, the bit-exactness oracle for matmulTransB(). */
Tensor matmulTransBReference(const Tensor &a, const Tensor &b);

} // namespace olive

#endif // OLIVE_TENSOR_GEMM_HPP
