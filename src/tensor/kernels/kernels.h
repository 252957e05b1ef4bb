#ifndef STGNN_TENSOR_KERNELS_KERNELS_H_
#define STGNN_TENSOR_KERNELS_KERNELS_H_

#include <cstdint>

#include "common/cpuid.h"

// Runtime-dispatched microkernels for the three dominant compute loops
// (MatMul — packed panels and the unpacked direct product — row-parallel
// SpMM, fused Adam) plus the int8 inference GEMM. One KernelTable per ISA;
// the active table is selected at runtime from common::ActiveIsa()
// (STGNN_ISA overridable).
//
// Parity contract — every fp32 variant is bit-identical to the scalar
// reference:
//   * All variants accumulate each output element with fused multiply-adds
//     in the same fixed order (k/p ascending from +0.0f for MatMul — on
//     every path and operand layout — entry order for SpMM, the written
//     statement order for Adam). The scalar reference uses std::fmaf (IEEE
//     single-rounding, identical to the hardware vfmadd lanes) and is
//     compiled with -ffp-contract=off so the compiler cannot reassociate it.
//   * Vectorisation is across independent output elements (columns of the
//     output row, elements of the parameter vector), never across a
//     reduction, so lane grouping cannot change any element's operation
//     sequence.
//   * Division and square root are IEEE correctly rounded in both scalar
//     and vector forms (vdivps / vsqrtps), so the fused Adam update is
//     exact too.
// The int8 GEMM accumulates in exact int32 arithmetic and applies one
// float conversion + one multiply per output element, so it is bitwise
// identical across ISAs by construction.
//
// Per-ISA tuning constants ride in the table: wider vectors retire flops
// faster, so chunk/grain targets grow with the ISA to keep the pool
// dispatch overhead proportionally small. Tuning never affects bits.

namespace stgnn::tensor::kernels {

// MatMul tiling: the microkernel computes a kMmRowTile x kMmPanel output
// tile from kMmPanel-wide packed B panels. Fixed across ISAs — the packed
// layout is produced by the (shared) caller, and 64 floats is four AVX-512
// lanes / eight AVX2 lanes, so every variant tiles it evenly.
inline constexpr int kMmRowTile = 4;
inline constexpr int kMmPanel = 64;

// Read-only strided view of a MatMul operand: element (r, c) lives at
// data[r * rs + c * cs]. A row-major [R, C] matrix is {data, C, 1}; its
// transpose, read in place, is {data, 1, C}. Kernels take operands as views
// so a transposed operand is consumed where it is stored.
struct MatView {
  const float* data;
  int64_t rs;
  int64_t cs;

  float at(int64_t r, int64_t c) const { return data[r * rs + c * cs]; }
  // The view with (r0, c0) as its origin.
  MatView Offset(int64_t r0, int64_t c0) const {
    return {data + r0 * rs + c0 * cs, rs, cs};
  }
};

// int8 GEMM row tile: the vector variants block 4 output rows so every
// packed-B load is shared 4 ways. Callers must hand qgemm_rows chunks of
// at least this many rows or the blocking never engages (the kernel still
// produces identical bits either way — integer accumulation is exact).
inline constexpr int kQgemmRowTile = 4;

struct KernelTable {
  common::Isa isa;
  const char* name;

  // Unpacked product of one output block (the small, row-vector and
  // narrow MatMul paths): out[i * ldo + j] = sum_p a(i, p) * b(p, j) for
  // i < m, j < n. Overwrites out. The vector variants run across j when b
  // is contiguous along j (b.cs == 1); otherwise (a transposed B read in
  // place) each output is its own scalar chain.
  void (*matmul_direct)(MatView a, MatView b, float* out, int64_t ldo, int m,
                        int k, int n);

  // Rows [row_begin, row_end) of out against one packed panel of B (width
  // `width` columns starting at j0, kMmPanel stride, zero-padded). Stores
  // full-k accumulators, overwriting out exactly once. `a` may be a
  // transposed view; its elements are only ever broadcast.
  void (*matmul_panel_rows)(MatView a, const float* panel, float* out,
                            int64_t row_begin, int64_t row_end, int k, int n,
                            int j0, int width);

  // CSR rows [row_begin, row_end) of out = A·X, X dense [*, f]; out is
  // zeroed. Terms accumulate in ascending stored-entry order.
  void (*spmm_rows)(const int* row_ptr, const int* col_idx,
                    const float* values, const float* x, float* out,
                    int64_t row_begin, int64_t row_end, int f);

  // Fused Adam over elements [lo, hi). g may be null (exact zero
  // gradient). bias1/bias2 are the precomputed bias corrections.
  void (*adam_step)(const float* g, float* m, float* v, float* p, int64_t lo,
                    int64_t hi, float beta1, float beta2, float bias1,
                    float bias2, float lr, float eps);

  // int8 GEMM rows [row_begin, row_end): qa is the quantized activation
  // matrix (zero-point +64, k4*4 bytes per row, zero-padded), packed_b the
  // K/4-interleaved weight layout packed_b[(p4*n + j)*4 + q] =
  // qb[4*p4 + q][j], col_sums[j] = sum_p qb[p][j]. Emits
  // out[i][j] = float(acc_ij - 64*col_sums[j]) * row_scale[i].
  void (*qgemm_rows)(const uint8_t* qa, const float* row_scale,
                     const int8_t* packed_b, const int32_t* col_sums,
                     float* out, int64_t row_begin, int64_t row_end,
                     int64_t k4, int n);

  // Per-row activation quantisation for the int8 GEMM: rows [row_begin,
  // row_end) of a [m, k] into qa rows of k4*4 bytes (zero-point +64,
  // zero-padded tail) plus row_scale[i] = (amax_i/63) * b_scale. Bitwise
  // identical across ISAs: max is exact in any order, and vcvtps2dq rounds
  // to nearest-even exactly like the scalar reference's std::lrintf.
  void (*quantize_act_rows)(const float* a, uint8_t* qa, float* row_scale,
                            int64_t row_begin, int64_t row_end, int k,
                            int64_t k4, float b_scale);

  // Below this m*k*n, MatMul takes the small path (direct, one chunk).
  int64_t mm_small_flops;
  // ParallelFor chunk target (flops) for the MatMul row / column fan-out.
  int64_t mm_chunk_flops;
  // common::GrainFor target (ops per chunk) for row-parallel kernels.
  int64_t row_grain_ops;
};

// Scalar reference implementations (std::fmaf, -ffp-contract=off). Vector
// variants delegate partial tiles / tail columns to these, which keeps the
// parity argument trivial for every remainder case.
void ScalarMatMulDirect(MatView a, MatView b, float* out, int64_t ldo, int m,
                        int k, int n);
void ScalarMatMulPanelRows(MatView a, const float* panel, float* out,
                           int64_t row_begin, int64_t row_end, int k, int n,
                           int j0, int width);
void ScalarSpmmRows(const int* row_ptr, const int* col_idx,
                    const float* values, const float* x, float* out,
                    int64_t row_begin, int64_t row_end, int f);
void ScalarAdamStep(const float* g, float* m, float* v, float* p, int64_t lo,
                    int64_t hi, float beta1, float beta2, float bias1,
                    float bias2, float lr, float eps);
void ScalarQgemmRows(const uint8_t* qa, const float* row_scale,
                     const int8_t* packed_b, const int32_t* col_sums,
                     float* out, int64_t row_begin, int64_t row_end,
                     int64_t k4, int n);
void ScalarQuantizeActRows(const float* a, uint8_t* qa, float* row_scale,
                           int64_t row_begin, int64_t row_end, int k,
                           int64_t k4, float b_scale);

const KernelTable& ScalarKernels();
#if defined(__x86_64__) || defined(_M_X64)
const KernelTable& Avx2Kernels();
const KernelTable& Avx512Kernels();
// AVX-512 VNNI tier: identical fp32 kernels, but the int8 GEMM uses
// vpdpbusd (one instruction per 64 MACs vs. the 3-instruction maddubs
// sequence). Exact int32 accumulation either way, so bits never change.
// Falls back to the plain AVX-512 table when the compiler cannot target
// VNNI (the dispatcher never selects it on hosts that lack the feature).
const KernelTable& Avx512VnniKernels();
#endif

// Table for `isa`, clamped to what this build provides (non-x86 builds
// only carry the scalar table).
const KernelTable& TableFor(common::Isa isa);

// Table for common::ActiveIsa().
const KernelTable& Active();

}  // namespace stgnn::tensor::kernels

#endif  // STGNN_TENSOR_KERNELS_KERNELS_H_
