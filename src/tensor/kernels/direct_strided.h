#ifndef STGNN_TENSOR_KERNELS_DIRECT_STRIDED_H_
#define STGNN_TENSOR_KERNELS_DIRECT_STRIDED_H_

// The vector direct-MatMul kernels' path for a B read in place with a
// stride along j: a transposed operand on the row-vector path, e.g. the
// flow-convolution weight gradient [1, n*n]·[c, n*n]ᵀ. Each output is one
// scalar p-ascending fma chain from +0.0f; up to eight chains of a row run
// interleaved to cover the fma latency.
//
// Included by each vector kernel file and given internal linkage there, so
// every ISA gets its own copy compiled with that file's target flags —
// std::fmaf becomes the hardware fma even in builds without -march=native,
// and no copy compiled for a wider ISA can be picked by the linker for a
// narrower one.

#include <algorithm>
#include <cmath>

#include "tensor/kernels/kernels.h"

namespace stgnn::tensor::kernels {
namespace {

// Columns [j, j + C) of row i.
template <int C>
void StridedChains(MatView a, MatView b, float* orow, int64_t i, int j,
                   int k) {
  float acc[C] = {};
  for (int p = 0; p < k; ++p) {
    const float av = a.at(i, p);
#pragma GCC unroll 8
    for (int c = 0; c < C; ++c) {
      acc[c] = std::fmaf(av, b.at(p, j + c), acc[c]);
    }
  }
  std::copy(acc, acc + C, orow + j);
}

void DirectStrided(MatView a, MatView b, float* out, int64_t ldo, int m,
                   int k, int n) {
  using Chains = void (*)(MatView, MatView, float*, int64_t, int, int);
  static constexpr Chains kChains[] = {
      nullptr,           &StridedChains<1>, &StridedChains<2>,
      &StridedChains<3>, &StridedChains<4>, &StridedChains<5>,
      &StridedChains<6>, &StridedChains<7>, &StridedChains<8>};
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; j += 8) {
      kChains[std::min(8, n - j)](a, b, out + i * ldo, i, j, k);
    }
  }
}

}  // namespace
}  // namespace stgnn::tensor::kernels

#endif  // STGNN_TENSOR_KERNELS_DIRECT_STRIDED_H_
