// Internal micro-kernel template shared by every SIMD dispatch level
// (DESIGN.md §6c). Not part of the public gemm API — include only from
// gemm.cpp and the per-ISA kernel translation units.
//
// One template body serves 4-lane generic SSE/NEON, 8-lane AVX2 and
// 16-lane AVX-512 instantiations. The accumulation for a given C element
// is identical at every level: each element lives in exactly one
// accumulator lane and receives its k contributions strictly p-ascending
// as a separate multiply and add. Lane width only changes *which* C
// columns share a vector register, never the per-element reduction
// order, so every dispatch level is bitwise identical to the generic
// kernel — provided the TU is compiled with -ffp-contract=off so the
// mul+add is never fused into an FMA (AVX-512 implies FMA hardware; the
// build applies the flag to all kernel TUs).

#pragma once

#include <cstddef>

namespace spectra::nn::gemm::detail {

// Widest register tile any level uses (AVX-512 runs an 8-row tile).
inline constexpr long kMaxMR = 8;

// micro_kernel<MR_, VL, NV>: acc[MR_][VL*NV] += op(A) rows × packed-B
// panel over kc, then store or add `mr`×`nr` of it into C. `a` is read
// in place through (a_row_stride, a_col_stride); `bp` is a packed panel
// of width VL*NV.
using MicroFn = void (*)(long kc, const float* a, long a_row_stride, long a_col_stride,
                         const float* bp, float* c, long ldc, long nr, bool add_to_c);

// One dispatch level's register tile: fns[i] computes i+1 rows of an
// mr×nr tile. sgemm reads mr/nr at runtime; all levels keep the serial-k
// disjoint-M determinism contract (gemm.h).
struct MicroKernelSet {
  long mr;
  long nr;
  MicroFn fns[static_cast<std::size_t>(kMaxMR)];
};

// Per-level kernel sets. kernels_generic() is always non-null; the
// others return nullptr when the compiler/target cannot build them (the
// dispatch layer treats null as "level unavailable").
const MicroKernelSet* kernels_generic();
const MicroKernelSet* kernels_avx2();
const MicroKernelSet* kernels_avx512();
const MicroKernelSet* kernels_neon();

#if defined(__GNUC__) || defined(__clang__)

// The j dimension is spelled as VL-lane vector values so the accumulator
// provably lives in SIMD registers; left as a plain 2-D float loop, GCC
// 12 vectorizes the *p* loop instead, transposing A fragments through a
// wall of shufps with acc spilled to the stack (~1.3× naive instead of
// >2×). aligned(4) keeps loads legal at any float address.
template <int VL>
struct VecOf;
template <>
struct VecOf<4> {
  typedef float type __attribute__((vector_size(16), aligned(4), may_alias));
};
template <>
struct VecOf<8> {
  typedef float type __attribute__((vector_size(32), aligned(4), may_alias));
};
template <>
struct VecOf<16> {
  typedef float type __attribute__((vector_size(64), aligned(4), may_alias));
};

template <int MR_, int VL, int NV>
void micro_kernel(long kc, const float* __restrict a, long a_row_stride, long a_col_stride,
                  const float* __restrict bp, float* c, long ldc, long nr, bool add_to_c) {
  using Vf = typename VecOf<VL>::type;
  constexpr long kNRv = static_cast<long>(VL) * NV;
  Vf acc[static_cast<std::size_t>(MR_)][static_cast<std::size_t>(NV)] = {};
  for (long p = 0; p < kc; ++p) {
    const Vf* brow = reinterpret_cast<const Vf*>(bp + p * kNRv);
    Vf bv[static_cast<std::size_t>(NV)];
    for (int v = 0; v < NV; ++v) bv[v] = brow[v];
    for (int i = 0; i < MR_; ++i) {
      const float av = a[i * a_row_stride + p * a_col_stride];
      for (int v = 0; v < NV; ++v) acc[i][v] += av * bv[v];
    }
  }
  for (int i = 0; i < MR_; ++i) {
    float* crow = c + i * ldc;
    if (nr == kNRv) {
      Vf* cv = reinterpret_cast<Vf*>(crow);
      for (int v = 0; v < NV; ++v) cv[v] = add_to_c ? cv[v] + acc[i][v] : acc[i][v];
    } else {
      for (long j = 0; j < nr; ++j) {
        const float val = acc[i][j / VL][j % VL];
        crow[j] = add_to_c ? crow[j] + val : val;
      }
    }
  }
}

#else  // portable scalar fallback: same shapes, same reduction order

template <int MR_, int VL, int NV>
void micro_kernel(long kc, const float* a, long a_row_stride, long a_col_stride, const float* bp,
                  float* c, long ldc, long nr, bool add_to_c) {
  constexpr long kNRv = static_cast<long>(VL) * NV;
  float acc[static_cast<std::size_t>(MR_)][static_cast<std::size_t>(kNRv)] = {};
  for (long p = 0; p < kc; ++p) {
    const float* brow = bp + p * kNRv;
    for (int i = 0; i < MR_; ++i) {
      const float av = a[i * a_row_stride + p * a_col_stride];
      for (long j = 0; j < kNRv; ++j) acc[i][j] += av * brow[j];
    }
  }
  for (int i = 0; i < MR_; ++i) {
    float* crow = c + i * ldc;
    if (add_to_c) {
      for (long j = 0; j < nr; ++j) crow[j] += acc[i][j];
    } else {
      for (long j = 0; j < nr; ++j) crow[j] = acc[i][j];
    }
  }
}

#endif

}  // namespace spectra::nn::gemm::detail
