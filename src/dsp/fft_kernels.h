// Internal pass templates of the lane-batched FFT engine (dsp/fft.cpp),
// shared by every SIMD dispatch level (DESIGN.md §6c). Not part of the
// public fft API — include only from fft.cpp and the per-ISA kernel
// translation units (fft_kernels_avx2.cpp, fft_kernels_avx512.cpp).
//
// A block is one SIMD vector of W lanes (W = 1, 2, 4 or 8 doubles) of a
// call's series, split into re/im arrays with element k of lane l at
// [k·W + l], so every row offset is a compile-time multiple of the
// vector. Each lane repeats the scalar std::complex arithmetic of
// tests/reference operation for operation; the schedule below only
// regroups independent butterflies, so a 504-point Bluestein transform
// sweeps its block 6 times instead of about 25:
//
//  - Loads write row k of the input straight into block row bitrev(k),
//    so no swap pass is run, and run stage 0 on the way: rows bitrev(k)
//    and bitrev(k) + 1 hold input rows k and k + rows/2.
//  - In Bluestein's load row k + m/2 is +0 padding (m/2 >= n), and its
//    product with w = (1, 0) is exactly (+0, +0). So the stage is
//    `a + 0.0` / `a - 0.0` with no product; the + 0.0 turns −0 into +0
//    as the butterfly does. The load goes on to run the next three
//    stages on the rows it has just written.
//  - Natural-layout passes run three radix-2 stages at a time on groups
//    of 8 rows held in registers (two on the generic level's blocks,
//    whose 8 rows of re and im would not fit its registers): radix-2³
//    passes of the same butterflies with the same twiddles.
//  - One middle pass runs the last three forward stages, the product with
//    the kernel spectrum and the first three inverse stages, all on the
//    same 8-row groups.
//  - The inverse transform runs on the natural-order product with
//    bit-reversed addressing: its stage s pairs rows p and
//    p + 2^(M−1−s), with twiddles stored bit-reversed per stage. Its
//    output row k therefore sits at bitrev(k), whose partner holds row
//    k + m/2 >= n: the last pass forms only a + v for the rows the
//    caller stores, fused with the final chirp, 1/m and the caller's
//    scale.
//
// Every template has internal linkage (`static`) and uses no inline
// library function, so no copy compiled for a wider ISA can be linked
// into code that runs at a narrower level. The TUs are compiled with
// -ffp-contract=off (SG_KERNEL_OPTS): AVX-512F implies FMA hardware, and
// a fused multiply-add would change the rounding.

#pragma once

#include <cstring>

namespace spectra::dsp::detail {

// One lane-batched transform: the tables of its plan for one direction
// and the caller's arrays. Plain pointers, so the kernel TUs instantiate
// no container code.
struct FftCall {
  long n;         // series length
  int log2_rows;  // block rows: n (complex radix-2), n/2 (real radix-2), m (Bluestein)
  const long* rev;  // bit reversal of [0, rows)
  // Stage twiddles of the (first) radix-2 transform; the stage with
  // half-width h reads entries [h − 1, 2h − 1).
  const double* tw_re;
  const double* tw_im;
  // Bluestein: the inverse transform's stage twiddles, in natural order
  // and bit-reversed within each stage.
  const double* inv_re;
  const double* inv_im;
  const double* brev_re;
  const double* brev_im;
  // Bluestein: chirp (n entries) and kernel spectrum (m entries).
  const double* chirp_re;
  const double* chirp_im;
  const double* kernel_re;
  const double* kernel_im;
  // Real radix-2: exp(−2πik/n), k = 0..n/2.
  const double* real_re;
  const double* real_im;
  // Output factor, applied when `scaled`: 1/n of an inverse transform
  // (1/(n/2) for the real radix-2 inverse, whose FFT has n/2 rows).
  double scale;
  bool scaled;
  const double* in_re;
  const double* in_im;
  double* out_re;
  double* out_im;
  long stride;  // lane stride of the caller's arrays
};

// Transforms lanes [lane0, lane0 + W) of `call` through the block
// buffer re/im (rows × W doubles each).
using BlockFn = void (*)(const FftCall& call, long lane0, double* re, double* im);

// One vector width's kernels: complex, real-input (rfft) and
// Hermitian-input (irfft) transforms, radix-2 and Bluestein.
struct FftKernels {
  long width;  // doubles per vector
  BlockFn complex_pow2;
  BlockFn complex_bluestein;
  BlockFn real_pow2;
  BlockFn real_bluestein;
  BlockFn hermitian_pow2;
  BlockFn hermitian_bluestein;
};

// Per-ISA kernels, widest first: AVX-512 at 8 and 4 doubles, AVX2 at 4.
// nullptr when the toolchain cannot target the ISA (the SIMD level is
// then unavailable, util/simd.h). The generic 2- and 1-double kernels
// live in fft.cpp.
const FftKernels* fft_kernels_avx2();
const FftKernels* fft_kernels_avx512();

// Vector of W doubles. A specialised trait, not an alias template: GCC
// drops a vector_size attribute that depends on an alias template's
// parameter, which would silently make every "vector" one double.
template <int W>
struct VecOf;
template <>
struct VecOf<1> {
  typedef double type;
};
#if defined(__GNUC__) || defined(__clang__)
template <>
struct VecOf<2> {
  typedef double type __attribute__((vector_size(16)));
};
template <>
struct VecOf<4> {
  typedef double type __attribute__((vector_size(32)));
};
template <>
struct VecOf<8> {
  typedef double type __attribute__((vector_size(64)));
};
#endif

enum : int { kComplexIo, kRealIo, kHermitianIo };

template <int W>
static inline typename VecOf<W>::type vload(const double* p) {
  typename VecOf<W>::type v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <int W>
static inline void vstore(double* p, typename VecOf<W>::type v) {
  std::memcpy(p, &v, sizeof(v));
}

// The reference's DIT butterfly: v = b·w, then (a, b) <- (a + v, a − v).
template <class V>
static inline void butterfly(V& ar, V& ai, V& br, V& bi, double wr, double wi) {
  const V vr = br * wr - bi * wi;
  const V vi = br * wi + bi * wr;
  br = ar - vr;
  bi = ai - vi;
  ar = ar + vr;
  ai = ai + vi;
}

// x <- x·w, as std::complex multiplies.
template <class V>
static inline void cmul(V& xr, V& xi, double wr, double wi) {
  const V r = xr * wr - xi * wi;
  xi = xr * wi + xi * wr;
  xr = r;
}

// Twiddles of up to three stages of one group: stage r of the group
// reads entry [r][u], u < 2^r.
struct GroupTwiddles {
  double re[3][4];
  double im[3][4];
};

// Stages [R0, R1) of a natural-layout group of 2^R rows j + t·2^s:
// stage r pairs t and t + 2^r with twiddle t mod 2^r.
template <int R, int R0, int R1, class V>
static inline void natural_stages(V* xr, V* xi, const GroupTwiddles& w) {
#pragma GCC unroll 4
  for (int r = R0; r < R1; ++r) {
    const int d = 1 << r;
#pragma GCC unroll 8
    for (int t = 0; t < (1 << R); ++t) {
      if ((t & d) != 0) continue;
      const int u = t & (d - 1);
      butterfly(xr[t], xi[t], xr[t + d], xi[t + d], w.re[r][u], w.im[r][u]);
    }
  }
}

// Stages [R0, R1) of a bit-reversed group of 2^R rows: stage r pairs
// t and t + 2^(R−1−r) with twiddle t >> (R − r).
template <int R, int R0, int R1, class V>
static inline void reversed_stages(V* xr, V* xi, const GroupTwiddles& w) {
#pragma GCC unroll 4
  for (int r = R0; r < R1; ++r) {
    const int d = 1 << (R - 1 - r);
#pragma GCC unroll 8
    for (int t = 0; t < (1 << R); ++t) {
      if ((t & d) != 0) continue;
      const int u = t >> (R - r);
      butterfly(xr[t], xi[t], xr[t + d], xi[t + d], w.re[r][u], w.im[r][u]);
    }
  }
}

// Rows t·step (t < G) of the block, `step` in doubles.
template <int W, int G>
static inline void load_group(const double* re, const double* im, long step,
                              typename VecOf<W>::type* xr, typename VecOf<W>::type* xi) {
#pragma GCC unroll 8
  for (int t = 0; t < G; ++t) {
    xr[t] = vload<W>(re + t * step);
    xi[t] = vload<W>(im + t * step);
  }
}

template <int W, int G>
static inline void store_group(double* re, double* im, long step,
                               const typename VecOf<W>::type* xr,
                               const typename VecOf<W>::type* xi) {
#pragma GCC unroll 8
  for (int t = 0; t < G; ++t) {
    vstore<W>(re + t * step, xr[t]);
    vstore<W>(im + t * step, xi[t]);
  }
}

// A bit-reversed load fused with stage 0 (twiddle w0 = tw[0]): input
// rows k and k + rows/2, (a, b), go through the stage's butterfly into
// block rows bitrev(k) and bitrev(k) + 1, which xre/xim address.
template <int W, class V>
static inline void store_stage0(double* xre, double* xim, double w0r, double w0i, V ar, V ai,
                                V br, V bi) {
  butterfly(ar, ai, br, bi, w0r, w0i);
  vstore<W>(xre, ar);
  vstore<W>(xim, ai);
  vstore<W>(xre + W, br);
  vstore<W>(xim + W, bi);
}

// Natural-layout stages [s, s + R) as one pass: each group of 2^R rows
// g + t·2^s (g ≡ j mod 2^s) keeps all R stages in registers. Stage s + r
// is the reference's butterfly loop at half-width 2^(s+r); row a uses
// twiddle a mod 2^(s+r), so the twiddles depend on j alone.
template <int W, int R>
static void natural_pass(double* re, double* im, int log2, int s, const double* tw_re,
                         const double* tw_im) {
  using V = typename VecOf<W>::type;
  const long rows = 1L << log2;
  const long h = 1L << s;
  for (long j = 0; j < h; ++j) {
    GroupTwiddles w;
    for (int r = 0; r < R; ++r) {
      for (int u = 0; u < (1 << r); ++u) {
        const long at = (h << r) - 1 + j + u * h;
        w.re[r][u] = tw_re[at];
        w.im[r][u] = tw_im[at];
      }
    }
    for (long g = j; g < rows; g += h << R) {
      V xr[1 << R], xi[1 << R];
      load_group<W, 1 << R>(re + g * W, im + g * W, h * W, xr, xi);
      natural_stages<R, 0, R>(xr, xi, w);
      store_group<W, 1 << R>(re + g * W, im + g * W, h * W, xr, xi);
    }
  }
}

// Inverse stages [s, s + R) of a 2^log2 transform in bit-reversed layout
// as one pass. Stage s pairs rows p and p + 2^(log2−1−s) and reads
// twiddle p >> (log2 − s) of its bit-reversed table.
template <int W, int R>
static void reversed_pass(double* re, double* im, int log2, int s, const double* brev_re,
                          const double* brev_im) {
  using V = typename VecOf<W>::type;
  const long rows = 1L << log2;
  const long d = 1L << (log2 - s - R);  // row stride of a group
  const long span = d << R;             // rows sharing the twiddles
  for (long b = 0; b < rows; b += span) {
    const long q = b / span;
    GroupTwiddles w;
    for (int r = 0; r < R; ++r) {
      for (int u = 0; u < (1 << r); ++u) {
        const long at = (1L << (s + r)) - 1 + (q << r) + u;
        w.re[r][u] = brev_re[at];
        w.im[r][u] = brev_im[at];
      }
    }
    for (long p = b; p < b + d; ++p) {
      V xr[1 << R], xi[1 << R];
      load_group<W, 1 << R>(re + p * W, im + p * W, d * W, xr, xi);
      reversed_stages<R, 0, R>(xr, xi, w);
      store_group<W, 1 << R>(re + p * W, im + p * W, d * W, xr, xi);
    }
  }
}

// Stages [s0, s1) of a 2^log2-row transform, natural-layout or
// bit-reversed, in passes of up to three stages. Blocks of one or two
// doubles take two at a time: their eight rows of re and im would spill
// the 16 registers of the generic build, and such a block fits L1.
template <int W, bool kReversed>
static void passes(double* re, double* im, int log2, int s0, int s1, const double* tw_re,
                   const double* tw_im) {
  for (int s = s0; s < s1;) {
    const int r = s1 - s >= 3 && W > 2 ? 3 : s1 - s >= 2 ? 2 : 1;
    if constexpr (kReversed) {
      if (r == 3) {
        reversed_pass<W, 3>(re, im, log2, s, tw_re, tw_im);
      } else if (r == 2) {
        reversed_pass<W, 2>(re, im, log2, s, tw_re, tw_im);
      } else {
        reversed_pass<W, 1>(re, im, log2, s, tw_re, tw_im);
      }
    } else {
      if (r == 3) {
        natural_pass<W, 3>(re, im, log2, s, tw_re, tw_im);
      } else if (r == 2) {
        natural_pass<W, 2>(re, im, log2, s, tw_re, tw_im);
      } else {
        natural_pass<W, 1>(re, im, log2, s, tw_re, tw_im);
      }
    }
    s += r;
  }
}

// ---------------------------------------------------------------------------
// Radix-2 transforms: a bit-reversed load fused with stage 0, natural-
// layout passes, and a store (complex) or the real-input unpack.

template <int W>
static void complex_pow2(const FftCall& c, long lane0, double* re, double* im) {
  using V = typename VecOf<W>::type;
  const long n = c.n;
  const long S = c.stride;
  const double* in_re = c.in_re + lane0;
  const double* in_im = c.in_im + lane0;
  for (long k = 0; k < n / 2; ++k) {
    const long p = c.rev[k] * W;
    const long a = k * S;
    const long b = (k + n / 2) * S;
    store_stage0<W>(re + p, im + p, c.tw_re[0], c.tw_im[0], vload<W>(in_re + a),
                    vload<W>(in_im + a), vload<W>(in_re + b), vload<W>(in_im + b));
  }
  passes<W, false>(re, im, c.log2_rows, 1, c.log2_rows, c.tw_re, c.tw_im);
  double* out_re = c.out_re + lane0;
  double* out_im = c.out_im + lane0;
  const double scale = c.scale;
  for (long k = 0; k < n; ++k) {
    V xr = vload<W>(re + k * W);
    V xi = vload<W>(im + k * W);
    if (c.scaled) {
      xr = xr * scale;
      xi = xi * scale;
    }
    vstore<W>(out_re + k * S, xr);
    vstore<W>(out_im + k * S, xi);
  }
}

// Real input: pack x into the half-length z[j] = x[2j] + i·x[2j+1], FFT
// it, then split even/odd spectra with the real twiddles w^k:
//   E[k] = (Z[k] + conj(Z[h−k]))/2,  O[k] = −i/2 · (Z[k] − conj(Z[h−k])),
//   X[k] = E[k] + w^k·O[k].
template <int W>
static void real_pow2(const FftCall& c, long lane0, double* zr, double* zi) {
  using V = typename VecOf<W>::type;
  const long h = c.n / 2;
  const long S = c.stride;
  const double* x = c.in_re + lane0;
  if (h == 1) {
    vstore<W>(zr, vload<W>(x));
    vstore<W>(zi, vload<W>(x + S));
  }
  for (long j = 0; j < h / 2; ++j) {
    const long p = c.rev[j] * W;
    const long a = 2 * j * S;
    const long b = 2 * (j + h / 2) * S;
    store_stage0<W>(zr + p, zi + p, c.tw_re[0], c.tw_im[0], vload<W>(x + a),
                    vload<W>(x + a + S), vload<W>(x + b), vload<W>(x + b + S));
  }
  passes<W, false>(zr, zi, c.log2_rows, 1, c.log2_rows, c.tw_re, c.tw_im);
  double* out_re = c.out_re + lane0;
  double* out_im = c.out_im + lane0;
  // Bins 0 and h come from Z[0] alone; their imaginary parts cancel
  // exactly, so they are pinned to the real axis.
  const V z0r = vload<W>(zr);
  const V z0i = vload<W>(zi);
  vstore<W>(out_re, z0r + z0i);
  vstore<W>(out_im, V{});
  vstore<W>(out_re + h * S, z0r - z0i);
  vstore<W>(out_im + h * S, V{});
  for (long k = 1; k < h; ++k) {
    const double wr = c.real_re[k];
    const double wi = c.real_im[k];
    const V zkr = vload<W>(zr + k * W);
    const V zki = vload<W>(zi + k * W);
    const V zcr = vload<W>(zr + (h - k) * W);
    const V zci = -vload<W>(zi + (h - k) * W);
    const V er = 0.5 * (zkr + zcr);
    const V ei = 0.5 * (zki + zci);
    const V dr = zkr - zcr;
    const V di = zki - zci;
    // O = (0 − 0.5i)·(Z[k] − conj(Z[h−k])), as the full complex product.
    const V odr = 0.0 * dr - (-0.5) * di;
    const V odi = 0.0 * di + (-0.5) * dr;
    vstore<W>(out_re + k * S, er + (wr * odr - wi * odi));
    vstore<W>(out_im + k * S, ei + (wr * odi + wi * odr));
  }
}

// Z[k] = E[k] + i·O[k] of the half spectrum, E and O recovered with
// conjugate twiddles; in_re/in_im address the block's first lane.
template <int W>
static inline void pack_hermitian(const FftCall& c, const double* in_re, const double* in_im,
                                  long k, typename VecOf<W>::type& zr,
                                  typename VecOf<W>::type& zi) {
  using V = typename VecOf<W>::type;
  const long h = c.n / 2;
  const long S = c.stride;
  const double wr = c.real_re[k];
  const double wi = c.real_im[k];
  // Only the Hermitian projection of the self-mirrored DC and Nyquist
  // bins reaches a real output, so both enter with their imaginary parts
  // dropped; the fourier_bridge gradient convention (zero grad for
  // DC/Nyquist imag) depends on it.
  const V ar = vload<W>(in_re + k * S);
  const V ai = k == 0 ? V{} : vload<W>(in_im + k * S);
  const V cr = vload<W>(in_re + (h - k) * S);
  const V ci = k == 0 ? V{} : -vload<W>(in_im + (h - k) * S);
  const V er = 0.5 * (ar + cr);
  const V ei = 0.5 * (ai + ci);
  const V dr = 0.5 * (ar - cr);
  const V di = 0.5 * (ai - ci);
  // conj(w^k)·D.
  const V odr = wr * dr - (-wi) * di;
  const V odi = wr * di + (-wi) * dr;
  // Z = E + (0 + 1i)·O, as the full complex product.
  zr = er + (0.0 * odr - 1.0 * odi);
  zi = ei + (0.0 * odi + 1.0 * odr);
}

// Inverse of real_pow2: rebuild Z from the half spectrum, one inverse
// FFT at half length, then de-interleave.
template <int W>
static void hermitian_pow2(const FftCall& c, long lane0, double* zr, double* zi) {
  using V = typename VecOf<W>::type;
  const long h = c.n / 2;
  const long S = c.stride;
  const double* in_re = c.in_re + lane0;
  const double* in_im = c.in_im + lane0;
  V ar{}, ai{}, br{}, bi{};
  if (h == 1) {
    pack_hermitian<W>(c, in_re, in_im, 0, ar, ai);
    vstore<W>(zr, ar);
    vstore<W>(zi, ai);
  }
  for (long k = 0; k < h / 2; ++k) {
    const long p = c.rev[k] * W;
    pack_hermitian<W>(c, in_re, in_im, k, ar, ai);
    pack_hermitian<W>(c, in_re, in_im, k + h / 2, br, bi);
    store_stage0<W>(zr + p, zi + p, c.tw_re[0], c.tw_im[0], ar, ai, br, bi);
  }
  passes<W, false>(zr, zi, c.log2_rows, 1, c.log2_rows, c.tw_re, c.tw_im);
  double* x = c.out_re + lane0;
  const double scale = c.scale;
  for (long j = 0; j < h; ++j) {
    vstore<W>(x + 2 * j * S, vload<W>(zr + j * W) * scale);
    vstore<W>(x + (2 * j + 1) * S, vload<W>(zi + j * W) * scale);
  }
}

// ---------------------------------------------------------------------------
// Bluestein: the DFT as a convolution with the chirp, evaluated with a
// zero-padded radix-2 FFT of m = 2^M >= 2n − 1 rows (M >= 3).

// The chirp products of the input, written in block order (so the writes
// stream) together with forward stages [0, 1 + R). Even block row p
// takes input row bitrev(p) < m/2 and odd row p + 1 input row
// bitrev(p) + m/2 >= n, which is +0 padding: stage 0 pairs them with
// w = (1, 0), whose product with the padding is exactly (+0, +0), so it
// is `a + 0.0` on the even row and `a − 0.0`, which is a, on the odd one;
// rows of the padding become +0. Stages [1, 1 + R) then run, as
// natural_pass would, on the groups g + j + 2t (t < 2^R) of each parity
// j, the odd group re-read from L1.
template <int W, int kIo, int R>
static void bluestein_load(const FftCall& c, long lane0, double* re, double* im) {
  using V = typename VecOf<W>::type;
  constexpr int G = 1 << R;
  const long n = c.n;
  const long S = c.stride;
  const long rows = 1L << c.log2_rows;
  const long* rev = c.rev;
  const double* in_re = c.in_re + lane0;
  const double* in_im = c.in_im + lane0;
  const double* chirp_re = c.chirp_re;
  const double* chirp_im = c.chirp_im;
  GroupTwiddles w[2];
  for (int j = 0; j < 2; ++j) {
    for (int r = 0; r < R; ++r) {
      for (int u = 0; u < (1 << r); ++u) {
        w[j].re[r][u] = c.tw_re[(2L << r) - 1 + j + 2 * u];
        w[j].im[r][u] = c.tw_im[(2L << r) - 1 + j + 2 * u];
      }
    }
  }
  for (long g = 0; g < rows; g += 2 * G) {
    V xr[1 << R], xi[1 << R];
    for (int t = 0; t < G; ++t) {
      const long k = rev[g + 2 * t];
      xr[t] = V{};
      xi[t] = V{};
      if (k >= n) continue;
      // Hermitian completion: rows above n/2 are conj(row n − k).
      const bool mirrored = kIo == kHermitianIo && k > n / 2;
      const long src = (mirrored ? n - k : k) * S;
      xr[t] = vload<W>(in_re + src);
      if (kIo != kRealIo) xi[t] = vload<W>(in_im + src);
      if (mirrored) xi[t] = -xi[t];
      cmul(xr[t], xi[t], chirp_re[k], chirp_im[k]);
    }
    store_group<W, G>(re + (g + 1) * W, im + (g + 1) * W, 2 * W, xr, xi);
#pragma GCC unroll 8
    for (int t = 0; t < G; ++t) {
      xr[t] = xr[t] + 0.0;
      xi[t] = xi[t] + 0.0;
    }
    natural_stages<R, 0, R>(xr, xi, w[0]);
    store_group<W, G>(re + g * W, im + g * W, 2 * W, xr, xi);
    if (R == 0) continue;
    load_group<W, G>(re + (g + 1) * W, im + (g + 1) * W, 2 * W, xr, xi);
    natural_stages<R, 0, R>(xr, xi, w[1]);
    store_group<W, G>(re + (g + 1) * W, im + (g + 1) * W, 2 * W, xr, xi);
  }
}

// Groups j + t·m/8: forward stages [M − 3 + R0, M), the kernel product,
// and inverse stages [0, R1). At m = 8 the load has run forward stage 0
// and the last pass runs inverse stage 2, so R0 = 1 and R1 = 2.
template <int W, int R0, int R1>
static void bluestein_middle(const FftCall& c, double* re, double* im) {
  using V = typename VecOf<W>::type;
  const long q = 1L << (c.log2_rows - 3);
  const double* tw_re = c.tw_re;
  const double* tw_im = c.tw_im;
  const double* kernel_re = c.kernel_re;
  const double* kernel_im = c.kernel_im;
  GroupTwiddles inv;
  for (int r = 0; r < 3; ++r) {
    for (int u = 0; u < (1 << r); ++u) {
      inv.re[r][u] = c.brev_re[(1 << r) - 1 + u];
      inv.im[r][u] = c.brev_im[(1 << r) - 1 + u];
    }
  }
  for (long j = 0; j < q; ++j) {
    GroupTwiddles fwd;
    for (int r = R0; r < 3; ++r) {
      for (int u = 0; u < (1 << r); ++u) {
        const long at = (q << r) - 1 + j + u * q;
        fwd.re[r][u] = tw_re[at];
        fwd.im[r][u] = tw_im[at];
      }
    }
    V xr[8], xi[8];
    load_group<W, 8>(re + j * W, im + j * W, q * W, xr, xi);
    natural_stages<3, R0, 3>(xr, xi, fwd);
#pragma GCC unroll 8
    for (int t = 0; t < 8; ++t) cmul(xr[t], xi[t], kernel_re[j + t * q], kernel_im[j + t * q]);
    reversed_stages<3, 0, R1>(xr, xi, inv);
    store_group<W, 8>(re + j * W, im + j * W, q * W, xr, xi);
  }
}

// The last inverse stage for the rows the caller stores (all n rows, or
// bins <= n/2 of a real input), fused with the final chirp, 1/m and the
// scale; a Hermitian input stores only the real part.
template <int W, int kIo>
static void bluestein_store(const FftCall& c, long lane0, const double* re, const double* im) {
  using V = typename VecOf<W>::type;
  const long half = 1L << (c.log2_rows - 1);
  const double inv_m = 1.0 / static_cast<double>(2 * half);
  const long rows = kIo == kRealIo ? c.n / 2 + 1 : c.n;
  const long S = c.stride;
  const long* rev = c.rev;
  const double* tw_re = c.inv_re + half - 1;
  const double* tw_im = c.inv_im + half - 1;
  const double* chirp_re = c.chirp_re;
  const double* chirp_im = c.chirp_im;
  const double scale = c.scale;
  double* out_re = c.out_re + lane0;
  double* out_im = c.out_im + lane0;
  for (long k = 0; k < rows; ++k) {
    const long p = rev[k] * W;
    const double wr = tw_re[k];
    const double wi = tw_im[k];
    const double cr = chirp_re[k];
    const double ci = chirp_im[k];
    const V br = vload<W>(re + p + W);
    const V bi = vload<W>(im + p + W);
    const V tr = (vload<W>(re + p) + (br * wr - bi * wi)) * inv_m;
    const V ti = (vload<W>(im + p) + (br * wi + bi * wr)) * inv_m;
    V yr = tr * cr - ti * ci;
    if (c.scaled) yr = yr * scale;
    vstore<W>(out_re + k * S, yr);
    if (kIo == kHermitianIo) continue;
    V yi = tr * ci + ti * cr;
    if (c.scaled) yi = yi * scale;
    vstore<W>(out_im + k * S, yi);
  }
}

template <int W, int kIo>
static void bluestein(const FftCall& c, long lane0, double* re, double* im) {
  const int log2 = c.log2_rows;
  if (log2 == 3) {
    bluestein_load<W, kIo, 0>(c, lane0, re, im);
    bluestein_middle<W, 1, 2>(c, re, im);
  } else {
    // Forward stages [1, log2 − 3) precede the middle pass; the load runs
    // as many of them as one pass holds.
    const int fused = log2 - 4 < 2 ? log2 - 4 : W > 2 && log2 - 4 >= 3 ? 3 : 2;
    if (fused == 0) {
      bluestein_load<W, kIo, 0>(c, lane0, re, im);
    } else if (fused == 1) {
      bluestein_load<W, kIo, 1>(c, lane0, re, im);
    } else if (fused == 2) {
      bluestein_load<W, kIo, 2>(c, lane0, re, im);
    } else if constexpr (W > 2) {
      bluestein_load<W, kIo, 3>(c, lane0, re, im);
    }
    passes<W, false>(re, im, log2, 1 + fused, log2 - 3, c.tw_re, c.tw_im);
    bluestein_middle<W, 0, 3>(c, re, im);
    passes<W, true>(re, im, log2, 3, log2 - 1, c.brev_re, c.brev_im);
  }
  bluestein_store<W, kIo>(c, lane0, re, im);
}

template <int W>
static constexpr FftKernels fft_kernels_at() {
  return {W,
          &complex_pow2<W>,
          &bluestein<W, kComplexIo>,
          &real_pow2<W>,
          &bluestein<W, kRealIo>,
          &hermitian_pow2<W>,
          &bluestein<W, kHermitianIo>};
}

}  // namespace spectra::dsp::detail
