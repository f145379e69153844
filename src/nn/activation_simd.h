// Internal vector bodies of the gate activations (activations.h), shared
// by the per-ISA translation units. Include only from activations.cpp and
// the activation_kernels_*.cpp TUs.
//
// Each body is a lane-wise port of the libm code that std::exp(float) and
// std::tanh(float) run on x86-64 glibc, kept to the same operations in
// the same order so every lane rounds exactly as the scalar call does:
//
//  - expf: glibc 2.27+'s sysdeps/ieee754/flt-32/e_expf.c in the form its
//    x86-64 ifunc selects on FMA+AVX2 CPUs (`__expf_fma`). There the
//    compiler fused z = InvLn2N·x into both kd = z + SHIFT and r = z − kd,
//    and each of the three polynomial steps into one multiply-add; the
//    other formulation rounds differently (exp(−63.0994606f) is
//    0x1.f45326p-92 fused and 0x1.f45324p-92 not).
//  - tanhf/expm1f: fdlibm's float code (glibc's flt-32 s_tanhf.c and
//    s_expm1f.c), float arithmetic without fusion. Every branch is
//    computed in every lane and the branch fdlibm would take is blended
//    in, so the TUs must be compiled with -ffp-contract=off.
//
// The ISA traits class V supplies the vector types — F (float lanes of a
// tanh block) with I/U (int32/uint32 lanes of the same width), Fh (the
// float lanes of one double vector D, a sigmoid block) with DU (uint64
// lanes of D) — plus `fma` over D and `exp2_table`, the lookup of
// kExp2fTable by the low five bits of each lane.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace spectra::nn::act::detail {

using SpanFn = void (*)(const float* x, float* y, std::size_t n);

// One dispatch level's vector kernels.
struct Kernels {
  SpanFn sigmoid;
  SpanFn tanh;
};

// Per-ISA kernel sets; nullptr when the toolchain cannot target the ISA,
// in which case that level evaluates the scalar definitions.
const Kernels* kernels_avx2();
const Kernels* kernels_avx512();

// glibc's __exp2f_data (e_exp2f_data.c), N = 32: entry i is the bit
// pattern of 2^(i/N) minus i << 47, so that adding k << 47 for k ≡ i
// (mod N) builds 2^(k/N).
alignas(64) inline constexpr std::uint64_t kExp2fTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

template <class Vec, class T>
inline Vec splat(T value) {
  Vec v;
  for (std::size_t i = 0; i < sizeof(Vec) / sizeof(T); ++i) v[i] = value;
  return v;
}

// expf for x <= 0 and NaN, the arguments stable_sigmoid passes.
template <class V>
inline typename V::Fh expf_nonpositive(typename V::Fh x) {
  using D = typename V::D;
  using DU = typename V::DU;
  using Fh = typename V::Fh;
  const D inv_ln2_n = splat<D>(0x1.71547652b82fep+0 * 32);
  const D shift = splat<D>(0x1.8p+52);
  const D xd = __builtin_convertvector(x, D);
  // x·N/ln2 = k + r with integer k and |r| <= 1/2.
  const D kd_shifted = V::fma(inv_ln2_n, xd, shift);
  const DU ki = std::bit_cast<DU>(kd_shifted);
  const D kd = kd_shifted - shift;
  const D r = V::fma(inv_ln2_n, xd, -kd);
  // exp(x) = 2^(k/N) · 2^(r/N), the latter a cubic in r.
  const D s = std::bit_cast<D>(V::exp2_table(ki & 31) + (ki << 47));
  const D z = V::fma(splat<D>(0x1.c6af84b912394p-5 / 32 / 32 / 32), r,
                     splat<D>(0x1.ebfce50fac4f3p-3 / 32 / 32));
  const D r2 = r * r;
  D y = V::fma(splat<D>(0x1.62e42ff0c52d6p-1 / 32), r, splat<D>(1.0));
  y = V::fma(z, r2, y);
  y = y * s;
  Fh e = __builtin_convertvector(y, Fh);
  // The negative side of glibc's |x| >= 88 branch: below log(0x1p-149)
  // it returns 0x1.4p-75f squared (the least subnormal), below
  // log(0x1p-150), -inf included, 0x1p-95f squared (zero); NaN is x + x.
  e = x < -0x1.9d1d9ep6f ? splat<Fh>(0x1p-149f) : e;
  e = x < -0x1.9fe368p6f ? splat<Fh>(0.0f) : e;
  return x != x ? x + x : e;
}

template <class V>
inline typename V::Fh sigmoid_block(typename V::Fh x) {
  using Fh = typename V::Fh;
  const auto nonneg = x >= 0.0f;
  const Fh e = expf_nonpositive<V>(nonneg ? -x : x);
  return (nonneg ? splat<Fh>(1.0f) : e) / (1.0f + e);
}

// fdlibm expm1f for -27·ln2 < x < 88.7, where it takes no special branch
// (tanh_block calls it on (-2, 44)).
template <class V>
inline typename V::F expm1f_block(typename V::F x) {
  using F = typename V::F;
  using I = typename V::I;
  using U = typename V::U;
  const float ln2_hi = 0x1.62e300p-1f;
  const float ln2_lo = 0x1.2fefa2p-17f;
  const U bits = std::bit_cast<U>(x);
  const I hx = std::bit_cast<I>(bits & 0x7fffffffu);
  const I neg = std::bit_cast<I>(bits) < 0;

  // Argument reduction x = k·ln2 + (hi − lo), hi − lo = xr + c.
  // |x| >= 1.5·ln2: k rounds x/ln2 half away from zero.
  I k = __builtin_convertvector(
      0x1.715476p+0f * x + (neg ? splat<F>(-0.5f) : splat<F>(0.5f)), I);
  const F tk = __builtin_convertvector(k, F);
  F hi = x - tk * ln2_hi;
  F lo = tk * ln2_lo;
  // 0.5·ln2 < |x| < 1.5·ln2: k = ±1.
  const I one_ln2 = hx < 0x3f851592;
  hi = one_ln2 ? (neg ? x + ln2_hi : x - ln2_hi) : hi;
  lo = one_ln2 ? (neg ? splat<F>(-ln2_lo) : splat<F>(ln2_lo)) : lo;
  k = one_ln2 ? (neg ? splat<I>(-1) : splat<I>(1)) : k;
  // |x| <= 0.5·ln2: no reduction, k = 0 (c is then unused).
  const I reduced = hx > 0x3eb17218;
  const F xr = reduced ? hi - lo : x;
  const F c = (hi - xr) - lo;
  k = reduced ? k : splat<I>(0);

  const F hfx = 0.5f * xr;
  const F hxs = xr * hfx;
  const F r1 = 1.0f + hxs * (-0x1.111112p-5f +
                             hxs * (0x1.a01a02p-10f +
                                    hxs * (-0x1.4ce19ap-14f +
                                           hxs * (0x1.0cfca8p-18f + hxs * -0x1.afdb76p-23f))));
  const F t = 3.0f - r1 * hfx;
  const F e0 = hxs * ((r1 - t) / (6.0f - xr * t));
  const F y_k0 = xr - (xr * e0 - hxs);
  const F e = (xr * (e0 - c) - c) - hxs;
  const F y_km1 = 0.5f * (xr - e) - 0.5f;
  const F y_kp1 =
      xr < -0.25f ? -2.0f * (e - (xr + 0.5f)) : 1.0f + 2.0f * (xr - e);
  // The remaining branches scale by 2^k by adding k to an exponent field.
  const U ku = std::bit_cast<U>(k);
  const U k_exp = ku << 23;
  const F y_far = std::bit_cast<F>(std::bit_cast<U>(1.0f - (e - xr)) + k_exp) - 1.0f;
  const F t_near = std::bit_cast<F>(0x3f800000u - (splat<U>(0x1000000u) >> (ku & 31u)));
  const F y_near = std::bit_cast<F>(std::bit_cast<U>(t_near - (e - xr)) + k_exp);
  const F t_mid = std::bit_cast<F>((0x7fu - ku) << 23);
  const F y_mid = std::bit_cast<F>(std::bit_cast<U>((xr - (e + t_mid)) + 1.0f) + k_exp);

  F y = k < 23 ? y_near : y_mid;                  // 2 <= k <= 22, 23 <= k <= 56
  y = (k <= -2) | (k > 56) ? y_far : y;
  y = k == 1 ? y_kp1 : y;
  y = k == -1 ? y_km1 : y;
  y = k == 0 ? y_k0 : y;
  return hx < 0x33000000 ? x : y;                  // |x| < 2^-25: x itself
}

template <class V>
inline typename V::F tanh_block(typename V::F x) {
  using F = typename V::F;
  using I = typename V::I;
  using U = typename V::U;
  const U jx = std::bit_cast<U>(x);
  const I ix = std::bit_cast<I>(jx & 0x7fffffffu);
  const F ax = std::bit_cast<F>(ix);
  const I negative = std::bit_cast<I>(jx) < 0;
  const I at_least_one = ix >= 0x3f800000;
  const I below_22 = ix < 0x41b00000;
  // Lanes that make no expm1f call get argument 0, so no conversion
  // inside expm1f_block leaves the int32 range.
  const F arg = below_22 ? (at_least_one ? 2.0f * ax : -2.0f * ax) : splat<F>(0.0f);
  const F t = expm1f_block<V>(arg);
  // |x| >= 1: 1 − 2/(t + 2); below: −t/(t + 2).
  const F q = (at_least_one ? splat<F>(2.0f) : -t) / (t + 2.0f);
  F z = at_least_one ? 1.0f - q : q;
  z = below_22 ? z : splat<F>(1.0f);  // 1 - 1e-30f
  z = negative ? -z : z;
  // |x| < 2^-55: x·(1 + x), which is also fdlibm's x for ±0.
  z = ix < 0x24000000 ? x * (1.0f + x) : z;
  // ±inf and NaN: 1/x ± 1.
  const F inv = 1.0f / x;
  return ix >= 0x7f800000 ? (negative ? inv - 1.0f : inv + 1.0f) : z;
}

// Apply Block to x[0, n) into y, one vector of lanes at a time; the tail
// is padded with zeros into a full vector.
template <class Vec, Vec (*Block)(Vec)>
void apply_span(const float* x, float* y, std::size_t n) {
  constexpr std::size_t kLanes = sizeof(Vec) / sizeof(float);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Vec v;
    std::memcpy(&v, x + i, sizeof v);
    v = Block(v);
    std::memcpy(y + i, &v, sizeof v);
  }
  if (i < n) {
    float buf[kLanes] = {};
    std::memcpy(buf, x + i, (n - i) * sizeof(float));
    Vec v;
    std::memcpy(&v, buf, sizeof v);
    v = Block(v);
    std::memcpy(buf, &v, sizeof v);
    std::memcpy(y + i, buf, (n - i) * sizeof(float));
  }
}

}  // namespace spectra::nn::act::detail
