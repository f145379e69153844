#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "dsp/fft.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "reference/fft_reference.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/simd.h"

namespace spectra::dsp {
namespace {

std::vector<Complex> naive_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * M_PI * static_cast<double>(k * t) / static_cast<double>(n);
      out[k] += x[t] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

std::vector<Complex> random_signal(std::size_t n, Rng& rng) {
  std::vector<Complex> x(n);
  for (auto& c : x) c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return x;
}

TEST(FftTest, PowerOfTwoDetection) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(168));
  EXPECT_FALSE(is_power_of_two(-4));
}

class FftLengthTest : public testing::TestWithParam<long> {};

TEST_P(FftLengthTest, MatchesNaiveDft) {
  const long n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n));
  const std::vector<Complex> x = random_signal(static_cast<std::size_t>(n), rng);
  const std::vector<Complex> fast = fft(x);
  const std::vector<Complex> slow = naive_dft(x);
  for (long k = 0; k < n; ++k) {
    EXPECT_NEAR(fast[static_cast<std::size_t>(k)].real(), slow[static_cast<std::size_t>(k)].real(),
                1e-8 * static_cast<double>(n));
    EXPECT_NEAR(fast[static_cast<std::size_t>(k)].imag(), slow[static_cast<std::size_t>(k)].imag(),
                1e-8 * static_cast<double>(n));
  }
}

TEST_P(FftLengthTest, InverseRoundTrip) {
  const long n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) + 99);
  const std::vector<Complex> x = random_signal(static_cast<std::size_t>(n), rng);
  const std::vector<Complex> back = ifft(fft(x));
  for (long k = 0; k < n; ++k) {
    EXPECT_NEAR(back[static_cast<std::size_t>(k)].real(), x[static_cast<std::size_t>(k)].real(),
                1e-9 * static_cast<double>(n));
    EXPECT_NEAR(back[static_cast<std::size_t>(k)].imag(), x[static_cast<std::size_t>(k)].imag(),
                1e-9 * static_cast<double>(n));
  }
}

TEST_P(FftLengthTest, ParsevalHolds) {
  const long n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) + 7);
  const std::vector<Complex> x = random_signal(static_cast<std::size_t>(n), rng);
  const std::vector<Complex> y = fft(x);
  double time_energy = 0.0, freq_energy = 0.0;
  for (const Complex& c : x) time_energy += std::norm(c);
  for (const Complex& c : y) freq_energy += std::norm(c);
  const double fn = static_cast<double>(n);
  EXPECT_NEAR(freq_energy, time_energy * fn, 1e-7 * fn * fn);
}

// 168 is the hourly-week length at the heart of SpectraGAN; 504 is the
// 3-week generation horizon; the rest cover radix-2, odd, prime and
// composite lengths.
INSTANTIATE_TEST_SUITE_P(Lengths, FftLengthTest,
                         testing::Values(1L, 2L, 8L, 13L, 21L, 64L, 100L, 168L, 251L, 504L));

TEST(RfftTest, SizeIsHalfPlusOne) {
  std::vector<double> x(168, 0.0);
  EXPECT_EQ(rfft(x).size(), 85u);
  std::vector<double> odd(9, 0.0);
  EXPECT_EQ(rfft(odd).size(), 5u);
}

TEST(RfftTest, DcBinIsSum) {
  std::vector<double> x = {1, 2, 3, 4};
  const std::vector<Complex> y = rfft(x);
  EXPECT_NEAR(y[0].real(), 10.0, 1e-12);
  EXPECT_NEAR(y[0].imag(), 0.0, 1e-12);
}

TEST(RfftTest, PureCosineConcentrates) {
  const long n = 48;
  std::vector<double> x(static_cast<std::size_t>(n));
  for (long t = 0; t < n; ++t) {
    x[static_cast<std::size_t>(t)] =
        std::cos(2.0 * M_PI * 3.0 * static_cast<double>(t) / static_cast<double>(n));
  }
  const std::vector<Complex> y = rfft(x);
  for (std::size_t k = 0; k < y.size(); ++k) {
    if (k == 3) {
      EXPECT_NEAR(std::abs(y[k]), n / 2.0, 1e-9);
    } else {
      EXPECT_NEAR(std::abs(y[k]), 0.0, 1e-9);
    }
  }
}

TEST(IrfftTest, RoundTripEvenAndOdd) {
  for (long n : {8L, 9L, 168L, 21L}) {
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<double> x(static_cast<std::size_t>(n));
    for (double& v : x) v = rng.uniform(-1, 1);
    const std::vector<double> back = irfft(rfft(x), n);
    for (long i = 0; i < n; ++i) {
      EXPECT_NEAR(back[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)], 1e-9);
    }
  }
}

TEST(IrfftTest, SizeValidation) {
  std::vector<Complex> spec(5, Complex(0, 0));
  EXPECT_NO_THROW(irfft(spec, 8));
  EXPECT_NO_THROW(irfft(spec, 9));
  EXPECT_THROW(irfft(spec, 12), spectra::Error);
  EXPECT_THROW(irfft(spec, 0), spectra::Error);
}

std::vector<double> random_real_signal(long n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.uniform(-1, 1);
  return x;
}

// The power-of-two half-spectrum fast path must agree with the scalar
// reference's Bluestein evaluation at every bin; non-pow2 lengths
// exercise the fallback against the same reference.
TEST(RfftFastPathTest, MatchesBluesteinReferenceAcrossLengths) {
  for (long n : {2L, 4L, 8L, 64L, 256L, 512L, 1024L,  // pow2 fast path
                 3L, 21L, 100L, 168L, 251L, 504L}) {  // fallback lengths
    const std::vector<double> x = random_real_signal(n, static_cast<std::uint64_t>(n) + 17);
    const std::vector<Complex> fast = rfft(x);
    const std::vector<Complex> ref = reference::rfft_bluestein(x);
    ASSERT_EQ(fast.size(), ref.size()) << "n=" << n;
    const double tol = 1e-9 * static_cast<double>(n);
    for (std::size_t k = 0; k < fast.size(); ++k) {
      EXPECT_NEAR(fast[k].real(), ref[k].real(), tol) << "n=" << n << " k=" << k;
      EXPECT_NEAR(fast[k].imag(), ref[k].imag(), tol) << "n=" << n << " k=" << k;
    }
  }
}

TEST(RfftFastPathTest, EdgeBinsAreExactlyReal) {
  for (long n : {4L, 256L}) {
    const std::vector<Complex> y = rfft(random_real_signal(n, 5));
    EXPECT_EQ(y.front().imag(), 0.0);
    EXPECT_EQ(y.back().imag(), 0.0);
  }
}

TEST(RfftFastPathTest, RoundTripAtPowerOfTwoLengths) {
  for (long n : {2L, 4L, 16L, 512L, 1024L}) {
    const std::vector<double> x = random_real_signal(n, static_cast<std::uint64_t>(n) + 3);
    const std::vector<double> back = irfft(rfft(x), n);
    for (long i = 0; i < n; ++i) {
      EXPECT_NEAR(back[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)],
                  1e-9 * static_cast<double>(n))
          << "n=" << n;
    }
  }
}

TEST(RfftFastPathTest, CounterCountsFastCallsOnly) {
  obs::Counter& calls = obs::Registry::instance().counter("fft.rfft_fast_calls");
  const std::uint64_t before = calls.value();
  const std::vector<double> pow2 = random_real_signal(64, 1);
  (void)irfft(rfft(pow2), 64);  // both directions take the fast path
  EXPECT_EQ(calls.value(), before + 2);
  const std::vector<double> awkward = random_real_signal(168, 2);
  (void)irfft(rfft(awkward), 168);  // fallback: counter untouched
  EXPECT_EQ(calls.value(), before + 2);
}

// ---------------------------------------------------------------------------
// Bitwise contract: every entry point of the lane-batched engine equals the
// scalar reference (tests/reference) bit for bit, at every lane count.

// Lengths: radix-2 (2..1024), Bluestein at odd, prime and composite
// lengths, and the paper's T = 24, 168 and 504 (k = 3). The Bluestein
// lengths reach every padded length m from 8 (n = 3) to 2048 (n = 1000),
// so every pass schedule of the engine runs.
const long kBitwiseLengths[] = {1,  2,   3,   5,   8,   12,  16,  21,  24,
                                48, 72,  100, 168, 251, 504, 512, 1000, 1024};

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Test signals with exact +0.0 and -0.0, chosen by seed % 3: uniform
// values with zeros planted at fixed strides; nothing but signed zeros;
// or one impulse among signed zeros. The last two make transforms whose
// outputs are exact zeros, so any reordered sign-of-zero arithmetic shows
// up in the bits.
std::vector<double> signed_zero_signal(long n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double sign = rng.uniform(-1, 1) < 0 ? -1.0 : 1.0;
    switch (seed % 3) {
      case 0:
        x[i] = i % 5 == 1 ? 0.0 : i % 7 == 2 ? -0.0 : rng.uniform(-1, 1);
        break;
      case 1:
        x[i] = sign * 0.0;
        break;
      default:
        x[i] = i == (seed / 3) % x.size() ? sign : sign * 0.0;
        break;
    }
  }
  return x;
}

std::vector<Complex> signed_zero_complex(long n, std::uint64_t seed) {
  const std::vector<double> re = signed_zero_signal(n, seed);
  const std::vector<double> im = signed_zero_signal(n, seed + 1000);
  std::vector<Complex> out(re.size());
  for (std::size_t i = 0; i < re.size(); ++i) {
    out[i] = Complex(i % 3 == 0 ? -0.0 : re[i], im[i]);
  }
  return out;
}

void expect_bitwise(const std::vector<Complex>& got, const std::vector<Complex>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(bits(got[k].real()), bits(want[k].real())) << what << " re[" << k << "]";
    ASSERT_EQ(bits(got[k].imag()), bits(want[k].imag())) << what << " im[" << k << "]";
  }
}

void expect_bitwise(const std::vector<double>& got, const std::vector<double>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(bits(got[k]), bits(want[k])) << what << " [" << k << "]";
  }
}

std::string where(const char* fn, long n, long lanes = 1, long lane = 0) {
  return std::string(fn) + " n=" + std::to_string(n) + " lanes=" + std::to_string(lanes) +
         " lane=" + std::to_string(lane);
}

// Every length with each of the three signal patterns (seed % 3).
std::vector<std::uint64_t> pattern_seeds(long n) {
  const auto base = 3 * static_cast<std::uint64_t>(n);
  return {base, base + 1, base + 2};
}

// Every per-series entry point at length n, over the three patterns.
void check_per_series(long n) {
  for (std::uint64_t seed : pattern_seeds(n)) {
    for (bool inverse : {false, true}) {
      std::vector<Complex> got = signed_zero_complex(n, seed);
      std::vector<Complex> want = got;
      fft_inplace(got, inverse);
      reference::fft_inplace(want, inverse);
      expect_bitwise(got, want, where(inverse ? "ifft" : "fft", n));
    }
    const std::vector<double> x = signed_zero_signal(n, seed);
    expect_bitwise(rfft(x), reference::rfft(x), where("rfft", n));
    const std::vector<Complex> spec = signed_zero_complex(n / 2 + 1, seed);
    expect_bitwise(irfft(spec, n), reference::irfft(spec, n), where("irfft", n));
  }
}

TEST(FftBitwiseTest, PerSeriesEntryPointsMatchScalarReference) {
  for (long n : kBitwiseLengths) check_per_series(n);
}

// Exhaustive sign-of-zero check at short lengths: every assignment of
// +0.0/-0.0 to the inputs, so each zero-sign rule of the scalar
// arithmetic is exercised somewhere.
TEST(FftBitwiseTest, EverySignedZeroInputMatchesScalarReference) {
  const auto zero = [](unsigned mask, long i) { return (mask >> i) & 1U ? -0.0 : 0.0; };
  for (long n : {2L, 3L, 4L, 8L}) {
    for (unsigned mask = 0; mask < (1U << n); ++mask) {
      std::vector<double> x(static_cast<std::size_t>(n));
      for (long i = 0; i < n; ++i) x[static_cast<std::size_t>(i)] = zero(mask, i);
      expect_bitwise(rfft(x), reference::rfft(x), where("rfft", n));
    }
    const long bins = n / 2 + 1;
    for (unsigned mask = 0; mask < (1U << (2 * bins)); ++mask) {
      std::vector<Complex> spec(static_cast<std::size_t>(bins));
      for (long k = 0; k < bins; ++k) {
        spec[static_cast<std::size_t>(k)] = Complex(zero(mask, 2 * k), zero(mask, 2 * k + 1));
      }
      expect_bitwise(irfft(spec, n), reference::irfft(spec, n), where("irfft", n));
    }
    if (n > 4) continue;
    for (unsigned mask = 0; mask < (1U << (2 * n)); ++mask) {
      std::vector<Complex> a(static_cast<std::size_t>(n));
      for (long k = 0; k < n; ++k) {
        a[static_cast<std::size_t>(k)] = Complex(zero(mask, 2 * k), zero(mask, 2 * k + 1));
      }
      for (bool inverse : {false, true}) {
        std::vector<Complex> got = a;
        std::vector<Complex> want = a;
        fft_inplace(got, inverse);
        reference::fft_inplace(want, inverse);
        expect_bitwise(got, want, where(inverse ? "ifft" : "fft", n));
      }
    }
  }
}

// Lane l of a lane-minor array: element k at [k * lanes + l].
std::vector<double> lane_of(const std::vector<double>& a, long rows, long lanes, long l) {
  std::vector<double> out(static_cast<std::size_t>(rows));
  for (long k = 0; k < rows; ++k) {
    out[static_cast<std::size_t>(k)] = a[static_cast<std::size_t>(k * lanes + l)];
  }
  return out;
}

// Every lane entry point at length n over `lanes` series, each lane
// against the scalar reference.
void check_lanes(long n, long lanes) {
  const long bins = n / 2 + 1;
  const auto rows = static_cast<std::size_t>(n * lanes);
  std::vector<std::vector<Complex>> series;
  std::vector<std::vector<double>> reals;
  std::vector<std::vector<Complex>> spectra;
  std::vector<double> re(rows), im(rows), x(rows);
  std::vector<double> spec_re(static_cast<std::size_t>(bins * lanes));
  std::vector<double> spec_im(spec_re.size());
  for (long l = 0; l < lanes; ++l) {
    // Consecutive lanes cycle through the three signal patterns.
    const auto seed = static_cast<std::uint64_t>(n * 100 + l);
    series.push_back(signed_zero_complex(n, seed));
    reals.push_back(signed_zero_signal(n, seed + 1));
    spectra.push_back(signed_zero_complex(bins, seed + 2));
    for (long k = 0; k < n; ++k) {
      const auto at = static_cast<std::size_t>(k * lanes + l);
      re[at] = series.back()[static_cast<std::size_t>(k)].real();
      im[at] = series.back()[static_cast<std::size_t>(k)].imag();
      x[at] = reals.back()[static_cast<std::size_t>(k)];
    }
    for (long k = 0; k < bins; ++k) {
      const auto at = static_cast<std::size_t>(k * lanes + l);
      spec_re[at] = spectra.back()[static_cast<std::size_t>(k)].real();
      spec_im[at] = spectra.back()[static_cast<std::size_t>(k)].imag();
    }
  }
  for (bool inverse : {false, true}) {
    std::vector<double> got_re = re, got_im = im;
    fft_lanes(got_re.data(), got_im.data(), n, lanes, inverse);
    for (long l = 0; l < lanes; ++l) {
      std::vector<Complex> want = series[static_cast<std::size_t>(l)];
      reference::fft_inplace(want, inverse);
      std::vector<double> want_re, want_im;
      for (const Complex& c : want) {
        want_re.push_back(c.real());
        want_im.push_back(c.imag());
      }
      const std::string what = where(inverse ? "ifft_lanes" : "fft_lanes", n, lanes, l);
      expect_bitwise(lane_of(got_re, n, lanes, l), want_re, what + " re");
      expect_bitwise(lane_of(got_im, n, lanes, l), want_im, what + " im");
    }
  }
  std::vector<double> out_re(spec_re.size()), out_im(spec_re.size()), out_x(rows);
  rfft_lanes(x.data(), n, lanes, out_re.data(), out_im.data());
  irfft_lanes(spec_re.data(), spec_im.data(), n, lanes, out_x.data());
  for (long l = 0; l < lanes; ++l) {
    std::vector<Complex> got(static_cast<std::size_t>(bins));
    for (long k = 0; k < bins; ++k) {
      got[static_cast<std::size_t>(k)] =
          Complex(out_re[static_cast<std::size_t>(k * lanes + l)],
                  out_im[static_cast<std::size_t>(k * lanes + l)]);
    }
    expect_bitwise(got, reference::rfft(reals[static_cast<std::size_t>(l)]),
                   where("rfft_lanes", n, lanes, l));
    expect_bitwise(lane_of(out_x, n, lanes, l),
                   reference::irfft(spectra[static_cast<std::size_t>(l)], n),
                   where("irfft_lanes", n, lanes, l));
  }
}

// Lane counts that leave a partial block at every vector width (8, 4, 2
// and 1 doubles) and fill whole blocks of each.
const long kLaneCounts[] = {1, 3, 5, 9, 16, 17, 64};

TEST(FftBitwiseTest, LaneEntryPointsMatchScalarReferencePerLane) {
  for (long lanes : kLaneCounts) {
    for (long n : kBitwiseLengths) check_lanes(n, lanes);
  }
}

// The irfft bridge's spectra at T = 504, k = 3: 28 nonzero bins at
// stride 3 among 253, the rest +0.0 or -0.0, over one 16-pixel row.
void check_bridge_shape() {
  const long n = 504;
  const long bins = n / 2 + 1;
  const long lanes = 16;
  Rng rng(504);
  std::vector<std::vector<Complex>> spectra;
  std::vector<double> re(static_cast<std::size_t>(bins * lanes));
  std::vector<double> im(re.size());
  for (long l = 0; l < lanes; ++l) {
    std::vector<Complex> spec(static_cast<std::size_t>(bins));
    for (long k = 0; k < bins; ++k) {
      const double zr = rng.uniform(-1, 1) < 0 ? -0.0 : 0.0;
      const double zi = rng.uniform(-1, 1) < 0 ? -0.0 : 0.0;
      const bool live = k % 3 == 0 && k / 3 < 28;
      spec[static_cast<std::size_t>(k)] =
          live ? Complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) : Complex(zr, zi);
      re[static_cast<std::size_t>(k * lanes + l)] = spec[static_cast<std::size_t>(k)].real();
      im[static_cast<std::size_t>(k * lanes + l)] = spec[static_cast<std::size_t>(k)].imag();
    }
    spectra.push_back(spec);
  }
  std::vector<double> x(static_cast<std::size_t>(n * lanes));
  irfft_lanes(re.data(), im.data(), n, lanes, x.data());
  for (long l = 0; l < lanes; ++l) {
    expect_bitwise(lane_of(x, n, lanes, l),
                   reference::irfft(spectra[static_cast<std::size_t>(l)], n),
                   where("bridge irfft_lanes", n, lanes, l));
  }
}

TEST(FftBitwiseTest, BridgeShapedIrfftMatchesScalarReference) { check_bridge_shape(); }

// Scoped override of the SIMD dispatch level.
struct SimdOverride {
  explicit SimdOverride(SimdLevel level) : prev(active_simd_level()) { set_simd_level(level); }
  ~SimdOverride() { set_simd_level(prev); }
  SimdLevel prev;
};

// Every level this build and CPU support runs its own pass widths (and
// the narrower ones for lane tails); each must equal the scalar
// reference bit for bit, not just the default level.
TEST(FftBitwiseTest, EverySimdLevelMatchesScalarReference) {
  for (const SimdLevel level :
       {SimdLevel::kGeneric, SimdLevel::kAvx2, SimdLevel::kAvx512, SimdLevel::kNeon}) {
    if (!simd_level_available(level)) continue;
    SimdOverride guard(level);
    SCOPED_TRACE(simd_level_name(level));
    for (long n : kBitwiseLengths) {
      check_per_series(n);
      for (long lanes : kLaneCounts) check_lanes(n, lanes);
    }
    check_bridge_shape();
  }
}

// Counters count transforms, one per lane; the dsp/fft profile node
// counts one call per batched call.
TEST(FftLanesTest, CountersCountTransformsTimerCountsCalls) {
  obs::Registry& registry = obs::Registry::instance();
  obs::Counter& calls = registry.counter("fft.calls");
  obs::Counter& bluestein_calls = registry.counter("fft.bluestein_calls");
  obs::Counter& fast_calls = registry.counter("fft.rfft_fast_calls");
  const std::uint64_t calls0 = calls.value();
  const std::uint64_t bluestein0 = bluestein_calls.value();
  const std::uint64_t fast0 = fast_calls.value();
  const bool was_profiling = obs::profile_enabled();
  obs::profile_reset();
  obs::profile_set_enabled(true);
  const long lanes = 20;
  std::vector<double> x(static_cast<std::size_t>(168 * lanes), 1.0);
  std::vector<double> re(static_cast<std::size_t>(85 * lanes)), im(re.size());
  rfft_lanes(x.data(), 168, lanes, re.data(), im.data());
  obs::profile_set_enabled(was_profiling);
  EXPECT_EQ(calls.value(), calls0 + 20);
  EXPECT_EQ(bluestein_calls.value(), bluestein0 + 20);
  EXPECT_NE(obs::profile_report_json().find("{\"name\":\"dsp/fft\",\"calls\":1,"),
            std::string::npos);
  std::vector<double> y(static_cast<std::size_t>(64 * lanes), 1.0);
  rfft_lanes(y.data(), 64, lanes, re.data(), im.data());
  EXPECT_EQ(fast_calls.value(), fast0 + 20);
  EXPECT_EQ(calls.value(), calls0 + 20);
}

}  // namespace
}  // namespace spectra::dsp
