// Scalar reference transforms: plain std::complex radix-2, Bluestein and
// power-of-two real-input code, one series at a time, which the
// lane-batched engine in src/dsp/fft.cpp must match bit for bit.
// Test-only: no plan cache, no instrumentation, every call builds what it
// needs.

#pragma once

#include <vector>

#include "dsp/fft.h"

namespace spectra::reference {

using dsp::Complex;

// Radix-2 for power-of-two lengths, Bluestein otherwise; `inverse`
// applies the conjugate transform and the 1/N scale.
void fft_inplace(std::vector<Complex>& a, bool inverse);

// N/2+1 bins; power-of-two N >= 2 takes the half-spectrum path.
std::vector<Complex> rfft(const std::vector<double>& x);

// Inverse of rfft for output length n (spectrum size n/2+1).
std::vector<double> irfft(const std::vector<Complex>& spectrum, long n);

// rfft through the full-length Bluestein transform.
std::vector<Complex> rfft_bluestein(const std::vector<double>& x);

}  // namespace spectra::reference
