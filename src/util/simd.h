// The process-wide SIMD level of the numeric kernels (DESIGN.md §6c).
//
// The GEMM micro-kernel, the gate activations and the FFT passes are
// each compiled at several register widths; every family dispatches on
// the one level chosen here. At first use the process picks the widest
// level the CPU *and* the build support, overridable with the
// `SPECTRA_SIMD` knob (values: generic | avx2 | avx512 | neon). Every
// level preserves the per-element operation order of the generic
// kernels, so the choice affects throughput only — results are bitwise
// identical across levels and thread counts.

#pragma once

#include <string>

namespace spectra {

enum class SimdLevel { kGeneric = 0, kAvx2 = 1, kAvx512 = 2, kNeon = 3 };

// Lower-case knob spelling ("generic", "avx2", "avx512", "neon").
const char* simd_level_name(SimdLevel level);

// Inverse of simd_level_name; SG_CHECK-fails on an unknown spelling so a
// typo'd SPECTRA_SIMD dies loudly instead of silently running generic.
SimdLevel parse_simd_level(const std::string& name);

// True when the CPU supports the level and this build compiled its
// kernels (a toolchain without -mavx512f reports false even on AVX-512
// hardware).
bool simd_level_available(SimdLevel level);

// The level every kernel family dispatches to. Selected once on first
// call: honours SPECTRA_SIMD when set (SG_CHECK-fails if unavailable),
// otherwise the widest available level.
SimdLevel active_simd_level();

// Test override: force a specific level for the rest of the process (or
// until the next call). SG_CHECK-fails when unavailable. Used by the
// cross-level equality suites; production code never calls this.
void set_simd_level(SimdLevel level);

}  // namespace spectra
