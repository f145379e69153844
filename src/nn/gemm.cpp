#include "nn/gemm.h"

#include <algorithm>
#include <vector>

#include "nn/gemm_micro.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/error.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace spectra::nn::gemm {

namespace {

obs::Counter& grows_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("gemm.workspace_grows");
  return c;
}

obs::Gauge& bytes_gauge() {
  static obs::Gauge& g = obs::Registry::instance().gauge("gemm.workspace_bytes");
  return g;
}

obs::Gauge& simd_gauge() {
  static obs::Gauge& g = obs::Registry::instance().gauge("gemm.simd_level");
  return g;
}

// The active workspace of this thread: null means the implicit
// thread-local default below. WorkspaceScope swaps request-owned
// workspaces in and out (serve daemon); kernels never see the
// difference. Deliberately thread_local rather than a guarded shared
// structure — per-thread ownership is what keeps the GEMM hot path off
// the capability layer entirely (DESIGN §6d: nn holds no locks).
thread_local Workspace* tls_workspace = nullptr;

Workspace& thread_default_workspace() {
  thread_local Workspace tls_default_workspace;
  return tls_default_workspace;
}

// Pack the (kc × nc) block of op(B) starting at (pc, jc) into nr-wide
// column panels: dst[panel jp][p][j] at offset (jp*kc + p)*nr + j.
// Columns beyond nc are zero-padded; the padded lanes feed accumulator
// columns that are never written back. `nr` is the active dispatch
// level's panel width.
void pack_b(Trans tb, const float* b, long ldb, long pc, long jc, long kc, long nc, long nr,
            float* dst) {
  const long panels = (nc + nr - 1) / nr;
  for (long jp = 0; jp < panels; ++jp) {
    const long j0 = jp * nr;
    const long jw = std::min(nr, nc - j0);
    float* panel = dst + jp * kc * nr;
    if (tb == Trans::kNo) {
      // op(B)[p][j] = b[(pc+p)*ldb + jc+j]: copy row fragments.
      for (long p = 0; p < kc; ++p) {
        const float* src = b + (pc + p) * ldb + jc + j0;
        float* out = panel + p * nr;
        for (long j = 0; j < jw; ++j) out[j] = src[j];
        for (long j = jw; j < nr; ++j) out[j] = 0.0f;
      }
    } else {
      // op(B)[p][j] = b[(jc+j)*ldb + pc+p]: gather nr source rows.
      for (long p = 0; p < kc; ++p) {
        float* out = panel + p * nr;
        for (long j = 0; j < nr; ++j) {
          out[j] = j < jw ? b[(jc + j0 + j) * ldb + pc + p] : 0.0f;
        }
      }
    }
  }
}

// The micro-kernel template itself lives in gemm_micro.h so the per-ISA
// TUs (gemm_kernels_avx2.cpp, gemm_kernels_avx512.cpp) instantiate the
// same body at wider lanes. This TU owns the always-available levels:
// the 4-lane generic tile (the pre-dispatch kernel, unchanged shapes)
// and, on AArch64, a wider-unrolled NEON tile.
constexpr detail::MicroKernelSet kGenericSet = {
    /*mr=*/kMR,
    /*nr=*/kNR,
    {detail::micro_kernel<1, 4, 2>, detail::micro_kernel<2, 4, 2>, detail::micro_kernel<3, 4, 2>,
     detail::micro_kernel<4, 4, 2>, nullptr, nullptr, nullptr, nullptr},
};
static_assert(kNR == 4 * 2, "generic tile instantiation must match gemm.h blocking constants");

#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
constexpr detail::MicroKernelSet kNeonSet = {
    /*mr=*/4,
    /*nr=*/16,
    {detail::micro_kernel<1, 4, 4>, detail::micro_kernel<2, 4, 4>, detail::micro_kernel<3, 4, 4>,
     detail::micro_kernel<4, 4, 4>, nullptr, nullptr, nullptr, nullptr},
};
#endif

// The register tile sgemm feeds: resolved once per call from the
// process-wide SIMD level (util/simd.h, selected once per process), which
// the gemm.simd_level gauge reports. The gauge is written only when it
// differs, so concurrent calls only read its cache line.
const detail::MicroKernelSet& active_kernel_set() {
  const SimdLevel level = active_simd_level();
  const auto published = static_cast<double>(static_cast<int>(level));
  if (simd_gauge().value() != published) simd_gauge().set(published);
  switch (level) {
    case SimdLevel::kAvx2:
      return *detail::kernels_avx2();
    case SimdLevel::kAvx512:
      return *detail::kernels_avx512();
    case SimdLevel::kNeon:
      return *detail::kernels_neon();
    case SimdLevel::kGeneric:
      break;
  }
  return *detail::kernels_generic();
}

}  // namespace

namespace detail {

const MicroKernelSet* kernels_generic() { return &kGenericSet; }

const MicroKernelSet* kernels_neon() {
#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
  return &kNeonSet;
#else
  return nullptr;
#endif
}

}  // namespace detail

Workspace::~Workspace() { release(); }

float* Workspace::get(int slot, std::size_t floats) {
  SG_CHECK(slot >= 0 && slot < kScratchSlots, "gemm scratch slot out of range");
  std::vector<float>& arena = arenas_[slot];
  if (arena.size() < floats) {
    const std::size_t grown = floats - arena.size();
    arena.resize(floats);
    grows_counter().inc();
    bytes_gauge().add(static_cast<double>(grown * sizeof(float)));
  }
  return arena.data();
}

void Workspace::release() {
  const std::size_t held = bytes();
  if (held == 0) return;
  for (std::vector<float>& arena : arenas_) {
    arena.clear();
    arena.shrink_to_fit();
  }
  bytes_gauge().add(-static_cast<double>(held));
}

std::size_t Workspace::bytes() const {
  std::size_t total = 0;
  for (const std::vector<float>& arena : arenas_) total += arena.size() * sizeof(float);
  return total;
}

WorkspaceScope::WorkspaceScope(Workspace& ws) : prev_(tls_workspace) { tls_workspace = &ws; }

WorkspaceScope::~WorkspaceScope() { tls_workspace = prev_; }

float* scratch(int slot, std::size_t floats) {
  Workspace* ws = tls_workspace;
  return (ws != nullptr ? *ws : thread_default_workspace()).get(slot, floats);
}

void sgemm(Trans ta, Trans tb, long m, long n, long k, const float* a, long lda, const float* b,
           long ldb, float* c, long ldc, bool accumulate) {
  SG_CHECK(m >= 0 && n >= 0 && k >= 0, "sgemm negative extent");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) {
      for (long i = 0; i < m; ++i) std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
    }
    return;
  }
  SG_PROFILE_SCOPE("nn/gemm");
  if (obs::profile_enabled()) {
    // 2·M·N·K flops; traffic counts each operand once plus the C
    // write-back (the roofline convention, ignoring blocking reuse).
    obs::profile_add_work(
        2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k),
        (static_cast<double>(m) * static_cast<double>(k) +
         static_cast<double>(k) * static_cast<double>(n) +
         2.0 * static_cast<double>(m) * static_cast<double>(n)) *
            4.0);
  }

  const long a_row_stride = ta == Trans::kNo ? lda : 1;
  const long a_col_stride = ta == Trans::kNo ? 1 : lda;

  // The register tile of the active SIMD level. Within a level the tile
  // is fixed, the k loop stays serial, and threads still split only M —
  // so results are bitwise identical for any thread count, and (because
  // every level accumulates each C element in the same p-ascending
  // order, gemm_micro.h) across dispatch levels too.
  const detail::MicroKernelSet& ks = active_kernel_set();
  const long mr_tile = ks.mr;
  const long nr_tile = ks.nr;

  for (long jc = 0; jc < n; jc += kNC) {
    const long nc = std::min(kNC, n - jc);
    const long panels = (nc + nr_tile - 1) / nr_tile;
    for (long pc = 0; pc < k; pc += kKC) {
      const long kc = std::min(kKC, k - pc);
      // One shared read-only packed block per (jc, pc); row panels below
      // all read it, so it is packed once on the calling thread.
      float* bp = scratch(0, static_cast<std::size_t>(panels * kc * nr_tile));
      pack_b(tb, b, ldb, pc, jc, kc, nc, nr_tile, bp);

      const bool add_to_c = accumulate || pc > 0;
      const long row_panels = (m + mr_tile - 1) / mr_tile;
      // Threads split only the M dimension; each row panel owns its C
      // rows and runs the identical instruction sequence regardless of
      // which thread executes it — bitwise deterministic.
      parallel_for(static_cast<std::size_t>(row_panels), /*grain=*/1,
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t rp = begin; rp < end; ++rp) {
                       const long i0 = static_cast<long>(rp) * mr_tile;
                       const long mr = std::min(mr_tile, m - i0);
                       const float* abase = ta == Trans::kNo ? a + i0 * lda + pc
                                                             : a + pc * lda + i0;
                       const detail::MicroFn kernel = ks.fns[mr - 1];
                       for (long jp = 0; jp < panels; ++jp) {
                         const long j0 = jp * nr_tile;
                         const long nr = std::min(nr_tile, nc - j0);
                         kernel(kc, abase, a_row_stride, a_col_stride, bp + jp * kc * nr_tile,
                                c + i0 * ldc + jc + j0, ldc, nr, add_to_c);
                       }
                     }
                   });
    }
  }
}

}  // namespace spectra::nn::gemm
