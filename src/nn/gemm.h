// Unified single-precision GEMM kernel layer (DESIGN.md §6c).
//
// One cache-blocked, register-tiled kernel serves every dense product in
// the model: matmul forward (NN) and both backward products (NT: dA =
// G·Bᵀ, TN: dB = Aᵀ·G), Linear, the LSTM gate projections, and conv2d
// via im2col lowering. Transposed operands are handled by the packing /
// indexing routines — no explicit transpose is ever materialized.
//
// Determinism contract (same bar as the parallel layer, §6a): the
// blocking parameters below are compile-time constants independent of
// thread count, the k loop is serial, and threads split only the M
// dimension into disjoint row panels — so for a given shape every output
// element sees the same reduction order regardless of SPECTRA_THREADS,
// and results are bitwise identical for any thread count.
//
// Steady-state allocation-free: packed panels live in monotonically
// growing arenas (see `Workspace` / `scratch`); repeated calls at the
// same or smaller shapes never allocate. `gemm.workspace_grows` /
// `gemm.workspace_bytes` instrument the arena. By default every thread
// owns one implicit Workspace for its whole lifetime; long-running
// callers (the serve daemon, DESIGN §6g) bind an explicit per-request
// Workspace with WorkspaceScope so scratch memory is accounted to — and
// reclaimable with — the request instead of the thread.

#pragma once

#include <cstddef>
#include <vector>

namespace spectra::nn::gemm {

enum class Trans { kNo, kTrans };

// Blocking parameters (exposed for tests and the bench):
//   kMR×kNR — register tile computed by the micro-kernel,
//   kKC     — k-block packed and reduced at a time (a single block, i.e.
//             k <= kKC, reduces in exactly the naive p-ascending order),
//   kNC     — column block bounding the packed-B arena footprint.
inline constexpr long kMR = 4;
inline constexpr long kNR = 8;
inline constexpr long kKC = 256;
inline constexpr long kNC = 256;

// C (m×n, row-major, leading dimension ldc) = op(A)·op(B), accumulating
// into the existing C contents when `accumulate` is true.
//   op(A) is m×k: A is m×k (lda) when ta == kNo, k×m (lda) when kTrans.
//   op(B) is k×n: B is k×n (ldb) when tb == kNo, n×k (ldb) when kTrans.
// C must not alias A or B. IEEE semantics throughout: no zero-skip
// shortcuts, so NaN/Inf in either operand propagate per the usual rules.
void sgemm(Trans ta, Trans tb, long m, long n, long k, const float* a, long lda, const float* b,
           long ldb, float* c, long ldc, bool accumulate);

// Arena slots per workspace: slot 0 is reserved for sgemm's packed-B
// panels; conv2d lowering uses slots 1 (im2col columns) and 2 (backward
// dcol).
inline constexpr int kScratchSlots = 3;

// A set of monotonically-growing scratch arenas. One thread-local
// instance backs `scratch` by default; the serve layer keeps a pool of
// explicit instances so every request's packed-panel memory has request
// lifetime (bound via WorkspaceScope, released or recycled when the
// request retires). Not thread-safe: a Workspace must be bound to at
// most one thread at a time.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  ~Workspace();

  // Slot arena of at least `floats` floats; grows (counted in
  // `gemm.workspace_grows`, sized in `gemm.workspace_bytes`) only when
  // the current capacity is smaller. The pointer is valid until the next
  // get() on the same slot.
  float* get(int slot, std::size_t floats);

  // Free every arena (capacity returns to zero); `gemm.workspace_bytes`
  // is decremented accordingly. The daemon trims retired request
  // workspaces through this.
  void release();

  // Bytes currently held across all slots.
  std::size_t bytes() const;

 private:
  std::vector<float> arenas_[kScratchSlots];
};

// Bind `ws` as the calling thread's scratch workspace for the scope
// lifetime; nestable, restores the previous binding on destruction. The
// serve worker installs the request's workspace here — generation runs
// inline on that worker (nested parallel_for executes inline from pool
// workers), so every kernel scratch request of the request lands in its
// own arena.
class WorkspaceScope {
 public:
  explicit WorkspaceScope(Workspace& ws);
  ~WorkspaceScope();
  WorkspaceScope(const WorkspaceScope&) = delete;
  WorkspaceScope& operator=(const WorkspaceScope&) = delete;

 private:
  Workspace* prev_;
};

// Reusable scratch arena of the calling thread's bound Workspace (the
// implicit thread-local one unless a WorkspaceScope is active). A slot's
// pointer is valid until the same thread requests the same slot again.
// Grows are counted in `gemm.workspace_grows`; repeated requests at
// steady state are free.
float* scratch(int slot, std::size_t floats);

}  // namespace spectra::nn::gemm
