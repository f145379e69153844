// Fixed-size thread pool with blocked-range parallel_for helpers.
//
// The compute hot paths (conv2d planes, per-pixel FFT bridges, city
// assembly) call the free `spectra::parallel_for` below, which runs on a
// process-wide shared pool sized by `SPECTRA_THREADS` (default:
// hardware_concurrency; `1` = fully serial, no worker threads). Work is
// split into O(threads) contiguous chunks rather than one task per index,
// and a call made from inside a parallel region (a pool worker, or the
// calling thread while it runs its own chunk) executes inline, so nested
// parallel regions cannot deadlock on their own queue and every chunk of
// the outer region runs the same serial code.
//
// Determinism contract: callers partition writes disjointly across
// indices and keep RNG out of parallel regions, so results are bitwise
// identical for any thread count — the chunking only changes which thread
// computes an index, never the per-index instruction sequence.

#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace spectra {

class ThreadPool {
 public:
  // `num_threads == 0` selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // True on a worker of any ThreadPool, and on a thread running its own
  // chunk of a parallel_for. Nested parallel_for calls run inline there
  // instead of re-entering a queue the caller itself is supposed to
  // drain, or waking idle workers for every small nested region.
  static bool in_parallel_region();

  // Enqueue a task; the future resolves when it completes.
  std::future<void> submit(std::function<void()> task);

  // Blocked-range parallel loop: fn(begin, end) over disjoint chunks
  // covering [0, n). At most `max_chunks` chunks are submitted (0 =
  // size(), i.e. O(threads)) and each chunk spans at least `grain`
  // indices; the caller executes the first chunk itself. Runs fully
  // inline when called from inside a parallel region or when only one
  // chunk results. Exceptions from chunks are rethrown (lowest chunk index
  // wins). The chunk layout for given (n, grain, max_chunks) is fixed,
  // so which indices share a chunk never depends on pool size.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t max_chunks = 0);

  // Per-index convenience wrapper over the blocked-range form.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  // Filled in the constructor, joined in the destructor; size() reads it
  // concurrently but the vector never changes in between.
  std::vector<std::thread> workers_;
  Mutex mutex_ SG_ACQUIRED_AFTER(lock_order::pool) SG_ACQUIRED_BEFORE(lock_order::obs);
  CondVar cv_;
  std::queue<std::packaged_task<void()>> tasks_ SG_GUARDED_BY(mutex_);
  bool stopping_ SG_GUARDED_BY(mutex_) = false;
};

// Effective thread count for the free parallel_for: initialised from
// SPECTRA_THREADS on first use (0/unset = hardware_concurrency, 1 =
// fully serial). set_parallel_threads overrides it at runtime (tests,
// experiment drivers); 0 resets to the environment default.
std::size_t parallel_threads();
void set_parallel_threads(std::size_t n);

// Run fn(begin, end) over disjoint chunks of [0, n) on the process-wide
// shared pool. Serial (inline, no pool touched) when parallel_threads()
// is 1, when n fits in one grain-sized chunk, or when already inside a
// parallel region. The shared pool is created lazily on the first call
// that actually fans out.
void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace spectra
