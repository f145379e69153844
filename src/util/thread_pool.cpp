#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "obs/metrics.h"
#include "util/env.h"

namespace spectra {

namespace {

obs::Counter& queued_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("pool.tasks_queued");
  return c;
}
obs::Counter& executed_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("pool.tasks_executed");
  return c;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::Registry::instance().gauge("pool.queue_depth");
  return g;
}
obs::MaxGauge& queue_depth_peak_gauge() {
  static obs::MaxGauge& g = obs::Registry::instance().max_gauge("pool.queue_depth_peak");
  return g;
}
obs::Counter& chunks_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("pool.parallel_chunks");
  return c;
}
obs::Counter& inline_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("pool.parallel_inline_runs");
  return c;
}

// Set for the lifetime of every pool worker thread, and on a calling
// thread while it runs its own chunk of a parallel_for.
thread_local bool tls_in_region = false;

// Split [0, n) into at most `max_chunks` chunks of >= grain indices and
// run them through `run_chunk`, executing the first chunk on the calling
// thread. `run_chunk(begin, end, chunk_index)` must not throw (it records
// exceptions itself).
struct ChunkPlan {
  std::size_t chunk_size = 0;
  std::size_t num_chunks = 0;
};

ChunkPlan plan_chunks(std::size_t n, std::size_t grain, std::size_t threads) {
  grain = std::max<std::size_t>(1, grain);
  threads = std::max<std::size_t>(1, threads);
  ChunkPlan plan;
  plan.chunk_size = std::max(grain, (n + threads - 1) / threads);
  plan.num_chunks = (n + plan.chunk_size - 1) / plan.chunk_size;
  return plan;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::in_parallel_region() { return tls_in_region; }

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    MutexLock lock(mutex_);
    tasks_.push(std::move(packaged));
    queued_counter().inc();
    queue_depth_gauge().set(static_cast<double>(tasks_.size()));
    queue_depth_peak_gauge().update(static_cast<double>(tasks_.size()));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const std::function<void(std::size_t, std::size_t)>& fn,
                              std::size_t max_chunks) {
  if (n == 0) return;
  const ChunkPlan plan = plan_chunks(n, grain, max_chunks == 0 ? size() : max_chunks);
  // Nested use: a worker waiting on futures would block the very queue
  // slot needed to run them — execute the whole range inline instead.
  if (plan.num_chunks <= 1 || tls_in_region) {
    inline_counter().inc();
    fn(0, n);
    return;
  }

  chunks_counter().inc(plan.num_chunks);
  std::vector<std::exception_ptr> errors(plan.num_chunks);
  std::vector<std::future<void>> futures;
  futures.reserve(plan.num_chunks - 1);
  for (std::size_t c = 1; c < plan.num_chunks; ++c) {
    const std::size_t begin = c * plan.chunk_size;
    const std::size_t end = std::min(n, begin + plan.chunk_size);
    futures.push_back(submit([&fn, &errors, begin, end, c] {
      try {
        fn(begin, end);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    }));
  }
  // The caller's chunk is a parallel region too: its nested calls run
  // inline like the workers' do. Fanning them out would only wake the
  // idle workers for every small nested region, and the outer chunks
  // would no longer run the same serial code.
  tls_in_region = true;
  try {
    fn(0, std::min(n, plan.chunk_size));
  } catch (...) {
    errors[0] = std::current_exception();
  }
  tls_in_region = false;
  for (auto& future : futures) future.get();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  parallel_for(n, /*grain=*/1, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::worker_loop() {
  tls_in_region = true;
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mutex_);
      // Explicit loop (not a predicate lambda): the thread safety
      // analysis does not look inside lambdas, so this keeps the
      // stopping_/tasks_ reads checked against mutex_.
      while (!stopping_ && tasks_.empty()) cv_.wait(mutex_);
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      queue_depth_gauge().set(static_cast<double>(tasks_.size()));
    }
    task();
    executed_counter().inc();
  }
}

namespace {

std::size_t env_default_threads() {
  const long v = env_long("SPECTRA_THREADS", 0);
  if (v <= 0) return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return static_cast<std::size_t>(v);
}

// 0 = not yet initialised from the environment.
std::atomic<std::size_t> g_parallel_threads{0};

ThreadPool& shared_pool(std::size_t min_size) {
  // Sized once at first fan-out; later set_parallel_threads calls larger
  // than the pool still work (chunks queue behind each other).
  static ThreadPool pool(min_size);
  return pool;
}

}  // namespace

std::size_t parallel_threads() {
  std::size_t v = g_parallel_threads.load(std::memory_order_relaxed);
  if (v == 0) {
    v = env_default_threads();
    g_parallel_threads.store(v, std::memory_order_relaxed);
  }
  return v;
}

void set_parallel_threads(std::size_t n) {
  g_parallel_threads.store(n == 0 ? env_default_threads() : n, std::memory_order_relaxed);
}

void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t threads = parallel_threads();
  const ChunkPlan plan = plan_chunks(n, grain, threads);
  if (threads <= 1 || plan.num_chunks <= 1 || ThreadPool::in_parallel_region()) {
    inline_counter().inc();
    fn(0, n);
    return;
  }
  // Cap chunks at the *effective* thread count, not the pool size, so
  // set_parallel_threads keeps full control over the fan-out even when
  // the shared pool was created with a different size.
  shared_pool(threads).parallel_for(n, grain, fn, threads);
}

}  // namespace spectra
