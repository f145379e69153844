#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/env.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace spectra::serve {

namespace {

// Internal unwind type for cooperative cancellation: thrown by the row
// wrapper below, caught by the worker, never escapes the server.
class CancelledError : public Error {
 public:
  CancelledError() : Error("request cancelled") {}
};

obs::Counter& accepted_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("serve.requests_accepted");
  return c;
}
obs::Counter& rejected_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("serve.requests_rejected");
  return c;
}
obs::Counter& completed_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("serve.requests_completed");
  return c;
}
obs::Counter& failed_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("serve.requests_failed");
  return c;
}
obs::Counter& cancelled_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("serve.requests_cancelled");
  return c;
}
obs::Counter& rows_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("serve.rows_streamed");
  return c;
}
obs::Gauge& depth_gauge() {
  static obs::Gauge& g = obs::Registry::instance().gauge("serve.queue_depth");
  return g;
}
obs::MaxGauge& depth_peak() {
  static obs::MaxGauge& g = obs::Registry::instance().max_gauge("serve.queue_depth_peak");
  return g;
}
obs::MaxGauge& inflight_peak() {
  static obs::MaxGauge& g = obs::Registry::instance().max_gauge("serve.inflight_peak");
  return g;
}
obs::Histogram& req_seconds() {
  static obs::Histogram& h = obs::Registry::instance().histogram("serve.req_seconds");
  return h;
}

}  // namespace

// --- RequestHandle ----------------------------------------------------------

struct RequestHandle::Shared {
  std::uint64_t id = 0;

  mutable Mutex mutex SG_ACQUIRED_AFTER(lock_order::serve)
      SG_ACQUIRED_BEFORE(lock_order::pool);
  mutable CondVar cv;
  RequestState state SG_GUARDED_BY(mutex) = RequestState::kQueued;
  std::string error SG_GUARDED_BY(mutex);

  std::atomic<bool> cancel{false};
  std::atomic<long> rows{0};

  void set_terminal(RequestState s, std::string message = "") {
    {
      MutexLock lock(mutex);
      state = s;
      error = std::move(message);
    }
    cv.notify_all();
  }
};

std::uint64_t RequestHandle::id() const { return shared_->id; }

void RequestHandle::cancel() { shared_->cancel.store(true, std::memory_order_relaxed); }

RequestState RequestHandle::wait() const {
  MutexLock lock(shared_->mutex);
  while (shared_->state == RequestState::kQueued ||
         shared_->state == RequestState::kRunning) {
    shared_->cv.wait(shared_->mutex);
  }
  return shared_->state;
}

RequestState RequestHandle::state() const {
  MutexLock lock(shared_->mutex);
  return shared_->state;
}

long RequestHandle::rows_streamed() const {
  return shared_->rows.load(std::memory_order_relaxed);
}

std::string RequestHandle::error() const {
  MutexLock lock(shared_->mutex);
  return shared_->error;
}

// --- Server -----------------------------------------------------------------

namespace {

// Per-row delivery wrapper: enforces cancellation *before* handing the
// row out (after cancel() returns, no further rows reach the client
// sink) and keeps the handle's progress counter and the serve metrics.
class ServingSink : public geo::RowSink {
 public:
  ServingSink(geo::RowSink& inner, RequestHandle::Shared& shared)
      : inner_(inner), shared_(shared) {}

  void consume_row(long row, const std::vector<double>& values) override {
    if (shared_.cancel.load(std::memory_order_relaxed)) throw CancelledError();
    inner_.consume_row(row, values);
    shared_.rows.fetch_add(1, std::memory_order_relaxed);
    rows_counter().inc();
  }

 private:
  geo::RowSink& inner_;
  RequestHandle::Shared& shared_;
};

}  // namespace

ServerOptions ServerOptions::from_env() {
  ServerOptions options;
  options.workers = static_cast<std::size_t>(
      std::max(1L, env_long("SPECTRA_SERVE_WORKERS", static_cast<long>(options.workers))));
  options.queue_limit = static_cast<std::size_t>(
      std::max(1L, env_long("SPECTRA_SERVE_QUEUE", static_cast<long>(options.queue_limit))));
  return options;
}

Server::Server(std::shared_ptr<const core::SpectraGan> model, ServerOptions options)
    : model_(std::move(model)), options_(options) {
  SG_CHECK(model_ != nullptr, "Server needs a model");
  SG_CHECK(options_.workers >= 1 && options_.queue_limit >= 1,
           "Server needs at least one worker and one queue slot");
  workspace_pool_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workspace_pool_.push_back(std::make_unique<nn::gemm::Workspace>());
  }
  pool_ = std::make_unique<ThreadPool>(options_.workers);
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.push_back(pool_->submit([this] { worker_loop(); }));
  }
}

Server::~Server() { stop(); }

RequestHandle Server::submit(Request request, geo::RowSink& sink, OnFull on_full,
                             CompletionFn on_done) {
  RequestHandle handle;
  {
    MutexLock lock(mutex_);
    SG_CHECK(!stopping_, "Server::submit after stop");
    if (queue_.size() >= options_.queue_limit) {
      if (on_full == OnFull::kReject) {
        rejected_counter().inc();
        throw QueueFullError("serve queue full (" + std::to_string(queue_.size()) + " queued)");
      }
      // kBlock: park the caller until a worker frees a slot (or the server
      // stops underneath us). Explicit loop so the queue_/stopping_ reads
      // stay visible to the thread safety analysis.
      while (queue_.size() >= options_.queue_limit && !stopping_) {
        space_cv_.wait(mutex_);
      }
      SG_CHECK(!stopping_, "Server stopped while submit was parked");
    }

    handle.shared_ = std::make_shared<RequestHandle::Shared>();
    handle.shared_->id = next_id_++;

    Queued item;
    item.request = std::move(request);
    item.sink = &sink;
    item.shared = handle.shared_;
    item.on_done = std::move(on_done);
    queue_.push_back(std::move(item));

    accepted_counter().inc();
    const double depth = static_cast<double>(queue_.size());
    depth_gauge().set(depth);
    depth_peak().update(depth);
    // In flight = queued + running. running_ is maintained under mutex_.
    inflight_peak().update(depth + static_cast<double>(running_));
  }
  queue_cv_.notify_one();
  return handle;
}

void Server::worker_loop() {
  for (;;) {
    Queued item;
    {
      MutexLock lock(mutex_);
      while (queue_.empty() && !stopping_) queue_cv_.wait(mutex_);
      if (queue_.empty()) return;  // stopping and drained
      item = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      depth_gauge().set(static_cast<double>(queue_.size()));
    }
    space_cv_.notify_one();
    process(std::move(item));
    {
      MutexLock lock(mutex_);
      --running_;
    }
  }
}

void Server::process(Queued item) {
  SG_PROFILE_SCOPE("serve/request");
  item.shared->set_terminal(RequestState::kRunning);  // not terminal; reuses the setter
  Stopwatch watch;

  // Per-request arena: every kernel scratch request of this generation
  // lands in a workspace owned by the request slot, not the thread —
  // recycled across requests so steady-state turnover never reallocates.
  std::unique_ptr<nn::gemm::Workspace> workspace;
  {
    MutexLock lock(mutex_);
    workspace = std::move(workspace_pool_.back());
    workspace_pool_.pop_back();
  }

  RequestState terminal = RequestState::kFailed;
  std::string error;
  try {
    nn::gemm::WorkspaceScope scope(*workspace);
    Rng rng(item.request.seed);
    ServingSink sink(*item.sink, *item.shared);
    model_->generate_city_streamed(item.request.context, item.request.steps, rng, sink,
                                   item.request.aggregation);
    completed_counter().inc();
    terminal = RequestState::kDone;
  } catch (const CancelledError&) {
    cancelled_counter().inc();
    terminal = RequestState::kCancelled;
  } catch (const std::exception& e) {
    failed_counter().inc();
    SG_LOG_WARN << "serve: request " << item.shared->id << " failed: " << e.what();
    error = e.what();
  }
  if (item.on_done) {
    item.on_done(item.shared->id, terminal,
                 item.shared->rows.load(std::memory_order_relaxed), error);
  }
  item.shared->set_terminal(terminal, error);

  req_seconds().observe(watch.seconds());
  {
    MutexLock lock(mutex_);
    workspace_pool_.push_back(std::move(workspace));
  }
}

void Server::stop() {
  std::deque<Queued> orphaned;
  std::vector<std::future<void>> workers;
  std::unique_ptr<ThreadPool> pool;
  {
    MutexLock lock(mutex_);
    if (stopping_) {
      // A concurrent stop() won the race and owns the join. Wait for it:
      // every stop() call must return only once the workers are gone
      // (previously a second caller could return while the first was
      // still joining).
      while (!stop_done_) queue_cv_.wait(mutex_);
      return;
    }
    stopping_ = true;
    orphaned.swap(queue_);
    // Claim the workers and their pool under the lock; join outside it so
    // parked submitters and workers can take mutex_ while we wait.
    workers.swap(workers_);
    pool = std::move(pool_);
    depth_gauge().set(0.0);
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  // Queued-but-never-run requests terminate as cancelled so waiters wake.
  for (Queued& item : orphaned) {
    cancelled_counter().inc();
    if (item.on_done) {
      item.on_done(item.shared->id, RequestState::kCancelled, 0, "server stopped");
    }
    item.shared->set_terminal(RequestState::kCancelled, "server stopped");
  }
  for (std::future<void>& worker : workers) worker.wait();
  pool.reset();
  {
    MutexLock lock(mutex_);
    for (std::unique_ptr<nn::gemm::Workspace>& ws : workspace_pool_) ws->release();
    stop_done_ = true;
  }
  queue_cv_.notify_all();
}

}  // namespace spectra::serve
