#include "obs/trace.h"

#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace spectra::obs {

namespace {

struct TraceEvent {
  const char* name;
  std::uint64_t ts_us;
  std::uint64_t dur_us;
};

// Per-thread buffer. Appends come only from the owning thread; the
// buffer mutex exists so trace_json()/trace_reset()/stream drains can
// read from other threads. Uncontended in the hot path.
struct ThreadBuffer {
  Mutex mutex SG_ACQUIRED_AFTER(lock_order::obs)
      SG_ACQUIRED_BEFORE(lock_order::fft_cache);
  std::vector<TraceEvent> events SG_GUARDED_BY(mutex);
  std::uint32_t tid = 0;  // assigned once at registration, const afterwards
};

// Streaming sink state. `mutex` serializes drains; the hot path only
// touches `pending` (relaxed atomic) and takes the mutex via try_lock,
// so a drain in progress never blocks recording threads.
struct StreamState {
  Mutex mutex SG_ACQUIRED_AFTER(lock_order::obs)
      SG_ACQUIRED_BEFORE(lock_order::fft_cache);
  std::ofstream out SG_GUARDED_BY(mutex);
  bool any_event SG_GUARDED_BY(mutex) = false;  // comma needed before the next event
};

struct TraceState {
  Mutex mutex SG_ACQUIRED_AFTER(lock_order::obs)
      SG_ACQUIRED_BEFORE(lock_order::fft_cache);
  std::vector<ThreadBuffer*> buffers SG_GUARDED_BY(mutex);  // leaked; one per thread
  std::uint32_t next_tid SG_GUARDED_BY(mutex) = 1;
  // Trace time origin (detail::steady_now_ns). Set at construction,
  // never reset — reads need no lock. trace_set_enabled constructs the
  // state before it sets the bit, so every recorded scope starts later.
  const std::int64_t origin_ns = detail::steady_now_ns();
  std::atomic<bool> streaming{false};   // fast check before the pending math
  std::atomic<std::uint64_t> pending{0};  // events buffered since last drain
  StreamState stream;
};

TraceState& state() {
  // sg-lint: allow(mutable-static) leaked trace singleton: threads may outlive main
  static TraceState* s = new TraceState();
  return *s;
}

ThreadBuffer& thread_buffer() {
  // sg-lint: allow(mutable-static) per-thread span buffer, leaked so events survive thread exit
  thread_local ThreadBuffer* buffer = [] {
    auto* b = new ThreadBuffer();  // leaked: events must survive thread exit
    TraceState& s = state();
    MutexLock lock(s.mutex);
    b->tid = s.next_tid++;
    s.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

void format_event(std::ostream& out, const TraceEvent& event, std::uint32_t tid) {
  out << "{\"name\":\"" << json_escape(event.name)
      << "\",\"cat\":\"spectra\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
      << ",\"ts\":" << event.ts_us << ",\"dur\":" << event.dur_us << '}';
}

// Move every buffered span into the open stream. Caller holds
// `stream.mutex`; buffers are cleared as they drain, bounding memory.
void drain_locked(TraceState& s) SG_REQUIRES(s.stream.mutex) {
  if (!s.stream.out.is_open()) return;
  std::vector<TraceEvent> batch;
  std::vector<ThreadBuffer*> buffers;
  {
    MutexLock registry_lock(s.mutex);
    buffers = s.buffers;
  }
  for (ThreadBuffer* buffer : buffers) {
    batch.clear();
    std::uint32_t tid = 0;
    {
      MutexLock lock(buffer->mutex);
      batch.swap(buffer->events);
      tid = buffer->tid;
    }
    for (const TraceEvent& event : batch) {
      if (s.stream.any_event) s.stream.out << ",\n";
      s.stream.any_event = true;
      format_event(s.stream.out, event, tid);
    }
  }
  s.pending.store(0, std::memory_order_relaxed);
  s.stream.out.flush();
  Registry::instance().counter("trace.stream_flushes").inc();
}

}  // namespace

namespace detail {

void trace_record(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
  TraceState& s = state();
  // Both ends truncate to whole microseconds from the origin, so a
  // nested scope's event never ends after its parent's.
  const auto ts_us = static_cast<std::uint64_t>((start_ns - s.origin_ns) / 1000);
  const auto end_us = static_cast<std::uint64_t>((end_ns - s.origin_ns) / 1000);
  ThreadBuffer& buffer = thread_buffer();
  {
    MutexLock lock(buffer.mutex);
    buffer.events.push_back({name, ts_us, end_us - ts_us});
  }
  if (!s.streaming.load(std::memory_order_relaxed)) return;
  const std::uint64_t pending = s.pending.fetch_add(1, std::memory_order_relaxed) + 1;
  if (pending < kStreamFlushEvents) return;
  // Opportunistic drain: whichever thread crosses the threshold while
  // the stream is free does the work; others keep recording.
  if (s.stream.mutex.try_lock()) {
    MutexLock lock(s.stream.mutex, std::adopt_lock);
    drain_locked(s);
  }
}

}  // namespace detail

void trace_set_enabled(bool enabled) {
  if (enabled) state();  // fixes the origin before any scope can see the bit
  detail::set_probe(detail::kTraceBit, enabled);
}

std::string trace_json() {
  TraceState& s = state();
  std::ostringstream out;
  out << '[';
  bool first = true;
  MutexLock registry_lock(s.mutex);
  for (ThreadBuffer* buffer : s.buffers) {
    MutexLock lock(buffer->mutex);
    for (const TraceEvent& event : buffer->events) {
      if (!first) out << ',';
      first = false;
      format_event(out, event, buffer->tid);
    }
  }
  out << ']';
  return out.str();
}

void trace_reset() {
  TraceState& s = state();
  MutexLock registry_lock(s.mutex);
  for (ThreadBuffer* buffer : s.buffers) {
    MutexLock lock(buffer->mutex);
    buffer->events.clear();
  }
  s.pending.store(0, std::memory_order_relaxed);
}

bool trace_recover_partial(const std::string& path) {
  std::string tail;
  {
    std::ifstream in(path);
    if (!in) return false;
    std::ostringstream contents;
    contents << in.rdbuf();
    tail = contents.str();
  }
  // Streaming files open with '[' and only a clean close writes the
  // final ']'. A kill between drains leaves the file ending at an event
  // boundary ('}'), so the terminator alone cannot tell complete from
  // cut — the leading '[' can. Leave anything else (and already-closed
  // streams) alone.
  std::size_t begin = 0;
  while (begin < tail.size() && (tail[begin] == '\n' || tail[begin] == ' ')) ++begin;
  std::size_t end = tail.size();
  while (end > begin && (tail[end - 1] == '\n' || tail[end - 1] == ' ')) --end;
  if (end == begin || tail[begin] != '[') return false;
  if (tail[end - 1] == ']') return false;
  // Drop any record cut mid-write: keep through the last complete event
  // (event JSON is flat, so the last '}' always closes an event), or
  // just the '[' header when the kill landed before the first drain.
  const std::size_t brace = tail.find_last_of('}', end - 1);
  const std::size_t keep = (brace == std::string::npos || brace < begin) ? begin : brace;
  {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << tail.substr(0, keep + 1) << "\n]\n";
  }
  const std::string recovered = path + ".recovered";
  std::remove(recovered.c_str());
  return std::rename(path.c_str(), recovered.c_str()) == 0;
}

void trace_stream_open(const std::string& path) {
  if (path.empty()) return;
  TraceState& s = state();
  MutexLock lock(s.stream.mutex);
  if (s.stream.out.is_open()) return;
  trace_recover_partial(path);
  s.stream.out.open(path);
  if (!s.stream.out) return;
  s.stream.any_event = false;
  s.stream.out << "[\n";
  s.stream.out.flush();
  s.streaming.store(true, std::memory_order_relaxed);
}

void trace_stream_drain() {
  TraceState& s = state();
  MutexLock lock(s.stream.mutex);
  drain_locked(s);
}

void trace_stream_close() {
  TraceState& s = state();
  MutexLock lock(s.stream.mutex);
  if (!s.stream.out.is_open()) return;
  s.streaming.store(false, std::memory_order_relaxed);
  drain_locked(s);
  s.stream.out << "\n]\n";
  s.stream.out.close();
  s.stream.any_event = false;
}

}  // namespace spectra::obs
