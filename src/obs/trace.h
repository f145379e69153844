// Chrome trace-event JSON export ("X" complete events), viewable in
// chrome://tracing or https://ui.perfetto.dev. The events come from the
// one probe, SG_PROFILE_SCOPE (obs/profile.h): while tracing is on,
// every scope records one event under its own name.
//
// Tracing is off by default. Setting SPECTRA_TRACE=<file> enables it at
// startup and *streams* events to that file: buffered events are drained
// to disk every kStreamFlushEvents records (bounding memory) as a bare
// JSON event array — a format the trace viewers accept even without the
// closing bracket, so a SIGKILL'd run keeps everything flushed so far.
// A clean exit finalizes the array via atexit; on the next start a
// leftover partial file is finalized and renamed <file>.recovered before
// the new stream opens. Tests toggle recording with trace_set_enabled()
// and use trace_json()/trace_flush(path), which keep their in-memory
// whole-document semantics.

#pragma once

#include <cstdint>
#include <string>

namespace spectra::obs {

namespace detail {
// Append one complete event to the calling thread's buffer. The times
// are steady_now_ns() readings taken at the scope's entry and exit; the
// event's `ts` counts microseconds from the trace origin, which is fixed
// before tracing can first be switched on.
void trace_record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

// Idempotent SPECTRA_TRACE autostart hook, invoked from
// Registry::instance() so the static-archive linker cannot drop it.
void trace_env_autostart();
}  // namespace detail

// Buffered events accumulated before a streaming drain kicks in. Bounds
// trace memory to roughly this many events per flush interval.
inline constexpr std::uint64_t kStreamFlushEvents = 4096;

// Runtime toggle (SPECTRA_TRACE flips it on during static init).
void trace_set_enabled(bool enabled);

// Serialize every recorded span (all threads) as a Chrome trace JSON
// document. Safe to call while other threads are still recording.
std::string trace_json();

// Write trace_json() to `path`, or to $SPECTRA_TRACE when `path` is
// empty. No-op when neither names a file. When a stream is open this
// snapshot only covers spans not yet drained to the stream.
void trace_flush(const std::string& path = "");

// Discard all recorded spans. Tests only.
void trace_reset();

// --- streaming (SIGKILL-safe) export ------------------------------------

// Open `path` as a streaming event-array sink: recorded spans are
// appended in batches of kStreamFlushEvents (drained buffers are freed,
// bounding memory). Any partial stream already at `path` is recovered
// first. The env autostart calls this with $SPECTRA_TRACE.
void trace_stream_open(const std::string& path);

// Drain all buffered spans to the open stream now. No-op without one.
void trace_stream_drain();

// Drain, append the closing bracket, and close the stream file, leaving
// a well-formed JSON array on disk. No-op without an open stream.
void trace_stream_close();

// Finalize a partial stream left by a killed process: append the closing
// bracket and rename to `path`.recovered. Returns true when a partial
// file was recovered, false when `path` is absent or already complete.
bool trace_recover_partial(const std::string& path);

}  // namespace spectra::obs
