// Chrome trace-event JSON export ("X" complete events), viewable in
// chrome://tracing or https://ui.perfetto.dev. The events come from the
// one probe, SG_PROFILE_SCOPE (obs/profile.h): while tracing is on,
// every scope records one event under its own name.
//
// Tracing is off by default. When SPECTRA_TRACE=<file> is set, the obs
// session (obs/session.h) enables it before main and *streams* events to
// that file: buffered events are drained to disk every
// kStreamFlushEvents records (bounding memory) as a bare JSON event
// array — a format the trace viewers accept even without the closing
// bracket, so a SIGKILL'd run keeps everything flushed so far. The
// session's exit writer closes the array; on the next start a leftover
// partial file is finalized and renamed <file>.recovered before the new
// stream opens. Tests toggle recording with trace_set_enabled() and read
// the buffered events with trace_json().

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
}  // namespace detail

// Buffered events accumulated before a streaming drain kicks in. Bounds
// trace memory to roughly this many events per flush interval.
inline constexpr std::uint64_t kStreamFlushEvents = 4096;

// Runtime toggle (the session flips it on from SPECTRA_TRACE).
void trace_set_enabled(bool enabled);

// Every buffered span (all threads) as a bare JSON event array, the
// stream's format. Safe to call while other threads are still recording.
// While a stream is open this covers only the spans not yet drained.
std::string trace_json();

// Discard all recorded spans. Tests only.
void trace_reset();

// --- streaming (SIGKILL-safe) export ------------------------------------

// Open `path` as a streaming event-array sink: recorded spans are
// appended in batches of kStreamFlushEvents (drained buffers are freed,
// bounding memory). Any partial stream already at `path` is recovered
// first. The session calls this with $SPECTRA_TRACE.
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
