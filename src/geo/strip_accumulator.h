// City sewing (§2.2.4, Eq. 2) in bounded memory: the one sewer behind
// every generated city.
//
// Sliding windows arrive sorted by origin row (the enumerate_windows
// order), so once the origin row advances past row r, no later window
// can touch r. Only the active band of rows — the current window strip
// plus the `traffic_h - stride` overlap rows still receiving
// contributions — is resident; finalized rows are divided (or
// median-reduced) immediately and handed to a RowSink, after which their
// buffers are recycled for the next strip.
//
// Resident footprint is O(traffic_h x T x W) regardless of H, which is
// what lets `bench_megacity` sew a 1024x1024 grid in a flat band of a
// few hundred kilobytes (DESIGN.md §6f).

#pragma once

#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "geo/patching.h"
#include "util/error.h"

namespace spectra::geo {

// Typed failure for sink-side write errors (short fwrite, failed close,
// a downstream consumer that cannot accept more rows). Callers stream
// cities into external media, so a mid-stream write failure is an
// *expected* runtime condition: it must propagate as a catchable error —
// counted in `geo.sink_write_errors` — never abort the process. In
// particular SpillRowSink's destructor swallows (and counts) a failing
// final flush instead of throwing during unwinding.
class SinkWriteError : public Error {
 public:
  explicit SinkWriteError(std::string message) : Error(std::move(message)) {}
};

// Receives finalized rows in strictly increasing row order, each exactly
// once. `values` is the row in t-major layout: values[t * width + col].
// The buffer is owned by the accumulator and reused across rows — copy
// what must outlive the call.
class RowSink {
 public:
  virtual ~RowSink() = default;
  virtual void consume_row(long row, const std::vector<double>& values) = 0;
};

// In-memory collector: the small-grid sink behind the classic
// `generate_city` return value.
class CityTensorSink : public RowSink {
 public:
  CityTensorSink(long steps, long height, long width);

  void consume_row(long row, const std::vector<double>& values) override;

  // Hand the finished tensor out; every row must have been consumed.
  CityTensor take();

 private:
  CityTensor city_;
  long rows_received_ = 0;
};

// Spill-to-disk writer for grids that must never be resident: rows are
// appended to `path` as raw native-endian doubles in (row, t, col) order,
// buffered kBatchRows rows per batched fwrite so megacity runs do not pay
// one syscall per row. Instrumented via `geo.rows_spilled`.
class SpillRowSink : public RowSink {
 public:
  static constexpr long kBatchRows = 8;

  // `steps`/`width` fix the row record size.
  SpillRowSink(const std::string& path, long steps, long width);
  ~SpillRowSink() override;

  SpillRowSink(const SpillRowSink&) = delete;
  SpillRowSink& operator=(const SpillRowSink&) = delete;

  // Throws SinkWriteError when the batched fwrite comes up short (disk
  // full, pipe closed); the failure is counted in `geo.sink_write_errors`
  // and the sink stays closed afterwards.
  void consume_row(long row, const std::vector<double>& values) override;

  // Flush buffered rows and close the file (idempotent). Throws
  // SinkWriteError when the final flush or fclose fails; the destructor
  // runs the same teardown but logs-and-counts instead of throwing.
  // After close(), `bytes_written` is the final file size.
  void close();

  long rows_written() const { return rows_written_; }
  long long bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

 private:
  void flush();

  std::string path_;
  std::FILE* file_ = nullptr;
  long row_values_ = 0;  // doubles per row record (steps * width)
  long rows_written_ = 0;
  long long bytes_written_ = 0;
  std::vector<double> buffer_;
};

// Read row `row` of a city spilled by SpillRowSink back into `values`
// (resized to steps * width). For verification and row-served workloads.
void read_spilled_row(const std::string& path, long steps, long width, long row,
                      std::vector<double>& values);

// Bounded-memory overlap accumulator. Patches must be added in
// enumerate_windows order (non-decreasing origin row; any column order
// within a strip). Each pixel's sum accumulates in window order and is
// divided (or median-reduced) once; tests/geo_test.cpp holds the rows
// bit for bit to the dense reference sewer in tests/reference/.
class StripAccumulator {
 public:
  StripAccumulator(long steps, long height, long width, RowSink& sink,
                   OverlapAggregation aggregation = OverlapAggregation::kMean);

  // Add a generated [T, Ht, Wt] patch at `window`; `values` points at
  // T * traffic_h * traffic_w contiguous floats. Advancing the origin row
  // finalizes and emits every row the new strip can no longer touch.
  void add_patch(const PatchWindow& window, const PatchSpec& spec, const float* values,
                 std::size_t size);
  void add_patch(const PatchWindow& window, const PatchSpec& spec,
                 const std::vector<float>& patch);

  // Finalize and emit all remaining rows. Every pixel must have been
  // covered by at least one patch. Idempotent.
  void finish();

  long rows_emitted() const { return band_start_; }

  // Current band footprint: bytes held by live row buffers (sums, counts,
  // and median contribution lists). The high-water mark is exported as
  // `geo.strip_resident_bytes_peak` — flat across grid heights, which is
  // the bench_megacity bounded-memory gate.
  std::size_t resident_bytes() const;

 private:
  // One active row of the canvas: T x W running sums, per-column patch
  // multiplicity, and (median only) per-(t, col) contribution lists.
  struct RowBuf {
    std::vector<double> sum;           // steps * width
    std::vector<double> count;         // width
    std::vector<std::vector<double>> contribs;  // median: steps * width lists
  };

  RowBuf acquire_row();
  void ensure_rows_through(long row);
  void finalize_rows_below(long row);
  void emit_row(long row, RowBuf& buf);

  OverlapAggregation aggregation_;
  long steps_ = 0;
  long height_ = 0;
  long width_ = 0;
  RowSink& sink_;
  long band_start_ = 0;  // first row not yet emitted
  std::deque<RowBuf> band_;
  std::vector<RowBuf> free_rows_;  // recycled buffers, capacity-preserving
  std::vector<double> emit_buf_;   // reused finalized-row staging
  std::vector<double> median_scratch_;
  bool finished_ = false;
};

}  // namespace spectra::geo
