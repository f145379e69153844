// Per-iteration training telemetry, written as JSONL (one object per
// line) to the file named by SPECTRA_TRAIN_LOG. The trainer feeds one
// record per iteration; a disabled sink (env unset / empty path) makes
// write() a no-op so the hot loop pays nothing beyond a branch.
//
// Record fields (the five documented telemetry signals):
//   iter         0-based iteration index
//   d_loss       discriminator loss
//   g_adv_loss   generator adversarial loss
//   l1_loss      explicit L1 loss (Eq. 1)
//   grad_norm_d / grad_norm_g   pre-clip gradient norms
//   seconds      iteration wall time

#pragma once

#include <fstream>
#include <string>

namespace spectra::obs {

struct TrainIterRecord {
  long iteration = 0;
  double d_loss = 0.0;
  double g_adv_loss = 0.0;
  double l1_loss = 0.0;
  double grad_norm_d = 0.0;
  double grad_norm_g = 0.0;
  double seconds = 0.0;
};

// One JSONL line (no trailing newline).
std::string to_jsonl(const TrainIterRecord& record);

class TrainLogSink {
 public:
  // Opens $SPECTRA_TRAIN_LOG for appending; disabled when unset.
  TrainLogSink();

  // Explicit path; empty string means disabled.
  explicit TrainLogSink(const std::string& path);

  bool enabled() const { return out_.is_open(); }

  // Append one record and flush (crash-safe partial logs). No-op when
  // disabled.
  void write(const TrainIterRecord& record);

 private:
  std::ofstream out_;
};

}  // namespace spectra::obs
