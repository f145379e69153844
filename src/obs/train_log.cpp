#include "obs/train_log.h"

#include <cstdlib>

#include "obs/metrics.h"

namespace spectra::obs {

std::string to_jsonl(const TrainIterRecord& record) {
  std::string out = "{\"iter\":" + std::to_string(record.iteration);
  out += ",\"d_loss\":" + format_double(record.d_loss);
  out += ",\"g_adv_loss\":" + format_double(record.g_adv_loss);
  out += ",\"l1_loss\":" + format_double(record.l1_loss);
  out += ",\"grad_norm_d\":" + format_double(record.grad_norm_d);
  out += ",\"grad_norm_g\":" + format_double(record.grad_norm_g);
  out += ",\"seconds\":" + format_double(record.seconds);
  out += "}";
  return out;
}

TrainLogSink::TrainLogSink() {
  const char* env = std::getenv("SPECTRA_TRAIN_LOG");
  if (env != nullptr && *env != '\0') {
    out_.open(env, std::ios::app);
  }
}

TrainLogSink::TrainLogSink(const std::string& path) {
  if (!path.empty()) out_.open(path, std::ios::app);
}

void TrainLogSink::write(const TrainIterRecord& record) {
  if (!out_.is_open()) return;
  out_ << to_jsonl(record) << '\n';
  out_.flush();
}

}  // namespace spectra::obs
