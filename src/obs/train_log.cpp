#include "obs/train_log.h"

#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"

namespace spectra::obs {

namespace {

// Locate `"key":` in `line` and parse the number that follows.
std::optional<double> find_number(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const char* start = line.c_str() + pos + needle.size();
  char* end = nullptr;
  const double value = std::strtod(start, &end);
  if (end == start) return std::nullopt;
  return value;
}

}  // namespace

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

std::optional<TrainIterRecord> parse_jsonl(const std::string& line) {
  TrainIterRecord record;
  const auto iter = find_number(line, "iter");
  const auto d_loss = find_number(line, "d_loss");
  const auto g_adv = find_number(line, "g_adv_loss");
  const auto l1 = find_number(line, "l1_loss");
  const auto norm_d = find_number(line, "grad_norm_d");
  const auto norm_g = find_number(line, "grad_norm_g");
  const auto seconds = find_number(line, "seconds");
  if (!iter || !d_loss || !g_adv || !l1 || !norm_d || !norm_g || !seconds) {
    return std::nullopt;
  }
  record.iteration = static_cast<long>(*iter);
  record.d_loss = *d_loss;
  record.g_adv_loss = *g_adv;
  record.l1_loss = *l1;
  record.grad_norm_d = *norm_d;
  record.grad_norm_g = *norm_g;
  record.seconds = *seconds;
  return record;
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
