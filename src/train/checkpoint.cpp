#include "train/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/env.h"
#include "util/error.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace spectra::train {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x53474350;   // "SGCP"
constexpr std::uint32_t kFooter = 0x50434753;  // "PCGS"
constexpr std::uint32_t kVersion = 1;

// Section ids — all six must be present exactly once.
enum SectionId : std::uint32_t {
  kSectionGenParams = 1,
  kSectionDiscParams = 2,
  kSectionOptG = 3,
  kSectionOptD = 4,
  kSectionRng = 5,
  kSectionStats = 6,
};
constexpr std::uint32_t kSectionCount = 6;

std::uint64_t fnv1a64(const char* data, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// --- buffer-backed primitive (de)serialization -------------------------

void put_bytes(std::string& buf, const void* p, std::size_t n) {
  buf.append(static_cast<const char*>(p), n);
}
void put_u32(std::string& buf, std::uint32_t v) { put_bytes(buf, &v, sizeof(v)); }
void put_u64(std::string& buf, std::uint64_t v) { put_bytes(buf, &v, sizeof(v)); }
void put_f64(std::string& buf, double v) { put_bytes(buf, &v, sizeof(v)); }

// Cursor over a read-only byte span; every get_* bounds-checks so a
// truncated section fails loudly instead of reading garbage.
struct Reader {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  void get_bytes(void* out, std::size_t n) {
    SG_CHECK(pos + n <= size, "checkpoint section truncated");
    std::memcpy(out, data + pos, n);
    pos += n;
  }
  std::uint32_t get_u32() {
    std::uint32_t v = 0;
    get_bytes(&v, sizeof(v));
    return v;
  }
  std::uint64_t get_u64() {
    std::uint64_t v = 0;
    get_bytes(&v, sizeof(v));
    return v;
  }
  double get_f64() {
    double v = 0;
    get_bytes(&v, sizeof(v));
    return v;
  }
  void expect_end() const { SG_CHECK(pos == size, "checkpoint section has trailing bytes"); }
};

// --- composite payloads ------------------------------------------------

void put_tensor_list(std::string& buf, const std::vector<nn::Tensor>& tensors) {
  put_u64(buf, tensors.size());
  for (const nn::Tensor& t : tensors) {
    put_u32(buf, static_cast<std::uint32_t>(t.rank()));
    for (int i = 0; i < t.rank(); ++i) put_u64(buf, static_cast<std::uint64_t>(t.dim(i)));
    put_bytes(buf, t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  }
}

std::vector<nn::Tensor> get_tensor_list(Reader& r) {
  const std::uint64_t count = r.get_u64();
  // A plausibility bound so a corrupt count fails fast instead of
  // attempting a multi-gigabyte allocation.
  SG_CHECK(count <= 1u << 20, "checkpoint tensor count implausible");
  std::vector<nn::Tensor> tensors;
  tensors.reserve(count);
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::uint32_t rank = r.get_u32();
    SG_CHECK(rank <= 8, "checkpoint tensor rank implausible");
    nn::Shape shape(rank);
    // Overflow-safe element count, bounded by the bytes actually left in
    // the section, so corrupt dims fail before any allocation.
    const std::uint64_t max_numel = (r.size - r.pos) / sizeof(float);
    std::uint64_t numel = 1;
    for (std::uint32_t i = 0; i < rank; ++i) {
      const std::uint64_t extent = r.get_u64();
      SG_CHECK(extent == 0 || numel <= max_numel / extent,
               "checkpoint tensor data truncated");
      numel *= extent;
      shape[i] = static_cast<long>(extent);
    }
    nn::Tensor t(shape);
    r.get_bytes(t.data(), numel * sizeof(float));
    tensors.push_back(std::move(t));
  }
  return tensors;
}

void put_doubles(std::string& buf, const std::vector<double>& xs) {
  put_u64(buf, xs.size());
  for (double x : xs) put_f64(buf, x);
}

std::vector<double> get_doubles(Reader& r) {
  const std::uint64_t count = r.get_u64();
  SG_CHECK(count <= (r.size - r.pos) / sizeof(double), "checkpoint history truncated");
  std::vector<double> xs(count);
  for (std::uint64_t i = 0; i < count; ++i) xs[i] = r.get_f64();
  return xs;
}

std::string encode_adam(const AdamSnapshot& a) {
  std::string buf;
  put_u64(buf, a.step_count);
  put_tensor_list(buf, a.m);
  put_tensor_list(buf, a.v);
  return buf;
}

AdamSnapshot decode_adam(Reader& r) {
  AdamSnapshot a;
  a.step_count = r.get_u64();
  a.m = get_tensor_list(r);
  a.v = get_tensor_list(r);
  return a;
}

// --- file-level helpers ------------------------------------------------

void append_section(std::string& out, std::uint32_t id, const std::string& payload) {
  put_u32(out, id);
  put_u64(out, payload.size());
  put_u64(out, fnv1a64(payload.data(), payload.size()));
  out.append(payload);
}

// Parse the iteration out of "ckpt_000000000042.sgc"; nullopt for
// anything that is not a snapshot filename.
std::optional<std::uint64_t> parse_iteration(const std::string& filename) {
  constexpr const char* kPrefix = "ckpt_";
  constexpr const char* kSuffix = ".sgc";
  if (filename.size() != 5 + 12 + 4) return std::nullopt;
  if (filename.rfind(kPrefix, 0) != 0) return std::nullopt;
  if (filename.compare(filename.size() - 4, 4, kSuffix) != 0) return std::nullopt;
  std::uint64_t iter = 0;
  for (std::size_t i = 5; i < 5 + 12; ++i) {
    const char c = filename[i];
    if (c < '0' || c > '9') return std::nullopt;
    iter = iter * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return iter;
}

// Durably write `contents` to `path` via tmp + fsync + rename; on POSIX
// also fsync the parent directory so the rename itself is durable.
void atomic_write_file(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
#ifndef _WIN32
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  SG_CHECK(f != nullptr, "cannot open " + tmp + " for writing");
  const std::size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool flushed = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  SG_CHECK(written == contents.size() && flushed && closed, "write failed for " + tmp);
  SG_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
           "cannot rename " + tmp + " to " + path);
  const fs::path parent = fs::path(path).parent_path();
  const int dir_fd = ::open(parent.empty() ? "." : parent.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
#else
  std::ofstream out(tmp, std::ios::binary);
  SG_CHECK(static_cast<bool>(out), "cannot open " + tmp + " for writing");
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();
  SG_CHECK(static_cast<bool>(out), "write failed for " + tmp);
  fs::rename(tmp, path);
#endif
}

}  // namespace

CheckpointOptions CheckpointOptions::from_env() {
  CheckpointOptions opts;
  opts.dir = env_string("SPECTRA_CKPT_DIR", "");
  opts.every = env_long("SPECTRA_CKPT_EVERY", opts.every);
  opts.keep_last = static_cast<int>(env_long("SPECTRA_CKPT_KEEP", opts.keep_last));
  if (opts.keep_last < 1) opts.keep_last = 1;
  return opts;
}

std::string checkpoint_filename(std::uint64_t iteration) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt_%012llu.sgc",
                static_cast<unsigned long long>(iteration));
  return buf;
}

std::string write_checkpoint(const std::string& dir, const TrainingSnapshot& snap,
                             int keep_last) {
  SG_CHECK(!dir.empty(), "checkpoint dir must not be empty");
  SG_CHECK(keep_last >= 1, "checkpoint retention must keep at least one snapshot");
  SG_PROFILE_SCOPE("checkpoint/write");
  static obs::Counter& writes = obs::Registry::instance().counter("checkpoint.writes");
  static obs::Histogram& write_hist =
      obs::Registry::instance().histogram("checkpoint.write_seconds");
  Stopwatch watch;

  std::error_code ec;
  fs::create_directories(dir, ec);
  SG_CHECK(!ec, "cannot create checkpoint dir " + dir + ": " + ec.message());

  std::string out;
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u64(out, snap.iteration);
  put_u32(out, kSectionCount);
  {
    std::string payload;
    put_tensor_list(payload, snap.gen_params);
    append_section(out, kSectionGenParams, payload);
  }
  {
    std::string payload;
    put_tensor_list(payload, snap.disc_params);
    append_section(out, kSectionDiscParams, payload);
  }
  append_section(out, kSectionOptG, encode_adam(snap.opt_g));
  append_section(out, kSectionOptD, encode_adam(snap.opt_d));
  {
    std::string payload;
    put_u64(payload, snap.rng.state);
    payload.push_back(snap.rng.has_cached_normal ? '\1' : '\0');
    put_f64(payload, snap.rng.cached_normal);
    append_section(out, kSectionRng, payload);
  }
  {
    std::string payload;
    put_doubles(payload, snap.stats.d_loss);
    put_doubles(payload, snap.stats.g_adv_loss);
    put_doubles(payload, snap.stats.l1_loss);
    put_doubles(payload, snap.stats.grad_norm_d);
    put_doubles(payload, snap.stats.grad_norm_g);
    put_doubles(payload, snap.stats.iter_seconds);
    append_section(out, kSectionStats, payload);
  }
  put_u32(out, kFooter);

  const std::string path = (fs::path(dir) / checkpoint_filename(snap.iteration)).string();
  atomic_write_file(path, out);
  writes.inc();
  write_hist.observe(watch.seconds());

  // Retention: prune everything but the newest keep_last snapshots. Done
  // after the write so a crash here can only leave extra files behind.
  const std::vector<std::string> all = list_checkpoints(dir);
  for (std::size_t i = 0; i + static_cast<std::size_t>(keep_last) < all.size(); ++i) {
    fs::remove(all[i], ec);  // best effort; stale files are harmless
  }
  return path;
}

TrainingSnapshot read_checkpoint(const std::string& path) {
  SG_PROFILE_SCOPE("checkpoint/read");
  std::ifstream in(path, std::ios::binary);
  SG_CHECK(static_cast<bool>(in), "cannot open " + path + " for reading");
  std::string contents((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  SG_CHECK(!in.bad(), "read failed for " + path);

  Reader r{contents.data(), contents.size()};
  SG_CHECK(r.get_u32() == kMagic, path + " is not a checkpoint file");
  const std::uint32_t version = r.get_u32();
  SG_CHECK(version == kVersion,
           path + " has unsupported checkpoint version " + std::to_string(version));

  TrainingSnapshot snap;
  snap.iteration = r.get_u64();
  const std::uint32_t sections = r.get_u32();
  SG_CHECK(sections == kSectionCount, path + " has wrong section count");

  std::uint32_t seen_mask = 0;
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::uint32_t id = r.get_u32();
    const std::uint64_t bytes = r.get_u64();
    const std::uint64_t checksum = r.get_u64();
    SG_CHECK(id >= kSectionGenParams && id <= kSectionStats, path + " has unknown section id");
    SG_CHECK((seen_mask & (1u << id)) == 0, path + " has duplicate section");
    seen_mask |= 1u << id;
    SG_CHECK(bytes <= contents.size() - r.pos, path + " is truncated");
    const char* payload = contents.data() + r.pos;
    SG_CHECK(fnv1a64(payload, bytes) == checksum,
             path + " failed checksum for section " + std::to_string(id));
    Reader section{payload, static_cast<std::size_t>(bytes)};
    switch (id) {
      case kSectionGenParams:
        snap.gen_params = get_tensor_list(section);
        break;
      case kSectionDiscParams:
        snap.disc_params = get_tensor_list(section);
        break;
      case kSectionOptG:
        snap.opt_g = decode_adam(section);
        break;
      case kSectionOptD:
        snap.opt_d = decode_adam(section);
        break;
      case kSectionRng:
        snap.rng.state = section.get_u64();
        {
          char flag = 0;
          section.get_bytes(&flag, 1);
          snap.rng.has_cached_normal = flag != '\0';
        }
        snap.rng.cached_normal = section.get_f64();
        break;
      case kSectionStats:
        snap.stats.d_loss = get_doubles(section);
        snap.stats.g_adv_loss = get_doubles(section);
        snap.stats.l1_loss = get_doubles(section);
        snap.stats.grad_norm_d = get_doubles(section);
        snap.stats.grad_norm_g = get_doubles(section);
        snap.stats.iter_seconds = get_doubles(section);
        break;
    }
    section.expect_end();
    r.pos += static_cast<std::size_t>(bytes);
  }
  SG_CHECK(r.get_u32() == kFooter, path + " is missing its footer (torn write)");
  r.expect_end();
  return snap;
}

std::vector<std::string> list_checkpoints(const std::string& dir) {
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::optional<std::uint64_t> iter = parse_iteration(entry.path().filename().string());
    if (iter) found.emplace_back(*iter, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [iter, path] : found) paths.push_back(std::move(path));
  return paths;
}

std::optional<TrainingSnapshot> load_latest(const std::string& dir) {
  static obs::Counter& corrupt =
      obs::Registry::instance().counter("checkpoint.corrupt_skipped");
  const std::vector<std::string> all = list_checkpoints(dir);
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    try {
      return read_checkpoint(*it);
    } catch (const spectra::Error& e) {
      corrupt.inc();
      SG_LOG_WARN << "skipping corrupt checkpoint " << *it << ": " << e.what();
    }
  }
  return std::nullopt;
}

std::optional<ModelWeights> load_latest_weights(const std::string& dir) {
  std::optional<TrainingSnapshot> snap = load_latest(dir);
  if (!snap) return std::nullopt;
  ModelWeights weights;
  weights.iteration = snap->iteration;
  weights.gen_params = std::move(snap->gen_params);
  weights.disc_params = std::move(snap->disc_params);
  return weights;
}

}  // namespace spectra::train
