#include "train/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <span>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/binio.h"
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

// --- composite payloads ------------------------------------------------

void put_tensor_list(binio::Writer& w, const std::vector<nn::Tensor>& tensors) {
  w.put<std::uint64_t>(tensors.size());
  for (const nn::Tensor& t : tensors) {
    w.put(static_cast<std::uint32_t>(t.rank()));
    for (int i = 0; i < t.rank(); ++i) w.put(static_cast<std::uint64_t>(t.dim(i)));
    w.put_array(t.data(), static_cast<std::size_t>(t.numel()));
  }
}

std::vector<nn::Tensor> get_tensor_list(binio::Reader<>& r) {
  // Every tensor starts with its u32 rank, so a count whose ranks alone
  // overrun the section is corrupt: checked before reserving.
  const long declared = static_cast<long>(r.get<std::uint64_t>());
  const std::size_t count = r.fitting_count<std::uint32_t>({&declared, 1});
  // A plausibility bound so a corrupt count fails fast.
  SG_CHECK(count <= 1u << 20, "checkpoint tensor count implausible");
  std::vector<nn::Tensor> tensors;
  tensors.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t rank = r.get<std::uint32_t>();
    SG_CHECK(rank <= 8, "checkpoint tensor rank implausible");
    nn::Shape shape(rank);
    for (long& extent : shape) extent = static_cast<long>(r.get<std::uint64_t>());
    const std::size_t numel = r.fitting_count<float>(shape);
    nn::Tensor t(std::move(shape));
    r.get_array(t.data(), numel);
    tensors.push_back(std::move(t));
  }
  return tensors;
}

void put_doubles(binio::Writer& w, const std::vector<double>& xs) {
  w.put<std::uint64_t>(xs.size());
  w.put_array(xs.data(), xs.size());
}

std::vector<double> get_doubles(binio::Reader<>& r) {
  const long declared = static_cast<long>(r.get<std::uint64_t>());
  std::vector<double> xs(r.fitting_count<double>({&declared, 1}));
  r.get_array(xs.data(), xs.size());
  return xs;
}

void put_adam(binio::Writer& w, const AdamSnapshot& a) {
  w.put(a.step_count);
  put_tensor_list(w, a.m);
  put_tensor_list(w, a.v);
}

AdamSnapshot get_adam(binio::Reader<>& r) {
  AdamSnapshot a;
  a.step_count = r.get<std::uint64_t>();
  a.m = get_tensor_list(r);
  a.v = get_tensor_list(r);
  return a;
}

// --- file-level helpers ------------------------------------------------

// Appends section `id`: its id, byte size and FNV-1a 64 checksum, then
// the payload `encode` writes.
template <class Encode>
void put_section(binio::Writer& out, std::uint32_t id, Encode encode) {
  binio::Writer payload;
  encode(payload);
  out.put(id);
  out.put<std::uint64_t>(payload.bytes().size());
  out.put(binio::fnv1a64(payload.bytes()));
  out.put_array(payload.bytes().data(), payload.bytes().size());
}

// The stats section's histories, in file order.
template <class Stats>
auto stats_fields(Stats& s) {
  return std::array{&s.d_loss, &s.g_adv_loss, &s.l1_loss, &s.grad_norm_d, &s.grad_norm_g,
                    &s.iter_seconds};
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

  binio::Writer out;
  out.put(kMagic);
  out.put(kVersion);
  out.put(snap.iteration);
  out.put(kSectionCount);
  put_section(out, kSectionGenParams,
              [&](binio::Writer& w) { put_tensor_list(w, snap.gen_params); });
  put_section(out, kSectionDiscParams,
              [&](binio::Writer& w) { put_tensor_list(w, snap.disc_params); });
  put_section(out, kSectionOptG, [&](binio::Writer& w) { put_adam(w, snap.opt_g); });
  put_section(out, kSectionOptD, [&](binio::Writer& w) { put_adam(w, snap.opt_d); });
  put_section(out, kSectionRng, [&](binio::Writer& w) {
    w.put(snap.rng.state);
    w.put<std::uint8_t>(snap.rng.has_cached_normal ? 1 : 0);
    w.put(snap.rng.cached_normal);
  });
  put_section(out, kSectionStats, [&](binio::Writer& w) {
    for (const std::vector<double>* xs : stats_fields(snap.stats)) put_doubles(w, *xs);
  });
  out.put(kFooter);

  const std::string path = (fs::path(dir) / checkpoint_filename(snap.iteration)).string();
  binio::write_file_atomic(path, std::as_bytes(std::span(out.bytes())));
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
  const binio::Bytes contents = binio::read_file(path);
  binio::Reader<> r(contents);
  SG_CHECK(r.get<std::uint32_t>() == kMagic, path + " is not a checkpoint file");
  const std::uint32_t version = r.get<std::uint32_t>();
  SG_CHECK(version == kVersion,
           path + " has unsupported checkpoint version " + std::to_string(version));

  TrainingSnapshot snap;
  snap.iteration = r.get<std::uint64_t>();
  const std::uint32_t sections = r.get<std::uint32_t>();
  SG_CHECK(sections == kSectionCount, path + " has wrong section count");

  std::uint32_t seen_mask = 0;
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::uint32_t id = r.get<std::uint32_t>();
    const std::uint64_t bytes = r.get<std::uint64_t>();
    const std::uint64_t checksum = r.get<std::uint64_t>();
    SG_CHECK(id >= kSectionGenParams && id <= kSectionStats, path + " has unknown section id");
    SG_CHECK((seen_mask & (1u << id)) == 0, path + " has duplicate section");
    seen_mask |= 1u << id;
    const std::span<const std::uint8_t> payload = r.take(bytes);
    SG_CHECK(binio::fnv1a64(payload) == checksum,
             path + " failed checksum for section " + std::to_string(id));
    binio::Reader<> section(payload);
    switch (id) {
      case kSectionGenParams:
        snap.gen_params = get_tensor_list(section);
        break;
      case kSectionDiscParams:
        snap.disc_params = get_tensor_list(section);
        break;
      case kSectionOptG:
        snap.opt_g = get_adam(section);
        break;
      case kSectionOptD:
        snap.opt_d = get_adam(section);
        break;
      case kSectionRng:
        snap.rng.state = section.get<std::uint64_t>();
        snap.rng.has_cached_normal = section.get<std::uint8_t>() != 0;
        snap.rng.cached_normal = section.get<double>();
        break;
      case kSectionStats:
        for (std::vector<double>* xs : stats_fields(snap.stats)) *xs = get_doubles(section);
        break;
    }
    section.expect_end();
  }
  SG_CHECK(r.get<std::uint32_t>() == kFooter, path + " is missing its footer (torn write)");
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
