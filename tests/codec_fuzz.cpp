// Seeded mutation fuzzing of every decoder (DESIGN §6d). One valid
// encoding per decoder is mutated by bit flips, truncation, lying 4- and
// 8-byte lengths and splices with another seed, and every case must
// either decode or end in its format's typed error: spectra::Error for
// checkpoints (SGCP) and parameter files (SGNN), ProtocolError for the
// serve frames, nullopt for .sgt tensors. Half of the SGCP cases re-seal
// the section checksums, so mutations reach the payload decoders.
//
// ctest label `fuzz`. Under the ASan/UBSan build, run with
// ASAN_OPTIONS=max_allocation_size_mb=16, an out-of-bounds read,
// undefined behaviour or an allocation sized by an untrusted length
// aborts the run. No seed legitimately allocates a fraction of that cap.
//
// The cases derive from gtest's random seed: 1 unless
// --gtest_random_seed is given. For a longer run, add --gtest_shuffle
// and --gtest_repeat=N: gtest moves to a new seed on each repetition.
// Every failure names the seed and case that found it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "eval/protocol.h"
#include "nn/serialize.h"
#include "serve/protocol.h"
#include "train/checkpoint.h"
#include "util/binio.h"
#include "util/error.h"

namespace spectra {
namespace {

namespace fs = std::filesystem;
using binio::Bytes;

enum class Outcome { kDecoded, kTypedError };

// --- seeds: one valid encoding per decoder ------------------------------

train::TrainingSnapshot seed_snapshot() {
  train::TrainingSnapshot snap;
  snap.iteration = 9;
  snap.gen_params = {nn::Tensor({2, 3}, {0.5f, -1.0f, 2.0f, 0.25f, 3.0f, -0.125f}),
                     nn::Tensor({1}, {8.0f})};
  snap.disc_params = {nn::Tensor::full({2, 2}, 0.75f)};
  snap.opt_g = {4, {nn::Tensor::full({2, 3}, 0.5f)}, {nn::Tensor::full({2, 3}, 0.25f)}};
  snap.opt_d = {2, {nn::Tensor::full({2, 2}, 1.5f)}, {nn::Tensor::full({2, 2}, 2.0f)}};
  snap.rng = {0x0123456789abcdefULL, true, -1.25};
  snap.stats.d_loss = {0.5, 0.25};
  snap.stats.l1_loss = {2.5};
  snap.stats.iter_seconds = {0.125, 0.25, 0.5};
  return snap;
}

// The parameter list the SGNN seed was saved from; a load needs its shapes.
std::vector<nn::Var> seed_params() {
  return {nn::Var::leaf(nn::Tensor({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f})),
          nn::Var::leaf(nn::Tensor({3}, {-0.5f, 0.5f, 1.5f}))};
}

std::string scratch_path(const std::string& name) {
  return testing::TempDir() + "/codec_fuzz_" + name;
}

void write_bytes(const std::string& path, const Bytes& bytes) {
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

// The payloads `write` puts on a frame stream, in order.
std::vector<Bytes> written_frames(const std::function<void(serve::FrameWriter&)>& write) {
  std::FILE* stream = std::tmpfile();
  SG_CHECK(stream != nullptr, "tmpfile failed");
  serve::FrameWriter writer(stream);
  write(writer);
  std::rewind(stream);
  std::vector<Bytes> frames;
  Bytes payload;
  while (serve::read_frame(stream, payload)) frames.push_back(payload);
  std::fclose(stream);
  return frames;
}

struct Format {
  std::string name;
  Bytes seed;
  // Decodes one case; a typed error is caught here, anything else escapes.
  std::function<Outcome(const Bytes&)> decode;
  bool reseal = false;  // SGCP: re-seal section checksums in half the cases
  int cases = 0;
};

template <class Decode>
Outcome serve_outcome(Decode decode) {
  try {
    decode();
    return Outcome::kDecoded;
  } catch (const serve::ProtocolError&) {
    return Outcome::kTypedError;
  }
}

std::vector<Format> make_formats() {
  std::vector<Format> formats;

  const std::string ckpt_dir = scratch_path("seed_ckpt");
  fs::remove_all(ckpt_dir);
  const std::string ckpt = train::write_checkpoint(ckpt_dir, seed_snapshot(), 1);
  formats.push_back({"SGCP", binio::read_file(ckpt), [](const Bytes& input) {
                       const std::string path = scratch_path("case.sgc");
                       write_bytes(path, input);
                       try {
                         train::read_checkpoint(path);
                         return Outcome::kDecoded;
                       } catch (const Error&) {
                         return Outcome::kTypedError;
                       }
                     },
                     true, 12000});

  const std::string params = scratch_path("seed.sgnn");
  nn::save_parameters(params, seed_params());
  formats.push_back({"SGNN", binio::read_file(params), [](const Bytes& input) {
                       const std::string path = scratch_path("case.sgnn");
                       write_bytes(path, input);
                       std::vector<nn::Var> dst = seed_params();
                       try {
                         nn::load_parameters(path, dst);
                         return Outcome::kDecoded;
                       } catch (const Error&) {
                         return Outcome::kTypedError;
                       }
                     },
                     false, 3000});

  geo::CityTensor city(2, 3, 4);
  for (long i = 0; i < city.size(); ++i) city[i] = 0.5 * static_cast<double>(i);
  const std::string sgt = scratch_path("seed.sgt");
  eval::save_city_tensor(sgt, city);
  formats.push_back({"SGST", binio::read_file(sgt), [](const Bytes& input) {
                       const std::string path = scratch_path("case.sgt");
                       write_bytes(path, input);
                       return eval::load_city_tensor(path) ? Outcome::kDecoded
                                                           : Outcome::kTypedError;
                     },
                     false, 3000});

  serve::WireRequest request;
  request.id = 11;
  request.seed = 12;
  request.steps = 24;
  request.channels = 2;
  request.height = 2;
  request.width = 3;
  request.context.assign(12, 0.25);
  formats.push_back({"SGRQ", serve::encode_request(request), [](const Bytes& input) {
                       return serve_outcome([&] { serve::decode_request(input); });
                     },
                     false, 3000});

  const std::vector<Bytes> frames = written_frames([](serve::FrameWriter& w) {
    w.write_row(7, 3, {1.5, -2.0, 0.0, 4.0});
    w.write_done(7, serve::RequestState::kCancelled, 12, "stopped");
    w.write_error("bad frame");
  });
  formats.push_back({"SGRW", frames.at(0), [](const Bytes& input) {
                       return serve_outcome([&] { serve::decode_row(input); });
                     },
                     false, 3000});
  formats.push_back({"SGDN", frames.at(1), [](const Bytes& input) {
                       return serve_outcome([&] { serve::decode_done(input); });
                     },
                     false, 3000});
  formats.push_back({"SGER", frames.at(2), [](const Bytes& input) {
                       return serve_outcome([&] { serve::decode_error(input); });
                     },
                     false, 3000});
  return formats;
}

const std::vector<Format>& formats() {
  static const std::vector<Format> all = make_formats();
  return all;
}

// --- the mutator --------------------------------------------------------

std::uint64_t lying_length(std::mt19937_64& rng, std::size_t bytes_after) {
  const std::uint64_t candidates[] = {0,
                                      1,
                                      2,
                                      0xff,
                                      0xffff,
                                      0x7fffffff,
                                      0xffffffff,
                                      1ULL << 20,
                                      1ULL << 32,
                                      1ULL << 62,
                                      1ULL << 63,
                                      ~0ULL,
                                      bytes_after,
                                      bytes_after + 1,
                                      bytes_after / 4,
                                      bytes_after / 8,
                                      bytes_after / 8 + 1,
                                      rng()};
  return candidates[rng() % std::size(candidates)];
}

template <class T>
void overwrite(Bytes& bytes, std::mt19937_64& rng) {
  if (bytes.size() < sizeof(T)) return;
  const std::size_t at = rng() % (bytes.size() - sizeof(T) + 1);
  const T value = static_cast<T>(lying_length(rng, bytes.size() - at - sizeof(T)));
  std::memcpy(bytes.data() + at, &value, sizeof value);
}

Bytes mutate(const Bytes& seed, std::mt19937_64& rng) {
  Bytes bytes = seed;
  const int rounds = 1 + static_cast<int>(rng() % 3);
  for (int round = 0; round < rounds; ++round) {
    switch (rng() % 5) {
      case 0:  // bit flips
        for (int flips = 1 + static_cast<int>(rng() % 8); flips > 0 && !bytes.empty(); --flips) {
          bytes[rng() % bytes.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        }
        break;
      case 1:  // truncation
        bytes.resize(bytes.empty() ? 0 : rng() % bytes.size());
        break;
      case 2:
        overwrite<std::uint32_t>(bytes, rng);
        break;
      case 3:
        overwrite<std::uint64_t>(bytes, rng);
        break;
      default: {  // splice: this input's head, another seed's tail
        const Bytes& other = formats()[rng() % formats().size()].seed;
        const std::size_t head = bytes.empty() ? 0 : rng() % (bytes.size() + 1);
        const std::size_t tail = rng() % (other.size() + 1);
        bytes.resize(head);
        bytes.insert(bytes.end(), other.end() - static_cast<long>(tail), other.end());
        break;
      }
    }
  }
  return bytes;
}

// Recomputes the checksum of every SGCP section whose declared size fits
// (header: u32 magic, u32 version, u64 iteration, u32 section count; each
// section: u32 id, u64 size, u64 checksum, payload).
void reseal(Bytes& bytes) {
  std::size_t at = 20;
  while (at + 20 <= bytes.size()) {
    std::uint64_t size = 0;
    std::memcpy(&size, bytes.data() + at + 4, sizeof size);
    if (size > bytes.size() - at - 20) return;
    const std::uint64_t checksum =
        binio::fnv1a64(std::span(bytes).subspan(at + 20, size));
    std::memcpy(bytes.data() + at + 12, &checksum, sizeof checksum);
    at += 20 + size;
  }
}

std::uint32_t run_seed() {
  return testing::GTEST_FLAG(random_seed) == 0
             ? 1u
             : static_cast<std::uint32_t>(testing::UnitTest::GetInstance()->random_seed());
}

class CodecFuzzTest : public testing::TestWithParam<std::size_t> {};

TEST_P(CodecFuzzTest, EveryCaseDecodesOrThrowsTyped) {
  const Format& format = formats().at(GetParam());
  ASSERT_EQ(format.decode(format.seed), Outcome::kDecoded) << format.name << " seed must decode";
  const std::uint32_t seed = run_seed();
  std::mt19937_64 rng((std::uint64_t{seed} << 8) | GetParam());
  long decoded = 0;
  long typed = 0;
  for (int c = 0; c < format.cases; ++c) {
    Bytes input = mutate(format.seed, rng);
    if (format.reseal && rng() % 2 == 0) reseal(input);
    try {
      if (format.decode(input) == Outcome::kDecoded) {
        ++decoded;
      } else {
        ++typed;
      }
    } catch (const std::exception& e) {
      FAIL() << format.name << " case " << c << " (--gtest_random_seed=" << seed
             << "): untyped exception: " << e.what();
    }
  }
  std::printf("[   fuzz   ] %s seed %u: %d cases, %ld decoded, %ld typed errors\n",
              format.name.c_str(), seed, format.cases, decoded, typed);
}

INSTANTIATE_TEST_SUITE_P(Formats, CodecFuzzTest, testing::Range<std::size_t>(0, 7),
                         [](const testing::TestParamInfo<std::size_t>& format) {
                           return formats().at(format.param).name;
                         });

// --- regressions the mutator found -------------------------------------

// The 577-byte SGCP seed with valid checksums whose first section
// declares 953,549 tensors: rejected before the list reserves 45.8 MB
// (48 B per nn::Tensor), not after.
TEST(CodecRegressionTest, TensorCountIsBoundedByTheBytesLeft) {
  Bytes bytes = formats().at(0).seed;
  const std::uint64_t count = 953549;
  std::memcpy(bytes.data() + 40, &count, sizeof count);  // the gen_params section's count
  reseal(bytes);
  const std::string path = scratch_path("lying_count.sgc");
  write_bytes(path, bytes);
  EXPECT_THROW(train::read_checkpoint(path), Error);
}

}  // namespace
}  // namespace spectra
