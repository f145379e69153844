// Crash-safe checkpoint/resume: snapshot format round-trips (params,
// Adam moments, Rng streams, histories), atomic-write + retention
// behaviour, corruption fallback, serialize.cpp error paths, the pinned
// bytes of the SGCP and SGNN formats, and the headline determinism
// guarantee — interrupt-at-N + resume reproduces an uninterrupted run
// bitwise.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "core/config.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/sampler.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "train/checkpoint.h"
#include "util/binio.h"
#include "util/error.h"
#include "util/rng.h"

namespace spectra {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory.
std::string scratch_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/sg_ckpt_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void truncate_file(const std::string& path, std::uintmax_t keep_bytes) {
  fs::resize_file(path, keep_bytes);
}

std::vector<nn::Var> make_params() {
  std::vector<nn::Var> params;
  Rng rng(7);
  for (const nn::Shape& shape : {nn::Shape{3, 4}, nn::Shape{5}, nn::Shape{2, 2, 2}}) {
    nn::Tensor t(shape);
    for (long i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.normal());
    params.push_back(nn::Var::leaf(std::move(t)));
  }
  return params;
}

// --- serialize.cpp error paths ----------------------------------------

TEST(SerializeErrorTest, TruncatedFileThrows) {
  const std::string dir = scratch_dir("ser_trunc");
  const std::string path = dir + "/params.bin";
  std::vector<nn::Var> params = make_params();
  nn::save_parameters(path, params);

  const std::uintmax_t full = fs::file_size(path);
  for (std::uintmax_t keep : {full - 1, full / 2, std::uintmax_t{6}, std::uintmax_t{0}}) {
    truncate_file(path, keep);
    std::vector<nn::Var> dst = make_params();
    EXPECT_THROW(nn::load_parameters(path, dst), Error) << "kept " << keep << " bytes";
    nn::save_parameters(path, params);  // restore for the next round
  }
}

TEST(SerializeErrorTest, ShapeAndCountMismatchThrow) {
  const std::string dir = scratch_dir("ser_shape");
  const std::string path = dir + "/params.bin";
  std::vector<nn::Var> params = make_params();
  nn::save_parameters(path, params);

  std::vector<nn::Var> wrong_shape = make_params();
  wrong_shape[1] = nn::Var::leaf(nn::Tensor({6}));  // file has {5}
  EXPECT_THROW(nn::load_parameters(path, wrong_shape), Error);

  std::vector<nn::Var> wrong_rank = make_params();
  wrong_rank[0] = nn::Var::leaf(nn::Tensor({3, 4, 1}));  // file has rank 2
  EXPECT_THROW(nn::load_parameters(path, wrong_rank), Error);

  std::vector<nn::Var> too_few(params.begin(), params.begin() + 2);
  EXPECT_THROW(nn::load_parameters(path, too_few), Error);
}

TEST(SerializeErrorTest, ZeroParameterListRoundTrips) {
  const std::string dir = scratch_dir("ser_zero");
  const std::string path = dir + "/empty.bin";
  std::vector<nn::Var> none;
  nn::save_parameters(path, none);
  EXPECT_NO_THROW(nn::load_parameters(path, none));

  std::vector<nn::Var> some = make_params();
  EXPECT_THROW(nn::load_parameters(path, some), Error);
}

TEST(SerializeErrorTest, NonParameterFileRejected) {
  const std::string dir = scratch_dir("ser_magic");
  const std::string path = dir + "/junk.bin";
  std::ofstream(path, std::ios::binary) << "definitely not a parameter file";
  std::vector<nn::Var> params = make_params();
  EXPECT_THROW(nn::load_parameters(path, params), Error);
}

// --- Rng state round-trip ---------------------------------------------

TEST(RngStateTest, RestoreReplaysStreamExactly) {
  Rng rng(123);
  for (int i = 0; i < 17; ++i) rng.next_u64();
  (void)rng.normal();  // leaves a cached Box-Muller sample pending

  const RngState saved = rng.state();
  EXPECT_TRUE(saved.has_cached_normal);

  std::vector<double> expected;
  for (int i = 0; i < 9; ++i) expected.push_back(rng.normal());
  for (int i = 0; i < 5; ++i) expected.push_back(rng.uniform());

  Rng replay(999);  // unrelated seed; state restore must override it
  replay.set_state(saved);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const double v = i < 9 ? replay.normal() : replay.uniform();
    EXPECT_EQ(v, expected[i]) << "draw " << i;
  }
}

// --- checkpoint snapshot round-trip -----------------------------------

train::TrainingSnapshot make_snapshot(std::uint64_t iteration) {
  // Drive an Adam a few steps so moments and step count are non-trivial.
  std::vector<nn::Var> params = make_params();
  nn::Adam opt(params, 1e-2f);
  Rng grad_rng(31);
  for (int s = 0; s < 3; ++s) {
    opt.zero_grad();
    for (nn::Var& p : params) {
      nn::Tensor& g = p.grad_storage();
      for (long i = 0; i < g.numel(); ++i) g[i] = static_cast<float>(grad_rng.normal());
    }
    opt.step();
  }

  train::TrainingSnapshot snap;
  snap.iteration = iteration;
  for (const nn::Var& p : params) snap.gen_params.push_back(p.value());
  snap.disc_params.push_back(nn::Tensor::full({2, 3}, 0.25f));
  snap.opt_g = {static_cast<std::uint64_t>(opt.step_count()), opt.first_moments(),
                opt.second_moments()};
  snap.opt_d = {0, {}, {}};
  Rng rng(77);
  for (int i = 0; i < 11; ++i) rng.normal();
  snap.rng = rng.state();
  snap.stats.d_loss = {0.5, 0.25};
  snap.stats.g_adv_loss = {1.5, 1.25};
  snap.stats.l1_loss = {2.5, 2.25};
  snap.stats.grad_norm_d = {3.0, 3.5};
  snap.stats.grad_norm_g = {4.0, 4.5};
  snap.stats.iter_seconds = {0.01, 0.02};
  return snap;
}

void expect_tensors_eq(const std::vector<nn::Tensor>& a, const std::vector<nn::Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_TRUE(a[k].same_shape(b[k]));
    for (long i = 0; i < a[k].numel(); ++i) EXPECT_EQ(a[k][i], b[k][i]);
  }
}

TEST(CheckpointTest, AdamMomentsAndRngStateRoundTripBitwise) {
  const std::string dir = scratch_dir("roundtrip");
  const train::TrainingSnapshot snap = make_snapshot(42);
  const std::string path = train::write_checkpoint(dir, snap, 3);
  EXPECT_EQ(fs::path(path).filename().string(), train::checkpoint_filename(42));

  const train::TrainingSnapshot back = train::read_checkpoint(path);
  EXPECT_EQ(back.iteration, 42u);
  expect_tensors_eq(back.gen_params, snap.gen_params);
  expect_tensors_eq(back.disc_params, snap.disc_params);
  EXPECT_EQ(back.opt_g.step_count, snap.opt_g.step_count);
  expect_tensors_eq(back.opt_g.m, snap.opt_g.m);
  expect_tensors_eq(back.opt_g.v, snap.opt_g.v);
  EXPECT_EQ(back.opt_d.step_count, 0u);
  EXPECT_TRUE(back.opt_d.m.empty());
  EXPECT_EQ(back.rng.state, snap.rng.state);
  EXPECT_EQ(back.rng.has_cached_normal, snap.rng.has_cached_normal);
  EXPECT_EQ(back.rng.cached_normal, snap.rng.cached_normal);
  EXPECT_EQ(back.stats.d_loss, snap.stats.d_loss);
  EXPECT_EQ(back.stats.g_adv_loss, snap.stats.g_adv_loss);
  EXPECT_EQ(back.stats.l1_loss, snap.stats.l1_loss);
  EXPECT_EQ(back.stats.grad_norm_d, snap.stats.grad_norm_d);
  EXPECT_EQ(back.stats.grad_norm_g, snap.stats.grad_norm_g);
  EXPECT_EQ(back.stats.iter_seconds, snap.stats.iter_seconds);

  // The Adam moments survive an optimizer restore round-trip too.
  std::vector<nn::Var> params = make_params();
  nn::Adam opt(params, 1e-2f);
  opt.restore_state(static_cast<long>(back.opt_g.step_count), back.opt_g.m, back.opt_g.v);
  EXPECT_EQ(opt.step_count(), 3);
  expect_tensors_eq(opt.first_moments(), snap.opt_g.m);
  expect_tensors_eq(opt.second_moments(), snap.opt_g.v);

  // And shape/count mismatches are rejected.
  std::vector<nn::Tensor> bad_m = back.opt_g.m;
  bad_m.pop_back();
  EXPECT_THROW(opt.restore_state(3, bad_m, back.opt_g.v), Error);
  bad_m = back.opt_g.m;
  bad_m[0] = nn::Tensor({9, 9});
  EXPECT_THROW(opt.restore_state(3, bad_m, back.opt_g.v), Error);
}

TEST(CheckpointTest, ListOrderRetentionAndAtomicity) {
  const std::string dir = scratch_dir("retention");
  for (std::uint64_t it : {5u, 10u, 15u}) {
    train::write_checkpoint(dir, make_snapshot(it), 2);
  }
  const std::vector<std::string> kept = train::list_checkpoints(dir);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(fs::path(kept[0]).filename().string(), train::checkpoint_filename(10));
  EXPECT_EQ(fs::path(kept[1]).filename().string(), train::checkpoint_filename(15));

  // Atomic write leaves no tmp droppings, and stray files are ignored.
  std::ofstream(dir + "/notes.txt") << "not a checkpoint";
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().extension(), e.path().filename() == "notes.txt" ? ".txt" : ".sgc");
  }
  EXPECT_EQ(train::list_checkpoints(dir).size(), 2u);

  EXPECT_EQ(train::list_checkpoints(dir + "/does_not_exist").size(), 0u);
}

TEST(CheckpointTest, CorruptOrTruncatedSnapshotFallsBackToLastGood) {
  const std::string dir = scratch_dir("fallback");
  EXPECT_FALSE(train::load_latest(dir).has_value());

  train::write_checkpoint(dir, make_snapshot(8), 5);
  const std::string newest = train::write_checkpoint(dir, make_snapshot(16), 5);

  // Torn write: drop the tail (footer + part of the stats section).
  truncate_file(newest, fs::file_size(newest) - 37);
  EXPECT_THROW(train::read_checkpoint(newest), Error);
  std::optional<train::TrainingSnapshot> snap = train::load_latest(dir);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->iteration, 8u);

  // Flipped payload byte: checksum catches it even with intact framing.
  const std::string mid = train::write_checkpoint(dir, make_snapshot(24), 5);
  {
    std::fstream f(mid, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(mid) / 2));
    f.put('\x5a');
  }
  snap = train::load_latest(dir);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->iteration, 8u);

  // Everything corrupt => nullopt.
  for (const std::string& path : train::list_checkpoints(dir)) truncate_file(path, 3);
  EXPECT_FALSE(train::load_latest(dir).has_value());
}

// A snapshot whose every tensor has a zero extent and whose histories
// are empty: each tensor's data is a zero-byte copy from or to the null
// data() of its empty storage.
TEST(CheckpointTest, ZeroExtentTensorsRoundTrip) {
  const std::string dir = scratch_dir("zero_extent");
  train::TrainingSnapshot snap;
  snap.iteration = 3;
  snap.gen_params = {nn::Tensor({0, 3}), nn::Tensor({2})};
  snap.disc_params = {nn::Tensor({0})};
  snap.opt_g = {1, {nn::Tensor({4, 0})}, {nn::Tensor({4, 0})}};
  const train::TrainingSnapshot back =
      train::read_checkpoint(train::write_checkpoint(dir, snap, 1));
  expect_tensors_eq(back.gen_params, snap.gen_params);
  expect_tensors_eq(back.disc_params, snap.disc_params);
  expect_tensors_eq(back.opt_g.m, snap.opt_g.m);
  expect_tensors_eq(back.opt_g.v, snap.opt_g.v);
  EXPECT_TRUE(back.stats.d_loss.empty());
}

// --- pinned bytes -------------------------------------------------------
//
// Fixed inputs of exactly representable values, encoded and compared with
// the size and FNV-1a 64 digest the formats had when these cases were
// recorded. A round trip passes under a format change made on both sides;
// these fail if any field's width or order changes.

TEST(FormatBytesTest, CheckpointBytesArePinned) {
  train::TrainingSnapshot snap;
  snap.iteration = 42;
  snap.gen_params = {nn::Tensor({2, 3}, {0.5f, -1.0f, 2.0f, 0.25f, 3.0f, -0.125f}),
                     nn::Tensor({1}, {8.0f})};
  snap.disc_params = {nn::Tensor::full({2}, 0.75f)};
  snap.opt_g = {5,
                {nn::Tensor::full({2, 3}, 0.5f), nn::Tensor::full({1}, 1.5f)},
                {nn::Tensor::full({2, 3}, 0.25f), nn::Tensor::full({1}, 2.0f)}};
  snap.rng = {0x0123456789abcdefULL, true, -1.25};
  snap.stats.d_loss = {0.5, 0.25};
  snap.stats.g_adv_loss = {1.5};
  snap.stats.l1_loss = {2.5, 2.25, 2.0};
  snap.stats.grad_norm_g = {4.0};
  snap.stats.iter_seconds = {0.125};
  const binio::Bytes bytes =
      binio::read_file(train::write_checkpoint(scratch_dir("pinned_sgcp"), snap, 1));
  EXPECT_EQ(bytes.size(), 537u);
  EXPECT_EQ(binio::fnv1a64(bytes), 0x78e1cea509525223ULL);
}

TEST(FormatBytesTest, ParameterFileBytesArePinned) {
  const std::string path = scratch_dir("pinned_sgnn") + "/params.sgnn";
  nn::save_parameters(path, {nn::Var::leaf(nn::Tensor({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f})),
                             nn::Var::leaf(nn::Tensor({3}, {-0.5f, 0.5f, 1.5f}))});
  const binio::Bytes bytes = binio::read_file(path);
  EXPECT_EQ(bytes.size(), 80u);
  EXPECT_EQ(binio::fnv1a64(bytes), 0x74cff06385b1f799ULL);
}

// --- the determinism guarantee ----------------------------------------

core::SpectraGanConfig tiny_config() {
  core::SpectraGanConfig config;
  config.train_steps = 24;
  config.spectrum_bins = 8;
  config.hidden_channels = 6;
  config.encoder_mid_channels = 8;
  config.spectrum_mid_channels = 8;
  config.lstm_hidden = 8;
  config.cond_dim = 8;
  config.disc_mlp_hidden = 8;
  config.noise_channels = 2;
  config.iterations = 10;
  config.batch = 2;
  return config;
}

void expect_params_bitwise_eq(const core::SpectraGan& a, const core::SpectraGan& b) {
  const auto compare = [](const std::vector<nn::Var>& pa, const std::vector<nn::Var>& pb) {
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t k = 0; k < pa.size(); ++k) {
      ASSERT_TRUE(pa[k].value().same_shape(pb[k].value()));
      for (long i = 0; i < pa[k].value().numel(); ++i) {
        ASSERT_EQ(pa[k].value()[i], pb[k].value()[i]) << "param " << k << " elem " << i;
      }
    }
  };
  compare(a.generator_parameters(), b.generator_parameters());
  compare(a.discriminator_parameters(), b.discriminator_parameters());
}

void expect_histories_bitwise_eq(const core::TrainStats& a, const core::TrainStats& b) {
  EXPECT_EQ(a.d_loss_history, b.d_loss_history);
  EXPECT_EQ(a.g_adv_loss_history, b.g_adv_loss_history);
  EXPECT_EQ(a.l1_loss_history, b.l1_loss_history);
  EXPECT_EQ(a.grad_norm_d_history, b.grad_norm_d_history);
  EXPECT_EQ(a.grad_norm_g_history, b.grad_norm_g_history);
}

TEST(TrainResumeTest, InterruptedRunResumesBitwiseIdentical) {
  data::DatasetConfig dc;
  dc.weeks = 1;
  const data::CountryDataset dataset = data::make_country2(dc);
  const core::SpectraGanConfig config = tiny_config();
  const data::PatchSampler sampler(dataset, {0, 1}, config.patch, 0, config.train_steps);

  // Reference: uninterrupted, checkpointing off.
  core::SpectraGan ref(config, 12);
  Rng ref_rng(13);
  const core::TrainStats ref_stats = ref.train(sampler, ref_rng, {});
  EXPECT_EQ(ref_stats.resumed_iteration, 0);
  ASSERT_EQ(ref_stats.iterations, config.iterations);

  // "Crash" after 6 of 10 iterations (snapshots at 3 and 6): simply stop.
  const std::string dir = scratch_dir("resume");
  train::CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.every = 3;
  ckpt.keep_last = 2;
  {
    core::SpectraGanConfig partial = config;
    partial.iterations = 6;
    core::SpectraGan interrupted(partial, 12);
    Rng rng(13);
    interrupted.train(sampler, rng, ckpt);
  }

  // Resume in a fresh process-equivalent: different init seed and rng
  // seed, so every bit of the continuation must come from the snapshot.
  core::SpectraGan resumed(config, 999);
  Rng resumed_rng(4242);
  const core::TrainStats res_stats = resumed.train(sampler, resumed_rng, ckpt);
  EXPECT_EQ(res_stats.resumed_iteration, 6);
  EXPECT_EQ(res_stats.iterations, config.iterations);

  expect_histories_bitwise_eq(ref_stats, res_stats);
  expect_params_bitwise_eq(ref, resumed);
  EXPECT_EQ(ref_rng.state().state, resumed_rng.state().state);
}

TEST(TrainResumeTest, ResumeSkipsCorruptNewestSnapshot) {
  data::DatasetConfig dc;
  dc.weeks = 1;
  const data::CountryDataset dataset = data::make_country2(dc);
  core::SpectraGanConfig config = tiny_config();
  config.iterations = 8;
  const data::PatchSampler sampler(dataset, {0, 1}, config.patch, 0, config.train_steps);

  core::SpectraGan ref(config, 12);
  Rng ref_rng(13);
  const core::TrainStats ref_stats = ref.train(sampler, ref_rng, {});

  const std::string dir = scratch_dir("resume_corrupt");
  train::CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.every = 3;
  ckpt.keep_last = 3;
  {
    core::SpectraGanConfig partial = config;
    partial.iterations = 7;  // snapshots at 3 and 6
    core::SpectraGan interrupted(partial, 12);
    Rng rng(13);
    interrupted.train(sampler, rng, ckpt);
  }
  const std::vector<std::string> snaps = train::list_checkpoints(dir);
  ASSERT_EQ(snaps.size(), 2u);
  truncate_file(snaps.back(), fs::file_size(snaps.back()) / 2);

  core::SpectraGan resumed(config, 999);
  Rng resumed_rng(4242);
  const core::TrainStats res_stats = resumed.train(sampler, resumed_rng, ckpt);
  EXPECT_EQ(res_stats.resumed_iteration, 3);  // fell back past the torn iteration-6 file
  expect_histories_bitwise_eq(ref_stats, res_stats);
  expect_params_bitwise_eq(ref, resumed);
}

}  // namespace
}  // namespace spectra
