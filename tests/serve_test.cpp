// Serving-layer tests (DESIGN §6g): queue backpressure, cooperative
// cancellation, failure isolation, the wire protocol, the daemon loop's
// corrupt-request tolerance, and the determinism contract — a
// (seed, context, T) request returns bitwise-identical rows whether it
// is served alone, among 8 concurrent clients, or computed directly
// with generate_city.

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/trainer.h"
#include "geo/strip_accumulator.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/weights_registry.h"
#include "util/binio.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace spectra::serve {
namespace {

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
  return config;
}

constexpr long kGrid = 12;

std::shared_ptr<const core::SpectraGan> tiny_model() {
  static std::shared_ptr<const core::SpectraGan> model =
      std::make_shared<const core::SpectraGan>(tiny_config(), /*seed=*/12);
  return model;
}

geo::ContextTensor tiny_context(long channels) {
  geo::ContextTensor context(channels, kGrid, kGrid);
  Rng rng(99);
  for (double& v : context.values()) v = rng.uniform(0, 1);
  return context;
}

Request tiny_request(std::uint64_t seed) {
  Request request;
  request.seed = seed;
  request.steps = tiny_config().train_steps;
  request.context = tiny_context(tiny_config().context_channels);
  return request;
}

WireRequest tiny_wire(std::uint64_t id, std::uint64_t seed) {
  WireRequest w;
  w.id = id;
  w.seed = seed;
  w.steps = tiny_config().train_steps;
  w.channels = tiny_config().context_channels;
  w.height = kGrid;
  w.width = kGrid;
  w.context = tiny_context(tiny_config().context_channels).values();
  return w;
}

// An SGRQ payload declaring channels = 2^21 and height = width = 2^20
// with no context bytes: 2^61 cells, whose byte count wraps a 64-bit
// size_t to exactly the 0 bytes present.
std::vector<std::uint8_t> overflowing_request_payload() {
  WireRequest request;
  request.id = 5;
  request.seed = 6;
  request.steps = 4;
  request.channels = 1;
  request.height = 1;
  request.width = 1;
  request.context = {0.0};
  std::vector<std::uint8_t> payload = encode_request(request);
  payload.resize(payload.size() - sizeof(double));
  // channels, height, width follow type, version, id, seed and steps.
  const std::uint32_t extents[3] = {1u << 21, 1u << 20, 1u << 20};
  std::memcpy(payload.data() + 28, extents, sizeof extents);
  return payload;
}

geo::CityTensor direct_city(std::uint64_t seed) {
  Rng rng(seed);
  return tiny_model()->generate_city(tiny_context(tiny_config().context_channels),
                                     tiny_config().train_steps, rng);
}

// A sink whose first row blocks until open() — pins a request inside
// the worker so tests can fill the queue or cancel mid-stream
// deterministically.
class GateSink : public geo::RowSink {
 public:
  void consume_row(long, const std::vector<double>&) override {
    std::unique_lock lock(mutex_);
    ++rows_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void open() {
    std::lock_guard lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void wait_first_row() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return rows_ > 0; });
  }
  long rows() {
    std::lock_guard lock(mutex_);
    return rows_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  long rows_ = 0;
};

// --- backpressure -----------------------------------------------------------

TEST(ServeQueueTest, RejectsWhenFullAndParksWhenBlocking) {
  obs::Counter& rejected = obs::Registry::instance().counter("serve.requests_rejected");
  const std::uint64_t rejected_before = rejected.value();

  ServerOptions options;
  options.workers = 1;
  options.queue_limit = 1;
  Server server(tiny_model(), options);

  // Pin the single worker inside a request...
  GateSink gate;
  RequestHandle running = server.submit(tiny_request(1), gate);
  gate.wait_first_row();
  // ...fill the one queue slot...
  geo::CityTensorSink queued_sink(tiny_config().train_steps, kGrid, kGrid);
  RequestHandle queued = server.submit(tiny_request(2), queued_sink);
  // ...and the queue is full: kReject throws the typed error.
  geo::CityTensorSink reject_sink(tiny_config().train_steps, kGrid, kGrid);
  EXPECT_THROW(server.submit(tiny_request(3), reject_sink, Server::OnFull::kReject),
               QueueFullError);
  EXPECT_EQ(rejected.value(), rejected_before + 1);

  // kBlock parks instead: the submit only returns once the worker frees
  // a slot, and the request then completes normally.
  geo::CityTensorSink parked_sink(tiny_config().train_steps, kGrid, kGrid);
  ThreadPool client(1);
  RequestState parked_state = RequestState::kFailed;  // published by future.get()
  std::future<void> parked = client.submit([&] {
    parked_state = server.submit(tiny_request(4), parked_sink, Server::OnFull::kBlock).wait();
  });
  gate.open();
  parked.get();
  EXPECT_EQ(parked_state, RequestState::kDone);
  EXPECT_EQ(running.wait(), RequestState::kDone);
  EXPECT_EQ(queued.wait(), RequestState::kDone);
  EXPECT_EQ(parked_sink.take().values(), direct_city(4).values());
}

// --- cancellation -----------------------------------------------------------

TEST(ServeCancelTest, CancelMidStreamStopsRowDelivery) {
  obs::Counter& cancelled = obs::Registry::instance().counter("serve.requests_cancelled");
  const std::uint64_t cancelled_before = cancelled.value();

  ServerOptions options;
  options.workers = 1;
  options.queue_limit = 4;
  Server server(tiny_model(), options);

  GateSink gate;
  RequestHandle handle = server.submit(tiny_request(5), gate);
  gate.wait_first_row();  // exactly one row delivered, worker pinned
  handle.cancel();
  gate.open();
  EXPECT_EQ(handle.wait(), RequestState::kCancelled);
  // The cancel flag is checked before every delivery: after cancel() no
  // further rows reached the sink.
  EXPECT_EQ(gate.rows(), 1);
  EXPECT_EQ(handle.rows_streamed(), 1);
  EXPECT_EQ(cancelled.value(), cancelled_before + 1);

  // The worker survives a cancellation and keeps serving.
  geo::CityTensorSink sink(tiny_config().train_steps, kGrid, kGrid);
  EXPECT_EQ(server.submit(tiny_request(6), sink).wait(), RequestState::kDone);
}

// --- failure isolation ------------------------------------------------------

TEST(ServeFailureTest, BadRequestFailsWithoutKillingServer) {
  obs::Counter& failed = obs::Registry::instance().counter("serve.requests_failed");
  const std::uint64_t failed_before = failed.value();

  ServerOptions options;
  options.workers = 2;
  options.queue_limit = 4;
  Server server(tiny_model(), options);

  // Wrong channel count: the model's precondition check throws inside
  // the worker; the request fails, the server does not.
  Request bad;
  bad.seed = 7;
  bad.steps = tiny_config().train_steps;
  bad.context = tiny_context(/*channels=*/1);
  geo::CityTensorSink bad_sink(tiny_config().train_steps, kGrid, kGrid);
  RequestHandle handle = server.submit(std::move(bad), bad_sink);
  EXPECT_EQ(handle.wait(), RequestState::kFailed);
  EXPECT_FALSE(handle.error().empty());
  EXPECT_EQ(failed.value(), failed_before + 1);

  geo::CityTensorSink sink(tiny_config().train_steps, kGrid, kGrid);
  RequestHandle ok = server.submit(tiny_request(8), sink);
  EXPECT_EQ(ok.wait(), RequestState::kDone);
  EXPECT_EQ(sink.take().values(), direct_city(8).values());
}

// --- determinism ------------------------------------------------------------

// The load-bearing contract: 8 concurrent clients and 1 sequential
// client produce bitwise-identical rows, both equal to direct
// generation. Runs under TSan in CI, where it doubles as the data-race
// proof for the shared model + per-request workspaces.
TEST(ServeDeterminismTest, OneVsEightClientsBitwiseIdentical) {
  constexpr long kClients = 8;
  std::vector<geo::CityTensor> reference;
  for (long c = 0; c < kClients; ++c) {
    reference.push_back(direct_city(100 + static_cast<std::uint64_t>(c)));
  }

  // 8 concurrent in-flight requests on 8 workers.
  std::vector<std::vector<double>> concurrent(kClients);
  {
    ServerOptions options;
    options.workers = kClients;
    options.queue_limit = kClients;
    Server server(tiny_model(), options);
    std::vector<std::unique_ptr<geo::CityTensorSink>> sinks;
    std::vector<RequestHandle> handles;
    for (long c = 0; c < kClients; ++c) {
      sinks.push_back(std::make_unique<geo::CityTensorSink>(tiny_config().train_steps, kGrid,
                                                            kGrid));
      handles.push_back(server.submit(tiny_request(100 + static_cast<std::uint64_t>(c)),
                                      *sinks.back(), Server::OnFull::kBlock));
    }
    for (long c = 0; c < kClients; ++c) {
      ASSERT_EQ(handles[static_cast<std::size_t>(c)].wait(), RequestState::kDone);
      concurrent[static_cast<std::size_t>(c)] =
          sinks[static_cast<std::size_t>(c)]->take().values();
    }
  }

  // The same requests, one at a time on a single worker.
  std::vector<std::vector<double>> sequential(kClients);
  {
    ServerOptions options;
    options.workers = 1;
    options.queue_limit = 1;
    Server server(tiny_model(), options);
    for (long c = 0; c < kClients; ++c) {
      geo::CityTensorSink sink(tiny_config().train_steps, kGrid, kGrid);
      ASSERT_EQ(
          server.submit(tiny_request(100 + static_cast<std::uint64_t>(c)), sink).wait(),
          RequestState::kDone);
      sequential[static_cast<std::size_t>(c)] = sink.take().values();
    }
  }

  for (long c = 0; c < kClients; ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    EXPECT_EQ(concurrent[i], reference[i].values()) << "client " << c << " (concurrent)";
    EXPECT_EQ(sequential[i], reference[i].values()) << "client " << c << " (sequential)";
  }
}

// --- weights registry -------------------------------------------------------

TEST(WeightsRegistryTest, SharesOneInstancePerKey) {
  WeightsRegistry registry;
  auto a = registry.get_or_load(tiny_config(), "", 12);
  auto b = registry.get_or_load(tiny_config(), "", 12);
  EXPECT_EQ(a.get(), b.get());
  auto c = registry.get_or_load(tiny_config(), "", 13);
  EXPECT_NE(a.get(), c.get());
  EXPECT_THROW(registry.get_or_load(tiny_config(), "/nonexistent/ckpt-dir", 12),
               spectra::Error);
}

// --- wire protocol ----------------------------------------------------------

TEST(ServeProtocolTest, RequestRoundTripsBitwise) {
  WireRequest request;
  request.id = 42;
  request.seed = 4711;
  request.steps = 24;
  request.channels = 3;
  request.height = 5;
  request.width = 7;
  request.aggregation = geo::OverlapAggregation::kMedian;
  Rng rng(3);
  request.context.resize(3 * 5 * 7);
  for (double& v : request.context) v = rng.uniform(-1, 1);

  const WireRequest back = decode_request(encode_request(request));
  EXPECT_EQ(back.id, request.id);
  EXPECT_EQ(back.seed, request.seed);
  EXPECT_EQ(back.steps, request.steps);
  EXPECT_EQ(back.channels, request.channels);
  EXPECT_EQ(back.height, request.height);
  EXPECT_EQ(back.width, request.width);
  EXPECT_EQ(back.aggregation, request.aggregation);
  EXPECT_EQ(back.context, request.context);
}

TEST(ServeProtocolTest, MalformedPayloadsThrowTyped) {
  WireRequest request;
  request.id = 1;
  request.seed = 2;
  request.steps = 4;
  request.channels = 1;
  request.height = 2;
  request.width = 2;
  request.context.assign(4, 0.5);
  std::vector<std::uint8_t> good = encode_request(request);

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFFu;
  EXPECT_THROW(decode_request(bad_magic), ProtocolError);

  std::vector<std::uint8_t> truncated = good;
  truncated.resize(truncated.size() - 8);  // context no longer matches shape
  EXPECT_THROW(decode_request(truncated), ProtocolError);

  EXPECT_THROW(decode_request(std::vector<std::uint8_t>{1, 2, 3}), ProtocolError);
  EXPECT_THROW(decode_row(good), ProtocolError);   // wrong frame type
  EXPECT_THROW(decode_done(good), ProtocolError);  // wrong frame type
}

TEST(ServeProtocolTest, OverflowingContextShapeThrowsTyped) {
  EXPECT_THROW(decode_request(overflowing_request_payload()), ProtocolError);
}

// Fixed frames of exactly representable values, compared with the size
// and FNV-1a 64 digest each payload had when this case was recorded:
// fails if any field's width or order changes.
TEST(ServeProtocolTest, FrameBytesArePinned) {
  WireRequest request;
  request.id = 0x0102030405060708ULL;
  request.seed = 99;
  request.steps = 24;
  request.channels = 1;
  request.height = 2;
  request.width = 2;
  request.aggregation = geo::OverlapAggregation::kMedian;
  request.context = {0.5, -1.0, 2.0, 0.25};
  const std::vector<std::uint8_t> sgrq = encode_request(request);
  EXPECT_EQ(sgrq.size(), 73u);
  EXPECT_EQ(binio::fnv1a64(sgrq), 0x0bd4a9cf6d97d7ebULL);

  std::FILE* stream = std::tmpfile();
  ASSERT_NE(stream, nullptr);
  FrameWriter writer(stream);
  writer.write_row(7, 3, {1.5, -2.0, 0.0});
  writer.write_done(7, RequestState::kFailed, 12, "bad shape");
  writer.write_error("truncated");
  std::rewind(stream);
  const std::pair<std::size_t, std::uint64_t> expected[] = {
      {44, 0xf6d6a16552801b54ULL},  // SGRW
      {30, 0xc41db289160a50faULL},  // SGDN
      {17, 0x42839756ef04ff77ULL},  // SGER
  };
  std::vector<std::uint8_t> payload;
  for (const auto& [size, digest] : expected) {
    ASSERT_TRUE(read_frame(stream, payload));
    EXPECT_EQ(payload.size(), size);
    EXPECT_EQ(binio::fnv1a64(payload), digest);
  }
  EXPECT_FALSE(read_frame(stream, payload));
  std::fclose(stream);
}

// A row of zero values decodes without copying into the null data() of
// an empty vector.
TEST(ServeProtocolTest, EmptyRowDecodes) {
  std::FILE* stream = std::tmpfile();
  ASSERT_NE(stream, nullptr);
  FrameWriter(stream).write_row(5, 0, {});
  std::rewind(stream);
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(stream, payload));
  const WireRow row = decode_row(payload);
  EXPECT_EQ(row.id, 5u);
  EXPECT_TRUE(row.values.empty());
  std::fclose(stream);
}

// --- daemon loop ------------------------------------------------------------

// Drive daemon_loop in-process over tmpfile streams: two valid requests
// bracketing two corrupt ones. The corrupt frames are answered with
// SGER and the daemon keeps serving — both valid requests stream every
// row and the reassembled cities are bitwise equal to direct
// generation.
TEST(ServeDaemonTest, CorruptRequestsAnsweredWithoutDaemonDeath) {
  obs::Counter& proto_errors = obs::Registry::instance().counter("serve.protocol_errors");
  const std::uint64_t errors_before = proto_errors.value();

  const core::SpectraGanConfig config = tiny_config();
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);

  write_frame(in, encode_request(tiny_wire(7, 200)));
  write_frame(in, std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF, 0x00});  // bad magic
  std::vector<std::uint8_t> torn_payload = encode_request(tiny_wire(8, 201));
  torn_payload.resize(torn_payload.size() - 16);  // context shorter than declared shape
  write_frame(in, torn_payload);
  write_frame(in, encode_request(tiny_wire(9, 202)));
  std::rewind(in);

  ServerOptions options;
  options.workers = 2;
  options.queue_limit = 4;
  Server server(tiny_model(), options);
  const DaemonStats stats = daemon_loop(in, out, server);
  server.stop();

  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.protocol_errors, 2);
  EXPECT_EQ(proto_errors.value(), errors_before + 2);

  // Demultiplex the response stream.
  std::rewind(out);
  std::map<std::uint64_t, geo::CityTensorSink> cities;
  cities.emplace(7, geo::CityTensorSink(config.train_steps, kGrid, kGrid));
  cities.emplace(9, geo::CityTensorSink(config.train_steps, kGrid, kGrid));
  std::map<std::uint64_t, WireDone> done;
  long error_frames = 0;
  std::vector<std::uint8_t> payload;
  while (read_frame(out, payload)) {
    switch (frame_type(payload)) {
      case FrameType::kRow: {
        const WireRow row = decode_row(payload);
        ASSERT_TRUE(cities.contains(row.id)) << "row for unknown request " << row.id;
        cities.at(row.id).consume_row(row.row, row.values);
        break;
      }
      case FrameType::kDone: {
        const WireDone d = decode_done(payload);
        done.emplace(d.id, d);
        break;
      }
      case FrameType::kError:
        ++error_frames;
        break;
      default:
        FAIL() << "unexpected frame type from daemon";
    }
  }
  EXPECT_EQ(error_frames, 2);
  ASSERT_TRUE(done.contains(7));
  ASSERT_TRUE(done.contains(9));
  EXPECT_EQ(done.at(7).state, RequestState::kDone);
  EXPECT_EQ(done.at(9).state, RequestState::kDone);
  EXPECT_EQ(done.at(7).rows, kGrid);
  EXPECT_EQ(done.at(9).rows, kGrid);
  EXPECT_EQ(cities.at(7).take().values(), direct_city(200).values());
  EXPECT_EQ(cities.at(9).take().values(), direct_city(202).values());

  std::fclose(in);
  std::fclose(out);
}

// A request whose declared shape overflows the context byte count is
// answered with SGER like any malformed payload, and the session goes on
// to serve the valid request behind it.
TEST(ServeDaemonTest, OverflowingShapeAnsweredAndSessionContinues) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  write_frame(in, overflowing_request_payload());
  write_frame(in, encode_request(tiny_wire(11, 300)));
  std::rewind(in);

  Server server(tiny_model(), ServerOptions{.workers = 1, .queue_limit = 1});
  const DaemonStats stats = daemon_loop(in, out, server);
  server.stop();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.protocol_errors, 1);

  std::rewind(out);
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(out, payload));
  EXPECT_EQ(frame_type(payload), FrameType::kError);
  geo::CityTensorSink city(tiny_config().train_steps, kGrid, kGrid);
  long done_frames = 0;
  while (read_frame(out, payload)) {
    if (frame_type(payload) == FrameType::kRow) {
      const WireRow row = decode_row(payload);
      city.consume_row(row.row, row.values);
    } else {
      ASSERT_EQ(frame_type(payload), FrameType::kDone);
      const WireDone done = decode_done(payload);
      EXPECT_EQ(done.id, 11u);
      EXPECT_EQ(done.state, RequestState::kDone);
      ++done_frames;
    }
  }
  EXPECT_EQ(done_frames, 1);
  EXPECT_EQ(city.take().values(), direct_city(300).values());

  std::fclose(in);
  std::fclose(out);
}

// A torn stream (length prefix promising more bytes than exist) ends
// the session cleanly: an SGER frame, no crash, and requests already
// accepted still drain.
TEST(ServeDaemonTest, TornStreamEndsSessionCleanly) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);

  const std::uint32_t lying_length = 1000;
  ASSERT_EQ(std::fwrite(&lying_length, sizeof lying_length, 1, in), 1u);
  const std::uint8_t stub[4] = {1, 2, 3, 4};  // far fewer than promised
  ASSERT_EQ(std::fwrite(stub, 1, sizeof stub, in), sizeof stub);
  std::rewind(in);

  Server server(tiny_model(), ServerOptions{.workers = 1, .queue_limit = 1});
  const DaemonStats stats = daemon_loop(in, out, server);
  EXPECT_EQ(stats.requests, 0);
  EXPECT_EQ(stats.protocol_errors, 1);

  std::rewind(out);
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(out, payload));
  EXPECT_EQ(frame_type(payload), FrameType::kError);
  EXPECT_FALSE(decode_error(payload).empty());
  EXPECT_FALSE(read_frame(out, payload));  // nothing after the SGER

  std::fclose(in);
  std::fclose(out);
}

}  // namespace
}  // namespace spectra::serve
