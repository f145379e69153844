#include "serve/protocol.h"

#include <array>
#include <memory>
#include <utility>

#include "geo/city_tensor.h"
#include "obs/metrics.h"
#include "util/binio.h"

namespace spectra::serve {

namespace {

using WireReader = binio::Reader<ProtocolError>;

// Starts a payload with its frame type.
binio::Writer frame(FrameType type) {
  binio::Writer w;
  w.put(static_cast<std::uint32_t>(type));
  return w;
}

// Reads the frame type and throws unless it is `type`.
void expect_type(WireReader& r, FrameType type, const char* name) {
  if (static_cast<FrameType>(r.get<std::uint32_t>()) != type) {
    throw ProtocolError(std::string("not an ") + name + " frame");
  }
}

std::uint8_t status_code(RequestState state) {
  switch (state) {
    case RequestState::kDone:
      return 0;
    case RequestState::kFailed:
      return 1;
    case RequestState::kCancelled:
      return 2;
    default:
      SG_THROW("non-terminal state has no wire status");
  }
}

RequestState status_state(std::uint8_t code) {
  switch (code) {
    case 0:
      return RequestState::kDone;
    case 1:
      return RequestState::kFailed;
    case 2:
      return RequestState::kCancelled;
    default:
      throw ProtocolError("bad status code " + std::to_string(code));
  }
}

}  // namespace

// --- payload encode/decode --------------------------------------------------

std::vector<std::uint8_t> encode_request(const WireRequest& request) {
  SG_CHECK(request.steps > 0 && request.channels > 0 && request.height > 0 && request.width > 0,
           "encode_request: shape must be positive");
  SG_CHECK(static_cast<long>(request.context.size()) ==
               request.channels * request.height * request.width,
           "encode_request: context size does not match shape");
  binio::Writer w = frame(FrameType::kRequest);
  w.put(kProtocolVersion);
  w.put(request.id);
  w.put(request.seed);
  for (const long extent : {request.steps, request.channels, request.height, request.width}) {
    w.put(static_cast<std::uint32_t>(extent));
  }
  w.put<std::uint8_t>(request.aggregation == geo::OverlapAggregation::kMean ? 0 : 1);
  w.put_array(request.context.data(), request.context.size());
  return w.take();
}

FrameType frame_type(const std::vector<std::uint8_t>& payload) {
  return static_cast<FrameType>(WireReader(payload).get<std::uint32_t>());
}

WireRequest decode_request(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  expect_type(r, FrameType::kRequest, "SGRQ");
  const std::uint32_t version = r.get<std::uint32_t>();
  if (version != kProtocolVersion) {
    throw ProtocolError("unsupported protocol version " + std::to_string(version));
  }
  WireRequest request;
  request.id = r.get<std::uint64_t>();
  request.seed = r.get<std::uint64_t>();
  for (long* extent : {&request.steps, &request.channels, &request.height, &request.width}) {
    *extent = static_cast<long>(r.get<std::uint32_t>());
  }
  const std::uint8_t agg = r.get<std::uint8_t>();
  if (agg > 1) throw ProtocolError("bad aggregation code " + std::to_string(agg));
  request.aggregation =
      agg == 0 ? geo::OverlapAggregation::kMean : geo::OverlapAggregation::kMedian;
  if (request.steps <= 0 || request.channels <= 0 || request.height <= 0 || request.width <= 0) {
    throw ProtocolError("request shape must be positive");
  }
  const std::size_t cells =
      r.fitting_count<double>(std::array{request.channels, request.height, request.width});
  if (r.remaining() != cells * sizeof(double)) {
    throw ProtocolError("context size does not match declared shape");
  }
  request.context.resize(cells);
  r.get_array(request.context.data(), cells);
  r.expect_end();
  return request;
}

WireRow decode_row(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  expect_type(r, FrameType::kRow, "SGRW");
  WireRow row;
  row.id = r.get<std::uint64_t>();
  row.row = static_cast<long>(r.get<std::uint32_t>());
  const std::size_t count = r.get<std::uint32_t>();
  if (r.remaining() != count * sizeof(double)) throw ProtocolError("row size mismatch");
  row.values.resize(count);
  r.get_array(row.values.data(), count);
  r.expect_end();
  return row;
}

WireDone decode_done(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  expect_type(r, FrameType::kDone, "SGDN");
  WireDone done;
  done.id = r.get<std::uint64_t>();
  done.state = status_state(r.get<std::uint8_t>());
  done.rows = static_cast<long>(r.get<std::uint32_t>());
  const std::size_t message_bytes = r.get<std::uint32_t>();
  if (r.remaining() != message_bytes) throw ProtocolError("done message size mismatch");
  done.message = r.get_string(message_bytes);
  r.expect_end();
  return done;
}

std::string decode_error(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  expect_type(r, FrameType::kError, "SGER");
  const std::size_t message_bytes = r.get<std::uint32_t>();
  if (r.remaining() != message_bytes) throw ProtocolError("error message size mismatch");
  std::string message = r.get_string(message_bytes);
  r.expect_end();
  return message;
}

// --- framing ----------------------------------------------------------------

void write_frame(std::FILE* out, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxFrameBytes) throw ProtocolError("frame payload exceeds limit");
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  if (std::fwrite(&len, sizeof len, 1, out) != 1 ||
      (len != 0 && std::fwrite(payload.data(), 1, payload.size(), out) != payload.size()) ||
      std::fflush(out) != 0) {
    throw ProtocolError("short write on frame stream");
  }
}

bool read_frame(std::FILE* in, std::vector<std::uint8_t>& payload) {
  std::uint32_t len = 0;
  const std::size_t got = std::fread(&len, 1, sizeof len, in);
  if (got == 0) return false;  // clean EOF at a frame boundary
  if (got != sizeof len) throw ProtocolError("torn frame length prefix");
  if (len > kMaxFrameBytes) {
    throw ProtocolError("frame length " + std::to_string(len) + " exceeds limit");
  }
  payload.resize(len);
  if (len != 0 && std::fread(payload.data(), 1, len, in) != len) {
    throw ProtocolError("torn frame payload");
  }
  return true;
}

void FrameWriter::write_row(std::uint64_t id, long row, const std::vector<double>& values) {
  binio::Writer w = frame(FrameType::kRow);
  w.put(id);
  w.put(static_cast<std::uint32_t>(row));
  w.put(static_cast<std::uint32_t>(values.size()));
  w.put_array(values.data(), values.size());
  MutexLock lock(mutex_);
  write_frame(out_, w.bytes());
}

void FrameWriter::write_done(std::uint64_t id, RequestState state, long rows,
                             const std::string& message) {
  binio::Writer w = frame(FrameType::kDone);
  w.put(id);
  w.put(status_code(state));
  w.put(static_cast<std::uint32_t>(rows));
  w.put(static_cast<std::uint32_t>(message.size()));
  w.put_array(message.data(), message.size());
  MutexLock lock(mutex_);
  write_frame(out_, w.bytes());
}

void FrameWriter::write_error(const std::string& message) {
  binio::Writer w = frame(FrameType::kError);
  w.put(static_cast<std::uint32_t>(message.size()));
  w.put_array(message.data(), message.size());
  MutexLock lock(mutex_);
  write_frame(out_, w.bytes());
}

// --- daemon -----------------------------------------------------------------

namespace {

// Streams each finalized row as an SGRW frame tagged with the client's
// request id.
class DaemonRowSink : public geo::RowSink {
 public:
  DaemonRowSink(FrameWriter& writer, std::uint64_t id) : writer_(writer), id_(id) {}

  void consume_row(long row, const std::vector<double>& values) override {
    writer_.write_row(id_, row, values);
  }

 private:
  FrameWriter& writer_;
  std::uint64_t id_;
};

bool is_terminal(RequestState state) {
  return state == RequestState::kDone || state == RequestState::kFailed ||
         state == RequestState::kCancelled;
}

obs::Counter& protocol_errors() {
  static obs::Counter& c = obs::Registry::instance().counter("serve.protocol_errors");
  return c;
}

struct InFlight {
  RequestHandle handle;
  std::unique_ptr<DaemonRowSink> sink;
};

// The frame loop of daemon_loop: submits each decoded request and keeps
// its handle and sink in `inflight` until it reaches a terminal state.
void serve_frames(std::FILE* in, FrameWriter& writer, Server& server, DaemonStats& stats,
                  std::vector<InFlight>& inflight) {
  std::vector<std::uint8_t> payload;
  for (;;) {
    bool got = false;
    try {
      got = read_frame(in, payload);
    } catch (const ProtocolError& e) {
      // A torn stream cannot be resynced: report and end the session.
      ++stats.protocol_errors;
      protocol_errors().inc();
      writer.write_error(e.what());
      break;
    }
    if (!got) break;

    // Reap requests that already reached a terminal state: their SGDN
    // frame is on the wire (written before the state flips), so the sink
    // is quiescent and a long-running session stays bounded.
    std::erase_if(inflight, [](const InFlight& f) { return is_terminal(f.handle.state()); });

    WireRequest wire;
    try {
      wire = decode_request(payload);
    } catch (const ProtocolError& e) {
      // Framing is intact (the length prefix was honored), so a bad
      // payload rejects *this* request and the daemon keeps serving.
      ++stats.protocol_errors;
      protocol_errors().inc();
      writer.write_error(e.what());
      continue;
    }

    Request request;
    request.seed = wire.seed;
    request.steps = wire.steps;
    request.aggregation = wire.aggregation;
    request.context = geo::ContextTensor(wire.channels, wire.height, wire.width);
    request.context.values() = std::move(wire.context);

    auto sink = std::make_unique<DaemonRowSink>(writer, wire.id);
    RequestHandle handle =
        server.submit(std::move(request), *sink, Server::OnFull::kBlock,
                      [&writer, client_id = wire.id](std::uint64_t /*server_id*/,
                                                     RequestState state, long rows,
                                                     const std::string& error) {
                        writer.write_done(client_id, state, rows, error);
                      });
    ++stats.requests;
    inflight.push_back(InFlight{std::move(handle), std::move(sink)});
  }
}

}  // namespace

DaemonStats daemon_loop(std::FILE* in, std::FILE* out, Server& server) {
  FrameWriter writer(out);
  DaemonStats stats;
  std::vector<InFlight> inflight;
  // Sinks and the writer must outlive every worker that might touch
  // them, so every exit drains first, an escaping exception included.
  auto drain = [&inflight] {
    for (InFlight& f : inflight) f.handle.wait();
  };
  try {
    serve_frames(in, writer, server, stats, inflight);
  } catch (...) {
    drain();
    throw;
  }
  drain();
  return stats;
}

}  // namespace spectra::serve
