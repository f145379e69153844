#include "serve/protocol.h"

#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "geo/city_tensor.h"
#include "obs/metrics.h"

namespace spectra::serve {

namespace {

class PayloadWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void f64s(const double* values, std::size_t count) { append(values, count * sizeof(double)); }
  void bytes(const std::string& s) { append(s.data(), s.size()); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void append(const void* src, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(src);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::uint8_t> buf_;
};

class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<std::uint8_t>& payload)
      : data_(payload.data()), size_(payload.size()) {}

  std::uint8_t u8() {
    std::uint8_t v = 0;
    read(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    read(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    read(&v, sizeof v);
    return v;
  }
  void f64s(double* out, std::size_t count) { read(out, count * sizeof(double)); }
  std::string bytes(std::size_t n) {
    std::string s(n, '\0');
    read(s.data(), n);
    return s;
  }
  std::size_t remaining() const { return size_ - pos_; }
  void expect_end() const {
    if (pos_ != size_) throw ProtocolError("trailing bytes in frame");
  }

 private:
  void read(void* out, std::size_t n) {
    if (size_ - pos_ < n) throw ProtocolError("truncated frame payload");
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

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
  PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(FrameType::kRequest));
  w.u32(kProtocolVersion);
  w.u64(request.id);
  w.u64(request.seed);
  w.u32(static_cast<std::uint32_t>(request.steps));
  w.u32(static_cast<std::uint32_t>(request.channels));
  w.u32(static_cast<std::uint32_t>(request.height));
  w.u32(static_cast<std::uint32_t>(request.width));
  w.u8(request.aggregation == geo::OverlapAggregation::kMean ? std::uint8_t{0} : std::uint8_t{1});
  w.f64s(request.context.data(), request.context.size());
  return w.take();
}

FrameType frame_type(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  return static_cast<FrameType>(r.u32());
}

WireRequest decode_request(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  if (static_cast<FrameType>(r.u32()) != FrameType::kRequest) {
    throw ProtocolError("not an SGRQ frame");
  }
  const std::uint32_t version = r.u32();
  if (version != kProtocolVersion) {
    throw ProtocolError("unsupported protocol version " + std::to_string(version));
  }
  WireRequest request;
  request.id = r.u64();
  request.seed = r.u64();
  request.steps = static_cast<long>(r.u32());
  request.channels = static_cast<long>(r.u32());
  request.height = static_cast<long>(r.u32());
  request.width = static_cast<long>(r.u32());
  const std::uint8_t agg = r.u8();
  if (agg > 1) throw ProtocolError("bad aggregation code " + std::to_string(agg));
  request.aggregation =
      agg == 0 ? geo::OverlapAggregation::kMean : geo::OverlapAggregation::kMedian;
  if (request.steps <= 0 || request.channels <= 0 || request.height <= 0 || request.width <= 0) {
    throw ProtocolError("request shape must be positive");
  }
  const std::optional<long> cells =
      geo::checked_element_count(request.channels, request.height, request.width);
  std::size_t context_bytes = 0;
  if (!cells ||
      __builtin_mul_overflow(static_cast<std::size_t>(*cells), sizeof(double), &context_bytes)) {
    throw ProtocolError("declared context shape overflows");
  }
  if (r.remaining() != context_bytes) {
    throw ProtocolError("context size does not match declared shape");
  }
  request.context.resize(static_cast<std::size_t>(*cells));
  r.f64s(request.context.data(), request.context.size());
  r.expect_end();
  return request;
}

WireRow decode_row(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  if (static_cast<FrameType>(r.u32()) != FrameType::kRow) throw ProtocolError("not an SGRW frame");
  WireRow row;
  row.id = r.u64();
  row.row = static_cast<long>(r.u32());
  const std::size_t count = r.u32();
  if (r.remaining() != count * sizeof(double)) throw ProtocolError("row size mismatch");
  row.values.resize(count);
  r.f64s(row.values.data(), count);
  r.expect_end();
  return row;
}

WireDone decode_done(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  if (static_cast<FrameType>(r.u32()) != FrameType::kDone) throw ProtocolError("not an SGDN frame");
  WireDone done;
  done.id = r.u64();
  done.state = status_state(r.u8());
  done.rows = static_cast<long>(r.u32());
  const std::size_t message_bytes = r.u32();
  if (r.remaining() != message_bytes) throw ProtocolError("done message size mismatch");
  done.message = r.bytes(message_bytes);
  r.expect_end();
  return done;
}

std::string decode_error(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  if (static_cast<FrameType>(r.u32()) != FrameType::kError) {
    throw ProtocolError("not an SGER frame");
  }
  const std::size_t message_bytes = r.u32();
  if (r.remaining() != message_bytes) throw ProtocolError("error message size mismatch");
  std::string message = r.bytes(message_bytes);
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
  PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(FrameType::kRow));
  w.u64(id);
  w.u32(static_cast<std::uint32_t>(row));
  w.u32(static_cast<std::uint32_t>(values.size()));
  w.f64s(values.data(), values.size());
  const std::vector<std::uint8_t> payload = w.take();
  MutexLock lock(mutex_);
  write_frame(out_, payload);
}

void FrameWriter::write_done(std::uint64_t id, RequestState state, long rows,
                             const std::string& message) {
  PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(FrameType::kDone));
  w.u64(id);
  w.u8(status_code(state));
  w.u32(static_cast<std::uint32_t>(rows));
  w.u32(static_cast<std::uint32_t>(message.size()));
  w.bytes(message);
  const std::vector<std::uint8_t> payload = w.take();
  MutexLock lock(mutex_);
  write_frame(out_, payload);
}

void FrameWriter::write_error(const std::string& message) {
  PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(FrameType::kError));
  w.u32(static_cast<std::uint32_t>(message.size()));
  w.bytes(message);
  const std::vector<std::uint8_t> payload = w.take();
  MutexLock lock(mutex_);
  write_frame(out_, payload);
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
