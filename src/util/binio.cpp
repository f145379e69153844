#include "util/binio.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace spectra::binio {

std::optional<long> checked_count(std::span<const long> extents) {
  long count = 1;
  for (const long extent : extents) {
    if (extent < 0 || __builtin_mul_overflow(count, extent, &count)) return std::nullopt;
  }
  return count;
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  SG_CHECK(static_cast<bool>(in), "cannot open " + path + " for reading");
  const std::streamoff size = in.tellg();
  SG_CHECK(size >= 0, "cannot size " + path);
  Bytes bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  SG_CHECK(in && in.gcount() == size, "read failed for " + path);
  return bytes;
}

void write_file_atomic(const std::string& path, std::span<const std::byte> head,
                       std::span<const std::byte> tail) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  SG_CHECK(f != nullptr, "cannot open " + tmp + " for writing");
  std::size_t written = 0;
  for (const std::span<const std::byte> part : {head, tail}) {
    if (!part.empty()) written += std::fwrite(part.data(), 1, part.size(), f);
  }
  bool flushed = std::fflush(f) == 0;
#ifndef _WIN32
  flushed = flushed && ::fsync(::fileno(f)) == 0;
#endif
  const bool closed = std::fclose(f) == 0;
  SG_CHECK(written == head.size() + tail.size() && flushed && closed,
           "write failed for " + tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  SG_CHECK(!ec, "cannot rename " + tmp + " to " + path + ": " + ec.message());
#ifndef _WIN32
  // Make the rename itself durable.
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const int dir_fd = ::open(parent.empty() ? "." : parent.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
#endif
}

}  // namespace spectra::binio
