#include "nn/serialize.h"

#include <cstdint>
#include <span>

#include "util/binio.h"
#include "util/error.h"

namespace spectra::nn {

namespace {
constexpr std::uint32_t kMagic = 0x53474e4e;  // "SGNN"
}  // namespace

void save_parameters(const std::string& path, const std::vector<Var>& params) {
  binio::Writer w;
  w.put(kMagic);
  w.put<std::uint64_t>(params.size());
  for (const Var& p : params) {
    const Tensor& t = p.value();
    w.put(static_cast<std::uint64_t>(t.rank()));
    for (int i = 0; i < t.rank(); ++i) w.put(static_cast<std::uint64_t>(t.dim(i)));
    w.put_array(t.data(), static_cast<std::size_t>(t.numel()));
  }
  binio::write_file_atomic(path, std::as_bytes(std::span(w.bytes())));
}

void load_parameters(const std::string& path, std::vector<Var>& params) {
  const binio::Bytes file = binio::read_file(path);
  binio::Reader<> r(file);
  SG_CHECK(r.get<std::uint32_t>() == kMagic, path + " is not a parameter file");
  const std::uint64_t count = r.get<std::uint64_t>();
  SG_CHECK(count == params.size(), "parameter count mismatch: file has " + std::to_string(count) +
                                       ", model has " + std::to_string(params.size()));
  for (Var& p : params) {
    Tensor& t = p.value_mut();
    SG_CHECK(r.get<std::uint64_t>() == static_cast<std::uint64_t>(t.rank()),
             "parameter rank mismatch");
    for (int i = 0; i < t.rank(); ++i) {
      SG_CHECK(r.get<std::uint64_t>() == static_cast<std::uint64_t>(t.dim(i)),
               "parameter shape mismatch");
    }
    r.get_array(t.data(), static_cast<std::size_t>(t.numel()));
  }
  r.expect_end();
}

}  // namespace spectra::nn
