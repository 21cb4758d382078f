#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <istream>
#include <stdexcept>
#include <vector>

#include "core/codec.h"

namespace rdo::nn {

namespace {
constexpr std::uint32_t kMagic = 0x52444F32;  // "RDO2"

using Reader = rdo::core::codec::Reader<SerializeError>;

/// Parse one stored tensor into a staging vector (not the live network —
/// the load is transactional, see load_params). The destination tensor's
/// size caps the declared count before anything is allocated, the payload
/// is bounded by the bytes actually present, and any other size is
/// rejected.
std::vector<float> read_tensor(Reader& r, const Tensor& expect) {
  const auto size = static_cast<std::uint64_t>(expect.size());
  std::vector<float> stage = r.array<float>(size);
  r.require(stage.size() == size, "tensor size mismatch");
  return stage;
}

}  // namespace

void save_params(Layer& net, const std::string& path) {
  rdo::core::codec::publish(path, "save_params", [&](std::ostream& out) {
    rdo::core::codec::Writer w(out, "save_params");
    const auto params = net.params();
    const auto buffers = net.buffers();
    const auto write_tensor = [&w](const Tensor& t) {
      w.scalar(static_cast<std::uint64_t>(t.size()));
      w.raw(t.data(), static_cast<std::size_t>(t.size()) * sizeof(float));
    };
    w.scalar(kMagic);
    w.scalar(static_cast<std::uint64_t>(params.size()));
    w.scalar(static_cast<std::uint64_t>(buffers.size()));
    for (Param* p : params) write_tensor(p->value);
    for (Tensor* b : buffers) write_tensor(*b);
  });
}

void load_params(Layer& net, std::istream& in, const std::string& source) {
  Reader r(in, "load_params", source);
  if (r.scalar<std::uint32_t>() != kMagic) r.fail("bad magic");
  const auto pcount = r.scalar<std::uint64_t>();
  const auto bcount = r.scalar<std::uint64_t>();
  const auto params = net.params();
  const auto buffers = net.buffers();
  r.require(pcount == params.size() && bcount == buffers.size(),
            "tensor count does not match the network");
  // Each stored tensor carries at least an 8-byte length; an oversized
  // header count is rejected before any tensor data is consumed.
  r.require(pcount + bcount <= r.remaining() / sizeof(std::uint64_t),
            "more tensors declared than the file can hold");
  // Stage the whole document first, commit only once every tensor has
  // validated — a file rejected half-way never leaves the network
  // partially overwritten.
  std::vector<std::vector<float>> pstage;
  std::vector<std::vector<float>> bstage;
  for (const Param* p : params) pstage.push_back(read_tensor(r, p->value));
  for (const Tensor* b : buffers) bstage.push_back(read_tensor(r, *b));
  r.finish();
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::copy(pstage[i].begin(), pstage[i].end(), params[i]->value.data());
  }
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    std::copy(bstage[i].begin(), bstage[i].end(), buffers[i]->data());
  }
}

bool load_params(Layer& net, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  load_params(net, f, path);
  return true;
}

}  // namespace rdo::nn
