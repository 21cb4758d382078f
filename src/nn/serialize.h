// Binary save/load of network parameters.
//
// Used by the benchmark harnesses to train each model once and reuse the
// weights across experiment binaries. The format stores every Param of the
// network in definition order; load requires an identically-constructed
// network.
//
// The load path treats the file as untrusted input: every read is
// validated against the stream state, every declared size is bounded by
// the bytes actually remaining, and trailing bytes are rejected. A file
// that is corrupt, truncated, oversized or mismatched raises
// SerializeError — never a partially-updated network or silent garbage.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "nn/layer.h"

namespace rdo::nn {

/// Raised by the load path on a corrupt, truncated or mismatched model
/// file. Derives from std::runtime_error so existing catch sites keep
/// working; a distinct type so callers can tell bad input from other I/O
/// failures.
class SerializeError : public std::runtime_error {
 public:
  explicit SerializeError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Save all parameters of `net` to `path` atomically (a temp file renamed
/// into place, see core/codec.h), so a concurrent loader never observes a
/// half-written model. Throws on I/O failure.
void save_params(Layer& net, const std::string& path);

/// Load parameters saved by save_params. Returns false if the file does
/// not exist; throws SerializeError if it exists but is corrupt,
/// truncated, carries trailing bytes, or does not match the network.
bool load_params(Layer& net, const std::string& path);

/// Stream form of the loader: parse one complete save_params document
/// from `in` (which must support seeking, e.g. an open binary ifstream or
/// an istringstream). `source` names the stream in error messages.
/// Throws SerializeError on any malformed input. This is the single
/// parsing path — the path overload and the fuzz harness both call it.
void load_params(Layer& net, std::istream& in, const std::string& source);

}  // namespace rdo::nn
