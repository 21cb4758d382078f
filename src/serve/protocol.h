// Wire protocol of the deployment server (tools/rdo_serve).
//
// Transport-agnostic line protocol: one request per line of JSON, one
// response line per request, in order. The parser treats every request
// as untrusted input — unknown operations, unknown config keys, wrong
// types and out-of-range values all raise ProtocolError(BadRequest)
// before anything touches the deployment pipeline, so hostile requests
// can never surface a ContractViolation from deeper layers. The ranges
// of the config values are core::check_options' (core/deploy.h): a
// request's merged options must pass it.
//
// Requests:
//   {"id": <int|string>, "op": "ping"}
//   {"id": ..., "op": "stats"}
//   {"id": ..., "op": "evaluate",
//    "config": {"scheme": "VAWO*+PWT", "sigma": 0.5, ...},   // optional
//    "cycle": 0,                                             // optional
//    "batch": 64,                                            // optional
//    "data": {"split": "test", "offset": 0, "count": 256}    // optional
//           | {"shape": [N, ...], "images": [...], "labels": [...]}}
//
// Responses:
//   {"id": ..., "ok": true, "result": {...}}
//   {"id": ..., "ok": false,
//    "error": {"code": "bad_request"|"overloaded"|"internal",
//              "message": "..."}}
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/deploy.h"
#include "nn/tensor.h"
#include "obs/json.h"

namespace rdo::serve {

enum class ErrorCode { BadRequest, Overloaded, Internal };

const char* to_string(ErrorCode c);

/// Raised on any malformed or inadmissible request; `code` selects the
/// wire error code the caller serializes.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code(code) {}
  ErrorCode code;
};

enum class Op { Ping, Stats, Evaluate };

/// Which samples an evaluate request runs over. Either a slice of a
/// dataset registered with the service ("train"/"test") or an inline
/// batch shipped in the request itself.
struct DataSelector {
  std::string split = "test";  ///< empty when the request inlined data
  std::int64_t offset = 0;
  std::int64_t count = 0;  ///< 0 = to the end of the split
  rdo::nn::Tensor inline_images;
  std::vector<int> inline_labels;

  [[nodiscard]] bool is_inline() const { return split.empty(); }
};

struct ServeRequest {
  rdo::obs::Json id;  ///< echoed verbatim in the response; null if absent
  Op op = Op::Ping;
  /// Base service options with the request's "config" overrides applied.
  rdo::core::DeployOptions options;
  std::uint64_t cycle = 0;
  std::int64_t batch = 64;
  DataSelector data;
};

/// Validate one parsed request document against `base` options. Throws
/// ProtocolError(BadRequest) on any unknown key, type mismatch or
/// out-of-range value; never throws anything else.
ServeRequest parse_request(const rdo::obs::Json& doc,
                           const rdo::core::DeployOptions& base);

/// One success response line (no trailing newline).
std::string ok_response(const rdo::obs::Json& id, rdo::obs::Json result);
/// One error response line (no trailing newline).
std::string error_response(const rdo::obs::Json& id, ErrorCode code,
                           const std::string& message);

}  // namespace rdo::serve
