// Fuzz target: serve::parse_request — the wire-protocol parser in front of
// every rdo_serve request line.
//
// Contract under fuzzing: arbitrary bytes either fail obs::Json::parse, or
// make parse_request raise serve::ProtocolError, or yield a request whose
// options pass core::check_options. Anything else (another exception
// escaping parse_request, or an accepted request the compile path would
// reject) aborts.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "core/check.h"
#include "core/deploy.h"
#include "obs/json.h"
#include "serve/protocol.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  rdo::obs::Json doc;
  try {
    doc = rdo::obs::Json::parse(text);
  } catch (const std::exception&) {
    return 0;  // not JSON: the server answers before parse_request
  }
  const rdo::core::DeployOptions base;
  try {
    const rdo::serve::ServeRequest req =
        rdo::serve::parse_request(doc, base);
    rdo::core::check_options(req.options);
  } catch (const rdo::serve::ProtocolError&) {
  } catch (const rdo::core::ContractViolation& e) {
    std::fprintf(stderr, "fuzz_serve: accepted inadmissible options: %s\n",
                 e.what());
    std::abort();
  }
  return 0;
}
