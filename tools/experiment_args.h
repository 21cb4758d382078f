// Argument parsing for the rdo_experiment CLI, split out so tests can
// drive it without spawning the binary (tests/test_cli.cpp).
//
// Parsing is strict: numeric values must consume the whole token
// (end-pointer checked, no atof/atoi silent-zero fallbacks), carry no
// leading whitespace or sign and be finite, enum-like
// strings must name a known choice, and every value is bounds-checked
// (sigma, m and the offset width against the constants core::check_options
// enforces, so the CLI and the library agree).
// Any violation produces `ok == false` plus a one-line diagnostic; the
// binary prints it and exits 2.
#pragma once

#include <cstdint>
#include <string>

namespace rdo::tools {

struct ExperimentArgs {
  std::string model = "mlp";        // mlp | lenet | resnet | vgg
  std::string scheme = "vawo*+pwt"; // plain | vawo | vawo* | pwt | vawo*+pwt
  std::string cell = "slc";         // slc | mlc2
  std::string scope = "per-weight"; // per-weight | per-cell
  double sigma = 0.5;               // in [0, 8]
  double ddv = 0.0;                 // in [0, 1]
  int m = 16;                       // in [1, 2^20]
  int repeats = 3;                  // >= 1
  int offset_bits = 8;              // in [1, 16]
  std::uint64_t seed = 1;
  std::string json_path;            // --json <path>: write BENCH document
  bool help = false;
};

struct ParseOutcome {
  bool ok = true;
  std::string error;  // set when !ok
};

/// Parse argv into `out`. Never exits or prints; the caller decides how
/// to surface `error` (the binary: stderr + usage + exit 2).
ParseOutcome parse_experiment_args(int argc, const char* const* argv,
                                   ExperimentArgs& out);

/// The usage text shown by --help and after a parse error.
const char* experiment_usage();

}  // namespace rdo::tools
