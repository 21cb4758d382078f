// Environment capture block for structured results.
//
// Records everything needed to interpret (and distrust) a BENCH_*.json
// file later: the resolved thread-pool width, the raw RDO_THREADS
// setting, build type and git sha (baked in at configure time), the
// master seed, which instruction-set copy of the nn kernels ran
// (`kernel_isa`: "avx" or "baseline", nn/kernel_isa.h), and toolchain
// identification. The whole block is *volatile* — it legitimately
// differs across machines and thread settings — and is therefore
// excluded from the determinism contract.
#pragma once

#include <cstdint>

#include "obs/json.h"

namespace rdo::obs {

/// Capture the current process environment as a JSON object.
[[nodiscard]] Json capture_env(std::uint64_t seed);

}  // namespace rdo::obs
