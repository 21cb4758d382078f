#include "obs/env.h"

#include <cstdlib>
#include <thread>

#include "nn/kernel_isa.h"
#include "nn/parallel.h"
#include "obs/envvar.h"

#ifndef RDO_GIT_SHA
#define RDO_GIT_SHA "unknown"
#endif
#ifndef RDO_BUILD_TYPE
#define RDO_BUILD_TYPE "unknown"
#endif

namespace rdo::obs {

Json capture_env(std::uint64_t seed) {
  Json env = Json::object();
  env["threads"] = rdo::nn::thread_count();
  const char* raw = rdo::obs::env_knob("RDO_THREADS");
  env["rdo_threads_env"] = raw != nullptr ? raw : "";
  env["hardware_concurrency"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  env["build_type"] = RDO_BUILD_TYPE;  // CMAKE_BUILD_TYPE of the build
  env["git_sha"] = RDO_GIT_SHA;  // configured-from sha, or "unknown"
  env["seed"] = seed;
  env["kernel_isa"] = rdo::nn::kernel_isa_name(rdo::nn::kernel_isa());
#if defined(__clang__)
  env["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  env["compiler"] = std::string("gcc ") + std::to_string(__GNUC__) + "." +
                    std::to_string(__GNUC_MINOR__) + "." +
                    std::to_string(__GNUC_PATCHLEVEL__);
#else
  env["compiler"] = "unknown";
#endif
  return env;
}

}  // namespace rdo::obs
