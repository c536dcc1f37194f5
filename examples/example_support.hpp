// The examples' input boundary: each rejects a flag it does not read
// (`Flags::require_known`), then builds an engine::PipelineConfig from its
// flags and asks the registered pipeline of its model whether it can run
// it, before any call into a layer.  The ranges live in the engine
// (engine::config_error); a config outside them prints `error: …` and
// exits 2, as kcenter_cli does.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "kcenter.hpp"

namespace kc::examples {

[[noreturn]] inline void reject(const char* why) {
  std::fprintf(stderr, "error: %s\n", why);
  std::exit(2);
}

/// Exits 2 unless the registered `pipeline` can run `cfg` on `w`.
inline void check_config(const std::string& pipeline,
                         const engine::PipelineConfig& cfg,
                         const engine::Workload& w) {
  const std::string err =
      engine::config_error(*engine::registry().make(pipeline), cfg, w);
  if (!err.empty()) reject(err.c_str());
}

/// Exits 2 unless the registered `pipeline` can run `cfg` on input the
/// example generates itself (cfg.dim coordinates per point).
inline void check_config(const std::string& pipeline,
                         const engine::PipelineConfig& cfg) {
  engine::Workload shape;
  shape.planted.config.dim = cfg.dim;
  check_config(pipeline, cfg, shape);
}

/// engine::make_workload(n, cfg), checked for `pipeline`; exits 2 on a
/// config the workload or the pipeline cannot take.
inline engine::Workload checked_workload(const std::string& pipeline,
                                         std::size_t n,
                                         const engine::PipelineConfig& cfg) {
  try {
    engine::Workload w = engine::make_workload(n, cfg);
    check_config(pipeline, cfg, w);
    return w;
  } catch (const engine::ConfigError& e) {
    reject(e.what());
  }
}

}  // namespace kc::examples
