#include "src/common/exec_config.hpp"

#include <algorithm>
#include <thread>

namespace qplec {

const char* validation_tier_name(ValidationTier tier) {
  switch (tier) {
    case ValidationTier::kOff:
      return "off";
    case ValidationTier::kSampled:
      return "sampled";
    case ValidationTier::kEveryRound:
      return "every_round";
  }
  return "unknown";
}

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kAuto:
      return "auto";
    case BackendKind::kSerial:
      return "serial";
    case BackendKind::kSharded:
      return "sharded";
  }
  return "unknown";
}

ValidationTier default_validation_tier() {
#ifndef NDEBUG
  return ValidationTier::kEveryRound;
#else
  return ValidationTier::kSampled;
#endif
}

int ExecConfig::pool_threads() const {
  if (shard_threads > 0) return shard_threads;
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return std::min(std::max(1, shards), hw);
}

int ExecConfig::worker_threads() const {
  if (workers > 0) return workers;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace qplec
