#include "core/config.h"

namespace zombie {

Status EngineOptions::Validate() const {
  if (eval_every == 0) {
    return Status::InvalidArgument("eval_every must be positive");
  }
  if (holdout_size == 0) {
    return Status::InvalidArgument("holdout_size must be positive");
  }
  if (probe_size == 0 || probe_size > holdout_size) {
    return Status::InvalidArgument(
        "probe_size must be in [1, holdout_size]");
  }
  if (stop.max_items == 0) {
    return Status::InvalidArgument("max_items must be positive");
  }
  if (Status s = pruning.Validate(); !s.ok()) return s;
  return Status::OK();
}

}  // namespace zombie
