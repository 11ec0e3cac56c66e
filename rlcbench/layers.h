// rlcbench per-layer attribution (see layers.cpp).
#pragma once

#include <cstdint>

#include "workloads.h"

namespace rlcbench {

// Runs `workload` traced and prints the per-layer metrics document; returns
// the process exit status (1 when an output check failed).
int layers_mode(Workload workload, std::uint64_t seed, double seconds);

}  // namespace rlcbench
