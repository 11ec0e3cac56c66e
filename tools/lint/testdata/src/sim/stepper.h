// Fixture standing in for the REAL src/sim/stepper.h (the batch-kernel
// rules key on this path too): a transient lane loop whose load-bearing
// pragma was dropped, and a kernel base pointer missing __restrict.
#pragma once

#include <cstddef>
#include <vector>

namespace fixture {

template <std::size_t W>
void advance(std::vector<double>& state, const std::vector<double>& x) {
  const double* s = x.data();  // planted: kernel-restrict
  for (std::size_t lane = 0; lane < W; ++lane) state[lane] = s[lane];  // planted: lane-unroll

  double* __restrict const v = state.data();  // compliant: not flagged
#pragma GCC unroll 1
  for (std::size_t lane = 0; lane < W; ++lane) v[lane] += 1.0;  // compliant
}

}  // namespace fixture
