// A fixed reference workload that measures how fast the host runs at the
// moment, independently of the library under test.
//
// On a shared host, other tenants' load slows the cores the benchmark runs
// on by 20-45% for seconds to minutes at a time, and CPU time slows with
// wall time, so it is contention, not descheduling. A run that only timed
// the partitioner would report the host's load as much as the program's
// speed. The probe is a few label-propagation sweeps over a randomly
// numbered grid graph (the partitioner's own access pattern: gather the
// neighbours' parts through an irregular index, accumulate into 64 part
// slots). It is written here, so no change to the library changes it.
// main.cpp times it, on as many threads as the call uses, before and after
// every call and scales the call's time by it.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  HostProbe();

  /// Runs the probe kRuns times on `threads` threads at once (the caller's
  /// and threads - 1 new ones, at most kMaxThreads) and returns the median
  /// over the runs of the threads' mean wall seconds.
  double measure(int threads);

  /// What measure(threads) returns on the host the benchmark was written on
  /// (a 4-core Intel Xeon container) when its other tenants are quiet. A
  /// time scaled by reference_seconds(threads) / measure(threads) is in
  /// seconds at that speed.
  static constexpr double reference_seconds(int threads) {
    return threads == 1 ? 0.0105 : 0.0115;
  }

 private:
  static constexpr int kMaxThreads = 4;
  static constexpr int kRuns = 3;

  double sweep(std::vector<std::uint8_t>& part) const;

  std::vector<std::int32_t> xadj_;
  std::vector<std::int32_t> adjncy_;
  std::vector<std::int32_t> adjwgt_;
  std::vector<std::vector<std::uint8_t>> parts_;  ///< one per thread
};

}  // namespace perfbench
