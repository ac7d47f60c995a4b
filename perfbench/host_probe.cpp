#include "host_probe.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

constexpr std::int32_t kSide = 320;
constexpr int kParts = 64;
constexpr int kSweeps = 4;

}  // namespace

HostProbe::HostProbe() {
  const std::int32_t n = kSide * kSide;
  // A fixed random numbering, so that neighbours are far apart in memory.
  std::vector<std::int32_t> label(static_cast<std::size_t>(n));
  std::iota(label.begin(), label.end(), 0);
  std::uint64_t x = 88172645463325252ULL;
  for (std::int32_t i = n - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(label[static_cast<std::size_t>(i)],
              label[static_cast<std::size_t>(x % static_cast<std::uint64_t>(i + 1))]);
  }
  std::vector<std::int32_t> vertex_at(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    vertex_at[static_cast<std::size_t>(label[static_cast<std::size_t>(i)])] = i;
  }
  xadj_.reserve(static_cast<std::size_t>(n) + 1);
  xadj_.push_back(0);
  for (std::int32_t v = 0; v < n; ++v) {
    const std::int32_t r = vertex_at[static_cast<std::size_t>(v)] / kSide;
    const std::int32_t c = vertex_at[static_cast<std::size_t>(v)] % kSide;
    auto add = [&](std::int32_t rr, std::int32_t cc) {
      adjncy_.push_back(label[static_cast<std::size_t>(rr * kSide + cc)]);
      adjwgt_.push_back(1 + static_cast<std::int32_t>(adjncy_.size() * 2654435761ULL % 7));
    };
    if (r > 0) add(r - 1, c);
    if (r + 1 < kSide) add(r + 1, c);
    if (c > 0) add(r, c - 1);
    if (c + 1 < kSide) add(r, c + 1);
    xadj_.push_back(static_cast<std::int32_t>(adjncy_.size()));
  }
  parts_.assign(kMaxThreads,std::vector<std::uint8_t>(static_cast<std::size_t>(n)));
}

double HostProbe::sweep(std::vector<std::uint8_t>& part) const {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = part.size();
  for (std::size_t v = 0; v < n; ++v) part[v] = static_cast<std::uint8_t>(v % kParts);
  std::array<std::int32_t, kParts> conn{};
  for (int s = 0; s < kSweeps; ++s) {
    for (std::size_t v = 0; v < n; ++v) {
      const auto begin = static_cast<std::size_t>(xadj_[v]);
      const auto end = static_cast<std::size_t>(xadj_[v + 1]);
      conn.fill(0);
      for (std::size_t e = begin; e < end; ++e) {
        conn[part[static_cast<std::size_t>(adjncy_[e])]] += adjwgt_[e];
      }
      std::uint8_t best = part[v];
      for (std::size_t e = begin; e < end; ++e) {
        const std::uint8_t p = part[static_cast<std::size_t>(adjncy_[e])];
        if (conn[p] > conn[best] || (conn[p] == conn[best] && p < best)) best = p;
      }
      part[v] = best;
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double HostProbe::measure(int threads) {
  const std::size_t n = static_cast<std::size_t>(std::clamp(threads, 1, kMaxThreads));
  std::vector<double> runs;
  for (int r = 0; r < kRuns; ++r) {
    std::vector<double> secs(n);
    std::vector<std::thread> helpers;
    for (std::size_t t = 1; t < n; ++t) {
      helpers.emplace_back([this, t, &secs] { secs[t] = sweep(parts_[t]); });
    }
    secs[0] = sweep(parts_[0]);
    for (std::thread& h : helpers) h.join();
    runs.push_back(std::accumulate(secs.begin(), secs.end(), 0.0) /
                   static_cast<double>(n));
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

}  // namespace perfbench
