#include "support/flight_recorder.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <utility>

#include "support/json_writer.hpp"
#include "support/memory.hpp"
#include "support/schema.hpp"
#include "support/timer.hpp"

namespace mcgp {

const char* flight_stage_name(FlightSample::Stage s) {
  switch (s) {
    case FlightSample::Stage::kCoarsenLevel: return "coarsen_level";
    case FlightSample::Stage::kUncoarsen2Way: return "uncoarsen_2way";
    case FlightSample::Stage::kUncoarsenKWay: return "uncoarsen_kway";
    case FlightSample::Stage::kFmPass: return "fm_pass";
    case FlightSample::Stage::kKWayPass: return "kway_pass";
    case FlightSample::Stage::kRebalance: return "rebalance";
    case FlightSample::Stage::kFinal: return "final";
  }
  return "?";
}

namespace {

std::string resolve_postmortem_path(const std::string& path) {
  // Relative paths land in whatever directory the process happens to be
  // in, which for a test harness or daemon is rarely where anyone looks.
  // MCGP_POSTMORTEM_DIR redirects them without code changes; absolute
  // paths are honored as-is. Resolved at dump time so the environment
  // can change after the artifact path is configured.
  if (!path.empty() && path.front() == '/') return path;
  const char* dir = std::getenv("MCGP_POSTMORTEM_DIR");
  if (dir == nullptr || *dir == '\0') return path;
  std::string out(dir);
  if (out.back() != '/') out += '/';
  out += path;
  return out;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      origin_ns_(monotonic_now_ns()) {}

void FlightRecorder::fold_max(std::atomic<std::int64_t>& slot,
                              std::int64_t value) {
  std::int64_t seen = slot.load(std::memory_order_relaxed);
  while (value > seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void FlightRecorder::record(FlightSample s) {
  s.ts_ns = monotonic_now_ns() - origin_ns_;
  s.rss_bytes = last_rss_.load(std::memory_order_relaxed);

  MutexLock lk(mu_);
  s.seq = next_seq_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(s);
  } else {
    // Overwrite in place: slot seq % capacity keeps the ring ordered by a
    // single rotation (oldest = next_seq_ % capacity), so snapshot() can
    // restore chronological order without sorting.
    ring_[static_cast<std::size_t>(s.seq) % capacity_] = s;
  }
  if (on_sample_) on_sample_(s);
}

void FlightRecorder::sample_memory() {
  const std::int64_t cur = current_rss_bytes();
  if (cur >= 0) {
    last_rss_.store(cur, std::memory_order_relaxed);
    fold_max(peak_rss_, cur);
  }
  const std::int64_t peak = mcgp::peak_rss_bytes();
  if (peak >= 0) fold_max(peak_rss_, peak);
}

void FlightRecorder::note_workspace(std::int64_t bytes, std::int64_t count) {
  fold_max(ws_bytes_, bytes);
  fold_max(ws_count_, count);
}

std::vector<FlightSample> FlightRecorder::snapshot() const {
  MutexLock lk(mu_);
  std::vector<FlightSample> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    const std::size_t oldest = static_cast<std::size_t>(next_seq_) % capacity_;
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(oldest + i) % capacity_]);
    }
  }
  return out;
}

std::uint64_t FlightRecorder::total_recorded() const {
  MutexLock lk(mu_);
  return next_seq_;
}

std::uint64_t FlightRecorder::dropped() const {
  MutexLock lk(mu_);
  return next_seq_ > ring_.size() ? next_seq_ - ring_.size() : 0;
}

void FlightRecorder::set_on_sample(
    std::function<void(const FlightSample&)> cb) {
  MutexLock lk(mu_);
  on_sample_ = std::move(cb);
}

void FlightRecorder::set_dump_path(std::string path) {
  dump_path_ = std::move(path);
}

std::string FlightRecorder::resolved_dump_path() const {
  return resolve_postmortem_path(dump_path_);
}

void FlightRecorder::clear() {
  MutexLock lk(mu_);
  ring_.clear();
  next_seq_ = 0;
  last_rss_.store(-1, std::memory_order_relaxed);
  peak_rss_.store(-1, std::memory_order_relaxed);
  ws_bytes_.store(-1, std::memory_order_relaxed);
  ws_count_.store(-1, std::memory_order_relaxed);
}

namespace {

void write_sample(JsonWriter& w, const FlightSample& s) {
  w.begin_object();
  w.member("seq", s.seq);
  w.member("ts_ns", s.ts_ns);
  w.member("stage", flight_stage_name(s.stage));
  if (s.level >= 0) w.member("level", static_cast<std::int64_t>(s.level));
  if (s.pass >= 0) w.member("pass", static_cast<std::int64_t>(s.pass));
  w.member("nvtxs", s.nvtxs);
  w.member("nedges", s.nedges);
  if (s.cut >= 0) w.member("cut", s.cut);
  if (s.moves != 0) w.member("moves", s.moves);
  if (s.gain != 0) w.member("gain", s.gain);
  // Pass-stage samples carry a balance scalar (FM: the exploration
  // potential; k-way: max tolerance-relative overload) without the
  // per-constraint breakdown, so the two fields gate independently.
  if (s.ncon > 0 || s.worst_imbalance > 0) {
    w.member("worst_imbalance", s.worst_imbalance);
  }
  if (s.ncon > 0) {
    w.key("imbalance");
    w.begin_array();
    const int n = std::min(s.ncon, kMaxNcon);
    for (int i = 0; i < n; ++i) w.value(s.imbalance[i]);
    w.end_array();
  }
  if (s.feasible >= 0) w.member("feasible", s.feasible != 0);
  if (s.rss_bytes >= 0) w.member("rss_bytes", s.rss_bytes);
  w.end_object();
}

}  // namespace

void FlightRecorder::write_json_value(JsonWriter& w) const {
  w.begin_object();
  w.member("schema_version", kMcgpSchemaVersion);
  w.member("capacity", static_cast<std::uint64_t>(capacity_));
  w.member("total_recorded", total_recorded());
  w.member("dropped", dropped());
  w.key("memory");
  w.begin_object();
  w.member("peak_rss_bytes", peak_rss_bytes());
  w.member("workspace_bytes", workspace_bytes());
  w.member("workspace_count", workspace_count());
  w.end_object();
  w.key("samples");
  w.begin_array();
  for (const FlightSample& s : snapshot()) write_sample(w, s);
  w.end_array();
  w.end_object();
}

void FlightRecorder::write_json(std::ostream& out) const {
  JsonWriter w(out);
  write_json_value(w);
  out << '\n';
}

bool FlightRecorder::dump_on_failure(const std::string& what) const noexcept {
  try {
    std::ofstream out(resolved_dump_path());
    if (!out) return false;
    JsonWriter w(out);
    w.begin_object();
    w.member("schema_version", kMcgpSchemaVersion);
    w.member("error", what);
    w.key("flight");
    write_json_value(w);
    w.end_object();
    out << '\n';
    return static_cast<bool>(out);
  } catch (...) {
    return false;
  }
}

}  // namespace mcgp
