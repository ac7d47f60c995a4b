#include "support/profiler.hpp"

#include <time.h>

#include <atomic>

#include "support/json_writer.hpp"
#include "support/schema.hpp"
#include "support/timer.hpp"

namespace mcgp {

namespace {

/// On-CPU nanoseconds of the calling thread.
std::int64_t thread_cpu_now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
         static_cast<std::int64_t>(ts.tv_nsec);
}

std::atomic<std::uint64_t> g_profiler_ids{1};

/// Per-thread slot binding this thread to the profiler whose scopes it is
/// running. Keyed by a process-unique profiler id (never a reused
/// address), so a stale entry can only miss. `depth` counts the live
/// phase and run ProfScopes of that profiler on this thread — the signal
/// aux scopes use to detect an enclosing scope already measuring the
/// thread — and `runs` the live run scopes among them. `top_wall_ns` and
/// `top_cpu_ns` total the top-level time folded on this thread, which a
/// wait scope subtracts from its interval.
struct TlsSlot {
  std::uint64_t profiler_id = 0;
  int depth = 0;
  int runs = 0;
  std::int64_t top_wall_ns = 0;
  std::int64_t top_cpu_ns = 0;
};

TlsSlot& tls_slot() {
  static thread_local TlsSlot slot;
  return slot;
}

/// Small process-unique ordinal for the calling thread; cheaper and more
/// readable than std::thread::id for the per-bucket distinct-thread sets.
std::uint64_t thread_ordinal() {
  static std::atomic<std::uint64_t> next{1};
  static thread_local const std::uint64_t ord =
      next.fetch_add(1, std::memory_order_relaxed);
  return ord;
}

void add_into(ProfBucket& into, const ProfBucket& d) {
  into.scopes += d.scopes;
  into.edges += d.edges;
  into.vtxs += d.vtxs;
  into.wall_ns += d.wall_ns;
  into.task_clock_ns += d.task_clock_ns;
}

}  // namespace

Profiler::Profiler()
    : id_(g_profiler_ids.fetch_add(1, std::memory_order_relaxed)) {}

void Profiler::fold(const char* phase, int level, const ProfBucket& delta,
                    const PhaseClock* top) {
  const std::uint64_t ord = thread_ordinal();
  MutexLock lk(mu_);
  const auto key = std::make_pair(std::string(phase), level);
  add_into(buckets_[key], delta);
  bucket_threads_[key].insert(ord);
  if (top != nullptr) {
    PhaseClock& c = top_[key.first];
    c.wall_ns += top->wall_ns;
    c.cpu_ns += top->cpu_ns;
    top_cpu_ns_ += top->cpu_ns;
  }
}

std::vector<ProfPhase> Profiler::snapshot() const {
  MutexLock lk(mu_);
  std::vector<ProfPhase> out;
  out.reserve(buckets_.size());
  for (const auto& [key, stats] : buckets_) {
    const auto it = bucket_threads_.find(key);
    const int nthreads =
        it == bucket_threads_.end() ? 0 : static_cast<int>(it->second.size());
    out.push_back(ProfPhase{key.first, key.second, nthreads, stats});
  }
  return out;
}

ProfBucket Profiler::phase_total(const std::string& phase) const {
  return RunProfile{1, snapshot()}.total(phase);
}

std::map<std::string, PhaseClock> Profiler::top_level() const {
  MutexLock lk(mu_);
  return top_;
}

std::int64_t Profiler::top_level_cpu_ns() const {
  MutexLock lk(mu_);
  return top_cpu_ns_;
}

void Profiler::clear() {
  MutexLock lk(mu_);
  buckets_.clear();
  bucket_threads_.clear();
  top_.clear();
  top_cpu_ns_ = 0;
}

void Profiler::write_json_value(JsonWriter& w) const {
  RunProfile{1, snapshot()}.write_json_value(w);
}

ProfBucket RunProfile::total(const std::string& phase) const {
  ProfBucket sum;
  for (const ProfPhase& p : phases) {
    if (p.phase == phase) add_into(sum, p.stats);
  }
  return sum;
}

void RunProfile::write_json_value(JsonWriter& w) const {
  w.begin_object();
  w.member("schema_version", kMcgpSchemaVersion);
  w.member("threads", static_cast<std::int64_t>(threads));
  w.key("phases");
  w.begin_array();
  for (const ProfPhase& p : phases) {
    const ProfBucket& b = p.stats;
    w.begin_object();
    w.member("phase", p.phase);
    if (p.level >= 0) w.member("level", static_cast<std::int64_t>(p.level));
    w.member("scopes", b.scopes);
    w.member("edges", b.edges);
    w.member("vtxs", b.vtxs);
    w.member("threads", static_cast<std::int64_t>(p.threads));
    w.member("wall_ns", b.wall_ns);
    w.member("task_clock_ns", b.task_clock_ns);
    // On-CPU time over wall time: the per-phase parallel-efficiency
    // headline (1.0 = one busy core, num_threads = perfect scaling).
    if (b.wall_ns > 0) {
      w.member("parallelism", static_cast<double>(b.task_clock_ns) /
                                  static_cast<double>(b.wall_ns));
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void ProfScope::begin() {
  TlsSlot& slot = tls_slot();
  if (slot.profiler_id != p_->id_) slot = TlsSlot{p_->id_, 0, 0, 0, 0};
  switch (kind_) {
    case kAux:
      // Work helping: when an enclosing non-aux scope of this profiler is
      // live on this thread, that scope already measures the chunk — a
      // second interval here would double-count it. So an armed aux
      // scope is always top-level, and never on the run's thread.
      if (slot.depth > 0) {
        p_ = nullptr;
        return;
      }
      top_ = true;
      break;
    case kPhase:
      top_ = slot.depth == slot.runs;
      critical_ = top_ && slot.runs > 0;
      ++slot.depth;
      break;
    case kRun:
      ++slot.depth;
      ++slot.runs;
      top_cpu0_ns_ = slot.top_cpu_ns;
      all_top_cpu0_ns_ = p_->top_level_cpu_ns();
      break;
    case kWait:
      // Only the run's calling thread idles on the critical path, and a
      // wait inside a phase is that phase's time.
      if (slot.runs == 0 || slot.depth != slot.runs) {
        p_ = nullptr;
        return;
      }
      top_ = critical_ = true;
      top_wall0_ns_ = slot.top_wall_ns;
      top_cpu0_ns_ = slot.top_cpu_ns;
      break;
  }
  t0_ns_ = monotonic_now_ns();
  cpu0_ns_ = thread_cpu_now_ns();
}

std::int64_t ProfScope::end() {
  Profiler* p = p_;
  p_ = nullptr;
  ProfBucket d;
  d.task_clock_ns = thread_cpu_now_ns() - cpu0_ns_;
  TlsSlot& slot = tls_slot();
  const bool own_slot = slot.profiler_id == p->id_;
  const bool aux = kind_ == kAux;
  if ((kind_ == kPhase || kind_ == kRun) && own_slot && slot.depth > 0) {
    --slot.depth;
    if (kind_ == kRun && slot.runs > 0) --slot.runs;
  }
  // Aux scopes contribute only on-CPU time and their thread identity; the
  // enclosing scope on the submitting thread owns the wall time and the
  // scope count.
  d.scopes = aux ? 0 : 1;
  d.edges = edges_;
  d.vtxs = vtxs_;
  d.wall_ns = aux ? 0 : monotonic_now_ns() - t0_ns_;
  if (kind_ == kWait && own_slot) {
    d.wall_ns -= slot.top_wall_ns - top_wall0_ns_;
    d.task_clock_ns -= slot.top_cpu_ns - top_cpu0_ns_;
  }
  if (kind_ == kRun && own_slot) {
    // Add what the other threads folded: everything top-level since
    // begin() less this thread's own, which its clock already counts.
    d.task_clock_ns += (p->top_level_cpu_ns() - all_top_cpu0_ns_) -
                       (slot.top_cpu_ns - top_cpu0_ns_);
  }
  const PhaseClock top{critical_ ? d.wall_ns : 0, d.task_clock_ns};
  if (top_ && own_slot) {
    slot.top_wall_ns += top.wall_ns;
    slot.top_cpu_ns += top.cpu_ns;
  }
  p->fold(phase_, level_, d, top_ ? &top : nullptr);
  return d.wall_ns;
}

}  // namespace mcgp
