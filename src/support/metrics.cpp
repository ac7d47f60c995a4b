#include "support/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <utility>

#include "support/check.hpp"
#include "support/flight_recorder.hpp"
#include "support/json_writer.hpp"
#include "support/schema.hpp"
#include "support/timer.hpp"

namespace mcgp {

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

int hist_bucket_index(std::int64_t v) {
  // Bucket 0 absorbs everything <= 1 (including zero and negatives, which
  // instrumentation never produces but a caller bug might); above that,
  // bit_width(v-1) is the smallest b with v <= 2^b because
  // 2^(b-1) < v <= 2^b  <=>  2^(b-1) <= v-1 < 2^b.
  if (v <= 1) return 0;
  const int b =
      static_cast<int>(std::bit_width(static_cast<std::uint64_t>(v) - 1u));
  return b < kHistBuckets - 1 ? b : kHistBuckets - 1;
}

std::int64_t hist_bucket_le(int b) {
  if (b <= 0) return 1;
  if (b >= kHistBuckets - 1) return std::numeric_limits<std::int64_t>::max();
  return std::int64_t{1} << b;
}

void HistogramData::observe(std::int64_t v) {
  buckets[static_cast<std::size_t>(hist_bucket_index(v))] += 1u;
  count = saturating_add(count, 1, saturated);
  sum = saturating_add(sum, v, saturated);
}

double HistogramData::quantile(double q) const {
  if (count <= 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kHistBuckets; ++b) {
    cumulative += buckets[static_cast<std::size_t>(b)];
    if (static_cast<double>(cumulative) >= target) {
      // The +Inf bucket has no finite bound; report the largest one.
      const int capped = std::min(b, kHistBuckets - 2);
      return static_cast<double>(hist_bucket_le(capped));
    }
  }
  return static_cast<double>(hist_bucket_le(kHistBuckets - 2));
}

const MetricPoint* MetricFamily::find(
    const std::vector<std::string>& labels) const {
  const auto it = series.find(labels);
  return it != series.end() ? &it->second : nullptr;
}

const MetricFamily* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricFamily& f : families) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

MetricsSnapshot MetricsSnapshot::delta_since(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot out = *this;
  for (MetricFamily& f : out.families) {
    const MetricFamily* prev = earlier.find(f.name);
    if (prev == nullptr || prev->kind != f.kind) continue;
    if (f.kind == MetricKind::kGauge) continue;  // gauges: current value
    for (auto& [labels, point] : f.series) {
      const MetricPoint* old = prev->find(labels);
      if (old == nullptr) continue;
      if (f.kind == MetricKind::kCounter) {
        point.counter =
            std::max<sum_t>(saturating_sub(point.counter, old->counter), 0);
      } else {
        for (std::size_t b = 0; b < point.hist.buckets.size(); ++b) {
          const std::uint64_t cur = point.hist.buckets[b];
          const std::uint64_t was = old->hist.buckets[b];
          point.hist.buckets[b] = cur >= was ? cur - was : 0u;
        }
        point.hist.count =
            std::max<sum_t>(saturating_sub(point.hist.count, old->hist.count),
                            0);
        point.hist.sum = saturating_sub(point.hist.sum, old->hist.sum);
      }
    }
  }
  return out;
}

MetricsRegistry::MetricsRegistry() {
  // Standard pipeline families, declared up front so exposition carries
  // curated help text and the service gauges scrape as zero before the
  // first run. Instrumentation may still auto-declare ad-hoc families.
  declare("mcgp_partitions", MetricKind::kCounter, {"alg"},
          "Completed partition()/refine_partition() calls.");
  declare("mcgp_partitions_failed", MetricKind::kCounter, {"alg"},
          "Calls aborted by an invariant AuditFailure.");
  declare("mcgp_partitions_infeasible", MetricKind::kCounter, {"alg"},
          "Completed calls whose result violated a balance tolerance.");
  declare("mcgp_pipeline_events", MetricKind::kCounter, {"stage"},
          "Flight-recorder samples by pipeline stage (rebalance "
          "escalations appear as stage=\"rebalance\").");
  declare("mcgp_audit_checks", MetricKind::kCounter, {"category"},
          "Invariant-audit checks executed, by check category.");
  declare("mcgp_metrics_errors", MetricKind::kCounter, {"reason"},
          "Registry-internal instrumentation errors (kind or label-arity "
          "mismatch, negative counter delta).");
  declare("mcgp_run_ns", MetricKind::kHistogram, {"alg"},
          "End-to-end wall time of one partition() call.", "ns");
  declare("mcgp_phase_ns", MetricKind::kHistogram, {"phase", "alg"},
          "Per-run wall time of one pipeline phase (PhaseTimes view; "
          "thread-summed CPU time can exceed wall time).",
          "ns");
  declare("mcgp_level_wall_ns", MetricKind::kHistogram, {"phase", "level"},
          "Per-run wall time of one phase at one hierarchy level "
          "(profiler view; requires Options::profile).",
          "ns");
  declare("mcgp_phase_cycles", MetricKind::kHistogram, {"phase"},
          "Per-run CPU cycles of one pipeline phase (requires "
          "Options::profile with the cycles counter available).",
          "cycles");
  declare("mcgp_last_cut", MetricKind::kGauge, {"alg"},
          "Edge cut of the most recent completed partition.");
  declare("mcgp_last_imbalance", MetricKind::kGauge, {"constraint"},
          "Per-constraint load imbalance of the most recent partition.");
  declare("mcgp_last_feasible", MetricKind::kGauge, {},
          "1 if the most recent partition met every balance tolerance.");
  declare("mcgp_peak_rss_bytes", MetricKind::kGauge, {},
          "Peak resident set size observed by memory telemetry.", "bytes");
  declare("mcgp_workspace_bytes", MetricKind::kGauge, {},
          "Workspace-pool scratch high-water mark.", "bytes");
  declare("mcgp_workspace_count", MetricKind::kGauge, {},
          "Workspace-pool lease-count high-water mark.");
  declare("mcgp_runs_inflight", MetricKind::kGauge, {},
          "partition() calls currently executing in this process.");
  declare("mcgp_stalled", MetricKind::kGauge, {},
          "1 while the heartbeat sees runs in flight but no pipeline "
          "progress for longer than the stall timeout.");
  gauge_set("mcgp_runs_inflight", {}, 0.0);
  gauge_set("mcgp_stalled", {}, 0.0);
}

void MetricsRegistry::declare(std::string name, MetricKind kind,
                              std::vector<std::string> label_keys,
                              std::string help, std::string unit) {
  MutexLock lk(mu_);
  if (index_.find(name) != index_.end()) return;
  MetricFamily f;
  f.name = name;
  f.help = std::move(help);
  f.unit = std::move(unit);
  f.kind = kind;
  f.label_keys = std::move(label_keys);
  index_.emplace(std::move(name), families_.size());
  families_.push_back(std::move(f));
}

MetricFamily& MetricsRegistry::family_at(std::string_view name,
                                         MetricKind kind, std::size_t arity) {
  const auto it = index_.find(std::string(name));
  if (it != index_.end()) return families_[it->second];
  // Auto-declare: synthesized label keys, no help text. Deliberate —
  // exploratory instrumentation must not require a registration dance.
  MetricFamily f;
  f.name = std::string(name);
  f.kind = kind;
  for (std::size_t i = 0; i < arity; ++i) {
    // Appended, not `"l" + ...`: GCC 12's -Wrestrict misfires on that
    // operator+ overload at -O3.
    std::string key = "l";
    key += std::to_string(i);
    f.label_keys.push_back(std::move(key));
  }
  index_.emplace(f.name, families_.size());
  families_.push_back(std::move(f));
  return families_.back();
}

MetricPoint* MetricsRegistry::point(std::string_view name, MetricKind kind,
                                    std::vector<std::string>&& labels) {
  MetricFamily& f = family_at(name, kind, labels.size());
  const char* reason = nullptr;
  if (f.kind != kind) {
    reason = "kind_mismatch";
  } else if (f.label_keys.size() != labels.size()) {
    reason = "label_arity";
  }
  if (reason != nullptr) {
    // mcgp_metrics_errors is declared in the constructor with matching
    // kind and arity, so this nested call cannot recurse further.
    MetricFamily& err =
        family_at("mcgp_metrics_errors", MetricKind::kCounter, 1);
    MetricPoint& p = err.series[std::vector<std::string>{reason}];
    p.counter = saturating_add(p.counter, 1, p.saturated);
    return nullptr;
  }
  return &f.series[std::move(labels)];
}

void MetricsRegistry::counter_add(std::string_view name,
                                  std::vector<std::string> labels,
                                  sum_t delta) {
  MutexLock lk(mu_);
  if (delta < 0) {
    MetricFamily& err =
        family_at("mcgp_metrics_errors", MetricKind::kCounter, 1);
    MetricPoint& p = err.series[std::vector<std::string>{"negative_delta"}];
    p.counter = saturating_add(p.counter, 1, p.saturated);
    return;
  }
  MetricPoint* p = point(name, MetricKind::kCounter, std::move(labels));
  if (p != nullptr) p->counter = saturating_add(p->counter, delta, p->saturated);
}

void MetricsRegistry::gauge_set(std::string_view name,
                                std::vector<std::string> labels,
                                double value) {
  MutexLock lk(mu_);
  MetricPoint* p = point(name, MetricKind::kGauge, std::move(labels));
  if (p != nullptr) p->gauge = value;
}

void MetricsRegistry::observe(std::string_view name,
                              std::vector<std::string> labels,
                              std::int64_t value) {
  MutexLock lk(mu_);
  MetricPoint* p = point(name, MetricKind::kHistogram, std::move(labels));
  if (p != nullptr) p->hist.observe(value);
}

void MetricsRegistry::note_progress(std::string_view stage) {
  progress_seq_.fetch_add(1, std::memory_order_relaxed);
  last_progress_ns_.store(monotonic_now_ns(), std::memory_order_relaxed);
  counter_add("mcgp_pipeline_events", {std::string(stage)});
}

void MetricsRegistry::run_begin() {
  const int now = runs_inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  // A stall immediately after entry is measured from run start, not from
  // whenever the previous run last made progress.
  last_progress_ns_.store(monotonic_now_ns(), std::memory_order_relaxed);
  gauge_set("mcgp_runs_inflight", {}, static_cast<double>(now));
}

void MetricsRegistry::run_end() {
  const int now = runs_inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
  gauge_set("mcgp_runs_inflight", {}, static_cast<double>(now));
}

void MetricsRegistry::set_stalled(bool stalled) {
  stalled_.store(stalled, std::memory_order_relaxed);
  gauge_set("mcgp_stalled", {}, stalled ? 1.0 : 0.0);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.schema_version = kMcgpSchemaVersion;
  snap.taken_ns = monotonic_now_ns();
  snap.progress_seq = progress_seq();
  snap.last_progress_ns = last_progress_ns();
  snap.runs_inflight = runs_inflight();
  snap.stalled = stalled();
  MutexLock lk(mu_);
  snap.families = families_;
  return snap;
}

void MetricsRegistry::write_openmetrics(std::ostream& out) const {
  write_metrics_openmetrics(out, snapshot());
}

void MetricsRegistry::write_json(std::ostream& out) const {
  write_metrics_json(out, snapshot());
}

namespace {

/// OpenMetrics label-value escaping: backslash, quote, newline.
void write_escaped_label(std::ostream& out, const std::string& v) {
  for (const char c : v) {
    switch (c) {
      case '\\': out << "\\\\"; break;
      case '"': out << "\\\""; break;
      case '\n': out << "\\n"; break;
      default: out << c;
    }
  }
}

/// `{k1="v1",k2="v2"}`, or nothing for a label-free series. `extra` is an
/// optional pre-rendered pair appended last (the histogram `le`).
void write_label_set(std::ostream& out, const MetricFamily& f,
                     const std::vector<std::string>& values,
                     const std::string& extra = std::string()) {
  if (values.empty() && extra.empty()) return;
  out << '{';
  bool first = true;
  for (std::size_t i = 0; i < values.size() && i < f.label_keys.size(); ++i) {
    if (!first) out << ',';
    first = false;
    out << f.label_keys[i] << "=\"";
    write_escaped_label(out, values[i]);
    out << '"';
  }
  if (!extra.empty()) {
    if (!first) out << ',';
    out << extra;
  }
  out << '}';
}

void write_gauge_value(std::ostream& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

void write_openmetrics_family(std::ostream& out, const MetricFamily& f) {
  if (f.series.empty()) return;
  out << "# TYPE " << f.name << ' ' << metric_kind_name(f.kind) << '\n';
  if (!f.unit.empty()) out << "# UNIT " << f.name << ' ' << f.unit << '\n';
  if (!f.help.empty()) out << "# HELP " << f.name << ' ' << f.help << '\n';
  for (const auto& [labels, p] : f.series) {
    switch (f.kind) {
      case MetricKind::kCounter: {
        out << f.name << "_total";
        write_label_set(out, f, labels);
        out << ' ' << p.counter << '\n';
        break;
      }
      case MetricKind::kGauge: {
        out << f.name;
        write_label_set(out, f, labels);
        out << ' ';
        write_gauge_value(out, p.gauge);
        out << '\n';
        break;
      }
      case MetricKind::kHistogram: {
        // Cumulative buckets, sparse: a boundary is emitted when its own
        // bucket is non-empty (the cumulative value changed there) plus
        // the mandatory +Inf closing bucket, which equals _count.
        std::uint64_t cumulative = 0;
        for (int b = 0; b < kHistBuckets; ++b) {
          const std::uint64_t own = p.hist.buckets[static_cast<std::size_t>(b)];
          cumulative += own;
          const bool is_inf = b == kHistBuckets - 1;
          if (own == 0 && !is_inf) continue;
          std::string le = "le=\"";
          le += is_inf ? "+Inf" : std::to_string(hist_bucket_le(b));
          le += '"';
          out << f.name << "_bucket";
          write_label_set(out, f, labels, le);
          out << ' ' << cumulative << '\n';
        }
        out << f.name << "_sum";
        write_label_set(out, f, labels);
        out << ' ' << p.hist.sum << '\n';
        out << f.name << "_count";
        write_label_set(out, f, labels);
        out << ' ' << p.hist.count << '\n';
        break;
      }
    }
  }
}

}  // namespace

void write_metrics_openmetrics(std::ostream& out,
                               const MetricsSnapshot& snap) {
  for (const MetricFamily& f : snap.families) {
    write_openmetrics_family(out, f);
  }
  out << "# EOF\n";
}

void write_metrics_json_value(JsonWriter& w, const MetricsSnapshot& snap) {
  w.begin_object();
  w.member("schema_version", static_cast<std::int64_t>(snap.schema_version));
  w.member("kind", "mcgp_metrics");
  w.member("taken_ns", snap.taken_ns);
  w.member("progress_seq", snap.progress_seq);
  w.member("last_progress_ns", snap.last_progress_ns);
  w.member("runs_inflight", static_cast<std::int64_t>(snap.runs_inflight));
  w.member("stalled", snap.stalled);
  w.key("families");
  w.begin_array();
  for (const MetricFamily& f : snap.families) {
    if (f.series.empty()) continue;
    w.begin_object();
    w.member("name", f.name);
    w.member("kind", metric_kind_name(f.kind));
    if (!f.help.empty()) w.member("help", f.help);
    if (!f.unit.empty()) w.member("unit", f.unit);
    w.key("labels");
    w.begin_array();
    for (const std::string& k : f.label_keys) w.value(k);
    w.end_array();
    w.key("series");
    w.begin_array();
    for (const auto& [labels, p] : f.series) {
      w.begin_object();
      w.key("labels");
      w.begin_array();
      for (const std::string& v : labels) w.value(v);
      w.end_array();
      switch (f.kind) {
        case MetricKind::kCounter:
          w.member("value", p.counter);
          if (p.saturated) w.member("saturated", true);
          break;
        case MetricKind::kGauge: w.member("value", p.gauge); break;
        case MetricKind::kHistogram: {
          w.member("count", p.hist.count);
          w.member("sum", p.hist.sum);
          if (p.hist.saturated) w.member("saturated", true);
          // Sparse [bucket_index, own_count] pairs; `le` of an index is
          // 2^index (the reader recomputes it, +Inf for the last index).
          w.key("buckets");
          w.begin_array();
          for (int b = 0; b < kHistBuckets; ++b) {
            const std::uint64_t own =
                p.hist.buckets[static_cast<std::size_t>(b)];
            if (own == 0) continue;
            w.begin_array();
            w.value(static_cast<std::int64_t>(b));
            w.value(own);
            w.end_array();
          }
          w.end_array();
          break;
        }
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_metrics_json(std::ostream& out, const MetricsSnapshot& snap) {
  JsonWriter w(out);
  write_metrics_json_value(w, snap);
  out << '\n';
}

MetricsFlusher::MetricsFlusher(MetricsRegistry& registry, Config cfg)
    : reg_(registry), cfg_(std::move(cfg)) {
  {
    // Interval semantics are "every interval_s after start", so a short
    // process with a long interval writes only the final stop() snapshot.
    MutexLock lk(mu_);
    last_flush_ns_ = monotonic_now_ns();
  }
  thread_ = std::thread([this] { thread_main(); });
}

MetricsFlusher::~MetricsFlusher() { stop(); }

void MetricsFlusher::thread_main() {
  // Tick fast enough to honor both periods; the flush itself still waits
  // for interval_s via last_flush_ns_, so a short tick only affects how
  // promptly stalls and stop() are noticed.
  double period_s = 1.0;
  if (cfg_.interval_s > 0) period_s = std::min(period_s, cfg_.interval_s);
  if (cfg_.stall_timeout_s > 0) {
    period_s = std::min(period_s, cfg_.stall_timeout_s / 4.0);
  }
  period_s = std::max(period_s, 0.01);

  MutexLock lk(mu_);
  while (!stop_requested_) {
    cv_.wait_for(mu_, std::chrono::duration<double>(period_s));
    if (stop_requested_) break;
    tick(monotonic_now_ns());
  }
}

void MetricsFlusher::tick(std::int64_t now_ns) {
  if (cfg_.stall_timeout_s > 0) {
    const std::int64_t timeout_ns =
        static_cast<std::int64_t>(cfg_.stall_timeout_s * 1e9);
    const std::int64_t last = reg_.last_progress_ns();
    const bool stalled_now =
        reg_.runs_inflight() > 0 && last > 0 && now_ns - last > timeout_ns;
    if (stalled_now && !stall_latched_) {
      stall_latched_ = true;
      stall_events_.fetch_add(1, std::memory_order_relaxed);
      reg_.set_stalled(true);
      // One postmortem per stall event: the frozen run cannot write its
      // own artifacts, so the heartbeat does it from outside.
      if (!cfg_.postmortem_path.empty()) {
        std::ofstream pm(resolve_postmortem_path(cfg_.postmortem_path));
        if (pm) {
          const double waited_s =
              static_cast<double>(now_ns - last) * 1e-9;
          JsonWriter w(pm);
          w.begin_object();
          w.member("schema_version", kMcgpSchemaVersion);
          char msg[160];
          std::snprintf(msg, sizeof(msg),
                        "stall: %d run(s) in flight, no pipeline progress "
                        "for %.3f s (timeout %.3f s)",
                        reg_.runs_inflight(), waited_s, cfg_.stall_timeout_s);
          w.member("error", msg);
          w.key("metrics");
          write_metrics_json_value(w, reg_.snapshot());
          w.end_object();
          pm << '\n';
        }
      }
    } else if (!stalled_now && stall_latched_) {
      stall_latched_ = false;
      reg_.set_stalled(false);
    }
  }

  if (!cfg_.out_path.empty()) {
    const std::int64_t interval_ns =
        cfg_.interval_s > 0 ? static_cast<std::int64_t>(cfg_.interval_s * 1e9)
                            : 0;
    if (now_ns - last_flush_ns_ >= interval_ns) {
      if (write_out_file()) last_flush_ns_ = now_ns;
    }
  }
}

bool MetricsFlusher::write_out_file() {
  // tmp + rename: a scraper reading out_path never sees a torn file.
  const std::string tmp = cfg_.out_path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    const bool json = cfg_.out_path.size() >= 5 &&
                      cfg_.out_path.compare(cfg_.out_path.size() - 5, 5,
                                            ".json") == 0;
    const MetricsSnapshot snap = reg_.snapshot();
    if (json) {
      write_metrics_json(out, snap);
    } else {
      write_metrics_openmetrics(out, snap);
    }
    if (!out) return false;
  }
  if (std::rename(tmp.c_str(), cfg_.out_path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void MetricsFlusher::poll_now() {
  MutexLock lk(mu_);
  tick(monotonic_now_ns());
}

bool MetricsFlusher::stalled() const {
  MutexLock lk(mu_);
  return stall_latched_;
}

void MetricsFlusher::stop() {
  {
    MutexLock lk(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  MutexLock lk(mu_);
  if (stopped_) return;
  stopped_ = true;
  if (!cfg_.out_path.empty()) {
    if (write_out_file()) last_flush_ns_ = monotonic_now_ns();
  }
}

}  // namespace mcgp
