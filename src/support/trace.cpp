#include "support/trace.hpp"

#include <fstream>
#include <ostream>

#include "support/json_writer.hpp"
#include "support/schema.hpp"

namespace mcgp {

TraceRecorder::ThreadLog& TraceRecorder::local_log() {
  if (std::this_thread::get_id() == home_id_) return home_;
  MutexLock lk(mu_);
  ThreadLog*& slot = aux_index_[std::this_thread::get_id()];
  if (slot == nullptr) {
    aux_.push_back(std::make_unique<ThreadLog>());
    slot = aux_.back().get();
  }
  return *slot;
}

void TraceRecorder::append_begin(ThreadLog& log, const char* name) {
  TraceEvent ev;
  ev.type = TraceEvent::Type::kBegin;
  ev.depth = log.depth;
  ev.name = name;
  ev.ts_ns = now_ns();
  log.events.push_back(std::move(ev));
  ++log.depth;
}

void TraceRecorder::append_end(ThreadLog& log, const TraceArg* args,
                               int nargs) {
  if (log.depth == 0) return;  // unmatched end: drop rather than corrupt
  --log.depth;
  TraceEvent ev;
  ev.type = TraceEvent::Type::kEnd;
  ev.depth = log.depth;
  // Name of the innermost open span, so the end event reads on its own.
  for (auto it = log.events.rbegin(); it != log.events.rend(); ++it) {
    if (it->type == TraceEvent::Type::kBegin && it->depth == log.depth) {
      ev.name = it->name;
      break;
    }
  }
  ev.ts_ns = now_ns();
  ev.args.assign(args, args + nargs);
  log.events.push_back(std::move(ev));
}

void TraceRecorder::begin(const char* name) { append_begin(local_log(), name); }

void TraceRecorder::end(std::initializer_list<TraceArg> args) {
  end(args.begin(), static_cast<int>(args.size()));
}

void TraceRecorder::end(const TraceArg* args, int nargs) {
  append_end(local_log(), args, nargs);
}

void TraceRecorder::instant(const char* name,
                            std::initializer_list<TraceArg> args) {
  ThreadLog& log = local_log();
  TraceEvent ev;
  ev.type = TraceEvent::Type::kInstant;
  ev.depth = log.depth;
  ev.name = name;
  ev.ts_ns = now_ns();
  ev.args.assign(args.begin(), args.end());
  log.events.push_back(std::move(ev));
}

void TraceRecorder::count(std::string_view name, std::int64_t delta) {
  local_log().counters.incr(name, delta);
}

Histogram& TraceRecorder::hist(std::string_view name) {
  return local_log().counters.hist(name);
}

CounterRegistry TraceRecorder::merged_counters() const {
  CounterRegistry merged = home_.counters;
  MutexLock lk(mu_);
  for (const auto& log : aux_) merged.merge_from(log->counters);
  return merged;
}

std::size_t TraceRecorder::num_thread_logs() const {
  MutexLock lk(mu_);
  return 1 + aux_.size();
}

void TraceRecorder::clear() {
  home_.events.clear();
  home_.counters.clear();
  home_.depth = 0;
  MutexLock lk(mu_);
  aux_.clear();
  aux_index_.clear();
}

namespace {

void write_args_object(JsonWriter& w, const std::vector<TraceArg>& args) {
  w.begin_object();
  for (const TraceArg& a : args) {
    if (a.is_float) {
      w.member(a.key, a.f);
    } else {
      w.member(a.key, a.i);
    }
  }
  w.end_object();
}

}  // namespace

void TraceRecorder::write_chrome_trace(std::ostream& out) const {
  JsonWriter w(out);
  w.begin_object();
  // Chrome's trace viewer ignores unknown top-level members, so the
  // schema stamp rides along without breaking the consumer.
  w.member("schema_version", kMcgpSchemaVersion);
  w.member("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  // One tid per thread log: the home thread is tid 1, auxiliary threads
  // tid 2+ in registration order. Events within a log are in emission
  // order, so every tid's B/E stream is properly nested on its own.
  MutexLock lk(mu_);
  std::int64_t tid = 1;
  const ThreadLog* home = &home_;
  auto write_log = [&](const ThreadLog& log) {
    for (const TraceEvent& ev : log.events) {
      w.begin_object();
      w.member("name", ev.name);
      w.member("cat", "mcgp");
      switch (ev.type) {
        case TraceEvent::Type::kBegin: w.member("ph", "B"); break;
        case TraceEvent::Type::kEnd: w.member("ph", "E"); break;
        case TraceEvent::Type::kInstant:
          w.member("ph", "i");
          w.member("s", "t");
          break;
      }
      // Chrome trace timestamps are microseconds (fractions allowed).
      w.member("ts", static_cast<double>(ev.ts_ns) / 1000.0);
      w.member("pid", std::int64_t{1});
      w.member("tid", tid);
      if (!ev.args.empty()) {
        w.key("args");
        write_args_object(w, ev.args);
      }
      w.end_object();
    }
    ++tid;
  };
  write_log(*home);
  for (const auto& log : aux_) write_log(*log);
  w.end_array();
  w.end_object();
  out << '\n';
}

bool TraceRecorder::save_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out);
  return static_cast<bool>(out);
}

}  // namespace mcgp
