#include "core/seam.hpp"

#include <algorithm>
#include <exception>

#include "support/workspace.hpp"

namespace mcgp {

Seam::Seam(const RunContext& run, const SeamSpec& spec, const Graph& g)
    : trace_(run.trace),
      flight_(run.flight),
      wspool_(run.wspool),
      prof_(spec.profile_phase != nullptr ? run.profile : nullptr,
            spec.profile_phase, spec.hierarchy_level),
      span_(spec.trace_span != nullptr ? run.trace : nullptr,
            spec.trace_span) {
  if (flight_ != nullptr && spec.flight_stage.has_value()) {
    sample_due_ = true;
    rec_.stage = *spec.flight_stage;
    uncaught_ = std::uncaught_exceptions();
  }
  rec_.level = spec.hierarchy_level;
  if (rec_.level >= 0) note({"level", rec_.level});
  rec_.nvtxs = g.nvtxs;
  rec_.nedges = g.nedges();
  note({"nvtxs", rec_.nvtxs}).note({"nedges", rec_.nedges});
}

Seam::~Seam() {
  sample_due_ = sample_due_ && std::uncaught_exceptions() <= uncaught_;
  close();
}

Seam& Seam::worst_imbalance(real_t w) {
  rec_.worst_imbalance = w;
  return note({"worst_imbalance", w});
}

Seam& Seam::imbalance(const std::vector<real_t>& lb) {
  rec_.ncon = std::min(static_cast<int>(lb.size()), kMaxNcon);
  std::copy_n(lb.begin(), rec_.ncon, rec_.imbalance);
  real_t worst = 0.0;
  for (const real_t x : lb) worst = std::max(worst, x);
  return worst_imbalance(worst);
}

Seam& Seam::feasible(bool ok) {
  rec_.feasible = ok ? 1 : 0;
  return note({"feasible", rec_.feasible});
}

void Seam::close() {
  stop_clock();
  span_.finish();
  if (flight_ == nullptr) return;
  // Every seam, sampled or not, notes the workspace footprint, so the
  // high-water mark also sees a driver's pool once its last lease is back.
  if (wspool_ != nullptr) {
    flight_->note_workspace(wspool_->footprint_bytes(), wspool_->size());
  }
  if (sample_due_) {
    const Stage s = rec_.stage;
    if (s != Stage::kFmPass && s != Stage::kKWayPass &&
        s != Stage::kRebalance) {
      flight_->sample_memory();  // a level stage: the whole graph's state
    }
    flight_->record(rec_);
  }
  flight_ = nullptr;
}

}  // namespace mcgp
