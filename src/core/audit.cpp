#include "core/audit.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "core/kway_refine.hpp"

namespace mcgp {

namespace {

/// Directed-sum cut with overflow checking; also verifies the directed
/// total is even (an odd total means the adjacency weights are not
/// symmetric, which every later cut/2 silently truncates).
sum_t audited_cut(const InvariantAuditor* aud, const Graph& g,
                  const std::vector<idx_t>& part, const char* site) {
  sum_t directed = 0;
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t pv = part[to_size(v)];
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      if (part[to_size(g.adjncy[to_size(e)])] != pv) {
        directed = checked_add(directed, g.adjwgt[to_size(e)]);
      }
    }
  }
  MCGP_AUDIT_MSG(aud, directed % 2 == 0, site,
                 ": directed cut total ", directed,
                 " is odd (asymmetric edge weights)");
  return directed / 2;
}

}  // namespace

bool parse_audit_level(const std::string& s, AuditLevel& out) {
  if (s == "off" || s == "0") {
    out = AuditLevel::kOff;
  } else if (s == "boundaries" || s == "1") {
    out = AuditLevel::kBoundaries;
  } else if (s == "paranoid" || s == "2") {
    out = AuditLevel::kParanoid;
  } else {
    return false;
  }
  return true;
}

const char* audit_check_name(AuditCheck c) {
  switch (c) {
    case AuditCheck::kCoarseLevel: return "coarse_level";
    case AuditCheck::kProjection: return "projection";
    case AuditCheck::kBisectionState: return "bisection_state";
    case AuditCheck::kKWayState: return "kway_state";
    case AuditCheck::kGainSample: return "gain_sample";
    case AuditCheck::kCutDelta: return "cut_delta";
    case AuditCheck::kFinalPartition: return "final_partition";
    case AuditCheck::kFeasibility: return "feasibility";
    case AuditCheck::kDescentMemo: return "descent_memo";
    case AuditCheck::kCount_: break;
  }
  return "?";
}

std::uint64_t InvariantAuditor::total_checks() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

std::string InvariantAuditor::summary() const {
  std::ostringstream oss;
  for (int c = 0; c < static_cast<int>(AuditCheck::kCount_); ++c) {
    if (c > 0) oss << ' ';
    oss << audit_check_name(static_cast<AuditCheck>(c)) << '='
        << counts_[to_size(c)].load(
               std::memory_order_relaxed);
  }
  return oss.str();
}

void InvariantAuditor::fail(const char* file, int line, const char* expr,
                            const std::string& msg) const {
  std::ostringstream oss;
  oss << "invariant audit failed at " << file << ":" << line << ": " << expr;
  if (!msg.empty()) oss << " — " << msg;
  throw AuditFailure(oss.str());
}

void InvariantAuditor::check_coarse_level(const Graph& fine,
                                          const Graph& coarse,
                                          const std::vector<idx_t>& cmap,
                                          const char* site) {
  MCGP_AUDIT_MSG(this, cmap.size() == to_size(fine.nvtxs),
                 site, ": cmap size ", cmap.size(), " != fine nvtxs ",
                 fine.nvtxs);
  MCGP_AUDIT_MSG(this, coarse.ncon == fine.ncon, site, ": ncon changed ",
                 fine.ncon, " -> ", coarse.ncon);

  // Per-coarse-vertex weight conservation (stronger than totals alone:
  // also catches weight landing on the wrong coarse vertex).
  const std::size_t ncw =
      to_size(coarse.nvtxs) * to_size(coarse.ncon);
  MCGP_AUDIT_MSG(this, coarse.vwgt.size() == ncw, site,
                 ": coarse vwgt size ", coarse.vwgt.size(), " != ", ncw);
  std::vector<sum_t> expect(ncw, 0);
  std::vector<idx_t> constituents(to_size(coarse.nvtxs), 0);
  for (idx_t v = 0; v < fine.nvtxs; ++v) {
    const idx_t cv = cmap[to_size(v)];
    MCGP_AUDIT_MSG(this, cv >= 0 && cv < coarse.nvtxs, site, ": cmap[", v,
                   "] = ", cv, " out of range [0, ", coarse.nvtxs, ")");
    ++constituents[to_size(cv)];
    const wgt_t* w = fine.weights(v);
    for (int i = 0; i < fine.ncon; ++i) {
      sum_t& slot = expect[to_size(cv) * to_size(fine.ncon) + to_size(i)];
      slot = checked_add(slot, w[i]);
    }
  }
  for (idx_t cv = 0; cv < coarse.nvtxs; ++cv) {
    MCGP_AUDIT_MSG(this, constituents[to_size(cv)] > 0,
                   site, ": coarse vertex ", cv, " has no constituents");
    for (int i = 0; i < coarse.ncon; ++i) {
      const std::size_t s = to_size(cv) * to_size(coarse.ncon) + to_size(i);
      MCGP_AUDIT_MSG(this, static_cast<sum_t>(coarse.vwgt[s]) == expect[s],
                     site, ": coarse vertex ", cv, " weight ", i, " is ",
                     coarse.vwgt[s], ", constituents sum to ", expect[s]);
    }
  }

  // Cached totals must agree with the conserved per-constraint sums.
  for (int i = 0; i < coarse.ncon; ++i) {
    MCGP_AUDIT_MSG(this,
                   coarse.tvwgt[to_size(i)] ==
                       fine.tvwgt[to_size(i)],
                   site, ": constraint ", i, " total not conserved: fine ",
                   fine.tvwgt[to_size(i)], " vs coarse ",
                   coarse.tvwgt[to_size(i)]);
  }

  // Edge-weight conservation: the directed weight of the coarse graph plus
  // the directed weight collapsed inside coarse vertices equals the fine
  // directed weight (merging parallel edges sums their weights).
  sum_t fine_total = 0, internal = 0, coarse_total = 0;
  for (idx_t v = 0; v < fine.nvtxs; ++v) {
    for (idx_t e = fine.xadj[to_size(v)]; e < fine.xadj[to_size(v + 1)]; ++e) {
      fine_total =
          checked_add(fine_total, fine.adjwgt[to_size(e)]);
      if (cmap[to_size(fine.adjncy[to_size(e)])] ==
          cmap[to_size(v)]) {
        internal =
            checked_add(internal, fine.adjwgt[to_size(e)]);
      }
    }
  }
  for (const wgt_t w : coarse.adjwgt) coarse_total = checked_add(coarse_total, w);
  MCGP_AUDIT_MSG(this, checked_add(coarse_total, internal) == fine_total,
                 site, ": edge weight not conserved: fine ", fine_total,
                 " != coarse ", coarse_total, " + internal ", internal);

  if (paranoid()) {
    const std::string problem = coarse.validate();
    MCGP_AUDIT_MSG(this, problem.empty(), site,
                   ": coarse graph structurally invalid: ", problem);
  }
  bump(AuditCheck::kCoarseLevel);
}

void InvariantAuditor::check_projection(const Graph& fine, const Graph& coarse,
                                        const std::vector<idx_t>& cmap,
                                        const std::vector<idx_t>& coarse_part,
                                        const std::vector<idx_t>& fine_part,
                                        const char* site) {
  MCGP_AUDIT_MSG(this,
                 fine_part.size() == to_size(fine.nvtxs),
                 site, ": projected partition size ", fine_part.size(),
                 " != nvtxs ", fine.nvtxs);
  MCGP_AUDIT_MSG(this,
                 coarse_part.size() == to_size(coarse.nvtxs),
                 site, ": coarse partition size ", coarse_part.size(),
                 " != coarse nvtxs ", coarse.nvtxs);
  for (idx_t v = 0; v < fine.nvtxs; ++v) {
    const idx_t cv = cmap[to_size(v)];
    MCGP_AUDIT_MSG(this,
                   fine_part[to_size(v)] ==
                       coarse_part[to_size(cv)],
                   site, ": vertex ", v, " projected to part ",
                   fine_part[to_size(v)],
                   " but its coarse vertex ", cv, " is in part ",
                   coarse_part[to_size(cv)]);
  }
  const sum_t coarse_cut = audited_cut(this, coarse, coarse_part, site);
  const sum_t fine_cut = audited_cut(this, fine, fine_part, site);
  MCGP_AUDIT_MSG(this, coarse_cut == fine_cut, site,
                 ": projection changed the cut: coarse ", coarse_cut,
                 " -> fine ", fine_cut);
  bump(AuditCheck::kProjection);
}

void InvariantAuditor::check_bisection_weights(const Graph& g,
                                               const std::vector<idx_t>& where,
                                               const BisectionBalance& bal,
                                               const char* site) {
  MCGP_AUDIT_MSG(this, where.size() == to_size(g.nvtxs),
                 site, ": where size ", where.size(), " != nvtxs ", g.nvtxs);
  sum_t fresh[2 * kMaxNcon] = {};
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t s = where[to_size(v)];
    MCGP_AUDIT_MSG(this, s == 0 || s == 1, site, ": vertex ", v,
                   " has side ", s, " (not 0/1)");
    const wgt_t* w = g.weights(v);
    for (int i = 0; i < g.ncon; ++i) {
      sum_t& slot = fresh[s * kMaxNcon + i];
      slot = checked_add(slot, w[i]);
    }
  }
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < g.ncon; ++i) {
      MCGP_AUDIT_MSG(this, bal.side_weight(s, i) == fresh[s * kMaxNcon + i],
                     site, ": side ", s, " constraint ", i,
                     " bookkeeping says ", bal.side_weight(s, i),
                     ", recompute says ", fresh[s * kMaxNcon + i]);
    }
  }
  bump(AuditCheck::kBisectionState);
}

void InvariantAuditor::check_bisection_cut(const Graph& g,
                                           const std::vector<idx_t>& where,
                                           sum_t claimed_cut,
                                           const char* site) {
  const sum_t fresh = audited_cut(this, g, where, site);
  MCGP_AUDIT_MSG(this, claimed_cut == fresh, site,
                 ": incremental cut ", claimed_cut, " != recomputed cut ",
                 fresh);
  bump(AuditCheck::kBisectionState);
}

void InvariantAuditor::check_kway_state(const Graph& g,
                                        const std::vector<idx_t>& where,
                                        idx_t nparts,
                                        const std::vector<sum_t>& pwgts,
                                        const std::vector<idx_t>* vcount,
                                        const char* site) {
  MCGP_AUDIT_MSG(this, where.size() == to_size(g.nvtxs),
                 site, ": where size ", where.size(), " != nvtxs ", g.nvtxs);
  MCGP_AUDIT_MSG(this,
                 pwgts.size() ==
                     to_size(nparts) * to_size(g.ncon),
                 site, ": pwgts size ", pwgts.size(), " != nparts*ncon ",
                 to_size(nparts) * to_size(g.ncon));
  std::vector<sum_t> fresh(to_size(nparts) * to_size(g.ncon), 0);
  std::vector<idx_t> counts(to_size(nparts), 0);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t p = where[to_size(v)];
    MCGP_AUDIT_MSG(this, p >= 0 && p < nparts, site, ": vertex ", v,
                   " in part ", p, " out of range [0, ", nparts, ")");
    ++counts[to_size(p)];
    const wgt_t* w = g.weights(v);
    for (int i = 0; i < g.ncon; ++i) {
      sum_t& slot = fresh[to_size(p) * to_size(g.ncon) + to_size(i)];
      slot = checked_add(slot, w[i]);
    }
  }
  for (idx_t p = 0; p < nparts; ++p) {
    for (int i = 0; i < g.ncon; ++i) {
      const std::size_t s = to_size(p) * to_size(g.ncon) + to_size(i);
      MCGP_AUDIT_MSG(this, pwgts[s] == fresh[s], site, ": part ", p,
                     " constraint ", i, " bookkeeping says ", pwgts[s],
                     ", recompute says ", fresh[s]);
    }
    if (vcount != nullptr) {
      MCGP_AUDIT_MSG(this,
                     (*vcount)[to_size(p)] ==
                         counts[to_size(p)],
                     site, ": part ", p, " vertex count bookkeeping says ",
                     (*vcount)[to_size(p)],
                     ", recompute says ", counts[to_size(p)]);
    }
  }
  bump(AuditCheck::kKWayState);
}

void InvariantAuditor::check_kway_boundary(const Graph& g,
                                           const std::vector<idx_t>& where,
                                           const KWayBoundary& bnd,
                                           const char* site) {
  idx_t listed = 0;
  std::vector<std::pair<idx_t, wgt_t>> conn;  // (part, edge weight)
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t pv = where[to_size(v)];
    sum_t id = 0;
    sum_t ed = 0;
    idx_t next = 0;
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      if (where[to_size(g.adjncy[to_size(e)])] == pv) {
        id = checked_add(id, g.adjwgt[to_size(e)]);
      } else {
        ed = checked_add(ed, g.adjwgt[to_size(e)]);
        ++next;
      }
    }
    MCGP_AUDIT_MSG(this,
                   bnd.internal_degree(v) == id &&
                       bnd.external_degree(v) == ed &&
                       bnd.external_edges(v) == next,
                   site, ": vertex ", v, " bookkeeping says id=",
                   bnd.internal_degree(v), " ed=", bnd.external_degree(v),
                   " external edges=", bnd.external_edges(v),
                   ", recompute says id=", id, " ed=", ed,
                   " external edges=", next);
    if (bnd.dead(v)) {
      // A dead mark claims no part's connectivity reaches v's internal
      // degree; sum v's edges part by part to check.
      conn.clear();
      for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
        const idx_t pu = where[to_size(g.adjncy[to_size(e)])];
        if (pu != pv) conn.emplace_back(pu, g.adjwgt[to_size(e)]);
      }
      std::sort(conn.begin(), conn.end());
      for (std::size_t i = 0; i < conn.size();) {
        const idx_t p = conn[i].first;
        sum_t w = 0;
        for (; i < conn.size() && conn[i].first == p; ++i) {
          w = checked_add(w, conn[i].second);
        }
        MCGP_AUDIT_MSG(this, w < id, site, ": vertex ", v,
                       " is marked dead but part ", p, " has connectivity ",
                       w, " >= its internal degree ", id);
      }
    }
    const bool movable = next > 0 && ed >= id;
    const idx_t pos = bnd.position(v);
    MCGP_AUDIT_MSG(this, (pos >= 0) == movable, site, ": vertex ", v,
                   " listed as movable ", pos >= 0, " but has ", next,
                   " external edges, id=", id, " ed=", ed);
    if (!movable) continue;
    ++listed;
    const std::vector<idx_t>& list = bnd.movable(bnd.color(v));
    MCGP_AUDIT_MSG(this,
                   to_size(pos) < list.size() && list[to_size(pos)] == v,
                   site, ": vertex ", v, " not at its list position ", pos);
  }
  std::size_t total = 0;
  for (idx_t c = 0; c < bnd.ncolors(); ++c) total += bnd.movable(c).size();
  MCGP_AUDIT_MSG(this, total == to_size(listed), site, ": lists hold ", total,
                 " vertices, recompute finds ", listed);
  bump(AuditCheck::kKWayState);
}

void InvariantAuditor::check_drain_degrees(const Graph& g,
                                           const std::vector<idx_t>& where,
                                           const std::vector<sum_t>& ed_id,
                                           const char* site) {
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t pv = where[to_size(v)];
    sum_t idw = 0, edw = 0;
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      if (where[to_size(g.adjncy[to_size(e)])] == pv) {
        idw = checked_add(idw, g.adjwgt[to_size(e)]);
      } else {
        edw = checked_add(edw, g.adjwgt[to_size(e)]);
      }
    }
    MCGP_AUDIT_MSG(this, ed_id[to_size(v)] == checked_sub(edw, idw), site,
                   ": vertex ", v, " drain cache says ed-id=",
                   ed_id[to_size(v)], ", recompute says id=", idw,
                   " ed=", edw);
  }
  bump(AuditCheck::kKWayState);
}

void InvariantAuditor::check_fm_state(const Graph& g,
                                      const std::vector<idx_t>& where,
                                      const std::vector<sum_t>& id,
                                      const std::vector<sum_t>& ed,
                                      const BucketQueue& queued,
                                      const char* site) {
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t pv = where[to_size(v)];
    sum_t idw = 0, edw = 0;
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      if (where[to_size(g.adjncy[to_size(e)])] == pv) {
        idw = checked_add(idw, g.adjwgt[to_size(e)]);
      } else {
        edw = checked_add(edw, g.adjwgt[to_size(e)]);
      }
    }
    MCGP_AUDIT_MSG(this, id[to_size(v)] == idw && ed[to_size(v)] == edw,
                   site, ": vertex ", v, " bookkeeping says id=",
                   id[to_size(v)], " ed=", ed[to_size(v)],
                   ", recompute says id=", idw, " ed=", edw);
    MCGP_AUDIT_MSG(this, (queued.owner(v) >= 0) == (edw > 0), site,
                   ": vertex ", v, " queued ", queued.owner(v) >= 0,
                   " but its external degree is ", edw);
  }
  bump(AuditCheck::kBisectionState);
}

void InvariantAuditor::check_gain(const Graph& g,
                                  const std::vector<idx_t>& where, idx_t v,
                                  sum_t claimed_gain, const char* site) {
  sum_t idw = 0, edw = 0;
  const idx_t pv = where[to_size(v)];
  for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
    const wgt_t w = g.adjwgt[to_size(e)];
    if (where[to_size(g.adjncy[to_size(e)])] == pv) {
      idw = checked_add(idw, w);
    } else {
      edw = checked_add(edw, w);
    }
  }
  const sum_t fresh = checked_sub(edw, idw);
  MCGP_AUDIT_MSG(this, claimed_gain == fresh, site, ": vertex ", v,
                 " queue gain ", claimed_gain, " != recomputed gain ", fresh,
                 " (ed ", edw, ", id ", idw, ")");
  bump(AuditCheck::kGainSample);
}

void InvariantAuditor::check_cut_delta(sum_t cut_before, sum_t gain_sum,
                                       sum_t cut_after, const char* site) {
  MCGP_AUDIT_MSG(this, checked_sub(cut_before, gain_sum) == cut_after, site,
                 ": cut delta inconsistent: started at ", cut_before,
                 ", accumulated gain ", gain_sum, ", ended at ", cut_after);
  bump(AuditCheck::kCutDelta);
}

void InvariantAuditor::check_memo_scan(idx_t v, idx_t memo, idx_t full,
                                       const char* site) {
  MCGP_AUDIT_MSG(this, memo == full, site, ": vertex ", v,
                 " memoized scan chose ", memo, ", full scan chose ", full);
  bump(AuditCheck::kDescentMemo);
}

void InvariantAuditor::check_final_partition(const Graph& g,
                                             const std::vector<idx_t>& part,
                                             idx_t nparts, sum_t claimed_cut,
                                             const char* site) {
  MCGP_AUDIT_MSG(this, part.size() == to_size(g.nvtxs),
                 site, ": partition size ", part.size(), " != nvtxs ",
                 g.nvtxs);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t p = part[to_size(v)];
    MCGP_AUDIT_MSG(this, p >= 0 && p < nparts, site, ": vertex ", v,
                   " in part ", p, " out of range [0, ", nparts, ")");
  }
  const sum_t fresh = audited_cut(this, g, part, site);
  MCGP_AUDIT_MSG(this, claimed_cut == fresh, site, ": claimed cut ",
                 claimed_cut, " != recomputed cut ", fresh);
  bump(AuditCheck::kFinalPartition);
}

void InvariantAuditor::check_feasibility(const Graph& g,
                                         const std::vector<idx_t>& part,
                                         idx_t nparts,
                                         const std::vector<real_t>& ub,
                                         const std::vector<real_t>* tpwgts,
                                         bool declared_feasible,
                                         const char* site) {
  MCGP_AUDIT_MSG(this, part.size() == to_size(g.nvtxs),
                 site, ": partition size ", part.size(), " != nvtxs ",
                 g.nvtxs);
  MCGP_AUDIT_MSG(this, ub.size() >= to_size(g.ncon), site,
                 ": ubvec has ", ub.size(), " entries for ncon ", g.ncon);
  std::vector<sum_t> fresh(to_size(nparts) * to_size(g.ncon), 0);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t p = part[to_size(v)];
    MCGP_AUDIT_MSG(this, p >= 0 && p < nparts, site, ": vertex ", v,
                   " in part ", p, " out of range [0, ", nparts, ")");
    const wgt_t* w = g.weights(v);
    for (int i = 0; i < g.ncon; ++i) {
      sum_t& slot = fresh[to_size(p) * to_size(g.ncon) + to_size(i)];
      slot = checked_add(slot, w[i]);
    }
  }
  const bool actual = kway_feasible(g, fresh, nparts, ub, tpwgts);
  // Locate the worst (part, constraint) ratio for the failure message.
  real_t worst = 0.0;
  idx_t worst_p = 0;
  int worst_i = 0;
  for (idx_t p = 0; p < nparts; ++p) {
    const real_t frac = tpwgts != nullptr
                            ? (*tpwgts)[to_size(p)]
                            : 1.0 / static_cast<real_t>(nparts);
    for (int i = 0; i < g.ncon; ++i) {
      if (g.tvwgt[to_size(i)] <= 0) continue;
      const real_t limit =
          ub[to_size(i)] * frac * static_cast<real_t>(g.tvwgt[to_size(i)]);
      const real_t ratio =
          static_cast<real_t>(
              fresh[to_size(p) * to_size(g.ncon) + to_size(i)]) /
          limit;
      if (ratio > worst) {
        worst = ratio;
        worst_p = p;
        worst_i = i;
      }
    }
  }
  MCGP_AUDIT_MSG(this, declared_feasible == actual, site,
                 ": declared feasible=", declared_feasible ? 1 : 0,
                 " but recomputed weights say ", actual ? 1 : 0,
                 " (worst part ", worst_p, " constraint ", worst_i,
                 " at ", worst, "x its tolerance limit)");
  bump(AuditCheck::kFeasibility);
}

}  // namespace mcgp
