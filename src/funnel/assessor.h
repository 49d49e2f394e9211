// Batch assessment — the Fig. 3 decision flow.
//
// For a recorded software change, Funnel::assess:
//   1. identifies the impact set (§3.1);
//   2. runs the improved+IKA SST detector over every impact-set KPI around
//      the change (step 2), applying the 7-minute persistence rule;
//   3. for each detected KPI change, determines causality (steps 4-11):
//      affected-service KPIs and Full-Launching changes compare against the
//      KPI's own 30-day history (seasonality exclusion, §3.2.5); everything
//      else compares treated vs control entities via DiD (§3.2.4);
//   4. assembles the AssessmentReport delivered to the operations team.
#pragma once

#include <memory>

#include "changes/change_log.h"
#include "common/thread_pool.h"
#include "funnel/config.h"
#include "funnel/impact_set.h"
#include "funnel/report.h"
#include "topology/topology.h"
#include "tsdb/store.h"

namespace funnel::detect {
class IkaSst;
struct CascadeCounters;
}  // namespace funnel::detect

namespace funnel::obs {
class Span;
}  // namespace funnel::obs

namespace funnel::core {

/// Add the tallies of cascade-gated windows to the funnel.cascade.*
/// counters; the batch and online assessors both publish through it.
void record_cascade_counters(const obs::Registry& stats,
                             const detect::CascadeCounters& counters);

/// Batch assessment engine. With config.num_threads != 1 the two hot
/// fan-outs run on a fixed-size ThreadPool: assess() scores each impact-set
/// KPI on its own task (one warm-started IkaSst scorer per execution slot,
/// reset() between KPIs so the basis never leaks across streams) and
/// assess_window() additionally distributes whole changes across the pool.
/// Both paths write into pre-sized slots indexed by KPI/change order, so a
/// report is byte-identical regardless of thread count or scheduling. The
/// referenced topology, change log and metric store are only read through
/// const methods, which hold no hidden mutable state (no caches, no lazy
/// indexes) — concurrent readers need no locks. Callers must not mutate the
/// store/topology/log while an assessment is in flight.
class Funnel {
 public:
  Funnel(FunnelConfig config, const topology::ServiceTopology& topo,
         const changes::ChangeLog& log, const tsdb::MetricStore& store);
  ~Funnel();

  Funnel(const Funnel&) = delete;
  Funnel& operator=(const Funnel&) = delete;

  /// Assess one recorded change against the data currently in the store.
  AssessmentReport assess(changes::ChangeId id) const;

  /// Assess every change recorded in [t0, t1) — the daily batch the
  /// operations team reviews (Table 3's workload).
  std::vector<AssessmentReport> assess_window(MinuteTime t0,
                                              MinuteTime t1) const;

  /// The Fig. 3 flow for a single KPI (exposed for tests and the online
  /// assessor).
  ItemVerdict assess_metric(const changes::SoftwareChange& change,
                            const ImpactSet& set,
                            const tsdb::MetricId& metric) const;

  const FunnelConfig& config() const { return config_; }

  /// Causality determination given a raised alarm (Fig. 3 steps 4-11).
  /// `post_window` caps the post-change period (the online assessor passes
  /// the data observed so far). Also used by FunnelOnline.
  void determine_cause(const changes::SoftwareChange& change,
                       const ImpactSet& set, const tsdb::MetricId& metric,
                       MinuteTime post_window, ItemVerdict& verdict) const;

 private:
  /// assess_metric with an explicit scorer (reset()-ed before use) so the
  /// parallel path can keep one warm-started scorer per execution slot.
  ItemVerdict assess_metric_with(detect::IkaSst& scorer,
                                 const changes::SoftwareChange& change,
                                 const ImpactSet& set,
                                 const tsdb::MetricId& metric) const;

  /// Attach SST decision provenance (peak/raw/damped scores, geometry,
  /// thresholds) to an active per-KPI span. Traced path only — never runs
  /// with a null tracer, so the recompute cannot perturb reports.
  void trace_sst_provenance(obs::Span& span, const detect::Alarm& alarm,
                            const std::vector<double>& slice,
                            const std::vector<double>& scores,
                            MinuteTime t0) const;

  FunnelConfig config_;
  const topology::ServiceTopology& topo_;
  const changes::ChangeLog& log_;
  const tsdb::MetricStore& store_;
  std::unique_ptr<ThreadPool> pool_;  ///< null when running serially
};

}  // namespace funnel::core
