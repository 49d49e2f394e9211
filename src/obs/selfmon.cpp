#include "obs/selfmon.h"

#include <cstdint>
#include <sstream>
#include <utility>

#include "detect/ika_sst.h"
#include "tsdb/metric.h"

namespace funnel::obs {
namespace {

double gauge_or(const Snapshot& snap, const std::string& name,
                double fallback) {
  auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? fallback : it->second;
}

/// depth/capacity for one bounded MPSC queue; returns false (check passes,
/// detail "n/a") when the subsystem never registered its gauges — sync
/// dispatch, no persistence, no journal.
bool queue_fraction(const Snapshot& snap, const std::string& depth_stat,
                    const std::string& capacity_stat, double* frac,
                    std::string* detail) {
  const double capacity = gauge_or(snap, capacity_stat, 0.0);
  if (capacity <= 0.0) {
    *frac = 0.0;
    *detail = "n/a";
    return false;
  }
  const double depth = gauge_or(snap, depth_stat, 0.0);
  *frac = depth / capacity;
  std::ostringstream os;
  os << "queue " << static_cast<std::uint64_t>(depth) << '/'
     << static_cast<std::uint64_t>(capacity);
  *detail = os.str();
  return true;
}

}  // namespace

std::string HealthReport::render() const {
  std::string out = healthy ? "healthy\n" : "unhealthy\n";
  for (const HealthCheck& c : checks) {
    out += c.ok ? "ok " : "FAIL ";
    out += c.name;
    out += ' ';
    out += c.detail;
    out += '\n';
  }
  return out;
}

HealthReport evaluate_health(const Snapshot& snap,
                             const SelfMonitorOptions& options) {
  HealthReport report;
  auto queue_check = [&](const char* name, const std::string& depth_stat,
                         const std::string& capacity_stat) {
    HealthCheck check{name, true, ""};
    double frac = 0.0;
    if (queue_fraction(snap, depth_stat, capacity_stat, &frac,
                       &check.detail)) {
      check.ok = frac < options.unhealthy_queue_frac;
    }
    report.healthy = report.healthy && check.ok;
    report.checks.push_back(std::move(check));
  };
  queue_check("ingest-dispatcher", "tsdb.store.queue_depth",
              "tsdb.store.queue_capacity");
  queue_check("wal-writer", "funnel.wal.queue_depth",
              "funnel.wal.queue_capacity");
  queue_check("journal-writer", "funnel.journal.queue_depth",
              "funnel.journal.queue_capacity");

  // Compaction: the background compactor cannot be probed directly from a
  // snapshot, but its work product can — a segment list far beyond the
  // compact threshold means it stopped keeping up.
  HealthCheck compact{"compaction", true, "n/a"};
  auto segs = snap.gauges.find("funnel.persist.segments");
  if (segs != snap.gauges.end() && options.compact_backlog_max > 0) {
    const auto count = static_cast<std::uint64_t>(segs->second);
    std::ostringstream os;
    os << "segments " << count << " (max " << options.compact_backlog_max
       << ')';
    compact.detail = os.str();
    compact.ok = count <= options.compact_backlog_max;
  }
  report.healthy = report.healthy && compact.ok;
  report.checks.push_back(std::move(compact));
  return report;
}

/// One sampled KPI: where its value comes from in the snapshot, its
/// `__funnel_self/` series identity, and its private detector.
struct SelfMonitor::Kpi {
  enum class Kind {
    kQueueFrac,     ///< depth gauge / capacity gauge (0 when unregistered)
    kHistDeltaMean  ///< mean of NEW histogram observations since last tick
  };

  std::string name;
  Kind kind = Kind::kQueueFrac;
  std::string depth_stat;     // kQueueFrac
  std::string capacity_stat;  // kQueueFrac
  std::string hist_stat;      // kHistDeltaMean
  std::string gauge_stat;     ///< "funnel.selfmon.<name>" mirror

  tsdb::MetricId metric;

  // Delta state for kHistDeltaMean. A tick with no new observations holds
  // the previous value instead of dropping to 0 — an idle assessor is not
  // a latency improvement, and the sawtooth would trip the detector.
  std::uint64_t prev_count = 0;
  double prev_sum = 0.0;
  double last_value = 0.0;

  std::unique_ptr<detect::IkaSst> scorer;
  std::unique_ptr<detect::OnlineDetector> detector;
  std::uint64_t last_alarm_tick = 0;
  bool ever_alarmed = false;

  double sample(const Snapshot& snap) {
    if (kind == Kind::kQueueFrac) {
      double frac = 0.0;
      std::string detail;
      queue_fraction(snap, depth_stat, capacity_stat, &frac, &detail);
      return frac;
    }
    auto it = snap.histograms.find(hist_stat);
    if (it != snap.histograms.end() && it->second.count > prev_count) {
      last_value =
          (it->second.sum - prev_sum) / double(it->second.count - prev_count);
      prev_count = it->second.count;
      prev_sum = it->second.sum;
    }
    return last_value;
  }
};

SelfMonitor::SelfMonitor(const Registry* watched, SelfMonitorOptions options)
    : watched_(watched), options_(std::move(options)) {
  auto add_kpi = [&](std::string name, Kpi::Kind kind, std::string a,
                     std::string b) {
    auto kpi = std::make_unique<Kpi>();
    kpi->name = name;
    kpi->kind = kind;
    if (kind == Kpi::Kind::kQueueFrac) {
      kpi->depth_stat = std::move(a);
      kpi->capacity_stat = std::move(b);
    } else {
      kpi->hist_stat = std::move(a);
    }
    kpi->gauge_stat = "funnel.selfmon." + name;
    kpi->metric = tsdb::service_metric(kSelfEntity, name);
    kpi->scorer = std::make_unique<detect::IkaSst>(
        detect::SstGeometry{.omega = options_.omega, .eta = 3});
    kpi->detector = std::make_unique<detect::OnlineDetector>(
        *kpi->scorer, options_.alarm, /*start_minute=*/0);
    kpi_names_.push_back(kpi->name);
    kpis_.push_back(std::move(kpi));
  };

  // The pipeline-health KPI schema (docs/OBSERVABILITY.md "Selfmon KPIs").
  add_kpi("dispatch_queue_frac", Kpi::Kind::kQueueFrac,
          "tsdb.store.queue_depth", "tsdb.store.queue_capacity");
  add_kpi("dispatch_lag_us", Kpi::Kind::kHistDeltaMean,
          "tsdb.store.dispatch_lag_us", "");
  add_kpi("wal_queue_frac", Kpi::Kind::kQueueFrac, "funnel.wal.queue_depth",
          "funnel.wal.queue_capacity");
  add_kpi("wal_commit_us", Kpi::Kind::kHistDeltaMean, "funnel.wal.commit_us",
          "");
  add_kpi("journal_queue_frac", Kpi::Kind::kQueueFrac,
          "funnel.journal.queue_depth", "funnel.journal.queue_capacity");
  add_kpi("sst_us", Kpi::Kind::kHistDeltaMean, "funnel.online.sst_us", "");
  add_kpi("time_to_verdict_min", Kpi::Kind::kHistDeltaMean,
          "funnel.online.time_to_verdict_min", "");

  if (watched_ != nullptr) {
    watched_->declare_counter("funnel.selfmon.ticks");
    watched_->declare_counter("funnel.selfmon.alarms");
    for (const auto& kpi : kpis_) watched_->declare_gauge(kpi->gauge_stat);
  }
}

SelfMonitor::~SelfMonitor() { stop(); }

void SelfMonitor::set_journal(const Journal* journal) {
  std::lock_guard lock(mutex_);
  journal_ = journal;
}

void SelfMonitor::tick() {
  if (!kEnabled || watched_ == nullptr) return;
  std::lock_guard lock(mutex_);
  tick_locked();
}

void SelfMonitor::tick_locked() {
  const Snapshot snap = watched_->snapshot();
  const auto minute = static_cast<MinuteTime>(tick_count_);
  for (auto& kpi : kpis_) {
    const double value = kpi->sample(snap);
    store_.append(kpi->metric, minute, value);
    watched_->set(kpi->gauge_stat, value);
    if (auto alarm = kpi->detector->push(value)) {
      on_alarm_locked(*kpi, *alarm);
    }
  }
  ++tick_count_;
  watched_->add("funnel.selfmon.ticks");
}

void SelfMonitor::on_alarm_locked(Kpi& kpi, const detect::Alarm& alarm) {
  ++alarms_;
  kpi.last_alarm_tick = tick_count_;
  kpi.ever_alarmed = true;
  watched_->add("funnel.selfmon.alarms");
  if (journal_ != nullptr) {
    // Same provenance shape as a customer-KPI verdict, under the reserved
    // service, so triage tooling sees pipeline degradation in-stream.
    JournalEvent ev;
    ev.source = "selfmon";
    ev.service = kSelfEntity;
    ev.change_type = "pipeline";
    ev.metric = kpi.metric.to_string();
    ev.entity_kind = "service";
    ev.kpi = kpi.name;
    ev.cause = "pipeline-degradation";
    ev.detected = true;
    ev.alarm_minute = alarm.minute;
    ev.sst_peak = alarm.peak_score;
    ev.determined_at = static_cast<MinuteTime>(tick_count_);
    journal_->append(std::move(ev));
  }
  // Re-arm so a second, later degradation episode alarms again; health()
  // latches the episode for alarm_hold_ticks.
  kpi.detector->rearm();
}

bool SelfMonitor::start() {
  if (!kEnabled || watched_ == nullptr) return false;
  std::lock_guard lock(run_mutex_);
  if (thread_running_) return false;
  stop_requested_ = false;
  thread_ = std::thread([this] {
    std::unique_lock lk(run_mutex_);
    while (!stop_requested_) {
      lk.unlock();
      tick();
      lk.lock();
      run_cv_.wait_for(lk, options_.tick_period,
                       [this] { return stop_requested_; });
    }
  });
  thread_running_ = true;
  return true;
}

void SelfMonitor::stop() {
  std::thread joinme;
  {
    std::lock_guard lock(run_mutex_);
    if (!thread_running_) return;
    stop_requested_ = true;
    run_cv_.notify_all();
    joinme = std::move(thread_);
    thread_running_ = false;
  }
  joinme.join();
}

bool SelfMonitor::running() const {
  std::lock_guard lock(run_mutex_);
  return thread_running_;
}

HealthReport SelfMonitor::health() const {
  HealthReport report;
  if (watched_ != nullptr) {
    report = evaluate_health(watched_->snapshot(), options_);
  }
  HealthCheck selfmon{"selfmon", true, ""};
  {
    std::lock_guard lock(mutex_);
    std::string degraded;
    for (const auto& kpi : kpis_) {
      if (kpi->ever_alarmed &&
          tick_count_ - kpi->last_alarm_tick <= options_.alarm_hold_ticks) {
        if (!degraded.empty()) degraded += ',';
        degraded += kpi->name;
      }
    }
    if (degraded.empty()) {
      std::ostringstream os;
      os << "ticks " << tick_count_ << " alarms " << alarms_;
      selfmon.detail = os.str();
    } else {
      selfmon.ok = false;
      selfmon.detail = "degraded: " + degraded;
    }
  }
  report.healthy = report.healthy && selfmon.ok;
  report.checks.push_back(std::move(selfmon));
  return report;
}

const std::vector<std::string>& SelfMonitor::kpis() const {
  return kpi_names_;
}

const tsdb::MetricStore& SelfMonitor::store() const { return store_; }

std::uint64_t SelfMonitor::ticks() const {
  std::lock_guard lock(mutex_);
  return tick_count_;
}

std::uint64_t SelfMonitor::alarms_raised() const {
  std::lock_guard lock(mutex_);
  return alarms_;
}

}  // namespace funnel::obs
