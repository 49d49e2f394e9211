#include "funnel/online.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.h"
#include "funnel/verdict_journal.h"
#include "obs/journal.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "tsdb/persist/format.h"

namespace funnel::core {
namespace {

// The internal batch engine only serves per-metric determine_cause calls
// from inside store callbacks — it never runs the batch fan-outs, so it
// must not spawn a pool of idle workers.
FunnelConfig serial(FunnelConfig config) {
  config.num_threads = 1;
  return config;
}

namespace persist = tsdb::persist;

// Watch-snapshot blob version (persisted inside the store checkpoint; see
// docs/STORAGE.md, "Watch snapshot"). Bump on any layout change — restore
// refuses blobs it does not understand rather than guessing.
// Version 2 adds each metric watch's fixed DiD post window; version 1 blobs
// still restore (their pending determinations re-derive it).
constexpr std::uint8_t kWatchSnapshotVersion = 2;

// The ItemVerdict codec persists the *decision*, not the evidence trail:
// determinations consumed store state (control groups, historical windows)
// as of the minute they ran, which a restarted process cannot re-derive.
void encode_verdict(std::string& out, const ItemVerdict& v) {
  persist::put_u8(out, v.kpi_change_detected ? 1 : 0);
  persist::put_u8(out, v.alarm.has_value() ? 1 : 0);
  if (v.alarm) {
    persist::put_i64(out, v.alarm->minute);
    persist::put_u64(out, v.alarm->first_window);
    persist::put_f64(out, v.alarm->peak_score);
  }
  persist::put_u8(out, static_cast<std::uint8_t>(v.cause));
  persist::put_u8(out, static_cast<std::uint8_t>(v.inconclusive_reason));
  persist::put_u8(out, v.did_fit.has_value() ? 1 : 0);
  if (v.did_fit) {
    persist::put_f64(out, v.did_fit->alpha);
    persist::put_f64(out, v.did_fit->alpha_scaled);
    persist::put_f64(out, v.did_fit->std_error);
    persist::put_f64(out, v.did_fit->t_stat);
    persist::put_u64(out, v.did_fit->n_treated);
    persist::put_u64(out, v.did_fit->n_control);
  }
  persist::put_u8(out, v.used_historical_control ? 1 : 0);
  persist::put_u8(out, v.used_fallback_control ? 1 : 0);
  persist::put_u8(out, v.quality.has_value() ? 1 : 0);
  if (v.quality) {
    persist::put_u64(out, v.quality->window_minutes);
    persist::put_u64(out, v.quality->clean_samples);
    persist::put_f64(out, v.quality->coverage);
    persist::put_u64(out, v.quality->longest_gap_run);
    persist::put_u64(out, v.quality->longest_flat_run);
  }
  persist::put_u8(out, v.determined_at.has_value() ? 1 : 0);
  if (v.determined_at) persist::put_i64(out, *v.determined_at);
}

void decode_verdict(persist::ByteReader& r, ItemVerdict& v) {
  v.kpi_change_detected = r.get_u8() != 0;
  if (r.get_u8() != 0) {
    detect::Alarm alarm;
    alarm.minute = r.get_i64();
    alarm.first_window = static_cast<std::size_t>(r.get_u64());
    alarm.peak_score = r.get_f64();
    v.alarm = alarm;
  }
  v.cause = static_cast<Cause>(r.get_u8());
  v.inconclusive_reason = static_cast<InconclusiveReason>(r.get_u8());
  if (r.get_u8() != 0) {
    did::DiDResult fit;
    fit.alpha = r.get_f64();
    fit.alpha_scaled = r.get_f64();
    fit.std_error = r.get_f64();
    fit.t_stat = r.get_f64();
    fit.n_treated = static_cast<std::size_t>(r.get_u64());
    fit.n_control = static_cast<std::size_t>(r.get_u64());
    v.did_fit = fit;
  }
  v.used_historical_control = r.get_u8() != 0;
  v.used_fallback_control = r.get_u8() != 0;
  if (r.get_u8() != 0) {
    tsdb::QualityReport q;
    q.window_minutes = static_cast<std::size_t>(r.get_u64());
    q.clean_samples = static_cast<std::size_t>(r.get_u64());
    q.coverage = r.get_f64();
    q.longest_gap_run = static_cast<std::size_t>(r.get_u64());
    q.longest_flat_run = static_cast<std::size_t>(r.get_u64());
    v.quality = q;
  }
  if (r.get_u8() != 0) v.determined_at = r.get_i64();
}

}  // namespace

FunnelOnline::FunnelOnline(FunnelConfig config,
                           const topology::ServiceTopology& topo,
                           const changes::ChangeLog& log,
                           tsdb::MetricStore& store)
    : config_(config),
      topo_(topo),
      log_(log),
      store_(store),
      batch_(serial(config), topo, log, store),
      record_feed_(store.persistent()) {}

FunnelOnline::~FunnelOnline() {
  if (subscribed_) store_.unsubscribe(subscription_);
}

void FunnelOnline::watch(changes::ChangeId id) {
  // The marker must hit the WAL *before* priming reads the store, so that
  // tail replay re-registers the watch against exactly the store state the
  // original registration saw (docs/STORAGE.md, "Watch markers").
  if (store_.persistent()) store_.log_watch_marker(id);
  watch_impl(id);
}

void FunnelOnline::replay_watch(changes::ChangeId id) { watch_impl(id); }

void FunnelOnline::watch_impl(changes::ChangeId id) {
  const changes::SoftwareChange& change = log_.get(id);
  ChangeWatch watch;
  watch.change_id = id;
  watch.set = identify_impact_set(change, topo_);
  watch.deadline = change.time + config_.horizon;
  watch.trace = obs::DetachedSpan(config_.tracer, "funnel.watch");
  if (watch.trace.active()) {
    watch.trace.attr("change.id", id);
    watch.trace.attr("change.minute", change.time);
    watch.trace.attr("change.service", std::string_view(change.service));
    watch.trace.attr("watch.deadline", watch.deadline);
  }

  // Priming runs on the control thread; its span parents under the watch
  // root explicitly (the root never installs itself as ambient context).
  obs::Span prime_span(watch.trace.context(), "funnel.online.prime");
  for (const tsdb::MetricId& metric : impact_metrics(watch.set, store_)) {
    // Copy the priming window under the shard's reader lock — watch() runs
    // on the control thread and must not race a store that is already
    // ingesting (docs/CONCURRENCY.md, "Online assessor").
    MinuteTime prime_start = 0;
    std::vector<double> prime;
    store_.read(metric, [&](const tsdb::TimeSeries& series) {
      prime_start =
          std::max(series.start_time(), change.time - config_.lookback);
      prime = series.slice(prime_start, series.end_time());
    });
    MetricWatch mw = make_metric_watch(metric, prime_start);
    // Prime with whatever history is already in the store; pre-change
    // alarms are discarded (rearmed) — only post-deployment behavior
    // changes are attributable.
    for (double v : prime) feed_detector(change, mw, v);
    watch.metrics.emplace(metric, std::move(mw));
  }
  if (prime_span.active()) {
    prime_span.attr("watch.kpis", watch.metrics.size());
  }
  watches_.emplace(id, std::move(watch));
  if (config_.stats != nullptr) {
    config_.stats->add("funnel.online.watches_started");
    config_.stats->set("funnel.online.active_watches",
                       static_cast<double>(watches_.size()));
  }

  subscribe_once();
}

FunnelOnline::MetricWatch FunnelOnline::make_metric_watch(
    const tsdb::MetricId& metric, MinuteTime start) {
  MetricWatch mw;
  mw.metric = metric;
  mw.verdict.metric = metric;
  auto scorer = std::make_unique<detect::IkaSst>(config_.geometry,
                                                 sst_params(config_));
  detect::ChangeScorer* active = nullptr;
  if (config_.sst_cascade) {
    detect::CascadeConfig cc = config_.cascade;
    cc.sst_threshold = config_.alarm.threshold;
    mw.gate = std::make_unique<detect::CascadeGate>(std::move(scorer), cc);
    active = mw.gate.get();
  } else {
    mw.scorer = std::move(scorer);
    active = mw.scorer.get();
  }
  mw.detector = std::make_unique<detect::OnlineDetector>(*active,
                                                         config_.alarm, start);
  mw.quality.start = start;
  mw.fed_start = start;
  return mw;
}

void FunnelOnline::subscribe_once() {
  if (subscribed_) return;
  subscription_ = store_.subscribe(
      {}, [this](const tsdb::MetricId& m, MinuteTime t, double v) {
        handle_sample(m, t, v);
      });
  subscribed_ = true;
}

void FunnelOnline::feed_detector(const changes::SoftwareChange& change,
                                 MetricWatch& mw, double value) {
  if (record_feed_) mw.fed.push_back(value);
  mw.quality.on_sample(value);
  const auto alarm = mw.detector->push(value);
  if (!alarm) return;
  if (alarm->minute < change.time) {
    mw.detector->rearm();
  } else if (!mw.verdict.kpi_change_detected) {
    mw.verdict.kpi_change_detected = true;
    mw.verdict.alarm = *alarm;
    mw.pending_determination = true;
  }
}

void FunnelOnline::handle_sample(const tsdb::MetricId& id, MinuteTime t,
                                 double value) {
  const obs::ScopedTimer span(config_.stats, "funnel.online.sample_us");
  if (config_.stats != nullptr) {
    config_.stats->add("funnel.online.samples_ingested");
  }
  std::vector<changes::ChangeId> finished;
  for (auto& [cid, watch] : watches_) {
    const changes::SoftwareChange& change = log_.get(cid);
    const auto it = watch.metrics.find(id);
    if (it != watch.metrics.end()) {
      MetricWatch& mw = it->second;
      // The detector consumes exactly one sample per minute. A dirty feed
      // delivers duplicates, reordered and late samples: align by the
      // detector's clock — skipped minutes are scored as the NaN gaps they
      // were at delivery time, and anything at/before an already-scored
      // minute is dropped here (the store has reconciled it via upsert,
      // but detection cannot rewind).
      const MinuteTime expected = mw.detector->next_minute();
      if (t >= expected) {
        for (MinuteTime m = expected; m < t; ++m) {
          feed_detector(change, mw,
                        std::numeric_limits<double>::quiet_NaN());
          if (config_.stats != nullptr) {
            config_.stats->add("funnel.online.gap_minutes_scored");
          }
        }
        feed_detector(change, mw, value);
        if (mw.pending_determination && mw.did_blocker.kpi.empty()) {
          try_determination(watch, mw, t);
        }
      } else if (config_.stats != nullptr) {
        config_.stats->add("funnel.online.stale_samples_skipped");
      }
    }
    if (t >= watch.deadline) finished.push_back(cid);
  }
  // A waiting determination's inputs can only complete when a sample of
  // the series that held it back arrives: re-check just those (and any
  // restored from a snapshot, which name no series yet).
  if (awaiting_inputs_) {
    awaiting_inputs_ = false;
    for (auto& [cid, watch] : watches_) {
      for (auto& [metric, mw] : watch.metrics) {
        if (!mw.pending_determination || mw.did_post == 0) continue;
        if (mw.did_blocker.kpi.empty() || mw.did_blocker == id) {
          try_determination(watch, mw, t);
        } else {
          awaiting_inputs_ = true;
        }
      }
    }
  }
  for (changes::ChangeId cid : finished) finalize(cid);
}

std::size_t FunnelOnline::expire(MinuteTime now) {
  std::vector<changes::ChangeId> expired;
  for (const auto& [cid, watch] : watches_) {
    if (now >= watch.deadline + config_.watch_timeout) expired.push_back(cid);
  }
  for (changes::ChangeId cid : expired) finalize(cid, /*timed_out=*/true);
  if (config_.stats != nullptr && !expired.empty()) {
    config_.stats->add("funnel.online.watches_expired", expired.size());
  }
  return expired.size();
}

void FunnelOnline::try_determination(ChangeWatch& watch, MetricWatch& mw,
                                     MinuteTime now) {
  const changes::SoftwareChange& change = log_.get(watch.change_id);
  if (mw.did_post == 0) {
    // Use only fully-delivered minutes of the treated feed: samples for
    // `now` are still arriving metric by metric, so the post period ends
    // at `now` (exclusive).
    const MinuteTime post = now - change.time;
    if (post < config_.min_did_window) return;  // wait for more post data
    mw.did_post = post;
  }
  // The fit reads the treated and control series as the store holds them;
  // running it before they cover the post window would make the verdict
  // depend on delivery order (a WAL-tail replay, say, sees a different
  // store than the live dispatcher did).
  if (!did_inputs_complete(watch, mw)) {
    awaiting_inputs_ = true;
    return;
  }
  // Runs on the dispatcher thread for an async store. Parenting under the
  // watch root (not the ambient context) keeps one tree per watch; the span
  // installs itself as ambient, so determine_cause's own spans nest inside.
  obs::Span trace_span(watch.trace.context(), "funnel.online.determine");
  if (trace_span.active()) {
    trace_span.attr("kpi.metric", mw.metric.to_string());
    trace_span.attr("kpi.minute", now);
    trace_span.attr("kpi.post_window", mw.did_post);
  }
  batch_.determine_cause(change, watch.set, mw.metric, mw.did_post,
                         mw.verdict);
  mw.pending_determination = false;
  note_determined(change, mw, change.time + mw.did_post);
  if (mw.verdict.caused_by_software_change() && verdict_cb_) {
    verdict_cb_(watch.change_id, mw.verdict);
  }
}

bool FunnelOnline::did_inputs_complete(const ChangeWatch& watch,
                                       MetricWatch& mw) const {
  // The historical path reads only the KPI's own series, which the feed
  // has delivered through the current minute.
  if (is_affected_service_metric(watch.set, mw.metric) ||
      !watch.set.dark_launched) {
    return true;
  }
  const changes::SoftwareChange& change = log_.get(watch.change_id);
  const MinuteTime post_end =
      change.time + std::min(config_.did_window, mw.did_post);
  const auto covered = [&](const std::vector<tsdb::MetricId>& group) {
    for (const tsdb::MetricId& id : group) {
      bool behind = false;
      // A series the store has never seen cannot catch up; DiD skips it.
      store_.read_if(id, [&](const tsdb::TimeSeries& s) {
        behind = s.end_time() < post_end;
      });
      if (behind) {
        mw.did_blocker = id;
        return false;
      }
    }
    return true;
  };
  return covered(treated_group_for(watch.set, mw.metric)) &&
         covered(control_group_for(watch.set, mw.metric));
}

void FunnelOnline::note_determined(const changes::SoftwareChange& change,
                                   MetricWatch& mw, MinuteTime minute) {
  mw.verdict.determined_at = minute;
  if (config_.stats == nullptr) return;
  config_.stats->add(std::string("funnel.online.verdicts.") +
                     to_string(mw.verdict.cause));
  if (mw.verdict.caused_by_software_change()) {
    config_.stats->add("funnel.online.verdicts_confirmed");
    // The headline series: minutes from change deployment to a confirmed
    // verdict (§5.2 was ~10 against 1.5 h of manual assessment).
    config_.stats->observe("funnel.online.time_to_verdict_min",
                           static_cast<double>(minute - change.time));
  }
}

void FunnelOnline::FeedQuality::on_sample(double v) {
  if (std::isfinite(v)) {
    ++clean;
    gap_run = 0;
    flat_run = (have_prev && v == prev) ? flat_run + 1 : 1;
    if (flat_run > longest_flat) longest_flat = flat_run;
    prev = v;
    have_prev = true;
  } else {
    ++gap_run;
    flat_run = 0;
    have_prev = false;
    if (gap_run > longest_gap) longest_gap = gap_run;
  }
}

tsdb::QualityReport FunnelOnline::FeedQuality::report(MinuteTime frontier,
                                                      MinuteTime end) const {
  tsdb::QualityReport q;
  q.window_minutes =
      end > start ? static_cast<std::size_t>(end - start) : clean;
  q.clean_samples = clean;
  // Minutes the feed never reached before the window closed are one
  // trailing gap, merged with any open gap run at the frontier.
  std::size_t tail = gap_run;
  if (end > frontier) tail += static_cast<std::size_t>(end - frontier);
  q.longest_gap_run = std::max(longest_gap, tail);
  q.longest_flat_run = longest_flat;
  q.coverage =
      q.window_minutes == 0
          ? 0.0
          : std::min(1.0, static_cast<double>(q.clean_samples) /
                              static_cast<double>(q.window_minutes));
  return q;
}

void FunnelOnline::finalize(changes::ChangeId id, bool timed_out) {
  const auto wit = watches_.find(id);
  if (wit == watches_.end()) return;
  ChangeWatch& watch = wit->second;
  const changes::SoftwareChange& change = log_.get(id);

  AssessmentReport report;
  report.change_id = id;
  report.change_time = change.time;
  report.impact_set = watch.set;
  const obs::Journal* journal = config_.journal;
  const bool journal_on = journal != nullptr && journal->active();
  {
    obs::Span trace_span(watch.trace.context(), "funnel.online.finalize");
    if (trace_span.active() && timed_out) {
      trace_span.attr("watch.timed_out", 1);
    }
    for (auto& [metric, mw] : watch.metrics) {
      (void)metric;
      mw.verdict.quality =
          mw.quality.report(mw.detector->next_minute(), watch.deadline);
      if (mw.pending_determination) {
        if (timed_out) {
          // The feed starved before DiD ever became possible; a verdict
          // now would rest on data we know never arrived.
          mw.verdict.cause = Cause::kInconclusive;
          mw.verdict.inconclusive_reason =
              InconclusiveReason::kWatchTimedOut;
          mw.pending_determination = false;
          note_determined(change, mw, watch.deadline);
        } else {
          // Horizon reached with a still-undetermined alarm: run with the
          // post window fixed when it became eligible (its inputs never
          // all arrived), else with the full observed window.
          const MinuteTime post = mw.did_post > 0
                                      ? mw.did_post
                                      : watch.deadline - change.time;
          batch_.determine_cause(change, watch.set, mw.metric, post,
                                 mw.verdict);
          mw.pending_determination = false;
          note_determined(change, mw, change.time + post);
          if (mw.verdict.caused_by_software_change() && verdict_cb_) {
            verdict_cb_(id, mw.verdict);
          }
        }
      } else if (!mw.verdict.kpi_change_detected &&
                 mw.verdict.cause == Cause::kNoKpiChange &&
                 !mw.verdict.quality->acceptable(
                     config_.quality.min_coverage, config_.quality.max_gap_run,
                     config_.quality.max_flat_run)) {
        // No alarm, but the feed was too holey to have caught one: degrade
        // instead of delivering a silent "no change".
        mw.verdict.cause = Cause::kInconclusive;
        mw.verdict.inconclusive_reason =
            InconclusiveReason::kGapInDetectionWindow;
      }
      report.items.push_back(mw.verdict);
      // Journal the finalized determination. Online events carry the
      // determined_at stamp and time-to-verdict (the paper's rapidity
      // metric); the batch-only extras (damp factor, gate decision) stay
      // absent — the streaming detector never materializes them.
      if (journal_on) {
        journal->append(journal_event(change, mw.verdict, "online"));
      }
      if (config_.stats != nullptr) {
        // Per-metric scorers live exactly as long as their watch and are
        // never reset, so lifetime totals are this watch's totals.
        const detect::IkaSst& scorer =
            mw.gate != nullptr ? mw.gate->inner() : *mw.scorer;
        if (scorer.cold_restarts() > 0) {
          config_.stats->add("funnel.sst.cold_restarts",
                             scorer.cold_restarts());
        }
        if (scorer.escalations() > 0) {
          config_.stats->add("funnel.sst.escalations", scorer.escalations());
        }
      }
    }
  }
  if (watch.trace.active()) {
    watch.trace.attr("watch.kpis", report.items.size());
    watch.trace.attr("watch.detected", report.kpi_changes_detected());
    watch.trace.attr("watch.caused", report.kpi_changes_caused());
    watch.trace.end();  // lands in this (possibly dispatcher) thread's ring
  }
  watches_.erase(wit);
  if (config_.stats != nullptr) {
    config_.stats->add("funnel.online.reports_finalized");
    config_.stats->set("funnel.online.active_watches",
                       static_cast<double>(watches_.size()));
  }
  if (report_cb_) report_cb_(report);
}

std::string FunnelOnline::snapshot_state() const {
  std::string out;
  persist::put_u8(out, kWatchSnapshotVersion);
  persist::put_u32(out, static_cast<std::uint32_t>(watches_.size()));
  for (const auto& [cid, watch] : watches_) {
    persist::put_u64(out, cid);
    persist::put_u32(out, static_cast<std::uint32_t>(watch.metrics.size()));
    for (const auto& [metric, mw] : watch.metrics) {
      persist::put_u8(out, static_cast<std::uint8_t>(metric.kind));
      persist::put_str(out, metric.entity);
      persist::put_str(out, metric.kpi);
      persist::put_i64(out, mw.fed_start);
      persist::put_u64(out, mw.fed.size());
      for (double v : mw.fed) persist::put_f64(out, v);
      persist::put_u8(out, mw.pending_determination ? 1 : 0);
      persist::put_i64(out, mw.did_post);
      encode_verdict(out, mw.verdict);
    }
  }
  return out;
}

void FunnelOnline::restore_state(const std::string& blob) {
  if (blob.empty()) return;
  persist::ByteReader r(blob.data(), blob.size());
  const auto corrupt = [] {
    return persist::StorageError("corrupt watch snapshot");
  };
  const std::uint8_t version = r.get_u8();
  if ((version != 1 && version != kWatchSnapshotVersion) || !r.ok()) {
    throw corrupt();
  }
  const std::uint32_t n_watches = r.get_u32();
  for (std::uint32_t w = 0; w < n_watches && r.ok(); ++w) {
    const changes::ChangeId cid = r.get_u64();
    const changes::SoftwareChange& change = log_.get(cid);
    ChangeWatch watch;
    watch.change_id = cid;
    watch.set = identify_impact_set(change, topo_);
    watch.deadline = change.time + config_.horizon;
    // A fresh root span: traces are diagnostics, not replay state, and the
    // pre-crash span already landed (or died) in the old process's ring.
    watch.trace = obs::DetachedSpan(config_.tracer, "funnel.watch");
    const std::uint32_t n_metrics = r.get_u32();
    for (std::uint32_t m = 0; m < n_metrics && r.ok(); ++m) {
      tsdb::MetricId metric;
      const std::uint8_t kind = r.get_u8();
      if (kind > static_cast<std::uint8_t>(tsdb::EntityKind::kService)) {
        throw corrupt();
      }
      metric.kind = static_cast<tsdb::EntityKind>(kind);
      metric.entity = r.get_str();
      metric.kpi = r.get_str();
      const MinuteTime fed_start = r.get_i64();
      const std::uint64_t n_fed = r.get_u64();
      std::vector<double> fed;
      fed.reserve(static_cast<std::size_t>(n_fed));
      for (std::uint64_t i = 0; i < n_fed && r.ok(); ++i) {
        fed.push_back(r.get_f64());
      }
      const bool pending = r.get_u8() != 0;
      const MinuteTime did_post = version >= 2 ? r.get_i64() : 0;
      if (!r.ok()) throw corrupt();
      MetricWatch mw = make_metric_watch(metric, fed_start);
      // Replaying the recorded feed rebuilds the scorer, cascade gate,
      // online detector and feed-quality counters bit-for-bit (they are
      // deterministic functions of the stream) — including mw.fed itself,
      // since feed_detector re-records each value.
      for (double v : fed) feed_detector(change, mw, v);
      // The replay's provisional verdict is then overwritten wholesale:
      // determinations that already ran used store evidence from their own
      // minute, which must survive the restart verbatim.
      mw.verdict = ItemVerdict{};
      mw.verdict.metric = metric;
      decode_verdict(r, mw.verdict);
      mw.pending_determination = pending;
      mw.did_post = did_post;
      if (pending && did_post > 0) awaiting_inputs_ = true;
      if (!r.ok()) throw corrupt();
      watch.metrics.emplace(std::move(metric), std::move(mw));
    }
    watches_.emplace(cid, std::move(watch));
  }
  if (!r.ok() || r.remaining() != 0) throw corrupt();
  if (config_.stats != nullptr && !watches_.empty()) {
    config_.stats->set("funnel.online.active_watches",
                       static_cast<double>(watches_.size()));
  }
  if (!watches_.empty()) subscribe_once();
}

}  // namespace funnel::core
