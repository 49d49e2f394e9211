// Online (streaming) assessment — the deployed FUNNEL of §5.
//
// FunnelOnline subscribes to the metric store's push feed (the stand-in for
// the production database's subscription tool, §2.2). When a change is
// registered for watching, it primes one OnlineDetector per impact-set KPI
// with the recent history and then scores each new pushed sample as it
// arrives. Alarms raised at/after the deployment minute trigger causality
// determination as soon as `min_did_window` post-change minutes exist —
// which is how the §5.2 ad-system incident was confirmed within ~10 minutes
// instead of the 1.5 hours manual assessment took. The DiD fit runs once
// every treated and control series it reads covers that post window (or at
// finalize), so a verdict is a function of the data, not of the order the
// feed delivered it in. After `horizon` minutes the watch finalizes into an
// AssessmentReport.
//
// Threading (full model in docs/CONCURRENCY.md, "Online assessor"): with a
// synchronous store, everything runs on the producing thread, as before.
// With an async store (StoreOptions::ingest_queue_capacity > 0) the sample
// handler — and therefore every verdict/report callback — runs on the
// store's dispatcher thread. Register watches and callbacks before
// streaming samples (or quiesce with store.flush() first); read
// active_watches() only after a flush(). Destruction is safe while samples
// are in flight: unsubscribing from an async store blocks until the
// in-flight callback completes.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "detect/cascade.h"
#include "detect/ika_sst.h"
#include "funnel/assessor.h"
#include "obs/trace.h"

namespace funnel::core {

class FunnelOnline {
 public:
  /// Fires once per KPI whose change is attributed to the software change —
  /// the operations team's page.
  using VerdictCallback =
      std::function<void(changes::ChangeId, const ItemVerdict&)>;
  /// Fires when a watch completes (horizon reached).
  using ReportCallback = std::function<void(const AssessmentReport&)>;

  /// The store must outlive this object. Store appends made while a watch
  /// is active drive the detectors via the subscription.
  FunnelOnline(FunnelConfig config, const topology::ServiceTopology& topo,
               const changes::ChangeLog& log, tsdb::MetricStore& store);
  ~FunnelOnline();

  FunnelOnline(const FunnelOnline&) = delete;
  FunnelOnline& operator=(const FunnelOnline&) = delete;

  /// Start watching a recorded change. Existing history in
  /// [change - lookback, now) primes the detectors.
  void watch(changes::ChangeId id);

  /// Force-finalize every watch whose deadline + config.watch_timeout has
  /// passed by wall-clock minute `now`. Watches normally finalize when a
  /// sample at/after their deadline arrives; a gap-starved feed never
  /// delivers one, so a control loop calls this periodically to stop such
  /// watches hanging forever. Still-undetermined alarms finalize as
  /// kInconclusive / kWatchTimedOut; unalarmed KPIs go through the normal
  /// quality gate (their starved feed shows up as missing coverage).
  /// Returns the number of watches finalized. Call from the streaming
  /// thread (or quiesce with store.flush() first) — same threading rule as
  /// watch().
  std::size_t expire(MinuteTime now);

  /// Re-register a watch during WAL tail replay. Identical to watch()
  /// except no new watch marker is logged — the marker driving this call is
  /// already on disk, and re-logging it would duplicate it in the next WAL.
  void replay_watch(changes::ChangeId id);

  /// Serialize every active watch — detector feed streams, verdict state,
  /// pending flags — into an opaque blob for MetricStore::checkpoint().
  /// Call only from the streaming thread (or after store.flush()); the
  /// format is versioned and private to this class (docs/STORAGE.md).
  std::string snapshot_state() const;

  /// Recreate watches from a snapshot_state() blob: each watch's detector
  /// is rebuilt by replaying its recorded feed stream (bit-identical SST /
  /// cascade / quality state), then verdicts and pending flags are
  /// overwritten from the snapshot — past determinations consumed store
  /// state that no longer exists and must not be re-derived. Call after
  /// constructing against a recovered store and *before* replaying the WAL
  /// tail. Throws tsdb::persist::StorageError on a corrupt/unknown blob.
  void restore_state(const std::string& blob);

  void on_verdict(VerdictCallback cb) { verdict_cb_ = std::move(cb); }
  void on_report(ReportCallback cb) { report_cb_ = std::move(cb); }

  std::size_t active_watches() const { return watches_.size(); }

  /// Ids of the active watches, ascending. Same threading rule as
  /// active_watches(): quiesce (store.flush()) before reading against an
  /// async store. The service layer uses this after restore_state() to
  /// rebuild its already-watched set for idempotent change re-registration.
  std::vector<changes::ChangeId> active_watch_ids() const {
    std::vector<changes::ChangeId> ids;
    ids.reserve(watches_.size());
    for (const auto& [id, watch] : watches_) ids.push_back(id);
    return ids;
  }

 private:
  /// Quality of the sample stream as the detector saw it — which is what
  /// gates the verdict online. The store may hold a cleaner series (late
  /// samples are reconciled by upsert), but a minute that was missing at
  /// scoring time could still have hidden an alarm.
  struct FeedQuality {
    MinuteTime start = 0;  ///< first primed/fed minute
    std::size_t clean = 0;
    std::size_t gap_run = 0;
    std::size_t longest_gap = 0;
    std::size_t flat_run = 0;
    std::size_t longest_flat = 0;
    double prev = 0.0;
    bool have_prev = false;

    void on_sample(double v);
    /// Report over [start, end); minutes in [frontier, end) were never fed
    /// and count as one trailing gap.
    tsdb::QualityReport report(MinuteTime frontier, MinuteTime end) const;
  };

  struct MetricWatch {
    tsdb::MetricId metric;
    /// Exactly one of `scorer` / `gate` is set: with sst_cascade the
    /// CascadeGate owns the IKA scorer and the detector feeds through it
    /// (window-local gates only — a W-sample window carries no season of
    /// WoW history).
    std::unique_ptr<detect::IkaSst> scorer;
    std::unique_ptr<detect::CascadeGate> gate;
    std::unique_ptr<detect::OnlineDetector> detector;
    ItemVerdict verdict;
    FeedQuality quality;
    bool pending_determination = false;  ///< alarm raised, DiD deferred
    /// Post window the pending determination runs with: fixed by the first
    /// treated minute with at least min_did_window post-change minutes, so
    /// it depends on the treated feed only. 0 until then.
    MinuteTime did_post = 0;
    /// A series the determination found behind its post window; only a
    /// sample of it can complete the inputs. Empty until checked.
    tsdb::MetricId did_blocker;
    /// First minute the detector consumed (priming start).
    MinuteTime fed_start = 0;
    /// Every value the detector consumed, in order (primed history, live
    /// samples and NaN gap fills alike). Recorded only against a persistent
    /// store; replaying it through a fresh detector reproduces the scorer /
    /// gate / quality state bit-for-bit, which is what snapshot_state()
    /// persists instead of the detectors' internal matrices.
    std::vector<double> fed;
  };

  struct ChangeWatch {
    changes::ChangeId change_id = 0;
    ImpactSet set;
    std::map<tsdb::MetricId, MetricWatch> metrics;
    MinuteTime deadline = 0;  ///< change time + horizon
    /// Root span of the watch's trace: opened at watch() on the control
    /// thread, finished at finalize() — on the store's dispatcher thread
    /// when the store is async, which is exactly what DetachedSpan permits.
    /// Priming and every determination span parent under its context.
    obs::DetachedSpan trace;
  };

  /// watch() minus the WAL marker: registers the watch and primes its
  /// detectors from current store history.
  void watch_impl(changes::ChangeId id);
  /// Build an armed MetricWatch (scorer/gate/detector) whose detector clock
  /// starts at `start`. Shared by priming and snapshot restore.
  MetricWatch make_metric_watch(const tsdb::MetricId& metric,
                                MinuteTime start);
  void subscribe_once();
  void handle_sample(const tsdb::MetricId& id, MinuteTime t, double value);
  /// Feed one aligned sample (value, or NaN for a skipped minute) into the
  /// watch's detector, handling alarm rearm/latch bookkeeping.
  void feed_detector(const changes::SoftwareChange& change, MetricWatch& mw,
                     double value);
  /// Run the pending determination once the post window is fixed and
  /// every series its DiD reads covers that window; otherwise leave it
  /// pending (a later sample or finalize() runs it).
  void try_determination(ChangeWatch& watch, MetricWatch& mw, MinuteTime now);
  /// True when every treated/control series the dark-launch DiD for `mw`
  /// would read already holds data through the end of its post window, so
  /// the fit no longer depends on how far the feed has been delivered.
  /// Otherwise records the first series still behind in mw.did_blocker.
  bool did_inputs_complete(const ChangeWatch& watch, MetricWatch& mw) const;
  void finalize(changes::ChangeId id, bool timed_out = false);

  /// Stamp the confirming minute on the verdict and record the online
  /// verdict counters + time-to-verdict (the paper's rapidity metric).
  void note_determined(const changes::SoftwareChange& change, MetricWatch& mw,
                       MinuteTime minute);

  FunnelConfig config_;
  const topology::ServiceTopology& topo_;
  const changes::ChangeLog& log_;
  tsdb::MetricStore& store_;
  Funnel batch_;  ///< reuses the Fig. 3 determination logic

  std::map<changes::ChangeId, ChangeWatch> watches_;
  bool record_feed_ = false;  ///< store is persistent: keep MetricWatch::fed
  /// Some determination waits for its DiD inputs: re-check on each sample.
  bool awaiting_inputs_ = false;
  tsdb::SubscriptionId subscription_ = 0;
  bool subscribed_ = false;
  VerdictCallback verdict_cb_;
  ReportCallback report_cb_;
};

}  // namespace funnel::core
