// Cross-KPI batched IKA-SST: scores N same-geometry KPI streams in
// lockstep, fusing their implicit Hankel Gram applies into one
// KPI-interleaved strided pass (linalg::BatchHankelGram) per power sweep.
//
// A single KPI's Gram operator is tiny (omega x omega with omega = 9), so
// per-KPI applies are latency-bound pointer chasing; interleaving K lanes
// makes the innermost loop a unit-stride sweep across KPIs — the
// "several KPIs' mat-vecs as one cache-friendly pass" half of the SST hot
// path. Everything per-lane (Rayleigh-Ritz, orthonormalization, φ
// projections, Eq. 11 factor) runs the exact same inline helpers as
// IkaSst's fast path, so each lane's scores are bit-identical to a
// standalone IkaSst with warm_past=true fed the same windows
// (detect_sst_warmstart_test asserts this).
//
// Lanes keep independent warm state: a lane whose window is dirty scores
// NaN and keeps its bases untouched, exactly like a standalone scorer.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "detect/ika_sst.h"
#include "detect/sst_internal.h"

namespace funnel::detect {

class IkaSstBatch {
 public:
  /// `params.warm_past` is forced on — the batch scorer IS the fast path.
  explicit IkaSstBatch(std::size_t kpis, SstGeometry geometry = {},
                       IkaParams params = {});

  std::size_t kpis() const { return lanes_.size(); }
  const SstGeometry& geometry() const { return geo_; }
  std::size_t window_size() const { return geo_.window(); }

  /// Score the current window of every lane. `windows` is lane-major: lane
  /// k's window occupies [k*W, (k+1)*W) with W = geometry().window().
  /// `out` receives kpis() scores (NaN for dirty lanes).
  void score_all(std::span<const double> windows, std::span<double> out);

  /// Full clear of every lane's warm state (mirrors IkaSst::reset()).
  void reset();

 private:
  struct Lane {
    linalg::Matrix future_basis;
    linalg::Matrix past_basis;
    bool warm = false;
    int windows_since_restart = 0;
  };

  SstGeometry geo_;
  IkaParams params_;
  std::vector<Lane> lanes_;
  internal::RitzWorkspace ritz_;  ///< shared by every lane's Ritz steps
};

}  // namespace funnel::detect
