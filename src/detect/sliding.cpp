#include "detect/sliding.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace funnel::detect {

namespace {

template <typename ScoreFn>
std::vector<double> score_windows(std::size_t w,
                                  std::span<const double> series,
                                  ScoreFn&& score) {
  std::vector<double> out;
  if (series.size() < w) return out;
  out.reserve(series.size() - w + 1);
  for (std::size_t i = 0; i + w <= series.size(); ++i) {
    out.push_back(score(series.subspan(i, w)));
  }
  return out;
}

}  // namespace

std::vector<double> score_series(ChangeScorer& scorer,
                                 std::span<const double> series) {
  return score_windows(scorer.window_size(), series,
                       [&](std::span<const double> window) {
                         return scorer.score(window);
                       });
}

std::vector<double> score_series(ChangeScorer& scorer,
                                 std::span<const double> series,
                                 double threshold) {
  return score_windows(scorer.window_size(), series,
                       [&](std::span<const double> window) {
                         return scorer.score_against(window, threshold);
                       });
}

namespace {

// Incremental k-of-n exceedance tracker shared by the batch scan and the
// online detector: alarm when at least `persistence` of the last
// `patience` windows exceeded the threshold AND the current window does.
class ExceedanceRun {
 public:
  explicit ExceedanceRun(const AlarmPolicy& policy) : policy_(policy) {
    FUNNEL_REQUIRE(policy.persistence >= 1, "persistence must be >= 1");
    FUNNEL_REQUIRE(policy.effective_patience() >= policy.persistence,
                   "patience must be >= persistence");
  }

  /// Feed the score of window index `i`; true when the alarm condition is
  /// met at this window.
  bool push(std::size_t i, double score) {
    const bool hit = std::isfinite(score) && score > policy_.threshold;
    if (hit) hits_.push_back({i, score});
    const std::size_t n = policy_.effective_patience();
    while (!hits_.empty() && hits_.front().index + n <= i) {
      hits_.erase(hits_.begin());
    }
    return hit && hits_.size() >= policy_.persistence;
  }

  std::size_t first_window() const { return hits_.front().index; }

  double peak() const {
    double p = 0.0;
    for (const auto& h : hits_) p = std::max(p, h.score);
    return p;
  }

  void reset() { hits_.clear(); }

 private:
  struct Hit {
    std::size_t index;
    double score;
  };
  AlarmPolicy policy_;
  std::vector<Hit> hits_;  // at most `patience` entries
};

// Scan for the first qualifying exceedance group starting at or after
// `from`; `resume` receives the index one past the alarming window.
std::optional<Alarm> scan(std::span<const double> scores, std::size_t window,
                          MinuteTime series_start, const AlarmPolicy& policy,
                          std::size_t from, std::size_t* resume) {
  ExceedanceRun run(policy);
  for (std::size_t i = from; i < scores.size(); ++i) {
    if (run.push(i, scores[i])) {
      Alarm a;
      a.first_window = run.first_window();
      a.peak_score = run.peak();
      a.minute = series_start + static_cast<MinuteTime>(i + window - 1);
      if (resume != nullptr) *resume = i + 1;
      return a;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<Alarm> first_alarm(std::span<const double> scores,
                                 std::size_t window, MinuteTime series_start,
                                 const AlarmPolicy& policy) {
  return scan(scores, window, series_start, policy, 0, nullptr);
}

std::vector<Alarm> all_alarms(std::span<const double> scores,
                              std::size_t window, MinuteTime series_start,
                              const AlarmPolicy& policy) {
  std::vector<Alarm> out;
  std::size_t pos = 0;
  while (pos < scores.size()) {
    std::size_t resume = pos;
    const auto alarm =
        scan(scores, window, series_start, policy, pos, &resume);
    if (!alarm) break;
    out.push_back(*alarm);
    // Re-arm immediately: a sustained exceedance keeps firing every
    // `persistence` windows. This matters for attribution — a false-positive
    // run that merges into a genuine post-change response must not swallow
    // the post-change alarm.
    pos = resume;
  }
  return out;
}

std::vector<Alarm> alarm_episodes(std::span<const Alarm> alarms,
                                  MinuteTime gap) {
  FUNNEL_REQUIRE(gap >= 1, "episode gap must be positive");
  std::vector<Alarm> out;
  MinuteTime episode_end = 0;
  for (const Alarm& a : alarms) {
    // Chain on the episode's most recent member: a sustained run re-fires
    // every `persistence` windows and must stay one episode however long
    // it lasts.
    if (!out.empty() && a.minute - episode_end < gap) {
      out.back().peak_score = std::max(out.back().peak_score, a.peak_score);
      episode_end = a.minute;
      continue;
    }
    out.push_back(a);
    episode_end = a.minute;
  }
  return out;
}

std::optional<Alarm> detect_first(ChangeScorer& scorer,
                                  std::span<const double> series,
                                  MinuteTime series_start,
                                  const AlarmPolicy& policy) {
  const std::vector<double> scores =
      score_series(scorer, series, policy.threshold);
  return first_alarm(scores, scorer.window_size(), series_start, policy);
}

OnlineDetector::OnlineDetector(ChangeScorer& scorer, AlarmPolicy policy,
                               MinuteTime start_minute)
    : scorer_(scorer), policy_(policy), next_minute_(start_minute) {
  FUNNEL_REQUIRE(policy_.persistence >= 1, "persistence must be >= 1");
  FUNNEL_REQUIRE(policy_.effective_patience() >= policy_.persistence,
                 "patience must be >= persistence");
  buffer_.reserve(scorer.window_size());
}

std::optional<Alarm> OnlineDetector::push(double value) {
  const std::size_t w = scorer_.window_size();
  ++next_minute_;
  buffer_.push_back(value);
  if (buffer_.size() > w) buffer_.erase(buffer_.begin());
  if (alarmed_ || buffer_.size() < w) return std::nullopt;

  const double s = scorer_.score_against(buffer_, policy_.threshold);
  const std::size_t i = windows_scored_++;
  const bool hit = std::isfinite(s) && s > policy_.threshold;
  if (hit) hits_.push_back({i, s});
  const std::size_t n = policy_.effective_patience();
  while (!hits_.empty() && hits_.front().index + n <= i) {
    hits_.erase(hits_.begin());
  }
  if (hit && hits_.size() >= policy_.persistence) {
    alarmed_ = true;
    Alarm a;
    a.minute = next_minute_ - 1;
    a.first_window = hits_.front().index;
    for (const Hit& h : hits_) a.peak_score = std::max(a.peak_score, h.score);
    return a;
  }
  return std::nullopt;
}

}  // namespace funnel::detect
