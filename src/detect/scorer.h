// Change-scorer interface.
//
// Every detection method in the paper's evaluation (§4.1) consumes a sliding
// window of W 1-minute samples and emits one change score per window
// position; the window then moves forward one minute. A ChangeScorer is that
// per-window kernel; `sliding.h` turns a scorer plus an alarm policy
// (threshold + the 7-minute persistence rule) into detections.
#pragma once

#include <cstddef>
#include <span>

namespace funnel::detect {

class ChangeScorer {
 public:
  virtual ~ChangeScorer() = default;

  /// W: number of consecutive samples consumed per score.
  virtual std::size_t window_size() const = 0;

  /// Index (within the window) of the candidate change point the score
  /// refers to — SST places it between the past and future trajectory
  /// matrices; CUSUM/MRLS at their pre/post split.
  virtual std::size_t change_offset() const = 0;

  /// Change score for one window of exactly window_size() samples.
  /// Non-negative; higher = stronger evidence of a behavior change.
  /// Windows containing non-finite samples yield NaN (not scoreable).
  /// Scorers may keep internal scratch state, hence non-const.
  virtual double score(std::span<const double> window) = 0;

  /// The score as an alarm path needs it: whether it exceeds `threshold`.
  /// When score(window) is NaN or > threshold this returns exactly that
  /// value, bit for bit; otherwise it may return any value <= threshold,
  /// which lets a scorer skip work on windows that provably cannot alarm.
  /// Scorer state advances exactly as a score(window) call would advance
  /// it. Readers of raw scores (threshold sweeps, score dumps) call
  /// score() instead.
  virtual double score_against(std::span<const double> window,
                               double /*threshold*/) {
    return score(window);
  }

  virtual const char* name() const = 0;
};

}  // namespace funnel::detect
