// Self-test of the benchmark's own arithmetic: the percentile rule, self
// time with overlapping children, blocking-path attribution, and open-loop
// latency when the server stalls. Exits non-zero on the first failed check.
//
//   funnelbench_selftest        (perfbench/run.py --self-test runs it)
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "openloop.h"
#include "stats.h"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  check(percentile(v, 0.5) == 500, "p50 of 1..1000 is 500 (nearest rank)");
  check(percentile(v, 0.99) == 990, "p99 of 1..1000 is 990");
  check(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  check(tail_resolved(1000, 0.99), "p99 resolved at 1000 samples");
  check(!tail_resolved(999, 0.99), "p99 unresolved at 999 samples");
  check(!tail_resolved(100, 0.99), "p99 unresolved at 100 samples");
  check(tail_resolved(100, 0.9), "p90 resolved at 100 samples");
  check(percentile({7.0}, 0.99) == 7.0, "one sample is every percentile");
  check(percentile({}, 0.5) == 0.0, "empty sample reads 0");
  const Summary s = summarize({3, 1, 2});
  check(s.n == 3 && s.p50 == 2 && s.max == 3 && !s.p99_resolved,
        "summary of {3,1,2}");
}

void chunked_tail_rule() {
  // 3001 samples, one per ms; the 100 samples from 1.9 s on hit a stall.
  std::vector<std::int64_t> t;
  std::vector<double> v;
  for (int i = 0; i <= 3000; ++i) {
    t.push_back(static_cast<std::int64_t>(i) * 1'000'000);
    v.push_back(i >= 1900 && i < 2000 ? 50.0 : 1.0);
  }
  const ChunkedTail c = chunked_p99(t, v);
  check(c.chunks == 3 && c.chunk_size == 1000,
        "3001 samples: three chunks of at least 1000");
  check(c.p99 == 1.0, "one stalled chunk does not move the median p99");
  check(percentile(v, 0.99) == 50.0, "while the whole-run p99 is the stall");
  check(chunked_p99({0, 1, 2}, {1.0, 2.0, 3.0}).chunks == 0,
        "too few samples: no chunk");
  // Chunks follow time order, not input order.
  std::vector<std::int64_t> rt(t.rbegin(), t.rend());
  std::vector<double> rv(v.rbegin(), v.rend());
  check(chunked_p99(rt, rv).p99 == 1.0, "input order does not matter");
  std::vector<double> one_chunk(1500, 2.0);
  check(chunked_p99(std::vector<std::int64_t>(1500, 0), one_chunk).chunks == 1,
        "1500 samples: one chunk (the whole run)");
}

void self_time_rule() {
  const Interval parent{0, 100};
  check(self_time(parent, {}) == 100, "no children: all self time");
  check(self_time(parent, {{10, 30}, {50, 60}}) == 70,
        "disjoint children subtract their lengths");
  check(self_time(parent, {{10, 40}, {20, 50}}) == 60,
        "overlapping children count their union once");
  check(self_time(parent, {{10, 90}, {20, 30}, {40, 50}}) == 20,
        "nested children add nothing");
  check(self_time(parent, {{-50, 20}, {90, 150}}) == 70,
        "children sticking out are clipped to the parent");
  check(self_time(parent, {{0, 100}, {0, 100}}) == 0,
        "fully covered parent has no self time");
  check(covered({0, 10}, {{20, 30}}) == 0, "child outside covers nothing");
}

void attribution_rule() {
  const Interval root{0, 100};
  // Two measured layers with a gap between them, then a derived residue.
  const Attribution a = attribute(root, {{"a", {{0, 30}}},
                                         {"b", {{20, 40}, {50, 60}}},
                                         {"rest", {root}, true}});
  check(a.self == std::vector<std::int64_t>({30, 20, 50}),
        "each layer gets only what earlier layers left");
  check(a.unmeasured == 50, "the gap between measured spans is unmeasured");
  check(a.left == 0, "while the derived row closes it");
  const Attribution b = attribute(root, {{"a", {{0, 30}}}, {"b", {{50, 60}}}});
  check(b.unmeasured == 60 && b.left == 60,
        "without derived rows both remainders are the gap");
  const Attribution c =
      attribute(root, {{"d", {{0, 100}}, true}, {"a", {{10, 20}}}});
  check(c.self == std::vector<std::int64_t>({100, 0}) && c.unmeasured == 90,
        "a derived row first still leaves the unmeasured figure to the spans");
}

/// One lane against a fake server on a virtual clock: requests due every
/// 10 ms; request 0 takes 100 ms (a stall), the rest 1 ms.
void open_loop_stall() {
  std::int64_t clock = 0;
  const auto now = [&] { return clock; };
  const auto sleep_until = [&](std::int64_t t) { clock = std::max(clock, t); };
  const auto send = [&](std::size_t i) {
    clock += i == 0 ? 100 : 1;
    return 200;
  };
  std::vector<std::int64_t> due;
  for (int i = 0; i < 20; ++i) due.push_back(10 * i);
  std::vector<Outcome> out;
  run_lane(due, 1000, now, sleep_until, send, out);
  check(out[0].done - out[0].due == 100, "stalled request: 100");
  // Request 1 was due at 10, could only go at 100, done at 101.
  check(out[1].done - out[1].due == 91,
        "request due during the stall is charged from its due time");
  check(out[9].done - out[9].due == 19, "backlog drains one per 1 ms");
  // Request 10 (due 100) still waits for request 9 (done 109).
  check(out[10].done - out[10].due == 10, "last backlogged request");
  check(out[12].done - out[12].due == 1, "after the backlog: service time");
  bool late_zero = true;
  for (const Outcome& o : out) late_zero = late_zero && o.late == 0;
  check(late_zero, "a lane blocked by the server is not itself late");

  // Refusals keep the due time until a retry succeeds.
  clock = 0;
  int calls = 0;
  const auto refuse_twice = [&](std::size_t) {
    clock += 1;
    return ++calls <= 2 ? 429 : 200;
  };
  std::vector<Outcome> r;
  run_lane({5}, 10'000'000, now, sleep_until, refuse_twice, r);
  check(r[0].retries == 2 && r[0].refusals_429 == 2 && r[0].status == 200,
        "two 429s then 200: two retries");
  check(r[0].done - r[0].due == 3 + 3 * kRetryPauseNs,
        "retried request is timed from its due time, pauses doubling");
  check(r[0].backoff.size() == 2 &&
            r[0].backoff[0].end - r[0].backoff[0].begin == kRetryPauseNs &&
            r[0].backoff[1].begin == r[0].backoff[0].end + 1,
        "each pause is recorded between its attempts");

  // A connection reset (status 0) is retried like a 503.
  clock = 0;
  calls = 0;
  std::vector<Outcome> z;
  run_lane({0}, 10'000'000, now, sleep_until,
           [&](std::size_t) { return ++calls == 1 ? 0 : 200; }, z);
  check(z[0].status == 200 && z[0].refusals_503 == 1,
        "a reset connection is retried");

  // Nothing due at or after stop_at is sent.
  clock = 0;
  std::vector<Outcome> s;
  run_lane({0, 50, 100}, 100, now, sleep_until,
           [&](std::size_t) { return 200; }, s);
  check(s[0].sent && s[1].sent && !s[2].sent, "stop_at ends the schedule");
}

}  // namespace

int main() {
  percentile_rule();
  chunked_tail_rule();
  self_time_rule();
  attribution_rule();
  open_loop_stall();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
