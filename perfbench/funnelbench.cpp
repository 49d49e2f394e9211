// funnelbench — one run of one benchmark workload.
//
//   funnelbench <workload> --seed N --seconds S --trace 0|1
//               --serve PATH/funnel_serve --work DIR
//
// Workloads (perfbench/README.md says why each exists):
//   ingest_fanout   4 in-memory tenants of uneven size, per-server batches
//   change_storm    1 persistent tenant, overlapping watches, verdicts
//   durable_ingest  4 persistent tenants, readers, checkpoints, SIGKILL
//   batch_review    core::Funnel::assess_window over a Table 3 period
//
// --trace 0 drives the shipped funnel_serve daemon as a child process over
// loopback (batch_review runs in-process) and prints the end-to-end
// metrics. --trace 1 runs the same generated inputs in-process through each
// layer's public entry points with spans around every call and prints the
// per-layer metrics and the blocking-path share table.
//
// Output: human-readable lines, then "RECORD {...}" (sample counts and the
// secondary metrics), then one JSON line {"correct","attempted","failed",
// "values"} with every metric by name. perfbench/run.py checks the names
// against BENCHMARK.json, which holds their units, and prints the result.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/inotify.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "detect/ika_sst.h"
#include "evalkit/dataset.h"
#include "funnel/assessor.h"
#include "funnel/report_json.h"
#include "obs/journal.h"
#include "obs/registry.h"
#include "obs/server.h"
#include "obs/trace.h"
#include "openloop.h"
#include "service/tenant.h"
#include "stats.h"
#include "tsdb/store.h"

namespace fs = std::filesystem;
using namespace perfbench;
using funnel::MinuteTime;

namespace {

// ---------------------------------------------------------------------------
// Fixed benchmark settings. Changing any of them changes the benchmark.

/// Detector settings every live workload passes to funnel_serve (and the
/// in-process reference): a 20-minute horizon keeps many watches
/// finalizing per second of run time.
constexpr MinuteTime kHorizon = 20;
constexpr MinuteTime kLookback = 30;
constexpr MinuteTime kMinDidWindow = 6;
/// History posted in set-up so the first watch has a full lookback.
constexpr MinuteTime kHistory = 40;
/// Share of --seconds spent at the fixed offered rate; the rest is the
/// back-to-back capacity phase.
constexpr double kFixedShare = 0.7;
/// Set-ups measured per run (the live workloads' segments included);
/// setup_s is their median.
constexpr int kSetupReps = 15;
/// After a daemon's history POSTs are answered, its dispatchers and WAL
/// writers still work through the history; set-up CPU is read this much
/// later so that work counts too.
constexpr int kSetupSettleMs = 50;
/// A run's timings are marked invalid (RECORD gen.valid = 0) when the
/// generator's own lateness p99 exceeds this.
constexpr double kMaxGenLateUs = 5000.0;

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// CPU split for live runs: the daemon gets every CPU but the last, the
// generator the last one. A fixed split keeps the scheduler from placing
// client and server threads differently from run to run, which moved
// loopback latencies and capacity by half between runs.

cpu_set_t cpus_for(bool daemon) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const std::size_t n = nproc();
  for (std::size_t c = 0; c < n; ++c) {
    const bool last = c + 1 == n;
    if (n == 1 || last != daemon) CPU_SET(c, &set);
  }
  return set;
}

double rss_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + (pid == 0 ? std::string("self")
                                         : std::to_string(pid)) +
                   "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// CPU seconds a process has run, summed over its threads from
/// /proc/<pid>/task/*/schedstat (0 = this process). Time the hypervisor
/// steals from the machine is not counted, so unlike wall-clock figures it
/// does not move with the neighbours' load.
double proc_cpu_s(pid_t pid) {
  const std::string base =
      "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) +
      "/task";
  std::error_code ec;
  double ns = 0.0;
  for (const auto& task : fs::directory_iterator(base, ec)) {
    std::ifstream in(task.path() / "schedstat");
    unsigned long long on_cpu = 0;
    if (in >> on_cpu) ns += static_cast<double>(on_cpu);
  }
  return ns / 1e9;
}

/// CPU seconds of this process, threads that have exited included.
double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// First integer after `"key":` in a JSON body; -1 when absent.
long long json_int(const std::string& body, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(body.c_str() + at + needle.size());
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// ---------------------------------------------------------------------------
// Result record.

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::map<std::string, double> record;  ///< secondary figures + counts
  std::vector<std::string> problems;

  void metric(const std::string& name, double value) {
    metrics.push_back({name, value});
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

void emit(const Result& r) {
  for (const std::string& p : r.problems) {
    std::printf("# problem: %s\n", p.c_str());
  }
  std::printf("RECORD {");
  bool first = true;
  for (const auto& [k, v] : r.record) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::printf("}\n");
  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"values\":{",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\":%.17g", i ? "," : "", r.metrics[i].first.c_str(),
                r.metrics[i].second);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Generated inputs.

enum Kind { kIngest, kChanges, kStatus, kReport, kCheckpoint };

struct Req {
  Kind kind = kIngest;
  int tenant = 0;
  std::string path;
  std::string body;
  std::string wire;
  int samples = 0;
  MinuteTime minute = 0;
  int change = -1;        ///< index of the first change it registers
  std::int64_t due = -1;  ///< ns after the run start; -1 = capacity phase
};

struct Server {
  std::string service;
  std::string name;
};

struct TenantFeed {
  std::string name;
  std::vector<Server> servers;
  std::vector<std::string> kpis;
};

/// A watched change the generator registers (change_storm, durable_ingest).
struct ChangeSpec {
  int tenant = 0;
  MinuteTime minute = 0;
  std::string service;
  bool dark = true;
  std::vector<std::string> servers;  ///< empty = "*" (full launch)
  bool shifted = false;              ///< inject a level shift on cpu
};

struct Plan {
  std::string workload;
  std::vector<TenantFeed> tenants;
  bool persistent = false;
  std::vector<Req> warmup;               ///< sent in order during set-up
  std::vector<std::vector<Req>> lanes;   ///< one per sender, due-ordered
  std::vector<ChangeSpec> changes;       ///< all changes, in minute order
  double fixed_s = 0.0;
  double burst_s = 0.0;
};

/// Deterministic sample value: a per-metric level plus seeded noise, plus
/// the level shift of every shifted change whose treated servers include
/// this one, from two minutes after the change to its deadline.
class ValueModel {
 public:
  ValueModel(std::uint64_t seed, const Plan& plan) : rng_(seed) {
    for (const ChangeSpec& c : plan.changes) {
      if (!c.shifted) continue;
      const std::vector<std::string>& treated =
          c.servers.empty() ? all_servers_of(plan, c) : c.servers;
      for (const std::string& s : treated) {
        shifts_[s].push_back({c.minute + 2, c.minute + kHorizon});
      }
    }
  }

  double value(const std::string& server, std::size_t kpi, MinuteTime m) {
    double v = 10.0 + 5.0 * static_cast<double>(kpi) + rng_.uniform(-0.5, 0.5);
    if (kpi == 0) {
      const auto it = shifts_.find(server);
      if (it != shifts_.end()) {
        for (const auto& [from, to] : it->second) {
          if (m >= from && m < to) v += 6.0;
        }
      }
    }
    return v;
  }

 private:
  static std::vector<std::string> all_servers_of(const Plan& plan,
                                                 const ChangeSpec& c) {
    std::vector<std::string> out;
    for (const Server& s : plan.tenants[c.tenant].servers) {
      if (s.service == c.service) out.push_back(s.name);
    }
    return out;
  }

  funnel::Rng rng_;
  std::unordered_map<std::string,
                     std::vector<std::pair<MinuteTime, MinuteTime>>>
      shifts_;
};

void append_line(std::string& out, const Server& s, const std::string& kpi,
                 MinuteTime m, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",%" PRId64 ",%.3f\n", m, v);
  out += s.service;
  out += ',';
  out += s.name;
  out += ',';
  out += kpi;
  out += buf;
}

std::string change_line(const ChangeSpec& c, int index) {
  std::string servers;
  for (const std::string& s : c.servers) {
    if (!servers.empty()) servers += ';';
    servers += s;
  }
  return std::to_string(c.minute) + "," + c.service + "," +
         (c.dark ? "dark" : "full") + "," +
         (servers.empty() ? std::string("*") : servers) + ",change-" +
         std::to_string(index) + "\n";
}

TenantFeed make_tenant(const std::string& name, int servers, int services,
                       std::vector<std::string> kpis) {
  TenantFeed t;
  t.name = name;
  t.kpis = std::move(kpis);
  for (int i = 0; i < servers; ++i) {
    t.servers.push_back({name + "-svc" + std::to_string(i % services),
                         name + "-s" + std::to_string(i)});
  }
  return t;
}

Req ingest_req(int tenant, const std::string& tname, std::string body,
               int samples, MinuteTime minute) {
  Req r;
  r.kind = kIngest;
  r.tenant = tenant;
  r.path = "/v1/ingest/" + tname;
  r.body = std::move(body);
  r.samples = samples;
  r.minute = minute;
  return r;
}

/// History batches (ten minutes per request per tenant) for set-up.
void add_history(Plan& plan, ValueModel& values, MinuteTime minutes) {
  for (std::size_t t = 0; t < plan.tenants.size(); ++t) {
    const TenantFeed& feed = plan.tenants[t];
    for (MinuteTime m0 = 0; m0 < minutes; m0 += 10) {
      std::string body;
      int n = 0;
      for (MinuteTime m = m0; m < std::min(minutes, m0 + 10); ++m) {
        for (const Server& s : feed.servers) {
          for (std::size_t k = 0; k < feed.kpis.size(); ++k) {
            append_line(body, s, feed.kpis[k], m, values.value(s.name, k, m));
            ++n;
          }
        }
      }
      plan.warmup.push_back(
          ingest_req(static_cast<int>(t), feed.name, std::move(body), n, m0));
    }
  }
}

/// Per-server minute batches, as metric agents send them: server s of
/// tenant t sends minute m at m/rate + its own phase within the minute.
/// Servers are spread over `lanes` senders; each lane's requests stay in
/// due order, so one server's minutes never overtake each other.
/// Capacity-phase batches follow with due = -1 until `burst_bytes`.
void add_server_batches(Plan& plan, ValueModel& values, funnel::Rng& phase_rng,
                        std::size_t lanes, MinuteTime first_minute,
                        double minutes_per_s, std::size_t burst_bytes) {
  struct Agent {
    int tenant;
    const Server* server;
    double phase;
  };
  std::vector<Agent> agents;
  for (std::size_t t = 0; t < plan.tenants.size(); ++t) {
    for (const Server& s : plan.tenants[t].servers) {
      agents.push_back({static_cast<int>(t), &s, 0.0});
    }
  }
  // Phases are stratified: a seeded permutation deals each agent its own
  // 1/A slice of the minute and a seeded offset inside it, so the seed
  // changes who sends when, not how bunched the sends are.
  std::vector<std::size_t> slot(agents.size());
  for (std::size_t a = 0; a < slot.size(); ++a) slot[a] = a;
  for (std::size_t a = slot.size(); a > 1; --a) {
    std::swap(slot[a - 1], slot[static_cast<std::size_t>(phase_rng.uniform_int(
                               0, static_cast<std::int64_t>(a) - 1))]);
  }
  for (std::size_t a = 0; a < agents.size(); ++a) {
    agents[a].phase = (static_cast<double>(slot[a]) + phase_rng.uniform()) /
                      static_cast<double>(agents.size());
  }
  plan.lanes.resize(std::max(plan.lanes.size(), lanes));
  const MinuteTime fixed_minutes =
      static_cast<MinuteTime>(plan.fixed_s * minutes_per_s);
  std::size_t burst = 0;
  for (MinuteTime m = first_minute;; ++m) {
    const bool fixed = m < first_minute + fixed_minutes;
    if (!fixed && burst >= burst_bytes) break;
    for (std::size_t a = 0; a < agents.size(); ++a) {
      const Agent& ag = agents[a];
      const TenantFeed& feed = plan.tenants[ag.tenant];
      std::string body;
      for (std::size_t k = 0; k < feed.kpis.size(); ++k) {
        append_line(body, *ag.server, feed.kpis[k], m,
                    values.value(ag.server->name, k, m));
      }
      // Changes are registered by the lane that carries the tenant's first
      // server, right before that server's batch for the change minute.
      if (ag.server == &feed.servers.front()) {
        for (std::size_t c = 0; c < plan.changes.size(); ++c) {
          const ChangeSpec& ch = plan.changes[c];
          if (ch.tenant != ag.tenant || ch.minute != m) continue;
          Req r;
          r.kind = kChanges;
          r.tenant = ag.tenant;
          r.path = "/v1/changes/" + feed.name;
          r.body = change_line(ch, static_cast<int>(c));
          r.change = static_cast<int>(c);
          r.minute = m;
          if (fixed) {
            r.due = static_cast<std::int64_t>(
                (static_cast<double>(m - first_minute) + ag.phase) /
                minutes_per_s * 1e9);
          }
          plan.lanes[a % lanes].push_back(std::move(r));
        }
      }
      const int n = static_cast<int>(feed.kpis.size());
      Req r = ingest_req(ag.tenant, feed.name, std::move(body), n, m);
      if (fixed) {
        r.due = static_cast<std::int64_t>(
            (static_cast<double>(m - first_minute) + ag.phase) /
            minutes_per_s * 1e9);
      } else {
        burst += r.body.size();
      }
      plan.lanes[a % lanes].push_back(std::move(r));
    }
  }
  for (auto& lane : plan.lanes) {
    std::stable_sort(lane.begin(), lane.end(), [](const Req& a, const Req& b) {
      // due -1 (capacity phase) sorts after every fixed-rate request.
      const auto key = [](const Req& r) {
        return r.due < 0 ? INT64_MAX : r.due;
      };
      return key(a) < key(b);
    });
  }
}

// ingest_fanout: one hot tenant and three smaller ones, 3-line batches.
/// 4200 requests/s (12600 samples/s), about a fifth of what the daemon
/// sustains back to back: far enough below capacity that a slow stretch of
/// the shared machine does not tip the run into a retry storm.
constexpr double kFanoutMinutesPerS = 100.0;
Plan plan_ingest_fanout(std::uint64_t seed, double seconds) {
  Plan plan;
  plan.workload = "ingest_fanout";
  plan.fixed_s = seconds * kFixedShare;
  plan.burst_s = seconds - plan.fixed_s;
  const std::vector<std::string> kpis = {"cpu", "mem", "rps"};
  plan.tenants = {make_tenant("hot", 24, 3, kpis),
                  make_tenant("t1", 8, 2, kpis),
                  make_tenant("t2", 6, 2, kpis),
                  make_tenant("t3", 4, 1, kpis)};
  ValueModel values(seed, plan);
  funnel::Rng phase_rng(seed ^ 0x9E3779B97F4A7C15ull);
  add_history(plan, values, 5);
  add_server_batches(plan, values, phase_rng, nproc(), 5, kFanoutMinutesPerS,
                     8u << 20);
  return plan;
}

// durable_ingest: four persistent tenants, a few changes, one reader lane.
Plan plan_durable_ingest(std::uint64_t seed, double seconds) {
  Plan plan;
  plan.workload = "durable_ingest";
  plan.persistent = true;
  plan.fixed_s = seconds * kFixedShare;
  plan.burst_s = seconds - plan.fixed_s;
  const std::vector<std::string> kpis = {"cpu", "mem", "rps"};
  plan.tenants = {make_tenant("d0", 12, 2, kpis), make_tenant("d1", 8, 2, kpis),
                  make_tenant("d2", 6, 2, kpis), make_tenant("d3", 4, 1, kpis)};
  constexpr double kMinutesPerS = 100.0;
  const MinuteTime total = kHistory + static_cast<MinuteTime>(
                                          plan.fixed_s * kMinutesPerS);
  for (int t = 0; t < 4; ++t) {
    for (MinuteTime m = kHistory + 5 + 7 * t; m + kHorizon < total; m += 80) {
      ChangeSpec c;
      c.tenant = t;
      c.minute = m;
      c.service = plan.tenants[t].servers[0].service;
      c.servers = {plan.tenants[t].servers[0].name};
      c.shifted = (m / 80) % 2 == 0;
      plan.changes.push_back(c);
    }
  }
  std::sort(plan.changes.begin(), plan.changes.end(),
            [](const ChangeSpec& a, const ChangeSpec& b) {
              return a.minute < b.minute;
            });
  ValueModel values(seed, plan);
  funnel::Rng phase_rng(seed ^ 0x9E3779B97F4A7C15ull);
  add_history(plan, values, kHistory);
  const std::size_t senders = std::max<std::size_t>(1, nproc() - 1);
  add_server_batches(plan, values, phase_rng, senders, kHistory, kMinutesPerS,
                     8u << 20);
  // The reader lane: status and report reads at a fixed rate, plus a
  // checkpoint of one tenant (round robin) every second.
  std::vector<Req> reader;
  constexpr double kReadsPerS = 150.0;
  const int reads = static_cast<int>(plan.fixed_s * kReadsPerS);
  for (int i = 0; i < reads; ++i) {
    Req r;
    const int t = (i / 2) % 4;
    r.kind = i % 2 == 0 ? kStatus : kReport;
    r.tenant = t;
    r.path = std::string(i % 2 == 0 ? "/v1/status/" : "/v1/report/") +
             plan.tenants[t].name;
    r.due = static_cast<std::int64_t>(i / kReadsPerS * 1e9);
    reader.push_back(r);
  }
  for (int s = 1; s < static_cast<int>(plan.fixed_s); ++s) {
    Req r;
    r.kind = kCheckpoint;
    r.tenant = s % 4;
    r.path = "/v1/checkpoint/" + plan.tenants[r.tenant].name;
    r.due = static_cast<std::int64_t>(s * 1e9) + 1;
    reader.push_back(r);
  }
  std::stable_sort(reader.begin(), reader.end(),
                   [](const Req& a, const Req& b) { return a.due < b.due; });
  plan.lanes.push_back(std::move(reader));
  return plan;
}

// change_storm: one persistent tenant, one ordered stream of per-tenant
// minute batches; a change every minute, every third one shifted.
Plan plan_change_storm(std::uint64_t seed, double seconds) {
  Plan plan;
  plan.workload = "change_storm";
  plan.persistent = true;
  plan.fixed_s = seconds * kFixedShare;
  plan.burst_s = seconds - plan.fixed_s;
  constexpr int kServices = 10;
  constexpr int kServersPerService = 8;
  plan.tenants = {make_tenant("storm", kServices * kServersPerService,
                              kServices, {"cpu", "lat"})};
  // Two changes a minute in one registration request keep ~100 verdicts/s
  // while the ordered lane stays mostly idle.
  constexpr double kMinutesPerS = 60.0;
  constexpr int kChangesPerMinute = 2;
  const MinuteTime fixed_minutes =
      static_cast<MinuteTime>(plan.fixed_s * kMinutesPerS);
  constexpr std::size_t kBurstBytes = 40u << 20;
  const TenantFeed& feed = plan.tenants[0];
  const std::size_t batch_bytes_estimate = feed.servers.size() * 2 * 26;
  const MinuteTime burst_minutes =
      static_cast<MinuteTime>(kBurstBytes / batch_bytes_estimate);
  const MinuteTime end = kHistory + fixed_minutes + burst_minutes;
  for (MinuteTime m = kHistory; m < end; ++m) {
    for (int j = 0; j < kChangesPerMinute; ++j) {
      const int index = static_cast<int>(plan.changes.size());
      ChangeSpec c;
      c.minute = m;
      const int svc = static_cast<int>((m + 5 * j) % kServices);
      c.service = "storm-svc" + std::to_string(svc);
      c.dark = index % 2 == 0;
      if (c.dark) {
        // Two of the service's servers, rotating.
        for (int k = 0; k < 2; ++k) {
          const int srv =
              static_cast<int>((m / kServices + k) % kServersPerService);
          c.servers.push_back("storm-s" +
                              std::to_string(srv * kServices + svc));
        }
      }
      c.shifted = index % 3 == 0;
      plan.changes.push_back(c);
    }
  }
  ValueModel values(seed, plan);
  add_history(plan, values, kHistory);
  plan.lanes.resize(1);
  std::vector<Req>& lane = plan.lanes[0];
  for (MinuteTime m = kHistory; m < end; ++m) {
    const bool fixed = m < kHistory + fixed_minutes;
    const std::int64_t due =
        fixed ? static_cast<std::int64_t>(static_cast<double>(m - kHistory) /
                                          kMinutesPerS * 1e9)
              : -1;
    const int first = static_cast<int>(m - kHistory) * kChangesPerMinute;
    Req reg;
    reg.kind = kChanges;
    reg.path = "/v1/changes/storm";
    for (int j = 0; j < kChangesPerMinute; ++j) {
      reg.body += change_line(plan.changes[first + j], first + j);
    }
    reg.change = first;
    reg.minute = m;
    reg.due = due;
    lane.push_back(std::move(reg));
    std::string body;
    int n = 0;
    for (const Server& s : feed.servers) {
      for (std::size_t k = 0; k < feed.kpis.size(); ++k) {
        append_line(body, s, feed.kpis[k], m, values.value(s.name, k, m));
        ++n;
      }
    }
    Req r = ingest_req(0, "storm", std::move(body), n, m);
    r.due = due;
    lane.push_back(std::move(r));
  }
  return plan;
}

void render_wires(Plan& plan, bool with_rid) {
  std::size_t rid = 0;
  const auto render = [&](Req& r) {
    const std::string path =
        with_rid ? r.path + "?rid=" + std::to_string(rid++) : r.path;
    r.wire = r.kind == kStatus || r.kind == kReport ? wire_get(path)
                                                     : wire_post(path, r.body);
  };
  for (Req& r : plan.warmup) render(r);
  for (auto& lane : plan.lanes) {
    for (Req& r : lane) render(r);
  }
}

// ---------------------------------------------------------------------------
// The daemon under test.

class Daemon {
 public:
  Daemon(std::string bin, std::string work, std::string tag)
      : bin_(std::move(bin)), work_(std::move(work)), tag_(std::move(tag)) {}
  ~Daemon() { stop(SIGKILL); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Fork + exec funnel_serve and wait until its port file appears.
  bool start(const std::vector<std::string>& args, std::string* err) {
    const std::string port_file = work_ + "/" + tag_ + ".port";
    const std::string log_file = work_ + "/" + tag_ + ".log";
    fs::remove(port_file);
    std::vector<std::string> argv_s = {bin_, "--port", "auto", "--port-file",
                                       port_file};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    pid_ = ::fork();
    if (pid_ < 0) {
      *err = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const cpu_set_t set = cpus_for(/*daemon=*/true);
      ::sched_setaffinity(0, sizeof(set), &set);
      const int fd = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                            0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      std::vector<char*> argv;
      for (std::string& a : argv_s) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    const std::int64_t deadline = now_ns() + 60'000'000'000;
    while (now_ns() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *err = "funnel_serve exited during start-up (see " + log_file + ")";
        return false;
      }
      std::ifstream in(port_file);
      std::string line;
      if (std::getline(in, line) && !line.empty() && in.good()) {
        port_ = std::atoi(line.c_str());
        if (port_ > 0) return true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    *err = "funnel_serve did not report its port";
    return false;
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Signal and reap; true when it exited 0 (SIGTERM path).
  bool stop(int sig) {
    if (pid_ <= 0) return true;
    ::kill(pid_, sig);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string bin_;
  std::string work_;
  std::string tag_;
  pid_t pid_ = -1;
  int port_ = 0;
};

std::vector<std::string> daemon_args(const Plan& plan,
                                     const std::string& data_root) {
  std::string tenants;
  for (const TenantFeed& t : plan.tenants) {
    if (!tenants.empty()) tenants += ',';
    tenants += t.name;
  }
  std::vector<std::string> args = {
      "--tenants",        tenants,
      "--horizon",        std::to_string(kHorizon),
      "--lookback",       std::to_string(kLookback),
      "--min-did-window", std::to_string(kMinDidWindow)};
  if (plan.persistent) {
    args.push_back("--data-root");
    args.push_back(data_root);
  }
  return args;
}

// ---------------------------------------------------------------------------
// Journal tail: when did each change's final event become readable?

class JournalTail {
 public:
  explicit JournalTail(std::string path) : path_(std::move(path)) {
    thread_ = std::thread([this] { run(); });
  }
  ~JournalTail() { stop(); }
  JournalTail(const JournalTail&) = delete;
  JournalTail& operator=(const JournalTail&) = delete;

  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  /// change id -> steady-clock ns its last journal line was read.
  std::unordered_map<long long, std::int64_t> seen() {
    std::lock_guard<std::mutex> g(mu_);
    return seen_;
  }
  std::size_t events() {
    std::lock_guard<std::mutex> g(mu_);
    return events_;
  }

 private:
  void run() {
    const int ino = ::inotify_init1(IN_NONBLOCK);
    int wd = -1;
    int fd = -1;
    std::string partial;
    char buf[65536];
    while (!stop_) {
      if (fd < 0) {
        fd = ::open(path_.c_str(), O_RDONLY);
        if (fd >= 0 && ino >= 0) {
          wd = ::inotify_add_watch(ino, path_.c_str(), IN_MODIFY);
        }
        if (fd < 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
      }
      for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0) break;
        const std::int64_t t = now_ns();
        partial.append(buf, static_cast<std::size_t>(n));
        std::size_t start = 0;
        std::lock_guard<std::mutex> g(mu_);
        for (;;) {
          const std::size_t nl = partial.find('\n', start);
          if (nl == std::string::npos) break;
          const std::string line = partial.substr(start, nl - start);
          const long long id = json_int(line, "change_id");
          if (id >= 0) {
            seen_[id] = t;
            ++events_;
          }
          start = nl + 1;
        }
        partial.erase(0, start);
      }
      if (ino >= 0 && wd >= 0) {
        pollfd p{ino, POLLIN, 0};
        if (::poll(&p, 1, 2) > 0) {
          while (::read(ino, buf, sizeof(buf)) > 0) {
          }
        }
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    if (fd >= 0) ::close(fd);
    if (ino >= 0) ::close(ino);
  }

  std::string path_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::unordered_map<long long, std::int64_t> seen_;
  std::size_t events_ = 0;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Running the lanes.

struct Reply {
  long long accepted = -1;
  long long applied_seq = -1;
  std::vector<long long> change_ids;  ///< "registered":[...]
};

std::vector<long long> registered_ids(const std::string& body) {
  std::vector<long long> ids;
  const std::size_t at = body.find("\"registered\":[");
  if (at == std::string::npos) return ids;
  const char* p = body.c_str() + at + 14;
  while (*p >= '0' && *p <= '9') {
    char* end = nullptr;
    ids.push_back(std::strtoll(p, &end, 10));
    p = *end == ',' ? end + 1 : end;
  }
  return ids;
}

struct LaneRun {
  std::vector<Outcome> out;
  std::vector<Reply> replies;
};

/// Runs every lane on its own thread from `start`; fixed-rate requests due
/// before start + fixed_s, then the capacity phase until start + total_s.
std::vector<LaneRun> run_lanes(const Plan& plan, int port, std::int64_t start) {
  std::vector<LaneRun> runs(plan.lanes.size());
  std::vector<std::thread> threads;
  const std::int64_t stop_at =
      start + static_cast<std::int64_t>((plan.fixed_s + plan.burst_s) * 1e9);
  for (std::size_t l = 0; l < plan.lanes.size(); ++l) {
    threads.emplace_back([&, l] {
      const std::vector<Req>& reqs = plan.lanes[l];
      std::vector<std::int64_t> due(reqs.size());
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        due[i] = reqs[i].due < 0 ? -1 : start + reqs[i].due;
      }
      LaneRun& run = runs[l];
      run.replies.assign(reqs.size(), Reply{});
      std::string body;
      run_lane(
          due, stop_at, now_ns, sleep_until_ns,
          [&](std::size_t i) {
            const Req& r = reqs[i];
            const int status = http_request(port, r.wire, &body);
            if (status == 200 && (r.kind == kIngest || r.kind == kChanges)) {
              run.replies[i].accepted = json_int(body, "accepted");
              run.replies[i].applied_seq = json_int(body, "applied_seq");
              run.replies[i].change_ids = registered_ids(body);
            }
            return status;
          },
          run.out);
    });
  }
  for (std::thread& t : threads) t.join();
  return runs;
}

/// Send the set-up history in order; false on any non-200.
bool send_warmup(const Plan& plan, int port) {
  for (const Req& r : plan.warmup) {
    if (http_request(port, r.wire) != 200) return false;
  }
  return true;
}

/// Capacity: samples acknowledged per second in each full window of the
/// back-to-back phase (by completion time), median over the windows, so a
/// burst of machine noise costs one window, not the figure. With less than
/// one window, the rate over the whole span.
constexpr std::int64_t kCapacityWindowNs = 500'000'000;

double median_window_rate(std::vector<std::pair<std::int64_t, int>> done,
                          std::int64_t window) {
  if (done.size() < 2) return 0.0;
  std::sort(done.begin(), done.end());
  const std::int64_t t0 = done.front().first;
  const std::size_t full =
      static_cast<std::size_t>((done.back().first - t0) / window);
  if (full == 0) {
    double n = 0.0;
    for (const auto& d : done) n += d.second;
    return n / (static_cast<double>(done.back().first - t0) / 1e9);
  }
  std::vector<double> per(full, 0.0);
  for (const auto& [t, n] : done) {
    const std::size_t w = static_cast<std::size_t>((t - t0) / window);
    if (w < full) per[w] += n;
  }
  for (double& x : per) x /= static_cast<double>(window) / 1e9;
  return percentile(per, 0.5);
}

struct LiveFigures {
  std::vector<double> ingest_ms;      ///< fixed phase, due -> 200
  std::vector<std::int64_t> ingest_due;
  std::vector<double> read_ms;        ///< fixed phase status/report reads
  std::vector<double> gen_late_us;
  double capacity_sps = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t refusals_429 = 0;
  std::uint64_t refusals_503 = 0;
  std::vector<long long> acked_samples;      ///< per tenant
  std::vector<long long> acked_seq;          ///< per tenant: max applied_seq
  /// (reply time, samples) of every acknowledged fixed-rate ingest.
  std::vector<std::pair<std::int64_t, int>> fixed_done;
};

LiveFigures summarize_lanes(const Plan& plan,
                            const std::vector<LaneRun>& runs) {
  LiveFigures f;
  f.acked_samples.assign(plan.tenants.size(), 0);
  f.acked_seq.assign(plan.tenants.size(), 0);
  // (done, samples) of acknowledged ingest, back-to-back and fixed-rate.
  std::vector<std::pair<std::int64_t, int>> burst, fixed;
  for (std::size_t l = 0; l < runs.size(); ++l) {
    for (std::size_t i = 0; i < runs[l].out.size(); ++i) {
      const Outcome& o = runs[l].out[i];
      if (!o.sent) continue;
      const Req& r = plan.lanes[l][i];
      ++f.attempted;
      f.retries += static_cast<std::uint64_t>(o.retries);
      f.refusals_429 += static_cast<std::uint64_t>(o.refusals_429);
      f.refusals_503 += static_cast<std::uint64_t>(o.refusals_503);
      f.gen_late_us.push_back(us(o.late));
      if (o.status != 200) {
        ++f.failed;
        continue;
      }
      const Reply& rep = runs[l].replies[i];
      if (r.kind == kIngest || r.kind == kChanges) {
        f.acked_seq[r.tenant] = std::max(f.acked_seq[r.tenant],
                                         rep.applied_seq);
      }
      if (r.kind == kIngest) {
        f.acked_samples[r.tenant] += rep.accepted;
        if (r.due >= 0) {
          f.ingest_ms.push_back(ms(o.done - o.due));
          f.ingest_due.push_back(o.due);
          fixed.push_back({o.done, r.samples});
        } else {
          burst.push_back({o.done, r.samples});
        }
      } else if (r.kind == kStatus || r.kind == kReport) {
        f.read_ms.push_back(ms(o.done - o.due));
      }
    }
  }
  // A daemon that never caught up with the fixed rate left no time for the
  // back-to-back phase; its capacity is then what it did acknowledge.
  f.capacity_sps =
      median_window_rate(burst.size() >= 2 ? burst : fixed, kCapacityWindowNs);
  f.fixed_done = std::move(fixed);
  return f;
}

void record_summary(Result& res, const std::string& name,
                    const std::vector<double>& v) {
  const Summary s = summarize(v);
  res.record[name + ".p50"] = s.p50;
  res.record[name + ".p99"] = s.p99;
  res.record[name + ".n"] = static_cast<double>(s.n);
}

/// Latency record: count, median, and the p99 as the median of chunk p99s
/// (stats.h chunked_p99), each chunk holding at least ten samples beyond
/// its p99. With too few samples for one chunk the p99 is marked
/// unresolved; like timing validity, that does not make outputs incorrect.
void record_latency(Result& res, const std::string& what,
                    const std::vector<double>& v,
                    const std::vector<std::int64_t>& when) {
  const Summary s = summarize(v);
  const ChunkedTail c = chunked_p99(when, v);
  res.record["latency.n"] = static_cast<double>(s.n);
  res.record["latency.p50"] = s.p50;
  res.record["latency.p99"] = c.p99;
  res.record["latency.p99_chunks"] = static_cast<double>(c.chunks);
  res.record["latency.p99_whole_run"] = s.p99;
  std::printf("# %s latency over %zu samples: p50 %.3f ms, p99 %.3f ms "
              "(median of %zu chunks of %zu; whole run %.3f ms), "
              "max %.3f ms\n",
              what.c_str(), s.n, s.p50, c.p99, c.chunks, c.chunk_size, s.p99,
              s.max);
  res.record["latency.p99_resolved"] = c.chunks > 0 ? 1.0 : 0.0;
  if (c.chunks == 0) {
    std::printf("# %s p99 unresolved: %zu samples leave fewer than %zu "
                "beyond it\n",
                what.c_str(), s.n, kMinBeyond);
  }
}

/// GET a path; status in *status.
std::string get(int port, const std::string& path, int* status = nullptr) {
  std::string body;
  const int st = http_request(port, wire_get(path), &body);
  if (status != nullptr) *status = st;
  return body;
}

// ---------------------------------------------------------------------------
// Untraced live workloads. A run is kSegments segments, each with its own
// daemon: set up (inputs rendered, daemon started, history posted), the
// fixed-rate phase, the back-to-back phase, then the workload's checks.
// Per-segment figures other than the CPU cost are combined by their median,
// so one slow stretch of the shared machine, or one unlucky placement of
// the daemon's threads, moves one segment and not the run's figure.

constexpr int kSegments = 3;
static_assert(kSetupReps >= kSegments, "segment set-ups count in kSetupReps");

Plan make_plan(const std::string& workload, std::uint64_t seed,
               double seconds) {
  if (workload == "ingest_fanout") return plan_ingest_fanout(seed, seconds);
  if (workload == "change_storm") return plan_change_storm(seed, seconds);
  return plan_durable_ingest(seed, seconds);
}

struct Segment {
  double inputs_s = 0.0;  ///< make the plan and render the request bodies
  double capacity = 0.0;
  double rss_mb = 0.0;
  double recovery_s = 0.0;
  double cpu_s = 0.0;          ///< daemon CPU over the fixed-rate phase
  double fixed_samples = 0.0;  ///< samples acknowledged in that phase
  std::vector<double> lat;  ///< the workload's headline latency samples
  std::vector<std::int64_t> when;
  LiveFigures f;
  std::size_t journal_events = 0;
};

/// ingest_fanout: accepted_samples equals the samples acknowledged
/// (history included), with no malformed lines.
void check_accepted(Result& res, const Plan& plan, const LiveFigures& f,
                    int port) {
  for (std::size_t t = 0; t < plan.tenants.size(); ++t) {
    long long expected = f.acked_samples[t];
    for (const Req& r : plan.warmup) {
      if (r.tenant == static_cast<int>(t)) expected += r.samples;
    }
    ++res.attempted;
    const std::string st = get(port, "/v1/status/" + plan.tenants[t].name);
    if (json_int(st, "accepted_samples") != expected ||
        json_int(st, "malformed_lines") != 0) {
      ++res.failed;
      res.fail("tenant " + plan.tenants[t].name +
               ": accepted_samples differs from acknowledged samples");
    }
  }
}

/// change_storm: every change whose deadline batch was acknowledged shows
/// up in the journal (verdict latency runs from that batch's due time), and
/// the daemon's reports equal a synchronous in-process reference fed the
/// same acknowledged requests in the same order.
void check_storm(Result& res, const Plan& plan,
                 const std::vector<LaneRun>& runs, JournalTail& tail,
                 int port, std::int64_t start, Segment& g) {
  std::map<int, long long> change_ids;  // change index -> ChangeId
  std::map<MinuteTime, const Outcome*> batch_of_minute;
  std::size_t sent = 0;
  for (std::size_t i = 0; i < runs[0].out.size(); ++i) {
    const Outcome& o = runs[0].out[i];
    if (!o.sent) break;
    ++sent;
    const Req& r = plan.lanes[0][i];
    if (o.status != 200) continue;
    if (r.kind == kChanges) {
      const std::vector<long long>& ids = runs[0].replies[i].change_ids;
      for (std::size_t j = 0; j < ids.size(); ++j) {
        change_ids[r.change + static_cast<int>(j)] = ids[j];
      }
    }
    if (r.kind == kIngest) batch_of_minute[r.minute] = &o;
  }
  std::vector<std::pair<long long, const Outcome*>> expected;
  for (const auto& [c, id] : change_ids) {
    const auto it = batch_of_minute.find(plan.changes[c].minute + kHorizon);
    if (it != batch_of_minute.end()) expected.push_back({id, it->second});
  }
  const std::int64_t wait_until = now_ns() + 20'000'000'000;
  std::unordered_map<long long, std::int64_t> seen;
  for (;;) {
    seen = tail.seen();
    std::size_t have = 0;
    for (const auto& e : expected) have += seen.count(e.first);
    if (have == expected.size() || now_ns() > wait_until) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  tail.stop();
  g.journal_events = tail.events();
  const std::int64_t fixed_end =
      start + static_cast<std::int64_t>(plan.fixed_s * 1e9);
  for (const auto& [id, o] : expected) {
    ++res.attempted;
    const auto it = seen.find(id);
    if (it == seen.end()) {
      ++res.failed;
      res.fail("no journal event for change " + std::to_string(id));
      continue;
    }
    if (o->due < fixed_end) {
      g.lat.push_back(ms(it->second - o->due));
      g.when.push_back(o->due);
    }
  }

  const std::string daemon_report = get(port, "/v1/report/storm");
  funnel::service::TenantOptions topts;
  topts.name = "storm";
  topts.ingest_queue_capacity = 0;
  topts.funnel.horizon = kHorizon;
  topts.funnel.lookback = kLookback;
  topts.funnel.min_did_window = kMinDidWindow;
  funnel::service::Tenant ref(topts);
  for (const Req& r : plan.warmup) ref.ingest(r.body);
  for (std::size_t i = 0; i < sent; ++i) {
    const Req& r = plan.lanes[0][i];
    if (runs[0].out[i].status != 200) continue;
    if (r.kind == kChanges) {
      ref.register_changes(r.body);
    } else {
      ref.ingest(r.body);
    }
  }
  ++res.attempted;
  if (ref.report_json() != daemon_report) {
    ++res.failed;
    res.fail("daemon reports differ from the in-process reference");
  }
}

/// durable_ingest: reports before, SIGKILL, restart, recovery; no
/// acknowledged action lost, and every report the WAL tail re-finalized
/// after the restart (docs/SERVICE.md "Crash recovery") byte-identical to
/// the same change's report before the kill. Replaces *daemon with the
/// restarted one.
bool check_durable(Result& res, const Plan& plan, const std::string& serve,
                   const std::string& root, const std::string& data,
                   std::unique_ptr<Daemon>* daemon, Segment& g) {
  const LiveFigures& f = g.f;
  std::vector<std::string> before;
  for (const TenantFeed& t : plan.tenants) {
    before.push_back(get((*daemon)->port(), "/v1/report/" + t.name));
  }
  // Acknowledged samples are durable at the WAL writer's next group commit
  // (docs/STORAGE.md §1); the writer commits continuously, so a short
  // pause covers the last batch before the kill.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  (*daemon)->stop(SIGKILL);
  *daemon = std::make_unique<Daemon>(serve, root, "restart");
  const std::int64_t r0 = now_ns();
  std::string err;
  if (!(*daemon)->start(daemon_args(plan, data), &err)) {
    std::fprintf(stderr, "error: restart failed: %s\n", err.c_str());
    return false;
  }
  const int port = (*daemon)->port();
  bool recovered = false;
  while (!recovered && now_ns() - r0 < 60'000'000'000) {
    recovered = true;
    for (std::size_t t = 0; t < plan.tenants.size(); ++t) {
      const std::string seq = get(port, "/v1/seq/" + plan.tenants[t].name);
      if (json_int(seq, "recovered_seq") < f.acked_seq[t]) recovered = false;
    }
  }
  g.recovery_s = static_cast<double>(now_ns() - r0) / 1e9;
  for (std::size_t t = 0; t < plan.tenants.size(); ++t) {
    ++res.attempted;
    const std::string seq = get(port, "/v1/seq/" + plan.tenants[t].name);
    if (json_int(seq, "recovered_seq") != f.acked_seq[t]) {
      ++res.failed;
      res.fail("tenant " + plan.tenants[t].name + ": recovered_seq " +
               std::to_string(json_int(seq, "recovered_seq")) +
               " != acknowledged " + std::to_string(f.acked_seq[t]));
    }
    ++res.attempted;
    const std::string after = get(port, "/v1/report/" + plan.tenants[t].name);
    const std::size_t open = after.find("\"reports\":[");
    bool same = open != std::string::npos &&
                json_int(after, "active_watches") ==
                    json_int(before[t], "active_watches");
    std::size_t pos = open == std::string::npos ? 0 : open + 11;
    long long differing = -1;
    while (same && pos < after.size() && after[pos] == '{') {
      int depth = 0;
      std::size_t end = pos;
      for (; end < after.size(); ++end) {
        if (after[end] == '{') ++depth;
        if (after[end] == '}' && --depth == 0) break;
      }
      const std::string one = after.substr(pos, end + 1 - pos);
      same = before[t].find(one) != std::string::npos;
      if (!same) differing = json_int(one, "change_id");
      pos = end + 2;
    }
    if (!same) {
      ++res.failed;
      res.fail("tenant " + plan.tenants[t].name +
               ": report after restart differs from before the kill" +
               (differing >= 0 ? " (change " + std::to_string(differing) + ")"
                               : std::string(" (active watches)")));
    }
  }
  return true;
}

struct SetUp {
  double cpu_s = -1.0;  ///< the daemon's CPU time, fork to end (-1: failed)
  double wall_s = 0.0;  ///< fresh data directory to the last history reply
};

/// The program's set-up for one daemon: a fresh data directory, daemon
/// start, port readiness and the history POSTs. Making the inputs is the
/// benchmark's own work and comes before.
SetUp set_up(const Plan& plan, const std::string& data, Daemon& daemon) {
  SetUp s;
  const std::int64_t t0 = now_ns();
  fs::remove_all(data);
  std::string err;
  if (!daemon.start(daemon_args(plan, data), &err)) {
    std::fprintf(stderr, "error: set-up failed: %s\n", err.c_str());
    return s;
  }
  if (!send_warmup(plan, daemon.port())) {
    std::fprintf(stderr, "error: set-up failed: history refused\n");
    return s;
  }
  s.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  std::this_thread::sleep_for(std::chrono::milliseconds(kSetupSettleMs));
  s.cpu_s = proc_cpu_s(daemon.pid());
  return s;
}

/// Median of one per-segment figure.
double seg_median(const std::vector<Segment>& segs,
                  double (*get_figure)(const Segment&)) {
  std::vector<double> v;
  for (const Segment& g : segs) v.push_back(get_figure(g));
  return percentile(v, 0.5);
}

int live_workload(const std::string& workload, std::uint64_t seed,
                  double seconds, const std::string& serve,
                  const std::string& root) {
  const cpu_set_t cpus = cpus_for(/*daemon=*/false);
  ::sched_setaffinity(0, sizeof(cpus), &cpus);
  Result res;
  std::vector<Segment> segs;
  std::vector<double> setup_cpu, setup_wall;
  const auto set_up_or_fail = [&](const Plan& plan, const std::string& data,
                                  Daemon& d) {
    const SetUp s = set_up(plan, data, d);
    setup_cpu.push_back(s.cpu_s);
    setup_wall.push_back(s.wall_s);
    return s.cpu_s >= 0;
  };
  for (int k = 0; k < kSegments; ++k) {
    Segment g;
    const std::string tag = "seg" + std::to_string(k);
    const std::string data = root + "/" + tag;
    const std::int64_t i0 = now_ns();
    Plan plan = make_plan(workload, seed * kSegments + k, seconds / kSegments);
    render_wires(plan, /*with_rid=*/false);
    g.inputs_s = static_cast<double>(now_ns() - i0) / 1e9;
    if (k == 0) {
      // One set-up takes milliseconds, so the run measures more of them on
      // this plan (each daemon stopped again) and setup_s is the median
      // over those and the segments' own.
      for (int r = kSegments; r < kSetupReps; ++r) {
        Daemon d(serve, root, "setup" + std::to_string(r));
        if (!set_up_or_fail(plan, data, d)) return 1;
        if (!d.stop(SIGTERM)) res.fail("funnel_serve did not exit cleanly");
      }
    }
    auto daemon = std::make_unique<Daemon>(serve, root, tag);
    if (!set_up_or_fail(plan, data, *daemon)) return 1;
    const int port = daemon->port();
    std::unique_ptr<JournalTail> tail;
    if (workload == "change_storm") {
      tail = std::make_unique<JournalTail>(data + "/storm/journal.jsonl");
    }
    const std::int64_t start = now_ns() + 20'000'000;
    const std::int64_t fixed_end =
        start + static_cast<std::int64_t>(plan.fixed_s * 1e9);
    // The daemon's CPU time and memory high-water mark are read over the
    // fixed-rate phase only, whose offered work is the same in every run;
    // the back-to-back phase's work depends on how fast the machine is.
    double cpu0 = 0.0, cpu1 = 0.0;
    std::thread probe([&, pid = daemon->pid()] {
      sleep_until_ns(start);
      cpu0 = proc_cpu_s(pid);
      sleep_until_ns(fixed_end);
      cpu1 = proc_cpu_s(pid);
      g.rss_mb = rss_hwm_mb(pid);
    });
    const std::vector<LaneRun> runs = run_lanes(plan, port, start);
    probe.join();
    g.f = summarize_lanes(plan, runs);
    for (const auto& [done, n] : g.f.fixed_done) {
      if (done <= fixed_end) g.fixed_samples += n;
    }
    g.cpu_s = cpu1 - cpu0;
    res.attempted += g.f.attempted;
    res.failed += g.f.failed;
    g.capacity = g.f.capacity_sps;
    if (workload == "ingest_fanout") {
      g.lat = g.f.ingest_ms;
      g.when = g.f.ingest_due;
      check_accepted(res, plan, g.f, port);
    } else if (workload == "change_storm") {
      check_storm(res, plan, runs, *tail, port, start, g);
    }
    if (workload == "durable_ingest") {
      g.lat = g.f.ingest_ms;
      g.when = g.f.ingest_due;
      if (!check_durable(res, plan, serve, root, data, &daemon, g)) return 1;
    }
    if (!daemon->stop(SIGTERM)) res.fail("funnel_serve did not exit cleanly");
    segs.push_back(std::move(g));
  }

  // Pooled samples for the record. Of the gated figures, peak_rss_mb is a
  // segment median, the CPU cost is pooled below and setup_s is the median
  // over all set-ups.
  std::vector<double> lat, ingest, reads, late;
  std::vector<std::int64_t> when;
  double retries = 0, refused_429 = 0, refused_503 = 0, events = 0;
  for (const Segment& g : segs) {
    lat.insert(lat.end(), g.lat.begin(), g.lat.end());
    when.insert(when.end(), g.when.begin(), g.when.end());
    ingest.insert(ingest.end(), g.f.ingest_ms.begin(), g.f.ingest_ms.end());
    reads.insert(reads.end(), g.f.read_ms.begin(), g.f.read_ms.end());
    late.insert(late.end(), g.f.gen_late_us.begin(), g.f.gen_late_us.end());
    retries += static_cast<double>(g.f.retries);
    refused_429 += static_cast<double>(g.f.refusals_429);
    refused_503 += static_cast<double>(g.f.refusals_503);
    events += static_cast<double>(g.journal_events);
  }
  const std::string what =
      workload == "change_storm" ? "verdict" : std::string("ingest");
  record_latency(res, what, lat, when);
  record_summary(res, "ingest_ms", ingest);
  if (workload == "durable_ingest") {
    record_summary(res, "read_ms", reads);
    res.record["recovery_s"] =
        seg_median(segs, [](const Segment& g) { return g.recovery_s; });
  }
  if (workload == "change_storm") res.record["journal.events"] = events;
  const Summary gl = summarize(late);
  res.record["gen.late_us.p99"] = gl.p99;
  res.record["gen.valid"] = gl.p99 <= kMaxGenLateUs ? 1.0 : 0.0;
  if (gl.p99 > kMaxGenLateUs) {
    std::printf("# INVALID timing: the generator fell behind its schedule "
                "(lateness p99 %.0f us > %.0f us)\n",
                gl.p99, kMaxGenLateUs);
  }
  res.record["ingest.retries"] = retries;
  res.record["ingest.refused_429"] = refused_429;
  res.record["ingest.refused_503"] = refused_503;

  res.metric("setup_s", percentile(setup_cpu, 0.5));
  res.record["setup.wall_s"] = percentile(setup_wall, 0.5);
  res.record["setup.inputs_s"] =
      seg_median(segs, [](const Segment& g) { return g.inputs_s; });
  // Wall-clock figures: recorded, not gated (perfbench/README.md).
  res.record["latency_p50_ms"] = seg_median(
      segs, [](const Segment& g) { return percentile(g.lat, 0.5); });
  res.record["capacity_per_s"] =
      seg_median(segs, [](const Segment& g) { return g.capacity; });
  res.metric("peak_rss_mb",
             seg_median(segs, [](const Segment& g) { return g.rss_mb; }));
  // CPU per sample pooled over the segments' fixed-rate phases (total CPU
  // over total samples): across runs it spreads less than the median of
  // the per-segment ratios.
  double cpu_s = 0.0, fixed_samples = 0.0;
  for (const Segment& g : segs) {
    cpu_s += g.cpu_s;
    fixed_samples += g.fixed_samples;
  }
  const double cpu_us = fixed_samples > 0 ? cpu_s * 1e6 / fixed_samples : 0.0;
  res.metric("cpu_cost_us", cpu_us);
  // A KPI sends one sample a minute: cores = CPU seconds per second.
  res.record["cores_per_1m_kpis"] = cpu_us * 1e6 / 60.0 / 1e6;
  emit(res);
  return 0;
}

// ---------------------------------------------------------------------------
// batch_review: Table 3-shaped period, assess_window per change minute.

std::unique_ptr<funnel::evalkit::EvalDataset> review_dataset(
    std::uint64_t seed) {
  funnel::evalkit::DatasetParams p;
  p.seed = seed;
  p.services = 19;
  p.servers_per_service = 4;
  p.treated_servers = 2;
  p.positive_changes = 16;
  p.negative_changes = 124;
  p.history_days = 31;
  p.confounder_probability = 0.3;
  return funnel::evalkit::build_dataset(p);
}

funnel::core::FunnelConfig review_config(std::size_t threads) {
  funnel::core::FunnelConfig cfg;
  cfg.did.alpha_threshold = 1.0;  // Table 3's deployment setting
  cfg.num_threads = threads;
  return cfg;
}

std::vector<MinuteTime> change_minutes(
    const funnel::evalkit::EvalDataset& ds) {
  std::set<MinuteTime> ms;
  for (const auto& ch : ds.log.all()) ms.insert(ch.time);
  return {ms.begin(), ms.end()};
}

struct ReviewPass {
  std::vector<double> call_ms;
  std::vector<std::int64_t> call_start;
  std::vector<std::string> json;  ///< per minute, concatenated reports
  std::size_t kpis = 0;
  double seconds = 0.0;
};

ReviewPass review_pass(const funnel::core::Funnel& funnel,
                       const std::vector<MinuteTime>& minutes) {
  ReviewPass pass;
  const std::int64_t t0 = now_ns();
  for (MinuteTime m : minutes) {
    const std::int64_t c0 = now_ns();
    const auto reports = funnel.assess_window(m, m + 1);
    pass.call_ms.push_back(ms(now_ns() - c0));
    pass.call_start.push_back(c0);
    std::string json;
    for (const auto& r : reports) {
      pass.kpis += r.items.size();
      json += funnel::core::to_json(r);
    }
    pass.json.push_back(std::move(json));
  }
  pass.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return pass;
}

int batch_review(std::uint64_t seed, double seconds) {
  Result res;
  const std::int64_t d0 = now_ns();
  const auto ds = review_dataset(seed);
  res.record["setup.inputs_s"] = static_cast<double>(now_ns() - d0) / 1e9;
  // setup_s is the CPU time of the program's set-up: load the period's
  // history into a fresh MetricStore (the bulk insert path) and build the
  // assessor over it. Each load is dropped before the next, so the process
  // holds at most two copies of the history.
  std::vector<double> setup_cpu, setup_wall;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    const double c0 = process_cpu_s();
    funnel::tsdb::MetricStore store;
    for (const funnel::tsdb::MetricId& id : ds->store.metrics()) {
      store.insert(id, ds->store.series(id));
    }
    const funnel::core::Funnel loaded(review_config(nproc()), ds->topo,
                                      ds->log, store);
    setup_cpu.push_back(process_cpu_s() - c0);
    setup_wall.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  res.metric("setup_s", percentile(setup_cpu, 0.5));
  res.record["setup.wall_s"] = percentile(setup_wall, 0.5);
  const funnel::core::Funnel par(review_config(nproc()), ds->topo, ds->log,
                                 ds->store);
  const funnel::core::Funnel ser(review_config(1), ds->topo, ds->log,
                                 ds->store);
  const std::vector<MinuteTime> minutes = change_minutes(*ds);

  // One serial pass first: it is the baseline a pool change should leave
  // unmoved and the reference every parallel pass must reproduce byte for
  // byte. Parallel passes then fill the run time.
  const ReviewPass serial = review_pass(ser, minutes);
  const std::vector<std::string>& reference = serial.json;
  std::vector<double> call_ms;
  std::vector<std::int64_t> call_start;
  double par_s = 0.0;
  std::size_t par_kpis = 0;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const double cpu0 = proc_cpu_s(0);
  for (int pass = 1; pass == 1 || now_ns() < end; ++pass) {
    const ReviewPass p = review_pass(par, minutes);
    ++res.attempted;
    if (p.json != reference) {
      ++res.failed;
      res.fail("parallel pass " + std::to_string(pass) +
               " reports differ from the serial reference");
    }
    par_s += p.seconds;
    par_kpis += p.kpis;
    call_ms.insert(call_ms.end(), p.call_ms.begin(), p.call_ms.end());
    call_start.insert(call_start.end(), p.call_start.begin(),
                      p.call_start.end());
  }
  record_latency(res, "review call", call_ms, call_start);
  res.record["latency_p50_ms"] = percentile(call_ms, 0.5);
  const double cpu_s = proc_cpu_s(0) - cpu0;
  res.metric("cpu_cost_us", cpu_s * 1e6 / static_cast<double>(par_kpis));
  const double par_rate = static_cast<double>(par_kpis) / par_s;
  const double ser_rate = static_cast<double>(serial.kpis) / serial.seconds;
  res.record["capacity_per_s"] = par_rate;
  res.metric("peak_rss_mb", rss_hwm_mb(0));
  res.record["review_serial_kpis_per_s"] = ser_rate;
  res.record["review.changes"] = static_cast<double>(ds->log.size());
  res.record["review.calls_per_pass"] = static_cast<double>(minutes.size());
  std::printf("# review: %.0f KPIs/s at %zu threads, %.0f KPIs/s serial\n",
              par_rate, nproc(), ser_rate);
  emit(res);
  return 0;
}

#include "traced.inc"

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: funnelbench <workload> --seed N --seconds S "
                 "--trace 0|1 --serve PATH --work DIR\n");
    return 2;
  }
  const std::string workload = argv[1];
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve, work;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const std::string v = argv[i + 1];
    if (a == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(v.c_str());
    else if (a == "--trace") trace = v == "1";
    else if (a == "--serve") serve = v;
    else if (a == "--work") work = v;
    else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  static const std::set<std::string> kWorkloads = {
      "ingest_fanout", "change_storm", "durable_ingest", "batch_review"};
  if (kWorkloads.count(workload) == 0 || seconds <= 0 || work.empty()) {
    std::fprintf(stderr, "error: bad workload or arguments\n");
    return 2;
  }
  if (!funnel::obs::kEnabled) {
    std::fprintf(stderr, "error: FUNNEL_OBS=OFF compiles the server out\n");
    return 3;
  }
  ::signal(SIGPIPE, SIG_IGN);
  fs::create_directories(work);
  if (trace) return traced_main(workload, seed, seconds, work);
  if (workload == "batch_review") return batch_review(seed, seconds);
  if (serve.empty()) {
    std::fprintf(stderr, "error: --serve is required\n");
    return 2;
  }
  return live_workload(workload, seed, seconds, serve, work);
}
