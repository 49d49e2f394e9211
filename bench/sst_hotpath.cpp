// SST hot-path micro-benchmark — µs/window for every tier of the IKA-SST
// scorer, on the Table 2 workload (variable-class KPI, the hardest: no
// early-outs anywhere).
//
// Tiers:
//   cold      reset() before every window — the naive per-window cost a
//             stateless deployment would pay (30 power sweeps + Lanczos)
//   warm      the default scorer: future basis warm-started across windows
//   bounded   warm through score_against at the library-default alarm
//             threshold 0.22, as every alarm path scores: windows whose
//             Eq. 11 factor bounds the score at or below it skip the
//             past-side Lanczos + QL
//   cascaded  warm + pre-filter cascade (variance + raw-CUSUM gates),
//             i.e. --cascade
//
// Each tier's µs/window is the median of 5 (--quick) or 7 rounds that
// interleave all tiers, so load on a shared host cannot favour one tier.
// Alongside the table it writes a machine-readable BENCH_sst.json
// (--json FILE, default BENCH_sst.json) with an environment header (git
// sha, build type, nproc, CPU model, date), per-tier µs/window, heap
// allocations per window, derived million-KPI core counts, the speedups vs
// cold, and the warm-vs-exact score correlation.
// tests/sst_bench_smoke.cmake validates the JSON shape, asserts the
// cascaded tier is ≥ 5x cheaper than cold and that the warm and bounded
// tiers make no heap allocation per window.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "detect/cascade.h"
#include "detect/ika_sst.h"
#include "detect/improved_sst.h"
#include "detect/sliding.h"
#include "workload/generators.h"
#include "workload/stream.h"

// Every heap allocation the process makes; a tier's allocations per window
// are the delta over one extra pass.
static std::size_t g_allocations = 0;

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
// Out of line so the compiler does not pair an inlined free() with a
// caller's operator new and warn about a mismatch.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

using namespace funnel;

namespace {

std::vector<double> bench_series(std::size_t len, std::uint64_t seed) {
  workload::VariableParams p;  // Table 2's workload class
  workload::KpiStream s(workload::make_variable(p, Rng(seed)));
  return workload::render(s, 0, static_cast<MinuteTime>(len));
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Mean µs/window of one pass callback that scores `windows_per_pass`
/// windows, repeated until `min_windows` windows have been scored.
template <typename Pass>
double measure(std::size_t windows_per_pass, std::size_t min_windows,
               Pass&& pass) {
  std::size_t scored = 0;
  const double start = now_us();
  while (scored < min_windows) {
    pass();
    scored += windows_per_pass;
  }
  return (now_us() - start) / static_cast<double>(scored);
}

/// Heap allocations per window of one more pass (the scorer already warm).
template <typename Pass>
double allocs_per_window(std::size_t windows_per_pass, Pass&& pass) {
  const std::size_t before = g_allocations;
  pass();
  return static_cast<double>(g_allocations - before) /
         static_cast<double>(windows_per_pass);
}

std::string git_sha() {
#if defined(FUNNEL_SOURCE_DIR)
  std::string cmd = "git -C \"" FUNNEL_SOURCE_DIR
                    "\" rev-parse --short=12 HEAD 2>/dev/null";
  std::string sha;
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, p) != nullptr) sha = buf;
    pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  if (!sha.empty()) return sha;
#endif
  return "unknown";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(colon + 1);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
  return "unknown";
}

std::string utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Quote `s` as a JSON string (the env fields hold no control characters).
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const char* json_path = "BENCH_sst.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  bench::print_header("SST hot path: cold vs warm vs bounded vs cascaded");

  const detect::SstGeometry g{.omega = 9, .eta = 3};
  const std::size_t len = 600;
  const std::vector<double> series = bench_series(len, 99);  // Table 2 seed
  const std::size_t w = g.window();
  const std::size_t positions = series.size() - w + 1;
  const std::size_t min_windows = quick ? 2000 : 8000;
  const auto span = std::span<const double>(series);

  // cold: full restart per window.
  detect::IkaSst cold_scorer(g);
  const auto cold_pass = [&] {
    for (std::size_t i = 0; i < positions; ++i) {
      cold_scorer.reset();
      volatile double s = cold_scorer.score(span.subspan(i, w));
      (void)s;
    }
  };

  // warm: the default scorer across consecutive windows.
  detect::IkaSst warm_scorer(g);
  const auto warm_pass = [&] {
    for (std::size_t i = 0; i < positions; ++i) {
      volatile double s = warm_scorer.score(span.subspan(i, w));
      (void)s;
    }
  };

  constexpr double kThreshold = 0.22;  // library-default alarm threshold

  // bounded: the default scorer as the alarm paths call it.
  detect::IkaSst bound_scorer(g);
  const auto bound_pass = [&] {
    for (std::size_t i = 0; i < positions; ++i) {
      volatile double s =
          bound_scorer.score_against(span.subspan(i, w), kThreshold);
      (void)s;
    }
  };

  // cascaded: the default scorer behind the pre-filter gates.
  detect::IkaSst casc_scorer(g);
  detect::CascadeConfig cc;
  cc.sst_threshold = kThreshold;
  detect::CascadeCounters counters;
  const auto casc_pass = [&] {
    casc_scorer.reset();
    const auto scores =
        detect::cascade_score_series(casc_scorer, series, cc, &counters,
                                     nullptr);
    volatile double s = scores.empty() ? 0.0 : scores.back();
    (void)s;
  };

  // Timing: every tier once per round, rounds interleaved, so a burst of
  // load on a shared host lands on all tiers alike; a tier's µs/window is
  // the median of its rounds.
  const int rounds = quick ? 5 : 7;
  std::vector<double> r_cold, r_warm, r_bound, r_casc;
  for (int r = 0; r < rounds; ++r) {
    r_cold.push_back(measure(positions, quick ? 600 : 2000, cold_pass));
    r_warm.push_back(measure(positions, min_windows, warm_pass));
    r_bound.push_back(measure(positions, min_windows, bound_pass));
    r_casc.push_back(measure(positions, min_windows, casc_pass));
  }
  const double us_cold = median(r_cold);
  const double us_warm = median(r_warm);
  const double us_bound = median(r_bound);
  const double us_casc = median(r_casc);

  // Heap allocations per window over one more pass of each (now warm)
  // tier; the cascaded pass is a whole-series call, so it includes its
  // output vector and gate scratch.
  const double allocs_cold = allocs_per_window(positions, cold_pass);
  const double allocs_warm = allocs_per_window(positions, warm_pass);
  const double allocs_bound = allocs_per_window(positions, bound_pass);
  const double allocs_casc = allocs_per_window(positions, casc_pass);

  // Fidelity: warm scores vs the exact-SVD reference on this workload.
  detect::ImprovedSst exact(g);
  detect::IkaSst warm_fresh(g);
  const auto se = detect::score_series(exact, series);
  const auto sw = detect::score_series(warm_fresh, series);
  const double corr = correlation(se, sw);

  const double suppressed_frac =
      counters.windows == 0
          ? 0.0
          : static_cast<double>(counters.windows - counters.scored -
                                counters.dirty) /
                static_cast<double>(counters.windows);

  Table t({"tier", "us/window", "allocs/window", "cores for 1M KPIs",
           "speedup vs cold"});
  const auto add = [&](const char* name, double us, double allocs) {
    t.add_row({name, format_fixed(us, 1), format_fixed(allocs, 2),
               std::to_string(evalkit::cores_for_kpis(us)),
               format_fixed(us_cold / us, 2) + "x"});
  };
  add("cold", us_cold, allocs_cold);
  add("warm (default)", us_warm, allocs_warm);
  add("bounded (alarm path)", us_bound, allocs_bound);
  add("cascaded (--cascade)", us_casc, allocs_casc);
  std::printf("%s\n", t.to_string().c_str());
  std::printf("fidelity: corr(warm, exact SVD) = %.3f on the variable-class "
              "workload; cascade suppressed %.0f%% of windows\n",
              corr, 100.0 * suppressed_frac);

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path);
    return 3;
  }
  std::string env = "  \"env\": {\"sha\": " + json_string(git_sha());
  env += ", \"build_type\": " + json_string(FUNNEL_BUILD_TYPE);
  env += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  env += ", \"cpu_model\": " + json_string(cpu_model());
  env += ", \"date\": " + json_string(utc_now()) + "},\n";
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "%s"
      "  \"workload\": {\"class\": \"variable\", \"minutes\": %zu, "
      "\"windows\": %zu, \"rounds\": %d},\n"
      "  \"tiers\": {\n"
      "    \"cold\": {\"us_per_window\": %.3f, \"allocs_per_window\": %.2f, "
      "\"cores_for_1m_kpis\": %llu},\n"
      "    \"warm\": {\"us_per_window\": %.3f, \"allocs_per_window\": %.2f, "
      "\"cores_for_1m_kpis\": %llu},\n"
      "    \"bounded\": {\"us_per_window\": %.3f, \"allocs_per_window\": "
      "%.2f, \"cores_for_1m_kpis\": %llu, \"threshold\": %.2f},\n"
      "    \"cascaded\": {\"us_per_window\": %.3f, \"allocs_per_window\": "
      "%.2f, \"cores_for_1m_kpis\": %llu}\n"
      "  },\n"
      "  \"speedup\": {\"warm_vs_cold\": %.2f, \"bounded_vs_cold\": %.2f, "
      "\"cascaded_vs_cold\": %.2f},\n"
      "  \"cascade\": {\"suppressed_fraction\": %.4f},\n"
      "  \"fidelity\": {\"warm_vs_exact_corr\": %.4f}\n"
      "}\n",
      env.c_str(), len, positions, rounds, us_cold, allocs_cold,
      static_cast<unsigned long long>(evalkit::cores_for_kpis(us_cold)),
      us_warm, allocs_warm,
      static_cast<unsigned long long>(evalkit::cores_for_kpis(us_warm)),
      us_bound, allocs_bound,
      static_cast<unsigned long long>(evalkit::cores_for_kpis(us_bound)),
      kThreshold, us_casc, allocs_casc,
      static_cast<unsigned long long>(evalkit::cores_for_kpis(us_casc)),
      us_cold / us_warm, us_cold / us_bound, us_cold / us_casc,
      suppressed_frac, corr);
  out << buf;
  std::fprintf(stderr, "# wrote %s\n", json_path);
  return 0;
}
