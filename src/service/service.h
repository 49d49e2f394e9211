// FunnelService — the multi-tenant assessment daemon (docs/SERVICE.md).
//
// One process hosts many fully isolated tenants (service/tenant.h) behind
// the PR 9 telemetry plane's HTTP server. The paper's deployment watches a
// whole internet-scale portfolio — hundreds of services, ~24k changes/day
// (§1) — from shared assessment infrastructure; this is that shape: shared
// process, shared listener, nothing else shared.
//
// HTTP surface (all bodies newline-delimited text, responses JSON):
//   POST /v1/ingest/<tenant>      service,server,kpi,minute,value
//   POST /v1/changes/<tenant>     time,service,mode,servers,description
//   GET  /v1/report/<tenant>      finalized assessment reports
//   GET  /v1/status/<tenant>      counters, seqs, quarantine state
//   GET  /v1/seq/<tenant>         {"recovered_seq":..,"applied_seq":..} —
//                                 the crash-resume cursor clients read back
//   POST /v1/checkpoint/<tenant>  flush + durable checkpoint
//   POST /v1/maintenance/<tenant>?now=M   expire gap-starved watches
//   POST /v1/quarantine/<tenant>  body = reason (fault-drill hook)
//   GET  /v1/tenants              tenant list with status
// plus the plane's own /metrics /stats.json /healthz /readyz /statusz
// /tracez.
//
// Refusal ladder (per request, cheapest first; docs/SERVICE.md "Quotas &
// admission"):
//   404 unknown tenant -> 503 quarantined (reason in body) -> 429 busy
//   (tenant mutex try_lock failed; Retry-After: 1) -> 429 over quota
//   (token bucket / queue share; computed Retry-After) -> work.
// A tenant that is slow, dirty or over quota therefore costs other tenants
// nothing: its requests bounce at its own door and never hold an HTTP
// worker hostage (head-of-line isolation, service_test proves the verdict
// bytes of a healthy tenant are unchanged by a neighbour's abuse).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/plane.h"
#include "service/tenant.h"

namespace funnel::service {

struct ServiceOptions {
  /// Telemetry-plane options; plane.http.port = 0 binds an ephemeral port.
  obs::PlaneOptions plane;

  /// Root directory for per-tenant persistence: tenant <name> lives under
  /// <data_root>/<name>/. Empty = every tenant fully in-memory.
  std::string data_root;

  /// Template for tenants created without explicit options (data_dir and
  /// name are filled per tenant).
  TenantOptions tenant_defaults;

  /// POST to an unknown tenant creates it from tenant_defaults instead of
  /// answering 404.
  bool allow_dynamic_tenants = false;

  /// Optional shared telemetry registry (also consumed by the plane).
  const obs::Registry* stats = nullptr;
};

class FunnelService {
 public:
  explicit FunnelService(ServiceOptions options);
  ~FunnelService();

  FunnelService(const FunnelService&) = delete;
  FunnelService& operator=(const FunnelService&) = delete;

  /// Create (or recover, when data_root is set) a tenant before start().
  /// Also callable while serving — tenant creation takes the registry
  /// mutex, lookups share it briefly. Returns the tenant (throws
  /// InvalidArgument on a duplicate name).
  Tenant& add_tenant(const std::string& name);
  Tenant& add_tenant(TenantOptions options);

  /// Tenant lookup; nullptr when unknown. Pointers stay valid for the
  /// service's lifetime (tenants are never destroyed while serving).
  Tenant* find_tenant(const std::string& name);

  /// Bind + serve (false with *error when the socket fails or the build is
  /// FUNNEL_OBS=OFF, which compiles the HTTP server out).
  bool start(std::string* error = nullptr);
  void stop();

  /// Checkpoint every persistent tenant (the SIGTERM path: stop() after
  /// this gives a clean shutdown the next boot recovers from instantly).
  void checkpoint_all();

  /// Re-apply quota config to every tenant (the SIGHUP reload path).
  void reload_quotas(const QuotaConfig& quota);

  int port() const;
  std::size_t tenant_count();
  obs::TelemetryPlane& plane() { return plane_; }
  const ServiceOptions& options() const { return options_; }

  /// Seconds on the service's monotonic clock — the time base admit() runs
  /// on (virtualizable in tests via Tenant::admit directly).
  double now_s() const;

 private:
  Tenant* resolve(const std::string& name, bool create_if_dynamic);
  obs::HttpResponse dispatch(const obs::HttpRequest& req);
  TenantOptions options_for(const std::string& name) const;

  ServiceOptions options_;
  obs::TelemetryPlane plane_;
  std::chrono::steady_clock::time_point epoch_;

  std::mutex tenants_mutex_;  ///< guards the map shape, not the tenants
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
};

}  // namespace funnel::service
