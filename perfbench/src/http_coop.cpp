// Cooperative miniginx workloads: http-keepalive and http-faults.
//
// One thread drives everything: clients push requests into the virtual
// network, Server::run_once() serves whatever is ready, clients read and
// check the replies. Closed loop: 8 keep-alive connections each keep 8
// pipelined GETs in flight, topping up as replies land. http-faults adds
// one connection that sends a Range request after every 50-150 GETs (about
// 1% of the load) with a persistent crash armed at the range_request
// marker; http-keepalive arms the same crash only after its measured
// phase, for an idle recovery probe.
#include <deque>
#include <memory>
#include <string>
#include <string_view>

#include "apps/miniginx.h"
#include "bench.h"
#include "http_common.h"
#include "common/rng.h"
#include "workload/http_client.h"

namespace perfbench {
namespace {

constexpr int kConns = 8;
constexpr int kDepth = 8;
/// Driver passes a single request may take before it counts as lost.
constexpr int kMaxPassesPerReply = 64;

struct Pending {
  std::uint32_t page;
  std::uint64_t sent_ns;
};

struct Conn {
  Conn(fir::Env& env, std::uint16_t port) : client(env, port) {}
  fir::HttpClient client;
  std::deque<Pending> inflight;
};

/// Drives the server until `client` has one reply (1), lost its connection
/// (-1) or the pass budget ran out (0).
int await_reply(fir::Server& server, fir::HttpClient& client,
                fir::HttpClient::Response& resp) {
  for (int i = 0; i < kMaxPassesPerReply; ++i) {
    server.run_once();
    const int rc = client.try_read_response(resp);
    if (rc != 0) return rc;
  }
  return 0;
}

/// One Range request on its own connection, driven to its reply. Returns
/// true when the reply is exactly the documented diverted one.
bool faulting_roundtrip(EpochContext& ctx, fir::Server& server, Conn& c,
                        EpochResult& r) {
  const std::uint64_t t0 = ctx.clock.now_ns();
  c.client.send_request("GET", kRangeTarget, {}, true, kRangeHeader);
  fir::HttpClient::Response resp;
  const int rc = await_reply(server, c.client, resp);
  r.recovery_us.push_back(
      static_cast<float>((ctx.clock.now_ns() - t0) / 1000.0));
  return rc == 1 && resp.status == kDivertedStatus &&
         resp.body == kDivertedBody;
}

/// Time from a crashed server's image to a fresh incarnation answering its
/// first GET. Returns false when the reply is wrong.
bool timed_restart(EpochContext& ctx, const fir::Vfs& image,
                   const std::string& index_body, EpochResult& r) {
  const std::uint64_t t0 = ctx.clock.now_ns();
  bool ok = false;
  {
    Scope span(ctx.tracer, ctx.clock, Layer::kRestart, ctx.epoch);
    fir::Miniginx server(firestarter_config());
    server.fx().env().vfs().import_from(image);
    if (server.start(0).is_ok()) {
      fir::HttpClient client(server.fx().env(), server.port());
      fir::HttpClient::Response resp;
      ok = client.connect() && client.send_request("GET", kPages[0]) &&
           await_reply(server, client, resp) == 1 && resp.status == 200 &&
           resp.body == index_body;
      r.restart_s = static_cast<double>(ctx.clock.now_ns() - t0) * 1e-9;
    }
    server.stop();
  }
  return ok;
}

EpochResult http_epoch(EpochContext& ctx, bool inline_faults) {
  EpochResult r;
  // http-faults runs longer epochs. The first faults of an epoch, before
  // the policy demotes and de-coalesces the faulting sites, recover slower.
  // With 40000-GET epochs they sat near the p99, and recovery_p99_us spread
  // up to 0.16 over ten seeds; with 80000, 0.05.
  const std::uint64_t ops =
      ctx.opt.tiny ? 1600 : inline_faults ? 80000 : 40000;
  ctx.every_ops = ctx.opt.tiny ? 400 : 4000;
  const int probes = ctx.opt.tiny ? 8 : 40;

  // --- set-up: server, connections, marker profiling and arming ---------
  const std::uint64_t setup_t0 = ctx.clock.now_ns();
  auto server = std::make_unique<fir::Miniginx>(firestarter_config());
  if (!server->start(0).is_ok()) {
    r.fatal = "miniginx start failed";
    return r;
  }
  std::deque<Conn> conns;
  for (int i = 0; i < kConns + 1; ++i) {
    conns.emplace_back(server->fx().env(), server->port());
    if (!conns.back().client.connect()) {
      r.fatal = "connect failed";
      return r;
    }
  }
  Conn& fault_conn = conns.back();
  fir::Hsfi& hsfi = server->fx().hsfi();
  hsfi.set_profiling(true);
  fir::HttpClient::Response resp;
  fault_conn.client.send_request("GET", kRangeTarget, {}, true, kRangeHeader);
  const std::string index_body = docroot_file(*server, kPages[0]);
  const bool calibrated =
      await_reply(*server, fault_conn.client, resp) == 1 &&
      resp.status == 206 && resp.body == index_body.substr(0, kRangeBytes);
  if (!ctx.counting()) hsfi.set_profiling(false);
  fir::MarkerId marker = fir::kInvalidMarker;
  for (const fir::Marker& m : hsfi.markers())
    if (m.name == "range_request") marker = m.id;
  if (!calibrated || marker == fir::kInvalidMarker) {
    r.fatal = "range_request calibration failed";
    return r;
  }
  const fir::FaultPlan plan{marker, fir::FaultType::kPersistentCrash,
                            fir::CrashKind::kSegv, ctx.opt.seed};
  if (inline_faults) hsfi.arm(plan);
  r.setup_s = static_cast<double>(ctx.clock.now_ns() - setup_t0) * 1e-9;

  std::string bodies[kPageCount];
  for (int p = 0; p < kPageCount; ++p)
    bodies[p] = docroot_file(*server, kPages[p]);

  // --- measured phase ----------------------------------------------------
  const std::uint64_t fired_before = hsfi.marker(marker).executions;
  const Counters before = snapshot(*server);
  std::uint64_t sent = 0, done = 0, passes = 0, req_id = 0;
  std::uint64_t next_fault = inline_faults ? 50 + ctx.rng.next_below(101)
                                           : ~std::uint64_t{0};
  ctx.begin_phase(r);
  int stalled = 0;  // consecutive passes without a reply
  while (done < ops || !fault_conn.inflight.empty()) {
    const std::uint64_t ops_before = r.ops;
    for (int i = 0; i < kConns; ++i) {
      Conn& c = conns[static_cast<std::size_t>(i)];
      while (c.inflight.size() < kDepth && sent < ops) {
        const auto page =
            static_cast<std::uint32_t>(ctx.rng.next_below(kPageCount));
        Scope span(ctx.tracer, ctx.clock, Layer::kClient, req_id++);
        c.client.send_request("GET", kPages[page]);
        c.inflight.push_back({page, ctx.clock.now_ns()});
        ++sent;
      }
    }
    if (fault_conn.inflight.empty() && sent >= next_fault) {
      Scope span(ctx.tracer, ctx.clock, Layer::kClient, req_id++);
      fault_conn.client.send_request("GET", kRangeTarget, {}, true,
                                     kRangeHeader);
      fault_conn.inflight.push_back({0, ctx.clock.now_ns()});
      next_fault += 50 + ctx.rng.next_below(101);
      ++r.faults;
    }
    {
      Scope span(ctx.tracer, ctx.clock, Layer::kPass, passes++);
      server->run_once();
    }
    for (Conn& c : conns) {
      while (!c.inflight.empty()) {
        int rc;
        {
          Scope span(ctx.tracer, ctx.clock, Layer::kClient, req_id++);
          rc = c.client.try_read_response(resp);
        }
        if (rc == 0) break;
        if (rc < 0) {
          r.fatal = "connection lost";
          return r;
        }
        const Pending p = c.inflight.front();
        c.inflight.pop_front();
        const float us =
            static_cast<float>((ctx.clock.now_ns() - p.sent_ns) / 1000.0);
        ++r.ops;
        if (&c == &fault_conn) {
          r.recovery_us.push_back(us);
          if (resp.status != kDivertedStatus || resp.body != kDivertedBody)
            ++r.failed;
          continue;
        }
        ++done;
        r.latency_us.push_back(us);
        if (resp.status != 200 || resp.body != bodies[p.page]) ++r.failed;
      }
    }
    stalled = r.ops == ops_before ? stalled + 1 : 0;
    if (stalled > kMaxPassesPerReply) {
      r.fatal = "no reply progress";
      return r;
    }
    ctx.maybe_pause(r);
  }
  ctx.end_phase(r);
  const Counters after = snapshot(*server);
  r.phase = delta(before, after);

  // --- recovery: inline faults, or an idle probe after the phase ---------
  Counters rec_after = after;
  if (inline_faults) {
    r.recovery = r.phase;
  } else {
    hsfi.arm(plan);
    for (int i = 0; i < probes; ++i) {
      ++r.checks;
      ++r.faults;
      if (!faulting_roundtrip(ctx, *server, fault_conn, r))
        ++r.check_failures;
    }
    hsfi.disarm();
    rec_after = snapshot(*server);
    r.recovery = delta(after, rec_after);
  }
  r.runtime_recovery_p50_us =
      value_of(rec_after, "recovery.latency_seconds.p50") * 1e6;
  r.faults_fired = hsfi.marker(marker).executions - fired_before;
  hsfi.set_profiling(false);

  // --- restart from the crash image ---------------------------------------
  const fir::Vfs image = server->fx().env().vfs().crash_image();
  conns.clear();
  server->stop();
  server.reset();
  ++r.checks;
  if (!timed_restart(ctx, image, index_body, r)) ++r.check_failures;
  return r;
}

}  // namespace

EpochResult http_keepalive_epoch(EpochContext& ctx) {
  return http_epoch(ctx, false);
}

EpochResult http_faults_epoch(EpochContext& ctx) {
  return http_epoch(ctx, true);
}

}  // namespace perfbench
