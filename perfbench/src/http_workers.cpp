// http-workers: miniginx worker pool (start_workers(2)) under two load
// threads of this process.
//
// The only workload where server and clients run on separate threads, so
// the Env big lock and cross-thread epoll wake-ups sit on the critical
// path. Load thread t drives worker t over 4 keep-alive connections with 8
// pipelined GETs each (closed loop). Like http-faults, load thread 0 also
// sends a Range request after every 50-150 of its GETs on a connection of
// its own, with a persistent crash armed at range_request, so recovery is
// measured under concurrent load. (An idle probe measured mostly
// scheduler wake-ups of the parked worker: its p99 swung tenfold between
// runs.) The measured phase runs in rounds: both threads complete a fixed
// request quota, then the main thread runs a reference-kernel slice while
// the server idles.
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/miniginx.h"
#include "bench.h"
#include "http_common.h"
#include "workload/http_client.h"

namespace perfbench {
namespace {

constexpr int kWorkers = 2;
constexpr int kConnsPerThread = 4;
constexpr int kDepth = 8;
/// A reply that takes longer than this counts as lost (dead worker).
constexpr std::uint64_t kReplyTimeoutNs = 2'000'000'000;

struct Pending {
  std::uint32_t page;
  std::uint64_t sent_ns;
};

struct Conn {
  Conn(fir::Env& env, std::uint16_t port) : client(env, port) {}
  fir::HttpClient client;
  std::deque<Pending> inflight;
};

/// One load thread's connections and tallies (touched by that thread only
/// while a round runs; by the main thread between rounds).
struct LoadThread {
  std::deque<Conn> conns;
  /// Readiness of this thread's connections: an idle thread parks in the
  /// Env's epoll_wait (like wrk) instead of spinning, so on a small machine
  /// the load threads leave the cores to the workers.
  int epfd = -1;
  /// Thread 0 only: the connection carrying faulting Range requests, and
  /// how many more GETs go out before the next one.
  std::unique_ptr<Conn> fault;
  std::uint64_t until_fault = 0;
  std::vector<float> recovery_us;
  std::uint64_t faults = 0;
  fir::Rng rng;
  Tracer tracer;
  std::vector<float> latency_us;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t req_id = 0;
  bool lost = false;
};

/// Sends `quota` GETs over t's connections (plus any faulting requests
/// they are due) and waits for every reply.
void drive_round(LoadThread& t, fir::Env& env, const BenchClock& clock,
                 const std::string* bodies, std::uint64_t quota) {
  std::uint64_t sent = 0, done = 0;
  std::uint64_t last_progress = clock.now_ns();
  fir::HttpClient::Response resp;
  while (done < quota || (t.fault && !t.fault->inflight.empty())) {
    bool progress = false;
    if (t.fault && t.fault->inflight.empty() && t.until_fault == 0 &&
        sent < quota) {
      Scope span(t.tracer, clock, Layer::kClient, t.req_id++);
      t.fault->client.send_request("GET", kRangeTarget, {}, true,
                                   kRangeHeader);
      t.fault->inflight.push_back({0, clock.now_ns()});
      t.until_fault = 50 + t.rng.next_below(101);
      ++t.faults;
    }
    if (t.fault && !t.fault->inflight.empty()) {
      int rc;
      {
        Scope span(t.tracer, clock, Layer::kClient, t.req_id++);
        rc = t.fault->client.try_read_response(resp);
      }
      if (rc != 0) {
        const Pending p = t.fault->inflight.front();
        t.fault->inflight.pop_front();
        t.recovery_us.push_back(
            static_cast<float>((clock.now_ns() - p.sent_ns) / 1000.0));
        ++t.ops;
        progress = true;
        if (rc != 1 || resp.status != kDivertedStatus ||
            resp.body != kDivertedBody)
          ++t.failed;
        if (rc < 0) {
          t.lost = true;
          return;
        }
      }
    }
    for (Conn& c : t.conns) {
      while (c.inflight.size() < kDepth && sent < quota) {
        const auto page =
            static_cast<std::uint32_t>(t.rng.next_below(kPageCount));
        Scope span(t.tracer, clock, Layer::kClient, t.req_id++);
        c.client.send_request("GET", kPages[page]);
        c.inflight.push_back({page, clock.now_ns()});
        ++sent;
        if (t.fault && t.until_fault > 0) --t.until_fault;
      }
      while (!c.inflight.empty()) {
        int rc;
        {
          Scope span(t.tracer, clock, Layer::kClient, t.req_id++);
          rc = c.client.try_read_response(resp);
        }
        if (rc == 0) break;
        const Pending p = c.inflight.front();
        c.inflight.pop_front();
        const std::uint64_t now = clock.now_ns();
        t.latency_us.push_back(static_cast<float>((now - p.sent_ns) / 1000.0));
        ++t.ops;
        ++done;
        progress = true;
        if (rc != 1 || resp.status != 200 || resp.body != bodies[p.page])
          ++t.failed;
        if (rc < 0) {
          t.lost = true;
          return;
        }
      }
    }
    if (progress) {
      last_progress = clock.now_ns();
    } else if (clock.now_ns() - last_progress > kReplyTimeoutNs) {
      t.lost = true;
      return;
    } else {
      fir::PollEvent events[kConnsPerThread + 1];
      Scope span(t.tracer, clock, Layer::kClient, t.req_id++);
      env.epoll_wait(t.epfd, events, kConnsPerThread + 1, 1);
    }
  }
}

/// Sends one request from the calling thread and polls for its reply.
int roundtrip(fir::HttpClient& client, const BenchClock& clock,
              const char* target, const char* headers,
              fir::HttpClient::Response& resp) {
  if (!client.send_request("GET", target, {}, true, headers)) return -1;
  const std::uint64_t deadline = clock.now_ns() + kReplyTimeoutNs;
  for (;;) {
    const int rc = client.try_read_response(resp);
    if (rc != 0 || clock.now_ns() > deadline) return rc;
    std::this_thread::yield();
  }
}

std::unique_ptr<fir::Miniginx> start_pool(const fir::Vfs* image) {
  auto server = std::make_unique<fir::Miniginx>(firestarter_config());
  if (image != nullptr) server->fx().env().vfs().import_from(*image);
  if (!server->start(0).is_ok() || !server->start_workers(kWorkers).is_ok())
    return nullptr;
  return server;
}

void shut_down(fir::Miniginx& server) {
  server.stop_workers();
  server.stop();
}

}  // namespace

EpochResult http_workers_epoch(EpochContext& ctx) {
  EpochResult r;
  r.load_threads = kWorkers;
  const std::uint64_t round_quota = ctx.opt.tiny ? 200 : 2000;  // per thread
  const int rounds = ctx.opt.tiny ? 4 : 8;
  ctx.every_ops = round_quota * kWorkers;

  // --- set-up -----------------------------------------------------------
  const std::uint64_t setup_t0 = ctx.clock.now_ns();
  auto server = start_pool(nullptr);
  if (server == nullptr) {
    r.fatal = "worker pool start failed";
    return r;
  }
  std::vector<LoadThread> threads(kWorkers);
  for (int t = 0; t < kWorkers; ++t) {
    LoadThread& lt = threads[static_cast<std::size_t>(t)];
    lt.rng = fir::Rng(
        fir::split_seed(ctx.rng.next(), static_cast<std::uint64_t>(t)));
    lt.tracer.enabled = ctx.tracer.enabled;
    lt.epfd = server->fx().env().epoll_create1();
    for (int i = 0; i < kConnsPerThread; ++i) {
      lt.conns.emplace_back(server->fx().env(), server->worker_port(t));
      if (!lt.conns.back().client.connect()) {
        r.fatal = "connect failed";
        shut_down(*server);
        return r;
      }
      server->fx().env().epoll_ctl(lt.epfd, fir::kEpollAdd,
                                   lt.conns.back().client.fd(), fir::kPollIn);
    }
  }
  LoadThread& faulting = threads.front();
  faulting.fault =
      std::make_unique<Conn>(server->fx().env(), server->worker_port(0));
  faulting.until_fault = 50 + faulting.rng.next_below(101);
  fir::HttpClient& fault_client = faulting.fault->client;
  fir::Hsfi& hsfi = server->fx().hsfi();
  hsfi.set_profiling(true);
  fir::HttpClient::Response resp;
  const std::string index_body = docroot_file(*server, kPages[0]);
  const bool calibrated =
      fault_client.connect() &&
      roundtrip(fault_client, ctx.clock, kRangeTarget, kRangeHeader,
                resp) == 1 &&
      resp.status == 206 && resp.body == index_body.substr(0, kRangeBytes) &&
      server->fx().env().epoll_ctl(faulting.epfd, fir::kEpollAdd,
                                   fault_client.fd(), fir::kPollIn) == 0;
  if (!ctx.counting()) hsfi.set_profiling(false);
  fir::MarkerId marker = fir::kInvalidMarker;
  for (const fir::Marker& m : hsfi.markers())
    if (m.name == "range_request") marker = m.id;
  if (!calibrated || marker == fir::kInvalidMarker) {
    r.fatal = "range_request calibration failed";
    shut_down(*server);
    return r;
  }
  hsfi.arm({marker, fir::FaultType::kPersistentCrash, fir::CrashKind::kSegv,
            ctx.opt.seed});
  r.setup_s = static_cast<double>(ctx.clock.now_ns() - setup_t0) * 1e-9;

  std::string bodies[kPageCount];
  for (int p = 0; p < kPageCount; ++p)
    bodies[p] = docroot_file(*server, kPages[p]);

  // --- measured phase: rounds of concurrent load ---------------------------
  const std::uint64_t fired_before = hsfi.marker(marker).executions;
  const Counters before = snapshot(*server);
  ctx.begin_phase(r);
  for (int round = 0; round < rounds && r.fatal.empty(); ++round) {
    std::vector<std::thread> running;
    for (LoadThread& lt : threads)
      running.emplace_back(drive_round, std::ref(lt),
                           std::ref(server->fx().env()), std::cref(ctx.clock),
                           bodies, round_quota);
    for (std::thread& th : running) th.join();
    for (LoadThread& lt : threads) {
      if (lt.lost) r.fatal = "load thread lost a reply (worker died?)";
      r.ops += lt.ops;
      r.failed += lt.failed;
      r.latency_us.insert(r.latency_us.end(), lt.latency_us.begin(),
                          lt.latency_us.end());
      r.recovery_us.insert(r.recovery_us.end(), lt.recovery_us.begin(),
                           lt.recovery_us.end());
      r.faults += lt.faults;
      lt.ops = lt.failed = lt.faults = 0;
      lt.latency_us.clear();
      lt.recovery_us.clear();
    }
    ctx.maybe_pause(r);
  }
  ctx.end_phase(r);
  for (LoadThread& lt : threads) {
    ctx.tracer.merge(lt.tracer);
    lt.conns.clear();
    lt.fault.reset();
    server->fx().env().close(lt.epfd);
  }
  if (!r.fatal.empty()) {
    shut_down(*server);
    return r;
  }
  hsfi.disarm();
  const Counters after = snapshot(*server);
  r.phase = delta(before, after);
  r.recovery = r.phase;
  r.runtime_recovery_p50_us =
      value_of(after, "recovery.latency_seconds.p50") * 1e6;
  r.faults_fired = hsfi.marker(marker).executions - fired_before;
  hsfi.set_profiling(false);

  // --- restart from the crash image ---------------------------------------
  const fir::Vfs image = server->fx().env().vfs().crash_image();
  shut_down(*server);
  server.reset();
  const std::uint64_t restart_t0 = ctx.clock.now_ns();
  bool restarted = false;
  {
    Scope span(ctx.tracer, ctx.clock, Layer::kRestart, ctx.epoch);
    auto again = start_pool(&image);
    if (again != nullptr) {
      fir::HttpClient client(again->fx().env(), again->worker_port(0));
      restarted = client.connect() &&
                  roundtrip(client, ctx.clock, kPages[0], "", resp) == 1 &&
                  resp.status == 200 && resp.body == index_body;
      r.restart_s =
          static_cast<double>(ctx.clock.now_ns() - restart_t0) * 1e-9;
      client.close();
      shut_down(*again);
    }
  }
  ++r.checks;
  if (!restarted) ++r.check_failures;
  return r;
}

}  // namespace perfbench
