// kv-durable: cooperative minikv under the stm-only recovery policy, with
// the AOF on, fsync policy "batch" and group commit.
//
// Closed loop: 8 connections each keep 16 commands in flight, 7 SETs and 3
// GETs in every seeded block of 10, over a 2000-key space in which each
// connection owns the keys congruent to its index. Owning its keys lets a
// connection predict every GET from its own shadow copy. After the
// measured phase a fresh incarnation restarts from the clean crash image
// (the AOF holds exactly one record per SET of the epoch), answers its
// first GET (timed as the restart), and every acked SET is audited. Then a
// persistent crash is armed in the GET handler for a recovery probe.
#include <cerrno>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "apps/minikv.h"
#include "apps/registry.h"
#include "bench.h"
#include "workload/kv_client.h"

namespace perfbench {
namespace {

constexpr int kConns = 8;
constexpr int kDepth = 16;
constexpr std::uint32_t kKeys = 2000;
constexpr std::uint32_t kKeysPerConn = kKeys / kConns;
constexpr int kSetsPerBlock = 7;  // of every 10 commands
constexpr std::uint32_t kGroupCommitMax = 16;
/// Driver passes a single reply may take before it counts as lost.
constexpr int kMaxPassesPerReply = 64;
constexpr const char* kNil = "$-1";

struct Pending {
  std::string expect;  // "+OK" or the GET's value / kNil
  std::uint64_t sent_ns;
};

struct Conn {
  Conn(fir::Env& env, std::uint16_t port) : client(env, port) {}
  fir::KvClient client;
  std::deque<Pending> inflight;
  std::vector<std::string> shadow =
      std::vector<std::string>(kKeysPerConn);  // last value sent per key
  std::uint32_t block_pos = 10;
  bool block[10] = {};
};

std::string key_name(int conn, std::uint32_t local) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k:%04u",
                local * kConns + static_cast<std::uint32_t>(conn));
  return buf;
}

/// STM-only: under the adaptive policy minikv's transactions stay in the
/// HTM model (99.98% of them), so STM store logging would go unmeasured.
std::unique_ptr<fir::Minikv> make_server() {
  auto kv = std::make_unique<fir::Minikv>(
      fir::apps::named_policy_config("stm-only"));
  kv->enable_aof(true);
  kv->set_fsync_policy(fir::FsyncPolicy::kBatch);
  kv->set_group_commit({kGroupCommitMax, 0});
  return kv;
}

/// Drives `kv` until `client` has a reply (1), lost its connection (-1)
/// or the pass budget ran out (0).
int await_reply(fir::Minikv& kv, fir::KvClient& client, std::string& out) {
  for (int i = 0; i < kMaxPassesPerReply; ++i) {
    kv.run_once();
    const int rc = client.try_read_reply(out);
    if (rc != 0) return rc;
  }
  return 0;
}

/// Sends one command on a fresh raw connection and drives the server until
/// the connection ends. True when it ended without any reply byte. (Raw
/// Env calls: KvClient reports an orderly close as "incomplete".)
bool dropped_without_reply(fir::Minikv& kv, const std::string& command) {
  fir::Env& env = kv.fx().env();
  const int fd = env.connect_to(kv.port());
  if (fd < 0) return false;
  bool dropped = false;
  if (env.send(fd, command.data(), command.size()) ==
      static_cast<ssize_t>(command.size())) {
    for (int i = 0; i < kMaxPassesPerReply; ++i) {
      kv.run_once();
      char buf[64];
      const ssize_t n = env.recv(fd, buf, sizeof(buf));
      if (n < 0 && env.last_errno() == EAGAIN) continue;
      dropped = n <= 0;
      break;
    }
  }
  env.close(fd);
  return dropped;
}

/// Next command type of a connection: a seeded permutation of 7 SETs and
/// 3 GETs per block of 10.
bool next_is_set(Conn& c, fir::Rng& rng) {
  if (c.block_pos == 10) {
    for (int i = 0; i < 10; ++i) c.block[i] = i < kSetsPerBlock;
    for (int i = 9; i > 0; --i)
      std::swap(c.block[i],
                c.block[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
    c.block_pos = 0;
  }
  return c.block[c.block_pos++];
}

}  // namespace

EpochResult kv_durable_epoch(EpochContext& ctx) {
  EpochResult r;
  const std::uint64_t ops = ctx.opt.tiny ? 1600 : 16000;  // multiple of 80
  ctx.every_ops = ctx.opt.tiny ? 400 : 4000;
  const int probes = ctx.opt.tiny ? 8 : 40;

  // --- set-up -----------------------------------------------------------
  const std::uint64_t setup_t0 = ctx.clock.now_ns();
  auto kv = make_server();
  if (!kv->start(0).is_ok()) {
    r.fatal = "minikv start failed";
    return r;
  }
  std::deque<Conn> conns;
  for (int i = 0; i < kConns; ++i) {
    conns.emplace_back(kv->fx().env(), kv->port());
    if (!conns.back().client.connect()) {
      r.fatal = "connect failed";
      return r;
    }
  }
  r.setup_s = static_cast<double>(ctx.clock.now_ns() - setup_t0) * 1e-9;

  // --- measured phase ----------------------------------------------------
  const Counters before = snapshot(*kv);
  const std::uint64_t per_conn = ops / kConns;
  std::uint64_t sent[kConns] = {}, done = 0, passes = 0, req_id = 0, sets = 0;
  std::string reply;
  char cmd[96];
  ctx.begin_phase(r);
  int stalled = 0;  // consecutive passes without a reply
  while (done < ops) {
    const std::uint64_t ops_before = r.ops;
    for (int i = 0; i < kConns; ++i) {
      Conn& c = conns[static_cast<std::size_t>(i)];
      while (c.inflight.size() < kDepth && sent[i] < per_conn) {
        const bool is_set = next_is_set(c, ctx.rng);
        const auto local =
            static_cast<std::uint32_t>(ctx.rng.next_below(kKeysPerConn));
        const std::string key = key_name(i, local);
        Pending p{{}, 0};
        if (is_set) {
          char value[48];
          std::snprintf(value, sizeof(value), "v%016llx-%llu",
                        static_cast<unsigned long long>(ctx.rng.next()),
                        static_cast<unsigned long long>(sent[i]));
          std::snprintf(cmd, sizeof(cmd), "SET %s %s", key.c_str(), value);
          c.shadow[local] = value;
          p.expect = "+OK";
          ++sets;
        } else {
          std::snprintf(cmd, sizeof(cmd), "GET %s", key.c_str());
          p.expect = c.shadow[local].empty() ? kNil : c.shadow[local];
        }
        Scope span(ctx.tracer, ctx.clock, Layer::kClient, req_id++);
        c.client.send_command(cmd);
        p.sent_ns = ctx.clock.now_ns();
        c.inflight.push_back(std::move(p));
        ++sent[i];
      }
    }
    {
      Scope span(ctx.tracer, ctx.clock, Layer::kPass, passes++);
      kv->run_once();
    }
    for (Conn& c : conns) {
      while (!c.inflight.empty()) {
        int rc;
        {
          Scope span(ctx.tracer, ctx.clock, Layer::kClient, req_id++);
          rc = c.client.try_read_reply(reply);
        }
        if (rc == 0) break;
        if (rc < 0) {
          r.fatal = "connection lost";
          return r;
        }
        const Pending& p = c.inflight.front();
        r.latency_us.push_back(
            static_cast<float>((ctx.clock.now_ns() - p.sent_ns) / 1000.0));
        if (reply != p.expect) ++r.failed;
        c.inflight.pop_front();
        ++r.ops;
        ++done;
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
  r.phase = delta(before, snapshot(*kv));

  // --- restart from the clean crash image, then audit every acked SET -----
  const fir::Vfs image = kv->fx().env().vfs().crash_image();
  for (Conn& c : conns) c.client.close();  // before their Env goes away
  kv->stop();
  kv.reset();
  const std::string probe_key = key_name(0, 0);
  const std::string& probe_expect = conns.front().shadow[0];
  const std::uint64_t restart_t0 = ctx.clock.now_ns();
  bool restarted = false;
  {
    Scope span(ctx.tracer, ctx.clock, Layer::kRestart, ctx.epoch);
    kv = make_server();
    kv->fx().env().vfs().import_from(image);
    if (kv->start(0).is_ok()) {
      fir::KvClient client(kv->fx().env(), kv->port());
      restarted = client.connect() &&
                  client.send_command("GET " + probe_key) &&
                  await_reply(*kv, client, reply) == 1;
      r.restart_s =
          static_cast<double>(ctx.clock.now_ns() - restart_t0) * 1e-9;
    }
  }
  if (!restarted) {
    r.fatal = "restart from crash image failed";
    return r;
  }
  ++r.checks;
  if (reply != (probe_expect.empty() ? kNil : probe_expect))
    ++r.check_failures;
  r.restart_records = kv->aof_records_replayed();
  ++r.checks;
  if (r.restart_records != sets) ++r.check_failures;

  fir::Hsfi& hsfi = kv->fx().hsfi();
  hsfi.set_profiling(true);
  fir::KvClient audit(kv->fx().env(), kv->port());
  if (!audit.connect()) {
    r.fatal = "audit connect failed";
    return r;
  }
  for (int i = 0; i < kConns; ++i) {
    const Conn& c = conns[static_cast<std::size_t>(i)];
    for (std::uint32_t k = 0; k < kKeysPerConn; ++k) {
      if (c.shadow[k].empty()) continue;
      ++r.checks;
      audit.send_command("GET " + key_name(i, k));
      if (await_reply(*kv, audit, reply) != 1 || reply != c.shadow[k])
        ++r.check_failures;
    }
  }
  audit.close();
  if (!ctx.counting()) hsfi.set_profiling(false);

  // --- recovery probe: persistent crash in the GET handler ----------------
  // Documented outcome: the crash rolls back to the recv() gate, which is
  // diverted, and the server drops the connection without a reply.
  fir::MarkerId marker = fir::kInvalidMarker;
  for (const fir::Marker& m : hsfi.markers())
    if (m.name == "cmd_get") marker = m.id;
  if (marker == fir::kInvalidMarker) {
    r.fatal = "cmd_get marker not found";
    return r;
  }
  const std::uint64_t fired_before = hsfi.marker(marker).executions;
  const Counters rec_before = snapshot(*kv);
  hsfi.arm({marker, fir::FaultType::kPersistentCrash, fir::CrashKind::kSegv,
            ctx.opt.seed});
  const std::string probe_cmd = "GET " + probe_key + "\r\n";
  for (int i = 0; i < probes; ++i) {
    ++r.checks;
    ++r.faults;
    const std::uint64_t t0 = ctx.clock.now_ns();
    if (!dropped_without_reply(*kv, probe_cmd)) ++r.check_failures;
    r.recovery_us.push_back(
        static_cast<float>((ctx.clock.now_ns() - t0) / 1000.0));
  }
  hsfi.disarm();
  const Counters rec_after = snapshot(*kv);
  r.recovery = delta(rec_before, rec_after);
  r.runtime_recovery_p50_us =
      value_of(rec_after, "recovery.latency_seconds.p50") * 1e6;
  r.faults_fired = hsfi.marker(marker).executions - fired_before;
  hsfi.set_profiling(false);
  kv->stop();
  return r;
}

}  // namespace perfbench
