// perfbench: the repository's benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <spans.jsonl>] [--tiny]
//
// Runs epochs of one workload until --seconds have passed, checks every
// operation, and prints a per-metric table followed by one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 brackets each layer
// call with spans (traced and untraced epochs alternate, to price the
// tracing) and reports the per-layer metrics instead. Time metrics are
// reported in reference seconds: each epoch's times are multiplied by the
// ratio of the reference kernel's measured rate to its nominal rate,
// which cancels machine-speed drift. The raw values appear in the traced
// run as raw.* beside ref.rate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <sched.h>
#include <sys/personality.h>
#include <unistd.h>

#include "bench.h"
#include "core/crash.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  EpochFn fn;
  /// Runs on the calling thread only (its epochs may be pinned).
  bool cooperative;
};

constexpr Workload kWorkloads[] = {
    {"http-keepalive", http_keepalive_epoch, true},
    {"kv-durable", kv_durable_epoch, true},
    {"http-faults", http_faults_epoch, true},
    {"http-workers", http_workers_epoch, false},
};

/// Pins the calling thread to the allowed CPUs in turn, one per epoch.
/// Other tenants' load differs from CPU to CPU and drifts over time; a run
/// that visits every CPU sees their average, and the median over slices
/// ignores one CPU that is busier than the rest.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  std::size_t cpus() const { return cpus_.size(); }
  void pin(std::uint64_t epoch) const {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[epoch % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  std::vector<int> cpus_;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] [--tiny]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0)) usage("bad --seconds");
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("bad --trace");
      o.trace = v[0] == '1';
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage("unknown argument");
    }
  }
  if (!have_workload) usage("missing --workload");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return 0.5 * (hi + *std::max_element(v.begin(),
                                        v.begin() + static_cast<long>(mid)));
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// A kernel slice's rate relative to the nominal rate (> 1: the machine
/// ran faster than nominal, so raw times are multiplied by it).
double speed_factor(std::uint64_t kernel_ns) {
  return 1e9 / static_cast<double>(kernel_ns) / RefKernel::kNominalRate;
}

/// Values of one timing metric, raw and scaled, one per slice or epoch.
struct Series {
  std::vector<double> raw, scaled;
  void add(double v, double scale) {
    raw.push_back(v);
    scaled.push_back(v * scale);
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void write_spans(const std::string& path, const Tracer& t) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Tracer::Span& s = t.spans[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"id\":%llu,\"parent\":%lld,"
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 i, layer_name(s.layer), static_cast<unsigned long long>(s.id),
                 s.parent == Tracer::kNoParent
                     ? -1LL
                     : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fclose(f);
}

int run(const Options& opt) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (opt.workload == w.name) wl = &w;
  if (wl == nullptr) usage("unknown workload");

  const CpuRotation rotation;
  RefKernel ref;
  BenchClock clock;
  Tracer tracer;
  std::vector<EpochResult> epochs;
  std::string fatal;
  std::uint64_t attempted = 0, failed = 0;
  const std::uint64_t deadline =
      BenchClock::raw_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  const std::size_t min_epochs = 3;
  for (std::uint64_t e = 0;
       epochs.size() < min_epochs || BenchClock::raw_ns() < deadline; ++e) {
    // Traced and untraced epochs alternate, and each CPU of the rotation
    // gets both, so the overhead estimate is not a difference of CPUs.
    const std::uint64_t n = wl->cooperative ? rotation.cpus() : 1;
    if (wl->cooperative) rotation.pin(e);
    tracer.enabled = opt.trace && (e + (n % 2 == 0 ? e / n : 0)) % 2 == 0;
    EpochContext ctx{opt, e, fir::Rng(fir::split_seed(opt.seed, e)), ref,
                     clock, tracer};
    const std::uint64_t pass0 = tracer.total_ns[int(Layer::kPass)];
    const std::uint64_t client0 = tracer.total_ns[int(Layer::kClient)];
    EpochResult r;
    try {
      r = wl->fn(ctx);
    } catch (const fir::FatalCrashError& err) {
      r.fatal = std::string("escaped FatalCrashError: ") + err.what();
    }
    r.traced = tracer.enabled;
    r.pass_ns = tracer.total_ns[int(Layer::kPass)] - pass0;
    r.client_ns = tracer.total_ns[int(Layer::kClient)] - client0;
    attempted += r.ops + r.checks;
    failed += r.failed + r.check_failures;
    if (!r.fatal.empty()) {
      // The failure that stopped the workload is one more failed op.
      fatal = r.fatal;
      ++attempted;
      ++failed;
      std::fprintf(stderr, "perfbench: %s: %s\n", wl->name, fatal.c_str());
      break;
    }
    if (e > 0) {  // only the first epoch's counters are reported
      r.phase.clear();
      r.recovery.clear();
    }
    epochs.push_back(std::move(r));
  }
  const bool correct = fatal.empty() && failed == 0;

  // Timings skip the first (warm-up) epoch. Throughput and latency are
  // medians over slices, each slice scaled by the kernel slice run right
  // after it; set-up and recovery are per epoch, scaled by the epoch's
  // median kernel rate. Restart times are per epoch and not scaled: the
  // kernel's rate tracks the serving loops but not a restart (on
  // kv-durable, scaling widened restart_s's five-seed spread from 0.05 to
  // 0.21).
  const std::size_t first = epochs.size() > 1 ? 1 : 0;
  Series tput, p50, p99, setup, rec50;
  std::vector<double> restart;
  std::vector<double> rates, ns_traced, ns_untraced;
  std::vector<float> rec_raw, rec_scaled;
  for (std::size_t i = first; i < epochs.size(); ++i) {
    const EpochResult& e = epochs[i];
    std::vector<double> factors;
    for (const EpochResult::Slice& s : e.slices) {
      const double f = speed_factor(s.kernel_ns);
      factors.push_back(f);
      rates.push_back(f * RefKernel::kNominalRate);
      tput.add(static_cast<double>(s.ops) * 1e9 / static_cast<double>(s.ns),
               1.0 / f);
      (e.traced ? ns_traced : ns_untraced)
          .push_back(static_cast<double>(s.ns) / static_cast<double>(s.ops));
      if (s.samples == 0) continue;
      p50.add(s.p50_us, f);
      p99.add(s.p99_us, f);
    }
    const double fe = median(factors);
    setup.add(e.setup_s, fe);
    restart.push_back(e.restart_s);
    if (!e.recovery_us.empty()) rec50.add(percentile(e.recovery_us, 50), fe);
    for (const float us : e.recovery_us) {
      rec_raw.push_back(us);
      rec_scaled.push_back(static_cast<float>(us * fe));
    }
  }

  // End-to-end metrics, each scaled one with its raw value (NaN: the
  // metric is not scaled).
  struct Scaled {
    Metric metric;
    double raw;
  };
  const std::vector<Scaled> e2e = {
      {{"throughput_ops_s", median(tput.scaled), "1/s"}, median(tput.raw)},
      {{"latency_p50_us", median(p50.scaled), "us"}, median(p50.raw)},
      {{"latency_p99_us", median(p99.scaled), "us"}, median(p99.raw)},
      {{"recovery_p50_us", median(rec50.scaled), "us"}, median(rec50.raw)},
      {{"recovery_p99_us", percentile(rec_scaled, 99), "us"},
       percentile(rec_raw, 99)},
      {{"restart_s", median(restart), "s"}, std::nan("")},
      {{"setup_s", median(setup.scaled), "s"}, median(setup.raw)},
      {{"peak_rss_mb", peak_rss_mb(), "MB"}, std::nan("")},
  };
  std::vector<Metric> metrics;
  if (!opt.trace) {
    std::printf("%-20s %18s %18s\n", "metric", "scaled", "raw");
    for (const Scaled& s : e2e) {
      std::printf("%-20s %18.6f %18.6f %s\n", s.metric.name.c_str(),
                  s.metric.value, std::isnan(s.raw) ? s.metric.value : s.raw,
                  s.metric.unit);
      metrics.push_back(s.metric);
    }
    std::printf("%-20s %18.6f (reference kernel slices/s; nominal %.0f)\n",
                "ref.rate", median(rates), RefKernel::kNominalRate);
  } else if (!epochs.empty()) {
    // Counts come from the first epoch: a fixed, seeded request sequence,
    // so they repeat exactly for a seed on the cooperative workloads.
    const EpochResult& e0 = epochs.front();
    Counters c = e0.phase;
    Counters rc = e0.recovery;
    const double ops = static_cast<double>(e0.ops);
    const double faults = static_cast<double>(e0.faults);
    // Layer times pool every traced epoch.
    double pass_ns = 0, client_ns = 0, wall_ns = 0, traced_ops = 0;
    for (const EpochResult& e : epochs) {
      if (!e.traced) continue;
      pass_ns += static_cast<double>(e.pass_ns);
      client_ns += static_cast<double>(e.client_ns);
      wall_ns += static_cast<double>(e.phase_ns * e.load_threads);
      traced_ops += static_cast<double>(e.ops);
    }
    const double wall_per_op = ratio(wall_ns, traced_ops);
    const double pass_per_op = ratio(pass_ns, traced_ops);
    const double client_per_op = ratio(client_ns, traced_ops);
    const double remainder = wall_per_op - pass_per_op - client_per_op;
    const double restart_s = e2e[5].metric.value;
    const double tx_all = c["tx.htm"] + c["tx.stm"] + c["tx.unprotected"];
    metrics = {
        {"apps.pass_ns_per_op", pass_per_op, "ns"},
        {"workload.client_ns_per_op", client_per_op, "ns"},
        {"bench.remainder_ns_per_op", remainder, "ns"},
        {"bench.wall_ns_per_op", wall_per_op, "ns"},
        {"interpose.gate_calls_per_op", ratio(c["gate.calls"], ops), "count"},
        {"core.commits_per_op", ratio(c["tx.commits"], ops), "count"},
        {"core.coalesced_share", ratio(c["tx.coalesced"], c["gate.calls"]),
         "ratio"},
        {"core.snapshot_bytes_per_op", ratio(c["snapshot.bytes_copied"], ops),
         "B"},
        {"core.snapshot_elided_share",
         ratio(c["snapshot.bytes_elided"],
               c["snapshot.bytes_elided"] + c["snapshot.bytes_copied"]),
         "ratio"},
        {"htm.tx_share", ratio(c["tx.htm"], tx_all), "ratio"},
        {"htm.abort_share",
         ratio(c["htm.begun"] - c["htm.committed"], c["htm.begun"]), "ratio"},
        {"stm.bytes_logged_per_op", ratio(c["stm.bytes_logged"], ops), "B"},
        {"stm.filter_hit_share", ratio(c["stm.filter_hits"], c["stm.stores"]),
         "ratio"},
        {"env.syscalls_per_op", ratio(c["env.syscalls"], ops), "count"},
        {"env.vtime_ns_per_op", ratio(c["env.vtime_ns"], ops), "ns"},
        {"vfs.barriers_per_op", ratio(c["vfs.barriers"], ops), "count"},
        {"vfs.bytes_synced_per_op", ratio(c["vfs.bytes_synced"], ops), "B"},
        {"vfs.acks_per_barrier",
         ratio(c["persist.acks_deferred"], c["vfs.barriers"]), "count"},
        {"recovery.crashes_per_fault", ratio(rc["recovery.crashes"], faults),
         "count"},
        {"recovery.rollbacks_per_fault",
         ratio(rc["recovery.rollbacks"], faults), "count"},
        {"recovery.compensations_per_fault",
         ratio(rc["recovery.compensations"], faults), "count"},
        {"recovery.runtime_p50_us", e0.runtime_recovery_p50_us, "us"},
        {"policy.demotions", rc["policy.demotions"], "count"},
        {"policy.decoalesced", rc["policy.decoalesced"], "count"},
        {"hsfi.faults_fired", static_cast<double>(e0.faults_fired), "count"},
        {"apps.restart_records", static_cast<double>(e0.restart_records),
         "count"},
        {"apps.restart_ns_per_record",
         ratio(restart_s * 1e9, static_cast<double>(e0.restart_records)),
         "ns"},
        {"obs.trace_overhead_share",
         ratio(median(ns_traced), median(ns_untraced)) - 1.0, "ratio"},
        {"ref.rate", median(rates), "1/s"},
    };
    for (const Scaled& s : e2e)
      if (!std::isnan(s.raw))
        metrics.push_back({"raw." + s.metric.name, s.raw, s.metric.unit});
    metrics.push_back(
        {"env.modeled_ops_s", ratio(ops * 1e9, c["env.vtime_ns"]), "1/s"});

    std::printf("per-op breakdown over %.0f traced ops (ns/op):\n", traced_ops);
    std::printf("  %-28s %12.1f\n", "apps.pass (run_once)", pass_per_op);
    std::printf("  %-28s %12.1f\n", "workload.client (Env calls)",
                client_per_op);
    std::printf("  %-28s %12.1f\n", "remainder (driver)", remainder);
    std::printf("  %-28s %12.1f\n", "= wall", wall_per_op);
    std::printf("  spans: %zu kept, %llu dropped\n", tracer.spans.size(),
                static_cast<unsigned long long>(tracer.dropped));
    if (e0.load_threads == 1) {
      // Cross-check: the slices' self time is the remainder, measured.
      const double slice_self =
          static_cast<double>(tracer.total_ns[int(Layer::kSlice)]) -
          static_cast<double>(tracer.total_ns[int(Layer::kPass)]) -
          static_cast<double>(tracer.total_ns[int(Layer::kClient)]);
      std::printf("  (remainder measured as slice self time: %.1f ns/op)\n",
                  ratio(slice_self, traced_ops));
    }
    if (!opt.trace_out.empty()) write_spans(opt.trace_out, tracer);
  }

  std::printf("%s: %zu epochs, %llu ops checked, %llu failed\n", wl->name,
              epochs.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (opt.trace)
    for (const Metric& m : metrics)
      std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Re-exec once with address-space randomization off. The STM write
  // filter hashes cache-line addresses, so with a randomized heap the
  // per-layer counts (and the speed) change from process to process;
  // without it they repeat exactly for a seed. If the personality cannot
  // be changed the run goes on randomized.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) !=
          -1)
    execv("/proc/self/exe", argv);
  return perfbench::run(perfbench::parse(argc, argv));
}
