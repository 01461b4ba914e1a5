// Shared pieces of the benchmark driver: options, the pause-aware clock,
// the interleaved reference kernel, the span tracer, counter snapshots and
// the per-epoch result every workload returns.
//
// A run is a sequence of epochs. Each epoch sets a server up from scratch
// (timed as set-up), drives a fixed, seeded number of requests through it
// (the measured phase, interleaved with short reference-kernel slices),
// then restarts a fresh incarnation from the server's crash image and
// measures recovery from injected crashes. Epochs repeat until the run's
// time is spent; reported values are medians over slices or epochs, so
// one slow stretch on a shared machine moves nothing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/server.h"
#include "common/rng.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every epoch (self-test sizes).
  bool tiny = false;
  /// Where the traced run writes its spans (JSONL); empty: not written.
  std::string trace_out;
};

/// steady_clock nanoseconds minus the time spent in reference-kernel
/// slices, so a request in flight across a slice is not charged for it.
class BenchClock {
 public:
  static std::uint64_t raw_ns();
  std::uint64_t now_ns() const { return raw_ns() - paused_ns_; }
  void add_pause(std::uint64_t ns) { paused_ns_ += ns; }

 private:
  std::uint64_t paused_ns_ = 0;
};

/// A fixed unit of work independent of the program under test: the kind
/// of generic systems code the servers are made of — snprintf formatting,
/// string-keyed hash lookups, sorting, 16 KiB block copies — written with
/// libc and the standard library only, so no change to src/ can move it.
/// On a shared machine the servers slow down mostly from contention for
/// the core (a busy SMT sibling, frequency) and its caches. A cache-bound
/// compute chain or a DRAM-bound table walk tracked only part of that
/// slowdown; this mix tracked nearly all of it. Its rate, sampled between
/// short slices of the workload, scales the workload's times to a nominal
/// machine.
class RefKernel {
 public:
  /// Slices per second on the nominal machine: one reference second.
  static constexpr double kNominalRate = 650.0;

  RefKernel();
  /// Runs one slice of fixed work; returns its wall time in ns.
  std::uint64_t run_slice();

 private:
  static constexpr int kRounds = 4;
  static constexpr std::uint64_t kLookupsPerRound = 1000;
  static constexpr std::uint64_t kKeys = 5000;
  static constexpr std::size_t kSortWords = 2048;
  static constexpr std::size_t kCopyBytes = 1 << 16;
  static constexpr std::size_t kCopyMask = (1 << 15) - 1;
  static constexpr std::size_t kCopyBlock = 16384;
  static std::size_t format_key(char* buf, std::size_t cap, std::uint64_t k,
                                const char* verb);
  std::unordered_map<std::string, std::uint64_t> map_;
  std::vector<std::uint32_t> sort_buf_;
  std::vector<char> src_, dst_;
  std::uint64_t seq_ = 0;
  std::uint64_t sink_ = 0;  // keeps the results observable
};

/// The layers the benchmark brackets with spans, named by module. Slice
/// spans are the parents of pass and client spans; their self time is the
/// driver's own work (the remainder of the per-op breakdown).
enum class Layer : std::uint8_t {
  kSlice,    // bench.slice: one measured stretch between kernel slices
  kPass,     // apps.pass: Server::run_once
  kClient,   // workload.client: client-side Env calls (send/recv)
  kRef,      // ref.kernel: one reference-kernel slice
  kRestart,  // apps.restart: crash image -> first answered request
  kCount,
};
const char* layer_name(Layer layer);

class Tracer {
 public:
  struct Span {
    Layer layer;
    std::uint32_t parent;  // index into spans; kNoParent for roots
    std::uint64_t id;      // request / pass / slice sequence number
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  /// Spans kept in memory for the JSONL dump; totals keep counting past it.
  static constexpr std::size_t kMaxSpans = 50000;

  bool enabled = false;
  std::uint64_t total_ns[static_cast<int>(Layer::kCount)] = {};
  std::vector<Span> spans;
  std::uint64_t dropped = 0;

  /// Stores a span's start under the current parent and returns its handle
  /// (kNoParent once kMaxSpans are stored). close() adds the span's time to
  /// its layer's total whether or not it was stored. Callers check
  /// `enabled` first.
  std::uint32_t open(Layer layer, std::uint64_t id, std::uint64_t now_ns);
  void close(std::uint32_t handle, Layer layer, std::uint64_t start_ns,
             std::uint64_t end_ns);
  /// Parent assigned to spans opened from now on.
  std::uint32_t parent = kNoParent;

  void merge(const Tracer& other);
};

/// RAII span over one call into a layer.
class Scope {
 public:
  Scope(Tracer& tracer, const BenchClock& clock, Layer layer, std::uint64_t id)
      : tracer_(tracer.enabled ? &tracer : nullptr), clock_(clock),
        layer_(layer) {
    if (tracer_ != nullptr) {
      start_ = clock_.now_ns();
      handle_ = tracer_->open(layer, id, start_);
    }
  }
  ~Scope() {
    if (tracer_ != nullptr)
      tracer_->close(handle_, layer_, start_, clock_.now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  const BenchClock& clock_;
  Layer layer_;
  std::uint64_t start_ = 0;
  std::uint32_t handle_ = 0;
};

/// Program counters by name: MetricsRegistry::snapshot() plus the Env's
/// syscall/virtual-time tallies and Vfs::persist_stats().
using Counters = std::map<std::string, double>;
Counters snapshot(fir::Server& server);
/// b - a, per name present in b.
Counters delta(const Counters& a, const Counters& b);
/// Nearest-rank percentile (p in (0, 100]); 0 for no samples.
double percentile(std::vector<float> v, double p);
/// The named counter, 0 when absent.
double value_of(const Counters& c, const std::string& name);

/// Everything one epoch measured.
struct EpochResult {
  // Measured phase.
  std::uint64_t ops = 0;        // checked replies
  std::uint64_t failed = 0;     // unexpected outcomes among them
  std::uint64_t phase_ns = 0;   // wall time, kernel slices excluded
  /// One measured stretch between reference-kernel slices.
  struct Slice {
    std::uint64_t ops;        // replies checked in the slice
    std::uint64_t ns;         // its wall time
    std::size_t samples;      // latencies recorded in it
    double p50_us;            // their percentiles (0 without samples)
    double p99_us;
    std::uint64_t kernel_ns;  // the kernel slice run right after it
  };
  std::vector<Slice> slices;
  /// Healthy requests' latencies of the current slice; folded into the
  /// slice's percentiles and cleared when the slice closes.
  std::vector<float> latency_us;
  std::vector<float> recovery_us;        // faulting requests
  std::uint64_t faults = 0;              // faulting requests sent
  /// Executions of the armed marker in the fault window (counted in the
  /// first epoch only, where marker profiling stays on).
  std::uint64_t faults_fired = 0;
  Counters phase;                        // counter deltas, measured phase
  Counters recovery;                     // counter deltas, fault window
  double runtime_recovery_p50_us = 0.0;  // recovery.latency_seconds p50
  // Set-up and restart.
  double setup_s = 0.0;
  double restart_s = 0.0;
  std::uint64_t restart_records = 0;
  // Checks outside the measured phase (restart, audit, probes).
  std::uint64_t checks = 0;
  std::uint64_t check_failures = 0;
  /// Client threads that ran the phase concurrently (the per-op breakdown
  /// counts thread time: wall time x threads).
  std::uint64_t load_threads = 1;
  // Tracing.
  bool traced = false;
  std::uint64_t pass_ns = 0;
  std::uint64_t client_ns = 0;
  /// Set when the workload cannot continue (escaped FatalCrashError,
  /// server death, a start() failure).
  std::string fatal;
};

/// What an epoch gets from the driver.
struct EpochContext {
  const Options& opt;
  std::uint64_t epoch;
  /// The first epoch: its program counters are the run's per-layer counts
  /// (deterministic for a seed), it keeps marker profiling on through the
  /// fault window, and it is left out of the timing medians as warm-up.
  bool counting() const { return epoch == 0; }
  fir::Rng rng;  // the epoch's input stream: split_seed(seed, epoch)
  RefKernel& ref;
  BenchClock& clock;
  Tracer& tracer;

  /// Measured-phase bracketing. begin_phase() starts the phase clock.
  /// maybe_pause(r) ends a slice once r.ops has grown by `every_ops`: it
  /// records the slice, runs one reference-kernel slice with the bench
  /// clock paused, and starts the next. end_phase(r) closes the last
  /// (partial) slice the same way and stores the phase's wall time.
  void begin_phase(EpochResult& r);
  void maybe_pause(EpochResult& r);
  void end_phase(EpochResult& r);
  std::uint64_t every_ops = 1;

  // Phase and slice bookkeeping.
  void close_slice(EpochResult& r);
  void open_slice(EpochResult& r);
  std::uint64_t phase_start_ = 0;
  std::uint64_t slice_start_ = 0;
  std::uint64_t slice_ops_ = 0;
  std::uint64_t slice_id_ = 0;
  std::uint32_t slice_handle_ = Tracer::kNoParent;
};

using EpochFn = EpochResult (*)(EpochContext&);

EpochResult http_keepalive_epoch(EpochContext& ctx);
EpochResult http_faults_epoch(EpochContext& ctx);
EpochResult kv_durable_epoch(EpochContext& ctx);
EpochResult http_workers_epoch(EpochContext& ctx);

/// The policy every workload's servers run under (the paper's full
/// system: adaptive HTM/STM hybrid).
fir::TxManagerConfig firestarter_config();

}  // namespace perfbench
