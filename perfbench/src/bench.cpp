#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "apps/registry.h"
#include "obs/metrics.h"

namespace perfbench {

std::uint64_t BenchClock::raw_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

RefKernel::RefKernel()
    : sort_buf_(kSortWords), src_(kCopyBytes), dst_(kCopyBytes) {
  // Every key exists from the start, so each slice does the same lookups.
  char key[32];
  for (std::uint64_t k = 0; k < kKeys; ++k)
    for (const char* verb : {"get", "set"})
      map_.emplace(std::string(key, format_key(key, sizeof(key), k, verb)), k);
}

std::size_t RefKernel::format_key(char* buf, std::size_t cap, std::uint64_t k,
                                  const char* verb) {
  return static_cast<std::size_t>(std::snprintf(
      buf, cap, "key:%06llu:%s", static_cast<unsigned long long>(k), verb));
}

std::uint64_t RefKernel::run_slice() {
  const std::uint64_t t0 = BenchClock::raw_ns();
  std::uint64_t acc = 0;
  char key[32];
  for (int round = 0; round < kRounds; ++round) {
    // Formatting and string-keyed hash lookups.
    for (std::uint64_t i = 0; i < kLookupsPerRound; ++i) {
      const std::uint64_t k = (seq_ * 2654435761u + i) % kKeys;
      const std::size_t n =
          format_key(key, sizeof(key), k, i % 3 != 0 ? "get" : "set");
      acc += map_.find(std::string(key, n))->second;
    }
    // Sorting fresh pseudo-random words.
    std::uint32_t x = static_cast<std::uint32_t>(seq_) | 1u;
    for (std::uint32_t& w : sort_buf_) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      w = x;
    }
    std::sort(sort_buf_.begin(), sort_buf_.end());
    acc += sort_buf_[seq_ % kSortWords];
    // Block copies, the size of a stack snapshot.
    for (std::size_t i = 0; i < 4; ++i)
      std::memcpy(dst_.data() + ((i * 12288) & kCopyMask),
                  src_.data() + ((seq_ * 4096 + i * 8192) & kCopyMask),
                  kCopyBlock);
    acc += static_cast<unsigned char>(dst_[seq_ % kCopyBytes]);
    ++seq_;
  }
  sink_ += acc;
  return BenchClock::raw_ns() - t0;
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSlice: return "bench.slice";
    case Layer::kPass: return "apps.pass";
    case Layer::kClient: return "workload.client";
    case Layer::kRef: return "ref.kernel";
    case Layer::kRestart: return "apps.restart";
    case Layer::kCount: break;
  }
  return "?";
}

std::uint32_t Tracer::open(Layer layer, std::uint64_t id,
                           std::uint64_t now_ns) {
  if (spans.size() >= kMaxSpans) {
    ++dropped;
    return kNoParent;
  }
  spans.push_back({layer, parent, id, now_ns, 0});
  return static_cast<std::uint32_t>(spans.size() - 1);
}

void Tracer::close(std::uint32_t handle, Layer layer, std::uint64_t start_ns,
                   std::uint64_t end_ns) {
  total_ns[static_cast<int>(layer)] += end_ns - start_ns;
  if (handle != kNoParent) spans[handle].end_ns = end_ns;
}

void Tracer::merge(const Tracer& other) {
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i)
    total_ns[i] += other.total_ns[i];
  dropped += other.dropped;
  for (const Span& s : other.spans) {
    if (spans.size() >= kMaxSpans) {
      ++dropped;
      continue;
    }
    spans.push_back(s);
    spans.back().parent = Tracer::kNoParent;  // other thread's index space
  }
}

Counters snapshot(fir::Server& server) {
  Counters c;
  for (const fir::obs::MetricSample& s :
       server.fx().mgr().obs().metrics().snapshot()) {
    c[s.name] = s.value;
    if (s.kind == fir::obs::MetricSample::Kind::kHistogram)
      c[s.name + ".p50"] = s.p50;
  }
  fir::Env& env = server.fx().env();
  c["env.syscalls"] = static_cast<double>(env.stats().syscalls);
  c["env.vtime_ns"] = static_cast<double>(env.clock().now_ns());
  const fir::PersistStats& p = env.vfs().persist_stats();
  c["vfs.barriers"] = static_cast<double>(p.barriers);
  c["vfs.bytes_synced"] = static_cast<double>(p.bytes_synced);
  return c;
}

Counters delta(const Counters& a, const Counters& b) {
  Counters d;
  for (const auto& [name, v] : b) {
    const auto it = a.find(name);
    d[name] = v - (it == a.end() ? 0.0 : it->second);
  }
  return d;
}

double percentile(std::vector<float> v, double p) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return v[rank];
}

double value_of(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

void EpochContext::open_slice(EpochResult& r) {
  slice_start_ = clock.now_ns();
  slice_ops_ = r.ops;
  r.latency_us.clear();
  if (tracer.enabled) {
    slice_handle_ = tracer.open(Layer::kSlice, slice_id_++, slice_start_);
    tracer.parent = slice_handle_;
  }
}

void EpochContext::close_slice(EpochResult& r) {
  const std::uint64_t end = clock.now_ns();
  if (tracer.enabled) {
    tracer.parent = Tracer::kNoParent;
    tracer.close(slice_handle_, Layer::kSlice, slice_start_, end);
  }
  const std::uint64_t kernel = ref.run_slice();
  clock.add_pause(kernel);
  if (tracer.enabled) {
    const std::uint32_t h = tracer.open(Layer::kRef, slice_id_, end);
    tracer.close(h, Layer::kRef, end, end + kernel);
  }
  r.slices.push_back({r.ops - slice_ops_, end - slice_start_,
                      r.latency_us.size(), percentile(r.latency_us, 50),
                      percentile(r.latency_us, 99), kernel});
  r.latency_us.clear();
}

void EpochContext::begin_phase(EpochResult& r) {
  phase_start_ = clock.now_ns();
  open_slice(r);
}

void EpochContext::maybe_pause(EpochResult& r) {
  if (r.ops - slice_ops_ < every_ops) return;
  close_slice(r);
  open_slice(r);
}

void EpochContext::end_phase(EpochResult& r) {
  if (r.ops > slice_ops_) {
    close_slice(r);
  } else if (tracer.enabled) {
    tracer.parent = Tracer::kNoParent;
    tracer.close(slice_handle_, Layer::kSlice, slice_start_, clock.now_ns());
  }
  r.phase_ns = clock.now_ns() - phase_start_;
}

fir::TxManagerConfig firestarter_config() {
  return fir::apps::named_policy_config("firestarter");
}

}  // namespace perfbench
