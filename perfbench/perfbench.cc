// End-to-end benchmark of the multi-GPU sort stack, with two clocks: host
// wall seconds (what the functional kernels, event engine, flow settler,
// executor and scheduler cost on this CPU) and simulated seconds (the
// model's prediction, deterministic for a seed).
//
//   mgs_perfbench --workload paper_sort|trace_distinct|trace_cached
//                 --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// The library is driven only through its public calls. With --trace 0 the
// workload's units run back to back for S seconds and the end-to-end
// metrics are reported. With --trace 1 two units run with the benchmark's
// spans recorded, the second also with a metrics registry attached; the
// kernel entry points are then replayed on the workload's own shapes, and
// the per-layer metrics are reported. The last stdout line is the result
// object; the line before it is a report with every named metric. See
// perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/api.h"
#include "cpusort/multiway_merge.h"
#include "exec/executor.h"
#include "gpusort/device_sort.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "sched/server.h"
#include "sched/workload.h"
#include "topo/systems.h"
#include "util/datagen.h"
#include "util/thread_pool.h"
#include "vgpu/platform.h"

namespace {

using namespace mgs;
using Clock = std::chrono::steady_clock;
using Values = std::map<std::string, double>;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// ---------------------------------------------------------------------------
// Spans: kept in memory during the traced run, written once at exit.

/// Spans nest: a span's parent is the innermost span still open when it
/// opens, and it belongs to its parent's unit unless given one.
class SpanLog {
 public:
  int Open(const std::string& name, std::int64_t unit) {
    const int parent = open_.empty() ? -1 : open_.back();
    if (unit < 0) {
      unit = parent < 0 ? 0 : spans_[static_cast<std::size_t>(parent)].unit;
    }
    spans_.push_back(Span{name, Now(), 0, parent, unit});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void Close(int id) {
    spans_[static_cast<std::size_t>(id)].end = Now();
    open_.pop_back();
  }

  /// Chrome-trace JSON: one complete ("X") event per span, one thread row
  /// per unit (set-up, sort call or trace replay), parent span id in args.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"unit\":%lld}}",
                    i ? "," : "", s.name.c_str(),
                    static_cast<long long>(s.unit), s.start * 1e6,
                    (s.end - s.start) * 1e6, i, s.parent,
                    static_cast<long long>(s.unit));
      out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
    std::int64_t unit;
  };
  double Now() const { return SecondsSince(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  // ids of the spans still open, innermost last
};

/// Times one call into the library; records it as a span when a log is
/// attached (traced run only). Scopes close innermost first.
class Scope {
 public:
  Scope(SpanLog* log, const std::string& name, std::int64_t unit = -1)
      : log_(log), id_(log ? log->Open(name, unit) : -1) {}
  /// Closes the span and returns its host seconds. Call once.
  double Stop() {
    if (log_) log_->Close(id_);
    return SecondsSince(start_);
  }

 private:
  SpanLog* log_;
  int id_;
  Clock::time_point start_ = Clock::now();
};

// ---------------------------------------------------------------------------
// Correctness gate.

/// Order-independent fingerprint (the idiom of src/benchsuite/suite.cc):
/// equal for any permutation of the same keys, so a sort's output must
/// match its input's.
std::uint64_t Fingerprint(const std::int32_t* v, std::size_t n) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = static_cast<std::uint32_t>(v[i]);
    bits = (bits ^ (bits >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h += bits ^ (bits >> 27);
  }
  return h;
}

/// Empty when `out` is sorted and a permutation of the input whose
/// fingerprint is `input_fingerprint`; otherwise what is wrong.
std::string CheckSortedPermutation(const std::vector<std::int32_t>& out,
                                   std::uint64_t input_fingerprint) {
  if (!std::is_sorted(out.begin(), out.end())) return "output not sorted";
  if (Fingerprint(out.data(), out.size()) != input_fingerprint) {
    return "output is not a permutation of the input";
  }
  return "";
}

/// Units attempted and failed. A failed unit publishes no timing.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& why, std::int64_t count = 1) {
    failed += count;
    if (errors.size() < 8) errors.push_back(why);
  }
};

/// The gate every sort passes before its time is published: the call
/// succeeded, and its output is sorted and a permutation of the input.
/// Otherwise it counts a failure in `tally` and returns false.
bool PassesGate(const Status& status, const std::vector<std::int32_t>& out,
                std::uint64_t input_fingerprint, const std::string& what,
                Tally* tally) {
  const std::string error = status.ok()
                                ? CheckSortedPermutation(out, input_fingerprint)
                                : status.ToString();
  if (error.empty()) return true;
  tally->Fail(what + ": " + error);
  return false;
}

/// Deterministic outputs of a unit (simulated seconds and counts) must be
/// bitwise identical every time the unit repeats in one run.
class RepeatCheck {
 public:
  void Check(const std::string& key, const std::vector<double>& values) {
    auto [it, first] = first_.emplace(key, values);
    if (!first && it->second != values) {
      ok_ = false;
      mismatch_ = key;
    }
  }
  bool ok() const { return ok_; }
  const std::string& mismatch() const { return mismatch_; }

 private:
  std::map<std::string, std::vector<double>> first_;
  bool ok_ = true;
  std::string mismatch_;
};

/// What one measured unit produced. `wall` covers only the timed library
/// calls; `layer` holds per-layer values when the unit ran traced.
struct UnitResult {
  bool ok = false;
  double wall = 0;
  double completed = 0;  // sort requests completed
  double sorted = 0;     // of those, actually sorted (not cache hits)
  Values report;         // report-line values; the run reports their medians
  Values layer;          // per-layer values (traced unit)
};

/// Sum over every series of a metric family; with `label` set, only over
/// counter series whose `label` value starts with `prefix`.
double FamilySum(const obs::MetricsRegistry& registry, const std::string& name,
                 const std::string& label = "", const std::string& prefix = "") {
  const auto* family = registry.FindFamily(name);
  if (family == nullptr) return 0;
  double sum = 0;
  for (const auto& [labels, c] : family->counters) {
    const bool match =
        label.empty() ||
        std::any_of(labels.begin(), labels.end(), [&](const auto& kv) {
          return kv.first == label && kv.second.rfind(prefix, 0) == 0;
        });
    if (match) sum += c->value();
  }
  if (!label.empty()) return sum;
  for (const auto& [labels, h] : family->histograms) sum += h->sum();
  return sum;
}

/// Reads the registry and flow network into per-layer values after a
/// traced unit on `platform` (which started at simulated time `t0`).
void ReadCounters(vgpu::Platform* platform, obs::MetricsRegistry* registry,
                  double t0, Values* layer) {
  obs::SyncFlowMetrics(&platform->network(), platform->topology(),
                       platform->simulator().Now(), registry);
  Values& l = *layer;
  l["gpusort.kernels"] = FamilySum(*registry, obs::kKernelInvocations);
  l["gpusort.kernel_busy_sim_s"] = FamilySum(*registry, obs::kKernelBusySeconds);
  l["cpusort.bytes"] = FamilySum(*registry, obs::kCpuBytes);
  l["vgpu.copy_ops"] = FamilySum(*registry, obs::kCopyOps);
  l["vgpu.copy_bytes"] = FamilySum(*registry, obs::kCopyBytes);
  l["vgpu.copy_errors"] = FamilySum(*registry, obs::kCopyErrors);
  l["sim.flow.link_bytes"] = FamilySum(*registry, obs::kLinkBytes);
  l["sim.flow.link_busy_sim_s"] = FamilySum(*registry, obs::kLinkBusySeconds);
  l["sim.flow.link_saturated_sim_s"] =
      FamilySum(*registry, obs::kLinkSaturatedSeconds);
  l["exec.nodes"] = FamilySum(*registry, exec::kExecNodesTotal);
  l["exec.ready_wait_sim_s"] = FamilySum(*registry, exec::kExecWaitSeconds);
  // Busiest interconnect link: weighted bytes / (capacity x elapsed).
  const auto& net = platform->network();
  const double elapsed = platform->simulator().Now() - t0;
  double busiest = 0;
  for (const auto& link : platform->topology().LinkResources()) {
    const double cap = net.capacity(link.resource);
    if (cap > 0 && elapsed > 0) {
      busiest = std::max(busiest,
                         net.ResourceTraffic(link.resource) / (cap * elapsed));
    }
  }
  l["sim.flow.busiest_link_util"] = busiest;
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the next unit's platforms and inputs from the seed. Every unit
  /// consumes its set-up: a platform's clock keeps running across calls,
  /// and a server runs once. Host seconds of the public set-up calls go to
  /// `layer` under their metric names.
  virtual Status SetUp(SpanLog* log, Values* layer) = 0;
  /// Runs one unit. With a span log it fills the per-layer host times;
  /// with a registry attached, the per-layer counts.
  virtual UnitResult RunUnit(SpanLog* log,
                             obs::MetricsRegistry* registry, Tally* tally,
                             RepeatCheck* repeats) = 0;
  /// Replays the kernel entry points on the workload's shapes (traced run).
  virtual void Replay(SpanLog* log, Values* layer) = 0;
};

/// A scratch platform for kernel replays: scale 1, so buffers of any
/// functional size fit, and nothing else runs on it.
std::unique_ptr<vgpu::Platform> ScratchPlatform() {
  return CheckOk(vgpu::Platform::Create(topo::MakeDgxA100()));
}

/// Replays SortAsync on GPU 0 once per (offset, count) slice of `keys`, on
/// the slice's unsorted keys, and returns the host seconds of the platform
/// runs. `one_run` enqueues every slice before a single run, for many tiny
/// kernels over disjoint slices; otherwise each slice is restored and runs
/// alone.
double ReplaySorts(const std::vector<std::int32_t>& keys,
                   const std::vector<std::pair<std::int64_t, std::int64_t>>&
                       slices,
                   bool one_run, SpanLog* log) {
  auto platform = ScratchPlatform();
  vgpu::Device& dev = platform->device(0);
  std::int64_t max_count = 1;
  for (const auto& s : slices) max_count = std::max(max_count, s.second);
  auto data = CheckOk(dev.Allocate<std::int32_t>(
      static_cast<std::int64_t>(keys.size())));
  auto aux = CheckOk(dev.Allocate<std::int32_t>(max_count));
  std::copy(keys.begin(), keys.end(), data.data());
  vgpu::Stream& stream = dev.stream(0);
  double seconds = 0;
  if (one_run) {
    // Many tiny kernels: enqueue all, drive them in one platform run.
    Scope scope(log, "gpusort.SortAsync");
    for (const auto& [off, count] : slices) {
      gpusort::SortAsync(stream, data, off, count, aux);
    }
    CheckOk(platform->Run(stream.Synchronize()).status());
    seconds = scope.Stop();
  } else {
    for (const auto& [off, count] : slices) {
      std::copy(keys.begin() + off, keys.begin() + off + count,
                data.data() + off);
      Scope scope(log, "gpusort.SortAsync");
      gpusort::SortAsync(stream, data, off, count, aux);
      CheckOk(platform->Run(stream.Synchronize()).status());
      seconds += scope.Stop();
    }
  }
  return seconds;
}

// --- paper_sort -------------------------------------------------------------

/// The paper's two headline DGX A100 configurations, alternated by one
/// closed-loop client over the same functional keys.
struct PaperConfig {
  const char* name;
  bool het;
  std::int64_t logical_keys;
  double gpu_memory_budget;  // per GPU, HET only (0 = all)
  double paper_seconds;      // the figure's reading
};
constexpr PaperConfig kPaperConfigs[] = {
    {"p2p", false, 2'000'000'000, 0, 0.24},     // Fig. 14, 8 GPUs
    {"het", true, 60'000'000'000, 33e9, 10.0},  // Fig. 15, 2n, 8 GPUs
};
constexpr std::int64_t kPaperFunctionalKeys = std::int64_t{1} << 24;
constexpr int kPaperGpus = 8;

class PaperSort final : public Workload {
 public:
  PaperSort(std::uint64_t seed, ThreadPool* pool) : seed_(seed), pool_(pool) {}

  Status SetUp(SpanLog* log, Values* layer) override {
    for (int c = 0; c < 2; ++c) {
      const PaperConfig& cfg = kPaperConfigs[c];
      Scope scope(log, "vgpu.Platform::Create");
      vgpu::PlatformOptions popts;
      popts.scale = static_cast<double>(cfg.logical_keys) /
                    static_cast<double>(kPaperFunctionalKeys);
      MGS_ASSIGN_OR_RETURN(platform_[c], vgpu::Platform::Create(
                                             topo::MakeDgxA100(), popts));
      MGS_ASSIGN_OR_RETURN(
          gpu_set_[c], core::ChooseGpuSet(platform_[c]->topology(), kPaperGpus,
                                          /*for_p2p_merge=*/!cfg.het));
      (*layer)["vgpu.platform_create_s"] += scope.Stop();
    }
    Scope gen(log, "util.GenerateKeys");
    DataGenOptions options;
    options.seed = seed_;
    GenerateKeys<std::int32_t>(kPaperFunctionalKeys, options, &pristine_);
    (*layer)["util.datagen_s"] += gen.Stop();
    fingerprint_ = Fingerprint(pristine_.data(), pristine_.size());
    return Status::OK();
  }

  UnitResult RunUnit(SpanLog* log,
                     obs::MetricsRegistry* registry, Tally* tally,
                     RepeatCheck* repeats) override {
    UnitResult r;
    r.ok = true;
    Values& l = r.layer;
    double events = 0;
    for (int c = 0; c < 2; ++c) {
      const PaperConfig& cfg = kPaperConfigs[c];
      const std::unique_ptr<vgpu::Platform> platform = std::move(platform_[c]);
      data_.vector() = pristine_;  // restore outside the timed region
      platform->SetMetrics(registry);
      const double t0 = platform->simulator().Now();
      const std::uint64_t ev0 = platform->simulator().events_processed();
      ++tally->attempted;
      Scope scope(log, cfg.het ? "core.HetSort" : "core.P2pSort");
      Result<core::SortStats> stats = Status::Internal("not run");
      if (cfg.het) {
        core::HetOptions options;
        options.gpu_set = gpu_set_[c];
        options.host_pool = pool_;
        options.scheme = core::BufferScheme::k2n;
        options.gpu_memory_budget = cfg.gpu_memory_budget;
        stats = core::HetSort(platform.get(), &data_, options);
      } else {
        core::SortOptions options;
        options.gpu_set = gpu_set_[c];
        options.host_pool = pool_;
        stats = core::P2pSort(platform.get(), &data_, options);
      }
      const double wall = scope.Stop();
      platform->SetMetrics(nullptr);
      const double ev =
          static_cast<double>(platform->simulator().events_processed() - ev0);
      events += ev;

      Scope verify(log, "bench.verify");
      const bool passed =
          PassesGate(stats.status(), data_.vector(), fingerprint_,
                     std::string(cfg.name) + " sort", tally);
      l["bench.verify_s"] += verify.Stop();
      if (!passed) {
        r.ok = false;
        continue;
      }
      const core::SortStats& s = *stats;
      r.wall += wall;
      r.completed += 1;
      r.sorted += 1;
      r.report[std::string(cfg.name) + "_wall_p50_s"] = wall;
      r.report[std::string(cfg.name) + "_sim_s"] = s.total_seconds;
      repeats->Check(cfg.name,
                     {s.total_seconds, s.phases.htod, s.phases.sort,
                      s.phases.merge, s.phases.dtoh, s.p2p_bytes,
                      s.pivot_seconds, static_cast<double>(s.merge_stages),
                      static_cast<double>(s.chunk_groups),
                      static_cast<double>(s.final_merge_sublists), ev});
      const std::string pre = "core." + std::string(cfg.name);
      l[pre + "_sort_s"] = wall;
      if (registry != nullptr) {
        // Kernel launches by kind: the shapes the replays repeat.
        const double sorts = FamilySum(*registry, obs::kKernelInvocations,
                                       "kernel", "sort:");
        if (cfg.het) {
          shape_.het_sorts = static_cast<int>(sorts);
          shape_.het_sublists = s.final_merge_sublists;
          l["core.chunk_groups"] = s.chunk_groups;
        } else {
          shape_.p2p_sorts = static_cast<int>(sorts);
          shape_.p2p_merges = static_cast<int>(FamilySum(
              *registry, obs::kKernelInvocations, "kernel", "merge-local"));
          l["core.p2p_bytes"] = s.p2p_bytes;
          l["core.merge_stages"] = s.merge_stages;
          l["core.pivot_sim_s"] = s.pivot_seconds;
        }
        l["core.phase_htod_sim_s"] += s.phases.htod;
        l["core.phase_sort_sim_s"] += s.phases.sort;
        l["core.phase_merge_sim_s"] += s.phases.merge;
        l["core.phase_dtoh_sim_s"] += s.phases.dtoh;
        l[pre + "_sim_s"] = s.total_seconds;
        Values flow;
        ReadCounters(platform.get(), registry, t0, &flow);
        for (const auto& [k, v] : flow) {
          // Link utilization is a ratio: keep the busier sort's.
          l[k] = k == "sim.flow.busiest_link_util" ? std::max(l[k], v)
                                                   : l[k] + v;
        }
        registry->Clear();
      }
    }
    if (r.ok) {
      const double p2p = r.report["p2p_sim_s"];
      const double het = r.report["het_sim_s"];
      r.report["paper_err"] =
          std::max(std::abs(p2p / kPaperConfigs[0].paper_seconds - 1),
                   std::abs(het / kPaperConfigs[1].paper_seconds - 1));
      l["core.paper_err"] = r.report["paper_err"];
    }
    l["sim.events"] = events;
    l["sim.events_per_job"] = events / 2;
    l["sim.host_us_per_event"] = events > 0 ? r.wall / events * 1e6 : 0;
    return r;
  }

  void Replay(SpanLog* log, Values* layer) override {
    Values& l = *layer;
    // Device chunk sorts, as many as the traced unit launched: P2P's of
    // n/g keys per GPU, HET's of n/chunks keys.
    const std::int64_t n = kPaperFunctionalKeys;
    const std::int64_t m = n / kPaperGpus;
    std::vector<std::pair<std::int64_t, std::int64_t>> slices;
    for (int i = 0; i < shape_.p2p_sorts; ++i) {
      slices.push_back({(i % kPaperGpus) * m, m});
    }
    const std::int64_t chunk = n / std::max(1, shape_.het_sorts);
    for (int i = 0; i < shape_.het_sorts; ++i) slices.push_back({i * chunk, chunk});
    l["gpusort.sort_replay_s"] =
        ReplaySorts(pristine_, slices, /*one_run=*/false, log);

    // P2P's device-local two-way merges, each of two sorted halves of a
    // chunk.
    {
      auto platform = ScratchPlatform();
      vgpu::Device& dev = platform->device(0);
      auto src = CheckOk(dev.Allocate<std::int32_t>(m));
      auto dst = CheckOk(dev.Allocate<std::int32_t>(m));
      std::copy(pristine_.begin(), pristine_.begin() + m, src.data());
      std::sort(src.data(), src.data() + m / 2);
      std::sort(src.data() + m / 2, src.data() + m);
      double seconds = 0;
      for (int i = 0; i < shape_.p2p_merges; ++i) {
        Scope scope(log, "gpusort.MergeLocalAsync");
        gpusort::MergeLocalAsync(dev.stream(0), dst, 0, src, 0, m / 2, m / 2,
                                 m - m / 2);
        CheckOk(platform->Run(dev.stream(0).Synchronize()).status());
        seconds += scope.Stop();
      }
      l["gpusort.merge_replay_s"] = seconds;
    }

    // HET's final CPU multiway merge of k sorted sublists.
    const int k = std::max(1, shape_.het_sublists);
    const std::int64_t sub = (n + k - 1) / k;
    std::vector<std::int32_t> runs = pristine_;
    std::vector<cpusort::MergeInput<std::int32_t>> inputs;
    for (std::int64_t off = 0; off < n; off += sub) {
      const std::int64_t end = std::min(n, off + sub);
      std::sort(runs.begin() + off, runs.begin() + end);
      inputs.push_back({runs.data() + off, runs.data() + end});
    }
    std::vector<std::int32_t> out(static_cast<std::size_t>(n));
    Scope scope(log, "cpusort.MultiwayMerge");
    cpusort::MultiwayMerge(inputs, out.data(), pool_);
    l["cpusort.multiway_merge_replay_s"] = scope.Stop();
  }

 private:
  std::uint64_t seed_;
  ThreadPool* pool_;
  std::unique_ptr<vgpu::Platform> platform_[2];
  std::vector<int> gpu_set_[2];
  std::vector<std::int32_t> pristine_;
  std::uint64_t fingerprint_ = 0;
  vgpu::HostBuffer<std::int32_t> data_;
  struct {
    int p2p_sorts = 0;
    int p2p_merges = 0;
    int het_sorts = 0;
    int het_sublists = 0;
  } shape_;  // kernel launches of the traced unit
};

// --- trace_distinct / trace_cached -------------------------------------------

// 5e7-2e8 logical keys ride on 25-100 functional keys at this scale: tiny
// single-GPU jobs whose cost is the service's per-job bookkeeping.
constexpr double kTraceScale = 2e6;
constexpr double kTraceRateHz = 100;

class Trace final : public Workload {
 public:
  Trace(std::uint64_t seed, int jobs, int distinct_datasets)
      : seed_(seed), jobs_(jobs), distinct_datasets_(distinct_datasets) {}

  Status SetUp(SpanLog* log, Values* layer) override {
    server_.reset();
    Scope create(log, "vgpu.Platform::Create");
    MGS_ASSIGN_OR_RETURN(platform_,
                         vgpu::Platform::Create(topo::MakeDgxA100(),
                                                vgpu::PlatformOptions{kTraceScale}));
    (*layer)["vgpu.platform_create_s"] += create.Stop();

    sched::JobMix mix;
    mix.min_keys = 5e7;
    mix.max_keys = 2e8;
    mix.gpu_choices = {1};
    mix.tenants = 8;
    mix.distinct_datasets = distinct_datasets_;
    Scope gen(log, "sched.MakePoissonWorkload");
    workload_ = sched::MakePoissonWorkload(mix, kTraceRateHz, jobs_, seed_);
    (*layer)["sched.workload_gen_s"] += gen.Stop();

    sched::ServerOptions options;
    options.policy = sched::QueuePolicy::kSjfBytes;
    options.admission.max_queue_depth = 0;  // open loop: never shed load
    options.coalesce.enabled = true;
    options.dedupe.enabled = true;
    options.verify_sorted = true;
    options.report_jobs = false;
    Scope submit(log, "sched.SortServer::Submit");
    server_ = std::make_unique<sched::SortServer>(platform_.get(), options);
    server_->Submit(workload_);
    (*layer)["sched.submit_s"] += submit.Stop();
    return Status::OK();
  }

  UnitResult RunUnit(SpanLog* log,
                     obs::MetricsRegistry* registry, Tally* tally,
                     RepeatCheck* repeats) override {
    UnitResult r;
    tally->attempted += jobs_;
    platform_->SetMetrics(registry);
    Scope scope(log, "sched.SortServer::Run");
    Result<sched::ServiceReport> run = server_->Run();
    const double wall = scope.Stop();
    platform_->SetMetrics(nullptr);
    server_.reset();  // a server runs once

    Scope verify(log, "bench.verify");
    std::string error;
    if (!run.ok()) {
      error = run.status().ToString();
    } else if (run->completed + run->failed + run->rejected != jobs_) {
      error = "completed + failed + rejected != submitted";
    }
    r.layer["bench.verify_s"] = verify.Stop();
    if (!error.empty()) {
      tally->Fail("trace: " + error, jobs_);
      return r;
    }
    const sched::ServiceReport& rep = *run;
    // Failed and rejected jobs count against the unit; with
    // verify_sorted on, an unsorted output is a failed job.
    const int bad = rep.failed + rep.rejected;
    if (bad > 0) {
      tally->Fail("trace: " + std::to_string(rep.failed) + " failed, " +
                      std::to_string(rep.rejected) + " rejected",
                  bad);
      return r;
    }
    const double events =
        static_cast<double>(platform_->simulator().events_processed());
    r.ok = true;
    r.wall = wall;
    r.completed = rep.completed;
    r.sorted = static_cast<double>(rep.completed - rep.dedup_hits);
    r.report["sim_latency_p50_s"] = rep.latency.p50;
    r.report["sim_latency_p99_s"] = rep.latency.p99;
    repeats->Check("trace",
                   {static_cast<double>(rep.completed),
                    static_cast<double>(rep.dedup_hits),
                    static_cast<double>(rep.coalesced_jobs),
                    static_cast<double>(rep.coalesced_batches), rep.makespan,
                    rep.latency.p50, rep.latency.p99, rep.queue_delay.p50,
                    rep.queue_delay.p99, rep.service_time.p50,
                    rep.service_time.p99, events});
    Values& l = r.layer;
    if (registry != nullptr) ReadCounters(platform_.get(), registry, 0, &l);
    const double completed = rep.completed;
    l["sched.run_s"] = wall;
    l["sched.host_us_per_job"] = wall / jobs_ * 1e6;
    l["sim.events"] = events;
    l["sim.events_per_job"] = events / jobs_;
    l["sim.host_us_per_event"] = events > 0 ? wall / events * 1e6 : 0;
    l["sched.dedup_hits"] = static_cast<double>(rep.dedup_hits);
    l["sched.dedup_hit_ratio"] =
        completed > 0 ? rep.dedup_hits / completed : 0;
    l["sched.coalesced_jobs"] = static_cast<double>(rep.coalesced_jobs);
    l["sched.coalesced_batches"] = static_cast<double>(rep.coalesced_batches);
    l["sched.jobs_per_batch"] =
        rep.coalesced_batches > 0
            ? static_cast<double>(rep.coalesced_jobs) / rep.coalesced_batches
            : 0;
    l["sched.queue_delay_p50_sim_s"] = rep.queue_delay.p50;
    l["sched.queue_delay_p99_sim_s"] = rep.queue_delay.p99;
    l["sched.service_time_p50_sim_s"] = rep.service_time.p50;
    l["sched.service_time_p99_sim_s"] = rep.service_time.p99;
    l["sched.sim_latency_p50_s"] = rep.latency.p50;
    l["sched.sim_latency_p99_s"] = rep.latency.p99;
    l["sched.failed"] = rep.failed;
    l["sched.rejected"] = rep.rejected;
    l["sched.retries"] = static_cast<double>(rep.total_retries);
    return r;
  }

  void Replay(SpanLog* log, Values* layer) override {
    // One device sort per distinct dataset at its functional size (the
    // sorter's padding and coalesced batches aside).
    std::set<std::pair<std::uint64_t, double>> seen;
    std::vector<std::pair<std::int64_t, std::int64_t>> slices;
    std::int64_t total = 0;
    for (const sched::JobSpec& spec : workload_) {
      if (!seen.insert({spec.seed, spec.logical_keys}).second) continue;
      const auto count = static_cast<std::int64_t>(
          std::ceil(spec.logical_keys / kTraceScale));
      slices.push_back({total, count});
      total += count;
    }
    Scope gen(log, "util.GenerateKeys");
    DataGenOptions options;
    options.seed = seed_;
    std::vector<std::int32_t> keys;
    GenerateKeys<std::int32_t>(total, options, &keys);
    (*layer)["util.datagen_s"] += gen.Stop();
    (*layer)["gpusort.sort_replay_s"] =
        ReplaySorts(keys, slices, /*one_run=*/true, log);
    (*layer)["gpusort.merge_replay_s"] = 0;  // single-GPU jobs never merge
    (*layer)["cpusort.multiway_merge_replay_s"] = 0;  // no HET jobs
  }

 private:
  std::uint64_t seed_;
  int jobs_;
  int distinct_datasets_;
  std::unique_ptr<vgpu::Platform> platform_;
  std::vector<sched::JobSpec> workload_;
  std::unique_ptr<sched::SortServer> server_;
};

// ---------------------------------------------------------------------------
// Yardstick: fixed reference work that calls no library code. A sort of
// fixed keys streams memory like the kernels; an ordered-map churn
// allocates and chases pointers like the event engine and the scheduler.
// On a shared machine, speed drifts in phases of minutes while single
// readings jitter within a second; the median of the run's readings tracks
// the phase. It lets the bounded throughput and set-up metrics be
// expressed in reference seconds: host seconds scaled to the machine the
// constant was taken on.

// Median yardstick seconds on the reference machine at its usual speed: a
// 4-vCPU Intel Xeon VM, g++ 12.2, Release.
constexpr double kYardstickRefSeconds = 0.048;

std::atomic<std::uint64_t> g_yardstick_sink{0};

double Yardstick() {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {  // xorshift64*
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dULL;
  };
  std::vector<std::uint32_t> keys(std::size_t{1} << 19);
  for (auto& k : keys) k = static_cast<std::uint32_t>(next() >> 32);
  const auto start = Clock::now();
  std::sort(keys.begin(), keys.end());
  std::map<std::uint64_t, std::uint64_t> live;
  std::uint64_t sum = keys[keys.size() / 2];
  for (std::uint64_t i = 0; i < 200'000; ++i) {
    live.emplace(next(), i);
    if (live.size() > 4096) {
      sum += live.begin()->second;
      live.erase(live.begin());
    }
  }
  g_yardstick_sink.fetch_add(sum, std::memory_order_relaxed);
  return SecondsSince(start);
}

// ---------------------------------------------------------------------------
// Self-check: an injected swapped pair and an injected wrong key must be
// reported as failures, never as times.

bool SelfCheck() {
  std::vector<std::int32_t> keys(4096);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<std::int32_t>(i * 7 - 9000);
  }
  const std::uint64_t fp = Fingerprint(keys.data(), keys.size());
  std::vector<std::int32_t> swapped = keys;
  std::swap(swapped[100], swapped[101]);
  std::vector<std::int32_t> replaced = keys;
  replaced[100] = replaced[99];
  Tally tally;
  return PassesGate(Status::OK(), keys, fp, "clean", &tally) &&
         !PassesGate(Status::OK(), swapped, fp, "swapped pair", &tally) &&
         !PassesGate(Status::OK(), replaced, fp, "wrong key", &tally) &&
         tally.failed == 2;
}

// ---------------------------------------------------------------------------
// Output.

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

struct Metric {
  const char* name;
  const char* unit;
};

// Contract metrics, in BENCHMARK.json order.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"jobs_per_ref_s", "1/s"},
    {"sorted_jobs_per_ref_s", "1/s"},
};

// The report line adds raw host-wall readings and the metrics that apply
// to one workload only; absent ones are left out.
constexpr Metric kReportOnly[] = {
    {"setup_wall_s", "s"},
    {"jobs_per_wall_s", "1/s"},
    {"sorted_jobs_per_wall_s", "1/s"},
    {"yardstick_s", "s"},
    {"p2p_wall_p50_s", "s"},
    {"het_wall_p50_s", "s"},
    {"p2p_sim_s", "sim_s"},
    {"het_sim_s", "sim_s"},
    {"paper_err", "ratio"},
    {"sim_latency_p50_s", "sim_s"},
    {"sim_latency_p99_s", "sim_s"},
    {"failed_frac", "ratio"},
    {"units", "count"},
    {"measured_s", "s"},
};

constexpr Metric kPerLayer[] = {
    {"vgpu.platform_create_s", "s"},
    {"util.datagen_s", "s"},
    {"sched.workload_gen_s", "s"},
    {"sched.submit_s", "s"},
    {"core.p2p_sort_s", "s"},
    {"core.het_sort_s", "s"},
    {"gpusort.sort_replay_s", "s"},
    {"gpusort.merge_replay_s", "s"},
    {"cpusort.multiway_merge_replay_s", "s"},
    {"gpusort.kernels", "count"},
    {"gpusort.kernel_busy_sim_s", "sim_s"},
    {"cpusort.bytes", "B"},
    {"core.p2p_sim_s", "sim_s"},
    {"core.het_sim_s", "sim_s"},
    {"core.paper_err", "ratio"},
    {"core.p2p_bytes", "B"},
    {"core.merge_stages", "count"},
    {"core.pivot_sim_s", "sim_s"},
    {"core.chunk_groups", "count"},
    {"core.phase_htod_sim_s", "sim_s"},
    {"core.phase_sort_sim_s", "sim_s"},
    {"core.phase_merge_sim_s", "sim_s"},
    {"core.phase_dtoh_sim_s", "sim_s"},
    {"vgpu.copy_ops", "count"},
    {"vgpu.copy_bytes", "B"},
    {"vgpu.copy_errors", "count"},
    {"sim.events", "count"},
    {"sim.events_per_job", "count"},
    {"sim.host_us_per_event", "us"},
    {"sim.flow.link_bytes", "B"},
    {"sim.flow.link_busy_sim_s", "sim_s"},
    {"sim.flow.link_saturated_sim_s", "sim_s"},
    {"sim.flow.busiest_link_util", "ratio"},
    {"exec.nodes", "count"},
    {"exec.ready_wait_sim_s", "sim_s"},
    {"sched.run_s", "s"},
    {"sched.host_us_per_job", "us"},
    {"sched.dedup_hits", "count"},
    {"sched.dedup_hit_ratio", "ratio"},
    {"sched.coalesced_jobs", "count"},
    {"sched.coalesced_batches", "count"},
    {"sched.jobs_per_batch", "count"},
    {"sched.queue_delay_p50_sim_s", "sim_s"},
    {"sched.queue_delay_p99_sim_s", "sim_s"},
    {"sched.service_time_p50_sim_s", "sim_s"},
    {"sched.service_time_p99_sim_s", "sim_s"},
    {"sched.sim_latency_p50_s", "sim_s"},
    {"sched.sim_latency_p99_s", "sim_s"},
    {"sched.failed", "count"},
    {"sched.rejected", "count"},
    {"sched.retries", "count"},
    {"bench.verify_s", "s"},
    {"bench.trace_overhead", "ratio"},
};

bool IsHostTime(const Metric& m) {
  return std::strcmp(m.unit, "s") == 0 || std::strcmp(m.unit, "us") == 0;
}

/// `{"name": {"value": v, "unit": u}, ...}` for each metric; a metric
/// missing from `values` reads 0, or is left out with `skip_missing`.
std::string MetricsJson(const std::vector<Metric>& metrics,
                        const Values& values, bool skip_missing = false) {
  std::string out;
  for (const Metric& m : metrics) {
    auto it = values.find(m.name);
    if (it == values.end() && skip_missing) continue;
    out += (out.empty() ? "{\"" : ", \"") + std::string(m.name) +
           "\": {\"value\": " + Num(it == values.end() ? 0 : it->second) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out.empty() ? "{}" : out + "}";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mgs_perfbench --workload paper_sort|trace_distinct|"
                 "trace_cached --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  if (!SelfCheck()) {
    std::fprintf(stderr, "perfbench: self-check failed: the correctness gate "
                         "did not catch an injected error\n");
    return 3;
  }

  // HET's host pool: at most 4 threads, fewer on a smaller machine.
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  ThreadPool pool(threads);
  std::unique_ptr<Workload> workload;
  if (args.workload == "paper_sort") {
    workload = std::make_unique<PaperSort>(args.seed, &pool);
  } else if (args.workload == "trace_distinct") {
    workload = std::make_unique<Trace>(args.seed, 100'000, 0);
  } else if (args.workload == "trace_cached") {
    workload = std::make_unique<Trace>(args.seed, 200'000, 1024);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Tally tally;
  RepeatCheck repeats;
  std::vector<UnitResult> units;
  std::vector<double> setups;
  Values setup_layer;  // per-layer set-up seconds of the last round
  auto set_up = [&](SpanLog* log) {
    setup_layer.clear();
    Scope scope(log, "bench.set_up", static_cast<std::int64_t>(units.size()));
    const Status st = workload->SetUp(log, &setup_layer);
    setups.push_back(scope.Stop());
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   st.ToString().c_str());
      std::exit(4);
    }
  };

  Values end_to_end;
  Values report;
  Values layer;
  // Peak resident memory through the first unit. Later units reuse the
  // allocator's free lists unevenly, so a later reading would depend on
  // how many units fit in the run.
  double peak_rss_mb = 0;
  std::vector<double> yardsticks;
  Yardstick();  // warm-up: first-touch page faults, cold caches
  constexpr int kYardsticksFirst = 5;
  for (int i = 0; i < kYardsticksFirst; ++i) yardsticks.push_back(Yardstick());
  const auto start = Clock::now();
  if (!args.trace) {
    // Closed loop over units until the next one would overrun the budget.
    std::vector<double> unit_seconds;
    auto last_yardstick = Clock::now();
    for (std::int64_t u = 0;; ++u) {
      set_up(nullptr);
      const auto t = Clock::now();
      units.push_back(workload->RunUnit(nullptr, nullptr, &tally, &repeats));
      unit_seconds.push_back(SecondsSince(t));
      if (u == 0) peak_rss_mb = PeakRssMb();
      // Sample the machine's speed between units, twice a second at most.
      if (SecondsSince(last_yardstick) >= 0.5) {
        yardsticks.push_back(Yardstick());
        last_yardstick = Clock::now();
      }
      if (SecondsSince(start) + Median(unit_seconds) > args.seconds) break;
    }
  } else {
    // Two units with spans: the first without a registry gives the
    // per-layer host times, the second with the registry attached gives
    // the counts. Their wall ratio is the tracing overhead.
    SpanLog log;
    obs::MetricsRegistry registry;
    auto traced_unit = [&](obs::MetricsRegistry* metrics) {
      set_up(&log);
      Scope scope(&log, "bench.unit", static_cast<std::int64_t>(units.size()));
      units.push_back(workload->RunUnit(&log, metrics, &tally, &repeats));
      scope.Stop();
    };
    traced_unit(nullptr);
    peak_rss_mb = PeakRssMb();
    Values host_times = setup_layer;
    for (const auto& [k, v] : units[0].layer) host_times[k] += v;
    traced_unit(&registry);
    layer = units[1].layer;
    for (const Metric& m : kPerLayer) {
      if (IsHostTime(m)) layer[m.name] = host_times[m.name];
    }
    if (units[0].ok && units[1].ok && units[0].wall > 0) {
      layer["bench.trace_overhead"] = units[1].wall / units[0].wall;
    }
    Scope replay(&log, "bench.replay", static_cast<std::int64_t>(units.size()));
    workload->Replay(&log, &layer);
    replay.Stop();
    if (!args.trace_out.empty() && !log.Write(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }

  // Set-up is sampled at least seven times; the median is reported.
  constexpr int kMinSetUps = 7;
  while (!args.trace && setups.size() < kMinSetUps) set_up(nullptr);

  std::vector<double> rates, sorted_rates;
  std::map<std::string, std::vector<double>> per_unit;
  for (const UnitResult& u : units) {
    if (!u.ok || u.wall <= 0) continue;
    rates.push_back(u.completed / u.wall);
    sorted_rates.push_back(u.sorted / u.wall);
    for (const auto& [k, v] : u.report) per_unit[k].push_back(v);
  }
  // Host seconds per reference second: above 1, this machine ran slower
  // than the reference one during the run.
  const double yardstick = Median(yardsticks);
  const double slowdown = yardstick / kYardstickRefSeconds;
  end_to_end["setup_s"] = Median(setups) / slowdown;
  end_to_end["peak_rss_mb"] = peak_rss_mb;
  end_to_end["jobs_per_ref_s"] = Median(rates) * slowdown;
  end_to_end["sorted_jobs_per_ref_s"] = Median(sorted_rates) * slowdown;

  // The report line: every named metric of the workload, with the seed.
  report = end_to_end;
  report["setup_wall_s"] = Median(setups);
  report["jobs_per_wall_s"] = Median(rates);
  report["sorted_jobs_per_wall_s"] = Median(sorted_rates);
  report["yardstick_s"] = yardstick;
  for (const auto& [k, v] : per_unit) report[k] = Median(v);
  report["failed_frac"] =
      tally.attempted > 0
          ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted)
          : 1;
  report["units"] = static_cast<double>(units.size());
  report["measured_s"] = SecondsSince(start);

  std::vector<Metric> report_metrics(std::begin(kEndToEnd), std::end(kEndToEnd));
  report_metrics.insert(report_metrics.end(), std::begin(kReportOnly),
                        std::end(kReportOnly));
  const bool correct = tally.failed == 0 && repeats.ok() && !rates.empty();
  std::string errors;
  for (const std::string& e : tally.errors) {
    errors += (errors.empty() ? "\"" : ", \"") + Escape(e) + "\"";
  }
  if (!repeats.ok()) {
    errors += (errors.empty() ? "\"" : ", \"") +
              std::string("deterministic outputs differ between repeats: ") +
              repeats.mismatch() + "\"";
  }
  std::printf(
      "{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"trace\": %d, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"host_pool_threads\": %d, \"errors\": [%s], \"metrics\": %s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, Escape(__VERSION__).c_str(), MGS_PERFBENCH_BUILD_TYPE,
      threads, errors.c_str(), MetricsJson(report_metrics, report, true).c_str());
  const std::string metrics =
      args.trace ? MetricsJson({std::begin(kPerLayer), std::end(kPerLayer)}, layer)
                 : MetricsJson({std::begin(kEndToEnd), std::end(kEndToEnd)},
                               end_to_end);
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(tally.attempted),
      static_cast<long long>(tally.failed), metrics.c_str());
  return correct ? 0 : 1;
}
