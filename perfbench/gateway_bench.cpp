// Gateway benchmark: one workload of the MooD gateway per process,
// driven through the public API of simulation, core, stream, decision and
// attacks by a load generator this file owns.
//
//   gateway_bench --workload=dense|crowd|dense-paced --seed=N --seconds=S
//                 --trace=0|1 [--smoke] [--work-dir=DIR] [--source=ID]
//
// One iteration is what `mood replay` does once: generate the dataset,
// build the ExperimentHarness (split + attack training), flatten the test
// halves into the event stream, construct a 2-shard loop engine, replay
// (unpaced, or open loop at a fixed rate), quiesce, finish(), then verify
// every final verdict against evaluate_gateway() on the linear-scan
// oracle. The run repeats iterations until --seconds is spent, cycling
// over a few datasets derived from --seed (so one run averages over
// several populations) and replaying at least one of them twice, which is
// the determinism gate: its work counters must repeat exactly.
//
// --trace=0 measures the end-to-end metrics on the undecorated engine.
// --trace=1 alternates untraced and traced iterations on the same data:
// the traced one wraps the LPPM singles and the utility metric in timing
// decorators, times every call into the stream layer and records spans
// (name, start, end, parent, user id) in memory; the pair gives the
// tracing overhead. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; details go to stderr and
// to a result document under --work-dir. Exit status: 0 ok, 1 a gate
// failed, 2 usage error, 3 refused (Debug or sanitizer build).
//
// Nothing here changes program code: the timings are taken around public
// calls, and the counters come from stats(), metrics_snapshot() and
// replay_latency_shards().

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "attacks/attack.h"
#include "core/experiment.h"
#include "decision/mood_engine.h"
#include "lppm/composition.h"
#include "lppm/lppm.h"
#include "metrics/distortion.h"
#include "simulation/generator.h"
#include "simulation/presets.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "support/logging.h"
#include "support/thread_pool.h"
#include "telemetry/metrics.h"

namespace {

using namespace mood;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads

/// Fixed shape of one workload. Every field is a constant of the
/// benchmark; only the dataset seed varies between runs.
struct Workload {
  std::string preset;              ///< simulation preset ("small" = smoke)
  double scale = 0.25;             ///< record-volume scale
  std::size_t users = 0;           ///< 0 = the preset's population
  int days = 0;                    ///< 0 = the preset's period
  std::size_t min_records = 0;     ///< 0 = ExperimentConfig default
  double rate = 0.0;               ///< offered events/s; 0 = unpaced
  std::uint64_t checkpoint_every = 0;  ///< events; 0 = no checkpoints
  std::size_t datasets = 1;        ///< distinct datasets cycled per run
};

constexpr std::size_t kShards = 2;
constexpr std::size_t kJobs = 2;
/// Declared tail-latency limit of the paced workload.
constexpr double kLatencyLimitMs = 100.0;
/// Latency windows of paced runs: the run's p50 and p99 are medians, over
/// consecutive windows of kWindowEvents events, of each window's exact
/// percentile; its p99.9 is the same over windows of kWindowEventsP999
/// events. Each window leaves 10 samples beyond its top percentile. In an
/// unpaced run every event is due at once, so its window is the whole
/// replay: the percentiles describe how the backlog drained.
constexpr std::size_t kWindowEvents = 1000;
constexpr std::size_t kWindowEventsP999 = 10000;

std::optional<Workload> find_workload(const std::string& name, bool smoke) {
  Workload w;
  if (smoke) {
    // The `small` population of `mood replay`: PrivaMov-shaped, 20 users,
    // 12 days, 8-record floor. Seconds per run, every code path.
    w.preset = "small";
    w.users = 20;
    w.days = 12;
    w.min_records = 8;
    w.datasets = 2;
    if (name == "dense") {
      w.checkpoint_every = 2000;
    } else if (name == "crowd") {
    } else if (name == "dense-paced") {
      w.checkpoint_every = 2000;
      w.rate = 5000.0;
    } else {
      return std::nullopt;
    }
    return w;
  }
  if (name == "dense" || name == "dense-paced") {
    w.preset = "privamov";
    w.scale = 0.0625;
    w.users = 82;
    w.checkpoint_every = 10000;
    w.datasets = 7;
    if (name == "dense-paced") {
      // A checkpoint every 50 ms of arrivals: each 1,000-event latency
      // window holds one checkpoint stall, and a run holds ~600 of them.
      // At dense's cadence a run holds ~60 stalls of 4-60 ms, too few for
      // a p99 that repeats from run to run.
      w.rate = 20000.0;
      w.checkpoint_every = 1000;
      w.datasets = 8;
    }
    return w;
  }
  if (name == "crowd") {
    w.preset = "city-small";
    w.scale = 0.25;
    w.users = 1500;
    w.datasets = 5;
    return w;
  }
  return std::nullopt;
}

/// Dataset seed of cycle slot `slot` in a run seeded with `seed`
/// (splitmix64 finaliser: nearby run seeds give unrelated datasets).
std::uint64_t dataset_seed(std::uint64_t seed, std::size_t slot) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + slot + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0x7fffffffull;  // the CLI's int seed range
}

mobility::Dataset generate_dataset(const Workload& w, std::uint64_t seed) {
  simulation::GeneratorParams params;
  if (w.preset == "small") {
    params = simulation::preset_params("privamov", w.scale, seed);
    params.dataset_name = "small";
  } else {
    params = simulation::preset_params(w.preset, w.scale, seed);
  }
  if (w.users > 0) params.users = w.users;
  if (w.days > 0) params.days = w.days;
  return simulation::generate(params);
}

// ---------------------------------------------------------------------------
// Spans

/// In-memory span log: name, start, end, parent span and (for per-user
/// spans) the user id. Each thread appends to its own buffer; parents are
/// tracked per thread, so a span's parent is the enclosing span on the
/// same thread (0 = a root). Written out once, when the run ends.
class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t name = 0;
    std::uint32_t user = 0;  ///< interned user id + 1; 0 = none
    std::uint32_t thread = 0;
  };

  /// One thread's spans and its stack of open span ids.
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::uint64_t> stack;
    std::uint32_t thread = 0;
  };

  static SpanLog& instance() {
    static SpanLog log;
    return log;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint32_t name_id(std::string_view name) {
    const std::lock_guard lock(mutex_);
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  std::uint32_t user_id(const std::string& user) {
    const std::lock_guard lock(mutex_);
    const auto [it, inserted] =
        users_.emplace(user, static_cast<std::uint32_t>(user_names_.size() + 1));
    if (inserted) user_names_.push_back(user);
    return it->second;
  }

  /// RAII span; a no-op while the log is disabled.
  class Scope {
   public:
    explicit Scope(std::uint32_t name, std::uint32_t user = 0) {
      SpanLog& log = instance();
      if (!log.enabled()) return;
      buffer_ = &log.local();
      span_.id = log.next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
      span_.parent = buffer_->stack.empty() ? 0 : buffer_->stack.back();
      span_.name = name;
      span_.user = user;
      span_.thread = buffer_->thread;
      buffer_->stack.push_back(span_.id);
      span_.start_ns = log.now_ns();
    }
    ~Scope() {
      if (buffer_ == nullptr) return;
      span_.end_ns = instance().now_ns();
      buffer_->stack.pop_back();
      buffer_->spans.push_back(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Buffer* buffer_ = nullptr;
    Span span_;
  };

  /// Self time per span name: duration minus the time covered by child
  /// spans. Children share their parent's thread and nest inside it, so
  /// their durations do not overlap.
  std::map<std::string, std::pair<double, double>> totals() const {
    std::unordered_map<std::uint64_t, std::int64_t> child_ns;
    for_each_span([&](const Span& s) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    });
    std::map<std::string, std::pair<double, double>> out;  // total, self
    for_each_span([&](const Span& s) {
      const std::int64_t dur = s.end_ns - s.start_ns;
      const auto it = child_ns.find(s.id);
      const std::int64_t self = dur - (it == child_ns.end() ? 0 : it->second);
      auto& slot = out[names_[s.name]];
      slot.first += 1e-9 * static_cast<double>(dur);
      slot.second += 1e-9 * static_cast<double>(self);
    });
    return out;
  }

  std::size_t span_count() const {
    std::size_t n = 0;
    for_each_span([&](const Span&) { ++n; });
    return n;
  }

  /// Chrome trace_event JSON ("X" events; args carry id, parent, user).
  void write_chrome_json(std::ostream& out) const {
    out << "{\"traceEvents\":[\n";
    bool first = true;
    for_each_span([&](const Span& s) {
      out << (first ? "" : ",\n") << "{\"name\":\"" << names_[s.name]
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
          << ",\"ts\":" << s.start_ns / 1000 << '.' << s.start_ns % 1000 / 100
          << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000 << '.'
          << (s.end_ns - s.start_ns) % 1000 / 100 << ",\"args\":{\"id\":"
          << s.id << ",\"parent\":" << s.parent;
      if (s.user != 0) out << ",\"user\":\"" << user_names_[s.user - 1] << '"';
      out << "}}";
      first = false;
    });
    out << "\n]}\n";
  }

 private:
  Buffer& local() {
    thread_local Buffer* buffer = nullptr;
    if (buffer == nullptr) {
      const std::lock_guard lock(mutex_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffer = buffers_.back().get();
      buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    }
    return *buffer;
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  template <typename Fn>
  void for_each_span(Fn&& fn) const {
    const std::lock_guard lock(mutex_);
    for (const auto& buffer : buffers_) {
      for (const Span& span : buffer->spans) fn(span);
    }
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> users_;
  std::vector<std::string> user_names_;
};

/// Call count, input volume and busy time of one decorated layer.
struct Tally {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> points{0};
  std::atomic<std::int64_t> nanos{0};

  void add(std::size_t n, Clock::duration elapsed) {
    calls.fetch_add(1, std::memory_order_relaxed);
    points.fetch_add(n, std::memory_order_relaxed);
    nanos.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count(),
        std::memory_order_relaxed);
  }
  double seconds() const { return 1e-9 * static_cast<double>(nanos.load()); }
};

/// Times an LPPM single. Same name as the wrapped mechanism, so the
/// engine's per-(user, mechanism) noise streams — keyed by name — and
/// therefore every verdict stay exactly those of the undecorated engine.
class TimedLppm final : public lppm::Lppm {
 public:
  TimedLppm(const lppm::Lppm& inner, Tally& all)
      : inner_(inner),
        all_(all),
        span_(SpanLog::instance().name_id("lppm." + inner.name() + ".apply")) {}

  std::string name() const override { return inner_.name(); }

  mobility::Trace apply(const mobility::Trace& trace,
                        support::RngStream rng) const override {
    const SpanLog::Scope span(span_, SpanLog::instance().user_id(trace.user()));
    const auto t0 = Clock::now();
    mobility::Trace out = inner_.apply(trace, std::move(rng));
    const auto elapsed = Clock::now() - t0;
    own_.add(trace.size(), elapsed);
    all_.add(trace.size(), elapsed);
    return out;
  }

  const Tally& tally() const { return own_; }

 private:
  const lppm::Lppm& inner_;
  Tally& all_;
  mutable Tally own_;
  std::uint32_t span_;
};

/// Times the utility metric the engine ranks candidates with.
class TimedMetric final : public metrics::UtilityMetric {
 public:
  TimedMetric() : span_(SpanLog::instance().name_id("metrics.distortion")) {}

  double distortion(const mobility::Trace& original,
                    const mobility::Trace& protected_trace) const override {
    const SpanLog::Scope span(span_,
                              SpanLog::instance().user_id(original.user()));
    const auto t0 = Clock::now();
    const double d = inner_.distortion(original, protected_trace);
    tally_.add(protected_trace.size(), Clock::now() - t0);
    return d;
  }
  std::string name() const override { return inner_.name(); }

  const Tally& tally() const { return tally_; }

 private:
  metrics::SpatialTemporalDistortion inner_;
  mutable Tally tally_;
  std::uint32_t span_;
};

/// The harness's mechanisms behind timing decorators: singles wrapped,
/// compositions rebuilt from the wrapped singles (C \ L, same order as
/// the registry's), same attacks, same seed.
class DecoratedMechanisms {
 public:
  explicit DecoratedMechanisms(const core::ExperimentHarness& harness) {
    for (const lppm::Lppm* single : harness.registry().singles()) {
      singles_.push_back(std::make_unique<TimedLppm>(*single, all_));
      views_.push_back(singles_.back().get());
    }
  }

  decision::MoodEngine make_engine(const core::ExperimentHarness& harness) {
    const decision::MoodEngine reference = harness.make_engine();
    return decision::MoodEngine(
        views_, lppm::enumerate_compositions(views_, 2, views_.size()),
        reference.attacks(), &metric_, reference.config());
  }

  const Tally& lppm_all() const { return all_; }
  const TimedMetric& metric() const { return metric_; }
  const std::vector<std::unique_ptr<TimedLppm>>& singles() const {
    return singles_;
  }

 private:
  Tally all_;
  std::vector<std::unique_ptr<TimedLppm>> singles_;
  std::vector<const lppm::Lppm*> views_;
  TimedMetric metric_;
};

// ---------------------------------------------------------------------------
// Completion observer

/// Learns when each event's decision is complete without touching the
/// engine: every shard ring is FIFO and every processed event adds one
/// sample to its shard's lane of the replay-latency histogram, so the
/// lane counts say how many of that shard's events (in stream order) are
/// done. A thread of its own polls the counts, so completions are seen
/// while the generator is blocked in ingest() or in a checkpoint. Latency
/// runs from the event's due time to the poll that first sees it done;
/// the gap since the previous poll bounds the upward bias.
class CompletionObserver {
 public:
  CompletionObserver(const stream::StreamEngine& engine,
                     const std::vector<stream::StreamEvent>& events,
                     std::vector<double> due, Clock::time_point t0,
                     std::chrono::microseconds pause)
      : engine_(engine),
        pause_(pause),
        t0_(t0),
        fifo_(kShards),
        done_(kShards, 0),
        due_(std::move(due)),
        latency_s_(events.size(), -1.0),
        gap_s_(events.size(), 0.0) {
    for (std::uint32_t i = 0; i < events.size(); ++i) {
      fifo_[engine.shard_of(events[i].user)].push_back(i);
    }
    thread_ = std::thread([this] { run(); });
  }
  ~CompletionObserver() { stop(); }
  CompletionObserver(const CompletionObserver&) = delete;
  CompletionObserver& operator=(const CompletionObserver&) = delete;

  std::size_t observed() const {
    return observed_.load(std::memory_order_acquire);
  }

  /// Joins the polling thread; the sample vectors are final afterwards.
  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  const std::vector<double>& latency_s() const { return latency_s_; }
  const std::vector<double>& gap_s() const { return gap_s_; }

 private:
  void run() {
    const std::size_t n = latency_s_.size();
    while (!stop_.load(std::memory_order_acquire) && observed() < n) {
      poll();
      if (pause_.count() > 0) std::this_thread::sleep_for(pause_);
    }
  }

  void poll() {
    const auto lanes = engine_.replay_latency_shards();
    const double t = seconds_between(t0_, Clock::now());
    const double gap = t - last_poll_;
    std::size_t fresh = 0;
    for (std::size_t s = 0; s < fifo_.size() && s < lanes.size(); ++s) {
      const std::size_t count =
          std::min<std::size_t>(lanes[s].count, fifo_[s].size());
      for (; done_[s] < count; ++done_[s]) {
        const std::uint32_t i = fifo_[s][done_[s]];
        latency_s_[i] = t - due_[i];
        gap_s_[i] = gap;
        ++fresh;
      }
    }
    last_poll_ = t;
    if (fresh > 0) observed_.fetch_add(fresh, std::memory_order_release);
  }

  const stream::StreamEngine& engine_;
  std::chrono::microseconds pause_;
  Clock::time_point t0_;
  std::vector<std::vector<std::uint32_t>> fifo_;
  std::vector<std::size_t> done_;
  std::vector<double> due_;
  std::vector<double> latency_s_;
  std::vector<double> gap_s_;
  double last_poll_ = 0.0;
  std::atomic<std::size_t> observed_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after every member it uses
};

// ---------------------------------------------------------------------------
// One iteration

/// Work counters that must repeat exactly for one dataset.
struct Counts {
  std::uint64_t decisions = 0, searches = 0, rechecks = 0,
                profile_refreshes = 0, stay_rebuilds = 0,
                lppm_applications = 0, attack_invocations = 0,
                finish_searches = 0, exact_evals = 0, index_prunes = 0,
                index_rebuilds = 0, checkpoints = 0;

  bool operator==(const Counts&) const = default;

  std::vector<std::pair<const char*, std::uint64_t>> named() const {
    return {{"decision.decisions", decisions},
            {"decision.searches", searches},
            {"decision.rechecks", rechecks},
            {"decision.profile_refreshes", profile_refreshes},
            {"decision.stay_rebuilds", stay_rebuilds},
            {"decision.lppm_applications", lppm_applications},
            {"decision.attack_invocations", attack_invocations},
            {"decision.finish_searches", finish_searches},
            {"attacks.exact_evals", exact_evals},
            {"attacks.index_prunes", index_prunes},
            {"attacks.index_rebuilds", index_rebuilds},
            {"stream.checkpoints", checkpoints}};
  }
};

struct Iteration {
  std::size_t slot = 0;
  std::uint64_t data_seed = 0;
  bool traced = false;
  std::size_t events = 0;
  std::size_t users = 0;
  std::size_t at_risk = 0;
  std::uint64_t not_admitted = 0;
  std::uint64_t mismatched_users = 0;
  std::uint64_t mismatched_events = 0;
  std::uint64_t unobserved = 0;

  double setup_s = 0, generate_s = 0, harness_s = 0, event_stream_s = 0;
  double ingest_phase_s = 0;  ///< first ingest() -> quiesce() returns
  double publish_s = 0;       ///< first ingest() -> finish() returns
  double verify_s = 0;
  double finish_s = 0;
  double quiesce_s = 0;  ///< tail drain: last ingest() -> quiesce() returns
  double decide_busy_s = 0, decide_p99_s = 0, dequeue_p99_s = 0;
  double shard_skew = 0;
  std::uint64_t checkpoint_bytes = 0;
  Counts counts;

  // Generator-side timings (per-call ones only in traced iterations).
  std::uint64_t ingest_calls = 0;
  double ingest_s = 0, ingest_block_max_s = 0, pump_s = 0;
  // Due-time latency: exact percentiles over each latency window (see
  // kWindowEvents, kWindowEventsP999), and over the whole iteration.
  std::vector<double> window_p50_ms, window_p99_ms, window_p999_ms;
  std::size_t samples = 0;
  double p50_ms = 0, p99_ms = 0, p999_ms = 0, max_ms = 0;
  std::uint64_t beyond_p999 = 0;
  double gap_p50_us = 0, gap_p99_us = 0;  ///< poll gap behind each sample
  double lag_p99_ms = 0, lag_max_ms = 0;  ///< ingest call time - due time
  double backlog_first_half = 0, backlog_second_half = 0;

  // Decorator readings (traced iterations).
  std::uint64_t lppm_calls = 0, lppm_points = 0;
  double lppm_s = 0;
  std::map<std::string, double> lppm_single_s;
  std::uint64_t distortion_calls = 0;
  double distortion_s = 0;
  std::map<std::string, std::vector<double>> attack_query_us;
};

/// Exact nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

struct RunContext {
  Workload workload;
  std::filesystem::path work_dir;
  bool attack_queries_timed = false;  ///< the per-call pass runs once a run
};

double histogram_sum(const telemetry::MetricsSnapshot& snap,
                     std::string_view name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return h.merged.sum;
  }
  return 0.0;
}

double histogram_p99(const telemetry::MetricsSnapshot& snap,
                     std::string_view name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return h.merged.percentile(0.99);
  }
  return 0.0;
}

Iteration run_iteration(RunContext& ctx, std::size_t slot,
                        std::uint64_t data_seed, bool traced) {
  const Workload& w = ctx.workload;
  SpanLog& log = SpanLog::instance();
  log.set_enabled(traced);
  static const std::uint32_t kIterationSpan = log.name_id("iteration");
  static const std::uint32_t kSetupSpan = log.name_id("setup");
  static const std::uint32_t kGenerateSpan = log.name_id("simulation.generate");
  static const std::uint32_t kHarnessSpan = log.name_id("core.harness");
  static const std::uint32_t kEventStreamSpan =
      log.name_id("stream.make_event_stream");
  static const std::uint32_t kEngineSpan = log.name_id("stream.engine");
  static const std::uint32_t kReplaySpan = log.name_id("stream.replay");
  static const std::uint32_t kIngestSpan = log.name_id("stream.ingest");
  static const std::uint32_t kPumpSpan = log.name_id("stream.pump_cadences");
  static const std::uint32_t kQuiesceSpan = log.name_id("stream.quiesce");
  static const std::uint32_t kFinishSpan = log.name_id("stream.finish");
  static const std::uint32_t kVerifySpan = log.name_id("core.evaluate_gateway");

  Iteration it;
  it.slot = slot;
  it.data_seed = data_seed;
  it.traced = traced;
  const SpanLog::Scope iteration_span(kIterationSpan);

  // ---- Set-up: dataset, harness, event stream, engine ----------------
  const auto s0 = Clock::now();
  std::optional<SpanLog::Scope> setup_span(std::in_place, kSetupSpan);
  mobility::Dataset dataset;
  {
    const SpanLog::Scope span(kGenerateSpan);
    dataset = generate_dataset(w, data_seed);
  }
  const auto s1 = Clock::now();
  core::ExperimentConfig config;
  if (w.min_records > 0) config.min_records = w.min_records;
  std::optional<core::ExperimentHarness> harness;
  {
    const SpanLog::Scope span(kHarnessSpan);
    harness.emplace(dataset, config, data_seed);
  }
  const auto s2 = Clock::now();
  std::vector<stream::StreamEvent> events;
  {
    const SpanLog::Scope span(kEventStreamSpan);
    events = stream::make_event_stream(harness->pairs());
  }
  const auto s3 = Clock::now();
  harness->set_attack_query_mode(attacks::QueryMode::kIndex);
  std::optional<DecoratedMechanisms> decorated;
  stream::StreamConfig stream_config;
  stream_config.engine = stream::EngineMode::kLoop;
  stream_config.shards = kShards;
  std::optional<stream::StreamEngine> engine;
  {
    const SpanLog::Scope span(kEngineSpan);
    if (traced) {
      decorated.emplace(*harness);
      engine.emplace(decorated->make_engine(*harness), stream_config);
    } else {
      engine.emplace(harness->make_engine(), stream_config);
    }
  }
  const std::filesystem::path checkpoint_dir =
      ctx.work_dir / ("checkpoints-" + std::to_string(::getpid()));
  if (w.checkpoint_every > 0) {
    std::filesystem::remove_all(checkpoint_dir);
    std::filesystem::create_directories(checkpoint_dir);
    stream::CheckpointPolicy policy;
    policy.dir = checkpoint_dir.string();
    policy.every_events = w.checkpoint_every;
    stream::SnapshotContext context;
    context.seed = data_seed;
    context.dataset = dataset.name();
    context.total_events = events.size();
    context.batch_events = 256;
    engine->configure_checkpoints(policy, context);
  }
  const auto s4 = Clock::now();
  setup_span.reset();
  it.generate_s = seconds_between(s0, s1);
  it.harness_s = seconds_between(s1, s2);
  it.event_stream_s = seconds_between(s2, s3);
  it.setup_s = seconds_between(s0, s4);
  it.events = events.size();
  it.users = harness->pairs().size();

  std::vector<std::uint64_t> per_shard(kShards, 0);
  for (const auto& e : events) ++per_shard[engine->shard_of(e.user)];
  it.shard_skew = static_cast<double>(*std::max_element(per_shard.begin(),
                                                        per_shard.end())) /
                  (static_cast<double>(events.size()) / kShards);

  // ---- Replay: open loop when paced, as fast as possible otherwise ----
  const std::size_t n = events.size();
  std::vector<double> due(n, 0.0);
  if (w.rate > 0.0) {
    for (std::size_t i = 0; i < n; ++i) due[i] = static_cast<double>(i) / w.rate;
  }
  std::vector<double> lag_ms;
  if (traced) lag_ms.reserve(n);
  double backlog_sum[2] = {0.0, 0.0};
  std::optional<SpanLog::Scope> replay_span(std::in_place, kReplaySpan);
  const auto t0 = Clock::now();
  // Paced runs poll back to back for microsecond resolution; unpaced
  // latencies are hundreds of milliseconds, so there the observer naps
  // between polls and leaves the cores to the gateway.
  CompletionObserver observer(
      *engine, events, due, t0,
      std::chrono::microseconds(w.rate > 0.0 ? 0 : 50));
  for (std::size_t i = 0; i < n; ++i) {
    double now = seconds_between(t0, Clock::now());
    while (now < due[i]) now = seconds_between(t0, Clock::now());
    stream::IngestStatus status;
    if (traced) {
      lag_ms.push_back(1e3 * (now - due[i]));
      const auto a = Clock::now();
      {
        const SpanLog::Scope span(kIngestSpan, log.user_id(events[i].user));
        status = engine->ingest(events[i]);
      }
      const auto b = Clock::now();
      {
        const SpanLog::Scope span(kPumpSpan);
        engine->pump_cadences();
      }
      const auto c = Clock::now();
      const double ingest = seconds_between(a, b);
      it.ingest_s += ingest;
      it.ingest_block_max_s = std::max(it.ingest_block_max_s, ingest);
      it.pump_s += seconds_between(b, c);
    } else {
      status = engine->ingest(events[i]);
      engine->pump_cadences();
    }
    if (status != stream::IngestStatus::kAdmitted &&
        status != stream::IngestStatus::kAdmittedSlow) {
      ++it.not_admitted;
    }
    backlog_sum[2 * i >= n ? 1 : 0] +=
        static_cast<double>(i + 1 - observer.observed());
  }
  it.ingest_calls = n;
  // The tail drain: from the last ingest() to quiesce() returning.
  const auto q0 = Clock::now();
  // Wait for the observer to see the tail. A worker that stopped (a
  // fault) never completes its ring, so once progress stalls fall back to
  // quiesce(), which rethrows the fault.
  std::size_t seen = observer.observed();
  auto last_progress = Clock::now();
  while (seen < n) {
    std::this_thread::yield();
    const std::size_t now_seen = observer.observed();
    if (now_seen > seen) {
      seen = now_seen;
      last_progress = Clock::now();
    } else if (seconds_between(last_progress, Clock::now()) > 2.0) {
      engine->quiesce();
      break;
    }
  }
  observer.stop();
  it.unobserved = n - observer.observed();
  {
    const SpanLog::Scope span(kQuiesceSpan);
    engine->quiesce();
  }
  const auto q1 = Clock::now();
  replay_span.reset();
  it.quiesce_s = seconds_between(q0, q1);
  it.ingest_phase_s = seconds_between(t0, q1);
  it.backlog_first_half = backlog_sum[0] / std::max<double>(1.0, n / 2.0);
  it.backlog_second_half = backlog_sum[1] / std::max<double>(1.0, n - n / 2.0);

  const telemetry::MetricsSnapshot snap = engine->metrics_snapshot();
  it.decide_busy_s = histogram_sum(snap, "mood_stage_decide_seconds");
  it.decide_p99_s = histogram_p99(snap, "mood_stage_decide_seconds");
  it.dequeue_p99_s = histogram_p99(snap, "mood_stage_dequeue_seconds");
  const std::uint64_t searches_before = engine->stats().searches;

  const auto f0 = Clock::now();
  {
    const SpanLog::Scope span(kFinishSpan);
    engine->finish();
  }
  const auto f1 = Clock::now();
  it.finish_s = seconds_between(f0, f1);
  it.publish_s = seconds_between(t0, f1);

  const stream::StreamStats stats = engine->stats();
  const std::vector<stream::UserDecision> decisions = engine->decisions();
  it.counts.decisions = stats.decisions;
  it.counts.searches = stats.searches;
  it.counts.rechecks = stats.rechecks;
  it.counts.profile_refreshes = stats.profile_refreshes;
  it.counts.stay_rebuilds = stats.stay_rebuilds;
  it.counts.lppm_applications = stats.lppm_applications;
  it.counts.attack_invocations = stats.attack_invocations;
  it.counts.finish_searches = stats.searches - searches_before;
  it.counts.exact_evals = stats.exact_evals;
  it.counts.index_prunes = stats.index_prunes;
  it.counts.index_rebuilds = stats.index_rebuilds;
  it.counts.checkpoints = stats.checkpoints;
  it.checkpoint_bytes = stats.checkpoint_bytes;
  it.not_admitted += stats.bad_records + stats.dead_letters;

  const auto& latency = observer.latency_s();
  const auto& gaps = observer.gap_s();
  std::vector<double> latency_ms, gap_us;
  latency_ms.reserve(n);
  gap_us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (latency[i] < 0.0) continue;
    latency_ms.push_back(1e3 * latency[i]);
    gap_us.push_back(1e6 * gaps[i]);
  }
  // Calls `add(window)` with each window's samples in ms. A short tail
  // joins the last full window; a short stream is one window.
  const auto for_each_window = [&](std::size_t window_events, auto add) {
    for (std::size_t start = 0; start < n;) {
      const std::size_t end =
          n - start < 2 * window_events ? n : start + window_events;
      std::vector<double> window;
      for (std::size_t i = start; i < end; ++i) {
        if (latency[i] >= 0.0) window.push_back(1e3 * latency[i]);
      }
      add(window);
      start = end;
    }
  };
  for_each_window(w.rate > 0.0 ? kWindowEvents : n,
                  [&](const std::vector<double>& window) {
                    it.window_p50_ms.push_back(percentile(window, 0.5));
                    it.window_p99_ms.push_back(percentile(window, 0.99));
                  });
  for_each_window(w.rate > 0.0 ? kWindowEventsP999 : n,
                  [&](const std::vector<double>& window) {
                    it.window_p999_ms.push_back(percentile(window, 0.999));
                  });
  it.samples = latency_ms.size();
  it.p50_ms = percentile(latency_ms, 0.5);
  it.p99_ms = percentile(latency_ms, 0.99);
  it.p999_ms = percentile(latency_ms, 0.999);
  for (const double v : latency_ms) {
    it.max_ms = std::max(it.max_ms, v);
    it.beyond_p999 += v > it.p999_ms ? 1 : 0;
  }
  it.gap_p50_us = percentile(gap_us, 0.5);
  it.gap_p99_us = percentile(gap_us, 0.99);
  it.lag_p99_ms = percentile(lag_ms, 0.99);
  for (const double v : lag_ms) it.lag_max_ms = std::max(it.lag_max_ms, v);

  if (traced) {
    it.lppm_calls = decorated->lppm_all().calls.load();
    it.lppm_points = decorated->lppm_all().points.load();
    it.lppm_s = decorated->lppm_all().seconds();
    for (const auto& single : decorated->singles()) {
      it.lppm_single_s[single->name()] = single->tally().seconds();
    }
    it.distortion_calls = decorated->metric().tally().calls.load();
    it.distortion_s = decorated->metric().tally().seconds();
  }

  // ---- Correctness gate: every final verdict against the scan oracle --
  harness->set_attack_query_mode(attacks::QueryMode::kScan);
  const auto v0 = Clock::now();
  core::GatewayResult oracle;
  {
    const SpanLog::Scope span(kVerifySpan);
    oracle = harness->evaluate_gateway();
  }
  it.verify_s = seconds_between(v0, Clock::now());
  harness->set_attack_query_mode(attacks::QueryMode::kIndex);

  std::unordered_map<mobility::UserId, const stream::UserDecision*> streamed;
  for (const auto& d : decisions) streamed[d.user] = &d;
  for (const auto& expected : oracle.users) {
    if (expected.decision == decision::Decision::kProtect) ++it.at_risk;
    const auto found = streamed.find(expected.user);
    const bool ok = found != streamed.end() &&
                    found->second->decision == expected.decision &&
                    found->second->winner == expected.winner;
    if (found != streamed.end()) streamed.erase(found);
    if (!ok) {
      ++it.mismatched_users;
      it.mismatched_events += expected.records;
      std::cerr << "gateway_bench: WRONG VERDICT for user " << expected.user
                << " (dataset seed " << data_seed << ")\n";
    }
  }
  for (const auto& [user, d] : streamed) {  // users the oracle never saw
    ++it.mismatched_users;
    it.mismatched_events += d->events;
  }

  // ---- Attack queries, timed per call on every user's final window ----
  if (traced && !ctx.attack_queries_timed) {
    ctx.attack_queries_timed = true;
    for (const auto& attack : harness->attacks()) {
      const std::string full = attack->name();
      const std::string shortname = full.substr(0, full.find('-'));
      const std::uint32_t span_name =
          log.name_id("attacks." + shortname + ".reidentifies_target");
      auto& samples = it.attack_query_us[shortname];
      for (const auto& pair : harness->pairs()) {
        const SpanLog::Scope span(span_name, log.user_id(pair.test.user()));
        const auto a = Clock::now();
        const bool hit = attack->reidentifies_target(pair.test, pair.test.user());
        samples.push_back(1e6 * seconds_between(a, Clock::now()));
        (void)hit;
      }
    }
  }

  engine.reset();  // joins the shard workers before the attacks go away
  if (w.checkpoint_every > 0) std::filesystem::remove_all(checkpoint_dir);
  log.set_enabled(false);
  return it;
}

// ---------------------------------------------------------------------------
// Statistics and output

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    m = (m + *std::max_element(v.begin(), v.begin() + mid)) / 2.0;
  }
  return m;
}

template <typename Get>
std::vector<double> collect(const std::vector<Iteration>& its, Get get) {
  std::vector<double> out;
  for (const auto& it : its) out.push_back(get(it));
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Ordered (name -> value, unit) list that prints as the metrics object.
class MetricList {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " +
             number(items_[i].value) + ", \"unit\": \"" + items_[i].unit +
             "\"}";
    }
    return out + "}";
  }
  void print(std::ostream& out) const {
    for (const auto& item : items_) {
      out << "  " << item.name << " = " << number(item.value) << ' '
          << item.unit << '\n';
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::filesystem::path work_dir = ".bench_build/perfbench-work";
  std::string source = "unknown";
};

int usage(const std::string& why) {
  std::cerr << "gateway_bench: " << why
            << "\nusage: gateway_bench --workload=dense|crowd|dense-paced "
               "--seed=N --seconds=S --trace=0|1 [--smoke] [--work-dir=DIR] "
               "[--source=ID]\n";
  return 2;
}

std::optional<Options> parse(int argc, char** argv, std::string& error) {
  Options o;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      error = "unexpected argument " + arg;
      return std::nullopt;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (arg == "smoke") {
      kv[arg] = "1";
    } else if (i + 1 < argc) {
      kv[arg] = argv[++i];
    } else {
      error = "missing value for --" + arg;
      return std::nullopt;
    }
  }
  try {
    for (const auto& [key, value] : kv) {
      if (key == "workload") {
        o.workload = value;
      } else if (key == "seed") {
        o.seed = std::stoull(value);
      } else if (key == "seconds") {
        o.seconds = std::stod(value);
      } else if (key == "trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(key);
        o.trace = value == "1";
      } else if (key == "smoke") {
        o.smoke = value != "0";
      } else if (key == "work-dir") {
        o.work_dir = value;
      } else if (key == "source") {
        o.source = value;
      } else {
        error = "unknown flag --" + key;
        return std::nullopt;
      }
    }
  } catch (const std::exception&) {
    error = "bad flag value";
    return std::nullopt;
  }
  if (o.workload.empty()) {
    error = "--workload is required";
    return std::nullopt;
  }
  if (!(o.seconds > 0.0)) {
    error = "--seconds must be positive";
    return std::nullopt;
  }
  return o;
}

/// Refuses numbers from builds that would not represent the program.
std::optional<std::string> refusal() {
#if !defined(NDEBUG)
  return "assertions enabled (Debug build)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not Release or RelWithDebInfo";
  }
  return std::nullopt;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto parsed = parse(argc, argv, error);
  if (!parsed) return usage(error);
  const Options& opt = *parsed;
  if (const auto why = refusal()) {
    std::cerr << "gateway_bench: refusing to record numbers: " << *why << '\n';
    return 3;
  }
  const auto workload = find_workload(opt.workload, opt.smoke);
  if (!workload) return usage("unknown workload " + opt.workload);

  support::set_log_level(support::LogLevel::kOff);
  support::ThreadPool::configure_shared(kJobs);
  std::filesystem::create_directories(opt.work_dir);

  RunContext ctx;
  ctx.workload = *workload;
  ctx.work_dir = opt.work_dir;
  const std::size_t slots = workload->datasets;

  // Schedule: slots 0..D-1, then around again; at least D+1 iterations so
  // one dataset is replayed twice (the determinism gate). A traced run
  // plays each slot untraced then traced — the tracing-overhead pair,
  // which doubles as a determinism pair for the decorated engine — and
  // needs only one pair.
  const auto started = Clock::now();
  std::vector<Iteration> iterations;
  std::map<std::size_t, Counts> first_counts;
  std::size_t determinism_pairs = 0;
  std::vector<std::string> gate_failures;
  double longest = 0.0;
  for (std::size_t k = 0;; ++k) {
    const std::size_t per_slot = opt.trace ? 2 : 1;
    const std::size_t slot = (k / per_slot) % slots;
    const bool traced = opt.trace && k % 2 == 1;
    const std::size_t minimum = opt.trace ? 2 : slots + 1;
    const double elapsed = seconds_between(started, Clock::now());
    if (k >= minimum && elapsed + longest > opt.seconds) break;
    if (opt.trace && !traced && k >= minimum &&
        elapsed + 2.0 * longest > opt.seconds) {
      break;  // no room for the traced half of the pair
    }
    const auto i0 = Clock::now();
    Iteration it;
    try {
      it = run_iteration(ctx, slot, dataset_seed(opt.seed, slot), traced);
    } catch (const std::exception& e) {
      std::cerr << "gateway_bench: iteration failed: " << e.what() << '\n';
      return 1;
    }
    longest = std::max(longest, seconds_between(i0, Clock::now()));
    const auto [pos, inserted] = first_counts.emplace(slot, it.counts);
    if (!inserted) {
      ++determinism_pairs;
      if (!(pos->second == it.counts)) {
        gate_failures.push_back("work counters differ on a repeat of slot " +
                                std::to_string(slot));
        for (std::size_t c = 0; c < it.counts.named().size(); ++c) {
          const auto& a = pos->second.named()[c];
          const auto& b = it.counts.named()[c];
          if (a.second != b.second) {
            std::cerr << "gateway_bench: NONDETERMINISTIC " << a.first << ": "
                      << a.second << " then " << b.second << '\n';
          }
        }
      }
    }
    std::cerr << "gateway_bench: " << opt.workload << " slot " << slot
              << (traced ? " traced" : "") << ": " << it.events
              << " events, " << it.users << " users (" << it.at_risk
              << " at risk), setup " << number(it.setup_s) << " s, ingest "
              << number(it.ingest_phase_s) << " s, publish "
              << number(it.publish_s) << " s, verify " << number(it.verify_s)
              << " s\n";
    iterations.push_back(std::move(it));
  }
  const double run_seconds = seconds_between(started, Clock::now());
  const double rss_mb = peak_rss_mb();
  if (determinism_pairs == 0) gate_failures.push_back("no repeated dataset");

  // ---- Correctness accounting ------------------------------------------
  std::uint64_t attempted = 0, failed = 0, mismatched_users = 0;
  for (const auto& it : iterations) {
    attempted += it.events;
    const std::uint64_t bad = it.not_admitted + it.mismatched_events +
                              it.unobserved;
    failed += std::min<std::uint64_t>(bad, it.events);
    mismatched_users += it.mismatched_users;
    if (it.unobserved > 0) {
      gate_failures.push_back(std::to_string(it.unobserved) +
                              " events never observed complete");
    }
  }
  if (mismatched_users > 0) {
    gate_failures.push_back(std::to_string(mismatched_users) +
                            " users with a wrong final verdict or winner");
  }
  if (failed > 0) gate_failures.push_back("failed events");
  const bool correct = gate_failures.empty();

  // Due-time latency (untraced iterations only): the median over every
  // latency window of the run of the window's exact percentile. A paced
  // p50/p99 window is kWindowEvents consecutive events, one checkpoint
  // interval; a p99.9 window is kWindowEventsP999 events.
  std::vector<double> windows_p50, windows_p99, windows_p999;
  for (const auto& it : iterations) {
    if (it.traced) continue;
    windows_p50.insert(windows_p50.end(), it.window_p50_ms.begin(),
                       it.window_p50_ms.end());
    windows_p99.insert(windows_p99.end(), it.window_p99_ms.begin(),
                       it.window_p99_ms.end());
    windows_p999.insert(windows_p999.end(), it.window_p999_ms.begin(),
                        it.window_p999_ms.end());
  }
  const double p50_ms = median(windows_p50);
  const double p99_ms = median(windows_p99);
  const double p999_ms = median(windows_p999);
  std::vector<Iteration> untraced, traced;
  for (const auto& it : iterations) (it.traced ? traced : untraced).push_back(it);
  const auto across = [&](auto get) { return median(collect(untraced, get)); };
  const double gap_p50_us =
      across([](const Iteration& i) { return i.gap_p50_us; });
  const double gap_p99_us =
      across([](const Iteration& i) { return i.gap_p99_us; });
  std::uint64_t samples = 0, beyond_p999 = ~std::uint64_t{0};
  std::size_t fewest_samples = ~std::size_t{0};
  double max_ms = 0.0;
  for (const auto& it : untraced) {
    samples += it.samples;
    beyond_p999 = std::min(beyond_p999, it.beyond_p999);
    fewest_samples = std::min(fewest_samples, it.samples);
    max_ms = std::max(max_ms, it.max_ms);
  }
  double backlog_first = 0.0, backlog_second = 0.0;
  for (const auto& it : untraced) {
    backlog_first += it.backlog_first_half / untraced.size();
    backlog_second += it.backlog_second_half / untraced.size();
  }
  // The backlog "grew" when the second half of each replay queued, on
  // average, more than twice the first half and more than 10 ms of
  // arrivals: the generator was pulling away from the gateway.
  const bool backlog_grew = workload->rate > 0.0 &&
                            backlog_second > 2.0 * backlog_first &&
                            backlog_second > 0.01 * workload->rate;

  MetricList metrics;
  if (!opt.trace) {
    metrics.add("setup_s", median(collect(untraced, [](const Iteration& i) {
                  return i.setup_s;
                })),
                "s");
    metrics.add("ingest_eps",
                median(collect(untraced,
                               [](const Iteration& i) {
                                 return static_cast<double>(i.events) /
                                        i.ingest_phase_s;
                               })),
                "1/s");
    metrics.add("publish_s", median(collect(untraced, [](const Iteration& i) {
                  return i.publish_s;
                })),
                "s");
    metrics.add("verify_s", median(collect(untraced, [](const Iteration& i) {
                  return i.verify_s;
                })),
                "s");
    metrics.add("p50_ms", p50_ms, "ms");
    metrics.add("p99_ms", p99_ms, "ms");
    metrics.add("p999_ms", p999_ms, "ms");
    metrics.add("peak_rss_mb", rss_mb, "MB");
  } else {
    const auto med = [&](auto get) { return median(collect(traced, get)); };
    const Iteration& first = traced.front();
    metrics.add("simulation.generate_s",
                med([](const Iteration& i) { return i.generate_s; }), "s");
    metrics.add("core.harness_s",
                med([](const Iteration& i) { return i.harness_s; }), "s");
    metrics.add("stream.event_stream_s",
                med([](const Iteration& i) { return i.event_stream_s; }), "s");
    metrics.add("stream.ingest_calls", static_cast<double>(first.ingest_calls),
                "count");
    metrics.add("stream.ingest_s",
                med([](const Iteration& i) { return i.ingest_s; }), "s");
    metrics.add("stream.ingest_block_max_ms",
                med([](const Iteration& i) { return 1e3 * i.ingest_block_max_s; }),
                "ms");
    metrics.add("stream.quiesce_s",
                med([](const Iteration& i) { return i.quiesce_s; }), "s");
    metrics.add("stream.pump_s", med([](const Iteration& i) { return i.pump_s; }),
                "s");
    metrics.add("stream.checkpoints",
                static_cast<double>(first.counts.checkpoints), "count");
    metrics.add("stream.checkpoint_bytes",
                static_cast<double>(first.checkpoint_bytes), "bytes");
    metrics.add("stream.finish_s",
                med([](const Iteration& i) { return i.finish_s; }), "s");
    metrics.add("stream.decide_busy_s",
                med([](const Iteration& i) { return i.decide_busy_s; }), "s");
    metrics.add("stream.decide_p99_ms",
                med([](const Iteration& i) { return 1e3 * i.decide_p99_s; }),
                "ms");
    metrics.add("stream.dequeue_wait_p99_ms",
                med([](const Iteration& i) { return 1e3 * i.dequeue_p99_s; }),
                "ms");
    metrics.add("stream.shard_skew", first.shard_skew, "ratio");
    metrics.add("generator.lag_p99_ms",
                med([](const Iteration& i) { return i.lag_p99_ms; }), "ms");
    metrics.add("generator.lag_max_ms",
                med([](const Iteration& i) { return i.lag_max_ms; }), "ms");
    metrics.add("generator.observe_resolution_us", gap_p50_us, "us");
    metrics.add("generator.observe_gap_p99_us", gap_p99_us, "us");
    metrics.add("generator.latency_samples", static_cast<double>(samples),
                "count");
    for (const auto& [name, value] : first.counts.named()) {
      const std::string_view n = name;
      if (n == "stream.checkpoints") continue;
      metrics.add(name, static_cast<double>(value), "count");
    }
    metrics.add("lppm.apply_calls", static_cast<double>(first.lppm_calls),
                "count");
    metrics.add("lppm.apply_points", static_cast<double>(first.lppm_points),
                "count");
    metrics.add("lppm.apply_s", med([](const Iteration& i) { return i.lppm_s; }),
                "s");
    for (const char* single : {"GeoI", "TRL", "HMC"}) {
      metrics.add(std::string("lppm.") + single + ".apply_s",
                  med([&](const Iteration& i) {
                    const auto f = i.lppm_single_s.find(single);
                    return f == i.lppm_single_s.end() ? 0.0 : f->second;
                  }),
                  "s");
    }
    metrics.add("metrics.distortion_calls",
                static_cast<double>(first.distortion_calls), "count");
    metrics.add("metrics.distortion_s",
                med([](const Iteration& i) { return i.distortion_s; }), "s");
    const double prunes = static_cast<double>(first.counts.index_prunes);
    const double base = prunes + static_cast<double>(first.counts.exact_evals);
    metrics.add("attacks.prune_ratio", base > 0 ? prunes / base : 0.0, "ratio");
    metrics.add("attacks.prune_base", base, "count");
    for (const char* attack : {"AP", "PIT", "POI"}) {
      std::vector<double> samples;
      for (const auto& it : traced) {
        const auto f = it.attack_query_us.find(attack);
        if (f != it.attack_query_us.end()) {
          samples.insert(samples.end(), f->second.begin(), f->second.end());
        }
      }
      metrics.add(std::string("attacks.") + attack + ".query_us",
                  median(samples), "us");
    }
    metrics.add("decision.residual_s",
                med([](const Iteration& i) {
                  return i.decide_busy_s + i.finish_s - i.lppm_s -
                         i.distortion_s;
                }),
                "s");
    // Tracing overhead: traced vs untraced iteration of the same dataset.
    // Unpaced runs compare time to final verdicts; paced runs, whose wall
    // time the schedule fixes, compare decide-busy + finish time.
    std::vector<double> overhead;
    for (std::size_t i = 0; i + 1 < iterations.size(); i += 2) {
      const Iteration& u = iterations[i];
      const Iteration& t = iterations[i + 1];
      const bool paced = workload->rate > 0.0;
      const double cu = paced ? u.decide_busy_s + u.finish_s : u.publish_s;
      const double ct = paced ? t.decide_busy_s + t.finish_s : t.publish_s;
      overhead.push_back(100.0 * (ct / cu - 1.0));
    }
    metrics.add("telemetry.trace_overhead_pct", median(overhead), "%");
  }

  // ---- Result document -------------------------------------------------
  const std::string tag = opt.workload + "-seed" + std::to_string(opt.seed) +
                          (opt.trace ? "-trace" : "") +
                          (opt.smoke ? "-smoke" : "");
  const std::filesystem::path result_path = opt.work_dir / (tag + ".json");
  const std::filesystem::path trace_path = opt.work_dir / (tag + ".trace.json");
  {
    std::ofstream doc(result_path);
    doc << "{\n  \"schema\": \"mood-perfbench/1\",\n  \"workload\": \""
        << opt.workload << "\",\n  \"seed\": " << opt.seed
        << ",\n  \"smoke\": " << (opt.smoke ? "true" : "false")
        << ",\n  \"trace\": " << (opt.trace ? "true" : "false")
        << ",\n  \"fingerprint\": {\"nproc\": "
        << std::thread::hardware_concurrency() << ", \"cpu\": \""
        << json_escape(cpu_model()) << "\", \"compiler\": \""
        << json_escape(PERFBENCH_COMPILER) << " (" << json_escape(__VERSION__)
        << ")\", \"flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS)
        << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
        << "\", \"source\": \"" << json_escape(opt.source) << "\"},\n"
        << "  \"load\": {\"engine\": \"loop\", \"shards\": " << kShards
        << ", \"jobs\": " << kJobs << ", \"preset\": \"" << workload->preset
        << "\", \"scale\": " << number(workload->scale)
        << ", \"users\": " << workload->users
        << ", \"rate_eps\": " << number(workload->rate)
        << ", \"checkpoint_every\": " << workload->checkpoint_every
        << ", \"datasets\": " << slots << "},\n"
        << "  \"run_seconds\": " << number(run_seconds)
        << ",\n  \"correct\": " << (correct ? "true" : "false")
        << ",\n  \"gate_failures\": [";
    for (std::size_t i = 0; i < gate_failures.size(); ++i) {
      doc << (i ? ", \"" : "\"") << json_escape(gate_failures[i]) << '"';
    }
    doc << "],\n  \"determinism_pairs\": " << determinism_pairs
        << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
        << ",\n  \"fail_ratio\": "
        << number(static_cast<double>(failed) / std::max<std::uint64_t>(1, attempted))
        << ",\n  \"latency\": {\"samples\": " << samples
        << ", \"samples_per_iteration_min\": " << fewest_samples
        << ", \"beyond_p999_per_iteration_min\": " << beyond_p999
        << ", \"windows\": " << windows_p99.size()
        << ", \"window_events\": "
        << (workload->rate > 0.0 ? kWindowEvents : 0)
        << ", \"windows_p999\": " << windows_p999.size()
        << ", \"window_events_p999\": "
        << (workload->rate > 0.0 ? kWindowEventsP999 : 0)
        << ", \"observe_gap_us_p50\": " << number(gap_p50_us)
        << ", \"observe_gap_us_p99\": " << number(gap_p99_us)
        << ", \"max_ms\": "
        << number(max_ms)
        << ", \"limit_p99_ms\": " << number(kLatencyLimitMs)
        << ", \"limit_held\": " << (p99_ms <= kLatencyLimitMs ? "true" : "false")
        << ", \"backlog_mean_first_half\": " << number(backlog_first)
        << ", \"backlog_mean_second_half\": " << number(backlog_second)
        << ", \"backlog_grew\": " << (backlog_grew ? "true" : "false")
        << "},\n  \"metrics\": " << metrics.json() << ",\n  \"iterations\": [";
    for (std::size_t i = 0; i < iterations.size(); ++i) {
      const Iteration& it = iterations[i];
      doc << (i ? ",\n    " : "\n    ") << "{\"slot\": " << it.slot
          << ", \"data_seed\": " << it.data_seed
          << ", \"traced\": " << (it.traced ? "true" : "false")
          << ", \"events\": " << it.events << ", \"users\": " << it.users
          << ", \"at_risk\": " << it.at_risk
          << ", \"setup_s\": " << number(it.setup_s)
          << ", \"ingest_s\": " << number(it.ingest_phase_s)
          << ", \"publish_s\": " << number(it.publish_s)
          << ", \"finish_s\": " << number(it.finish_s)
          << ", \"verify_s\": " << number(it.verify_s)
          << ", \"latency_ms\": {\"samples\": " << it.samples
          << ", \"p50\": " << number(it.p50_ms)
          << ", \"p99\": " << number(it.p99_ms)
          << ", \"p999\": " << number(it.p999_ms)
          << ", \"max\": " << number(it.max_ms) << '}'
          << ", \"mismatched_users\": " << it.mismatched_users
          << ", \"counts\": {";
      const auto named = it.counts.named();
      for (std::size_t c = 0; c < named.size(); ++c) {
        doc << (c ? ", \"" : "\"") << named[c].first
            << "\": " << named[c].second;
      }
      doc << "}}";
    }
    doc << "\n  ]";
    if (opt.trace) {
      doc << ",\n  \"spans\": " << SpanLog::instance().span_count()
          << ",\n  \"span_file\": \"" << json_escape(trace_path.string())
          << "\",\n  \"span_totals_s\": {";
      bool first = true;
      for (const auto& [name, totals] : SpanLog::instance().totals()) {
        doc << (first ? "\n    \"" : ",\n    \"") << name
            << "\": {\"total\": " << number(totals.first)
            << ", \"self\": " << number(totals.second) << '}';
        first = false;
      }
      doc << "\n  }";
    }
    doc << "\n}\n";
  }
  if (opt.trace) {
    std::ofstream spans(trace_path);
    SpanLog::instance().write_chrome_json(spans);
  }

  std::cerr << "gateway_bench: " << opt.workload << " seed " << opt.seed
            << (opt.trace ? " (traced)" : "") << ": " << iterations.size()
            << " iterations in " << number(run_seconds) << " s, "
            << determinism_pairs << " determinism pair(s), "
            << (correct ? "all gates passed" : "GATE FAILED") << '\n';
  if (!opt.trace) {
    std::cerr << "  latency: " << samples << " due-time samples ("
              << fewest_samples << "+ per iteration, "
              << windows_p99.size() << " + " << windows_p999.size()
              << " latency windows), observation gap p50 "
              << number(gap_p50_us) << " us (upward bias <= gap)";
    if (workload->rate > 0.0) {
      std::cerr << ", p99 limit " << kLatencyLimitMs << " ms "
                << (p99_ms <= kLatencyLimitMs ? "held" : "MISSED")
                << ", backlog " << (backlog_grew ? "GREW" : "steady");
    }
    std::cerr << "\n  fail_ratio = " << failed << '/' << attempted << '\n';
  }
  metrics.print(std::cerr);
  for (const auto& why : gate_failures) {
    std::cerr << "gateway_bench: gate failed: " << why << '\n';
  }
  std::cerr << "gateway_bench: result document " << result_path.string()
            << '\n';

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return correct ? 0 : 1;
}
