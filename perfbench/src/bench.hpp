// Shared harness pieces of the wall-clock lease-service benchmark: run
// options, the in-memory span tracer, latency samples, registry deltas,
// the scheduler decorator that times every scheduler call, and the result
// record each workload fills in.
//
// Everything here sits outside the program: spans are taken around public
// calls the benchmark makes, never inside src/.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "core/scheduler.hpp"
#include "lease/shard_router.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- Spans -------------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  kWireEncode = 0,
  kWireDecode,
  kSubmit,        // Scheduler::submit
  kDrain,         // Scheduler::drain_all
  kRenewNow,      // Scheduler::renew_now (the gateway's batch-of-one drain)
  kAuthorize,     // SlManager::authorize_execution
  kGatewayRenew,  // RemoteGateway::renew around ShardGateway::renew
  kCount,
};

// In-memory span totals for one thread (the workload's generator). Spans
// nest through an explicit stack, so a span's self time is its duration
// minus the time its child spans cover.
class Tracer {
 public:
  Tracer() { stack_.reserve(16); }

  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  void begin(SpanKind kind) { stack_.push_back({kind, now_ns(), 0}); }
  void end();

  const Totals& totals(SpanKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }

 private:
  struct Open {
    SpanKind kind = SpanKind::kCount;
    std::uint64_t start = 0;
    std::uint64_t child_ns = 0;
  };

  std::vector<Open> stack_;
  std::array<Totals, static_cast<std::size_t>(SpanKind::kCount)> totals_{};
};

// RAII span; a null tracer (the untraced runs) costs one branch.
class Span {
 public:
  Span(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(kind);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

// Sends `message` across the wire codec: encodes it, adds the frame size to
// `bytes`, and returns what decoding the frame gives. Each half is a span.
template <typename Message>
std::optional<Message> round_trip(Tracer* tracer, const Message& message,
                                  std::uint64_t& bytes) {
  sl::Bytes frame;
  {
    Span span(tracer, SpanKind::kWireEncode);
    frame = message.serialize();
  }
  bytes += frame.size();
  Span span(tracer, SpanKind::kWireDecode);
  return Message::deserialize(frame);
}

// --- Latency samples ---------------------------------------------------------

// Latency histogram with constant memory: 1-ns buckets below 2 us, then
// 256 buckets per power of two (0.4% wide). Quantiles interpolate inside
// the bucket holding the rank, so they are not quantized to the clock tick.
class Samples {
 public:
  Samples();
  void add(std::uint64_t ns);
  std::uint64_t size() const { return count_; }
  void clear();
  double quantile_ns(double q) const;
  double mean_ns() const;
  void merge(const Samples& other);

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  long double sum_ = 0;
};

double median(std::vector<double> values);

// On a shared host, other guests only ever slow a stretch of a run down.
// Set-up times are therefore taken from the fastest third of the set-ups
// (at least one); measured windows are picked per time group (see
// add_end_to_end), so that a drift of the program over a run still shows.
double median_of_fastest_third(std::vector<double> seconds);

// --- Registry deltas -----------------------------------------------------------

// Registry counters the benchmark reads, summed over every label set.
enum class Ctr : std::uint8_t {
  kEnqueued = 0,
  kBackpressure,
  kDownRejections,
  kProcessed,
  kGranted,
  kDenied,
  kBatchCommits,
  kCheckpoints,
  kTreeCommits,
  kJournalAppends,
  kJournalBytes,
  kJournalSyncs,
  kReplShippedBytes,
  kReplAcks,
  kReplRetransmits,
  kSgxEcalls,
  kSgxEpcFaults,
  kNetAttempts,
  kCount,
};

inline constexpr std::size_t kMaxShards = 8;

struct Counts {
  std::array<std::uint64_t, static_cast<std::size_t>(Ctr::kCount)> v{};
  // sl_lease_renewals_processed_total per {shard} label.
  std::array<std::uint64_t, kMaxShards> processed_by_shard{};

  std::uint64_t operator[](Ctr c) const {
    return v[static_cast<std::size_t>(c)];
  }
  static Counts read();
  Counts minus(const Counts& earlier) const;
  void add(const Counts& other);
};

// --- Scheduler decorator ---------------------------------------------------------

// Forwards to the workload's scheduler and opens a span around each call
// while a tracer is attached. Every workload drives its shards through one
// of these, so the scheduler layer is timed the same way everywhere.
class TracedScheduler final : public sl::core::Scheduler {
 public:
  explicit TracedScheduler(sl::core::Scheduler& inner)
      : Scheduler(inner.router()), inner_(inner) {}

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  sl::core::Backend backend() const override { return inner_.backend(); }
  void register_client(sl::lease::ShardRouter::CustomerId customer,
                       sl::lease::ShardRouter::ClientId client, double health,
                       double network) override {
    inner_.register_client(customer, client, health, network);
  }
  bool submit(sl::lease::ShardRouter::CustomerId customer,
              sl::lease::ShardRouter::ClientId client,
              const sl::lease::LicenseFile& license, std::uint64_t consumed,
              std::uint64_t ticket) override {
    Span span(tracer_, SpanKind::kSubmit);
    return inner_.submit(customer, client, license, consumed, ticket);
  }
  std::vector<sl::lease::ShardRouter::Completion> drain_all() override {
    Span span(tracer_, SpanKind::kDrain);
    return inner_.drain_all();
  }
  sl::lease::SlRemote::RenewResult renew_now(
      std::size_t shard, sl::lease::Slid slid,
      const sl::lease::LicenseFile& license, double health, double network,
      std::uint64_t consumed, std::uint64_t request_id) override {
    Span span(tracer_, SpanKind::kRenewNow);
    return inner_.renew_now(shard, slid, license, health, network, consumed,
                            request_id);
  }
  double wall_seconds() const override { return inner_.wall_seconds(); }
  sl::core::SchedulerStats scheduler_stats() const override {
    return inner_.scheduler_stats();
  }

 private:
  sl::core::Scheduler& inner_;
  Tracer* tracer_ = nullptr;
};

// --- Results -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Listed in BENCHMARK.json, hence in the final JSON line of its mode.
  bool in_json = false;
  std::string note;  // e.g. the sample count behind a percentile
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  std::vector<std::string> lines;  // diagnostics printed before the checks
  std::vector<Metric> end_to_end;  // untraced runs
  std::vector<Metric> per_layer;   // traced runs

  void check(std::string name, bool ok, std::string detail = "") {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  bool correct() const;
};

// Figures of one measured window, shared by the three workloads.
struct Window {
  double seconds = 0.0;  // wall time of the window
  std::uint64_t ops = 0;       // renewals (renew-*) or checks completed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wire_bytes = 0;  // request + response frames
  Samples latency;             // per-op, ns
  Counts counts;               // registry delta over the window

  // Sums every figure except the latency samples (see Samples::merge).
  void add(const Window& other);
};

// Builds a workload's world `repetitions` times, one at a time, timing each
// build into `seconds`, and keeps the last. Builds are spaced 100 ms apart
// so that one stretch of host contention cannot slow all of them.
template <typename Make>
auto set_up(int repetitions, Make make, std::vector<double>& seconds) {
  decltype(make()) world;
  for (int i = 0; i < repetitions; ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    world.reset();
    const std::uint64_t t0 = now_ns();
    world = make();
    seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return world;
}

// Runs one stretch of a workload into `window`, with spans recorded into
// `tracer` when it is not null.
using SegmentFn =
    std::function<void(double seconds, Window& window, Tracer* tracer)>;

// Throughput and latency of one measured stretch of a run.
struct Figures {
  double seconds = 0.0;
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t samples = 0;
};

// The measured part of a run. Untraced, it is `windows` back-to-back
// windows, each measured as `slices` back-to-back slices: `slices` holds
// the figures of every slice and `windows` those of every window (its
// slices' samples merged). Traced, it is kTraceSegments segments
// alternating untraced and traced, so slow drift in the process (allocator
// state, the host) hits both; `total` then sums the traced segments only.
struct Measurement {
  std::vector<Figures> slices;
  std::vector<Figures> windows;
  Window total;
  Tracer tracer;
  double untraced_p50_ns = 0.0;  // median over the untraced segments
  double traced_p50_ns = 0.0;    // median over the traced segments
};
inline constexpr int kTraceSegments = 6;
// Run after set-up, before the first measured window.
inline constexpr double kWarmupSeconds = 0.5;
// A closed-loop run is 12 windows of 100 slices: 25 ms slices in a 30 s
// run, short enough that most groups hold a slice the host left alone.
inline constexpr std::size_t kWindows = 12;
inline constexpr std::size_t kSlicesPerWindow = 100;
void measure(const Options& options, std::size_t windows, std::size_t slices,
             const SegmentFn& segment, Measurement& m);

// Adds the end-to-end metrics every workload reports (ops_per_s, p50_us and
// p99_us, setup_s, rss_mb) plus the per-workload names (renewals_per_s or
// checks_per_s, <prefix>_p50_us, <prefix>_p99_us, failed_share) printed for
// readers only. The windows are split into kWindowGroups consecutive groups.
// Each group contributes its fastest slice to ops_per_s, its lowest-p50
// slice to p50_us and its lowest-p99 window to p99_us (a tail needs the
// samples of a whole window), and each metric is the median over the
// groups. Host contention comes and goes within a group and is dropped,
// but a program that slows down over the run moves the later picks with
// it; the first and last groups are also compared and a drift beyond
// kDriftFlag is flagged.
inline constexpr std::size_t kWindowGroups = 4;
inline constexpr double kDriftFlag = 0.25;
void add_end_to_end(Result& result, const Measurement& m, double setup_s,
                    const std::string& ops_alias,
                    const std::string& latency_prefix);

// What the layer metrics of a traced run are computed from: the traced
// segments of `m`, and the per-renewal (`renewals`) and per-check
// (`checks`) bases of the workload.
struct LayerInputs {
  const Measurement* m = nullptr;
  std::uint64_t renewals = 0;
  std::uint64_t checks = 0;
  std::uint64_t attestations = 0;  // checks that attested locally
  std::size_t shards = 1;
  std::uint64_t rotations = 0;
  std::uint64_t leases_start = 0;
  std::uint64_t leases_end = 0;
};
void add_layer_metrics(Result& result, const LayerInputs& in);

// Timed probes of layers hidden inside drain_all/renew_now, taken on the
// run's final state. Adds the probe metrics and bench.drain_explained_share.
void add_probe_metrics(Result& result, sl::lease::ShardRouter& router,
                       const sl::lease::LicenseAuthority& authority,
                       const sl::lease::LicenseFile& license,
                       const LayerInputs& in, std::uint64_t seed);

// Correctness checks common to every workload.
void check_router_state(Result& result, sl::lease::ShardRouter& router,
                        std::uint64_t leases_start);
void check_reconciliation(Result& result, const Counts& since_setup,
                          std::uint64_t submits, std::uint64_t decoded,
                          std::uint64_t granted, std::uint64_t denied);

// Live leases across every shard of the router.
std::uint64_t lease_count(const sl::lease::ShardRouter& router);

// Peak resident set size of this process, MiB.
double peak_rss_mb();

// A denial the benchmark attributes to an exhausted license: Algorithm 1
// hands out a fraction of what is left, so a pool drains geometrically and
// its last few counts can no longer be granted. Any other denial fails.
inline constexpr std::uint64_t kExhaustedPool = 1024;

// --- Workloads ---------------------------------------------------------------

Result run_renew_closed(const Options& options);
Result run_renew_durable(const Options& options);
Result run_license_checks(const Options& options);

}  // namespace bench
