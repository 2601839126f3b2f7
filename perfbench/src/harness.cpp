#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "obs/metrics.hpp"

namespace bench {

// --- Tracer --------------------------------------------------------------------

void Tracer::end() {
  const std::uint64_t end = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = end - open.start;
  Totals& totals = totals_[static_cast<std::size_t>(open.kind)];
  totals.calls++;
  totals.total_ns += duration;
  totals.self_ns += duration - std::min(duration, open.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

// --- Samples -------------------------------------------------------------------

namespace {

constexpr std::uint64_t kLinearBuckets = 2048;  // exact below 2048 ns
constexpr int kSubBits = 8;                     // 256 buckets per octave
constexpr int kFirstOctave = 11;                // 2^11 = kLinearBuckets
constexpr int kLastOctave = 42;                 // ~73 minutes

std::size_t bucket_of(std::uint64_t ns) {
  if (ns < kLinearBuckets) return static_cast<std::size_t>(ns);
  const int octave = std::min(63 - __builtin_clzll(ns), kLastOctave);
  const std::uint64_t sub =
      std::min<std::uint64_t>((ns >> (octave - kSubBits)) - (1u << kSubBits),
                              (1u << kSubBits) - 1);
  return static_cast<std::size_t>(
      kLinearBuckets +
      (static_cast<std::uint64_t>(octave - kFirstOctave) << kSubBits) + sub);
}

// [lower bound, width) of a bucket, in ns.
std::pair<double, double> bucket_range(std::size_t index) {
  if (index < kLinearBuckets) return {static_cast<double>(index), 1.0};
  const std::size_t k = index - kLinearBuckets;
  const int octave = kFirstOctave + static_cast<int>(k >> kSubBits);
  const std::uint64_t sub = k & ((1u << kSubBits) - 1);
  const double width = static_cast<double>(1ull << (octave - kSubBits));
  return {static_cast<double>(((1ull << kSubBits) + sub) << (octave - kSubBits)),
          width};
}

}  // namespace

Samples::Samples()
    : buckets_(kLinearBuckets +
               (static_cast<std::size_t>(kLastOctave - kFirstOctave + 1)
                << kSubBits)) {}

void Samples::add(std::uint64_t ns) {
  buckets_[bucket_of(ns)]++;
  count_++;
  sum_ += ns;
}

void Samples::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
}

double Samples::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (static_cast<double>(below + buckets_[i]) > rank) {
      const auto [lower, width] = bucket_range(i);
      return lower + width * (rank - static_cast<double>(below)) /
                         static_cast<double>(buckets_[i]);
    }
    below += buckets_[i];
  }
  const auto [lower, width] = bucket_range(buckets_.size() - 1);
  return lower + width;
}

void Samples::merge(const Samples& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

double Samples::mean_ns() const {
  return count_ > 0 ? static_cast<double>(sum_ / count_) : 0.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double median_of_fastest_third(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  seconds.resize(std::min(seconds.size(),
                          std::max<std::size_t>(1, (seconds.size() + 1) / 3)));
  return median(std::move(seconds));
}

// --- Counts --------------------------------------------------------------------

namespace {

constexpr std::array<const char*, static_cast<std::size_t>(Ctr::kCount)>
    kCounterNames = {
        "sl_lease_renewals_enqueued_total",
        "sl_lease_backpressure_drops_total",
        "sl_lease_down_rejections_total",
        "sl_lease_renewals_processed_total",
        "sl_lease_renewals_granted_total",
        "sl_lease_renewals_denied_total",
        "sl_lease_batch_commits_total",
        "sl_lease_checkpoints_total",
        "sl_lease_tree_commits_total",
        "sl_storage_journal_appends_total",
        "sl_storage_journal_append_bytes_total",
        "sl_storage_journal_syncs_total",
        "sl_replication_shipped_bytes_total",
        "sl_replication_acks_total",
        "sl_replication_retransmits_total",
        "sl_sgx_ecalls_total",
        "sl_sgx_epc_faults_total",
        "sl_net_attempts_total",
};

}  // namespace

Counts Counts::read() {
  const sl::obs::MetricsRegistry& registry = sl::obs::MetricsRegistry::global();
  Counts counts;
  for (std::size_t i = 0; i < kCounterNames.size(); ++i) {
    counts.v[i] = registry.counter_sum(kCounterNames[i]);
  }
  for (std::size_t s = 0; s < kMaxShards; ++s) {
    counts.processed_by_shard[s] =
        registry.counter_value("sl_lease_renewals_processed_total",
                               {{"shard", std::to_string(s)}});
  }
  return counts;
}

Counts Counts::minus(const Counts& earlier) const {
  Counts delta;
  for (std::size_t i = 0; i < v.size(); ++i) delta.v[i] = v[i] - earlier.v[i];
  for (std::size_t s = 0; s < kMaxShards; ++s) {
    delta.processed_by_shard[s] =
        processed_by_shard[s] - earlier.processed_by_shard[s];
  }
  return delta;
}

void Counts::add(const Counts& other) {
  for (std::size_t i = 0; i < v.size(); ++i) v[i] += other.v[i];
  for (std::size_t s = 0; s < kMaxShards; ++s) {
    processed_by_shard[s] += other.processed_by_shard[s];
  }
}

void Window::add(const Window& other) {
  seconds += other.seconds;
  ops += other.ops;
  attempted += other.attempted;
  failed += other.failed;
  wire_bytes += other.wire_bytes;
  counts.add(other.counts);
}

bool Result::correct() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

// --- Metric builders -------------------------------------------------------------

namespace {

Figures figures_of(const Window& window) {
  return {window.seconds, ratio(static_cast<double>(window.ops), window.seconds),
          window.latency.quantile_ns(0.50) / 1e3,
          window.latency.quantile_ns(0.99) / 1e3, window.latency.size()};
}

}  // namespace

void measure(const Options& options, std::size_t windows, std::size_t slices,
             const SegmentFn& segment, Measurement& m) {
  if (!options.trace) {
    const double slice_s =
        options.seconds / static_cast<double>(windows * slices);
    for (std::size_t w = 0; w < windows; ++w) {
      Window window;
      for (std::size_t s = 0; s < slices; ++s) {
        Window slice;
        segment(slice_s, slice, nullptr);
        m.slices.push_back(figures_of(slice));
        window.add(slice);
        window.latency.merge(slice.latency);
      }
      m.windows.push_back(figures_of(window));
      m.total.add(window);
    }
    return;
  }
  std::vector<double> untraced_p50;
  std::vector<double> traced_p50;
  for (int s = 0; s < kTraceSegments; ++s) {
    const bool traced = s % 2 == 1;
    Window window;
    segment(options.seconds / kTraceSegments, window,
            traced ? &m.tracer : nullptr);
    (traced ? traced_p50 : untraced_p50).push_back(window.latency.quantile_ns(0.5));
    if (traced) m.total.add(window);
  }
  m.untraced_p50_ns = median(untraced_p50);
  m.traced_p50_ns = median(traced_p50);
}

void add_end_to_end(Result& result, const Measurement& m, double setup_s,
                    const std::string& ops_alias,
                    const std::string& latency_prefix) {
  const std::size_t windows = m.windows.size();
  const std::size_t slices = m.slices.size() / windows;
  const std::size_t groups = std::min(kWindowGroups, windows);
  // Index of the best entry of `all` in [first, last) by `better`.
  auto pick = [](const std::vector<Figures>& all, std::size_t first,
                 std::size_t last, auto better) {
    std::size_t best = first;
    for (std::size_t i = first; i < last; ++i) {
      if (better(all[i], all[best])) best = i;
    }
    return best;
  };
  std::vector<double> ops_per_s;
  std::vector<double> p50;
  std::vector<double> p99;
  std::uint64_t samples = 0;
  for (const Figures& window : m.windows) samples += window.samples;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t first = g * windows / groups;
    const std::size_t last = (g + 1) * windows / groups;
    const std::size_t fastest = pick(m.slices, first * slices, last * slices,
                                     [](const Figures& a, const Figures& b) {
                                       return a.ops_per_s > b.ops_per_s;
                                     });
    const std::size_t lowest_p50 = pick(m.slices, first * slices, last * slices,
                                        [](const Figures& a, const Figures& b) {
                                          return a.p50_us < b.p50_us;
                                        });
    const std::size_t lowest_p99 =
        pick(m.windows, first, last, [](const Figures& a, const Figures& b) {
          return a.p99_us < b.p99_us;
        });
    ops_per_s.push_back(m.slices[fastest].ops_per_s);
    p50.push_back(m.slices[lowest_p50].p50_us);
    p99.push_back(m.windows[lowest_p99].p99_us);
    for (std::size_t w = first; w < last; ++w) {
      const Figures& f = m.windows[w];
      char line[160];
      std::snprintf(line, sizeof(line),
                    "window %.2fs  ops_per_s %.6g  p50_us %.6g  p99_us %.6g  n=%llu%s",
                    f.seconds, f.ops_per_s, f.p50_us, f.p99_us,
                    static_cast<unsigned long long>(f.samples),
                    w == lowest_p99 ? "  (p99 used)" : "");
      result.lines.push_back(line);
    }
    char line[200];
    std::snprintf(line, sizeof(line),
                  "group %zu  fastest slice %zu: ops_per_s %.6g (n=%llu)  "
                  "lowest-p50 slice %zu: p50_us %.6g (n=%llu)",
                  g, fastest, m.slices[fastest].ops_per_s,
                  static_cast<unsigned long long>(m.slices[fastest].samples),
                  lowest_p50, m.slices[lowest_p50].p50_us,
                  static_cast<unsigned long long>(m.slices[lowest_p50].samples));
    result.lines.push_back(line);
  }
  if (groups > 1) {
    const double ops_drift = ratio(ops_per_s.back(), ops_per_s.front()) - 1.0;
    const double p50_drift = ratio(p50.back(), p50.front()) - 1.0;
    const bool drifted = std::abs(ops_drift) > kDriftFlag || std::abs(p50_drift) > kDriftFlag;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "drift  last vs first group: ops_per_s %+.1f%%  p50_us %+.1f%%%s",
                  100.0 * ops_drift, 100.0 * p50_drift,
                  drifted ? "  FLAG: beyond the bound, the run is not stationary" : "");
    result.lines.push_back(line);
  }
  const std::string groups_of = "median over " + std::to_string(groups) +
                                " groups of " + std::to_string(windows) +
                                " windows x " + std::to_string(slices) +
                                " slices, n=" + std::to_string(samples);
  const std::string n50 = "lowest-p50 slice per group, " + groups_of;
  const std::string n99 = "lowest-p99 window per group, " + groups_of;
  const double ops = median(ops_per_s);
  auto add = [&](const std::string& name, double value, const std::string& unit,
                 bool json, const std::string& note) {
    result.end_to_end.push_back({name, value, unit, json, note});
  };
  add("ops_per_s", ops, "1/s", true, ops_alias + ", fastest slice per group, " + groups_of);
  add("p50_us", median(p50), "us", true, n50);
  add("p99_us", median(p99), "us", true, n99);
  add("setup_s", setup_s, "s", true, "");
  add("rss_mb", peak_rss_mb(), "MB", true, "");
  add(ops_alias, ops, "1/s", false, "");
  add(latency_prefix + "_p50_us", median(p50), "us", false, n50);
  add(latency_prefix + "_p99_us", median(p99), "us", false, n99);
  add("failed_share",
      ratio(static_cast<double>(m.total.failed),
            static_cast<double>(m.total.attempted)),
      "ratio", false,
      std::to_string(m.total.failed) + "/" + std::to_string(m.total.attempted));
}

void add_layer_metrics(Result& result, const LayerInputs& in) {
  const Tracer& t = in.m->tracer;
  const Counts& c = in.m->total.counts;
  const double renewals = static_cast<double>(in.renewals);
  const double processed = static_cast<double>(c[Ctr::kProcessed]);
  const double checks = static_cast<double>(in.checks);
  auto add = [&](const std::string& name, double value, const std::string& unit,
                 bool json = true, std::string note = "") {
    result.per_layer.push_back({name, value, unit, json, std::move(note)});
  };
  auto self_per = [&](SpanKind kind, double base) {
    return ratio(static_cast<double>(t.totals(kind).self_ns), base);
  };

  add("wire.encode_ns", self_per(SpanKind::kWireEncode, renewals), "ns");
  add("wire.decode_ns", self_per(SpanKind::kWireDecode, renewals), "ns");
  add("wire.bytes_per_renewal",
      ratio(static_cast<double>(in.m->total.wire_bytes), renewals), "B");

  const Tracer::Totals& submit = t.totals(SpanKind::kSubmit);
  if (submit.calls > 0) {
    add("scheduler.submit_ns",
        ratio(static_cast<double>(submit.self_ns),
              static_cast<double>(submit.calls)),
        "ns", false);
  }
  const Tracer::Totals& drain = t.totals(SpanKind::kDrain);
  const Tracer::Totals& renew_now = t.totals(SpanKind::kRenewNow);
  const double drain_ns = static_cast<double>(drain.total_ns + renew_now.total_ns);
  add("scheduler.drain_ns_per_renewal", ratio(drain_ns, processed), "ns");
  add("scheduler.renewals_per_drain",
      ratio(processed, static_cast<double>(drain.calls + renew_now.calls)),
      "count");
  std::uint64_t max_shard = 0;
  std::uint64_t sum_shard = 0;
  for (std::size_t s = 0; s < in.shards && s < kMaxShards; ++s) {
    max_shard = std::max(max_shard, c.processed_by_shard[s]);
    sum_shard += c.processed_by_shard[s];
  }
  add("scheduler.shard_skew",
      ratio(static_cast<double>(max_shard),
            static_cast<double>(sum_shard) / static_cast<double>(in.shards)),
      "ratio");
  add("scheduler.rejections",
      static_cast<double>(c[Ctr::kBackpressure] + c[Ctr::kDownRejections]),
      "count");

  add("shard.grant_ratio", ratio(static_cast<double>(c[Ctr::kGranted]), processed),
      "ratio");
  add("shard.rotations", static_cast<double>(in.rotations), "count");
  add("shard.leases_start", static_cast<double>(in.leases_start), "count");
  add("shard.leases_end", static_cast<double>(in.leases_end), "count");
  add("shard.renewals_per_commit",
      ratio(processed, static_cast<double>(c[Ctr::kBatchCommits])), "count");
  add("shard.checkpoints_per_1k",
      1e3 * ratio(static_cast<double>(c[Ctr::kCheckpoints]), processed), "count");
  add("tree.commits_per_renewal",
      ratio(static_cast<double>(c[Ctr::kTreeCommits]), processed), "count");
  add("journal.appends_per_renewal",
      ratio(static_cast<double>(c[Ctr::kJournalAppends]), processed), "count");
  add("journal.bytes_per_renewal",
      ratio(static_cast<double>(c[Ctr::kJournalBytes]), processed), "B");
  add("journal.syncs_per_renewal",
      ratio(static_cast<double>(c[Ctr::kJournalSyncs]), processed), "count");
  add("replication.shipped_bytes_per_renewal",
      ratio(static_cast<double>(c[Ctr::kReplShippedBytes]), processed), "B");
  add("replication.acks_per_commit",
      ratio(static_cast<double>(c[Ctr::kReplAcks]),
            static_cast<double>(c[Ctr::kJournalSyncs])),
      "count");
  add("replication.retransmits", static_cast<double>(c[Ctr::kReplRetransmits]),
      "count");
  add("client.attestations_per_1k_checks",
      1e3 * ratio(static_cast<double>(in.attestations), checks), "count");
  add("client.renewals_per_1k_checks", 1e3 * ratio(renewals, checks), "count");
  add("sgxsim.ecalls_per_check",
      ratio(static_cast<double>(c[Ctr::kSgxEcalls]), checks), "count");
  add("sgxsim.epc_faults_per_check",
      ratio(static_cast<double>(c[Ctr::kSgxEpcFaults]), checks), "count");
  add("net.attempts_per_renewal",
      ratio(static_cast<double>(c[Ctr::kNetAttempts]), renewals), "count");
  add("bench.tracing_overhead_pct",
      100.0 * (ratio(in.m->traced_p50_ns, in.m->untraced_p50_ns) - 1.0), "%", true,
      "p50 traced vs untraced");
}

// --- Checks --------------------------------------------------------------------

void check_router_state(Result& result, sl::lease::ShardRouter& router,
                        std::uint64_t leases_start) {
  const std::uint64_t fast = router.state_digest();
  const std::uint64_t full = router.state_digest_full();
  char detail[64];
  std::snprintf(detail, sizeof(detail), "%016llx vs %016llx",
                static_cast<unsigned long long>(fast),
                static_cast<unsigned long long>(full));
  result.check("state_digest_matches_full", fast == full, detail);
  std::size_t unbalanced = 0;
  const auto ledgers = router.ledgers();
  for (const auto& [lease, ledger] : ledgers) {
    if (!ledger.balanced()) unbalanced++;
  }
  result.check("ledgers_balanced", unbalanced == 0,
               std::to_string(unbalanced) + " of " +
                   std::to_string(ledgers.size()) + " unbalanced");
  // Rotation reuses lease ids, so the state a run works on keeps its size.
  const std::uint64_t leases_end = lease_count(router);
  result.check("lease_count_constant", leases_end == leases_start,
               std::to_string(leases_start) + " -> " + std::to_string(leases_end));
}

void check_reconciliation(Result& result, const Counts& d,
                          std::uint64_t submits, std::uint64_t decoded,
                          std::uint64_t granted, std::uint64_t denied) {
  const std::uint64_t processed = d[Ctr::kProcessed];
  result.check("granted_plus_denied_is_processed",
               d[Ctr::kGranted] + d[Ctr::kDenied] == processed,
               std::to_string(d[Ctr::kGranted]) + "+" +
                   std::to_string(d[Ctr::kDenied]) + " vs " +
                   std::to_string(processed));
  result.check("processed_is_responses_decoded", processed == decoded,
               std::to_string(processed) + " vs " + std::to_string(decoded));
  result.check("decoded_grants_match_registry",
               granted == d[Ctr::kGranted] && denied == d[Ctr::kDenied],
               std::to_string(granted) + "/" + std::to_string(denied) +
                   " vs " + std::to_string(d[Ctr::kGranted]) + "/" +
                   std::to_string(d[Ctr::kDenied]));
  const std::uint64_t rejected =
      d[Ctr::kBackpressure] + d[Ctr::kDownRejections];
  result.check("submitted_plus_rejected_is_attempted",
               d[Ctr::kEnqueued] + rejected == submits,
               std::to_string(d[Ctr::kEnqueued]) + "+" +
                   std::to_string(rejected) + " vs " + std::to_string(submits));
  result.check("replication_retransmits_zero", d[Ctr::kReplRetransmits] == 0,
               std::to_string(d[Ctr::kReplRetransmits]));
}

std::uint64_t lease_count(const sl::lease::ShardRouter& router) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    total += router.shard(s).remote().provisioned_leases().size();
  }
  return total;
}

// VmHWM belongs to this process's address space. getrusage's ru_maxrss
// would also count the parent's peak at fork, i.e. the Python of run.py.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[128];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace bench
