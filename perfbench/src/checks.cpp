// license-checks: the per-execution check that the paper's Fig. 9 prices.
//
// Eight SL-Local nodes, each with one SL-Manager granting 10 executions per
// local attestation (the paper's tuned value), run against two in-memory
// shards through ShardGateway with the ThreadScheduler attached. One thread
// calls authorize_execution round-robin in a closed loop. Nine calls in ten
// consume a cached token; the tenth attests locally and asks SL-Local for a
// token; SL-Local renews from SL-Remote only when its sub-GCL runs dry, so
// renewals are a small minority here, the reverse of the renew-* workloads.
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "lease/gateway.hpp"
#include "lease/lease_tree.hpp"
#include "lease/sl_local.hpp"
#include "lease/sl_manager.hpp"
#include "lease/thread_backend.hpp"
#include "lease/wire.hpp"
#include "net/network.hpp"
#include "sgxsim/attestation.hpp"
#include "sgxsim/runtime.hpp"

namespace bench {

namespace {

using sl::lease::LeaseId;
using sl::lease::LicenseFile;
using sl::lease::ShardRouter;
using sl::lease::SlRemote;
namespace wire = sl::lease::wire;

constexpr std::size_t kNodes = 8;
constexpr std::size_t kShards = 2;
constexpr std::uint32_t kTokensPerAttestation = 10;
// Sized so that each node renews from SL-Remote every few thousand checks
// and rotates to a successor license a few times per run (see NOTES.md).
constexpr std::uint64_t kLicenseTotal = 200'000;
constexpr LeaseId kFirstLease = 2'000;
constexpr int kSetups = 15;

// Renewal traffic seen by every node's gateway.
struct GatewayTally {
  std::uint64_t calls = 0;
  std::uint64_t transport_failures = 0;
  std::uint64_t decoded = 0;
  std::uint64_t granted = 0;  // decoded grants
  std::uint64_t denied = 0;
  std::uint64_t granted_counts = 0;  // sum of granted sub-GCL sizes
  std::uint64_t wire_errors = 0;
  std::uint64_t wire_bytes = 0;
};

// RemoteGateway decorator: serializes every renewal through the wire codec,
// as a deployment would, and spans the call around ShardGateway::renew.
class BenchGateway final : public sl::lease::RemoteGateway {
 public:
  BenchGateway(sl::lease::RemoteGateway& inner, GatewayTally& tally)
      : inner_(inner), tally_(tally) {}

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  std::optional<SlRemote::InitResult> init(const sl::sgx::Quote& quote,
                                           sl::lease::Slid claimed_slid) override {
    return inner_.init(quote, claimed_slid);
  }

  std::optional<SlRemote::RenewResult> renew(sl::lease::Slid slid,
                                             const LicenseFile& license,
                                             double health, double network,
                                             std::uint64_t consumed,
                                             std::uint64_t request_id) override {
    Span span(tracer_, SpanKind::kGatewayRenew);
    tally_.calls++;
    wire::RenewRequest request;
    request.slid = slid;
    request.license = license;
    request.health = health;
    request.network = network;
    request.consumed = consumed;
    request.request_id = request_id;
    const std::optional<wire::RenewRequest> decoded_request =
        round_trip(tracer_, request, tally_.wire_bytes);
    if (!decoded_request.has_value() ||
        decoded_request->request_id != request_id ||
        decoded_request->license.signature != license.signature) {
      tally_.wire_errors++;
      return std::nullopt;
    }
    const std::optional<SlRemote::RenewResult> result = inner_.renew(
        decoded_request->slid, decoded_request->license, decoded_request->health,
        decoded_request->network, decoded_request->consumed,
        decoded_request->request_id);
    if (!result.has_value()) {
      tally_.transport_failures++;
      return std::nullopt;
    }
    wire::RenewResponse response;
    response.ok = result->ok;
    response.granted = result->granted;
    const std::optional<wire::RenewResponse> decoded =
        round_trip(tracer_, response, tally_.wire_bytes);
    if (!decoded.has_value() || decoded->granted != result->granted) {
      tally_.wire_errors++;
      return std::nullopt;
    }
    tally_.decoded++;
    if (decoded->ok) {
      tally_.granted++;
      tally_.granted_counts += decoded->granted;
    } else {
      tally_.denied++;
    }
    return SlRemote::RenewResult{decoded->ok, decoded->granted};
  }

  bool graceful_shutdown(
      sl::lease::Slid slid, std::uint64_t root_key,
      const std::unordered_map<LeaseId, std::uint64_t>& unused) override {
    return inner_.graceful_shutdown(slid, root_key, unused);
  }
  bool attest(const sl::sgx::Quote& quote) override {
    return inner_.attest(quote);
  }

 private:
  sl::lease::RemoteGateway& inner_;
  GatewayTally& tally_;
  Tracer* tracer_ = nullptr;
};

struct Node {
  ShardRouter::CustomerId customer = 0;
  std::unique_ptr<sl::sgx::SgxRuntime> runtime;
  std::unique_ptr<sl::sgx::Platform> platform;
  std::unique_ptr<sl::lease::UntrustedStore> store;
  std::unique_ptr<sl::lease::ShardGateway> shard_gateway;
  std::unique_ptr<BenchGateway> gateway;
  std::unique_ptr<sl::lease::SlLocal> local;
  std::unique_ptr<sl::lease::SlManager> manager;
  LicenseFile license;
  std::uint64_t generation = 0;
};

// Executions authorized/denied by managers that were rotated out.
struct ManagerTotals {
  std::uint64_t granted = 0;
  std::uint64_t denied = 0;
};

class CheckWorld {
 public:
  explicit CheckWorld(std::uint64_t seed)
      : vendor_(sl::splitmix64_key(1, seed) | 1),
        router_(vendor_, ias_, sl::lease::SlLocal::expected_measurement(),
                kShards),
        network_(seed),
        threads_(router_),
        sched_(threads_) {
    nodes_.resize(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      Node& node = nodes_[i];
      node.customer = i + 1;
      const std::uint64_t platform_id = i + 1;
      const std::uint64_t secret = sl::splitmix64_key(0x200 + i, seed) | 1;
      ias_.register_platform(platform_id, secret);
      const auto net_id = static_cast<sl::net::NodeId>(platform_id);
      network_.set_link(net_id, sl::net::LinkProfile{});
      node.runtime = std::make_unique<sl::sgx::SgxRuntime>();
      node.platform =
          std::make_unique<sl::sgx::Platform>(*node.runtime, platform_id, secret);
      node.store = std::make_unique<sl::lease::UntrustedStore>();
      node.shard_gateway = std::make_unique<sl::lease::ShardGateway>(
          router_, node.customer, network_, net_id, node.runtime->clock());
      node.shard_gateway->attach_scheduler(&sched_);
      node.gateway = std::make_unique<BenchGateway>(*node.shard_gateway, tally_);
      sl::lease::SlLocalOptions options;
      options.tokens_per_attestation = kTokensPerAttestation;
      options.keygen_seed = sl::splitmix64_key(0x300 + i, seed) | 1;
      node.local = std::make_unique<sl::lease::SlLocal>(
          *node.runtime, *node.platform, *node.gateway,
          network_.link(net_id).reliability, *node.store, options);
      node.license = issue(i);
      router_.provision(node.customer, node.license);
      sl::ensure(node.local->init(0), "license-checks: SL-Local init failed");
      node.manager = make_manager(i);
    }
  }

  ShardRouter& router() { return router_; }
  const sl::lease::LicenseAuthority& vendor() const { return vendor_; }
  const LicenseFile& sample_license() const { return nodes_.front().license; }
  const GatewayTally& tally() const { return tally_; }
  std::uint64_t rotations() const { return rotations_; }
  std::uint64_t calls() const { return calls_; }  // authorize_execution calls

  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    sched_.set_tracer(tracer);
    for (Node& node : nodes_) node.gateway->set_tracer(tracer);
  }

  ManagerTotals manager_totals() const {
    ManagerTotals totals = retired_;
    for (const Node& node : nodes_) {
      totals.granted += node.manager->stats().executions_granted;
      totals.denied += node.manager->stats().executions_denied;
    }
    return totals;
  }

  // Closed loop over the nodes, round-robin; `attest` collects the latency
  // of calls that performed a local attestation (traced runs only).
  void run(double seconds, Window& window, Samples* attest) {
    const Counts before = Counts::read();
    const std::uint64_t bytes_before = tally_.wire_bytes;
    const std::uint64_t start = now_ns();
    const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
    std::size_t next = 0;
    while (now_ns() - start < budget) {
      for (int k = 0; k < 256; ++k) {
        const std::size_t index = next++ % kNodes;
        sl::lease::SlManager& manager = *nodes_[index].manager;
        const std::uint64_t acquisitions = manager.stats().acquisitions;
        const std::uint64_t t0 = now_ns();
        bool ok = false;
        {
          Span span(tracer_, SpanKind::kAuthorize);
          ok = manager.authorize_execution();
        }
        const std::uint64_t elapsed = now_ns() - t0;
        window.latency.add(elapsed);
        window.ops++;
        window.attempted++;
        calls_++;
        if (attest != nullptr && manager.stats().acquisitions != acquisitions) {
          attest->add(elapsed);
        }
        if (!ok && !exhausted(index)) window.failed++;
      }
    }
    window.seconds += static_cast<double>(now_ns() - start) / 1e9;
    window.wire_bytes += tally_.wire_bytes - bytes_before;
    window.counts.add(Counts::read().minus(before));
  }

 private:
  LicenseFile issue(std::size_t node) const {
    return vendor_.issue(kFirstLease + static_cast<LeaseId>(node),
                         "bench/n" + std::to_string(node) + "/" +
                             std::to_string(nodes_[node].generation),
                         sl::lease::LeaseKind::kCountBased, kLicenseTotal);
  }

  std::unique_ptr<sl::lease::SlManager> make_manager(std::size_t i) {
    Node& node = nodes_[i];
    return std::make_unique<sl::lease::SlManager>(
        *node.runtime, *node.platform, *node.local, "node" + std::to_string(i),
        node.license);
  }

  // A denied check on an exhausted license rotates the node to a successor
  // license under the same lease id (and a fresh manager holding it); any
  // other denial fails.
  bool exhausted(std::size_t i) {
    Node& node = nodes_[i];
    const auto ledger = router_.ledger(node.customer, node.license.lease_id);
    if (!ledger.has_value() || ledger->pool >= kExhaustedPool) return false;
    const sl::lease::SlManagerStats& stats = node.manager->stats();
    retired_.granted += stats.executions_granted;
    retired_.denied += stats.executions_denied;
    node.generation++;
    node.license = issue(i);
    router_.provision(node.customer, node.license);
    node.manager = make_manager(i);
    rotations_++;
    return true;
  }

  sl::sgx::AttestationService ias_;
  sl::lease::LicenseAuthority vendor_;
  ShardRouter router_;
  sl::net::SimNetwork network_;
  sl::lease::ThreadScheduler threads_;
  TracedScheduler sched_;
  GatewayTally tally_;
  std::vector<Node> nodes_;
  ManagerTotals retired_;
  std::uint64_t rotations_ = 0;
  std::uint64_t calls_ = 0;
  Tracer* tracer_ = nullptr;
};

}  // namespace

Result run_license_checks(const Options& options) {
  Result result;
  std::vector<double> setups;
  const std::unique_ptr<CheckWorld> world =
      set_up(options.trace ? 1 : kSetups,
             [&] { return std::make_unique<CheckWorld>(options.seed); }, setups);
  const Counts after_setup = Counts::read();
  const std::uint64_t leases_start = lease_count(world->router());

  Samples attest;
  const SegmentFn segment = [&](double seconds, Window& window, Tracer* tracer) {
    world->set_tracer(tracer);
    world->run(seconds, window, tracer != nullptr ? &attest : nullptr);
    world->set_tracer(nullptr);
  };
  {
    Window warmup;
    segment(kWarmupSeconds, warmup, nullptr);
  }
  Measurement m;
  measure(options, kWindows, kSlicesPerWindow, segment, m);
  result.attempted = m.total.attempted;
  result.failed = m.total.failed;

  const GatewayTally& tally = world->tally();
  const ManagerTotals managers = world->manager_totals();
  check_router_state(result, world->router(), leases_start);
  check_reconciliation(result, Counts::read().minus(after_setup), tally.calls,
                       tally.decoded, tally.granted, tally.denied);
  result.check("wire_round_trip",
               tally.wire_errors == 0 && tally.transport_failures == 0,
               std::to_string(tally.wire_errors) + " mismatches, " +
                   std::to_string(tally.transport_failures) +
                   " transport failures");
  const std::uint64_t decided = managers.granted + managers.denied;
  result.check("every_check_decided", decided == world->calls(),
               std::to_string(decided) + " vs " + std::to_string(world->calls()));
  // Tokens are carved out of granted sub-GCLs only: no node may authorize
  // more executions than SL-Remote ever granted it.
  result.check("executions_within_grants",
               managers.granted <= tally.granted_counts,
               std::to_string(managers.granted) + " <= " +
                   std::to_string(tally.granted_counts));

  if (!options.trace) {
    add_end_to_end(result, m, median_of_fastest_third(setups), "checks_per_s", "check");
    return result;
  }
  const Tracer::Totals& authorize = m.tracer.totals(SpanKind::kAuthorize);
  const Tracer::Totals& gateway = m.tracer.totals(SpanKind::kGatewayRenew);
  LayerInputs in;
  in.m = &m;
  in.renewals = gateway.calls;
  in.checks = m.total.attempted;
  in.attestations = attest.size();
  in.shards = kShards;
  in.rotations = world->rotations();
  in.leases_start = leases_start;
  in.leases_end = lease_count(world->router());
  add_layer_metrics(result, in);
  result.per_layer.push_back(
      {"client.authorize_ns",
       ratio(static_cast<double>(authorize.self_ns),
             static_cast<double>(authorize.calls)),
       "ns", false, "self time per check"});
  result.per_layer.push_back({"client.attest_path_us", attest.mean_ns() / 1e3,
                              "us", false,
                              "mean, n=" + std::to_string(attest.size())});
  result.per_layer.push_back(
      {"client.gateway_renew_us",
       ratio(static_cast<double>(gateway.total_ns) / 1e3,
             static_cast<double>(gateway.calls)),
       "us", false, "n=" + std::to_string(gateway.calls)});
  add_probe_metrics(result, world->router(), world->vendor(),
                    world->sample_license(), in, options.seed);
  return result;
}

}  // namespace bench
