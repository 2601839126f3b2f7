// Timed probes of the layers hidden inside drain_all / renew_now.
//
// Each probe times a public call at the state size the run reached and
// reports ns per call next to that call's count per renewal. Counts come
// from registry deltas where a counter exists; the rest are read off the
// code and named in perfbench/NOTES.md (one state digest per journal append
// plus one per group commit, one replicate() per group commit, one license
// validation per processed renewal).
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "crypto/aes128.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "lease/lease_tree.hpp"
#include "lease/remote_shard.hpp"
#include "lease/sl_local.hpp"
#include "replication/group.hpp"
#include "sgxsim/attestation.hpp"
#include "storage/journal.hpp"

namespace bench {

namespace {

using sl::Bytes;

constexpr int kRounds = 7;
volatile std::uint64_t g_sink = 0;  // keeps probed results observable

// Median over kRounds of the mean ns per call of `calls` calls to `fn`.
template <typename Fn>
double probe_ns(int calls, Fn&& fn) {
  std::vector<double> per_call;
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < calls; ++i) fn(i);
    per_call.push_back(static_cast<double>(now_ns() - t0) / calls);
  }
  return median(per_call);
}

// Same, for probes whose set-up per call must stay outside the timing:
// `fn` returns the ns it measured itself.
template <typename Fn>
double probe_self_timed_ns(int calls, Fn&& fn) {
  std::vector<double> per_call;
  for (int r = 0; r < kRounds; ++r) {
    std::uint64_t total = 0;
    for (int i = 0; i < calls; ++i) total += fn(i);
    per_call.push_back(static_cast<double>(total) / calls);
  }
  return median(per_call);
}

}  // namespace

void add_probe_metrics(Result& result, sl::lease::ShardRouter& router,
                       const sl::lease::LicenseAuthority& authority,
                       const sl::lease::LicenseFile& license,
                       const LayerInputs& in, std::uint64_t seed) {
  const Counts& c = in.m->total.counts;
  const double processed = static_cast<double>(c[Ctr::kProcessed]);
  const std::uint64_t leases_per_shard =
      std::max<std::uint64_t>(1, (in.leases_end + in.shards - 1) / in.shards);
  sl::Rng rng(sl::splitmix64_key(3, seed));
  auto add = [&](const std::string& name, double ns, double calls_per_renewal) {
    char note[64];
    std::snprintf(note, sizeof(note), "calls/renewal=%.4g", calls_per_renewal);
    result.per_layer.push_back({name, ns, "ns", true, note});
  };

  // --- crypto ------------------------------------------------------------------
  {
    sl::crypto::AesKey key{};
    for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(rng.next_u32());
    const sl::crypto::Aes128 aes(key);
    sl::crypto::AesBlock block{};
    const double aes_ns = probe_ns(20'000, [&](int) {
      block = aes.encrypt_block(block);
    });
    g_sink = g_sink + block[0];
    const Bytes buffer = rng.next_bytes(4096);
    // 4096 bytes = 64 blocks, plus the padding block finish() adds.
    const double sha_ns = probe_ns(200, [&](int) {
      g_sink = g_sink + sl::crypto::Sha256::hash(buffer)[0];
    }) / 65.0;
    const Bytes hmac_key = rng.next_bytes(32);
    const Bytes payload = license.signed_payload();
    const double hmac_ns = probe_ns(5'000, [&](int) {
      g_sink = g_sink + sl::crypto::hmac_sha256(hmac_key, payload)[0];
    });
    // Crypto runs inside the calls probed below, so it is not summed again.
    for (const auto& [name, ns] : {std::pair{"crypto.aes_block_ns", aes_ns},
                                   std::pair{"crypto.sha256_block_ns", sha_ns},
                                   std::pair{"crypto.hmac_ns", hmac_ns}}) {
      result.per_layer.push_back({name, ns, "ns", true, "inside the probes below"});
    }
  }

  // --- shard: validation and state digest on the run's final state --------------
  Bytes scratch;
  const double validate_ns = probe_ns(5'000, [&](int) {
    g_sink = g_sink + authority.validate_with_scratch(license, scratch);
  });
  const double validates = 1.0;  // SlRemote::renew validates every request
  add("shard.validate_ns", validate_ns, validates);

  const int digest_calls = std::max(5, static_cast<int>(200'000 / leases_per_shard));
  const double digest_ns = probe_ns(digest_calls, [&](int i) {
    g_sink = g_sink + router.shard(static_cast<std::size_t>(i) % router.shard_count()).state_digest();
  });
  const bool journaled = router.shard(0).journal() != nullptr;
  const double appends = ratio(static_cast<double>(c[Ctr::kJournalAppends]), processed);
  const double syncs = ratio(static_cast<double>(c[Ctr::kJournalSyncs]), processed);
  const double digests = journaled ? appends + syncs : 0.0;
  add("shard.state_digest_ns", digest_ns, digests);

  // --- tree: incremental commit on a twin tree of the run's size ----------------
  double commit_ns = 0.0;
  {
    sl::lease::UntrustedStore store;
    auto arenas = sl::lease::LeaseTree::make_arenas();
    sl::lease::LeaseTree tree(sl::splitmix64_key(4, seed), store, arenas.get());
    tree.set_cache_commits(true);
    for (std::uint64_t i = 0; i < leases_per_shard; ++i) {
      const auto id = static_cast<sl::lease::LeaseId>(1000 + i);
      tree.insert(id, sl::lease::Gcl(sl::lease::LeaseKind::kCountBased, 1'000'000));
      tree.commit_lease(id);
    }
    commit_ns = probe_self_timed_ns(5'000, [&](int i) {
      const auto id = static_cast<sl::lease::LeaseId>(
          1000 + rng.next_below(leases_per_shard));
      sl::lease::LeaseRecord* record = tree.find(id);
      record->set_gcl(sl::lease::Gcl(sl::lease::LeaseKind::kCountBased,
                                     1'000'000 - static_cast<std::uint64_t>(i)));
      const std::uint64_t t0 = now_ns();
      tree.mark_dirty(id);
      tree.commit_lease(id);
      return now_ns() - t0;
    });
  }
  const double commits = ratio(static_cast<double>(c[Ctr::kTreeCommits]), processed);
  add("tree.commit_ns", commit_ns, commits);

  // --- journal + replication: a twin journal and f=1 group ----------------------
  // Record size and records per commit follow the run; runs without a
  // journal probe a 64-byte record, one per commit.
  const std::uint64_t frame_overhead = 28 + 32;  // frame header + sealed hash
  const std::uint64_t mean_frame =
      c[Ctr::kJournalAppends] > 0 ? c[Ctr::kJournalBytes] / c[Ctr::kJournalAppends] : 0;
  const Bytes record = rng.next_bytes(
      mean_frame > frame_overhead + 16 ? mean_frame - frame_overhead : 64);
  const int per_commit = std::clamp<int>(
      c[Ctr::kJournalSyncs] > 0
          ? static_cast<int>(c[Ctr::kJournalAppends] / c[Ctr::kJournalSyncs])
          : 1,
      1, 256);
  double append_ns = 0.0;
  double sync_ns = 0.0;
  double replicate_ns = 0.0;
  {
    sl::storage::JournalConfig config;
    config.master_key = sl::splitmix64_key(5, seed) | 1;
    sl::storage::Journal journal(config);
    sl::replication::GroupConfig group_config;
    group_config.replicas = 3;
    group_config.master_key = config.master_key;
    sl::replication::ReplicaGroup group(group_config, &journal);
    append_ns = probe_ns(300, [&](int) { journal.append(record); });
    sync_ns = probe_self_timed_ns(300, [&](int) {
      journal.append(record);
      const std::uint64_t t0 = now_ns();
      journal.sync();
      return now_ns() - t0;
    });
    group.replicate();  // ship the probes' backlog outside the timing
    replicate_ns = probe_self_timed_ns(40, [&](int) {
      for (int k = 0; k < per_commit; ++k) journal.append(record);
      journal.sync();
      const std::uint64_t t0 = now_ns();
      g_sink = g_sink + group.replicate();
      return now_ns() - t0;
    });
  }
  add("journal.append_ns", append_ns, appends);
  add("journal.sync_ns", sync_ns, syncs);
  const double replicates = router.shard(0).replication_enabled() ? syncs : 0.0;
  add("replication.replicate_ns", replicate_ns, replicates);

  // --- checkpoint on a twin shard holding the run's lease count -----------------
  double checkpoint_ns = 0.0;
  {
    sl::sgx::AttestationService ias;
    sl::lease::ShardConfig config;
    config.durability.journaling = true;
    config.durability.replicas = 3;
    sl::lease::RemoteShard twin(authority, ias,
                                sl::lease::SlLocal::expected_measurement(), config);
    for (std::uint64_t i = 0; i < leases_per_shard; ++i) {
      twin.provision(authority.issue(static_cast<sl::lease::LeaseId>(1 + i),
                                     "bench/twin/" + std::to_string(i),
                                     sl::lease::LeaseKind::kCountBased,
                                     1'000'000'000));
    }
    checkpoint_ns = probe_ns(3, [&](int) { twin.checkpoint(); });
  }
  const double checkpoints = ratio(static_cast<double>(c[Ctr::kCheckpoints]), processed);
  add("shard.checkpoint_ns", checkpoint_ns, checkpoints);

  // --- how much of the drain the probes explain --------------------------------
  // Server-side time per renewal: the deterministic backend enqueues (and
  // journals the intent record) inside submit, the thread backend inside
  // the drain, so both spans count.
  const Tracer& t = in.m->tracer;
  const double server_per_renewal =
      ratio(static_cast<double>(t.totals(SpanKind::kSubmit).total_ns +
                              t.totals(SpanKind::kDrain).total_ns +
                              t.totals(SpanKind::kRenewNow).total_ns),
          processed);
  const double explained = validate_ns * validates + digest_ns * digests +
                           commit_ns * commits + append_ns * appends +
                           sync_ns * syncs + replicate_ns * replicates +
                           checkpoint_ns * checkpoints;
  result.per_layer.push_back(
      {"bench.drain_explained_share", ratio(explained, server_per_renewal),
       "ratio", true,
       "sum of probe ns x calls/renewal over submit + drain ns/renewal"});
}

}  // namespace bench
