// Cross-query adaptive knowledge store (the "micro-adaptivity knowledge
// base" direction of paper §6): per-plan-site flavor profiles merged
// across queries, snapshotted into warm-start priors for fresh
// PrimitiveInstances, and persisted across process restarts.
//
// Contract — learned state vs result state: everything in this store is
// REWARD state (which flavor ran how fast). All flavors of a primitive
// are bit-exact by the flavor contract, so nothing read from the store
// can change result bytes — a warm-started run and a cold run may pick
// different flavors in different orders yet produce byte-identical
// tables. The tests assert exactly that (tests/knowledge_test.cc), and
// docs/ADAPTIVITY.md spells out the argument.
//
// Persistence is a versioned binary file: magic, version, payload size,
// FNV-1a-64 checksum, then length-prefixed profiles. Load is
// all-or-nothing — a missing, truncated or corrupt file leaves the
// store EMPTY and returns an error the caller may ignore (cold start),
// never a partially-applied state.
#ifndef MA_KNOWLEDGE_PROFILE_STORE_H_
#define MA_KNOWLEDGE_PROFILE_STORE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "adapt/profile_merge.h"
#include "adapt/warm_start.h"
#include "common/status.h"

namespace ma::knowledge {

/// Cumulative usage of one flavor at one plan site, across all merged
/// queries. Mirrors FlavorUsageProfile; timed_tuples keeps the prior
/// cost (cycles/timed_tuples) unbiased under chunked dispatch.
struct StoredFlavor {
  std::string flavor;
  u64 calls = 0;
  u64 tuples = 0;
  u64 cycles = 0;
  u64 timed_tuples = 0;
};

/// Everything the store knows about one plan site, keyed by
/// (site label, primitive signature). The label identifies the plan
/// site ("q1/select"); the signature pins the primitive, so a plan
/// change that rebinds a label to a different primitive starts a fresh
/// profile instead of polluting the old one.
struct StoredProfile {
  std::string site;
  std::string signature;
  u64 queries = 0;    // how many query profiles were folded in
  u64 instances = 0;  // per-thread instances across those queries
  u64 calls = 0;
  u64 tuples = 0;
  u64 cycles = 0;
  std::vector<StoredFlavor> flavors;
};

/// Thread-safe accumulator of per-site flavor knowledge. One store is
/// typically shared by a WorkloadServer's drivers: Merge() after every
/// successful query, Snapshot() before every run to seed priors.
class ProfileStore {
 public:
  ProfileStore() = default;
  ProfileStore(const ProfileStore&) = delete;
  ProfileStore& operator=(const ProfileStore&) = delete;

  /// Folds one query's merged profile (QuerySession::Profile()) into
  /// the store. Rows that never ran (calls == 0) are skipped.
  void Merge(const std::vector<InstanceProfile>& profile);

  /// Immutable warm-start view of the current knowledge: per site, the
  /// mean cost (cycles/timed_tuples) of every flavor with timed
  /// observations. Cached between mutations — repeated calls without an
  /// intervening Merge/Load/Clear return the same shared snapshot.
  std::shared_ptr<const WarmStartSnapshot> Snapshot() const;

  /// All profiles in key order (deterministic), for reporting/tests.
  std::vector<StoredProfile> Dump() const;

  void Clear();
  size_t size() const;
  /// Total query profiles folded in via Merge() since construction
  /// (Load/Deserialize do not count).
  u64 profiles_merged() const;

  // --- persistence ---
  /// Serializes the store to the versioned binary format. Profiles are
  /// emitted in key order, so equal stores serialize to equal bytes
  /// (round-trip tests compare byte-for-byte).
  std::string Serialize() const;
  /// All-or-nothing inverse of Serialize(). On any error (bad magic,
  /// unsupported version, checksum mismatch, truncation) the store is
  /// left EMPTY and the error is returned.
  Status Deserialize(std::string_view bytes);
  /// Serialize() to `path` atomically (write to path + ".tmp", rename).
  Status Save(const std::string& path) const;
  /// Deserialize() the contents of `path`. A missing or unreadable or
  /// corrupt file empties the store and returns an error — callers that
  /// want cold-start-on-anything just ignore it.
  Status Load(const std::string& path);

 private:
  using Key = std::pair<std::string, std::string>;  // (site, signature)

  mutable std::mutex mu_;
  /// std::map: deterministic iteration order makes Serialize/Dump
  /// deterministic without an extra sort.
  std::map<Key, StoredProfile> profiles_;
  u64 merged_ = 0;
  /// Lazily built, invalidated on every mutation.
  mutable std::shared_ptr<const WarmStartSnapshot> snapshot_;
};

/// Knowledge wiring for a WorkloadServer (serve/workload_server.h).
struct KnowledgeConfig {
  /// Reuse compiled stage-DAGs across queries with equal fingerprints.
  bool plan_cache = true;
  /// Merge each successful query's profile into the store.
  bool learn = true;
  /// Seed fresh sessions' bandits from the store's snapshot.
  bool warm_start = true;
  /// When non-empty: Load() the store from this path at server start
  /// (cold start if missing/corrupt) and Save() it on Shutdown().
  std::string store_path;
  /// External store shared across servers/passes; the server creates a
  /// private one when null.
  std::shared_ptr<ProfileStore> store;
};

}  // namespace ma::knowledge

#endif  // MA_KNOWLEDGE_PROFILE_STORE_H_
