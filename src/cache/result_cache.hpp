// Memoization layer over the identification searches and the per-workload
// DFG extraction — the Explorer's "result caching" seam.
//
// Identification (paper Problem 1) is a pure function of the block graph,
// the microarchitectural constraints and the latency model; the memo table
// keys on exactly that triple (graph keyed by its DfgFingerprint, model by
// its cost-table signature) and stores the full SingleCutResult /
// MultiCutResult, enumeration statistics included — a hit is byte-identical
// to re-running the search. Constraint sweeps and repeated requests through
// one Explorer therefore pay the exponential enumeration cost once per
// distinct key instead of once per request.
//
// The extraction cache keys on (workload key, DfgOptions) — the Explorer
// passes Workload::cache_key(), so a key names the module's content — and
// remembers the profiled, frequency-weighted block graphs plus the measured
// base cycle count, so one Explorer never re-profiles an unchanged
// workload. Because the closure rows (descendants, data successors) live
// inside the finalized Dfg, a snapshot hit also reuses them — repeated
// identification over a cached graph never recomputes a closure. Rewriting
// requests bypass it entirely (a rewrite mutates the module the graphs were
// extracted from; the cached pristine extraction stays valid for future
// by-name requests).
//
// The load memo remembers, for each ir_text document loaded through it, the
// workload's extraction-cache key and name, keyed on the document's digest,
// so a repeated document runs by key like a registry kernel and is loaded
// again only when the run reads its module or misses the extraction cache.
//
// All three tables are bounded LRU and thread-safe (misses compute outside
// the lock, so parallel per-block identification keeps scaling; a racing
// duplicate computation of the same pure key is benign). The memo table —
// not the extraction cache, whose graphs are cheap to rebuild relative to
// their serialized size, nor the load memo — can be persisted to JSON so
// repeated bench or sweep runs start warm.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/counters.hpp"
#include "cache/fingerprint.hpp"
#include "core/multi_cut.hpp"
#include "core/single_cut.hpp"
#include "support/json.hpp"

namespace isex {

struct ResultCacheConfig {
  /// Identification memo capacity; least-recently-used entries are evicted
  /// above it. Must be >= 1.
  std::size_t max_entries = 1 << 16;
  /// Extraction-cache capacity in workloads. Must be >= 1.
  std::size_t max_dfg_entries = 32;
};

/// An ir_text document's identity in the load memo: hash_bytes of its bytes
/// and their count. The hash is 64-bit and non-cryptographic, as strong as
/// the content fingerprint in the extraction key; the memo never compares
/// the bytes themselves.
struct TextDigest {
  std::uint64_t hash = 0;
  std::size_t size = 0;

  friend bool operator==(const TextDigest&, const TextDigest&) = default;
};
TextDigest text_digest(std::string_view text);

/// What a document loaded to: its workload's extraction-cache key
/// (Workload::cache_key()) and name.
struct LoadedText {
  std::string cache_key;
  std::string name;
};

class ResultCache {
 public:
  explicit ResultCache(ResultCacheConfig config = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // --- identification memo -------------------------------------------------
  // Every lookup/store entry point takes an optional `local` counter sink
  // that receives the same increments as the cache-lifetime counters (under
  // the cache lock, so one request's workers may share a sink). Reports use
  // it to attribute per-request deltas even when several requests run
  // through one cache concurrently.

  /// find_best_cut through the memo table, counting into
  /// `search.cache_counters` (`search.cache` is not consulted: this cache
  /// is). `search` steers the engine on a miss; because every engine is
  /// byte-identical it never affects what a hit returns or what gets
  /// stored — with one carve-out: a miss computed under a shared
  /// `search.budget` gate that exhausted — or under a `search.cancel` token
  /// that tripped — is a partial result the key cannot see, so it is
  /// returned to the caller but never stored (hits stay free of budget
  /// charges either way — a warm entry is the full enumeration's answer).
  SingleCutResult single_cut(const Dfg& g, const LatencyModel& latency,
                             const Constraints& constraints,
                             const CutSearchOptions& search = {});
  /// find_best_cuts through the memo table, with the same counting and
  /// partial-result store refusal as single_cut.
  MultiCutResult multi_cut(const Dfg& g, const LatencyModel& latency,
                           const Constraints& constraints, int num_cuts,
                           const CutSearchOptions& search = {});

  // --- extraction cache ----------------------------------------------------
  /// A shared snapshot of the cached extraction (null on miss); the graphs
  /// are immutable and stay alive through the returned pointer even if the
  /// entry is evicted mid-use. No graph copies are made under the lock.
  std::shared_ptr<const std::vector<Dfg>> lookup_dfgs(const std::string& workload,
                                                      const DfgOptions& options,
                                                      double* base_cycles,
                                                      CacheCounters* local = nullptr);
  /// `graphs` must not be mutated after the call (callers typically build it
  /// with make_shared and keep reading through the same snapshot).
  void store_dfgs(const std::string& workload, const DfgOptions& options,
                  std::shared_ptr<const std::vector<Dfg>> graphs, double base_cycles,
                  CacheCounters* local = nullptr);

  // --- load memo -----------------------------------------------------------
  // Holds at most max_dfg_entries documents, since a mapping only helps
  // while its graphs are cached. Neither counted nor persisted.

  /// What the document with `digest` loaded to (bumping its recency), or
  /// nullopt when no document with that digest was stored.
  std::optional<LoadedText> lookup_text(const TextDigest& digest);
  /// Remembers what a document loaded to; store only documents that loaded.
  void store_text(const TextDigest& digest, LoadedText loaded);

  // --- introspection -------------------------------------------------------
  CacheCounters counters() const;
  std::size_t num_entries() const;
  std::size_t num_dfg_entries() const;
  std::size_t num_text_entries() const;
  /// Drops all entries; counters are kept (they are lifetime totals).
  void clear();

  // --- persistence (identification memo only) ------------------------------
  Json to_json() const;
  /// Inserts entries from a to_json() payload; existing keys keep their
  /// in-memory value. Throws isex::Error on a malformed payload.
  void merge_json(const Json& json);
  void save_file(const std::string& path) const;
  /// False (and no change) when the file does not exist; throws on a file
  /// that exists but cannot be read or does not parse, and on a version or
  /// algorithm mismatch (a stale warm start must fail loudly, not replay a
  /// previous algorithm's results).
  bool load_file(const std::string& path);

 private:
  struct MemoKey {
    DfgFingerprint fingerprint;
    std::uint64_t latency_sig = 0;
    Constraints constraints;
    int num_cuts = 0;  // 0: single-cut entry; >= 1: multi-cut entry

    friend bool operator==(const MemoKey&, const MemoKey&) = default;
  };
  struct MemoKeyHash {
    std::size_t operator()(const MemoKey& k) const;
  };
  struct MemoEntry {
    // Exactly one is set, matching key.num_cuts. Shared immutable snapshots:
    // a hit copies two pointers under the lock, never a result.
    std::shared_ptr<const SingleCutResult> single;
    std::shared_ptr<const MultiCutResult> multi;
    /// Scope of the sink that stored the entry (empty = untagged, e.g. a
    /// warm-start load): hits from a different non-empty scope count as
    /// cross-workload sharing.
    std::string origin_scope;
    std::list<MemoKey>::iterator lru;
  };
  struct DfgEntry {
    std::shared_ptr<const std::vector<Dfg>> graphs;
    double base_cycles = 0.0;
    std::list<std::string>::iterator lru;
  };
  struct TextDigestHash {
    std::size_t operator()(const TextDigest& d) const;
  };
  struct TextEntry {
    LoadedText loaded;
    std::list<TextDigest>::iterator lru;
  };

  /// Returns the entry for `key` (empty on miss) and bumps its recency;
  /// counts the hit/miss. Caller holds no lock.
  std::optional<MemoEntry> lookup_memo(const MemoKey& key, CacheCounters* local);
  /// Inserts `entry` unless another thread won the race; evicts LRU overflow.
  void insert_memo(const MemoKey& key, MemoEntry entry, CacheCounters* local);
  void insert_memo_locked(const MemoKey& key, MemoEntry entry, CacheCounters* local);

  ResultCacheConfig config_;

  mutable std::mutex mu_;
  std::unordered_map<MemoKey, MemoEntry, MemoKeyHash> memo_;
  std::list<MemoKey> memo_lru_;  // front = most recent

  std::unordered_map<std::string, DfgEntry> dfgs_;  // key: name + options sig
  std::list<std::string> dfg_lru_;

  std::unordered_map<TextDigest, TextEntry, TextDigestHash> texts_;
  std::list<TextDigest> text_lru_;

  CacheCounters counters_;
};

/// Identification through `search.cache`, or the plain search when it is
/// null, so callers thread an optional cache without branching at every
/// call site.
SingleCutResult cached_single_cut(const Dfg& g, const LatencyModel& latency,
                                  const Constraints& constraints,
                                  const CutSearchOptions& search = {});
MultiCutResult cached_multi_cut(const Dfg& g, const LatencyModel& latency,
                                const Constraints& constraints, int num_cuts,
                                const CutSearchOptions& search = {});

}  // namespace isex
