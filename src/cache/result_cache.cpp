#include "cache/result_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/search_tables.hpp"
#include "core/serialize.hpp"
#include "support/assert.hpp"
#include "support/cancellation.hpp"
#include "support/hash.hpp"

namespace isex {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

std::uint64_t parse_hex64(const std::string& s) {
  ISEX_CHECK(!s.empty() && s.size() <= 16, "malformed cache hash '" + s + "'");
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      throw Error("malformed cache hash '" + s + "'");
    }
  }
  return v;
}

/// Extraction-cache map key; '\x1f' cannot occur in a workload name.
std::string dfg_key(const std::string& workload, const DfgOptions& options) {
  return workload + '\x1f' + hex64(dfg_options_signature(options));
}

}  // namespace

TextDigest text_digest(std::string_view text) { return {hash_bytes(text), text.size()}; }

std::size_t ResultCache::TextDigestHash::operator()(const TextDigest& d) const {
  return static_cast<std::size_t>(hash_combine(d.hash, d.size));
}

std::size_t ResultCache::MemoKeyHash::operator()(const MemoKey& k) const {
  std::uint64_t h = hash_combine(std::hash<DfgFingerprint>{}(k.fingerprint), k.latency_sig);
  h = hash_combine(h, constraints_signature(k.constraints));
  h = hash_combine(h, static_cast<std::uint64_t>(k.num_cuts));
  return static_cast<std::size_t>(h);
}

ResultCache::ResultCache(ResultCacheConfig config) : config_(config) {
  ISEX_CHECK(config_.max_entries >= 1, "cache capacity must be >= 1");
  ISEX_CHECK(config_.max_dfg_entries >= 1, "DFG cache capacity must be >= 1");
}

std::optional<ResultCache::MemoEntry> ResultCache::lookup_memo(const MemoKey& key,
                                                               CacheCounters* local) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = memo_.find(key);
  if (it == memo_.end()) {
    ++counters_.misses;
    if (local != nullptr) ++local->misses;
    return std::nullopt;
  }
  ++counters_.hits;
  if (local != nullptr) {
    ++local->hits;
    // Cross-workload sharing: the entry was stored while exploring a
    // different (non-empty) scope — typically another application of a
    // portfolio whose identical kernel was identified first.
    if (!local->scope.empty() && !it->second.origin_scope.empty() &&
        it->second.origin_scope != local->scope) {
      ++counters_.cross_workload_hits;
      ++local->cross_workload_hits;
    }
  }
  memo_lru_.splice(memo_lru_.begin(), memo_lru_, it->second.lru);
  return it->second;  // two shared_ptr copies, never a result copy
}

void ResultCache::insert_memo_locked(const MemoKey& key, MemoEntry entry,
                                     CacheCounters* local) {
  if (memo_.find(key) != memo_.end()) return;  // a racing miss computed it first
  memo_lru_.push_front(key);
  entry.lru = memo_lru_.begin();
  memo_.emplace(key, std::move(entry));
  while (memo_.size() > config_.max_entries) {
    memo_.erase(memo_lru_.back());
    memo_lru_.pop_back();
    ++counters_.evictions;
    if (local != nullptr) ++local->evictions;
  }
}

void ResultCache::insert_memo(const MemoKey& key, MemoEntry entry, CacheCounters* local) {
  std::lock_guard<std::mutex> lock(mu_);
  insert_memo_locked(key, std::move(entry), local);
}

SingleCutResult ResultCache::single_cut(const Dfg& g, const LatencyModel& latency,
                                        const Constraints& constraints,
                                        const CutSearchOptions& search) {
  CacheCounters* local = search.cache_counters;
  MemoKey key{dfg_fingerprint(g), latency_signature(latency), constraints, 0};
  if (std::optional<MemoEntry> hit = lookup_memo(key, local)) {
    ISEX_ASSERT(hit->single != nullptr, "memo entry kind mismatch");
    return *hit->single;  // result copied outside the lock
  }
  // Computed outside the lock; the subtree-parallel engine is byte-identical
  // to the serial one, so the stored entry is valid for every future caller
  // regardless of their search options.
  auto result = std::make_shared<const SingleCutResult>(
      find_best_cut(g, latency, constraints, search));
  // A shared request gate or cancel token is invisible to the memo key
  // (`constraints` still says whatever the client asked for), so a search
  // cut short by either is a partial answer that must never be served to a
  // caller with budget left. A search that finished without exhausting the
  // gate or tripping the token is the complete enumeration and stays
  // storable.
  if (search.budget != nullptr && search.budget->exhausted()) return *result;
  if (search.cancel != nullptr && search.cancel->cancelled()) return *result;
  MemoEntry entry;
  entry.single = result;
  if (local != nullptr) entry.origin_scope = local->scope;
  insert_memo(key, std::move(entry), local);
  return *result;
}

MultiCutResult ResultCache::multi_cut(const Dfg& g, const LatencyModel& latency,
                                      const Constraints& constraints, int num_cuts,
                                      const CutSearchOptions& search) {
  ISEX_CHECK(num_cuts >= 1, "multi-cut memo needs num_cuts >= 1");
  CacheCounters* local = search.cache_counters;
  MemoKey key{dfg_fingerprint(g), latency_signature(latency), constraints, num_cuts};
  if (std::optional<MemoEntry> hit = lookup_memo(key, local)) {
    ISEX_ASSERT(hit->multi != nullptr, "memo entry kind mismatch");
    return *hit->multi;
  }
  auto result = std::make_shared<const MultiCutResult>(
      find_best_cuts(g, latency, constraints, num_cuts, search));
  // Same partial-result store refusal as single_cut above.
  if (search.budget != nullptr && search.budget->exhausted()) return *result;
  if (search.cancel != nullptr && search.cancel->cancelled()) return *result;
  MemoEntry entry;
  entry.multi = result;
  if (local != nullptr) entry.origin_scope = local->scope;
  insert_memo(key, std::move(entry), local);
  return *result;
}

std::shared_ptr<const std::vector<Dfg>> ResultCache::lookup_dfgs(const std::string& workload,
                                                                 const DfgOptions& options,
                                                                 double* base_cycles,
                                                                 CacheCounters* local) {
  ISEX_CHECK(base_cycles != nullptr, "null extraction output");
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = dfgs_.find(dfg_key(workload, options));
  if (it == dfgs_.end()) {
    ++counters_.dfg_misses;
    if (local != nullptr) ++local->dfg_misses;
    return nullptr;
  }
  ++counters_.dfg_hits;
  if (local != nullptr) ++local->dfg_hits;
  dfg_lru_.splice(dfg_lru_.begin(), dfg_lru_, it->second.lru);
  *base_cycles = it->second.base_cycles;
  return it->second.graphs;
}

void ResultCache::store_dfgs(const std::string& workload, const DfgOptions& options,
                             std::shared_ptr<const std::vector<Dfg>> graphs,
                             double base_cycles, CacheCounters* local) {
  ISEX_CHECK(graphs != nullptr, "null extraction snapshot");
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = dfg_key(workload, options);
  if (dfgs_.find(key) != dfgs_.end()) return;
  dfg_lru_.push_front(key);
  DfgEntry entry{std::move(graphs), base_cycles, dfg_lru_.begin()};
  dfgs_.emplace(key, std::move(entry));
  while (dfgs_.size() > config_.max_dfg_entries) {
    dfgs_.erase(dfg_lru_.back());
    dfg_lru_.pop_back();
    ++counters_.evictions;
    if (local != nullptr) ++local->evictions;
  }
}

std::optional<LoadedText> ResultCache::lookup_text(const TextDigest& digest) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = texts_.find(digest);
  if (it == texts_.end()) return std::nullopt;
  text_lru_.splice(text_lru_.begin(), text_lru_, it->second.lru);
  return it->second.loaded;
}

void ResultCache::store_text(const TextDigest& digest, LoadedText loaded) {
  std::lock_guard<std::mutex> lock(mu_);
  if (texts_.find(digest) != texts_.end()) return;  // a racing load stored it first
  text_lru_.push_front(digest);
  texts_.emplace(digest, TextEntry{std::move(loaded), text_lru_.begin()});
  while (texts_.size() > config_.max_dfg_entries) {
    texts_.erase(text_lru_.back());
    text_lru_.pop_back();
  }
}

CacheCounters ResultCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::size_t ResultCache::num_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memo_.size();
}

std::size_t ResultCache::num_dfg_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dfgs_.size();
}

std::size_t ResultCache::num_text_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return texts_.size();
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  memo_.clear();
  memo_lru_.clear();
  dfgs_.clear();
  dfg_lru_.clear();
  texts_.clear();
  text_lru_.clear();
}

Json ResultCache::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json j = Json::object();
  j.set("version", 1);  // file format
  j.set("algorithm", kIdentificationAlgorithmVersion);
  Json entries = Json::array();
  // Serialize least-recent first so merge_json rebuilds the same recency
  // order (later inserts end up more recent).
  for (auto it = memo_lru_.rbegin(); it != memo_lru_.rend(); ++it) {
    const MemoKey& key = *it;
    const MemoEntry& entry = memo_.at(key);
    Json e = Json::object();
    e.set("exact", hex64(key.fingerprint.exact));
    e.set("latency", hex64(key.latency_sig));
    e.set("constraints", isex::to_json(key.constraints));
    e.set("num_cuts", key.num_cuts);
    if (key.num_cuts == 0) {
      e.set("single", isex::to_json(*entry.single));
    } else {
      e.set("multi", isex::to_json(*entry.multi));
    }
    entries.push_back(std::move(e));
  }
  j.set("entries", std::move(entries));
  return j;
}

void ResultCache::merge_json(const Json& json) {
  ISEX_CHECK(json.at("version").as_int() == 1, "unsupported cache file version");
  ISEX_CHECK(json.at("algorithm").as_int() == kIdentificationAlgorithmVersion,
             "cache file was produced by a different identification algorithm "
             "version; discard it and start cold");
  // Parse everything before touching the table, so a malformed entry leaves
  // the memo unchanged rather than partially merged.
  std::vector<std::pair<MemoKey, MemoEntry>> parsed;
  for (const Json& e : json.at("entries").as_array()) {
    MemoKey key;
    key.fingerprint.exact = parse_hex64(e.at("exact").as_string());
    key.latency_sig = parse_hex64(e.at("latency").as_string());
    key.constraints = constraints_from_json(e.at("constraints"));
    key.num_cuts = static_cast<int>(e.at("num_cuts").as_int());
    MemoEntry entry;
    if (key.num_cuts == 0) {
      entry.single =
          std::make_shared<const SingleCutResult>(single_cut_from_json(e.at("single")));
    } else {
      entry.multi =
          std::make_shared<const MultiCutResult>(multi_cut_from_json(e.at("multi")));
    }
    parsed.emplace_back(std::move(key), std::move(entry));
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : parsed) insert_memo_locked(key, std::move(entry), nullptr);
}

void ResultCache::save_file(const std::string& path) const {
  // Write-then-rename so a killed writer never leaves a truncated file
  // behind (load_file throws on malformed files rather than starting cold).
  // The temp name is unique per process *and* per save — concurrent writers
  // (several constraint_sweep --cache runs, the daemon's idle snapshotter
  // racing its shutdown flush) each stage into their own file and the last
  // rename wins atomically, instead of truncating each other's half-written
  // staging file and renaming garbage into place.
  static std::atomic<std::uint64_t> save_seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(save_seq.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::trunc);
    ISEX_CHECK(out.good(), "cannot write cache file '" + tmp + "'");
    out << to_json().dump(-1) << "\n";
    out.flush();
    ISEX_CHECK(out.good(), "failed writing cache file '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp);  // don't strand the staging file
  ISEX_CHECK(!ec, "failed moving cache file into place: " + ec.message());
}

bool ResultCache::load_file(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return false;  // a cold start is fine
  std::ifstream in(path);
  // An existing but unreadable file is an error the user should see, not a
  // silent cold start that re-pays the full enumeration cost.
  ISEX_CHECK(in.good(), "cannot read cache file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  merge_json(Json::parse(text.str()));
  return true;
}

SingleCutResult cached_single_cut(const Dfg& g, const LatencyModel& latency,
                                  const Constraints& constraints,
                                  const CutSearchOptions& search) {
  if (search.cache == nullptr) return find_best_cut(g, latency, constraints, search);
  return search.cache->single_cut(g, latency, constraints, search);
}

MultiCutResult cached_multi_cut(const Dfg& g, const LatencyModel& latency,
                                const Constraints& constraints, int num_cuts,
                                const CutSearchOptions& search) {
  if (search.cache == nullptr) return find_best_cuts(g, latency, constraints, num_cuts, search);
  return search.cache->multi_cut(g, latency, constraints, num_cuts, search);
}

}  // namespace isex
