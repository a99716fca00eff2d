// Canonical DFG fingerprints and model signatures — the key material of the
// ResultCache (identification on a (block, constraints, latency-model)
// triple is pure, so equal keys may share one memoised result).
//
// A graph's key is `exact`, one linear hash of its concrete id-ordered
// representation. Identification results are bit vectors *over node ids*,
// so only a graph with the same ids may share one: a permuted isomorph must
// miss rather than receive a cut whose bits point at the wrong nodes. An
// isomorphism-invariant (e.g. Weisfeiler-Leman) hash could therefore never
// decide a hit, and the key carries none.
//
// Cosmetic state (node labels, the graph name) is excluded; everything that
// influences an identification result — topology, opcodes, constant values,
// forbidden/ROM flags and the execution frequency that weights merits — is
// included.
#pragma once

#include <cstdint>
#include <functional>

#include "core/constraints.hpp"
#include "dfg/dfg.hpp"
#include "latency/latency_model.hpp"

namespace isex {

struct DfgFingerprint {
  /// Hash of the concrete (id-ordered) representation.
  std::uint64_t exact = 0;

  friend bool operator==(const DfgFingerprint&, const DfgFingerprint&) = default;
};

/// Fingerprints a finalized graph.
DfgFingerprint dfg_fingerprint(const Dfg& g);

/// Hash of every search-relevant Constraints field.
std::uint64_t constraints_signature(const Constraints& c);

/// Hash of the full cost table (per-opcode sw/hw/area plus the ROM figures);
/// two models with equal signatures price every cut identically.
std::uint64_t latency_signature(const LatencyModel& m);

/// Hash of the DFG-extraction options (keys the per-workload DFG cache).
std::uint64_t dfg_options_signature(const DfgOptions& o);

}  // namespace isex

/// A fingerprint is already a well-mixed 64-bit hash; tables key on it as is.
template <>
struct std::hash<isex::DfgFingerprint> {
  std::size_t operator()(const isex::DfgFingerprint& fp) const noexcept {
    return static_cast<std::size_t>(fp.exact);
  }
};
