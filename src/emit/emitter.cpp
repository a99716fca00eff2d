#include "emit/emitter.hpp"

#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "support/hash.hpp"

namespace isex {

std::string artifact_hash_hex(std::uint64_t hash) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

std::string sanitize_artifact_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? std::string("_") : out;
}

EmissionOptionsError::EmissionOptionsError(std::string field, std::string reason)
    : Error("invalid EmissionOptions: '" + field + "' " + reason),
      field_(std::move(field)),
      reason_(std::move(reason)) {}

EmitterRegistry& EmitterRegistry::global() {
  static EmitterRegistry* registry = [] {
    auto* r = new EmitterRegistry();
    register_builtin_emitters(*r);
    return r;
  }();
  return *registry;
}

void validate_emission_options(const EmissionOptions& options, const EmitterRegistry& registry,
                               bool have_modules) {
  std::unordered_set<std::string> seen;
  for (const std::string& target : options.targets) {
    const ArtifactEmitter& emitter = registry.get(target);  // throws on unknown names
    if (!seen.insert(target).second) {
      throw EmissionOptionsError(target, "is listed more than once in targets");
    }
    if (emitter.needs_module() && !have_modules) {
      throw EmissionOptionsError(
          target,
          "needs the workload module(s); graph-only requests can only emit "
          "graph-level artifacts (e.g. dot, manifest)");
    }
  }
  if (!options.out_dir.empty() && options.targets.empty()) {
    throw EmissionOptionsError("out_dir",
                               "names an output directory but targets is empty — nothing "
                               "would be written");
  }
  if (options.verify_rewrites && !have_modules) {
    throw EmissionOptionsError("verify_rewrites",
                               "needs workload modules; graph-only requests carry no program "
                               "to rewrite");
  }
  if (options.build_afus && !have_modules) {
    throw EmissionOptionsError("build_afus",
                               "needs the workload module; graph-only requests carry no "
                               "program to snapshot AFUs from");
  }
}

bool emission_needs_module(const EmissionOptions& options, const EmitterRegistry& registry) {
  for (const std::string& target : options.targets) {
    if (registry.get(target).needs_module()) return true;
  }
  return false;
}

std::vector<EmittedArtifact> run_emitters(const EmitterRegistry& registry,
                                          std::span<const std::string> targets,
                                          const EmissionPlan& plan) {
  // Manifest-style emitters describe the other artifacts, so they run last
  // (stable within each group).
  std::vector<const ArtifactEmitter*> order;
  std::vector<const ArtifactEmitter*> describers;
  for (const std::string& target : targets) {
    const ArtifactEmitter& emitter = registry.get(target);
    (emitter.wants_prior_artifacts() ? describers : order).push_back(&emitter);
  }
  order.insert(order.end(), describers.begin(), describers.end());

  std::vector<EmittedArtifact> artifacts;
  std::unordered_set<std::string> paths;
  for (const ArtifactEmitter* emitter : order) {
    std::vector<EmittedArtifact> emitted = emitter->emit(plan, artifacts);
    for (EmittedArtifact& artifact : emitted) {
      artifact.emitter = emitter->name();
      artifact.bytes = artifact.content.size();
      artifact.content_hash = hash_bytes(artifact.content);
      ISEX_CHECK(paths.insert(artifact.path).second,
                 "emitters produced a duplicate artifact path: " + artifact.path);
      artifacts.push_back(std::move(artifact));
    }
  }
  return artifacts;
}

void write_artifacts(std::span<const EmittedArtifact> artifacts, const std::string& out_dir) {
  namespace fs = std::filesystem;
  ISEX_CHECK(!out_dir.empty(), "write_artifacts needs a non-empty out_dir");
  const fs::path root(out_dir);
  std::error_code ec;
  fs::create_directories(root, ec);
  ISEX_CHECK(!ec, "cannot create artifact directory '" + out_dir + "': " + ec.message());
  for (const EmittedArtifact& artifact : artifacts) {
    const fs::path rel(artifact.path);
    ISEX_CHECK(rel.is_relative(), "artifact path must be relative: " + artifact.path);
    for (const fs::path& part : rel) {
      ISEX_CHECK(part != "..", "artifact path must not escape the tree: " + artifact.path);
    }
    const fs::path full = root / rel;
    if (full.has_parent_path()) {
      fs::create_directories(full.parent_path(), ec);
      ISEX_CHECK(!ec, "cannot create directory for '" + artifact.path + "': " + ec.message());
    }
    std::ofstream out(full, std::ios::binary | std::ios::trunc);
    ISEX_CHECK(out.good(), "cannot open artifact file '" + full.string() + "' for writing");
    out.write(artifact.content.data(),
              static_cast<std::streamsize>(artifact.content.size()));
    out.flush();
    ISEX_CHECK(out.good(), "short write on artifact file '" + full.string() + "'");
  }
}

}  // namespace isex
