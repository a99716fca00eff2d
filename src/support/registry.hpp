// The name-keyed registry behind SchemeRegistry and EmitterRegistry: a
// thread-safe owner of items that answer name(), with lookup by name, a
// sorted name listing, and one structured error for unknown names.
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace isex {

/// Comma-joins names ("a, b, c") — the one formatter behind every
/// name-listing error message and usage line.
inline std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// Unknown-name lookup failure of a Registry<T>: carries the requested name
/// and the registered names so callers (CLIs, services) can render a
/// structured "did you mean" without parsing the message.
template <typename T>
class NotFoundError : public Error {
 public:
  NotFoundError(const std::string& kind, std::string requested,
                std::vector<std::string> registered)
      : Error("unknown " + kind + " '" + requested + "' (registered: " +
              join_names(registered) + ")"),
        requested_(std::move(requested)),
        registered_(std::move(registered)) {}

  const std::string& requested() const { return requested_; }
  /// Registered names at lookup time, sorted.
  const std::vector<std::string>& registered() const { return registered_; }

 private:
  std::string requested_;
  std::vector<std::string> registered_;
};

/// Thread-safe registry owning items keyed by their name(). Items are never
/// removed, so a reference handed out stays valid as long as the registry.
template <typename T>
class Registry {
 public:
  /// `kind` names the items in error messages ("selection scheme").
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  /// Registers `item` under item->name(); throws on duplicates.
  void add(std::unique_ptr<T> item) {
    ISEX_CHECK(item != nullptr, "cannot register a null " + kind_);
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& existing : items_) {
      ISEX_CHECK(existing->name() != item->name(),
                 kind_ + " '" + item->name() + "' is already registered");
    }
    items_.push_back(std::move(item));
  }

  /// Null when `name` is unknown.
  const T* find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& item : items_) {
      if (item->name() == name) return item.get();
    }
    return nullptr;
  }

  /// Throws NotFoundError<T> (listing the registered names) when `name` is
  /// unknown.
  const T& get(const std::string& name) const {
    const T* item = find(name);
    if (item == nullptr) throw NotFoundError<T>(kind_, name, names());
    return *item;
  }

  /// Registered names, sorted.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      out.reserve(items_.size());
      for (const auto& item : items_) out.push_back(item->name());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  const std::string kind_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<T>> items_;
};

}  // namespace isex
