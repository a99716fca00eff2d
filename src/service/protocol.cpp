#include "service/protocol.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "core/serialize.hpp"
#include "support/hash.hpp"
#include "workloads/workload.hpp"

namespace isex {

namespace {

/// Wraps the strict-but-unstructured accessor exceptions of Json in the
/// protocol's bad-request code, keeping the field context in the message.
template <typename Fn>
auto request_field(const char* what, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const ServiceError&) {
    throw;
  } catch (const Error& e) {
    throw ServiceError(kErrBadRequest, std::string(what) + ": " + e.what());
  }
}

/// Strict object walker: every key must be consumed by `handle` (which
/// returns false on unknown keys). Misspelled fields fail loudly instead of
/// silently exploring defaults.
template <typename Fn>
void for_known_keys(const Json& j, const char* what, Fn&& handle) {
  for (const auto& [key, value] : j.as_object()) {
    if (!handle(key, value)) {
      throw ServiceError(kErrBadRequest,
                         std::string(what) + ": unknown field '" + key + "'");
    }
  }
}

/// Decodes a wire integer into an int field of at least `min`. Anything
/// else is a bad-request naming the field: a value past int's range must
/// not wrap (2^32 + 1 is not 1).
int int_field(const Json& value, const std::string& field,
              int min = std::numeric_limits<int>::min()) {
  const std::int64_t v = value.as_int();
  if (!std::in_range<int>(v)) {
    throw ServiceError(kErrBadRequest,
                       field + ": " + std::to_string(v) + " is out of range for an int");
  }
  if (v < min) throw ServiceError(kErrBadRequest, field + " must be >= " + std::to_string(min));
  return static_cast<int>(v);
}

Json to_json(const DfgOptions& options) {
  Json j = Json::object();
  j.set("allow_rom_loads", options.allow_rom_loads);
  return j;
}

DfgOptions dfg_options_from_json(const Json& j) {
  DfgOptions options;
  for_known_keys(j, "dfg_options", [&](const std::string& key, const Json& value) {
    if (key == "allow_rom_loads") {
      options.allow_rom_loads = value.as_bool();
      return true;
    }
    return false;
  });
  return options;
}

Json to_json(const AreaSelectOptions& area) {
  Json j = Json::object();
  j.set("max_area_macs", area.max_area_macs);
  j.set("num_instructions", area.num_instructions);
  j.set("area_grid_macs", area.area_grid_macs);
  return j;
}

AreaSelectOptions area_options_from_json(const Json& j) {
  AreaSelectOptions area;
  for_known_keys(j, "area", [&](const std::string& key, const Json& value) {
    if (key == "max_area_macs") {
      area.max_area_macs = value.as_double();
    } else if (key == "num_instructions") {
      area.num_instructions = int_field(value, "area.num_instructions");
    } else if (key == "area_grid_macs") {
      area.area_grid_macs = value.as_double();
    } else {
      return false;
    }
    return true;
  });
  // The area scheme's knapsack needs both; an unusable value is the
  // client's error, not an internal failure of the daemon.
  if (!(area.max_area_macs >= 0)) {
    throw ServiceError(kErrBadRequest, "area.max_area_macs must be >= 0");
  }
  if (!(area.area_grid_macs > 0)) {
    throw ServiceError(kErrBadRequest, "area.area_grid_macs must be > 0");
  }
  return area;
}

Constraints service_constraints_from_json(const Json& j) {
  // Reuse the cache-file serializer's field set but stay strict about
  // unknown keys and tolerant about omissions (a service client states only
  // what differs from the defaults).
  Constraints c;
  for_known_keys(j, "constraints", [&](const std::string& key, const Json& value) {
    if (key == "max_inputs") {
      c.max_inputs = int_field(value, "constraints.max_inputs", 1);
    } else if (key == "max_outputs") {
      c.max_outputs = int_field(value, "constraints.max_outputs", 1);
    } else if (key == "enable_pruning") {
      c.enable_pruning = value.as_bool();
    } else if (key == "prune_permanent_inputs") {
      c.prune_permanent_inputs = value.as_bool();
    } else if (key == "branch_and_bound") {
      c.branch_and_bound = value.as_bool();
    } else if (key == "search_budget") {
      c.search_budget = value.as_uint();
    } else {
      return false;
    }
    return true;
  });
  return c;
}

void check_workload_name(const std::string& name, const char* what) {
  if (name.empty()) {
    throw ServiceError(kErrBadRequest,
                       std::string(what) +
                           ": the service explores named registry workloads or an "
                           "ir_text payload");
  }
  // Registry membership is the whole check: a path-looking name (which
  // find_workload would read from the daemon host's disk) is not in the
  // registry and fails here — clients ship kernels via ir_text, never paths.
  const std::vector<std::string> known = workload_names();
  if (std::find(known.begin(), known.end(), name) == known.end()) {
    throw ServiceError(kErrBadRequest, std::string(what) + ": unknown workload '" + name +
                                           "' (see workload_names())");
  }
}

/// Decodes one of the knobs both request kinds carry; false for any other
/// key.
template <typename Request>
bool run_knob_from_json(const std::string& key, const Json& value, Request& request) {
  if (key == "scheme") {
    request.scheme = value.as_string();
  } else if (key == "constraints") {
    request.constraints = service_constraints_from_json(value);
  } else if (key == "num_instructions") {
    request.num_instructions = int_field(value, key, 1);
  } else if (key == "num_threads") {
    request.num_threads = int_field(value, key, 0);  // 0 = hardware
  } else if (key == "subtree_split_depth") {
    request.subtree_split_depth = int_field(value, key, 0);
  } else if (key == "use_cache") {
    request.use_cache = value.as_bool();
  } else if (key == "name_prefix") {
    request.name_prefix = value.as_string();
  } else if (key == "emission") {
    throw ServiceError(kErrBadRequest,
                       "request: artifact emission is a local-caller feature; the "
                       "service does not write artifacts on the daemon host");
  } else {
    return false;
  }
  return true;
}

PortfolioWorkloadRequest portfolio_workload_from_json(const Json& j) {
  PortfolioWorkloadRequest wr;
  for_known_keys(j, "workloads[]", [&](const std::string& key, const Json& value) {
    if (key == "workload") {
      wr.workload = value.as_string();
    } else if (key == "weight") {
      wr.weight = value.as_double();
    } else if (key == "dfg_options") {
      wr.dfg_options = dfg_options_from_json(value);
    } else {
      return false;
    }
    return true;
  });
  check_workload_name(wr.workload, "workloads[]");
  if (!(wr.weight > 0)) {
    throw ServiceError(kErrBadRequest, "workloads[]: weight must be > 0");
  }
  return wr;
}

int frame_version(const Json& j) {
  const Json* tag = j.find("isex");
  if (tag == nullptr) {
    throw ServiceError(kErrBadFrame, "frame carries no 'isex' protocol version tag");
  }
  std::int64_t version = 0;
  try {
    version = tag->as_int();
  } catch (const Error&) {
    throw ServiceError(kErrBadFrame, "'isex' version tag is not an integer");
  }
  if (version < kMinServiceProtocolVersion || version > kServiceProtocolVersion) {
    throw ServiceError(kErrUnsupportedVersion,
                       "protocol version " + std::to_string(version) +
                           " is not supported (this daemon speaks versions " +
                           std::to_string(kMinServiceProtocolVersion) + " through " +
                           std::to_string(kServiceProtocolVersion) + ")");
  }
  return static_cast<int>(version);
}

Json parse_frame_object(const std::string& line, const char* what) {
  Json j;
  try {
    j = Json::parse(line);
  } catch (const Error& e) {
    throw ServiceError(kErrBadFrame, std::string(what) + " is not valid JSON: " + e.what());
  }
  if (j.type() != Json::Type::object) {
    throw ServiceError(kErrBadFrame, std::string(what) + " must be a JSON object");
  }
  return j;
}

/// How request_json writes an ir_text document: whole (the wire), or as its
/// digest (the dedup fingerprint, which then neither copies nor escapes it).
enum class TextMember { document, digest };

Json request_json(const ExplorationRequest& request, TextMember text) {
  Json j = Json::object();
  j.set("workload", request.workload);
  // Emitted only when set: absent-field canonicalization keeps the dedup
  // fingerprints of plain registry requests identical to protocol v1.
  if (!request.ir_text.empty()) {
    if (text == TextMember::document) {
      j.set("ir_text", request.ir_text);
    } else {
      // No frame can carry this member (unknown fields are bad-requests),
      // so a client cannot spell a digest into another request's key.
      const TextDigest digest = text_digest(request.ir_text);
      j.set("ir_text_digest", fingerprint_hex(digest.hash) + "/" + std::to_string(digest.size));
    }
  }
  j.set("scheme", request.scheme);
  j.set("constraints", to_json(request.constraints));
  j.set("num_instructions", request.num_instructions);
  j.set("area", to_json(request.area));
  j.set("dfg_options", to_json(request.dfg_options));
  j.set("num_threads", request.num_threads);
  j.set("subtree_split_depth", request.subtree_split_depth);
  j.set("use_cache", request.use_cache);
  j.set("name_prefix", request.name_prefix);
  return j;
}

}  // namespace

Json to_json(const ExplorationRequest& request) {
  return request_json(request, TextMember::document);
}

ExplorationRequest exploration_request_from_json(const Json& j) {
  return request_field("request", [&] {
    ExplorationRequest request;
    for_known_keys(j, "request", [&](const std::string& key, const Json& value) {
      if (run_knob_from_json(key, value, request)) return true;
      if (key == "workload") {
        request.workload = value.as_string();
      } else if (key == "ir_text") {
        request.ir_text = value.as_string();
      } else if (key == "area") {
        request.area = area_options_from_json(value);
      } else if (key == "dfg_options") {
        request.dfg_options = dfg_options_from_json(value);
      } else if (key == "graphs") {
        throw ServiceError(kErrBadRequest,
                           "request: pre-extracted graphs are not servable — ship the "
                           "kernel as an ir_text workload document instead");
      } else if (key == "build_afus" || key == "rewrite" || key == "emit_verilog") {
        // Boolean emission switches older clients may still send.
        return run_knob_from_json("emission", value, request);
      } else {
        return false;
      }
      return true;
    });
    if (request.ir_text.empty()) {
      check_workload_name(request.workload, "request");
    } else if (!request.workload.empty()) {
      throw ServiceError(kErrBadRequest,
                         "request: 'workload' and 'ir_text' are mutually exclusive");
    }
    return request;
  });
}

Json to_json(const MultiExplorationRequest& request) {
  Json j = Json::object();
  Json apps = Json::array();
  for (const PortfolioWorkloadRequest& wr : request.workloads) {
    Json app = Json::object();
    app.set("workload", wr.workload);
    app.set("weight", wr.weight);
    app.set("dfg_options", to_json(wr.dfg_options));
    apps.push_back(std::move(app));
  }
  j.set("workloads", std::move(apps));
  j.set("scheme", request.scheme);
  j.set("constraints", to_json(request.constraints));
  j.set("num_instructions", request.num_instructions);
  j.set("max_area_macs", request.max_area_macs);
  j.set("area_grid_macs", request.area_grid_macs);
  j.set("num_threads", request.num_threads);
  j.set("subtree_split_depth", request.subtree_split_depth);
  j.set("use_cache", request.use_cache);
  j.set("name_prefix", request.name_prefix);
  return j;
}

MultiExplorationRequest multi_exploration_request_from_json(const Json& j) {
  return request_field("request", [&] {
    MultiExplorationRequest request;
    for_known_keys(j, "request", [&](const std::string& key, const Json& value) {
      if (run_knob_from_json(key, value, request)) return true;
      if (key == "workloads") {
        for (const Json& app : value.as_array()) {
          request.workloads.push_back(portfolio_workload_from_json(app));
        }
      } else if (key == "max_area_macs") {
        request.max_area_macs = value.as_double();
      } else if (key == "area_grid_macs") {
        request.area_grid_macs = value.as_double();
      } else {
        return false;
      }
      return true;
    });
    if (request.workloads.empty()) {
      throw ServiceError(kErrBadRequest, "request: portfolio needs at least one workload");
    }
    if (!(request.area_grid_macs > 0)) {
      throw ServiceError(kErrBadRequest, "area_grid_macs must be > 0");
    }
    return request;
  });
}

RequestFrame parse_request_frame(const std::string& line, std::string* id_out,
                                 int* version_out) {
  const Json j = parse_frame_object(line, "request frame");
  // Surface the correlation id before any validation can throw, so error
  // events stay addressable.
  if (const Json* id = j.find("id");
      id != nullptr && id->type() == Json::Type::string && id_out != nullptr) {
    *id_out = id->as_string();
  }
  const int version = frame_version(j);
  if (version_out != nullptr) *version_out = version;

  RequestFrame frame;
  frame.version = version;
  for_known_keys(j, "frame", [&](const std::string& key, const Json& value) {
    if (key == "isex") return true;  // checked above
    if (key == "id") {
      frame.id = request_field("id", [&] { return value.as_string(); });
    } else if (key == "type") {
      frame.type = request_field("type", [&] { return value.as_string(); });
    } else if (key == "search_budget") {
      frame.search_budget = request_field("search_budget", [&] { return value.as_uint(); });
    } else if (key == "deadline_ms") {
      frame.deadline_ms = request_field("deadline_ms", [&] { return value.as_uint(); });
    } else if (key == "request") {
      return true;  // parsed once the type is known
    } else {
      throw ServiceError(kErrBadRequest, "frame: unknown field '" + key + "'");
    }
    return true;
  });

  if (frame.deadline_ms != 0 && frame.version < 3) {
    throw ServiceError(kErrBadRequest,
                       "frame: deadline_ms needs protocol version 3 (frame is tagged " +
                           std::to_string(frame.version) + ")");
  }

  if (frame.type == "ping") {
    if (j.find("request") != nullptr) {
      throw ServiceError(kErrBadRequest, "ping frames carry no request body");
    }
    return frame;
  }
  const Json* request = j.find("request");
  if (request == nullptr) {
    throw ServiceError(kErrBadRequest, "frame: missing 'request' body");
  }
  if (frame.type == "explore") {
    frame.single = exploration_request_from_json(*request);
    if (!frame.single->ir_text.empty() && frame.version < 2) {
      throw ServiceError(kErrBadRequest,
                         "request: ir_text needs protocol version 2 (frame is tagged " +
                             std::to_string(frame.version) + ")");
    }
  } else if (frame.type == "explore-portfolio") {
    frame.portfolio = multi_exploration_request_from_json(*request);
  } else {
    throw ServiceError(kErrBadRequest,
                       "frame: unknown type '" + frame.type +
                           "' (expected explore, explore-portfolio or ping)");
  }
  return frame;
}

std::string dump_request_frame(const RequestFrame& frame) {
  Json j = Json::object();
  j.set("isex", frame.version);
  j.set("id", frame.id);
  j.set("type", frame.type);
  if (frame.search_budget != 0) j.set("search_budget", frame.search_budget);
  if (frame.deadline_ms != 0) j.set("deadline_ms", frame.deadline_ms);
  if (frame.single.has_value()) {
    j.set("request", to_json(*frame.single));
  } else if (frame.portfolio.has_value()) {
    j.set("request", to_json(*frame.portfolio));
  }
  return j.dump(-1) + "\n";
}

std::string dump_event_frame(const std::string& id, const std::string& event,
                             const Json& data, int version) {
  Json j = Json::object();
  j.set("isex", version);
  j.set("id", id);
  j.set("event", event);
  j.set("data", data);
  return j.dump(-1) + "\n";
}

EventFrame parse_event_frame(const std::string& line) {
  const Json j = parse_frame_object(line, "event frame");
  frame_version(j);
  EventFrame frame;
  try {
    frame.id = j.at("id").as_string();
    frame.event = j.at("event").as_string();
    frame.data = j.at("data");
  } catch (const Error& e) {
    throw ServiceError(kErrBadFrame, std::string("event frame: ") + e.what());
  }
  return frame;
}

std::uint64_t request_fingerprint(const RequestFrame& frame) {
  // Canonicalize through the parsed struct: two clients writing the same
  // request with different key orders or omitted-default fields fingerprint
  // identically, because to_json emits one canonical field order.
  Json j = Json::object();
  j.set("type", frame.type);
  j.set("search_budget", frame.search_budget);
  // Emitted only when set, so pre-v3 requests fingerprint exactly as before.
  // Distinct deadlines must stay distinct computations: a 50ms request may
  // legitimately produce a partial report where a 5s one completes.
  if (frame.deadline_ms != 0) j.set("deadline_ms", frame.deadline_ms);
  // An ir_text document contributes its digest, not its bytes.
  if (frame.single.has_value()) j.set("request", request_json(*frame.single, TextMember::digest));
  if (frame.portfolio.has_value()) j.set("request", to_json(*frame.portfolio));
  return hash_bytes(j.dump(-1));
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fingerprint));
  return std::string(buf);
}

Json stable_report_json(const Json& report) {
  if (report.type() == Json::Type::array) {
    // Portfolio reports nest per-app sections inside an array.
    Json filtered = Json::array();
    for (const Json& element : report.as_array()) {
      filtered.push_back(stable_report_json(element));
    }
    return filtered;
  }
  if (report.type() != Json::Type::object) return report;
  Json filtered = Json::object();
  for (const auto& [key, value] : report.as_object()) {
    if (key == "timings") continue;
    filtered.set(key, stable_report_json(value));
  }
  return filtered;
}

}  // namespace isex
