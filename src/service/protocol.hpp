// Wire protocol of the exploration service (`isexd`): newline-delimited,
// version-tagged JSON frames over a Unix-domain socket.
//
// Client -> server, one frame per request:
//   {"isex": 1, "id": "r1", "type": "explore",           "request": {...}}
//   {"isex": 1, "id": "r2", "type": "explore-portfolio", "request": {...},
//    "search_budget": 50000}
//   {"isex": 1, "id": "p",  "type": "ping"}
// `id` is a client-chosen correlation tag echoed on every response frame
// (requests on one connection may be pipelined). `request` carries the
// ExplorationRequest / MultiExplorationRequest fields serialized below —
// a registry workload name or (version >= 2) an `ir_text` textual workload
// document travelling inside the frame, but never a host file path, and no
// emission options (artifacts are a local-caller feature; the daemon
// rejects the key rather than silently dropping it).
// `search_budget` is the *per-request* ticket budget: the daemon runs every
// identification search of the request against one shared BudgetGate, so
// the aggregate cuts_considered pins at min(demand, budget) exactly.
// `deadline_ms` (version >= 3) is the *per-request* wall-clock deadline:
// when it fires mid-search the daemon stops cooperatively and answers with
// a report flagged `partial: true` instead of burning the full search.
//
// Server -> client, a stream of phase events per request, ending in exactly
// one `report` or `error`:
//   {"isex": 1, "id": "r1", "event": "accepted",   "data": {fingerprint,
//        deduped, batched, batch_size, queue_depth}}
//        (every version carries all five fields; a dispatch runs one job,
//        so `batched` is always false and `batch_size` always 1)
//   {"isex": 1, "id": "r1", "event": "extracted",  "data": {...}}
//   {"isex": 1, "id": "r1", "event": "identified", "data": {...}}
//   {"isex": 1, "id": "r1", "event": "selected",   "data": {...}}
//   {"isex": 1, "id": "r1", "event": "report",     "data": {kind, report,
//        store}}
//   {"isex": 1, "id": "r1", "event": "error",      "data": {code, message}}
// `report.data.report` is the full ExplorationReport / PortfolioReport JSON,
// byte-identical to the in-process Explorer run against the same cache
// state (modulo wall-clock timings; see stable_report_json). `store` adds
// the shared ResultStore's lifetime totals next to the per-request deltas
// already inside the report's own cache section.
//
// Malformed input never kills the daemon: every failure class maps to a
// structured error frame (codes below) or, for transport-level garbage, to
// a clean connection drop. The parser is host-independent; the daemon adds
// one host bound on top: a `num_threads` above its core count is a
// bad-request.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "api/explorer.hpp"
#include "api/portfolio.hpp"
#include "support/json.hpp"

namespace isex {

/// Version tag carried by every frame in both directions. Bump on any
/// incompatible change; the daemon rejects frames from versions outside
/// [kMinServiceProtocolVersion, kServiceProtocolVersion] with an
/// `unsupported-version` error instead of guessing.
///
/// Version history:
///   1 — named registry workloads only.
///   2 — adds `request.ir_text`: a textual `.isex` workload document carried
///       inside the frame, so clients can serve graphs the daemon host has
///       never seen. v1 frames are still accepted (and answered with
///       v1-tagged events); a v1 frame carrying ir_text is a bad-request.
///   3 — adds `deadline_ms`: a per-request wall-clock deadline. The daemon
///       cancels the search cooperatively when it fires and answers with a
///       report flagged `partial: true` carrying the best selection found so
///       far (`partial_reason: "deadline_exceeded"`). Also adds structured
///       error `details` (e.g. `retry_after_ms` on queue-full). Frames from
///       versions 1 and 2 are still accepted; a pre-v3 frame carrying
///       deadline_ms is a bad-request.
inline constexpr int kServiceProtocolVersion = 3;
inline constexpr int kMinServiceProtocolVersion = 1;

// Structured error codes (the `code` field of error events).
inline constexpr const char* kErrBadFrame = "bad-frame";            // not a JSON object
inline constexpr const char* kErrUnsupportedVersion = "unsupported-version";
inline constexpr const char* kErrBadRequest = "bad-request";        // schema violation
inline constexpr const char* kErrQueueFull = "queue-full";          // admission rejected
inline constexpr const char* kErrShuttingDown = "shutting-down";    // daemon draining
inline constexpr const char* kErrInternal = "internal";             // pipeline threw

/// A protocol-level failure with its wire code. The daemon renders it as an
/// error event; the client library rethrows it when the server reports one.
class ServiceError : public Error {
 public:
  ServiceError(std::string code, const std::string& message)
      : Error(message), code_(std::move(code)), details_(Json::object()) {}

  /// With machine-readable extras merged into the error event's data object
  /// (e.g. `retry_after_ms` on queue-full, so clients can back off without
  /// parsing the message text).
  ServiceError(std::string code, const std::string& message, Json details)
      : Error(message), code_(std::move(code)), details_(std::move(details)) {}

  const std::string& code() const { return code_; }
  /// Always an object; empty when the error carries no extras.
  const Json& details() const { return details_; }

 private:
  std::string code_;
  Json details_;
};

// --- request serialization --------------------------------------------------
// The service-visible subset of the request structs: everything JSON can
// carry (named workloads, scheme, constraints, budgets, threading knobs).
// from_json is strict — unknown keys, wrong types and out-of-range values
// throw ServiceError(kErrBadRequest) so client typos surface as structured
// errors instead of silently exploring defaults. to_json emits every
// serializable field, so from_json(to_json(r)) round-trips exactly.

Json to_json(const ExplorationRequest& request);
ExplorationRequest exploration_request_from_json(const Json& j);

Json to_json(const MultiExplorationRequest& request);
MultiExplorationRequest multi_exploration_request_from_json(const Json& j);

// --- frames -----------------------------------------------------------------

/// One parsed client frame. Exactly one of `single` / `portfolio` is set
/// for the explore types; neither for "ping".
struct RequestFrame {
  std::string id;    // client correlation tag (may be empty)
  std::string type;  // "explore" | "explore-portfolio" | "ping"
  /// Protocol version the frame arrived under (parse) or is rendered with
  /// (dump). Every event the daemon answers with echoes this version, so a
  /// v1 client never reads a frame tagged with a version it would reject.
  int version = kServiceProtocolVersion;
  /// Per-request search-ticket budget (0 = unlimited): enforced by the
  /// daemon through one shared BudgetGate across every identification
  /// search of the request.
  std::uint64_t search_budget = 0;
  /// Per-request wall-clock deadline in milliseconds (0 = none; needs
  /// protocol version >= 3), counted from admission so queue wait counts:
  /// a DeadlineTimer trips the job's CancelToken when it expires and the
  /// engines stop cooperatively, answering with a `partial: true` report
  /// instead of an error.
  std::uint64_t deadline_ms = 0;
  std::optional<ExplorationRequest> single;
  std::optional<MultiExplorationRequest> portfolio;
};

/// Parses and validates one client frame line. Throws ServiceError with
/// kErrBadFrame (not JSON / not an object), kErrUnsupportedVersion, or
/// kErrBadRequest (unknown type, malformed request body). When the frame is
/// an object carrying an `id` string, `*id_out` receives it even on failure
/// so the error event can still be correlated; `*version_out` likewise
/// receives the frame's version tag as soon as it is known, so the error
/// event can be rendered in the sender's dialect.
RequestFrame parse_request_frame(const std::string& line, std::string* id_out = nullptr,
                                 int* version_out = nullptr);

/// Renders a client frame (the client library's send path).
std::string dump_request_frame(const RequestFrame& frame);

/// One parsed server frame.
struct EventFrame {
  std::string id;
  std::string event;  // "accepted" | "extracted" | ... | "report" | "error"
  Json data;
};

/// Renders one server event frame (terminating newline included). `version`
/// tags the frame; the daemon passes each subscriber's request version.
std::string dump_event_frame(const std::string& id, const std::string& event,
                             const Json& data, int version = kServiceProtocolVersion);

/// Parses one server frame; throws ServiceError(kErrBadFrame /
/// kErrUnsupportedVersion) on garbage.
EventFrame parse_event_frame(const std::string& line);

// --- dedup fingerprint ------------------------------------------------------

/// Deterministic fingerprint of the *work* a frame asks for — type, the
/// canonicalized request body, the search budget and deadline; the
/// correlation id is excluded. Two frames with equal fingerprints are the
/// same computation, so the admission layer runs one and attaches the other
/// to its result. An ir_text document contributes its digest (hash_bytes of
/// its bytes, and their count), never a copy of the document, under a member
/// no frame can carry; frames without a document hash as they always have.
std::uint64_t request_fingerprint(const RequestFrame& frame);

/// 16-hex-digit rendering used on the wire ("accepted" events).
std::string fingerprint_hex(std::uint64_t fingerprint);

// --- comparison helper ------------------------------------------------------

/// `report` with its wall-clock "timings" section dropped (recursively for
/// portfolio per-app sections, though today only the top level carries one):
/// the stable remainder is byte-comparable across service and in-process
/// runs — tests and the smoke clients diff exactly this.
Json stable_report_json(const Json& report);

}  // namespace isex
