// The exploration daemon (`isexd`): accepts connections on a Unix-domain
// socket, admits request frames through an AdmissionQueue, runs them on a
// pool of worker threads against one process-wide ResultStore, and streams
// phase events back to every subscriber.
//
// Threading model:
//   * serve() runs the accept loop (with a poll timeout, so stop requests
//     and idle snapshots are noticed without traffic);
//   * one reader thread per connection parses frames and submits them — so
//     requests on one connection are admitted in order and may be
//     pipelined;
//   * `num_workers` worker threads take one job at a time from
//     AdmissionQueue::next_job() and run it through a fresh Explorer over
//     the shared cache, publishing phase events and one terminal
//     report/error per job;
//   * a running job with a deadline_ms or under max_request_ms has one
//     DeadlineTimer thread for each, tripping the job's CancelToken.
//
// Failure containment: a malformed frame — including one asking for more
// identification threads than the host has cores — produces one structured
// error event (correlated by id when the frame carried one) and the
// connection lives on; transport-level garbage (oversized line, mid-frame disconnect)
// drops only that connection; a pipeline exception becomes an `internal`
// error event for that job's subscribers. Nothing a client sends terminates
// the daemon.
//
// Shutdown (request_stop(), typically from SIGINT/SIGTERM): stop accepting,
// refuse new submissions with `shutting-down`, let queued and in-flight
// jobs publish their results, close client sockets, snapshot the store,
// return from serve().
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/explorer.hpp"
#include "service/admission.hpp"
#include "service/result_store.hpp"
#include "support/socket.hpp"

namespace isex {

struct DaemonConfig {
  /// Filesystem path of the listening Unix-domain socket.
  std::string socket_path;
  /// Worker threads running explorations (>= 1). Note this is the number of
  /// *concurrent requests*; each request may itself use
  /// request.num_threads-way identification parallelism, up to the host's
  /// std::thread::hardware_concurrency() (larger requests are bad-requests).
  int num_workers = 2;
  /// Bound on queued (not yet running) requests; beyond it clients get
  /// `queue-full` errors.
  std::size_t max_queue = 64;
  /// Bound on one wire frame; longer lines drop the connection.
  std::size_t max_frame_bytes = 1 << 20;
  /// Clamp applied to per-request `search_budget` values (0 = no clamp):
  /// an operator ceiling on how much enumeration one client may buy.
  std::uint64_t max_search_budget = 0;
  /// Ceiling on one request's wall-clock run time in milliseconds, counted
  /// from dispatch (0 = none). A DeadlineTimer on the job's token cancels
  /// an overrunning job cooperatively (reason "watchdog"); it answers with a
  /// `partial: true` report, and the worker moves on. Protects the pool from
  /// pathological kernels that a client submitted without a deadline.
  std::uint64_t max_request_ms = 0;
  /// Store persistence (empty = in-memory only) and cache sizing.
  std::string cache_file;
  ResultCacheConfig cache_config;
  /// Accept-poll cadence; also how often stop requests and idle snapshots
  /// are noticed.
  int accept_timeout_ms = 200;
  /// Latency/area model every request runs under.
  LatencyModel latency = LatencyModel::standard_018um();
  /// Scheme registry for the worker explorers (null = the global registry).
  /// Tests inject registries with gated schemes to make scheduling races
  /// deterministic.
  SchemeRegistry* registry = nullptr;
};

class IsexDaemon {
 public:
  /// Builds the store (warm-starting from cache_file when present) and
  /// binds the socket; throws SocketError/Error on an unusable path.
  explicit IsexDaemon(DaemonConfig config);
  ~IsexDaemon();

  IsexDaemon(const IsexDaemon&) = delete;
  IsexDaemon& operator=(const IsexDaemon&) = delete;

  /// Serves until request_stop(); returns after the graceful drain.
  void serve();

  /// Requests shutdown; async-signal-safe (a single atomic store), callable
  /// from any thread or signal handler. serve() notices within one accept
  /// timeout.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  ResultStore& store() { return *store_; }
  const std::string& socket_path() const { return config_.socket_path; }

 private:
  class Connection;

  void worker_loop();
  /// Runs one job and returns its terminal ("report"/"error", payload).
  /// The caller publishes it *after* closing the job's dedup window, so a
  /// client that saw the terminal can never re-attach to the finished run.
  std::pair<std::string, Json> run_job(const ServiceJobPtr& job);
  /// store_->snapshot() that survives write failures: persistence trouble
  /// (disk full, injected snapshot-write fault) is a stderr warning, never
  /// a dead daemon.
  void snapshot_store();
  /// One reader thread body: frames in, admissions/error events out.
  void serve_connection(const std::shared_ptr<Connection>& conn);
  /// Handles one parsed line from `conn`; false when the connection should
  /// be dropped (transport failure while responding).
  bool handle_line(const std::shared_ptr<Connection>& conn, const std::string& line);
  /// Joins finished reader threads and drops their connections.
  void reap_connections(bool join_all);

  DaemonConfig config_;
  std::unique_ptr<ResultStore> store_;
  std::unique_ptr<UnixListener> listener_;
  AdmissionQueue queue_;
  /// Largest request.num_threads admitted: the host's core count.
  const int max_request_threads_;
  std::atomic<bool> stop_{false};

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> workers_;
};

}  // namespace isex
