// Shared pieces of the benchmark: statistics, the correctness gate, process
// accounting, the spawned daemon and the closed-loop client driver.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/explorer.hpp"
#include "support/json.hpp"
#include "trace.hpp"

namespace perfbench {

// --- statistics --------------------------------------------------------------

/// Linear interpolation between closest ranks (q in [0, 1]); 0 when empty.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

// --- correctness gate --------------------------------------------------------

/// Digest of a report's stable JSON (wall-clock timings stripped).
std::uint64_t report_digest(const isex::Json& report);

/// Checks one report against its pinned digest: the digest must match, the
/// report must not be partial, and a verifying rewrite must be bit-exact
/// with matching invocation counts. On failure `why` says what differed.
bool report_ok(const isex::Json& report, std::uint64_t pin, std::string* why);

/// Counts checked operations; remembers the first few failure messages.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void record(bool ok, const std::string& why);
  void merge(const Tally& other);
};

// --- process accounting ------------------------------------------------------

struct ProcUsage {
  double cpu_ms = 0.0;   // user + system CPU time so far
  double peak_rss_mb = 0.0;  // VmHWM
};

/// Usage of process `pid` (0 = this process) from /proc.
ProcUsage proc_usage(pid_t pid);

/// Environment record printed with every result.
isex::Json environment_record(const std::string& git_commit);

// --- the spawned daemon ------------------------------------------------------

/// One `isexd` child process. The destructor stops it (SIGTERM, then
/// SIGKILL after a grace period) and waits until it has exited.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& isexd, const std::string& socket, const std::string& log,
                int threads);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Blocks until the daemon answers a ping; throws if it died or timed out.
  void wait_ready() const;
  void stop();
  pid_t pid() const { return pid_; }
  const std::string& socket() const { return socket_; }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

// --- closed-loop load --------------------------------------------------------

/// Client-side view of one served request in a traced loop: intervals
/// between the phase events the daemon streamed, and the `accepted`
/// payload's admission facts.
struct PhaseSample {
  double send_to_accepted_ms = 0.0;
  double accepted_to_extracted_ms = 0.0;
  double selected_to_report_ms = 0.0;
  bool deduped = false;
  double batch_size = 0.0;
  double queue_depth = 0.0;
  double request_frame_bytes = 0.0;
  double report_frame_bytes = 0.0;
  isex::CacheCounters cache;
};

struct LoopResult {
  std::vector<double> latencies_ms;  // completed, checked requests
  std::vector<double> done_s;        // their completion times since the start
  Tally tally;
  double wall_s = 0.0;
  std::vector<PhaseSample> phases;  // traced loops only
  Tracer spans;                     // traced loops only (capped)

  explicit LoopResult(Clock::time_point origin) : spans(origin) {}
};

/// Closed loop: one blocking IsexClient per sequence, each sending its next
/// request only after the previous report arrived, until `seconds` have
/// passed. Every report is checked against `pins`.
LoopResult run_closed_loop(const std::string& socket,
                           const std::vector<isex::ExplorationRequest>& requests,
                           const std::vector<std::uint64_t>& pins,
                           const std::vector<std::vector<int>>& sequences, double seconds,
                           bool trace, Clock::time_point origin);

/// Sends requests[order[i]] one by one on one connection and checks each
/// report against pins[i] (the set-up warm-up pass).
Tally replay_sequential(const std::string& socket,
                        const std::vector<isex::ExplorationRequest>& requests,
                        const std::vector<int>& order, const std::vector<std::uint64_t>& pins);

}  // namespace perfbench
