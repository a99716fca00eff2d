// Admission and scheduling of exploration requests inside the daemon.
//
// Every parsed client frame becomes a ServiceJob in a bounded FIFO queue.
// Two admission policies run at submit time, before any worker touches the
// job:
//
//   * bounding — a full queue rejects with a structured `queue-full` error
//     instead of letting one flood of requests grow memory without limit;
//   * dedup    — a frame whose request fingerprint (protocol.hpp) matches a
//     queued or in-flight job does not enqueue a second computation: the new
//     client *attaches* to the existing job and receives its event stream
//     (a late attacher may have missed early phase events, but the terminal
//     report/error is recorded on the job and replayed, so every subscriber
//     always gets exactly one terminal event).
//
// A worker dispatch takes exactly one job. Each job carries its admission
// time and a cancel token; the daemon sets its timers on that token (the
// frame's deadline counted from admission, the operator's ceiling from
// dispatch), so the queue itself keeps no clock. Jobs share work through the
// process-wide result store, not through the dispatch.
//
// The queue knows nothing about sockets: subscribers are EventSinks, and a
// sink returning false (client gone) is dropped from the job. Workers call
// next_job() (blocking) / finish(); close() wakes every worker for
// shutdown, and drain() keeps workers running while refusing new work.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/protocol.hpp"
#include "support/cancellation.hpp"

namespace isex {

/// Where a job's events go for one subscriber. Implementations must be
/// thread-safe (workers publish from worker threads while readers attach)
/// and must return false — never throw, never block indefinitely — once the
/// subscriber is gone, so jobs self-clean dead clients.
class EventSink {
 public:
  virtual ~EventSink() = default;
  /// Delivers one event frame for correlation tag `id`. False = subscriber
  /// unreachable; the job drops it.
  virtual bool emit(const std::string& id, const std::string& event, const Json& data) = 0;
};

using EventSinkPtr = std::shared_ptr<EventSink>;

/// One admitted computation with its subscriber list. Created by the queue,
/// executed by exactly one worker, observed by one or more subscribers
/// (dedup attaches extras).
class ServiceJob {
 public:
  ServiceJob(RequestFrame frame, std::uint64_t fingerprint);

  /// The canonical request (the first frame admitted under this
  /// fingerprint). Immutable after construction.
  const RequestFrame& frame() const { return frame_; }
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// When the job was admitted: the frame's deadline_ms counts from here,
  /// so queue wait counts against it.
  std::chrono::steady_clock::time_point admitted() const { return admitted_; }

  /// The job's cancellation token. The worker sets its deadline timers on
  /// it and threads it into the run as RunHooks::cancel.
  CancelToken& cancel() { return cancel_; }

  /// Publishes a phase event to every live subscriber (each under its own
  /// correlation id); dead sinks are dropped.
  void publish(const std::string& event, const Json& data);
  /// Publishes the job's single terminal event (`report` or `error`) and
  /// records it for subscribers that attach afterwards.
  void publish_terminal(const std::string& event, const Json& data);
  /// Adds a subscriber, first delivering its `accepted` event under the job
  /// lock — so `accepted` reaches the wire before any phase event this
  /// subscriber sees, even when it attaches to a job that is already
  /// running. When the terminal event was already published, it is replayed
  /// right after `accepted` — attaching is never a way to miss the result.
  void attach(std::string id, EventSinkPtr sink, const Json& accepted_data);

  /// True once publish_terminal ran (test introspection).
  bool finished() const;

 private:
  const RequestFrame frame_;
  const std::uint64_t fingerprint_;
  const std::chrono::steady_clock::time_point admitted_ = std::chrono::steady_clock::now();
  CancelToken cancel_;

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, EventSinkPtr>> subscribers_;
  bool terminal_published_ = false;
  std::string terminal_event_;
  Json terminal_data_;
};

using ServiceJobPtr = std::shared_ptr<ServiceJob>;

/// What submit() decided, echoed to the client on its `accepted` event.
struct AdmissionResult {
  ServiceJobPtr job;
  bool deduped = false;         // attached to an existing job
  std::size_t queue_depth = 0;  // queued jobs after this submit
};

class AdmissionQueue {
 public:
  /// `max_queue` bounds *queued* (not yet dispatched) jobs.
  explicit AdmissionQueue(std::size_t max_queue);

  /// Admits one frame for subscriber (`id`, `sink`), delivering the
  /// subscriber's `accepted` event (see protocol.hpp) through the sink
  /// before the job can publish anything else to it. Fresh jobs enter the
  /// run queue only after the attach, so their full phase stream follows
  /// `accepted`. Throws ServiceError(kErrQueueFull) when the queue is at
  /// capacity — with a `retry_after_ms` hint in the error details so
  /// shedding is actionable — and ServiceError(kErrShuttingDown) after
  /// drain()/close(); dedup attaches never fail on a full queue (they add
  /// no work).
  AdmissionResult submit(RequestFrame frame, std::string id, EventSinkPtr sink);

  /// Blocks until work is available and returns the head job. Null means
  /// the queue was closed — the worker should exit.
  ServiceJobPtr next_job();

  /// Marks a dispatched job complete: its fingerprint leaves the dedup
  /// index, so identical future frames recompute (typically a cache hit).
  void finish(const ServiceJobPtr& job);

  /// Stops admitting (submit → shutting-down) while letting queued and
  /// in-flight jobs complete; idle() turning true then means the drain is
  /// done.
  void drain();
  /// drain() plus waking every blocked next_job() caller with "exit".
  void close();

  /// No queued and no dispatched-but-unfinished jobs.
  bool idle() const;
  std::size_t depth() const;

 private:
  const std::size_t max_queue_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ServiceJobPtr> queue_;
  /// Dedup index over queued + in-flight jobs.
  std::unordered_map<std::uint64_t, ServiceJobPtr> index_;
  /// Dispatched-but-unfinished jobs.
  std::size_t running_ = 0;
  bool draining_ = false;
  bool closed_ = false;
};

}  // namespace isex
