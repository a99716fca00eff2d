#include "service/admission.hpp"

#include <algorithm>

namespace isex {

// --- ServiceJob -------------------------------------------------------------

ServiceJob::ServiceJob(RequestFrame frame, std::uint64_t fingerprint)
    : frame_(std::move(frame)), fingerprint_(fingerprint) {}

void ServiceJob::publish(const std::string& event, const Json& data) {
  std::lock_guard<std::mutex> lock(mu_);
  // Deliver and drop dead subscribers in one pass; a sink returning false is
  // a disconnected client, never an error.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < subscribers_.size(); ++i) {
    if (subscribers_[i].second->emit(subscribers_[i].first, event, data)) {
      if (kept != i) subscribers_[kept] = std::move(subscribers_[i]);
      ++kept;
    }
  }
  subscribers_.resize(kept);
}

void ServiceJob::publish_terminal(const std::string& event, const Json& data) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    terminal_published_ = true;
    terminal_event_ = event;
    terminal_data_ = data;
  }
  publish(event, data);
}

void ServiceJob::attach(std::string id, EventSinkPtr sink, const Json& accepted_data) {
  std::lock_guard<std::mutex> lock(mu_);
  // `accepted` goes out under the job lock, so a concurrently publishing
  // worker cannot interleave a phase event before it on this subscriber's
  // connection.
  if (!sink->emit(id, "accepted", accepted_data)) return;  // client already gone
  if (terminal_published_) {
    // The job raced to completion between the dedup lookup and this attach:
    // hand the recorded result straight to the late subscriber.
    sink->emit(id, terminal_event_, terminal_data_);
    return;
  }
  subscribers_.emplace_back(std::move(id), std::move(sink));
}

bool ServiceJob::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return terminal_published_;
}

// --- AdmissionQueue ---------------------------------------------------------

AdmissionQueue::AdmissionQueue(std::size_t max_queue)
    : max_queue_(std::max<std::size_t>(1, max_queue)) {}

namespace {

Json accepted_json(const AdmissionResult& result) {
  Json j = Json::object();
  j.set("fingerprint", fingerprint_hex(result.job->fingerprint()));
  j.set("deduped", result.deduped);
  // Every dispatch runs one job; the two fields stay because v1-v3 clients
  // read them.
  j.set("batched", false);
  j.set("batch_size", std::uint64_t{1});
  j.set("queue_depth", static_cast<std::uint64_t>(result.queue_depth));
  return j;
}

Json shutdown_error_json() {
  Json j = Json::object();
  j.set("code", std::string(kErrShuttingDown));
  j.set("message", std::string("the daemon is draining; resubmit elsewhere"));
  return j;
}

}  // namespace

AdmissionResult AdmissionQueue::submit(RequestFrame frame, std::string id,
                                       EventSinkPtr sink) {
  const std::uint64_t fingerprint = request_fingerprint(frame);

  std::unique_lock<std::mutex> lock(mu_);
  if (draining_ || closed_) {
    throw ServiceError(kErrShuttingDown, "the daemon is draining; resubmit elsewhere");
  }

  AdmissionResult result;
  if (auto it = index_.find(fingerprint); it != index_.end()) {
    // Identical computation already queued or running: attach, don't
    // recompute. Attaching happens outside the queue lock — the job may be
    // publishing its terminal event right now, and attach() replays it.
    result.job = it->second;
    result.deduped = true;
    result.queue_depth = queue_.size();
    lock.unlock();
    result.job->attach(std::move(id), std::move(sink), accepted_json(result));
    return result;
  }

  if (queue_.size() >= max_queue_) {
    // Load shedding with a hint: the backlog clears one job at a time, so
    // suggest a backoff proportional to the depth the client is behind.
    // Clients jitter on top (see IsexClient); the hint only has to spread
    // retries, not predict completion.
    Json details = Json::object();
    details.set("retry_after_ms", static_cast<std::uint64_t>(100 * queue_.size()));
    throw ServiceError(kErrQueueFull,
                       "admission queue is full (" + std::to_string(max_queue_) +
                           " queued requests); retry later",
                       std::move(details));
  }

  // Reserve: the job enters the dedup index now (so identical frames attach
  // to it) but the run queue only after the subscriber's `accepted` event is
  // on the wire — a worker cannot emit a phase event ahead of it.
  auto job = std::make_shared<ServiceJob>(std::move(frame), fingerprint);
  index_.emplace(fingerprint, job);
  result.job = job;
  result.queue_depth = queue_.size() + 1;
  lock.unlock();

  job->attach(std::move(id), std::move(sink), accepted_json(result));

  lock.lock();
  if (closed_) {
    // close() slipped between the reservation and the push: no worker will
    // ever run this job, so fail it loudly instead of parking the client.
    index_.erase(fingerprint);
    lock.unlock();
    job->publish_terminal("error", shutdown_error_json());
    return result;
  }
  queue_.push_back(std::move(job));
  lock.unlock();
  cv_.notify_one();
  return result;
}

ServiceJobPtr AdmissionQueue::next_job() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return nullptr;  // closed

  ServiceJobPtr job = std::move(queue_.front());
  queue_.pop_front();
  ++running_;
  return job;
}

void AdmissionQueue::finish(const ServiceJobPtr& job) {
  std::lock_guard<std::mutex> lock(mu_);
  index_.erase(job->fingerprint());
  --running_;
}

void AdmissionQueue::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

void AdmissionQueue::close() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  closed_ = true;
  cv_.notify_all();
}

bool AdmissionQueue::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.empty() && running_ == 0;
}

std::size_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace isex
