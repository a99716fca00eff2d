#include "service/daemon.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <optional>

#include "core/search_tables.hpp"
#include "support/fault_injection.hpp"

namespace isex {

/// One accepted client connection: the reader thread's frame source and
/// thread-safe event writes over the same fd. The object stays alive (and
/// the fd open) as long as any job still holds it as a subscriber, so a
/// client that half-closes after sending its requests still receives every
/// response.
class IsexDaemon::Connection {
 public:
  Connection(FdHandle fd, std::size_t max_frame_bytes)
      : fd_(std::move(fd)), reader_(fd_.get(), max_frame_bytes) {}

  ~Connection() { join(); }

  /// Writes one event frame, tagged with the protocol version the
  /// subscriber's request arrived under — a v1 client never reads a
  /// v2-tagged frame. False once the client is gone.
  bool emit_versioned(const std::string& id, const std::string& event, const Json& data,
                      int version) {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (!alive_) return false;
    try {
      if (!write_all(fd_.get(), dump_event_frame(id, event, data, version))) {
        alive_ = false;
      }
    } catch (const SocketError&) {
      alive_ = false;  // EventSink contract: a dead client is false, not a throw
    }
    return alive_;
  }

  /// Subscriber adapter pairing this connection with the protocol version
  /// one request frame was tagged with; every event a job publishes to the
  /// subscriber echoes that version, so a v1 client never reads a v2 frame.
  class VersionedSink : public EventSink {
   public:
    VersionedSink(std::shared_ptr<Connection> conn, int version)
        : conn_(std::move(conn)), version_(version) {}

    bool emit(const std::string& id, const std::string& event, const Json& data) override {
      return conn_->emit_versioned(id, event, data, version_);
    }

   private:
    std::shared_ptr<Connection> conn_;  // keeps the fd open
    int version_;
  };

  /// Runs `body` on the connection's reader thread.
  template <typename Fn>
  void start(Fn&& body) {
    thread_ = std::thread(std::forward<Fn>(body));
  }

  std::optional<std::string> read_frame() { return reader_.read_frame(); }

  void mark_reader_done() { reader_done_.store(true, std::memory_order_release); }
  bool reader_done() const { return reader_done_.load(std::memory_order_acquire); }

  /// Forces the blocking reader (and any pending writes) to fail — the
  /// shutdown path's way of unsticking reader threads.
  void shutdown_socket() {
    // Shut the fd down before taking the write lock: a writer blocked in
    // send() holds the lock and only the shutdown can unblock it.
    ::shutdown(fd_.get(), SHUT_RDWR);
    std::lock_guard<std::mutex> lock(write_mu_);
    alive_ = false;
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  FdHandle fd_;
  FrameReader reader_;  // reader-thread-only
  std::thread thread_;
  std::atomic<bool> reader_done_{false};

  std::mutex write_mu_;
  bool alive_ = true;
};

namespace {

/// The partial reason of a job the max_request_ms ceiling cancelled.
constexpr const char* kReasonWatchdog = "watchdog";

/// The data of an `error` event: code, message and the machine-readable
/// details (e.g. queue-full's retry_after_ms) next to them.
Json error_data(const ServiceError& e) {
  Json data = Json::object();
  data.set("code", e.code());
  data.set("message", std::string(e.what()));
  for (const auto& [key, value] : e.details().as_object()) data.set(key, value);
  return data;
}

}  // namespace

IsexDaemon::IsexDaemon(DaemonConfig config)
    : config_(std::move(config)),
      store_(std::make_unique<ResultStore>(
          ResultStoreConfig{config_.cache_file, config_.cache_config})),
      listener_(std::make_unique<UnixListener>(config_.socket_path)),
      queue_(config_.max_queue),
      max_request_threads_(static_cast<int>(std::max(1u, std::thread::hardware_concurrency()))) {}

IsexDaemon::~IsexDaemon() {
  // serve() normally drains everything; this is the safety net for a daemon
  // destroyed without serving (e.g. a test that only constructs it).
  queue_.close();
  for (auto& w : workers_) w.join();
  reap_connections(/*join_all=*/true);
}

void IsexDaemon::serve() {
  const int num_workers = std::max(1, config_.num_workers);
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  while (!stop_.load(std::memory_order_relaxed)) {
    FdHandle client;
    try {
      client = listener_->accept_client(config_.accept_timeout_ms);
    } catch (const SocketError& e) {
      // A transient accept failure (fd exhaustion, an injected socket-accept
      // fault) costs at most one connection, never the daemon: the client
      // sees a drop and retries (IsexClient reconnects with backoff).
      std::fprintf(stderr, "isexd: warning: accept failed: %s\n", e.what());
      continue;
    }
    if (client.valid()) {
      auto conn = std::make_shared<Connection>(std::move(client), config_.max_frame_bytes);
      conn->start([this, conn] { serve_connection(conn); });
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    reap_connections(/*join_all=*/false);
    // Idle persistence: a no-op unless some request completed since the
    // last snapshot (the store's dirty flag), so polling every accept tick
    // is cheap.
    if (queue_.idle()) snapshot_store();
  }

  // Graceful drain: stop accepting, refuse new submissions, let admitted
  // work publish its results, then tear down readers and persist. Each
  // job's ceiling timer still runs — an overrunning job must not stall
  // shutdown past its ceiling.
  listener_.reset();
  queue_.drain();
  while (!queue_.idle()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  queue_.close();
  for (auto& w : workers_) w.join();
  workers_.clear();
  reap_connections(/*join_all=*/true);
  snapshot_store();
}

void IsexDaemon::snapshot_store() {
  try {
    store_->snapshot();
  } catch (const std::exception& e) {
    // Persistence trouble must not take down a serving daemon; the store
    // keeps its in-memory state and the next idle tick retries.
    std::fprintf(stderr, "isexd: warning: cache snapshot failed: %s\n", e.what());
  }
}

void IsexDaemon::worker_loop() {
  while (const ServiceJobPtr job = queue_.next_job()) {
    // Close the dedup window *before* the terminal goes out: a client that
    // reads the report and immediately re-submits must get a fresh job, not
    // an attach to one whose stream already ended.
    std::pair<std::string, Json> terminal = run_job(job);
    queue_.finish(job);
    job->publish_terminal(terminal.first, terminal.second);
  }
}

std::pair<std::string, Json> IsexDaemon::run_job(const ServiceJobPtr& job) {
  const RequestFrame& frame = job->frame();
  CancelToken& token = job->cancel();
  try {
    if (FaultInjector::instance().should_fail("worker-dispatch")) {
      throw Error("injected fault: worker-dispatch");
    }
    // Deadline and ceiling are timers on the job's token: the frame's
    // deadline counts from admission (an expired request must not start
    // burning CPU), the operator's ceiling from now. A time already past
    // trips the token before the run starts.
    std::optional<DeadlineTimer> deadline, ceiling;
    if (frame.deadline_ms > 0) {
      deadline.emplace(token, job->admitted() + std::chrono::milliseconds(frame.deadline_ms),
                       kReasonDeadlineExceeded);
    }
    if (config_.max_request_ms > 0) {
      ceiling.emplace(token,
                      std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(config_.max_request_ms),
                      kReasonWatchdog);
    }
    Explorer explorer(config_.latency, store_->cache(), config_.registry);
    // Per-request budget: every identification search of this job draws on
    // one gate, so the job's aggregate cuts_considered pins at
    // min(demand, budget) no matter how the work is threaded.
    BudgetGate gate(frame.search_budget);
    RunHooks hooks;
    hooks.on_phase = [&job](const std::string& phase, const Json& data) {
      job->publish(phase, data);
    };
    if (frame.search_budget > 0) hooks.budget_gate = &gate;
    // The job's token rides into the engines through the hooks; a token
    // that never fires leaves the run byte-identical to an unhooked one.
    hooks.cancel = &token;

    Json data = Json::object();
    data.set("kind", std::string(frame.single.has_value() ? "exploration" : "portfolio"));
    data.set("report", frame.single.has_value()
                           ? explorer.run(*frame.single, hooks).to_json()
                           : explorer.run_portfolio(*frame.portfolio, hooks).to_json());
    if (frame.search_budget > 0) {
      Json b = Json::object();
      b.set("search_budget", gate.budget());
      b.set("cuts_considered", gate.consumed());
      b.set("exhausted", gate.exhausted());
      data.set("budget", b);
    }
    store_->note_activity();
    data.set("store", store_->status());
    if (token.reason() == kReasonWatchdog) {
      std::fprintf(stderr, "isexd: watchdog cancelled a job running past %llu ms\n",
                   static_cast<unsigned long long>(config_.max_request_ms));
    }
    return {"report", std::move(data)};
  } catch (const ServiceError& e) {
    return {"error", error_data(e)};
  } catch (const std::exception& e) {
    // A pipeline failure poisons this job only; the daemon keeps serving.
    return {"error", error_data(ServiceError(kErrInternal, e.what()))};
  }
}

void IsexDaemon::serve_connection(const std::shared_ptr<Connection>& conn) {
  try {
    while (true) {
      std::optional<std::string> line = conn->read_frame();
      if (!line.has_value()) break;  // clean EOF (or peer died mid-frame)
      if (line->empty()) continue;   // stray blank lines are harmless
      if (!handle_line(conn, *line)) break;
    }
  } catch (const SocketError&) {
    // Oversized frame or a read error: this connection is unusable, drop it.
    // In-flight jobs it subscribed to self-clean on their next publish.
  } catch (const std::exception&) {
    // Defensive: no parse/admission failure should reach here (handle_line
    // maps them to error events), but a reader thread must never terminate
    // the daemon.
  }
  conn->mark_reader_done();
}

bool IsexDaemon::handle_line(const std::shared_ptr<Connection>& conn,
                             const std::string& line) {
  std::string id;
  int version = kServiceProtocolVersion;
  try {
    RequestFrame frame = parse_request_frame(line, &id, &version);
    if (frame.type == "ping") {
      return conn->emit_versioned(id, "pong", store_->status(), frame.version);
    }
    // Every request with num_threads != 1 builds its own thread pool, so
    // the host bounds what one frame may ask for: past the core count more
    // threads buy nothing, and a wire-chosen count could exhaust the
    // process.
    const RunOptions& run = frame.single.has_value()
                                ? static_cast<const RunOptions&>(*frame.single)
                                : *frame.portfolio;
    if (run.num_threads > max_request_threads_) {
      throw ServiceError(kErrBadRequest, "num_threads must be <= " +
                                             std::to_string(max_request_threads_) +
                                             " (this host's cores; 0 = all of them)");
    }
    if (config_.max_search_budget > 0 &&
        (frame.search_budget == 0 || frame.search_budget > config_.max_search_budget)) {
      // Operator ceiling: unlimited or over-ceiling requests are clamped,
      // and the clamp is visible in the report's budget section.
      frame.search_budget = config_.max_search_budget;
    }
    auto sink = std::make_shared<Connection::VersionedSink>(conn, frame.version);
    queue_.submit(std::move(frame), id, std::move(sink));  // emits the accepted event
    return true;
  } catch (const ServiceError& e) {
    return conn->emit_versioned(id, "error", error_data(e), version);
  }
}

void IsexDaemon::reap_connections(bool join_all) {
  std::vector<std::shared_ptr<Connection>> dead;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    std::vector<std::shared_ptr<Connection>> kept;
    kept.reserve(conns_.size());
    for (auto& conn : conns_) {
      if (join_all) {
        conn->shutdown_socket();
        dead.push_back(std::move(conn));
      } else if (conn->reader_done()) {
        dead.push_back(std::move(conn));
      } else {
        kept.push_back(std::move(conn));
      }
    }
    conns_.swap(kept);
  }
  // Joins happen outside the lock; destruction may be deferred further if a
  // job still holds the connection as a subscriber (shared_ptr keeps the fd
  // open until the terminal event went out).
  for (auto& conn : dead) conn->join();
}

}  // namespace isex
