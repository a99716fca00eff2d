#include "harness.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#include "service/client.hpp"
#include "service/protocol.hpp"
#include "support/hash.hpp"

namespace perfbench {

using isex::Json;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::uint64_t report_digest(const Json& report) {
  return isex::hash_bytes(isex::stable_report_json(report).dump());
}

bool report_ok(const Json& report, std::uint64_t pin, std::string* why) {
  if (const Json* partial = report.find("partial"); partial != nullptr && partial->as_bool()) {
    *why = "unexpected partial report";
    return false;
  }
  if (const Json* v = report.find("validation");
      v != nullptr && v->at("rewritten").as_bool() &&
      !(v->at("bit_exact").as_bool() && v->at("counts_match").as_bool())) {
    *why = "rewrite verification failed (bit_exact/counts_match false)";
    return false;
  }
  if (report_digest(report) != pin) {
    *why = "report digest differs from the pinned in-process result";
    return false;
  }
  return true;
}

void Tally::record(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 5) errors.push_back(why);
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 5) errors.push_back(e);
  }
}

ProcUsage proc_usage(pid_t pid) {
  ProcUsage out;
  if (pid == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto ms = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
    };
    out.cpu_ms = ms(ru.ru_utime) + ms(ru.ru_stime);
  } else {
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    std::getline(stat, line);
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    std::istringstream rest(line.substr(line.rfind(')') + 2));
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    out.cpu_ms = (utime + stime) * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                : "/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) out.peak_rss_mb = std::stod(line.substr(6)) / 1024.0;
  }
  return out;
}

Json environment_record(const std::string& git_commit) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  Json env = Json::object();
  env.set("hardware_concurrency", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  env.set("nproc", nproc);
  env.set("build_type", std::string(PERFBENCH_BUILD_TYPE));
#ifdef NDEBUG
  env.set("ndebug", true);
#else
  env.set("ndebug", false);
#endif
  env.set("compiler", std::string(__VERSION__));
  env.set("git_commit", git_commit);
  return env;
}

// --- DaemonProcess -----------------------------------------------------------

DaemonProcess::DaemonProcess(const std::string& isexd, const std::string& socket,
                             const std::string& log, int threads)
    : socket_(socket) {
  const std::string threads_arg = std::to_string(threads);
  std::vector<const char*> argv = {isexd.c_str(), "--socket", socket.c_str(), "--threads",
                                   threads_arg.c_str(), nullptr};
  pid_ = fork();
  if (pid_ < 0) throw isex::Error("fork failed while starting isexd");
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec. The daemon dies with
    // the benchmark if the benchmark is killed.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execv(argv[0], const_cast<char* const*>(argv.data()));
    _exit(127);
  }
}

DaemonProcess::~DaemonProcess() { stop(); }

void DaemonProcess::wait_ready() const {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      throw isex::Error("isexd exited during start-up (see its log)");
    }
    try {
      isex::IsexClient client(socket_);
      client.ping();
      return;
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  throw isex::Error("isexd did not answer a ping within 30 s");
}

void DaemonProcess::stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  int status = 0;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() >= deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

// --- closed loop -------------------------------------------------------------

namespace {

/// Client spans are kept for the first requests of each connection only, so
/// the trace file stays small on fast workloads; metrics use every request.
constexpr std::size_t kTracedRequestsPerClient = 400;

struct ClientOutcome {
  std::vector<double> latencies_ms;
  std::vector<double> done_s;
  Tally tally;
  std::vector<PhaseSample> phases;
  Tracer spans;
  Clock::time_point last_end;

  explicit ClientOutcome(Clock::time_point origin) : spans(origin), last_end(origin) {}
};

/// Event arrival times of one in-flight request.
struct EventTimes {
  Clock::time_point accepted, extracted, identified, selected, report;
  bool has_accepted = false;
  bool has_extracted = false;
  bool has_identified = false;
  bool has_selected = false;
  PhaseSample sample;
};

void run_client(int track, const std::string& socket,
                const std::vector<isex::ExplorationRequest>& requests,
                const std::vector<std::uint64_t>& pins,
                const std::vector<double>& frame_bytes, const std::vector<int>& sequence,
                Clock::time_point start, Clock::time_point stop_sending, bool trace,
                ClientOutcome& out) {
  std::unique_ptr<isex::IsexClient> client;
  try {
    client = std::make_unique<isex::IsexClient>(socket);
  } catch (const std::exception& e) {
    out.tally.record(false, std::string("connect: ") + e.what());
    return;
  }
  std::this_thread::sleep_until(start);
  EventTimes times;
  isex::IsexClient::EventCallback on_event;
  if (trace) {
    on_event = [&times](const isex::EventFrame& ev) {
      const Clock::time_point now = Clock::now();
      if (ev.event == "accepted") {
        times.accepted = now;
        times.has_accepted = true;
        times.sample.deduped = ev.data.at("deduped").as_bool();
        times.sample.batch_size = ev.data.at("batch_size").as_double();
        times.sample.queue_depth = ev.data.at("queue_depth").as_double();
      } else if (ev.event == "extracted") {
        times.extracted = now;
        times.has_extracted = true;
      } else if (ev.event == "identified") {
        times.identified = now;
        times.has_identified = true;
      } else if (ev.event == "selected") {
        times.selected = now;
        times.has_selected = true;
      } else if (ev.event == "report") {
        times.report = now;
        times.sample.report_frame_bytes =
            static_cast<double>(isex::dump_event_frame(ev.id, ev.event, ev.data).size());
      }
    };
  }
  std::size_t k = 0;
  while (Clock::now() < stop_sending) {
    const int index = sequence[k % sequence.size()];
    ++k;
    times = EventTimes{};
    const Clock::time_point sent = Clock::now();
    std::string why;
    bool ok = false;
    try {
      const Json payload = client->explore(requests[static_cast<std::size_t>(index)], 0, on_event);
      const Clock::time_point done = Clock::now();
      out.last_end = done;
      ok = report_ok(payload.at("report"), pins[static_cast<std::size_t>(index)], &why);
      if (trace && ok) {
        PhaseSample& s = times.sample;
        s.request_frame_bytes = frame_bytes[static_cast<std::size_t>(index)];
        const Json& cache = payload.at("report").at("cache");
        s.cache.hits = cache.at("hits").as_uint();
        s.cache.misses = cache.at("misses").as_uint();
        s.cache.dfg_hits = cache.at("dfg_hits").as_uint();
        s.cache.dfg_misses = cache.at("dfg_misses").as_uint();
        if (times.has_accepted && times.has_extracted && times.has_selected) {
          s.send_to_accepted_ms = ms_between(sent, times.accepted);
          s.accepted_to_extracted_ms = ms_between(times.accepted, times.extracted);
          s.selected_to_report_ms = ms_between(times.selected, times.report);
          out.phases.push_back(s);
        }
        if (k <= kTracedRequestsPerClient && times.has_accepted && times.has_extracted &&
            times.has_identified && times.has_selected) {
          const auto rid = static_cast<std::int64_t>(track) * 1000000 + static_cast<std::int64_t>(k);
          const int root = out.spans.add("service.request", sent, done, -1, rid, track);
          out.spans.add("service.send_to_accepted", sent, times.accepted, root, rid, track);
          out.spans.add("service.accepted_to_extracted", times.accepted, times.extracted, root,
                        rid, track);
          out.spans.add("service.extracted_to_identified", times.extracted, times.identified,
                        root, rid, track);
          out.spans.add("service.identified_to_selected", times.identified, times.selected,
                        root, rid, track);
          out.spans.add("service.selected_to_report", times.selected, done, root, rid, track);
        }
      }
      if (ok) {
        out.latencies_ms.push_back(ms_between(sent, done));
        out.done_s.push_back(ms_between(start, done) / 1e3);
      }
    } catch (const std::exception& e) {
      ok = false;
      why = e.what();
      out.last_end = Clock::now();
      // A broken connection is re-dialled once per failure.
      try {
        client = std::make_unique<isex::IsexClient>(socket);
      } catch (const std::exception&) {
        out.tally.record(false, why);
        return;
      }
    }
    out.tally.record(ok, why);
  }
}

}  // namespace

LoopResult run_closed_loop(const std::string& socket,
                           const std::vector<isex::ExplorationRequest>& requests,
                           const std::vector<std::uint64_t>& pins,
                           const std::vector<std::vector<int>>& sequences, double seconds,
                           bool trace, Clock::time_point origin) {
  std::vector<double> frame_bytes(requests.size(), 0.0);
  if (trace) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      isex::RequestFrame frame;
      frame.id = "c0";
      frame.type = "explore";
      frame.single = requests[i];
      frame_bytes[i] = static_cast<double>(isex::dump_request_frame(frame).size()) + 1.0;
    }
  }
  std::vector<ClientOutcome> outcomes;
  outcomes.reserve(sequences.size());
  for (std::size_t c = 0; c < sequences.size(); ++c) outcomes.emplace_back(origin);
  // Every client connects first; the clock starts once all are connected.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(100);
  const Clock::time_point stop_sending =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < sequences.size(); ++c) {
    threads.emplace_back(run_client, static_cast<int>(c) + 1, std::cref(socket),
                         std::cref(requests), std::cref(pins), std::cref(frame_bytes),
                         std::cref(sequences[c]), start, stop_sending, trace,
                         std::ref(outcomes[c]));
  }
  for (std::thread& t : threads) t.join();

  LoopResult result(origin);
  Clock::time_point last = start;
  for (ClientOutcome& o : outcomes) {
    result.latencies_ms.insert(result.latencies_ms.end(), o.latencies_ms.begin(),
                               o.latencies_ms.end());
    result.done_s.insert(result.done_s.end(), o.done_s.begin(), o.done_s.end());
    result.tally.merge(o.tally);
    result.phases.insert(result.phases.end(), o.phases.begin(), o.phases.end());
    result.spans.append(o.spans);
    last = std::max(last, o.last_end);
  }
  result.wall_s = std::chrono::duration<double>(last - start).count();
  return result;
}

Tally replay_sequential(const std::string& socket,
                        const std::vector<isex::ExplorationRequest>& requests,
                        const std::vector<int>& order, const std::vector<std::uint64_t>& pins) {
  Tally tally;
  isex::IsexClient client(socket);
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::string why;
    bool ok = false;
    try {
      const Json payload = client.explore(requests[static_cast<std::size_t>(order[i])]);
      ok = report_ok(payload.at("report"), pins[i], &why);
    } catch (const std::exception& e) {
      why = e.what();
    }
    tally.record(ok, why);
  }
  return tally;
}

}  // namespace perfbench
