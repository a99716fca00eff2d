// Client for the exploration daemon (tools/isexd.cpp). Three modes:
//
//   isex_client --socket /tmp/isex.sock
//       Runs the quickstart exploration (adpcmdecode under 4/2 ports) over
//       the socket, printing each streamed phase event and a report
//       summary, then a weighted two-application portfolio the same way.
//
//   isex_client --socket /tmp/isex.sock --smoke
//       The CI service job's concurrency check: four client connections in
//       parallel threads — two of them submitting the *identical* request —
//       asserting that the duplicate is deduped (`deduped: true` on its
//       accepted event), that the deduped pair's reports are byte-identical
//       (timings excluded), that the shared store reports nonzero hits for
//       a repeat request, and that every client got a full event stream.
//       Exits nonzero on any violation.
//
//   isex_client --socket /tmp/isex.sock --ir FILE [--twin NAME]
//       Ships the textual `.isex` kernel FILE to the daemon as a protocol-v2
//       `ir_text` request (the kernel travels inside the frame — the daemon
//       never touches client paths), then runs the same exploration in
//       process and asserts the two stable reports are byte-identical. With
//       `--twin NAME` the local run uses the registry workload NAME instead
//       of the text, proving the text round-trips the builder kernel through
//       the full wire path. Exits nonzero on any mismatch.
//
// Local in-process equivalents of these requests live in
// examples/quickstart.cpp and examples/portfolio.cpp; this driver is about
// the wire path.
#include <atomic>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/explorer.hpp"
#include "service/client.hpp"

using namespace isex;

namespace {

/// Connection policy shared by every mode, filled from flags.
ClientOptions g_options;
/// Server-side per-request deadline applied to the demo requests (0 = none).
std::uint64_t g_deadline_ms = 0;

// Exit codes: 0 ok, 1 generic failure, 2 usage, then one per client error
// class so scripts can branch on the failure mode.
constexpr int kExitConnect = 3;     // ConnectError: no daemon at the socket
constexpr int kExitDisconnect = 4;  // DisconnectError: daemon died mid-stream
constexpr int kExitTimeout = 5;     // TimeoutError: --timeout-ms fired

ExplorationRequest quickstart_request() {
  ExplorationRequest request;
  request.workload = "adpcmdecode";
  request.scheme = "iterative";
  request.constraints.max_inputs = 4;
  request.constraints.max_outputs = 2;
  request.num_instructions = 8;
  return request;
}

/// The smoke's dedup pair. Neither the demo (quickstart_request() and the
/// adpcm+sha1 portfolio) nor the other smoke clients warm it, so on a
/// daemon that ran the demo the pair's first job still searches cold for
/// tens of milliseconds, and the pipelined second frame is admitted while
/// it is in flight. A warm request could finish before that frame arrives.
ExplorationRequest dedup_pair_request() {
  ExplorationRequest request = quickstart_request();
  request.workload = "idct";
  request.constraints.max_inputs = 6;
  request.constraints.max_outputs = 3;
  return request;
}

MultiExplorationRequest portfolio_request() {
  MultiExplorationRequest request;
  request.workloads.resize(2);
  request.workloads[0].workload = "adpcmdecode";
  request.workloads[0].weight = 2.0;
  request.workloads[1].workload = "sha1";
  request.workloads[1].weight = 1.0;
  request.scheme = "joint-iterative";
  request.constraints.max_inputs = 4;
  request.constraints.max_outputs = 2;
  request.num_instructions = 8;
  return request;
}

void print_event(const EventFrame& event) {
  std::cout << "  [" << event.id << "] " << event.event;
  if (event.event != "report") std::cout << " " << event.data.dump();
  std::cout << "\n";
}

int run_demo(const std::string& socket_path) {
  IsexClient client(socket_path, g_options);
  std::cout << "daemon status: " << client.ping().dump() << "\n";

  ExplorationRequest single_request = quickstart_request();
  single_request.deadline_ms = g_deadline_ms;
  std::cout << "exploring adpcmdecode over the socket:\n";
  Json single = client.explore(single_request, /*search_budget=*/0, print_event);
  const Json& report = single.at("report");
  std::cout << "  -> " << report.at("cuts").as_array().size() << " instructions, speedup "
            << report.at("estimated_speedup").dump() << "\n";
  if (const Json* partial = report.find("partial"); partial != nullptr && partial->as_bool()) {
    std::cout << "  -> PARTIAL (" << report.at("partial_reason").as_string()
              << "): best selection found before the deadline\n";
  }

  MultiExplorationRequest multi_request = portfolio_request();
  multi_request.deadline_ms = g_deadline_ms;
  std::cout << "exploring the adpcm+sha1 portfolio over the socket:\n";
  Json multi = client.explore_portfolio(multi_request, 0, print_event);
  std::cout << "  -> weighted speedup "
            << multi.at("report").at("weighted_speedup").dump() << "\n";
  std::cout << "store after both: " << multi.at("store").dump() << "\n";
  return 0;
}

struct SmokeOutcome {
  bool ok = false;
  bool deduped = false;
  std::string stable_report;  // timings-stripped report payload
  std::string error;
};

/// One smoke client: runs `request` and records whether its accepted event
/// carried deduped, plus the stable report bytes.
SmokeOutcome smoke_run(const std::string& socket_path, const ExplorationRequest& request) {
  SmokeOutcome outcome;
  try {
    IsexClient client(socket_path, g_options);
    int phases = 0;
    Json payload = client.explore(request, 0, [&](const EventFrame& event) {
      if (event.event == "accepted" && event.data.at("deduped").as_bool()) {
        outcome.deduped = true;
      }
      if (event.event == "extracted" || event.event == "identified" ||
          event.event == "selected") {
        ++phases;
      }
    });
    outcome.stable_report = stable_report_json(payload.at("report")).dump();
    // A deduped run may legitimately attach after some phases streamed; a
    // fresh run must see all three.
    outcome.ok = outcome.deduped || phases == 3;
    if (!outcome.ok) outcome.error = "missing phase events";
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  return outcome;
}

int run_smoke(const std::string& socket_path) {
  // Client 0/1 share one request (the dedup pair); 2 and 3 are distinct.
  ExplorationRequest shared = dedup_pair_request();
  ExplorationRequest third = quickstart_request();
  third.workload = "sha1";
  ExplorationRequest fourth = quickstart_request();
  fourth.constraints.max_inputs = 3;
  fourth.constraints.max_outputs = 1;

  // The dedup pair goes out pipelined on one connection first — the second
  // frame reaches admission while the first is queued or running, which is
  // what makes `deduped` deterministic. The other two run on their own
  // connections in parallel.
  SmokeOutcome a, b, c, d;
  std::thread pair([&] {
    try {
      IsexClient client(socket_path);
      RequestFrame f1;
      f1.type = "explore";
      f1.single = shared;
      RequestFrame f2 = f1;
      const std::string id1 = client.send_frame(std::move(f1));
      const std::string id2 = client.send_frame(std::move(f2));
      bool dedup2 = false;
      const auto watch = [&](const EventFrame& event) {
        if (event.id == id2 && event.event == "accepted") {
          dedup2 = event.data.at("deduped").as_bool();
        }
      };
      Json r1 = client.collect_report(id1, watch);
      Json r2 = client.collect_report(id2, watch);
      a.stable_report = stable_report_json(r1.at("report")).dump();
      b.stable_report = stable_report_json(r2.at("report")).dump();
      b.deduped = dedup2;
      a.ok = true;
      b.ok = dedup2;
      if (!dedup2) b.error = "duplicate request was not deduped";
    } catch (const std::exception& e) {
      a.error = b.error = e.what();
    }
  });
  std::thread t3([&] { c = smoke_run(socket_path, third); });
  std::thread t4([&] { d = smoke_run(socket_path, fourth); });
  pair.join();
  t3.join();
  t4.join();

  int failures = 0;
  const auto check = [&](const char* name, bool ok, const std::string& why) {
    if (ok) {
      std::cout << "smoke: " << name << " ok\n";
    } else {
      std::cerr << "smoke: " << name << " FAILED: " << why << "\n";
      ++failures;
    }
  };
  check("client-1 (fresh)", a.ok, a.error);
  check("client-2 (duplicate deduped)", b.ok, b.error);
  check("client-3 (sha1round)", c.ok, c.error);
  check("client-4 (3/1 ports)", d.ok, d.error);
  check("dedup pair byte-identical reports",
        a.ok && b.ok && a.stable_report == b.stable_report,
        "stable report JSON differs between the deduped pair");

  // A repeat of the shared request must now be served from the warm store:
  // its per-request delta shows hits and no identification misses.
  try {
    IsexClient client(socket_path);
    Json repeat = client.explore(shared);
    const Json& cache = repeat.at("report").at("cache");
    const bool warm = cache.at("hits").as_uint() > 0 && cache.at("misses").as_uint() == 0;
    check("repeat served from shared store", warm, "expected all-hit cache delta, got " + cache.dump());
    check("store lifetime hits nonzero", repeat.at("store").at("hits").as_uint() > 0,
          repeat.at("store").dump());
  } catch (const std::exception& e) {
    check("repeat served from shared store", false, e.what());
  }
  return failures == 0 ? 0 : 1;
}

/// Stable report minus the per-request cache-counter delta: the daemon's
/// shared store may already be warm when the request lands, which shifts
/// hits/misses without changing a single selected instruction.
std::string comparable_report(const Json& report) {
  const Json stable = stable_report_json(report);
  Json filtered = Json::object();
  for (const auto& [key, value] : stable.as_object()) {
    if (key == "cache") continue;
    filtered.set(key, value);
  }
  return filtered.dump();
}

int run_ir(const std::string& socket_path, const std::string& ir_file,
           const std::string& twin) {
  std::ifstream in(ir_file, std::ios::binary);
  if (!in) {
    std::cerr << "isex_client: cannot read " << ir_file << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  ExplorationRequest request = quickstart_request();
  request.workload.clear();
  request.ir_text = buf.str();

  std::cout << "exploring " << ir_file << " over the socket (ir_text):\n";
  IsexClient client(socket_path, g_options);
  const Json payload = client.explore(request, /*search_budget=*/0, print_event);
  const std::string served = comparable_report(payload.at("report"));

  // The parity twin runs in process on a cold explorer: same constraints,
  // same kernel — by text, or by registry name with --twin.
  ExplorationRequest local = request;
  if (!twin.empty()) {
    local.ir_text.clear();
    local.workload = twin;
  }
  const Explorer explorer;
  const std::string in_process = comparable_report(explorer.run(local).to_json());

  if (served != in_process) {
    std::cerr << "isex_client: daemon report diverges from the in-process "
              << (twin.empty() ? "text" : "registry twin '" + twin + "'") << " run\n"
              << "  daemon: " << served << "\n  local:  " << in_process << "\n";
    return 1;
  }
  std::cout << "daemon report byte-identical to the in-process "
            << (twin.empty() ? std::string("text run") : "registry twin " + twin) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/isex.sock";
  std::string ir_file;
  std::string twin;
  bool smoke = false;
  const auto count_flag = [&](int* i) -> std::uint64_t {
    if (*i + 1 >= argc) {
      std::cerr << "isex_client: " << argv[*i] << " needs a value\n";
      std::exit(2);
    }
    return static_cast<std::uint64_t>(std::stoll(argv[++*i]));
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--ir" && i + 1 < argc) {
      ir_file = argv[++i];
    } else if (arg == "--twin" && i + 1 < argc) {
      twin = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--deadline-ms") {
      g_deadline_ms = count_flag(&i);
    } else if (arg == "--timeout-ms") {
      g_options.request_timeout_ms = count_flag(&i);
    } else if (arg == "--connect-attempts") {
      g_options.connect_attempts = static_cast<int>(count_flag(&i));
    } else if (arg == "--reconnect-attempts") {
      g_options.reconnect_attempts = static_cast<int>(count_flag(&i));
    } else {
      std::cerr << "usage: isex_client [--socket PATH] [--deadline-ms N] [--timeout-ms N]\n"
                   "                   [--connect-attempts N] [--reconnect-attempts N]\n"
                   "                   [--smoke | --ir FILE [--twin NAME]]\n"
                   "exit codes: 0 ok, 1 failure, 2 usage, 3 connect refused,\n"
                   "            4 disconnected mid-stream, 5 client timeout\n";
      return 2;
    }
  }
  if (smoke && !ir_file.empty()) {
    std::cerr << "--smoke and --ir are mutually exclusive\n";
    return 2;
  }
  if (!twin.empty() && ir_file.empty()) {
    std::cerr << "--twin needs --ir FILE\n";
    return 2;
  }
  try {
    if (!ir_file.empty()) return run_ir(socket_path, ir_file, twin);
    return smoke ? run_smoke(socket_path) : run_demo(socket_path);
  } catch (const TimeoutError& e) {
    std::cerr << "isex_client: timeout: " << e.what() << "\n";
    return kExitTimeout;
  } catch (const DisconnectError& e) {
    std::cerr << "isex_client: disconnected: " << e.what() << "\n";
    return kExitDisconnect;
  } catch (const ConnectError& e) {
    std::cerr << "isex_client: connect failed: " << e.what() << "\n";
    return kExitConnect;
  } catch (const std::exception& e) {
    std::cerr << "isex_client: " << e.what() << "\n";
    return 1;
  }
}
