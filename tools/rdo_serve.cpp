// rdo_serve — long-running deployment server over the compile/execute
// pipeline (deployment-as-a-service).
//
// Trains a model once at startup, then answers line-delimited JSON
// requests (see src/serve/protocol.h): each evaluate request names a
// deployment config, a programming cycle and a slice of the registered
// train/test data (or an inline batch); the service compiles or re-uses
// a DeploymentPlan (LRU of hot plans; RDO_PLAN_CACHE_DIR persists them
// across restarts) and evaluates on a pooled backend.
//
//   rdo_serve --model mlp --stdio --max-requests 8
//   rdo_serve --model mlp --port 0          # ephemeral TCP port
//
// Transports:
//   --stdio     requests on stdin, responses on stdout, one per line
//   --port P    TCP on 127.0.0.1:P (0 = ephemeral; the chosen port is
//               printed as "rdo_serve: listening on 127.0.0.1:<port>").
//               Connections are handled one at a time; concurrency
//               limits are exercised in-process by tests/test_serve.cpp.
//
// With --bench, a BENCH_rdo_serve.json report (request latency
// histogram, serve_* counters absorbed from the live registry) is
// written on exit, honouring RDO_BENCH_DIR; RDO_TRACE emits
// serve:request spans like every other harness.
//
// Operational telemetry (see src/obs/log.h and src/obs/metrics.h):
// structured log lines go to stderr (RDO_LOG_LEVEL, RDO_LOG_FORMAT);
// RDO_METRICS_INTERVAL_S in (0, 86400] dumps a registry snapshot every
// interval (larger or non-finite values are refused with a warning);
// SIGINT/SIGTERM shut down gracefully — stop accepting, drain in-flight
// requests, flush the trace and log a final metrics snapshot.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/deploy.h"
#include "obs/envvar.h"
#include "data/synthetic.h"
#include "models/lenet.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/server.h"

using namespace rdo;

namespace {

/// Set by the SIGINT/SIGTERM handler; the transport loops poll it and
/// the interrupted accept()/read() (no SA_RESTART) returns EINTR so a
/// blocked loop wakes promptly.
volatile std::sig_atomic_t g_shutdown = 0;
volatile std::sig_atomic_t g_signal = 0;

void on_shutdown_signal(int sig) {
  g_shutdown = 1;
  g_signal = sig;
}

void install_signal_handlers() {
  struct sigaction sa {};
  sa.sa_handler = on_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocking syscalls must wake
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

/// Background thread logging a metrics snapshot every RDO_METRICS_INTERVAL_S
/// seconds, in (0, 86400] (fractional values allowed). Unset or <= 0
/// disables it; so does a value above one day or a non-finite one, with a
/// warning: a wait that long overflows the steady clock's deadline and
/// would return at once, every time.
class MetricsDumper {
 public:
  explicit MetricsDumper(serve::InferenceService& svc) {
    constexpr double kMaxIntervalS = 86400.0;
    double interval_s = 0.0;
    if (const char* p = rdo::obs::env_knob("RDO_METRICS_INTERVAL_S")) {
      char* end = nullptr;
      const double v = std::strtod(p, &end);
      if (end != p && *end == '\0' && v > 0.0) {
        if (v <= kMaxIntervalS) {
          interval_s = v;
        } else {
          obs::log_warn("serve",
                        "RDO_METRICS_INTERVAL_S above one day; periodic "
                        "snapshots off")
              .with("value", p);
        }
      }
    }
    if (interval_s <= 0.0) return;
    th_ = std::thread([this, &svc, interval_s] {
      std::unique_lock<std::mutex> lk(mu_);
      while (!cv_.wait_for(lk, std::chrono::duration<double>(interval_s),
                           [this] { return stop_; })) {
        lk.unlock();
        obs::log_info("serve", "metrics dump")
            .with("snapshot", svc.metrics().snapshot_json().dump());
        lk.lock();
      }
    });
  }

  ~MetricsDumper() {
    if (!th_.joinable()) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    th_.join();
  }

  MetricsDumper(const MetricsDumper&) = delete;
  MetricsDumper& operator=(const MetricsDumper&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread th_;
};

struct ServeArgs {
  std::string model = "mlp";  // mlp | lenet
  std::uint64_t seed = 1;
  int epochs = 6;
  int train_per_class = 60;
  int test_per_class = 20;
  int port = -1;        // >= 0: TCP transport (0 = ephemeral)
  bool stdio = false;
  long max_requests = 0;  // 0 = unlimited
  bool bench = false;
  bool help = false;
  serve::ServeConfig cfg;
};

const char* usage() {
  return
      "usage: rdo_serve [options]\n"
      "  --model NAME         mlp | lenet (default mlp)\n"
      "  --seed N             master seed (default 1)\n"
      "  --epochs N           training epochs at startup (default 6)\n"
      "  --train-per-class N  synthetic train samples per class (default 60)\n"
      "  --test-per-class N   synthetic test samples per class (default 20)\n"
      "  --stdio              serve requests from stdin to stdout\n"
      "  --port P             serve TCP on 127.0.0.1:P (0 = ephemeral)\n"
      "  --max-requests N     exit after N request lines (0 = unlimited)\n"
      "  --max-plans N        LRU capacity of hot plans (default 4)\n"
      "  --max-backends N     idle backends kept per plan+cycle (default 2)\n"
      "  --max-active N       concurrent evaluate requests (default 4)\n"
      "  --max-queued N       waiting requests before shedding (default 16)\n"
      "  --bench              write BENCH_rdo_serve.json on exit\n"
      "  --help               this text\n";
}

bool parse_long(const char* s, long lo, long hi, long& out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) return false;
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, ServeArgs& a, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](long lo, long hi, long& out) {
      if (i + 1 >= argc) {
        err = flag + " needs a value";
        return false;
      }
      if (!parse_long(argv[++i], lo, hi, out)) {
        err = flag + ": invalid value \"" + argv[i] + '"';
        return false;
      }
      return true;
    };
    long v = 0;
    if (flag == "--help") {
      a.help = true;
    } else if (flag == "--stdio") {
      a.stdio = true;
    } else if (flag == "--bench") {
      a.bench = true;
    } else if (flag == "--model") {
      if (i + 1 >= argc) {
        err = "--model needs a value";
        return false;
      }
      a.model = argv[++i];
      if (a.model != "mlp" && a.model != "lenet") {
        err = "--model: unknown model \"" + a.model + '"';
        return false;
      }
    } else if (flag == "--seed") {
      if (!value(0, 1L << 60, v)) return false;
      a.seed = static_cast<std::uint64_t>(v);
    } else if (flag == "--epochs") {
      if (!value(0, 1000, v)) return false;
      a.epochs = static_cast<int>(v);
    } else if (flag == "--train-per-class") {
      if (!value(1, 100000, v)) return false;
      a.train_per_class = static_cast<int>(v);
    } else if (flag == "--test-per-class") {
      if (!value(1, 100000, v)) return false;
      a.test_per_class = static_cast<int>(v);
    } else if (flag == "--port") {
      if (!value(0, 65535, v)) return false;
      a.port = static_cast<int>(v);
    } else if (flag == "--max-requests") {
      if (!value(0, 1L << 40, v)) return false;
      a.max_requests = v;
    } else if (flag == "--max-plans") {
      if (!value(1, 1024, v)) return false;
      a.cfg.max_plans = static_cast<std::size_t>(v);
    } else if (flag == "--max-backends") {
      if (!value(0, 1024, v)) return false;
      a.cfg.max_backends_per_plan = static_cast<std::size_t>(v);
    } else if (flag == "--max-active") {
      if (!value(1, 1024, v)) return false;
      a.cfg.max_active = static_cast<int>(v);
    } else if (flag == "--max-queued") {
      if (!value(0, 65536, v)) return false;
      a.cfg.max_queued = static_cast<int>(v);
    } else {
      err = "unknown flag \"" + flag + '"';
      return false;
    }
  }
  if (!a.help && a.stdio == (a.port >= 0)) {
    err = "pick exactly one transport: --stdio or --port";
    return false;
  }
  return true;
}

/// Serve request lines from `in` to `out` until EOF or the request
/// budget is exhausted. Returns lines handled.
long serve_stream(serve::InferenceService& svc, std::FILE* in,
                  std::FILE* out, long budget, long handled) {
  std::string line;
  int c = 0;
  while ((budget == 0 || handled < budget) && g_shutdown == 0) {
    line.clear();
    while ((c = std::fgetc(in)) != EOF && c != '\n') {
      line.push_back(static_cast<char>(c));
      if (line.size() > (1u << 26)) break;  // 64 MiB request-line cap
    }
    // A shutdown signal interrupts the blocking read (EOF + EINTR, no
    // SA_RESTART); drop the partial line and let the caller drain.
    if (c == EOF && g_shutdown != 0) break;
    if (line.empty() && c == EOF) break;
    const std::string resp = svc.handle_line(line);
    std::fputs(resp.c_str(), out);
    std::fputc('\n', out);
    std::fflush(out);
    ++handled;
    if (c == EOF) break;
  }
  return handled;
}

int run_tcp(serve::InferenceService& svc, int port, long max_requests) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("rdo_serve: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 16) < 0) {
    std::perror("rdo_serve: bind/listen");
    ::close(listener);
    return 1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  std::printf("rdo_serve: listening on 127.0.0.1:%d\n",
              ntohs(addr.sin_port));
  std::fflush(stdout);

  long handled = 0;
  while ((max_requests == 0 || handled < max_requests) && g_shutdown == 0) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) break;  // includes EINTR from a shutdown signal
    std::FILE* in = ::fdopen(conn, "r");
    std::FILE* out = ::fdopen(::dup(conn), "w");
    if (in == nullptr || out == nullptr) {
      if (in != nullptr) std::fclose(in);
      if (out != nullptr) std::fclose(out);
      ::close(conn);
      continue;
    }
    handled = serve_stream(svc, in, out, max_requests, handled);
    std::fclose(out);
    std::fclose(in);  // closes conn
  }
  ::close(listener);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeArgs a;
  std::string err;
  if (!parse_args(argc, argv, a, err)) {
    std::fprintf(stderr, "rdo_serve: %s\n\n%s", err.c_str(), usage());
    return 2;
  }
  if (a.help) {
    std::fputs(usage(), stdout);
    return 0;
  }

  obs::BenchReport rep("rdo_serve", a.seed);

  data::SyntheticSpec spec = data::mnist_like();
  spec.train_per_class = a.train_per_class;
  spec.test_per_class = a.test_per_class;
  const data::SyntheticDataset ds = data::make_synthetic(spec);

  nn::Rng rng(a.seed);
  std::unique_ptr<nn::Sequential> net;
  float lr = 0.05f;
  if (a.model == "lenet") {
    net = models::make_lenet({}, rng);
    lr = 0.02f;
  } else {
    net = models::make_mlp(rng);
  }
  {
    obs::TraceSpan t("train_model", "phase", rep.phase("train_model"));
    nn::SGD opt(net->params(), lr, 0.9f, 1e-4f);
    for (int e = 0; e < a.epochs; ++e) {
      nn::train_epoch(*net, opt, ds.train(), 32, rng);
    }
  }
  const float ideal = nn::evaluate(*net, ds.test(), 64).accuracy;
  obs::log_info("serve", "model trained")
      .with("model", a.model)
      .with("ideal_accuracy", static_cast<double>(ideal));

  core::DeployOptions base;
  base.seed = a.seed;
  serve::InferenceService svc(*net, ds.train(), ds.test(), base, a.cfg);

  install_signal_handlers();
  int rc = 0;
  {
    MetricsDumper dumper(svc);
    if (a.stdio) {
      serve_stream(svc, stdin, stdout, a.max_requests, 0);
    } else {
      rc = run_tcp(svc, a.port, a.max_requests);
    }

    if (g_shutdown != 0) {
      // Graceful shutdown: new admissions have stopped (the transport
      // loop exited); wait out whatever is still evaluating, then make
      // sure the trace is on disk even though exit is still normal.
      obs::log_info("serve", "shutdown signal received; draining")
          .with("signal", static_cast<std::int64_t>(g_signal))
          .with("active", svc.gate().active())
          .with("queued", svc.gate().queued());
      svc.gate().wait_idle();
      obs::trace_flush();
      rc = 0;
    }
  }  // joins the dumper thread

  obs::log_info("serve", "final metrics snapshot")
      .with("snapshot", svc.metrics().snapshot_json().dump());

  const serve::ServeCounters c = svc.counters();
  obs::log_info("serve", "request summary")
      .with("requests", c.requests)
      .with("ok", c.ok)
      .with("bad_request", c.bad_request)
      .with("overloaded", c.overloaded)
      .with("plan_hits", c.plan_hits)
      .with("plan_misses", c.plan_misses)
      .with("plan_evictions", c.plan_evictions);
  if (a.bench) {
    // Fold the live registries (serve_* instruments plus the process-wide
    // deploy cache counters) into the report's.
    rep.metrics().merge(svc.metrics());
    rep.metrics().merge(obs::global_metrics());
    try {
      const std::string path = rep.write();
      obs::log_info("serve", "wrote bench report").with("path", path);
    } catch (const std::exception& e) {
      obs::log_error("serve", "cannot write bench report")
          .with("error", e.what());
      return 1;
    }
  }
  return rc;
}
