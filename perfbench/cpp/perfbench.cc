// perfbench: the end-to-end serving benchmark of the MVTEE service.
//
// Drives the deployed service through its public API only:
//   core::RunOfflineTool -> Monitor::Initialize -> InferenceService::Start,
//   then InferenceClient::Infer (closed loops) or Session::Submit (open
//   loop).
// Every end-to-end number is wall-clock time measured here, around the
// public calls, with the benchmark's tracing off. A traced run (--trace 1)
// repeats the load untraced and then traced, records the benchmark's own
// spans around every public call, and attributes the traced half to the
// program's layers from obs::Registry snapshot deltas.
//
// Usage (normally through run.py, which builds this binary first):
//   perfbench --workload panel_sync --seed 1 --seconds 20 --trace 0
//             [--schedule perfbench/schedule.json]
//             [--out-dir .bench_build/perfbench] [--inject-delay-us N]
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {name: {"value": x, "unit": u}, ...}}
// README.md next to this directory documents every workload and metric.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/consistency.h"
#include "core/monitor.h"
#include "core/offline.h"
#include "core/variant_host.h"
#include "cpp/spans.h"
#include "cpp/stats.h"
#include "graph/model_zoo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "service/inference_service.h"
#include "tee/enclave.h"
#include "transport/channel.h"
#include "util/clock.h"
#include "util/knobs.h"
#include "util/rng.h"

extern char** environ;

namespace mvtee::perfbench {
namespace {

using tensor::Tensor;
using Batch = std::vector<Tensor>;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------
// Command line and fixed schedule.

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string schedule = "perfbench/schedule.json";
  std::string out_dir = ".bench_build/perfbench";
  // Sensitivity check only: fixed delay added to every frame a variant
  // sends, through VariantHost::Options::tamper_variant_tx.
  int64_t inject_delay_us = 0;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      o->trace = std::atoi(v);
    } else if (flag == "--schedule") {
      o->schedule = v;
    } else if (flag == "--out-dir") {
      o->out_dir = v;
    } else if (flag == "--inject-delay-us") {
      o->inject_delay_us = std::strtoll(v, nullptr, 10);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0 &&
         (o->trace == 0 || o->trace == 1) && o->inject_delay_us >= 0;
}

struct Tenant {
  std::string name;
  int32_t priority = 0;
  int64_t deadline_us = 0;
};

struct Schedule {
  int setup_reps = 0;
  int inputs = 0;
  double check_cosine = 0;
  int clients = 0;
  int warmup_per_client = 0;
  double slo_limit_ms = 0;  // this workload's latency limit
  std::vector<Tenant> tenants;
  double low_rps = 0, mid_rps = 0, high_rps = 0;
  double share_low = 0, share_mid = 0, share_high = 0;
  std::vector<double> ladder_rps;
  int ladder_step_requests = 0;
  double slo_percentile = 0;
  double idle_window_s = 0;
  int connect_probes = 0;
};

// Reads perfbench/schedule.json: every rate, deadline, limit and phase
// length is a constant there, never derived from a run.
util::Result<Schedule> LoadSchedule(const std::string& path,
                                    const std::string& workload) {
  std::ifstream in(path);
  if (!in) return util::NotFound("cannot read schedule " + path);
  std::stringstream text;
  text << in.rdbuf();
  auto root = obs::ParseJson(text.str());
  if (!root.ok()) return root.status();

  std::string missing;
  auto num = [&](const obs::JsonValue* obj, const char* key) {
    const obs::JsonValue* v = obj ? obj->Find(key) : nullptr;
    if (v == nullptr || !v->is_number()) {
      missing += std::string(" ") + key;
      return 0.0;
    }
    return v->as_number();
  };
  const obs::JsonValue* r = &*root;
  Schedule s;
  s.setup_reps = static_cast<int>(num(r, "setup_reps"));
  s.inputs = static_cast<int>(num(r, "inputs"));
  s.check_cosine = num(r, "reply_check_cosine");
  const obs::JsonValue* closed = r->Find("closed_loop");
  s.clients = static_cast<int>(num(closed, "clients"));
  s.warmup_per_client = static_cast<int>(num(closed, "warmup_requests_per_client"));
  s.slo_limit_ms = num(r->Find("slo_limit_ms"), workload.c_str());
  const obs::JsonValue* open = r->Find("open_loop");
  if (open != nullptr) {
    if (const obs::JsonValue* ts = open->Find("tenants");
        ts != nullptr && ts->is_array()) {
      for (const obs::JsonValue& t : ts->as_array()) {
        const obs::JsonValue* name = t.Find("name");
        s.tenants.push_back(Tenant{
            name != nullptr && name->is_string() ? name->as_string() : "",
            static_cast<int32_t>(num(&t, "priority")),
            static_cast<int64_t>(num(&t, "deadline_ms") * 1000.0)});
      }
    }
    const obs::JsonValue* rates = open->Find("rates_rps");
    s.low_rps = num(rates, "low");
    s.mid_rps = num(rates, "mid");
    s.high_rps = num(rates, "high");
    const obs::JsonValue* share = open->Find("phase_share");
    s.share_low = num(share, "low");
    s.share_mid = num(share, "mid");
    s.share_high = num(share, "high");
    if (const obs::JsonValue* l = open->Find("ladder_rps");
        l != nullptr && l->is_array()) {
      for (const obs::JsonValue& v : l->as_array()) {
        if (v.is_number()) s.ladder_rps.push_back(v.as_number());
      }
    }
    s.ladder_step_requests =
        static_cast<int>(num(open, "ladder_step_requests"));
    s.slo_percentile = num(open, "slo_percentile");
  }
  const obs::JsonValue* trace = r->Find("trace");
  s.idle_window_s = num(trace, "idle_window_s");
  s.connect_probes = static_cast<int>(num(trace, "connect_probes"));
  if (!missing.empty()) {
    return util::InvalidArgument("schedule " + path + " lacks:" + missing);
  }
  if (s.tenants.empty() || s.ladder_rps.empty()) {
    return util::InvalidArgument("schedule " + path +
                                 " needs open_loop tenants and ladder_rps");
  }
  return s;
}

// ---------------------------------------------------------------------
// Workloads: the program's defaults except the deployment settings
// named here.

struct WorkloadSpec {
  graph::ModelKind model = graph::ModelKind::kMobileNetV3;
  int partitions = 4;
  variant::PoolConfig pool;
  core::MonitorConfig monitor;
  std::vector<int> panel;  // active variants per stage
  bool open_loop = false;
};

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec w;
  if (name == "panel_sync") {
    // Diversified pool (the default), k=3 everywhere, unanimous sync
    // vote, monitor-mediated routing (direct_fastpath off by default).
    w.monitor.check = core::CheckPolicy::Cosine(0.99);
    w.panel = {3, 3, 3, 3};
  } else if (name == "replicated_open") {
    w.pool.replicated = true;
    w.panel = {3, 3, 3, 3};
    w.open_loop = true;
  } else if (name == "straggler_async") {
    // The Fig. 13/14 real-world setup: two diversified variants plus
    // one 3x-slow variant per stage; MVX on the last three partitions.
    w.model = graph::ModelKind::kEfficientNetB7;
    w.partitions = 5;
    w.pool.variants_per_stage = 2;
    w.pool.include_slow_variant = true;
    w.pool.slow_variant_factor = 3.0;
    w.monitor.check = core::CheckPolicy::Cosine(0.99);
    w.monitor.vote = core::VotePolicy::kMajority;
    w.monitor.reaction = core::ReactionPolicy::ContinueWithWinner();
    w.monitor.mode = core::ExecMode::kAsync;
    w.monitor.direct_fastpath = true;
    w.panel = {1, 1, 3, 3, 3};
  } else {
    return std::nullopt;
  }
  return w;
}

// The bench zoo scale every figure bench uses.
graph::ZooConfig BenchZoo() {
  graph::ZooConfig cfg;
  cfg.input_hw = 32;
  cfg.width_mult = 0.25;
  cfg.depth_mult = 0.34;
  cfg.num_classes = 100;
  return cfg;
}

// ---------------------------------------------------------------------
// Process-level measurements.

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Seconds(int64_t us) { return static_cast<double>(us) * 1e-6; }
double Millis(int64_t us) { return static_cast<double>(us) * 1e-3; }

// ---------------------------------------------------------------------
// Reference outputs: the unprotected model on the same inputs.

struct Reference {
  std::vector<Batch> inputs;
  std::vector<Batch> outputs;
  std::vector<double> run_ms;  // timed second pass
  core::CheckPolicy check;

  bool Matches(const Batch& reply, size_t input) const {
    return core::OutputsConsistent(reply, outputs[input], check);
  }
};

util::Result<Reference> BuildReference(const graph::Graph& model,
                                       const Schedule& sched, uint64_t seed,
                                       SpanLog& spans) {
  Reference ref;
  ref.check = core::CheckPolicy::Cosine(sched.check_cosine);
  util::Rng rng(seed);
  for (int i = 0; i < sched.inputs; ++i) {
    Batch batch;
    for (graph::NodeId in : model.inputs()) {
      batch.push_back(
          Tensor::RandomUniform(model.input_shape(in), rng, -1.0f, 1.0f));
    }
    ref.inputs.push_back(std::move(batch));
  }
  MVTEE_ASSIGN_OR_RETURN(
      auto exec,
      runtime::Executor::Create(model, runtime::OrtLikeExecutorConfig()));
  for (const Batch& batch : ref.inputs) {
    MVTEE_ASSIGN_OR_RETURN(Batch out, exec->Run(batch));
    ref.outputs.push_back(std::move(out));
  }
  if (spans.enabled()) {
    for (const Batch& batch : ref.inputs) {
      const int64_t t0 = util::NowMicros();
      ScopedSpan span(spans, "Executor::Run");
      auto out = exec->Run(batch);
      span.End();
      if (!out.ok()) return out.status();
      ref.run_ms.push_back(Millis(util::NowMicros() - t0));
    }
  }
  return ref;
}

// ---------------------------------------------------------------------
// One deployment of the service, built through the public API.

struct SetupTiming {
  double total_s = 0;      // RunOfflineTool start -> first warm-up reply
  double offline_s = 0;    // RunOfflineTool
  double bootstrap_s = 0;  // Monitor::Create + Initialize
  double start_s = 0;      // InferenceService::Start
  double warmup_ms = 0;    // first reply
  double pack_misses = 0;  // pack.misses added by this setup
};

struct Deployment {
  core::OfflineBundle bundle;
  std::unique_ptr<tee::SimulatedCpu> cpu;
  std::unique_ptr<core::VariantHost> host;
  std::unique_ptr<core::Monitor> monitor;
  std::unique_ptr<transport::Listener> listener;
  std::unique_ptr<service::InferenceService> service;
  bool torn_down = false;

  util::Result<std::unique_ptr<service::InferenceClient>> Connect() {
    return service::InferenceClient::Connect(*listener, *cpu,
                                             monitor->enclave().measurement());
  }

  void Teardown() {
    if (torn_down) return;
    torn_down = true;
    if (service) service->Stop();
    if (monitor) (void)monitor->Shutdown();
    if (host) host->JoinAll();
  }
  ~Deployment() { Teardown(); }
};

util::Result<std::unique_ptr<Deployment>> Deploy(const graph::Graph& model,
                                                 const WorkloadSpec& spec,
                                                 const Options& opt,
                                                 const Reference& ref,
                                                 SpanLog& spans,
                                                 SetupTiming* timing) {
  obs::Registry& reg = obs::Registry::Default();
  const uint64_t pack_misses0 = reg.GetCounter("pack.misses").value();
  auto d = std::make_unique<Deployment>();

  const int64_t t0 = util::NowMicros();
  {
    ScopedSpan span(spans, "RunOfflineTool");
    core::OfflineOptions offline;
    offline.num_partitions = spec.partitions;
    offline.pool = spec.pool;
    MVTEE_ASSIGN_OR_RETURN(d->bundle, core::RunOfflineTool(model, offline));
  }
  const int64_t t1 = util::NowMicros();
  {
    ScopedSpan span(spans, "Initialize");
    d->cpu = std::make_unique<tee::SimulatedCpu>();
    core::VariantHost::Options host_options;
    host_options.network = transport::NetworkCostModel::TenGbE();
    if (opt.inject_delay_us > 0) {
      const int64_t delay = opt.inject_delay_us;
      host_options.tamper_variant_tx =
          [delay](const util::Bytes& frame) -> std::optional<util::Bytes> {
        std::this_thread::sleep_for(std::chrono::microseconds(delay));
        return frame;
      };
    }
    d->host = std::make_unique<core::VariantHost>(d->cpu.get(),
                                                  d->bundle.store, host_options);
    MVTEE_ASSIGN_OR_RETURN(d->monitor,
                           core::Monitor::Create(d->cpu.get(), spec.monitor));
    MVTEE_RETURN_IF_ERROR(d->monitor->Initialize(
        d->bundle, core::MvxSelection::PerStage(d->bundle, spec.panel),
        *d->host));
  }
  const int64_t t2 = util::NowMicros();
  {
    ScopedSpan span(spans, "Start");
    d->listener = std::make_unique<transport::Listener>(
        transport::NetworkCostModel::TenGbE());
    MVTEE_ASSIGN_OR_RETURN(
        d->service, service::InferenceService::Start(*d->monitor, *d->listener));
  }
  const int64_t t3 = util::NowMicros();
  // The first reply, through the path the workload drives.
  Batch reply;
  if (spec.open_loop) {
    MVTEE_ASSIGN_OR_RETURN(auto session, d->monitor->OpenSession());
    ScopedSpan span(spans, "Submit->future");
    core::InferenceRequest request;
    request.inputs = ref.inputs[0];
    MVTEE_ASSIGN_OR_RETURN(auto future, session->Submit(std::move(request)));
    core::InferenceResponse response = future.get();
    MVTEE_RETURN_IF_ERROR(response.status);
    reply = std::move(response.outputs);
  } else {
    std::unique_ptr<service::InferenceClient> client;
    {
      ScopedSpan span(spans, "Connect");
      MVTEE_ASSIGN_OR_RETURN(client, d->Connect());
    }
    ScopedSpan span(spans, "Infer");
    MVTEE_ASSIGN_OR_RETURN(reply, client->Infer(ref.inputs[0]));
  }
  const int64_t t4 = util::NowMicros();
  if (!ref.Matches(reply, 0)) {
    return util::Internal("warm-up reply disagrees with the reference model");
  }
  timing->total_s = Seconds(t4 - t0);
  timing->offline_s = Seconds(t1 - t0);
  timing->bootstrap_s = Seconds(t2 - t1);
  timing->start_s = Seconds(t3 - t2);
  timing->warmup_ms = Millis(t4 - t3);
  timing->pack_misses =
      static_cast<double>(reg.GetCounter("pack.misses").value() - pack_misses0);
  return d;
}

// ---------------------------------------------------------------------
// Request outcomes.

struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;       // answered and consistent with the reference
  uint64_t wrong = 0;    // answered, but inconsistent with the reference
  uint64_t failed = 0;   // error status other than refusal / expiry
  uint64_t refused = 0;  // kAdmissionRejected at Submit
  uint64_t expired = 0;  // kDeadlineExceeded while queued

  void Add(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    wrong += o.wrong;
    failed += o.failed;
    refused += o.refused;
    expired += o.expired;
  }
  uint64_t errors() const { return wrong + failed + refused + expired; }
};

void CountStatus(const util::Status& status, Tally* t) {
  if (status.code() == util::StatusCode::kAdmissionRejected) {
    t->refused++;
  } else if (status.code() == util::StatusCode::kDeadlineExceeded) {
    t->expired++;
  } else {
    t->failed++;
  }
}

// Result of one load window (a closed loop, or one open-loop phase).
struct LoadResult {
  std::string name;
  double rate_rps = 0;  // offered (open loop)
  Tally tally;
  Tally warmup;  // untimed closed-loop warm-up, checked all the same
  std::vector<double> latency_ms;  // successful requests
  std::vector<double> sent_s;      // when each of those was sent / due
  std::vector<double> tight_ms;    // tight tenant; misses count as +inf
  std::vector<double> lateness_us; // open-loop generator lateness
  double wall_s = 0;
  double cpu_s = 0;
  double drain_ms = 0;  // last due time -> last completion (open loop)

  double completed_rps() const {
    return wall_s > 0 ? static_cast<double>(tally.ok) / wall_s : 0.0;
  }
  double cpu_ms_per_req() const {
    return tally.ok > 0 ? cpu_s * 1e3 / static_cast<double>(tally.ok) : 0.0;
  }
};

std::string Describe(const char* label, const std::vector<double>& v,
                     double q) {
  char buf[160];
  auto p = Percentile(v, q);
  if (!p) {
    std::snprintf(buf, sizeof(buf), "%s refused (n=%zu)", label, v.size());
  } else {
    std::snprintf(buf, sizeof(buf), "%s %.3f (n=%zu, %zu beyond)", label,
                  p->value, p->samples, p->beyond);
  }
  return buf;
}

void PrintLoad(const LoadResult& r) {
  std::printf(
      "[%s] offered %.0f req/s (0: closed loop) | attempted %llu ok %llu "
      "refused %llu expired %llu failed %llu wrong %llu | %.2f req/s over "
      "%.2f s | cpu %.3f ms/req\n",
      r.name.c_str(), r.rate_rps,
      static_cast<unsigned long long>(r.tally.attempted),
      static_cast<unsigned long long>(r.tally.ok),
      static_cast<unsigned long long>(r.tally.refused),
      static_cast<unsigned long long>(r.tally.expired),
      static_cast<unsigned long long>(r.tally.failed),
      static_cast<unsigned long long>(r.tally.wrong), r.completed_rps(),
      r.wall_s, r.cpu_ms_per_req());
  std::printf("[%s]   latency ms: %s | %s\n", r.name.c_str(),
              Describe("p50", r.latency_ms, 0.5).c_str(),
              Describe("p99", r.latency_ms, 0.99).c_str());
  // Drift check: the median of each quarter of the window.
  if (r.wall_s > 0 && r.latency_ms.size() >= 80) {
    std::vector<double> quarter[4];
    for (size_t i = 0; i < r.latency_ms.size(); ++i) {
      const int q = std::clamp(static_cast<int>(4 * r.sent_s[i] / r.wall_s), 0, 3);
      quarter[q].push_back(r.latency_ms[i]);
    }
    std::printf("[%s]   p50 by quarter ms: %.3f %.3f %.3f %.3f\n",
                r.name.c_str(), Median(quarter[0]), Median(quarter[1]),
                Median(quarter[2]), Median(quarter[3]));
  }
  if (!r.lateness_us.empty()) {
    std::printf("[%s]   generator lateness us: %s | max %.0f | drain %.2f ms\n",
                r.name.c_str(), Describe("p50", r.lateness_us, 0.5).c_str(),
                *std::max_element(r.lateness_us.begin(), r.lateness_us.end()),
                r.drain_ms);
  }
}

// ---------------------------------------------------------------------
// Closed loop: `clients` attested InferenceClients, back to back.

LoadResult RunClosedLoop(Deployment& d, const Reference& ref,
                         const Schedule& sched, double seconds, SpanLog& spans,
                         const char* name) {
  const int n = sched.clients;
  LoadResult total;
  total.name = name;
  std::vector<std::unique_ptr<service::InferenceClient>> clients(n);
  for (int c = 0; c < n; ++c) {
    ScopedSpan span(spans, "Connect");
    auto client = d.Connect();
    MVTEE_CHECK(client.ok());
    clients[c] = std::move(*client);
    for (int w = 0; w < sched.warmup_per_client; ++w) {
      const size_t input = static_cast<size_t>(w) % ref.inputs.size();
      auto reply = clients[c]->Infer(ref.inputs[input]);
      Tally& t = total.warmup;
      t.attempted++;
      if (!reply.ok()) {
        CountStatus(reply.status(), &t);
      } else if (!ref.Matches(*reply, input)) {
        t.wrong++;
      } else {
        t.ok++;
      }
    }
  }

  std::vector<LoadResult> per(n);
  std::vector<int64_t> last_done(n, 0);
  std::atomic<int> ready{0};
  std::atomic<int64_t> start_us{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (start_us.load() == 0) std::this_thread::yield();
      const int64_t end_us =
          start_us.load() + static_cast<int64_t>(seconds * 1e6);
      LoadResult& r = per[c];
      for (size_t i = static_cast<size_t>(c); util::NowMicros() < end_us;
           i += static_cast<size_t>(n)) {
        const size_t input = i % ref.inputs.size();
        const uint64_t trace_id = spans.enabled() ? spans.NextId() : 0;
        r.tally.attempted++;
        ScopedSpan infer(spans, "Infer", trace_id);
        const int64_t t0 = util::NowMicros();
        auto reply = clients[c]->Infer(ref.inputs[input]);
        const int64_t t1 = util::NowMicros();
        infer.End();
        last_done[c] = t1;
        ScopedSpan check(spans, "check", trace_id, infer.id());
        if (!reply.ok()) {
          CountStatus(reply.status(), &r.tally);
        } else if (!ref.Matches(*reply, input)) {
          r.tally.wrong++;
        } else {
          r.tally.ok++;
          r.latency_ms.push_back(Millis(t1 - t0));
          r.sent_s.push_back(Seconds(t0 - start_us.load()));
        }
      }
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t_start = util::NowMicros();
  start_us.store(t_start);
  for (auto& t : threads) t.join();
  const double cpu1 = ProcessCpuSeconds();
  for (auto& client : clients) client->Disconnect();

  for (int c = 0; c < n; ++c) {
    total.tally.Add(per[c].tally);
    total.latency_ms.insert(total.latency_ms.end(), per[c].latency_ms.begin(),
                            per[c].latency_ms.end());
    total.sent_s.insert(total.sent_s.end(), per[c].sent_s.begin(),
                        per[c].sent_s.end());
  }
  total.wall_s =
      Seconds(*std::max_element(last_done.begin(), last_done.end()) - t_start);
  total.cpu_s = cpu1 - cpu0;
  return total;
}

// ---------------------------------------------------------------------
// Open loop: one generator (this thread) submitting on a fixed schedule
// over one in-process Session per tenant, plus one collector thread.

struct OpenLoop {
  Deployment& d;
  const Reference& ref;
  const Schedule& sched;
  std::vector<std::unique_ptr<core::Session>> sessions;
  uint64_t next_request = 0;  // input rotation across phases

  OpenLoop(Deployment& dep, const Reference& r, const Schedule& s)
      : d(dep), ref(r), sched(s) {
    for (size_t t = 0; t < sched.tenants.size(); ++t) {
      auto session = d.monitor->OpenSession();
      MVTEE_CHECK(session.ok());
      sessions.push_back(std::move(*session));
    }
  }

  LoadResult RunPhase(const std::string& name, double rate_rps, double seconds,
                      SpanLog& spans);
};

LoadResult OpenLoop::RunPhase(const std::string& name, double rate_rps,
                              double seconds, SpanLog& spans) {
  struct Pending {
    std::future<core::InferenceResponse> future;
    int64_t due_us;
    int64_t submit_us;
    size_t tenant;
    size_t input;
    uint64_t trace_id;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool closed = false;

  // The generator and the collector each keep their own counts; they
  // are merged once the collector has joined.
  LoadResult r;
  r.name = name;
  r.rate_rps = rate_rps;
  LoadResult collected;
  int64_t last_done_us = 0;
  int64_t t0 = 0;  // set before the first request is queued

  // Futures are collected in submission order; a request's completion
  // time is its Submit time plus the wall-clock latency_us the monitor
  // stamps when it fulfils the future (the same steady clock), so a
  // request finishing before its predecessor is not charged for the
  // collector's order.
  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      core::InferenceResponse response = p.future.get();
      const int64_t done_us = p.submit_us + response.latency_us;
      last_done_us = std::max(last_done_us, done_us);
      if (spans.enabled()) {
        spans.Record(Span{"Submit->future", p.trace_id, spans.NextId(), 0,
                          p.submit_us, done_us, 0});
      }
      ScopedSpan check(spans, "check", p.trace_id);
      double latency = kInf;
      if (!response.status.ok()) {
        CountStatus(response.status, &collected.tally);
      } else if (!ref.Matches(response.outputs, p.input)) {
        collected.tally.wrong++;
      } else {
        collected.tally.ok++;
        latency = Millis(done_us - p.due_us);
        collected.latency_ms.push_back(latency);
        collected.sent_s.push_back(Seconds(p.due_us - t0));
      }
      if (p.tenant == 0) collected.tight_ms.push_back(latency);
    }
  });

  const size_t count = static_cast<size_t>(std::llround(rate_rps * seconds));
  const double interval_us = 1e6 / rate_rps;
  const double cpu0 = ProcessCpuSeconds();
  t0 = util::NowMicros();
  int64_t last_due_us = t0;
  for (size_t i = 0; i < count; ++i) {
    const int64_t due =
        t0 + static_cast<int64_t>(static_cast<double>(i) * interval_us);
    const int64_t now = util::NowMicros();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::microseconds(due - now));
    }
    const size_t tenant = i % sessions.size();
    const Tenant& spec = sched.tenants[tenant];
    const size_t input = next_request++ % ref.inputs.size();
    core::InferenceRequest request;
    request.inputs = ref.inputs[input];
    request.tenant = spec.name;
    request.priority = spec.priority;
    request.deadline_us = spec.deadline_us;
    const uint64_t trace_id = spans.enabled() ? spans.NextId() : 0;
    const int64_t submit_us = util::NowMicros();
    r.lateness_us.push_back(static_cast<double>(submit_us - due));
    last_due_us = due;
    r.tally.attempted++;
    auto submitted = sessions[tenant]->Submit(std::move(request));
    if (!submitted.ok()) {
      CountStatus(submitted.status(), &r.tally);
      if (tenant == 0) r.tight_ms.push_back(kInf);
      continue;
    }
    std::lock_guard<std::mutex> lock(mu);
    queue.push_back(Pending{std::move(*submitted), due, submit_us, tenant,
                            input, trace_id});
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_one();
  collector.join();
  const double cpu1 = ProcessCpuSeconds();
  r.tally.Add(collected.tally);
  r.latency_ms = std::move(collected.latency_ms);
  r.sent_s = std::move(collected.sent_s);
  r.tight_ms.insert(r.tight_ms.end(), collected.tight_ms.begin(),
                    collected.tight_ms.end());
  const int64_t end_us = std::max(last_done_us, last_due_us);
  r.wall_s = Seconds(end_us - t0);
  r.cpu_s = cpu1 - cpu0;
  r.drain_ms = Millis(end_us - last_due_us);
  return r;
}

// ---------------------------------------------------------------------
// End-to-end summary of one pass over a workload's load.

struct PassResult {
  Tally tally;  // every request of the pass
  // The requests error_share is taken over: everything except the
  // refusals and expiries of SLO ladder steps, which overload on purpose.
  Tally error_base;
  LoadResult main;          // latency_p50/p99 source
  LoadResult high;          // open loop: latency_p99_ms.high source
  double throughput_rps = 0;
  double cpu_ms_per_req = 0;
  double max_rate_at_slo_rps = 0;
  uint64_t completed = 0;   // successful requests (per-request scaling)
  double cpu_s = 0;         // CPU over the whole pass
};

PassResult RunClosedPass(Deployment& d, const Reference& ref,
                         const Schedule& sched, double seconds, SpanLog& spans,
                         const char* label) {
  PassResult p;
  p.main = RunClosedLoop(d, ref, sched, seconds, spans, label);
  PrintLoad(p.main);
  p.tally = p.main.tally;
  p.tally.Add(p.main.warmup);
  p.error_base = p.tally;
  p.high = p.main;  // the closed loop's only (and highest) load
  p.throughput_rps = p.main.completed_rps();
  p.cpu_ms_per_req = p.main.cpu_ms_per_req();
  auto p99 = Percentile(p.main.latency_ms, 0.99);
  p.max_rate_at_slo_rps =
      p99 && p99->value <= sched.slo_limit_ms ? p.throughput_rps : 0.0;
  p.completed = p.main.tally.ok;
  p.cpu_s = p.main.cpu_s;
  return p;
}

PassResult RunOpenPass(OpenLoop& loop, const Schedule& sched, double seconds,
                       bool with_ladder, SpanLog& spans,
                       const std::string& label) {
  PassResult p;
  auto phase = [&](const std::string& name, double rate, double secs) {
    LoadResult r = loop.RunPhase(label + "/" + name, rate, secs, spans);
    PrintLoad(r);
    p.tally.Add(r.tally);
    p.completed += r.tally.ok;
    p.cpu_s += r.cpu_s;
    return r;
  };
  LoadResult low = phase("low", sched.low_rps, seconds * sched.share_low);
  p.main = phase("mid", sched.mid_rps, seconds * sched.share_mid);
  p.high = phase("high", sched.high_rps, seconds * sched.share_high);
  for (const LoadResult* r : {&low, &p.main, &p.high}) {
    p.error_base.Add(r->tally);
  }
  p.cpu_ms_per_req = low.cpu_ms_per_req();
  p.throughput_rps = p.high.completed_rps();

  // SLO search: bisection over the fixed, ascending ladder. A step is a
  // fixed number of requests (enough for the tight tenant's percentile);
  // it meets the SLO when that percentile, with misses counted as
  // infinitely late, and the drain after its last arrival both stay
  // under the limit. A step misses only when a second attempt misses
  // too, so one transient host stall does not end the search. The
  // result is the highest step that met the SLO while the next step up
  // missed (or was the top of the ladder).
  if (!with_ladder) return p;
  const std::vector<double>& ladder = sched.ladder_rps;
  auto attempt = [&](double rate, const char* suffix) {
    char name[48];
    std::snprintf(name, sizeof(name), "ladder%.0f%s", rate, suffix);
    LoadResult step = phase(name, rate, sched.ladder_step_requests / rate);
    Tally counted = step.tally;
    counted.refused = counted.expired = 0;
    p.error_base.Add(counted);
    auto q = Percentile(step.tight_ms, sched.slo_percentile);
    const bool pass = q && q->value <= sched.slo_limit_ms &&
                      step.drain_ms <= sched.slo_limit_ms;
    std::printf("[%s]   slo: tight %s vs limit %.1f ms, drain %.2f ms -> %s\n",
                step.name.c_str(),
                Describe("pSLO", step.tight_ms, sched.slo_percentile).c_str(),
                sched.slo_limit_ms, step.drain_ms, pass ? "meets" : "misses");
    return pass;
  };
  int meets = -1;                                // highest step known to meet
  int misses = static_cast<int>(ladder.size());  // lowest known to miss
  while (misses - meets > 1) {
    const int i = (meets + misses) / 2;
    const bool pass = attempt(ladder[i], "") || attempt(ladder[i], ".retry");
    (pass ? meets : misses) = i;
  }
  p.max_rate_at_slo_rps = meets >= 0 ? ladder[meets] : 0.0;
  return p;
}

// ---------------------------------------------------------------------
// Metrics output.

struct MetricSet {
  obs::JsonValue::Object metrics;
  void Add(const std::string& name, double value, const char* unit) {
    metrics.emplace_back(name, obs::JsonValue::Object{{"value", value},
                                                      {"unit", unit}});
  }
};

double HistP(const obs::RegistrySnapshot& s, const std::string& name,
             double obs::HistogramStats::*field) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() || it->second.count == 0
             ? 0.0
             : it->second.*field;
}

double HistSum(const obs::RegistrySnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

double HistCount(const obs::RegistrySnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0
                                  : static_cast<double>(it->second.count);
}

double Ctr(const obs::RegistrySnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

obs::RegistrySnapshot RegistryNow() {
  obs::SyncDataPlaneMetrics();
  return obs::Registry::Default().Snapshot();
}

constexpr int kMaxStages = 5;

// Per-layer metrics of the traced pass. `delta` holds counter and
// histogram count/sum deltas over the traced pass; `now` holds the
// program's cumulative histogram percentiles (the program keeps no
// windowed percentiles; the measured load dominates them).
void AddLayerMetrics(MetricSet& m, const std::vector<SetupTiming>& setups,
                     const obs::RegistrySnapshot& delta,
                     const obs::RegistrySnapshot& now, const PassResult& traced,
                     const PassResult& untraced, const Reference& ref,
                     const std::vector<double>& connect_ms, double idle_cores) {
  auto med = [&](double SetupTiming::*f) {
    std::vector<double> v;
    for (const SetupTiming& s : setups) v.push_back(s.*f);
    return Median(v);
  };
  auto p = [](const std::vector<double>& v, double q) {
    auto r = Percentile(v, q);
    return r ? r->value : 0.0;
  };
  const double reqs = static_cast<double>(traced.completed);
  using HS = obs::HistogramStats;

  m.Add("offline.build_s", med(&SetupTiming::offline_s), "s");
  m.Add("tee.bootstrap_s", med(&SetupTiming::bootstrap_s), "s");
  m.Add("tee.attest_ms_p50", HistP(now, "monitor.attest_us", &HS::p50) / 1e3,
        "ms");
  m.Add("runtime.warmup_ms", med(&SetupTiming::warmup_ms), "ms");
  m.Add("runtime.pack_misses", med(&SetupTiming::pack_misses), "count");

  m.Add("service.connect_ms_p50", p(connect_ms, 0.5), "ms");
  m.Add("service.reply_us_p50", HistP(now, "service.reply_us", &HS::p50), "us");

  m.Add("scheduler.queue_wait_ms_p50",
        HistP(now, "service.queue_wait_us", &HS::p50) / 1e3, "ms");
  m.Add("scheduler.queue_wait_ms_p99",
        HistP(now, "service.queue_wait_us", &HS::p99) / 1e3, "ms");
  m.Add("scheduler.batch_occupancy_mean",
        Ratio(HistSum(delta, "scheduler.batch_occupancy"),
              HistCount(delta, "scheduler.batch_occupancy")),
        "slots");
  m.Add("scheduler.deadline_misses",
        Ctr(delta, "scheduler.deadline_misses_total"), "count");
  m.Add("scheduler.rejected", Ctr(delta, "service.rejected_total"), "count");

  double forward_us = 0;
  for (int s = 0; s < kMaxStages; ++s) {
    forward_us += HistP(now, "monitor.stage" + std::to_string(s) + ".forward_us",
                        &HS::p50);
  }
  m.Add("monitor.forward_us_p50", forward_us, "us");
  m.Add("monitor.wait_us_sum", HistSum(delta, "monitor.wait_us"), "us");
  m.Add("monitor.checkpoints_per_req",
        Ratio(Ctr(delta, "monitor.checkpoints_evaluated"), reqs), "count");

  m.Add("vote.verify_us_p50", HistP(now, "service.verify_us", &HS::p50), "us");
  m.Add("vote.verify_job_us_p99", HistP(now, "monitor.verify_job_us", &HS::p99),
        "us");
  const double hits = Ctr(delta, "monitor.prefilter_hits");
  m.Add("vote.prefilter_hit_share",
        Ratio(hits, hits + Ctr(delta, "monitor.full_checks")), "ratio");
  m.Add("vote.divergences", Ctr(delta, "monitor.divergences"), "count");
  m.Add("vote.late_divergences", Ctr(delta, "monitor.late_divergences"),
        "count");

  for (int s = 0; s < kMaxStages; ++s) {
    const std::string st = std::to_string(s);
    m.Add("variant.infer_us_p50.stage" + st,
          HistP(now, "variant.stage" + st + ".infer_us", &HS::p50), "us");
  }
  m.Add("variant.idle_cpu_cores", idle_cores, "cores");

  const double seal_us = Ctr(delta, "channel.seal_us");
  m.Add("crypto.seal_us_per_req", Ratio(seal_us, reqs), "us");
  m.Add("crypto.open_us_per_req", Ratio(Ctr(delta, "channel.open_us"), reqs),
        "us");
  m.Add("crypto.seal_mb_s",
        Ratio(Ctr(delta, "channel.bytes_sealed_total"), seal_us), "MB/s");

  m.Add("transport.bytes_per_req", Ratio(Ctr(delta, "channel.bytes_sent"), reqs),
        "B");
  m.Add("transport.records_per_req",
        Ratio(Ctr(delta, "channel.records_sealed"), reqs), "count");
  m.Add("util.bytes_copied_per_req",
        Ratio(Ctr(delta, "dataplane.bytes_copied"), reqs), "B");
  const double pool_misses = Ctr(delta, "pool.misses");
  m.Add("util.pool_miss_share",
        Ratio(pool_misses, pool_misses + Ctr(delta, "pool.hits")), "ratio");

  double op_us = 0;
  for (const auto& [name, stats] : delta.histograms) {
    if (name.rfind("executor.op.", 0) == 0) op_us += stats.sum;
  }
  m.Add("runtime.model_run_ms_p50", p(ref.run_ms, 0.5), "ms");
  m.Add("runtime.conv_us_per_req",
        Ratio(HistSum(delta, "executor.op.Conv2d_us"), reqs), "us");
  m.Add("runtime.op_us_per_req", Ratio(op_us, reqs), "us");
  m.Add("runtime.op_cpu_share", Ratio(op_us * 1e-6, traced.cpu_s), "ratio");

  const double p50_off = p(untraced.main.latency_ms, 0.5);
  const double p50_on = p(traced.main.latency_ms, 0.5);
  m.Add("obs.trace_overhead_pct", Ratio(p50_on - p50_off, p50_off) * 100.0,
        "%");
  m.Add("error_share",
        Ratio(static_cast<double>(traced.error_base.errors()),
              static_cast<double>(traced.error_base.attempted)),
        "ratio");
}

// Refuses to measure anything but the program's defaults: every
// MVTEE_* variable either changes the program or sends its artifacts
// outside the checkout.
bool KnobsAtDefaults(obs::JsonValue::Object* record) {
  const util::KnobRegistry& knobs = util::KnobRegistry::Default();
  std::vector<std::string> offending;
  for (const util::KnobView& k : knobs.Snapshot()) {
    record->emplace_back(k.desc->name, k.value);
    if (k.set) offending.push_back(std::string(k.desc->name) + "=" + k.raw);
  }
  for (const std::string& name : knobs.UnknownIn(environ)) {
    offending.push_back(name);
  }
  for (const std::string& o : offending) {
    std::fprintf(stderr, "perfbench: refusing to run with %s set\n", o.c_str());
  }
  return offending.empty();
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--schedule F] [--out-dir D] "
                 "[--inject-delay-us N]\n");
    return 2;
  }
  obs::JsonValue::Object knob_record;
  if (!KnobsAtDefaults(&knob_record)) return 2;
  std::optional<WorkloadSpec> spec = FindWorkload(opt.workload);
  if (!spec) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 opt.workload.c_str());
    return 2;
  }
  auto sched_or = LoadSchedule(opt.schedule, opt.workload);
  if (!sched_or.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 sched_or.status().ToString().c_str());
    return 2;
  }
  const Schedule& sched = *sched_or;
  const bool traced_run = opt.trace == 1;
  SpanLog spans(traced_run);
  SpanLog no_spans(false);

  std::printf("perfbench %s seed %llu seconds %.1f trace %d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace,
              opt.inject_delay_us > 0 ? " (sensitivity: delayed frames)" : "");
  std::printf("knobs: %s\n", obs::JsonValue(knob_record).Dump().c_str());

  const graph::Graph model = graph::BuildModel(spec->model, BenchZoo());
  auto ref_or = BuildReference(model, sched, opt.seed, spans);
  if (!ref_or.ok()) {
    std::fprintf(stderr, "perfbench: reference model failed: %s\n",
                 ref_or.status().ToString().c_str());
    return 1;
  }
  const Reference& ref = *ref_or;

  // Set-up, several times; the last deployment serves the load.
  std::vector<SetupTiming> setups;
  std::unique_ptr<Deployment> dep;
  for (int rep = 0; rep < sched.setup_reps; ++rep) {
    if (dep) dep->Teardown();
    dep.reset();
    SetupTiming timing;
    auto d = Deploy(model, *spec, opt, ref, spans, &timing);
    if (!d.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   d.status().ToString().c_str());
      return 1;
    }
    dep = std::move(*d);
    setups.push_back(timing);
    std::printf(
        "[setup %d] %.4f s = offline %.4f + bootstrap %.4f + start %.4f + "
        "first reply %.2f ms | pack misses %.0f\n",
        rep, timing.total_s, timing.offline_s, timing.bootstrap_s,
        timing.start_s, timing.warmup_ms, timing.pack_misses);
  }
  std::vector<double> setup_s;
  for (const SetupTiming& s : setups) setup_s.push_back(s.total_s);

  // The load: once untraced (the end-to-end numbers). A traced run makes
  // an untraced pass (the client-side p99s and the overhead baseline)
  // and then a traced pass of half the length. Closed loops split the
  // window in halves; the open loop keeps its fixed-rate phases at full
  // length untraced, so each still holds a p99, and runs the SLO ladder
  // in the traced pass only.
  std::unique_ptr<OpenLoop> open;
  if (spec->open_loop) open = std::make_unique<OpenLoop>(*dep, ref, sched);
  auto pass = [&](double seconds, bool with_ladder, SpanLog& log,
                  const char* label) {
    return spec->open_loop
               ? RunOpenPass(*open, sched, seconds, with_ladder, log, label)
               : RunClosedPass(*dep, ref, sched, seconds, log, label);
  };
  const double half_s = opt.seconds / 2;
  PassResult untraced =
      pass(traced_run && !spec->open_loop ? half_s : opt.seconds, !traced_run,
           no_spans, "untraced");
  PassResult traced;
  obs::RegistrySnapshot delta, now;
  std::vector<double> connect_ms;
  uint64_t connect_failures = 0;
  double idle_cores = 0;
  if (traced_run) {
    const obs::RegistrySnapshot before = RegistryNow();
    traced = pass(half_s, true, spans, "traced");
    now = RegistryNow();
    delta = now.DeltaSince(before);
    // Quiet window: the deployment is up and idle.
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = util::NowMicros();
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(sched.idle_window_s * 1e6)));
    idle_cores = (ProcessCpuSeconds() - cpu0) / Seconds(util::NowMicros() - t0);
    for (int i = 0; i < sched.connect_probes; ++i) {
      const int64_t c0 = util::NowMicros();
      ScopedSpan span(spans, "Connect");
      auto client = dep->Connect();
      span.End();
      if (!client.ok()) {
        connect_failures++;
        continue;
      }
      connect_ms.push_back(Millis(util::NowMicros() - c0));
      (*client)->Disconnect();
    }
  }
  open.reset();
  dep->Teardown();

  // Refusals and expiries are the service shedding load, not failed
  // operations: they are printed per phase and counted in error_share.
  Tally all = untraced.tally;
  if (traced_run) all.Add(traced.tally);
  const uint64_t failed = all.wrong + all.failed + connect_failures;
  const bool correct = all.wrong == 0;

  // Client-observed percentiles, always from an untraced pass. A
  // refused percentile (too few samples beyond it) reads 0.
  auto pct = [&](const LoadResult& r, double q, const char* name) {
    auto v = Percentile(r.latency_ms, q);
    if (!v) {
      std::fprintf(stderr, "perfbench: %s needs %zu samples, has %zu\n", name,
                   SamplesNeeded(q), r.latency_ms.size());
      return 0.0;
    }
    std::printf("%s: %.4f ms over %zu samples, %zu beyond\n", name, v->value,
                v->samples, v->beyond);
    return v->value;
  };
  const double p50 = pct(untraced.main, 0.5, "latency_p50_ms");
  const double p99 = pct(untraced.main, 0.99, "latency_p99_ms");
  const double p99_high = pct(untraced.high, 0.99, "latency_p99_ms.high");
  MetricSet m;
  if (!traced_run) {
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("latency_p50_ms", p50, "ms");
    m.Add("throughput_rps", untraced.throughput_rps, "req/s");
    m.Add("max_rate_at_slo_rps", untraced.max_rate_at_slo_rps, "req/s");
    m.Add("cpu_ms_per_req", untraced.cpu_ms_per_req, "ms");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // Open-loop tails are dominated by rare host stalls and spread too
    // widely between runs to carry a bound, so the p99s are reported
    // here, without one.
    m.Add("latency_p99_ms", p99, "ms");
    m.Add("latency_p99_ms.high", p99_high, "ms");
    AddLayerMetrics(m, setups, delta, now, traced, untraced, ref, connect_ms,
                    idle_cores);
  }

  // Run record and (traced) span file, inside the checkout.
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           std::to_string(opt.trace);
  {
    obs::JsonValue record(obs::JsonValue::Object{
        {"workload", opt.workload},
        {"seed", opt.seed},
        {"seconds", opt.seconds},
        {"inject_delay_us", opt.inject_delay_us},
        {"knobs", knob_record},
        {"metrics", m.metrics}});
    std::ofstream(stem + ".json") << record.Dump(2) << "\n";
  }
  if (traced_run && !spans.WriteChromeTrace(stem + ".trace.json")) {
    std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                 stem.c_str());
  }

  obs::JsonValue result(obs::JsonValue::Object{
      {"correct", correct && (traced_run || p50 > 0)},
      {"attempted", all.attempted},
      {"failed", failed},
      {"metrics", std::move(m.metrics)}});
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace mvtee::perfbench

int main(int argc, char** argv) { return mvtee::perfbench::Main(argc, argv); }
