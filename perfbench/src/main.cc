// The repository benchmark. Deploys a 3-2-2 directory suite, drives one
// named workload through the public client API, checks the directory at
// the end of the run, and prints the metrics, last line as one JSON object.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// untraced and then traced, half the seconds each, and prints the
// per-layer metrics of the traced run, the tracing overhead (traced minus
// untraced) and each op type's self-time + RPC-wait accounting with its
// residual.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "stats.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr NodeId kFirstClient = 101;
constexpr NodeId kFillClient = 901;
/// Warm-up calls per client before the timed phase: a fixed amount of
/// work, so the memory it leaves behind does not depend on host speed.
constexpr std::uint64_t kWarmupCalls = 500;
/// Registry-count window of a single-client (InProc) run: the counts cover
/// exactly the first this-many timed ops, so same-seed runs agree exactly.
constexpr std::uint64_t kCountWindowOps = 20'000;
constexpr int kSetups = 9;

// --- Registry deltas ---

const char* const kCounters[] = {
    "rpc.attempts",        "rpc.failures",
    "rpc.retries",         "rpc.bytes_sent",
    "rpc.bytes_received",  "txn.2pc.committed",
    "txn.2pc.aborted",     "txn.2pc.readonly_committed",
    "lock.acquisitions",   "lock.conflicts",
    "lock.aborts",         "wal.appends",
    "wal.flushes",         "wal.append_bytes",
    "suite.delete.ghosts", "suite.delete.materializations",
};
const char* const kDistributions[] = {
    "rpc.wave_width", "lock.wait_us", "wal.group_commit.ops_per_flush"};

/// Counter values and distribution count/sum (exact moments only).
using Snapshot = std::map<std::string, double>;

Snapshot TakeSnapshot() {
  MetricsRegistry& reg = MetricsRegistry::Default();
  Snapshot s;
  for (const char* name : kCounters) {
    s[name] = static_cast<double>(reg.counter(name).value());
  }
  for (const char* name : kDistributions) {
    const RunningStat m = reg.distribution(name).Moments();
    s[std::string(name) + ".count"] = static_cast<double>(m.count());
    s[std::string(name) + ".sum"] = m.mean() * static_cast<double>(m.count());
  }
  return s;
}

Snapshot Delta(const Snapshot& after, const Snapshot& before) {
  Snapshot d;
  for (const auto& [k, v] : after) d[k] = v - before.at(k);
  return d;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- One measured phase ---

struct PhaseConfig {
  double seconds = 10;
  bool traced = false;
  int setups = kSetups;
  /// > 0: the (single) client runs exactly this many timed calls.
  std::uint64_t fixed_ops = 0;
};

struct Phase {
  std::vector<double> setup_s;
  double wall_s = 0;
  ClientCounts counts;           ///< Whole timed phase.
  std::vector<ClientOps> ops;    ///< Op records per client.
  // Registry-count window (whole phase, or the first kCountWindowOps ops
  // of a single-client run).
  Snapshot window;
  ClientCounts window_counts;
  bool window_exact = false;
  std::uint64_t key_hash = 0;
  LayerTimes layers;             ///< Traced phases only.
  std::size_t nodes = 0;
  double peak_rss_mb = 0;
};

/// A deployment filled by its workload, with one client per thread.
/// Members are destroyed clients first, deployment last.
struct Live {
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<Workload> wl;
  std::vector<std::unique_ptr<Client>> clients;
};

/// Deploys and fills; the returned time is the set-up time.
Result<std::unique_ptr<Live>> SetUp(const std::string& name,
                                    std::uint64_t seed, Tracer* tracer,
                                    double& seconds) {
  const std::int64_t t0 = NowNs();
  auto live = std::make_unique<Live>();
  live->wl = MakeWorkload(name, seed);
  if (!live->wl) return Status::InvalidArgument("unknown workload " + name);
  live->dep = std::make_unique<Deployment>(live->wl->wire(), tracer);
  REPDIR_RETURN_IF_ERROR(live->dep->Start());
  std::vector<Client*> raw;
  for (int i = 0; i < live->wl->clients(); ++i) {
    const NodeId id = kFirstClient + static_cast<NodeId>(i);
    live->clients.push_back(
        std::make_unique<Client>(live->dep->NewSuite(id), id));
    raw.push_back(live->clients.back().get());
  }
  Client direct(live->dep->DirectSuite(kFillClient), kFillClient);
  REPDIR_RETURN_IF_ERROR(live->wl->Fill(raw, direct));
  seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return live;
}

/// Closed loop of every client of `live` until `deadline_ns`, or for
/// `max_ops` calls each when non-zero. `on_op` runs after each call of
/// client 0 with the number of calls it has made.
Status Drive(Live& live, std::int64_t deadline_ns, std::uint64_t max_ops,
             const std::function<void(std::uint64_t)>& on_op) {
  const int n = live.wl->clients();
  std::atomic<bool> stop{false};
  std::vector<Status> st(static_cast<std::size_t>(n));
  auto loop = [&](int i) {
    Client& c = *live.clients[static_cast<std::size_t>(i)];
    for (std::uint64_t k = 0;; ++k) {
      if (stop.load(std::memory_order_relaxed)) return;
      if (max_ops > 0 ? k >= max_ops : NowNs() >= deadline_ns) return;
      Status s = live.wl->Step(i, c);
      if (!s.ok()) {
        st[static_cast<std::size_t>(i)] = std::move(s);
        stop = true;
        return;
      }
      if (i == 0 && on_op) on_op(k + 1);
    }
  };
  if (n == 1) {
    loop(0);
  } else {
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i) threads.emplace_back(loop, i);
    for (auto& t : threads) t.join();
  }
  for (Status& s : st) REPDIR_RETURN_IF_ERROR(s);
  return Status::Ok();
}

/// The correctness gate: an ordered client scan must equal `model`, and
/// every replica must pass CheckReplicas against it.
Status Gate(Deployment& dep, const chaos::Model& model) {
  REPDIR_ASSIGN_OR_RETURN(const chaos::Model seen, dep.ClientScan());
  if (seen != model) {
    std::size_t diff = 0;
    for (const auto& [k, v] : model) {
      const auto it = seen.find(k);
      if (it == seen.end() || it->second != v) ++diff;
    }
    return Status::Internal(
        "ordered client scan disagrees with the clients' models: " +
        std::to_string(seen.size()) + " entries scanned, " +
        std::to_string(model.size()) + " in the models, " +
        std::to_string(diff) + " model entries missing or different");
  }
  return CheckReplicas(dep.config(), dep.Scans(), model);
}

/// Sets up, warms up, runs the timed phase and gates it; then sets up and
/// tears down again until `config.setups` set-up times are measured. The
/// extra set-ups come after the peak-memory reading: memory they free is
/// not always reused, and would inflate it.
Result<Phase> RunPhase(const std::string& name, std::uint64_t seed,
                       const PhaseConfig& config) {
  Phase phase;
  Tracer tracer;
  double setup = 0;
  REPDIR_ASSIGN_OR_RETURN(
      std::unique_ptr<Live> live,
      SetUp(name, seed, config.traced ? &tracer : nullptr, setup));
  phase.setup_s.push_back(setup);

  REPDIR_RETURN_IF_ERROR(Drive(*live, 0, kWarmupCalls, nullptr));
  (void)tracer.TakeRpcs();
  (void)tracer.TakeDispatches();
  // Read here, not after the timed phase: the WAL grows with every op, so
  // a later reading would follow the host's speed during the run.
  phase.peak_rss_mb = PeakRssMb();

  for (auto& c : live->clients) c->set_recording(true);
  const Snapshot before = TakeSnapshot();
  Snapshot window_end;
  const bool windowed = live->clients.size() == 1;
  auto on_op = [&](std::uint64_t done) {
    if (windowed && done == kCountWindowOps) {
      window_end = TakeSnapshot();
      phase.window_counts = live->clients[0]->counts();
      phase.window_exact = true;
    }
  };
  const std::int64_t start = NowNs();
  REPDIR_RETURN_IF_ERROR(
      Drive(*live, start + static_cast<std::int64_t>(config.seconds * 1e9),
            config.fixed_ops, on_op));
  phase.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  const Snapshot after = TakeSnapshot();
  for (auto& c : live->clients) c->set_recording(false);

  for (const auto& c : live->clients) {
    const ClientCounts& x = c->counts();
    phase.counts.dir_ops += x.dir_ops;
    phase.counts.dir_ops_ok += x.dir_ops_ok;
    phase.counts.dir_ops_failed += x.dir_ops_failed;
    phase.counts.attempts += x.attempts;
    phase.counts.failed_attempts += x.failed_attempts;
    phase.counts.deletes_ok += x.deletes_ok;
    phase.counts.user_bytes += x.user_bytes;
    phase.ops.push_back({c->id(), std::move(c->records())});
    phase.key_hash ^= c->key_hash() + 0x9e3779b97f4a7c15ull * c->id();
  }
  if (!phase.window_exact) {
    window_end = after;
    phase.window_counts = phase.counts;
  }
  phase.window = Delta(window_end, before);

  REPDIR_RETURN_IF_ERROR(Gate(*live->dep, live->wl->Model()));
  phase.nodes = live->dep->config().replicas().size();
  if (config.traced) {
    phase.layers = Analyze(phase.ops, tracer.TakeRpcs(),
                           tracer.TakeDispatches());
  }
  live.reset();

  for (int s = 1; s < config.setups; ++s) {
    REPDIR_ASSIGN_OR_RETURN(live, SetUp(name, seed, nullptr, setup));
    phase.setup_s.push_back(setup);
    live.reset();
  }
  return phase;
}

// --- Metrics ---

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  ///< Raw samples behind a percentile.
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The gated end-to-end metrics: what each directory op costs the
/// deployment in the paper's own terms, plus set-up time and memory.
std::vector<Metric> EndToEnd(const Phase& p) {
  const Snapshot& w = p.window;
  const double ops = static_cast<double>(p.window_counts.dir_ops_ok);
  return {
      {"rpcs_per_op", Ratio(w.at("rpc.attempts"), ops), "count"},
      {"round_trips_per_op", Ratio(w.at("rpc.wave_width.count"), ops),
       "count"},
      {"wire_bytes_per_op",
       Ratio(w.at("rpc.bytes_sent") + w.at("rpc.bytes_received"), ops), "B"},
      {"wal_flushes_per_op", Ratio(w.at("wal.flushes"), ops), "count"},
      {"setup_s", Median(p.setup_s), "s", p.setup_s.size()},
      {"peak_rss_mb", p.peak_rss_mb, "MB"},
  };
}

/// Wall-clock speed of the whole timed phase: printed on every run, not
/// gated (see README.md for why).
std::vector<Metric> WallClock(const Phase& p) {
  Samples read;
  Samples write;
  for (const ClientOps& c : p.ops) {
    for (const OpRecord& op : c.ops) {
      (IsRead(op.kind) ? read : write)
          .Add(static_cast<double>(op.end_ns - op.start_ns) / 1000.0);
    }
  }
  return {
      {"ops_per_s", Ratio(static_cast<double>(p.counts.dir_ops_ok), p.wall_s),
       "1/s", p.counts.dir_ops_ok},
      {"read_p50_us", read.Percentile(0.50), "us", read.count()},
      {"read_p99_us", read.Percentile(0.99), "us", read.count()},
      {"write_p50_us", write.Percentile(0.50), "us", write.count()},
      {"write_p99_us", write.Percentile(0.99), "us", write.count()},
  };
}

constexpr RpcClass kTimedClasses[] = {RpcClass::kPing, RpcClass::kRead,
                                      RpcClass::kWrite, RpcClass::kPrepare,
                                      RpcClass::kCommit};

std::vector<Metric> PerLayer(Phase& p) {
  LayerTimes& t = p.layers;
  const Snapshot& w = p.window;
  const double ops = static_cast<double>(p.window_counts.dir_ops_ok);
  auto per_op = [&](const char* counter) { return Ratio(w.at(counter), ops); };
  std::vector<Metric> m;
  const char* cls_name[2] = {"read", "write"};
  for (int c = 0; c < 2; ++c) {
    m.push_back({std::string("rep.suite.op_us_p50.") + cls_name[c],
                 t.class_op_us[c].Percentile(0.5), "us",
                 t.class_op_us[c].count()});
    m.push_back({std::string("rep.suite.op_us_p99.") + cls_name[c],
                 t.class_op_us[c].Percentile(0.99), "us",
                 t.class_op_us[c].count()});
  }
  for (int c = 0; c < 2; ++c) {
    m.push_back({std::string("rep.suite.self_us_p50.") + cls_name[c],
                 t.class_self_us[c].Percentile(0.5), "us",
                 t.class_self_us[c].count()});
  }
  for (int c = 0; c < 2; ++c) {
    m.push_back({std::string("rep.suite.rpc_wait_us_p50.") + cls_name[c],
                 t.class_wait_us[c].Percentile(0.5), "us",
                 t.class_wait_us[c].count()});
  }
  for (int c = 0; c < 2; ++c) {
    m.push_back({std::string("rep.suite.rpcs_per_op.") + cls_name[c],
                 Ratio(static_cast<double>(t.class_rpcs[c]),
                       static_cast<double>(t.class_ops[c])),
                 "count", t.class_ops[c]});
  }
  const double deletes = static_cast<double>(p.window_counts.deletes_ok);
  m.push_back({"rep.suite.ghosts_per_delete",
               Ratio(w.at("suite.delete.ghosts"), deletes), "count"});
  m.push_back({"rep.suite.materializations_per_delete",
               Ratio(w.at("suite.delete.materializations"), deletes), "count"});
  m.push_back({"rep.suite.failed_attempt_share",
               Ratio(static_cast<double>(p.counts.failed_attempts),
                     static_cast<double>(p.counts.attempts)),
               "share"});

  for (const RpcClass c : kTimedClasses) {
    Samples& s = t.rpc_us[static_cast<int>(c)];
    m.push_back({std::string("net.rpc_us_p50.") + RpcClassName(c),
                 s.Percentile(0.5), "us", s.count()});
    m.push_back({std::string("net.rpc_us_p99.") + RpcClassName(c),
                 s.Percentile(0.99), "us", s.count()});
  }
  for (const RpcClass c : kTimedClasses) {
    Samples& s = t.hop_us[static_cast<int>(c)];
    m.push_back({std::string("net.hop_us_p50.") + RpcClassName(c),
                 s.Percentile(0.5), "us", s.count()});
  }
  m.push_back({"net.retries_per_op", per_op("rpc.retries"), "count"});
  m.push_back({"net.failed_rpc_share",
               Ratio(w.at("rpc.failures"), w.at("rpc.attempts")), "share"});

  for (const RpcClass c : kTimedClasses) {
    Samples& s = t.dispatch_us[static_cast<int>(c)];
    m.push_back({std::string("rep.node.dispatch_us_p50.") + RpcClassName(c),
                 s.Percentile(0.5), "us", s.count()});
    m.push_back({std::string("rep.node.dispatch_us_p99.") + RpcClassName(c),
                 s.Percentile(0.99), "us", s.count()});
  }
  m.push_back({"rep.node.busy_share",
               Ratio(t.dispatch_total_us, p.wall_s * 1e6 * static_cast<double>(p.nodes)), "share"});

  m.push_back({"txn.commits_per_op", per_op("txn.2pc.committed"), "count"});
  m.push_back({"txn.readonly_commits_per_op",
               per_op("txn.2pc.readonly_committed"), "count"});
  m.push_back({"txn.aborts_per_op", per_op("txn.2pc.aborted"), "count"});

  m.push_back({"lock.acquisitions_per_op", per_op("lock.acquisitions"),
               "count"});
  m.push_back({"lock.conflicts_per_op", per_op("lock.conflicts"), "count"});
  m.push_back({"lock.aborts_per_op", per_op("lock.aborts"), "count"});

  m.push_back({"storage.wal_appends_per_op", per_op("wal.appends"), "count"});
  m.push_back({"storage.wal_bytes_per_op", per_op("wal.append_bytes"), "B"});
  m.push_back({"storage.ops_per_flush_mean",
               Ratio(w.at("wal.group_commit.ops_per_flush.sum"),
                     w.at("wal.group_commit.ops_per_flush.count")),
               "count"});
  m.push_back({"storage.wal_bytes_per_user_byte",
               Ratio(w.at("wal.append_bytes"),
                     static_cast<double>(p.window_counts.user_bytes)),
               "ratio"});
  return m;
}

// --- Output ---

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-44s %14.4f %-6s n=%" PRIu64 "\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-44s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

void PrintOpKinds(Phase& p) {
  Samples by_kind[kOpKinds];
  std::uint64_t retried[kOpKinds] = {};
  for (const ClientOps& c : p.ops) {
    for (const OpRecord& op : c.ops) {
      const int k = static_cast<int>(op.kind);
      by_kind[k].Add(static_cast<double>(op.end_ns - op.start_ns) / 1000.0);
      if (op.attempts > 1) ++retried[k];
    }
  }
  std::printf("latency by op type (exact percentiles over raw samples)\n");
  for (int k = 0; k < kOpKinds; ++k) {
    Samples& s = by_kind[k];
    if (s.count() == 0) continue;
    const char* name = OpKindName(static_cast<OpKind>(k));
    std::printf("  %-12s p50 %10.2f us   p99 %10.2f us   n=%zu  retried=%" PRIu64
                "\n",
                name, s.Percentile(0.5), s.Percentile(0.99), s.count(),
                retried[k]);
  }
}

std::string Json(const std::vector<Metric>& metrics, const Phase& p) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(p.counts.dir_ops) +
                    ", \"failed\": " + std::to_string(p.counts.dir_ops_failed) +
                    ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}}";
}

/// Prints each op type's mean time as self + RPC wait + residual. The
/// residual is non-zero only where an RPC joined to an op outlasts it; more
/// than 1% of an op type's time, or an RPC inside no op, means the spans do
/// not account for the ops and fails the run.
Status CheckAccounting(LayerTimes& t) {
  std::printf(
      "layer accounting, traced run: op = self + rpc_wait + residual (means, "
      "us)\n");
  Status st;
  for (int k = 0; k < kOpKinds; ++k) {
    if (t.op_us[k].count() == 0) continue;
    const char* name = OpKindName(static_cast<OpKind>(k));
    const double op = t.op_us[k].Mean();
    const double residual = t.residual_us[k].Mean();
    std::printf(
        "  %-12s op %10.2f  self %10.2f  rpc_wait %10.2f  residual %8.3f "
        "(%.3f%%)  rpcs/op %.2f  n=%zu\n",
        name, op, t.self_us[k].Mean(), t.rpc_wait_us[k].Mean(), residual,
        100.0 * Ratio(residual, op),
        Ratio(static_cast<double>(t.rpcs[k]),
              static_cast<double>(t.dir_ops[k])),
        t.op_us[k].count());
    if (std::abs(residual) > 0.01 * op) {
      st = Status::Internal(std::string("self + rpc_wait misses ") + name +
                            " time by more than 1%");
    }
  }
  std::printf("  rpcs outside any op: %" PRIu64
              "   rpcs without a dispatch span: %" PRIu64 "\n",
              t.orphan_rpcs, t.unmatched_rpcs);
  std::uint64_t ops = 0;
  for (int k = 0; k < kOpKinds; ++k) ops += t.dir_ops[k];
  std::printf("  wire bytes per op seen by the span recorder: %.2f\n",
              Ratio(static_cast<double>(t.rpc_bytes), static_cast<double>(ops)));
  if (t.orphan_rpcs > 0) st = Status::Internal("RPC spans outside every op");
  return st;
}

void PrintLockWaits(const Phase& p) {
  const Snapshot& w = p.window;
  const double ops = static_cast<double>(p.window_counts.dir_ops_ok);
  std::printf("lock waits: lock.wait_us_mean %.2f us  lock.wait_us_per_op "
              "%.3f us  (waits=%.0f)\n",
              Ratio(w.at("lock.wait_us.sum"), w.at("lock.wait_us.count")),
              Ratio(w.at("lock.wait_us.sum"), ops), w.at("lock.wait_us.count"));
}

int Fail(const Status& st) {
  std::fprintf(stderr, "perfbench: FAILED: %s\n", st.ToString().c_str());
  return 1;
}

int RunBenchmark(const std::string& name, std::uint64_t seed, double seconds,
                 bool trace) {
  std::printf("workload %s  seed %" PRIu64 "  seconds %.3g  trace %d\n",
              name.c_str(), seed, seconds, trace ? 1 : 0);
  // A traced run splits its measuring time between the untraced and the
  // traced phase, so both kinds of run take the same time.
  PhaseConfig config;
  config.seconds = trace ? seconds / 2 : seconds;
  config.setups = trace ? 1 : kSetups;
  auto untraced = RunPhase(name, seed, config);
  if (!untraced.ok()) return Fail(untraced.status());
  const std::vector<Metric> e2e = EndToEnd(*untraced);
  const std::vector<Metric> wall = WallClock(*untraced);
  PrintOpKinds(*untraced);
  PrintTable("wall-clock speed, whole timed phase (reported, not gated)", wall);
  std::printf("set-up times (s):");
  for (const double t : untraced->setup_s) std::printf(" %.4f", t);
  std::printf("\n");
  if (untraced->window_exact) {
    std::printf("registry counts cover the first %" PRIu64 " timed ops\n",
                kCountWindowOps);
  }
  if (!trace) {
    PrintTable("end-to-end metrics", e2e);
    std::printf("correctness gate: passed (client scan, well-formedness, "
                "version coherence, quorum agreement)\n");
    std::printf("%s\n", Json(e2e, *untraced).c_str());
    return 0;
  }

  config.traced = true;
  auto traced = RunPhase(name, seed, config);
  if (!traced.ok()) return Fail(traced.status());
  std::printf("tracing overhead (traced minus untraced)\n");
  auto print_diff = [](const std::vector<Metric>& before,
                       const std::vector<Metric>& after) {
    for (std::size_t i = 0; i < before.size(); ++i) {
      std::printf("  %-20s untraced %14.4f  traced %14.4f  diff %+14.4f %s\n",
                  before[i].name.c_str(), before[i].value, after[i].value,
                  after[i].value - before[i].value, before[i].unit.c_str());
    }
  };
  print_diff(wall, WallClock(*traced));
  print_diff(e2e, EndToEnd(*traced));
  const Status accounted = CheckAccounting(traced->layers);
  if (!accounted.ok()) return Fail(accounted);
  PrintLockWaits(*traced);
  const std::vector<Metric> layers = PerLayer(*traced);
  PrintTable("per-layer metrics (traced run)", layers);
  std::printf("correctness gate: passed on both runs\n");
  std::printf("%s\n", Json(layers, *traced).c_str());
  return 0;
}

// --- Self-test ---

/// The gate must pass on a healthy deployment and reject a corrupted
/// replica and a model that disagrees with the directory.
Status GateSelfTest(const std::string& name) {
  double setup = 0;
  REPDIR_ASSIGN_OR_RETURN(auto live, SetUp(name, 7, nullptr, setup));
  REPDIR_RETURN_IF_ERROR(Drive(*live, 0, 200, nullptr));
  Deployment& dep = *live->dep;
  const chaos::Model model = live->wl->Model();
  REPDIR_RETURN_IF_ERROR(Gate(dep, model));

  chaos::Model wrong = model;
  wrong.begin()->second += "-stale";
  if (Gate(dep, wrong).ok()) {
    return Status::Internal("gate accepted a model the directory disagrees with");
  }
  REPDIR_RETURN_IF_ERROR(dep.CorruptReplica(dep.config().replicas()[0].node));
  const Status replicas = CheckReplicas(dep.config(), dep.Scans(), model);
  if (replicas.ok() || Gate(dep, model).ok()) {
    return Status::Internal("gate accepted a corrupted replica");
  }
  std::printf("  %s: corrupted replica rejected: %s\n", name.c_str(),
              replicas.ToString().c_str());
  return Status::Ok();
}

/// Same-seed InProc runs report identical counts; another seed changes
/// the key stream.
Status DeterminismSelfTest() {
  PhaseConfig config;
  config.traced = true;
  config.setups = 1;
  config.fixed_ops = kCountWindowOps;
  const char* counted[] = {
      "rpcs_per_op",        "wire_bytes_per_op",
      "round_trips_per_op", "wal_flushes_per_op",
      "rep.suite.ghosts_per_delete", "rep.suite.materializations_per_delete"};
  std::vector<std::map<std::string, double>> runs;
  std::vector<std::uint64_t> hashes;
  for (const std::uint64_t seed : {11u, 11u, 12u}) {
    REPDIR_ASSIGN_OR_RETURN(Phase p,
                            RunPhase("inproc-paper-mix", seed, config));
    if (!p.window_exact) return Status::Internal("count window not reached");
    std::map<std::string, double> values;
    for (const Metric& m : EndToEnd(p)) values[m.name] = m.value;
    for (const Metric& m : PerLayer(p)) values[m.name] = m.value;
    runs.push_back(std::move(values));
    hashes.push_back(p.key_hash);
  }
  for (const char* name : counted) {
    std::printf("  %-40s seed 11: %.17g / %.17g   seed 12: %.17g\n", name,
                runs[0].at(name), runs[1].at(name), runs[2].at(name));
    if (runs[0].at(name) != runs[1].at(name)) {
      return Status::Internal(std::string("same-seed runs differ on ") + name);
    }
  }
  if (hashes[0] != hashes[1]) {
    return Status::Internal("same-seed runs used different keys");
  }
  if (hashes[0] == hashes[2]) {
    return Status::Internal("a different seed left the key stream unchanged");
  }
  std::printf("  key stream: seed 11 %016" PRIx64 " / %016" PRIx64
              "   seed 12 %016" PRIx64 "\n",
              hashes[0], hashes[1], hashes[2]);
  return Status::Ok();
}

int SelfTest() {
  std::printf("gate self-test\n");
  for (const char* name : {"inproc-paper-mix", "tcp-point-contended"}) {
    const Status st = GateSelfTest(name);
    if (!st.ok()) return Fail(st);
  }
  std::printf("determinism self-test\n");
  const Status st = DeterminismSelfTest();
  if (!st.ok()) return Fail(st);
  std::printf("self-test passed\n");
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --self-test\nworkloads:");
  for (const auto& n : WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(v);
    } else {
      return Usage();
    }
  }
  if (!MakeWorkload(workload, seed) || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  return RunBenchmark(workload, seed, seconds, trace == 1);
}
