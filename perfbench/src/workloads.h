// The benchmark's deployment, its recording client, and its three
// workloads.
//
// Deployment: QuorumConfig::Uniform(3, 2, 2), three DirRepNodes in this
// process, each with a WAL on the in-memory log device and the library's
// default group-commit window, blocking locks and one shared
// DeadlockDetector. Clients use default SuiteOptions (only the quorum
// configuration is set).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "lock/deadlock.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"
#include "rep/dir_rep_node.h"
#include "rep/dir_suite.h"
#include "stats.h"
#include "tracer.h"
#include "wl/directory_client.h"

namespace perfbench {

using namespace repdir;

enum class Wire { kInProc, kTcp };

class Deployment {
 public:
  /// `tracer` non-null wires the tracing transport and proxy servers in.
  Deployment(Wire wire, Tracer* tracer);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Creates the nodes and, for TCP, starts their servers.
  Status Start();

  Wire wire() const { return wire_; }
  const rep::QuorumConfig& config() const { return config_; }

  /// A client with default options on the (possibly traced) transport.
  std::unique_ptr<rep::DirectorySuite> NewSuite(NodeId client);

  /// Every replica's raw scan (call only while no client is running).
  chaos::ScanMap Scans() const;

  /// A client that reaches the nodes' own servers in-process, whatever the
  /// deployment's transport: no sockets, no tracing. It fills TCP
  /// deployments - single-threaded, so set-up time does not hinge on
  /// thread scheduling - and makes the gate's scan.
  std::unique_ptr<rep::DirectorySuite> DirectSuite(NodeId client);

  /// An ordered FirstKey/NextKey scan through a fresh direct client.
  Result<chaos::Model> ClientScan();

  /// Corrupts one replica: the first user entry of node `node` gets a newer
  /// version and a value no client wrote. Used by the gate's self-test.
  Status CorruptReplica(NodeId node);

 private:
  Wire wire_;
  Tracer* tracer_;
  rep::QuorumConfig config_;
  lock::DeadlockDetector detector_;
  std::vector<std::unique_ptr<rep::DirRepNode>> nodes_;
  std::vector<std::unique_ptr<net::RpcServer>> proxies_;
  std::vector<std::unique_ptr<net::TcpServer>> servers_;
  std::unique_ptr<net::InProcTransport> inproc_;
  net::InProcTransport direct_;  ///< To the nodes' own servers.
  std::unique_ptr<net::TcpTransport> tcp_;
  std::unique_ptr<TracingTransport> traced_;
};

/// chaos::CheckAll (well-formedness, version coherence, quorum agreement)
/// over every replica, run range by range. CheckAll finds each key's
/// covering entry by a linear walk of the scan, which is quadratic on a
/// 100,000-entry directory; every property it checks is per key, so the
/// whole-scan well-formedness check plus CheckAll on consecutive 64-key
/// ranges - each sub-scan bounded by sentinels, the low one carrying the
/// version of the gap that covers the range's start - is the same check.
Status CheckReplicas(const rep::QuorumConfig& config,
                     const chaos::ScanMap& scans, const chaos::Model& model);

/// Counts one client accumulates while it is recording.
struct ClientCounts {
  std::uint64_t dir_ops = 0;          ///< Directory ops attempted.
  std::uint64_t dir_ops_ok = 0;       ///< ... that committed.
  std::uint64_t dir_ops_failed = 0;   ///< ... that failed after retries.
  std::uint64_t attempts = 0;         ///< Transaction attempts.
  std::uint64_t failed_attempts = 0;  ///< Attempts aborted / unavailable.
  std::uint64_t deletes_ok = 0;
  std::uint64_t user_bytes = 0;       ///< Key + value bytes written.
};

/// A directory client over one DirectorySuite that times every call,
/// retries transactions that abort (deadlock victims) or find a quorum
/// unavailable - both roll back, so the retry is safe - and records one
/// OpRecord per call while recording is on.
class Client final : public wl::DirectoryClient {
 public:
  static constexpr int kMaxAttempts = 100;

  Client(std::unique_ptr<rep::DirectorySuite> suite, NodeId id)
      : suite_(std::move(suite)), id_(id) {}

  Result<std::optional<Value>> Lookup(const UserKey& key) override;
  Status Insert(const UserKey& key, const Value& value) override;
  Status Update(const UserKey& key, const Value& value) override;
  Status Delete(const UserKey& key) override;

  /// One ExecuteBatch call; an aborted batch is retried as a unit.
  rep::DirectorySuite::BatchResult Batch(
      const std::vector<rep::DirectorySuite::BatchOp>& ops);

  NodeId id() const { return id_; }
  void set_recording(bool on) { recording_ = on; }
  std::vector<OpRecord>& records() { return records_; }
  const ClientCounts& counts() const { return counts_; }
  /// FNV-1a over every key this client has touched, in order.
  std::uint64_t key_hash() const { return key_hash_; }

 private:
  template <typename Fn>
  Status Timed(OpKind kind, std::uint16_t ops, std::uint64_t user_bytes,
               Fn&& attempt);
  void HashKey(const UserKey& key);

  std::unique_ptr<rep::DirectorySuite> suite_;
  NodeId id_;
  bool recording_ = false;
  std::vector<OpRecord> records_;
  ClientCounts counts_;
  std::uint64_t key_hash_ = 1469598103934665603ull;
};

/// A workload: fills a fresh deployment through its clients, then makes
/// one client call per Step. Each client is driven by one thread and owns
/// its part of the model; Model() is their union.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Wire wire() const = 0;
  virtual int clients() const = 0;
  /// Fills the directory, through `direct` or the workload's own clients.
  virtual Status Fill(std::vector<Client*>& clients, Client& direct) = 0;
  /// One closed-loop call by client `i`; any error fails the run.
  virtual Status Step(int i, Client& client) = 0;
  virtual chaos::Model Model() const = 0;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

}  // namespace perfbench
