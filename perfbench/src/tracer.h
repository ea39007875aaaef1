// Tracing from outside the program: spans are recorded only around calls
// into each layer's public interface, kept in memory, and joined when the
// run ends.
//
//   * TracingTransport decorates the client's net::Transport and records
//     one RpcSpan per call (from, to, method, txn, start, end, bytes).
//   * MakeProxyServer builds a net::RpcServer that forwards every method
//     to a node's own server().Dispatch() and records a DispatchSpan.
//   * Clients record one OpRecord per call (stats.h).
//
// RPC spans join to op spans by client node id within the op's interval;
// dispatch spans join to RPC spans by (txn, node, method) within the RPC's
// interval.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/rpc_server.h"
#include "net/transport.h"
#include "stats.h"

namespace perfbench {

using namespace repdir;

struct RpcSpan {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  TxnId txn = 0;
  NodeId from = 0;
  NodeId to = 0;
  std::uint32_t bytes = 0;  ///< Request plus response, envelopes included.
  net::MethodId method = 0;
};

struct DispatchSpan {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  TxnId txn = 0;
  NodeId node = 0;
  net::MethodId method = 0;
};

/// Thread-safe in-memory span store.
class Tracer {
 public:
  void RecordRpc(const RpcSpan& s) {
    std::lock_guard<std::mutex> lk(mu_);
    rpcs_.push_back(s);
  }
  void RecordDispatch(const DispatchSpan& s) {
    std::lock_guard<std::mutex> lk(mu_);
    dispatches_.push_back(s);
  }
  /// Hands the spans over; call once every traced thread has stopped.
  std::vector<RpcSpan> TakeRpcs() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(rpcs_);
  }
  std::vector<DispatchSpan> TakeDispatches() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(dispatches_);
  }

 private:
  std::mutex mu_;
  std::vector<RpcSpan> rpcs_;             // guarded by mu_
  std::vector<DispatchSpan> dispatches_;  // guarded by mu_
};

/// Records one RpcSpan per call. With `inline_async` the inherited inline
/// CallAsync is kept, so an InProc run stays single-threaded and
/// deterministic; otherwise CallAsync forwards to the inner transport's
/// and records on its completion thread.
class TracingTransport final : public net::Transport {
 public:
  TracingTransport(net::Transport& inner, Tracer& tracer, bool inline_async)
      : inner_(&inner), tracer_(&tracer), inline_async_(inline_async) {}

  Status Call(NodeId to, const net::RpcRequest& req,
              net::RpcResponse& resp) override;
  void CallAsync(NodeId to, const net::RpcRequest& req,
                 AsyncDone done) override;
  std::uint64_t DeliveredCount(NodeId from, NodeId to) const override {
    return inner_->DeliveredCount(from, to);
  }
  std::uint64_t TotalAttempts() const override {
    return inner_->TotalAttempts();
  }

 private:
  net::Transport* inner_;
  Tracer* tracer_;
  bool inline_async_;
};

/// A server that forwards every directory-service method to `target` and
/// records a DispatchSpan for `node` around each forwarded dispatch.
std::unique_ptr<net::RpcServer> MakeProxyServer(NodeId node,
                                                net::RpcServer& target,
                                                Tracer& tracer);

/// The RPC classes the per-layer metrics are grouped by.
enum class RpcClass : std::uint8_t {
  kPing, kRead, kWrite, kPrepare, kCommit, kAbort, kOther
};
inline constexpr int kRpcClasses = 7;
const char* RpcClassName(RpcClass c);
RpcClass ClassOf(net::MethodId method);

/// One client's op records, tagged with its node id.
struct ClientOps {
  NodeId client = 0;
  std::vector<OpRecord> ops;
};

/// Per-op accounting of a traced phase: each op's time split into self
/// time (no RPC of this client outstanding) and RPC wait (the union of
/// its RPC intervals), plus the per-RPC and per-dispatch samples.
struct LayerTimes {
  // Indexed by OpKind.
  Samples op_us[kOpKinds];
  Samples self_us[kOpKinds];
  Samples rpc_wait_us[kOpKinds];
  Samples residual_us[kOpKinds];
  std::uint64_t rpcs[kOpKinds] = {};
  std::uint64_t dir_ops[kOpKinds] = {};  ///< Directory ops (batch = 16).
  // Read (lookup, read batch) and write (everything else) classes.
  Samples class_op_us[2];
  Samples class_self_us[2];
  Samples class_wait_us[2];
  std::uint64_t class_rpcs[2] = {};
  std::uint64_t class_ops[2] = {};
  // Indexed by RpcClass.
  Samples rpc_us[kRpcClasses];
  Samples hop_us[kRpcClasses];
  Samples dispatch_us[kRpcClasses];
  double dispatch_total_us = 0;
  std::uint64_t rpc_bytes = 0;         ///< Wire bytes of every RPC span.
  std::uint64_t orphan_rpcs = 0;       ///< RPCs inside no op interval.
  std::uint64_t unmatched_rpcs = 0;    ///< RPCs with no dispatch span.
};

LayerTimes Analyze(std::vector<ClientOps>& clients, std::vector<RpcSpan> rpcs,
                   std::vector<DispatchSpan> dispatches);

}  // namespace perfbench
