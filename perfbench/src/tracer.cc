#include "tracer.h"

#include <algorithm>
#include <tuple>

#include "net/wire.h"
#include "rep/messages.h"

namespace perfbench {

namespace {

std::uint32_t WireBytes(const std::string& payload) {
  return static_cast<std::uint32_t>(payload.size() +
                                    net::kEnvelopeOverheadBytes);
}

std::uint32_t ResponseBytes(const net::RpcResponse& resp) {
  return WireBytes(resp.payload) +
         static_cast<std::uint32_t>(resp.error_message.size());
}

}  // namespace

Status TracingTransport::Call(NodeId to, const net::RpcRequest& req,
                              net::RpcResponse& resp) {
  RpcSpan s;
  s.from = req.from;
  s.to = to;
  s.method = req.method;
  s.txn = req.txn;
  s.start_ns = NowNs();
  Status st = inner_->Call(to, req, resp);
  s.end_ns = NowNs();
  s.bytes = WireBytes(req.payload) + ResponseBytes(resp);
  tracer_->RecordRpc(s);
  return st;
}

void TracingTransport::CallAsync(NodeId to, const net::RpcRequest& req,
                                 AsyncDone done) {
  if (inline_async_) {
    Transport::CallAsync(to, req, std::move(done));
    return;
  }
  RpcSpan s;
  s.from = req.from;
  s.to = to;
  s.method = req.method;
  s.txn = req.txn;
  s.bytes = WireBytes(req.payload);
  s.start_ns = NowNs();
  inner_->CallAsync(
      to, req,
      [tracer = tracer_, s, done = std::move(done)](
          Status st, net::RpcResponse resp) mutable {
        s.end_ns = NowNs();
        s.bytes += ResponseBytes(resp);
              tracer->RecordRpc(s);
        done(std::move(st), std::move(resp));
      });
}

std::unique_ptr<net::RpcServer> MakeProxyServer(NodeId node,
                                                net::RpcServer& target,
                                                Tracer& tracer) {
  auto proxy = std::make_unique<net::RpcServer>(node);
  using rep::DirRepMethod;
  for (const net::MethodId method :
       {DirRepMethod::kPing, DirRepMethod::kLookup, DirRepMethod::kPredecessor,
        DirRepMethod::kSuccessor, DirRepMethod::kInsert,
        DirRepMethod::kCoalesce, DirRepMethod::kPredecessorBatch,
        DirRepMethod::kSuccessorBatch, DirRepMethod::kGuardedInsert,
        DirRepMethod::kLookupValidated, DirRepMethod::kLookupBatch,
        DirRepMethod::kInsertBatch, DirRepMethod::kRangeDigest,
        DirRepMethod::kRangeDigestSpans, DirRepMethod::kFetchRange,
        DirRepMethod::kPrepare, DirRepMethod::kCommit,
        DirRepMethod::kAbortTxn, DirRepMethod::kConfigureShard,
        DirRepMethod::kRetireRange, DirRepMethod::kShardInfo}) {
    proxy->RegisterMethod(
        method, [node, &target, &tracer](const net::RpcRequest& req,
                                         ByteWriter& out) -> Status {
          DispatchSpan s;
          s.node = node;
          s.method = req.method;
          s.txn = req.txn;
          s.start_ns = NowNs();
          net::RpcResponse resp = target.Dispatch(req);
          s.end_ns = NowNs();
          tracer.RecordDispatch(s);
          if (resp.code != StatusCode::kOk) {
            return Status(resp.code, resp.error_message);
          }
          out.PutRaw(resp.payload.data(), resp.payload.size());
          return Status::Ok();
        });
  }
  return proxy;
}

const char* RpcClassName(RpcClass c) {
  switch (c) {
    case RpcClass::kPing: return "ping";
    case RpcClass::kRead: return "read";
    case RpcClass::kWrite: return "write";
    case RpcClass::kPrepare: return "prepare";
    case RpcClass::kCommit: return "commit";
    case RpcClass::kAbort: return "abort";
    case RpcClass::kOther: return "other";
  }
  return "?";
}

RpcClass ClassOf(net::MethodId method) {
  using rep::DirRepMethod;
  switch (method) {
    case DirRepMethod::kPing:
      return RpcClass::kPing;
    case DirRepMethod::kLookup:
    case DirRepMethod::kPredecessor:
    case DirRepMethod::kSuccessor:
    case DirRepMethod::kPredecessorBatch:
    case DirRepMethod::kSuccessorBatch:
    case DirRepMethod::kLookupValidated:
    case DirRepMethod::kLookupBatch:
    case DirRepMethod::kRangeDigest:
    case DirRepMethod::kRangeDigestSpans:
    case DirRepMethod::kFetchRange:
      return RpcClass::kRead;
    case DirRepMethod::kInsert:
    case DirRepMethod::kCoalesce:
    case DirRepMethod::kGuardedInsert:
    case DirRepMethod::kInsertBatch:
      return RpcClass::kWrite;
    case DirRepMethod::kPrepare:
      return RpcClass::kPrepare;
    case DirRepMethod::kCommit:
      return RpcClass::kCommit;
    case DirRepMethod::kAbortTxn:
      return RpcClass::kAbort;
    default:
      return RpcClass::kOther;
  }
}

namespace {

double Us(std::int64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// Pairs each RPC with the dispatch span of the same (txn, node, method)
/// that lies inside the RPC's interval; -1 where there is none (the call
/// never reached the server).
std::vector<std::int64_t> MatchDispatches(
    const std::vector<RpcSpan>& rpcs,
    const std::vector<DispatchSpan>& dispatches) {
  auto key = [](const DispatchSpan& d) {
    return std::make_tuple(d.txn, d.node, d.method, d.start_ns);
  };
  std::vector<std::size_t> order(dispatches.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return key(dispatches[a]) < key(dispatches[b]);
  });
  std::vector<bool> used(dispatches.size(), false);
  std::vector<std::int64_t> match(rpcs.size(), -1);
  for (std::size_t r = 0; r < rpcs.size(); ++r) {
    const RpcSpan& rpc = rpcs[r];
    const auto probe = std::make_tuple(rpc.txn, rpc.to, rpc.method,
                                       rpc.start_ns);
    auto it = std::lower_bound(
        order.begin(), order.end(), probe,
        [&](std::size_t d, const auto& p) { return key(dispatches[d]) < p; });
    for (; it != order.end(); ++it) {
      const DispatchSpan& d = dispatches[*it];
      if (d.txn != rpc.txn || d.node != rpc.to || d.method != rpc.method ||
          d.start_ns > rpc.end_ns) {
        break;
      }
      if (!used[*it] && d.end_ns <= rpc.end_ns) {
        used[*it] = true;
        match[r] = static_cast<std::int64_t>(*it);
        break;
      }
    }
  }
  return match;
}

}  // namespace

LayerTimes Analyze(std::vector<ClientOps>& clients, std::vector<RpcSpan> rpcs,
                   std::vector<DispatchSpan> dispatches) {
  LayerTimes out;

  for (const DispatchSpan& d : dispatches) {
    const double us = Us(d.end_ns - d.start_ns);
    out.dispatch_us[static_cast<int>(ClassOf(d.method))].Add(us);
    out.dispatch_total_us += us;
  }
  const std::vector<std::int64_t> match = MatchDispatches(rpcs, dispatches);
  for (std::size_t r = 0; r < rpcs.size(); ++r) {
    const RpcSpan& rpc = rpcs[r];
    const int c = static_cast<int>(ClassOf(rpc.method));
    const std::int64_t dur = rpc.end_ns - rpc.start_ns;
    out.rpc_us[c].Add(Us(dur));
    out.rpc_bytes += rpc.bytes;
    if (match[r] < 0) {
      ++out.unmatched_rpcs;
      continue;
    }
    const DispatchSpan& d = dispatches[static_cast<std::size_t>(match[r])];
    out.hop_us[c].Add(Us(dur - (d.end_ns - d.start_ns)));
  }

  // Join RPCs to ops: (client index, op index, rpc index), grouped per op.
  std::map<NodeId, std::size_t> client_index;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    client_index[clients[i].client] = i;
  }
  struct Owned {
    std::size_t client;
    std::size_t op;
    std::size_t rpc;
  };
  std::vector<Owned> owned;
  owned.reserve(rpcs.size());
  for (std::size_t r = 0; r < rpcs.size(); ++r) {
    const auto ci = client_index.find(rpcs[r].from);
    if (ci == client_index.end()) {
      ++out.orphan_rpcs;
      continue;
    }
    const std::vector<OpRecord>& ops = clients[ci->second].ops;
    const auto it = std::upper_bound(
        ops.begin(), ops.end(), rpcs[r].start_ns,
        [](std::int64_t t, const OpRecord& op) { return t < op.start_ns; });
    if (it == ops.begin() || rpcs[r].start_ns > std::prev(it)->end_ns) {
      ++out.orphan_rpcs;
      continue;
    }
    owned.push_back({ci->second,
                     static_cast<std::size_t>(std::prev(it) - ops.begin()), r});
  }
  std::sort(owned.begin(), owned.end(), [&](const Owned& a, const Owned& b) {
    return std::tie(a.client, a.op, rpcs[a.rpc].start_ns) <
           std::tie(b.client, b.op, rpcs[b.rpc].start_ns);
  });

  std::size_t next = 0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const std::vector<OpRecord>& ops = clients[c].ops;
    for (std::size_t o = 0; o < ops.size(); ++o) {
      const OpRecord& op = ops[o];
      // Union of this op's RPC intervals (sorted by start), in full and
      // clipped to the op's own interval.
      std::int64_t union_ns = 0;
      std::int64_t clipped_ns = 0;
      std::int64_t cur_lo = 0;
      std::int64_t cur_hi = -1;
      std::uint64_t n_rpcs = 0;
      auto close_run = [&] {
        if (cur_hi < cur_lo) return;
        union_ns += cur_hi - cur_lo;
        const std::int64_t lo = std::max(cur_lo, op.start_ns);
        const std::int64_t hi = std::min(cur_hi, op.end_ns);
        if (hi > lo) clipped_ns += hi - lo;
      };
      for (; next < owned.size() && owned[next].client == c &&
             owned[next].op == o;
           ++next) {
        const RpcSpan& rpc = rpcs[owned[next].rpc];
        ++n_rpcs;
        if (rpc.start_ns > cur_hi) {
          close_run();
          cur_lo = rpc.start_ns;
          cur_hi = rpc.end_ns;
        } else {
          cur_hi = std::max(cur_hi, rpc.end_ns);
        }
      }
      close_run();
      const std::int64_t dur = op.end_ns - op.start_ns;
      const std::int64_t self = dur - clipped_ns;
      const int k = static_cast<int>(op.kind);
      out.op_us[k].Add(Us(dur));
      out.self_us[k].Add(Us(self));
      out.rpc_wait_us[k].Add(Us(union_ns));
      out.residual_us[k].Add(Us(dur - self - union_ns));
      out.rpcs[k] += n_rpcs;
      out.dir_ops[k] += op.ops;
      const int cls = IsRead(op.kind) ? 0 : 1;
      out.class_op_us[cls].Add(Us(dur));
      out.class_self_us[cls].Add(Us(self));
      out.class_wait_us[cls].Add(Us(union_ns));
      out.class_rpcs[cls] += n_rpcs;
      out.class_ops[cls] += op.ops;
    }
  }
  return out;
}

}  // namespace perfbench
