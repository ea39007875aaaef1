#include "workloads.h"

#include <map>
#include <set>

#include "common/rng.h"
#include "wl/key_gen.h"
#include "wl/workload.h"

namespace perfbench {

// --- Deployment ---

Deployment::Deployment(Wire wire, Tracer* tracer)
    : wire_(wire), tracer_(tracer),
      config_(rep::QuorumConfig::Uniform(3, 2, 2)) {}

Deployment::~Deployment() {
  // Clients' transport first, then the servers, then the nodes they serve.
  traced_.reset();
  tcp_.reset();
  inproc_.reset();
  for (auto& server : servers_) server->Stop();
}

Status Deployment::Start() {
  rep::DirRepNodeOptions options;
  options.enable_wal = true;  // in-memory log device, default group commit
  options.participant.blocking_locks = true;
  options.detector = &detector_;

  if (wire_ == Wire::kInProc) {
    inproc_ = std::make_unique<net::InProcTransport>();
  } else {
    tcp_ = std::make_unique<net::TcpTransport>();
  }
  for (const auto& replica : config_.replicas()) {
    nodes_.push_back(std::make_unique<rep::DirRepNode>(replica.node, options));
    net::RpcServer* server = &nodes_.back()->server();
    direct_.RegisterNode(replica.node, *server);
    if (tracer_ != nullptr) {
      proxies_.push_back(MakeProxyServer(replica.node, *server, *tracer_));
      server = proxies_.back().get();
    }
    if (wire_ == Wire::kInProc) {
      inproc_->RegisterNode(replica.node, *server);
      continue;
    }
    servers_.push_back(std::make_unique<net::TcpServer>(*server));
    REPDIR_ASSIGN_OR_RETURN(const std::uint16_t port, servers_.back()->Start());
    tcp_->AddRoute(replica.node, "127.0.0.1", port);
  }
  net::Transport& inner = inproc_ ? static_cast<net::Transport&>(*inproc_)
                                  : static_cast<net::Transport&>(*tcp_);
  if (tracer_ != nullptr) {
    traced_ = std::make_unique<TracingTransport>(
        inner, *tracer_, /*inline_async=*/wire_ == Wire::kInProc);
  }
  return Status::Ok();
}

std::unique_ptr<rep::DirectorySuite> Deployment::NewSuite(NodeId client) {
  net::Transport* transport = traced_.get();
  if (transport == nullptr) {
    transport = inproc_ ? static_cast<net::Transport*>(inproc_.get())
                        : static_cast<net::Transport*>(tcp_.get());
  }
  rep::SuiteOptions options;
  options.config = config_;
  return std::make_unique<rep::DirectorySuite>(*transport, client,
                                               std::move(options));
}

chaos::ScanMap Deployment::Scans() const {
  chaos::ScanMap scans;
  for (const auto& node : nodes_) scans[node->id()] = node->storage().Scan();
  return scans;
}

std::unique_ptr<rep::DirectorySuite> Deployment::DirectSuite(NodeId client) {
  rep::SuiteOptions options;
  options.config = config_;
  return std::make_unique<rep::DirectorySuite>(direct_, client,
                                               std::move(options));
}

Result<chaos::Model> Deployment::ClientScan() {
  const auto suite = DirectSuite(/*client=*/900);
  chaos::Model seen;
  REPDIR_ASSIGN_OR_RETURN(auto cur, suite->FirstKey());
  while (cur.found) {
    seen.emplace(cur.key, cur.value);
    REPDIR_ASSIGN_OR_RETURN(cur, suite->NextKey(cur.key));
  }
  return seen;
}

Status Deployment::CorruptReplica(NodeId node) {
  for (auto& n : nodes_) {
    if (n->id() != node) continue;
    for (storage::StoredEntry e : n->storage().Scan()) {
      if (!e.key.is_user()) continue;
      e.version += 1;
      e.value = "corrupt";
      n->storage().Put(e);
      return Status::Ok();
    }
    return Status::FailedPrecondition("replica holds no user entry");
  }
  return Status::InvalidArgument("no such node");
}

Status CheckReplicas(const rep::QuorumConfig& config,
                     const chaos::ScanMap& scans, const chaos::Model& model) {
  constexpr std::size_t kRangeKeys = 64;
  REPDIR_RETURN_IF_ERROR(chaos::CheckAllWellFormed(scans));
  std::set<UserKey> keys;
  for (const auto& [node, scan] : scans) {
    for (const auto& e : scan) {
      if (e.key.is_user()) keys.insert(e.key.user());
    }
  }
  for (const auto& [key, value] : model) keys.insert(key);
  std::vector<UserKey> starts;
  std::size_t i = 0;
  for (const UserKey& key : keys) {
    if (i++ % kRangeKeys == 0) starts.push_back(key);
  }
  if (starts.empty()) return chaos::CheckAll(config, scans, model);

  std::map<NodeId, std::size_t> pos;  // next unconsumed scan index
  for (const auto& [node, scan] : scans) pos[node] = 1;
  auto model_it = model.begin();
  for (std::size_t r = 0; r < starts.size(); ++r) {
    const bool last = r + 1 == starts.size();
    auto in_range = [&](const UserKey& k) {
      return last || k < starts[r + 1];
    };
    chaos::ScanMap sub;
    for (const auto& [node, scan] : scans) {
      std::size_t& p = pos[node];
      chaos::Scan& out = sub[node];
      storage::StoredEntry low = scan[p - 1];  // covers the range's start
      low.key = storage::RepKey::Low();
      low.value.clear();
      out.push_back(std::move(low));
      for (; scan[p].key.is_user() && in_range(scan[p].key.user()); ++p) {
        out.push_back(scan[p]);
      }
      out.push_back(scan.back());  // HIGH
    }
    chaos::Model sub_model;
    for (; model_it != model.end() && in_range(model_it->first); ++model_it) {
      sub_model.insert(*model_it);
    }
    REPDIR_RETURN_IF_ERROR(chaos::CheckAll(config, sub, sub_model));
  }
  return Status::Ok();
}

// --- Client ---

template <typename Fn>
Status Client::Timed(OpKind kind, std::uint16_t ops, std::uint64_t user_bytes,
                     Fn&& attempt) {
  OpRecord rec;
  rec.kind = kind;
  rec.ops = ops;
  rec.start_ns = NowNs();
  Status st;
  int attempts = 0;
  for (;;) {
    ++attempts;
    st = attempt();
    const bool retry = st.code() == StatusCode::kAborted ||
                       st.code() == StatusCode::kUnavailable;
    if (!retry || attempts == kMaxAttempts) break;
  }
  rec.end_ns = NowNs();
  rec.attempts = static_cast<std::uint16_t>(attempts);
  rec.ok = st.ok();
  if (recording_) {
    records_.push_back(rec);
    counts_.dir_ops += ops;
    counts_.attempts += static_cast<std::uint64_t>(attempts);
    counts_.failed_attempts += static_cast<std::uint64_t>(attempts - 1) +
                               (rec.ok ? 0 : 1);
    if (rec.ok) {
      counts_.dir_ops_ok += ops;
      counts_.user_bytes += user_bytes;
      if (kind == OpKind::kDelete) ++counts_.deletes_ok;
    } else if (st.code() == StatusCode::kAborted ||
               st.code() == StatusCode::kUnavailable) {
      counts_.dir_ops_failed += ops;
    }
  }
  return st;
}

void Client::HashKey(const UserKey& key) {
  for (const char ch : key) {
    key_hash_ ^= static_cast<unsigned char>(ch);
    key_hash_ *= 1099511628211ull;
  }
  key_hash_ ^= 0xff;
  key_hash_ *= 1099511628211ull;
}

Result<std::optional<Value>> Client::Lookup(const UserKey& key) {
  HashKey(key);
  std::optional<Value> out;
  const Status st = Timed(OpKind::kLookup, 1, 0, [&]() -> Status {
    REPDIR_ASSIGN_OR_RETURN(const auto r, suite_->Lookup(key));
    out = r.found ? std::optional<Value>(r.value) : std::nullopt;
    return Status::Ok();
  });
  REPDIR_RETURN_IF_ERROR(st);
  return out;
}

Status Client::Insert(const UserKey& key, const Value& value) {
  HashKey(key);
  return Timed(OpKind::kInsert, 1, key.size() + value.size(),
               [&] { return suite_->Insert(key, value); });
}

Status Client::Update(const UserKey& key, const Value& value) {
  HashKey(key);
  return Timed(OpKind::kUpdate, 1, key.size() + value.size(),
               [&] { return suite_->Update(key, value); });
}

Status Client::Delete(const UserKey& key) {
  HashKey(key);
  return Timed(OpKind::kDelete, 1, key.size(),
               [&] { return suite_->Delete(key); });
}

rep::DirectorySuite::BatchResult Client::Batch(
    const std::vector<rep::DirectorySuite::BatchOp>& ops) {
  bool read_only = true;
  std::uint64_t bytes = 0;
  for (const auto& op : ops) {
    HashKey(op.key);
    if (op.kind != rep::DirectorySuite::BatchOp::Kind::kLookup) {
      read_only = false;
      bytes += op.key.size() + op.value.size();
    }
  }
  rep::DirectorySuite::BatchResult result;
  (void)Timed(read_only ? OpKind::kReadBatch : OpKind::kWriteBatch,
              static_cast<std::uint16_t>(ops.size()), bytes, [&] {
                result = suite_->ExecuteBatch(ops);
                return result.status;
              });
  return result;
}

// --- Workloads ---

namespace {

Value MakeValue(int client, std::uint64_t& counter) {
  return "v" + std::to_string(client) + "." + std::to_string(counter++);
}

/// Seed of client `client`'s own random stream.
std::uint64_t ClientSeed(std::uint64_t seed, int client) {
  return seed * 1000003 + static_cast<std::uint64_t>(client) + 1;
}

/// Global key of slot `slot` of client `client` among `clients`: slots
/// interleave, so key i belongs to client i mod clients.
UserKey SlotKey(int clients, int client, std::uint64_t slot) {
  return wl::NumericKey(slot * static_cast<std::uint64_t>(clients) +
                        static_cast<std::uint64_t>(client));
}

/// Inserts every entry of `entries` through `client`, in key order, in
/// batches of 64.
Status BatchInsert(Client& client, const chaos::Model& entries) {
  constexpr std::size_t kFillBatch = 64;
  std::vector<rep::DirectorySuite::BatchOp> ops;
  for (auto it = entries.begin(); it != entries.end();) {
    ops.clear();
    for (; it != entries.end() && ops.size() < kFillBatch; ++it) {
      ops.push_back(
          {rep::DirectorySuite::BatchOp::Kind::kInsert, it->first, it->second});
    }
    const auto r = client.Batch(ops);
    REPDIR_RETURN_IF_ERROR(r.status);
    for (const auto& op : r.ops) REPDIR_RETURN_IF_ERROR(op.status);
  }
  return Status::Ok();
}

Status Mismatch(const UserKey& key, const std::optional<Value>& want,
                const std::optional<Value>& got) {
  return Status::Internal("lookup of " + key + " returned " +
                          (got ? "'" + *got + "'" : "absent") +
                          ", the client's model holds " +
                          (want ? "'" + *want + "'" : "absent"));
}

/// inproc-paper-mix: the paper's §4 steady state (wl::SteadyStateWorkload)
/// on one InProc client: 25% Lookup, 25% Update, 50% churn alternating
/// Insert and Delete around a 10,000-entry directory, uniform keys. The
/// workload checks every lookup against its model.
class PaperMix final : public Workload {
 public:
  explicit PaperMix(std::uint64_t seed) {
    options_.target_size = 10'000;
    options_.seed = seed;
    options_.verify_against_model = true;
  }
  Wire wire() const override { return Wire::kInProc; }
  int clients() const override { return 1; }
  /// Fills through its own (InProc) client: the workload keeps the client
  /// it was built with.
  Status Fill(std::vector<Client*>& clients, Client&) override {
    wl_ = std::make_unique<wl::SteadyStateWorkload>(*clients[0], options_);
    return wl_->Fill();
  }
  Status Step(int, Client&) override { return wl_->RunOps(1); }
  chaos::Model Model() const override { return wl_->model(); }

 private:
  wl::WorkloadOptions options_;
  std::unique_ptr<wl::SteadyStateWorkload> wl_;
};

/// tcp-point-contended: 4 TCP clients, single-shot ops on 500 owned,
/// interleaved slots each, half present at start, chosen Zipfian
/// (theta 0.99) through one seeded rank->slot permutation shared by all
/// clients, so every client's hot keys neighbour the others'. Mix: 50%
/// Lookup, 25% Update (of a present slot), 25% churn (Insert if absent,
/// Delete if present).
class PointContended final : public Workload {
 public:
  static constexpr int kClients = 4;
  static constexpr std::uint64_t kSlots = 500;

  explicit PointContended(std::uint64_t seed) : perm_(kSlots) {
    Rng rng(seed);
    for (std::uint64_t s = 0; s < kSlots; ++s) perm_[s] = s;
    rng.Shuffle(perm_);
    for (int c = 0; c < kClients; ++c) {
      auto& st = state_[c];
      st.rng = std::make_unique<Rng>(ClientSeed(seed, c));
      st.zipf = std::make_unique<wl::ZipfianKeys>(kSlots, 0.99);
      st.model.assign(kSlots, std::nullopt);
    }
  }
  Wire wire() const override { return Wire::kTcp; }
  int clients() const override { return kClients; }

  Status Fill(std::vector<Client*>&, Client& direct) override {
    for (int c = 0; c < kClients; ++c) {
      auto& st = state_[c];
      std::vector<std::uint64_t> slots(kSlots);
      for (std::uint64_t s = 0; s < kSlots; ++s) slots[s] = s;
      st.rng->Shuffle(slots);
      slots.resize(kSlots / 2);
      for (const std::uint64_t s : slots) st.model[s] = MakeValue(c, st.counter);
    }
    return BatchInsert(direct, Model());
  }

  Status Step(int c, Client& client) override {
    auto& st = state_[c];
    const double roll = st.rng->NextDouble();
    std::uint64_t slot = NextSlot(st);
    if (roll < 0.5) {
      const UserKey key = SlotKey(kClients, c, slot);
      REPDIR_ASSIGN_OR_RETURN(const auto got, client.Lookup(key));
      if (got != st.model[slot]) return Mismatch(key, st.model[slot], got);
      return Status::Ok();
    }
    if (roll < 0.75) {
      while (!st.model[slot]) slot = NextSlot(st);
      const Value value = MakeValue(c, st.counter);
      REPDIR_RETURN_IF_ERROR(
          client.Update(SlotKey(kClients, c, slot), value));
      st.model[slot] = value;
      return Status::Ok();
    }
    const UserKey key = SlotKey(kClients, c, slot);
    if (st.model[slot]) {
      REPDIR_RETURN_IF_ERROR(client.Delete(key));
      st.model[slot].reset();
    } else {
      const Value value = MakeValue(c, st.counter);
      REPDIR_RETURN_IF_ERROR(client.Insert(key, value));
      st.model[slot] = value;
    }
    return Status::Ok();
  }

  chaos::Model Model() const override {
    chaos::Model m;
    for (int c = 0; c < kClients; ++c) {
      for (std::uint64_t s = 0; s < kSlots; ++s) {
        if (state_[c].model[s]) m[SlotKey(kClients, c, s)] = *state_[c].model[s];
      }
    }
    return m;
  }

 private:
  struct ClientState {
    std::unique_ptr<Rng> rng;
    std::unique_ptr<wl::ZipfianKeys> zipf;
    std::vector<std::optional<Value>> model;  ///< By slot.
    std::uint64_t counter = 0;
  };

  std::uint64_t NextSlot(ClientState& st) {
    return perm_[st.zipf->NextRank(*st.rng)];
  }

  std::vector<std::uint64_t> perm_;
  ClientState state_[kClients];
};

/// tcp-batched-bulk: 4 TCP clients in a closed loop of 16-op ExecuteBatch
/// calls over 50,000 owned slots each, half of them present (~100,000
/// entries in all). A call is 16 Lookups or 16 Updates of present keys,
/// each with probability 1/2, keys uniform.
class BatchedBulk final : public Workload {
 public:
  static constexpr int kClients = 4;
  static constexpr std::uint64_t kSlots = 50'000;
  static constexpr std::size_t kBatch = 16;

  explicit BatchedBulk(std::uint64_t seed) {
    for (int c = 0; c < kClients; ++c) {
      state_[c].rng = std::make_unique<Rng>(ClientSeed(seed, c));
    }
  }
  Wire wire() const override { return Wire::kTcp; }
  int clients() const override { return kClients; }

  Status Fill(std::vector<Client*>&, Client& direct) override {
    for (int c = 0; c < kClients; ++c) {
      auto& st = state_[c];
      std::vector<std::uint64_t> slots(kSlots);
      for (std::uint64_t s = 0; s < kSlots; ++s) slots[s] = s;
      st.rng->Shuffle(slots);
      slots.resize(kSlots / 2);
      for (const std::uint64_t s : slots) {
        st.keys.push_back(SlotKey(kClients, c, s));
        st.values.push_back(MakeValue(c, st.counter));
      }
    }
    return BatchInsert(direct, Model());
  }

  Status Step(int c, Client& client) override {
    auto& st = state_[c];
    const bool reads = st.rng->Chance(0.5);
    std::vector<rep::DirectorySuite::BatchOp> ops(kBatch);
    std::vector<std::size_t> idx(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      idx[i] = st.rng->Index(st.keys.size());
      ops[i].key = st.keys[idx[i]];
      if (!reads) {
        ops[i].kind = rep::DirectorySuite::BatchOp::Kind::kUpdate;
        ops[i].value = MakeValue(c, st.counter);
      }
    }
    const auto r = client.Batch(ops);
    REPDIR_RETURN_IF_ERROR(r.status);
    for (std::size_t i = 0; i < kBatch; ++i) {
      REPDIR_RETURN_IF_ERROR(r.ops[i].status);
      if (reads) {
        if (!r.ops[i].lookup.found ||
            r.ops[i].lookup.value != st.values[idx[i]]) {
          return Mismatch(ops[i].key, st.values[idx[i]],
                          r.ops[i].lookup.found
                              ? std::optional<Value>(r.ops[i].lookup.value)
                              : std::nullopt);
        }
      } else {
        st.values[idx[i]] = ops[i].value;
      }
    }
    return Status::Ok();
  }

  chaos::Model Model() const override {
    chaos::Model m;
    for (int c = 0; c < kClients; ++c) {
      for (std::size_t i = 0; i < state_[c].keys.size(); ++i) {
        m[state_[c].keys[i]] = state_[c].values[i];
      }
    }
    return m;
  }

 private:
  struct ClientState {
    std::unique_ptr<Rng> rng;
    std::vector<UserKey> keys;   ///< Present keys, fixed for the run.
    std::vector<Value> values;   ///< The model: values[i] of keys[i].
    std::uint64_t counter = 0;
  };
  ClientState state_[kClients];
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "inproc-paper-mix", "tcp-point-contended", "tcp-batched-bulk"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "inproc-paper-mix") return std::make_unique<PaperMix>(seed);
  if (name == "tcp-point-contended") {
    return std::make_unique<PointContended>(seed);
  }
  if (name == "tcp-batched-bulk") return std::make_unique<BatchedBulk>(seed);
  return nullptr;
}

}  // namespace perfbench
