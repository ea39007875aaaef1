// Exact order statistics over raw samples, and the op records every client
// keeps while it is timed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace perfbench {

using namespace repdir;

/// Monotonic nanoseconds; every span and op record uses this one clock.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Raw samples of one quantity. Percentiles are exact (nearest rank over
/// the sorted samples), never bucketed.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  std::size_t count() const { return values_.size(); }

  /// Nearest-rank percentile, q in (0, 1]; 0 when there are no samples.
  double Percentile(double q) {
    if (values_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    const double rank = std::ceil(q * static_cast<double>(values_.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values_[std::min(idx, values_.size() - 1)];
  }

  double Sum() const {
    double s = 0;
    for (const double v : values_) s += v;
    return s;
  }
  double Mean() const {
    return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
  }

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

/// What a client call was. Reads are single-shot Lookups and read-only
/// batches; every other call writes.
enum class OpKind : std::uint8_t {
  kLookup,
  kUpdate,
  kInsert,
  kDelete,
  kReadBatch,
  kWriteBatch,
};
inline constexpr int kOpKinds = 6;

inline const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kLookup: return "lookup";
    case OpKind::kUpdate: return "update";
    case OpKind::kInsert: return "insert";
    case OpKind::kDelete: return "delete";
    case OpKind::kReadBatch: return "read_batch";
    case OpKind::kWriteBatch: return "write_batch";
  }
  return "?";
}

inline bool IsRead(OpKind k) {
  return k == OpKind::kLookup || k == OpKind::kReadBatch;
}

/// One client call, retries included: the op span of the traced run and
/// the latency sample of the untraced one.
struct OpRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  OpKind kind = OpKind::kLookup;
  std::uint16_t attempts = 1;  ///< 1 + aborted/unavailable attempts.
  std::uint16_t ops = 1;       ///< Directory ops carried (batch size).
  bool ok = true;              ///< Final attempt succeeded.
};

}  // namespace perfbench
