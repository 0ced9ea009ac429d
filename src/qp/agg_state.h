// Mergeable aggregate state, shared by GroupBy and the hierarchical
// aggregation operator.
//
// PIER's in-network aggregation works for distributive and algebraic
// functions, where constant-size state merges associatively (§3.3.4). The
// state here covers COUNT, SUM, MIN, MAX and AVG (algebraic: SUM + COUNT).
// Holistic aggregates are intentionally absent, as in the paper.

#ifndef PIER_QP_AGG_STATE_H_
#define PIER_QP_AGG_STATE_H_

#include <map>
#include <string>
#include <vector>

#include "data/tuple.h"
#include "data/tuple_batch.h"
#include "data/value.h"
#include "util/status.h"
#include "util/wire.h"

namespace pier {

enum class AggFunc : uint8_t { kCount = 1, kSum, kMin, kMax, kAvg };

const char* AggFuncName(AggFunc f);

/// One aggregate in a GROUP BY list: a function, an input column (empty for
/// COUNT(*)) and an output alias.
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  std::string col;
  std::string alias;
};

/// Parse "count::cnt,sum:bytes:total,max:sev:worst" (func:col:alias, comma
/// separated; col may be empty for COUNT(*)).
Result<std::vector<AggSpec>> ParseAggSpecs(const std::string& text);

/// Render back to the ParseAggSpecs format.
std::string FormatAggSpecs(const std::vector<AggSpec>& specs);

/// Constant-size mergeable state covering all supported functions at once.
class AggState {
 public:
  /// Fold one input tuple in (skips tuples lacking the column: best-effort).
  void Update(const AggSpec& spec, const Tuple& t);

  /// Value-level fold for batch rows: the caller resolved the column
  /// (`present` = the row has it). Identical semantics to Update.
  void UpdateValue(const AggSpec& spec, const Value& v, bool present);

  /// Merge another partial state (associative, commutative).
  void Merge(const AggState& other);

  /// The final value for a function.
  Value Finalize(AggFunc func) const;

  int64_t count() const { return count_; }

  // --- Partial-state transport -------------------------------------------------

  /// Append this state to `out` as columns "<alias>#n", "<alias>#s",
  /// "<alias>#mn", "<alias>#mx" (the mode=partial wire format).
  void ToPartialColumns(const std::string& alias, Tuple* out) const;

  /// Rebuild from the values of the four partial columns (in the order
  /// ToPartialColumns writes them); false if the count is not an integer.
  bool FromPartialValues(const Value& n, const Value& s, const Value& mn,
                         const Value& mx);

  void EncodeTo(WireWriter* w) const;
  static Result<AggState> DecodeFrom(WireReader* r);

 private:
  int64_t count_ = 0;
  Value sum_;  // null until first numeric input; int64 or double after
  Value min_;
  Value max_;
};

/// One group of a hash aggregation: the group-key tuple (the key columns
/// under the input's table name) and one state per aggregate.
struct AggGroup {
  Tuple key;
  std::vector<AggState> states;
};

/// Groups by canonical group-key string. Ordered, so groups are emitted in
/// the same order on every run.
using AggGroups = std::map<std::string, AggGroup>;

/// Fold every row of `batch` into `groups`. A batch whose schema lacks a key
/// column is discarded whole (best effort: every row lacks it). With
/// `merge_partials` (GroupBy mode=final), each aggregate merges the partial
/// state a row carries in its "<alias>#n/#s/#mn/#mx" columns instead of
/// folding an input column; an aggregate whose partial columns the schema
/// lacks is skipped.
void FoldBatch(const TupleBatch& batch, const std::vector<std::string>& keys,
               const std::vector<AggSpec>& aggs, bool merge_partials,
               AggGroups* groups);

}  // namespace pier

#endif  // PIER_QP_AGG_STATE_H_
