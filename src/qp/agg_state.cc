#include "qp/agg_state.h"

#include <algorithm>
#include <array>

namespace pier {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount: return "count";
    case AggFunc::kSum: return "sum";
    case AggFunc::kMin: return "min";
    case AggFunc::kMax: return "max";
    case AggFunc::kAvg: return "avg";
  }
  return "?";
}

Result<std::vector<AggSpec>> ParseAggSpecs(const std::string& text) {
  std::vector<AggSpec> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i != text.size() && text[i] != ',') continue;
    std::string part = text.substr(start, i - start);
    start = i + 1;
    if (part.empty()) continue;
    size_t c1 = part.find(':');
    size_t c2 = c1 == std::string::npos ? std::string::npos
                                        : part.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos)
      return Status::InvalidArgument("bad agg spec '" + part + "'");
    AggSpec spec;
    std::string func = part.substr(0, c1);
    spec.col = part.substr(c1 + 1, c2 - c1 - 1);
    spec.alias = part.substr(c2 + 1);
    if (spec.alias.empty())
      return Status::InvalidArgument("agg spec needs alias: '" + part + "'");
    if (func == "count") {
      spec.func = AggFunc::kCount;
    } else if (func == "sum") {
      spec.func = AggFunc::kSum;
    } else if (func == "min") {
      spec.func = AggFunc::kMin;
    } else if (func == "max") {
      spec.func = AggFunc::kMax;
    } else if (func == "avg") {
      spec.func = AggFunc::kAvg;
    } else {
      return Status::InvalidArgument("unknown aggregate '" + func + "'");
    }
    if (spec.func != AggFunc::kCount && spec.col.empty())
      return Status::InvalidArgument(func + " needs a column");
    out.push_back(std::move(spec));
  }
  return out;
}

std::string FormatAggSpecs(const std::vector<AggSpec>& specs) {
  std::string s;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) s.push_back(',');
    s += AggFuncName(specs[i].func);
    s.push_back(':');
    s += specs[i].col;
    s.push_back(':');
    s += specs[i].alias;
  }
  return s;
}

namespace {

/// Numeric add with int64 preservation (int64+int64 stays int64).
Value AddValues(const Value& a, const Value& b) {
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64)
    return Value::Int64(a.int64_unchecked() + b.int64_unchecked());
  Result<double> x = a.AsDouble(), y = b.AsDouble();
  if (!x.ok() || !y.ok()) return a;  // non-numeric: keep what we had
  return Value::Double(*x + *y);
}

void TrackMin(Value* min, const Value& v) {
  if (min->is_null()) {
    *min = v;
    return;
  }
  Result<int> c = Value::Compare(v, *min);
  if (c.ok() && *c < 0) *min = v;
}

void TrackMax(Value* max, const Value& v) {
  if (max->is_null()) {
    *max = v;
    return;
  }
  Result<int> c = Value::Compare(v, *max);
  if (c.ok() && *c > 0) *max = v;
}

}  // namespace

void AggState::Update(const AggSpec& spec, const Tuple& t) {
  const Value* v = spec.col.empty() ? nullptr : t.Get(spec.col);
  UpdateValue(spec, v != nullptr ? *v : Value::Null(), v != nullptr);
}

void AggState::UpdateValue(const AggSpec& spec, const Value& v, bool present) {
  if (spec.col.empty()) {  // COUNT(*)
    count_++;
    return;
  }
  if (!present || v.is_null()) return;  // best-effort skip
  count_++;
  if (v.is_numeric()) sum_ = AddValues(sum_, v);
  TrackMin(&min_, v);
  TrackMax(&max_, v);
}

void AggState::Merge(const AggState& other) {
  count_ += other.count_;
  sum_ = AddValues(sum_, other.sum_);
  if (!other.min_.is_null()) TrackMin(&min_, other.min_);
  if (!other.max_.is_null()) TrackMax(&max_, other.max_);
}

Value AggState::Finalize(AggFunc func) const {
  switch (func) {
    case AggFunc::kCount:
      return Value::Int64(count_);
    case AggFunc::kSum:
      return sum_;
    case AggFunc::kMin:
      return min_;
    case AggFunc::kMax:
      return max_;
    case AggFunc::kAvg: {
      if (count_ == 0 || sum_.is_null()) return Value::Null();
      Result<double> s = sum_.AsDouble();
      if (!s.ok()) return Value::Null();
      return Value::Double(*s / static_cast<double>(count_));
    }
  }
  return Value::Null();
}

void AggState::ToPartialColumns(const std::string& alias, Tuple* out) const {
  out->Append(alias + "#n", Value::Int64(count_));
  out->Append(alias + "#s", sum_);
  out->Append(alias + "#mn", min_);
  out->Append(alias + "#mx", max_);
}

bool AggState::FromPartialValues(const Value& n, const Value& s,
                                 const Value& mn, const Value& mx) {
  Result<int64_t> c = n.AsInt64();
  if (!c.ok()) return false;
  count_ = *c;
  sum_ = s;
  min_ = mn;
  max_ = mx;
  return true;
}

void AggState::EncodeTo(WireWriter* w) const {
  w->PutI64(count_);
  sum_.EncodeTo(w);
  min_.EncodeTo(w);
  max_.EncodeTo(w);
}

Result<AggState> AggState::DecodeFrom(WireReader* r) {
  AggState s;
  PIER_RETURN_IF_ERROR(r->GetI64(&s.count_));
  PIER_ASSIGN_OR_RETURN(s.sum_, Value::DecodeFrom(r));
  PIER_ASSIGN_OR_RETURN(s.min_, Value::DecodeFrom(r));
  PIER_ASSIGN_OR_RETURN(s.max_, Value::DecodeFrom(r));
  return s;
}

void FoldBatch(const TupleBatch& batch, const std::vector<std::string>& keys,
               const std::vector<AggSpec>& aggs, bool merge_partials,
               AggGroups* groups) {
  const BatchSchema& in = *batch.schema();
  // Resolve key and aggregate columns once per batch.
  std::vector<int> key_idx(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    key_idx[i] = in.Index(keys[i]);
    if (key_idx[i] < 0) return;
  }
  // Per aggregate: its input column, or its four partial-state columns.
  std::vector<std::array<int, 4>> agg_idx(aggs.size());
  for (size_t i = 0; i < aggs.size(); ++i) {
    const std::string& a = aggs[i].alias;
    if (merge_partials) {
      agg_idx[i] = {in.Index(a + "#n"), in.Index(a + "#s"),
                    in.Index(a + "#mn"), in.Index(a + "#mx")};
    } else {
      agg_idx[i][0] = aggs[i].col.empty() ? -1 : in.Index(aggs[i].col);
    }
  }
  auto at = [&batch](size_t row, int col) {
    return batch.ValueAt(row, static_cast<size_t>(col));
  };
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    // RowPartitionKey over the (all-present) keys is the canonical-string
    // group key.
    AggGroup& g = (*groups)[batch.RowPartitionKey(r, keys)];
    if (g.states.empty()) {
      Tuple kt(in.table);
      for (size_t i = 0; i < keys.size(); ++i) {
        kt.Append(keys[i], at(r, key_idx[i]));
      }
      g.key = std::move(kt);
      g.states.resize(aggs.size());
    }
    for (size_t i = 0; i < aggs.size(); ++i) {
      const std::array<int, 4>& idx = agg_idx[i];
      if (!merge_partials) {
        const bool present = idx[0] >= 0;
        g.states[i].UpdateValue(
            aggs[i], present ? at(r, idx[0]) : Value::Null(), present);
        continue;
      }
      if (*std::min_element(idx.begin(), idx.end()) < 0) continue;
      AggState incoming;
      if (incoming.FromPartialValues(at(r, idx[0]), at(r, idx[1]),
                                     at(r, idx[2]), at(r, idx[3]))) {
        g.states[i].Merge(incoming);
      }
    }
  }
}

}  // namespace pier
