#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <tuple>

namespace pier {

namespace {

// Prometheus label values escape backslash, double-quote and newline.
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

MetricLabels Canonical(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// The first family whose name is not less than `name` (the table is sorted).
template <typename Families>
auto LowerBound(Families& families, const std::string& name) {
  return std::lower_bound(
      families.begin(), families.end(), name,
      [](const auto& f, const std::string& n) { return f.info->name < n; });
}

const char* KindName(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string RenderLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += EscapeLabelValue(v);
    out += "\"";
  }
  out += "}";
  return out;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::Observe(double v) {
  size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), v) -
             bounds_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t old = sum_bits_.load(std::memory_order_relaxed);
  double cur;
  uint64_t next;
  do {
    __builtin_memcpy(&cur, &old, sizeof(cur));
    cur += v;
    __builtin_memcpy(&next, &cur, sizeof(next));
  } while (!sum_bits_.compare_exchange_weak(old, next,
                                            std::memory_order_relaxed));
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::sum() const {
  uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double v;
  __builtin_memcpy(&v, &bits, sizeof(v));
  return v;
}

// Process-wide interning of family names and help text: every node's
// registry registers the same ~54 families, so each (name, kind, help) is
// stored once and registries keep a pointer. Label values are never interned;
// they are unbounded (qids). Leaked on purpose: a registry destroyed during
// static destruction must still find its names.
class MetricsRegistry::NamePool {
 public:
  static NamePool& Get() {
    static NamePool* pool = new NamePool;
    return *pool;
  }

  const FamilyInfo* Intern(const std::string& name, const std::string& help,
                           MetricKind kind) {
    MutexLock lock(mu_);
    auto it = infos_.find(std::tie(name, kind, help));
    if (it == infos_.end()) {
      it = infos_.insert(FamilyInfo{name, help, kind}).first;
    }
    return &*it;
  }

 private:
  using Key = std::tuple<const std::string&, const MetricKind&,
                         const std::string&>;
  static Key KeyOf(const FamilyInfo& f) {
    return std::tie(f.name, f.kind, f.help);
  }
  struct Less {
    using is_transparent = void;
    bool operator()(const FamilyInfo& a, const FamilyInfo& b) const {
      return KeyOf(a) < KeyOf(b);
    }
    bool operator()(const FamilyInfo& a, const Key& b) const {
      return KeyOf(a) < b;
    }
    bool operator()(const Key& a, const FamilyInfo& b) const {
      return a < KeyOf(b);
    }
  };

  Mutex mu_;
  std::set<FamilyInfo, Less> infos_ PIER_GUARDED_BY(mu_);
};

MetricsRegistry::Family* MetricsRegistry::Find(const std::string& name) {
  auto it = LowerBound(families_, name);
  return it != families_.end() && it->info->name == name ? &*it : nullptr;
}

const MetricsRegistry::Family* MetricsRegistry::Find(
    const std::string& name) const {
  auto it = LowerBound(families_, name);
  return it != families_.end() && it->info->name == name ? &*it : nullptr;
}

MetricsRegistry::Family* MetricsRegistry::FindOrAddFamily(
    const std::string& name, MetricKind kind, const std::string& help) {
  auto it = LowerBound(families_, name);
  if (it != families_.end() && it->info->name == name) {
    return it->info->kind == kind ? &*it : nullptr;  // mismatch: a sink
  }
  it = families_.insert(
      it, Family{NamePool::Get().Intern(name, help, kind), nullptr, nullptr});
  return &*it;
}

bool MetricsRegistry::HasRoom(const Family& fam) {
  size_t n = (fam.inline_fn ? 1 : 0) + (fam.more ? fam.more->size() : 0);
  if (n < max_series_per_family_) return true;
  dropped_series_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

MetricsRegistry::Series* MetricsRegistry::FindOrAddSeries(
    const std::string& name, MetricKind kind, const MetricLabels& labels,
    const std::string& help, bool* created) {
  *created = false;
  Family* fam = FindOrAddFamily(name, kind, help);
  if (fam == nullptr) return nullptr;
  MetricLabels key = Canonical(labels);
  if (key.empty() && fam->inline_fn) return nullptr;
  if (fam->more) {
    for (Series& s : *fam->more) {
      if (!s.retired && s.labels == key) return &s;
    }
  }
  if (!HasRoom(*fam)) return nullptr;
  if (!fam->more) fam->more = std::make_unique<std::vector<Series>>();
  fam->more->emplace_back();
  Series& s = fam->more->back();
  s.labels = std::move(key);
  *created = true;
  return &s;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels,
                                     const std::string& help) {
  MutexLock lock(mu_);
  bool created = false;
  Series* s =
      FindOrAddSeries(name, MetricKind::kCounter, labels, help, &created);
  if (s == nullptr) return &sink_counter_;
  if (created) s->counter = std::make_unique<Counter>();
  if (!s->counter) return &sink_counter_;  // name exists as a callback series
  return s->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const MetricLabels& labels,
                                 const std::string& help) {
  MutexLock lock(mu_);
  bool created = false;
  Series* s = FindOrAddSeries(name, MetricKind::kGauge, labels, help, &created);
  if (s == nullptr) return &sink_gauge_;
  if (created) s->gauge = std::make_unique<Gauge>();
  if (!s->gauge) return &sink_gauge_;
  return s->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         const MetricLabels& labels,
                                         const std::string& help) {
  static Histogram sink_histogram({});  // shared no-op target
  MutexLock lock(mu_);
  bool created = false;
  Series* s =
      FindOrAddSeries(name, MetricKind::kHistogram, labels, help, &created);
  if (s == nullptr) return &sink_histogram;
  if (created) s->histogram = std::make_unique<Histogram>(std::move(bounds));
  if (!s->histogram) return &sink_histogram;
  return s->histogram.get();
}

void MetricsRegistry::AddFn(const std::string& name, MetricKind kind,
                            const MetricLabels& labels, ValueFn fn,
                            const std::string& help) {
  MutexLock lock(mu_);
  if (labels.empty()) {
    Family* fam = FindOrAddFamily(name, kind, help);
    if (fam == nullptr) return;
    if (fam->inline_fn) {
      // Re-registration replaces the callback. An empty one reads 0, as a
      // series with neither callback nor instrument does.
      fam->inline_fn = fn ? std::move(fn) : ValueFn([] { return 0.0; });
      return;
    }
    if (!fam->more && fn) {  // the family's first series: stored inline
      if (HasRoom(*fam)) fam->inline_fn = std::move(fn);
      return;
    }
  }
  bool created = false;
  Series* s = FindOrAddSeries(name, kind, labels, help, &created);
  if (s != nullptr) s->fn = std::move(fn);
}

void MetricsRegistry::AddCounterFn(const std::string& name,
                                   const MetricLabels& labels, ValueFn fn,
                                   const std::string& help) {
  AddFn(name, MetricKind::kCounter, labels, std::move(fn), help);
}

void MetricsRegistry::AddGaugeFn(const std::string& name,
                                 const MetricLabels& labels, ValueFn fn,
                                 const std::string& help) {
  AddFn(name, MetricKind::kGauge, labels, std::move(fn), help);
}

bool MetricsRegistry::Remove(const std::string& name,
                             const MetricLabels& labels) {
  MutexLock lock(mu_);
  Family* fam = Find(name);
  if (fam == nullptr) return false;
  MetricLabels key = Canonical(labels);
  if (key.empty() && fam->inline_fn) {
    fam->inline_fn = nullptr;
    if (!fam->more) fam->more = std::make_unique<std::vector<Series>>();
    fam->more->emplace_back();
    fam->more->back().retired = true;
    return true;
  }
  if (!fam->more) return false;
  for (Series& s : *fam->more) {
    if (!s.retired && s.labels == key) {
      s.retired = true;
      s.fn = nullptr;
      return true;
    }
  }
  return false;
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::vector<MetricSample> out;
  MutexLock lock(mu_);
  if (dropped_series_.load(std::memory_order_relaxed) > 0) {
    MetricSample drop;
    drop.name = "pier_metrics_dropped_series_total";
    drop.kind = MetricKind::kCounter;
    drop.value =
        static_cast<double>(dropped_series_.load(std::memory_order_relaxed));
    out.push_back(std::move(drop));
  }
  for (const Family& fam : families_) {
    if (fam.inline_fn) {
      MetricSample sample;
      sample.name = fam.info->name;
      sample.kind = fam.info->kind;
      sample.value = fam.inline_fn();
      out.push_back(std::move(sample));
    }
    if (!fam.more) continue;
    for (const Series& s : *fam.more) {
      if (s.retired) continue;
      MetricSample sample;
      sample.name = fam.info->name;
      sample.labels = s.labels;
      sample.kind = fam.info->kind;
      if (s.fn) {
        sample.value = s.fn();
      } else if (s.counter) {
        sample.value = static_cast<double>(s.counter->value());
      } else if (s.gauge) {
        sample.value = s.gauge->value();
      } else if (s.histogram) {
        // Read count first: a concurrent Observe between the bucket loads
        // can only make buckets >= count, never lose an observed event.
        sample.count = s.histogram->count();
        sample.sum = s.histogram->sum();
        const auto& bounds = s.histogram->bounds();
        std::vector<uint64_t> counts = s.histogram->bucket_counts();
        uint64_t cum = 0;
        for (size_t i = 0; i < bounds.size(); ++i) {
          cum += counts[i];
          sample.buckets.emplace_back(bounds[i], cum);
        }
        cum += counts[bounds.size()];
        sample.buckets.emplace_back(
            std::numeric_limits<double>::infinity(), cum);
        sample.value = static_cast<double>(sample.count);
      }
      out.push_back(std::move(sample));
    }
  }
  return out;
}

std::string MetricsRegistry::RenderText() const {
  std::vector<MetricSample> samples = Snapshot();
  std::string out;
  out.reserve(samples.size() * 64);
  std::string last_family;
  // Snapshot() walks the name-sorted family table, so samples arrive grouped
  // by family (the synthetic dropped-series counter leads and is its own).
  MutexLock lock(mu_);
  for (const MetricSample& s : samples) {
    if (s.name != last_family) {
      last_family = s.name;
      const Family* fam = Find(s.name);
      const std::string* help = fam != nullptr && !fam->info->help.empty()
                                    ? &fam->info->help
                                    : nullptr;
      if (help != nullptr) {
        out += "# HELP ";
        out += s.name;
        out += " ";
        out += *help;
        out += "\n";
      }
      out += "# TYPE ";
      out += s.name;
      out += " ";
      out += KindName(s.kind);
      out += "\n";
    }
    if (s.kind == MetricKind::kHistogram) {
      for (const auto& [le, cum] : s.buckets) {
        MetricLabels bl = s.labels;
        bl.emplace_back("le", FormatDouble(le));
        out += s.name;
        out += "_bucket";
        out += RenderLabels(bl);
        out += " ";
        out += FormatDouble(static_cast<double>(cum));
        out += "\n";
      }
      out += s.name;
      out += "_sum";
      out += RenderLabels(s.labels);
      out += " ";
      out += FormatDouble(s.sum);
      out += "\n";
      out += s.name;
      out += "_count";
      out += RenderLabels(s.labels);
      out += " ";
      out += FormatDouble(static_cast<double>(s.count));
      out += "\n";
    } else {
      out += s.name;
      out += RenderLabels(s.labels);
      out += " ";
      out += FormatDouble(s.value);
      out += "\n";
    }
  }
  return out;
}

size_t MetricsRegistry::num_families() const {
  MutexLock lock(mu_);
  return families_.size();
}

size_t MetricsRegistry::num_series(const std::string& name) const {
  MutexLock lock(mu_);
  const Family* fam = Find(name);
  if (fam == nullptr) return 0;
  size_t n = fam->inline_fn ? 1 : 0;
  if (fam->more) {
    for (const Series& s : *fam->more) {
      if (!s.retired) ++n;
    }
  }
  return n;
}

}  // namespace pier
