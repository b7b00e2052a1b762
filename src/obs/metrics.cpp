#include "obs/metrics.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <new>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace fluxpower::obs {

namespace {

/// Render a double the way Prometheus text exposition expects: integral
/// values without a fractional part ("42"), everything else with enough
/// digits to round-trip visually ("0.0625"). %.9g keeps sim-time-derived
/// values byte-stable without trailing-zero noise.
void append_number(std::string& out, double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out += buf;
}

const char* kind_name(int kind) {
  switch (kind) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}

/// Process-wide intern table for instrument names and help texts. Every
/// broker registers the same few dozen strings, so each is stored once here
/// and registries keep pointers to it. The table is immortal (never
/// destroyed), so those pointers outlive every registry, static ones
/// included; it is mutex-guarded because sharded-engine and twin-server
/// workers build registries concurrently. Only registration touches it.
class InternTable {
 public:
  std::pair<const std::string*, const std::string*> intern(
      std::string_view name, std::string_view help) {
    std::lock_guard<std::mutex> lock(mu_);
    return {intern_locked(name), intern_locked(help)};
  }

 private:
  const std::string* intern_locked(std::string_view s) {
    auto it = strings_.find(s);
    if (it == strings_.end()) it = strings_.emplace(s).first;
    return &*it;
  }

  std::mutex mu_;
  std::set<std::string, std::less<>> strings_;
};

InternTable& intern_table() {
  static InternTable* const table = new InternTable;
  return *table;
}

std::logic_error kind_mismatch(std::string_view name) {
  return std::logic_error("MetricsRegistry: metric '" + std::string(name) +
                          "' re-registered with a different kind");
}

}  // namespace

static_assert(sizeof(Counter) <= 8 && alignof(Counter) <= 8);
static_assert(sizeof(Gauge) <= 8 && alignof(Gauge) <= 8);
static_assert(std::is_trivially_destructible_v<Counter> &&
              std::is_trivially_destructible_v<Gauge>);

Histogram::Histogram(std::span<const double> bounds) {
  if (bounds.size() > kMaxBuckets) {
    throw std::invalid_argument("Histogram: too many buckets");
  }
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (i > 0 && !(bounds[i] > bounds[i - 1])) {
      throw std::invalid_argument("Histogram: bounds must be ascending");
    }
    bounds_[i] = bounds[i];
  }
  nbounds_ = bounds.size();
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= nbounds_; ++i) counts_[i] = 0;
  count_ = 0;
  sum_ = 0.0;
}

MetricsRegistry::~MetricsRegistry() {
  for (const Entry& e : entries_) {
    if (e.kind == Kind::Histogram) delete &e.histogram();
  }
}

const MetricsRegistry::Entry* MetricsRegistry::find(
    std::string_view name) const noexcept {
  for (const Entry& e : entries_) {
    if (*e.name == name) return &e;
  }
  return nullptr;
}

const MetricsRegistry::Entry* MetricsRegistry::find_kind(
    std::string_view name, Kind kind) const {
  const Entry* e = find(name);
  if (e != nullptr && e->kind != kind) throw kind_mismatch(name);
  return e;
}

void MetricsRegistry::add(std::string_view name, std::string_view help,
                          Kind kind, void* cell) {
  const auto [n, h] = intern_table().intern(name, help);
  entries_.push_back({n, h, kind, cell});
}

MetricsRegistry::Cell* MetricsRegistry::new_cell() {
  if (front_used_ == kCellsPerChunk) {
    cells_.emplace_front();
    front_used_ = 0;
  }
  return &cells_.front()[front_used_++];
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  if (const Entry* e = find_kind(name, Kind::Counter)) return e->counter();
  Counter* c = new (new_cell()) Counter;
  add(name, help, Kind::Counter, c);
  return *c;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  if (const Entry* e = find_kind(name, Kind::Gauge)) return e->gauge();
  Gauge* g = new (new_cell()) Gauge;
  add(name, help, Kind::Gauge, g);
  return *g;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      std::span<const double> bounds) {
  if (const Entry* e = find_kind(name, Kind::Histogram)) return e->histogram();
  auto h = std::make_unique<Histogram>(bounds);
  add(name, help, Kind::Histogram, h.get());
  return *h.release();
}

std::optional<double> MetricsRegistry::value(std::string_view name) const {
  const Entry* e = find(name);
  if (e == nullptr) return std::nullopt;
  switch (e->kind) {
    case Kind::Counter:
      return static_cast<double>(e->counter().value());
    case Kind::Gauge:
      return e->gauge().value();
    case Kind::Histogram:
      return std::nullopt;
  }
  return std::nullopt;
}

std::string MetricsRegistry::expose_text(const std::string& labels) const {
  std::string out;
  out.reserve(entries_.size() * 96);
  const std::string plain = labels.empty() ? "" : "{" + labels + "}";
  for (const Entry& e : entries_) {
    const std::string& name = *e.name;
    out += "# HELP ";
    out += name;
    out += ' ';
    out += *e.help;
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    out += kind_name(static_cast<int>(e.kind));
    out += '\n';
    switch (e.kind) {
      case Kind::Counter: {
        out += name;
        out += plain;
        out += ' ';
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, e.counter().value());
        out += buf;
        out += '\n';
        break;
      }
      case Kind::Gauge: {
        out += name;
        out += plain;
        out += ' ';
        append_number(out, e.gauge().value());
        out += '\n';
        break;
      }
      case Kind::Histogram: {
        const Histogram& h = e.histogram();
        // Cumulative _bucket series, then _sum and _count, per the
        // Prometheus text format.
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i <= h.bucket_count(); ++i) {
          cum += h.count_in(i);
          out += name;
          out += "_bucket{";
          if (!labels.empty()) {
            out += labels;
            out += ',';
          }
          out += "le=\"";
          if (i < h.bucket_count()) {
            append_number(out, h.bound(i));
          } else {
            out += "+Inf";
          }
          out += "\"} ";
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%" PRIu64, cum);
          out += buf;
          out += '\n';
        }
        out += name;
        out += "_sum";
        out += plain;
        out += ' ';
        append_number(out, h.sum());
        out += '\n';
        out += name;
        out += "_count";
        out += plain;
        out += ' ';
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, h.count());
        out += buf;
        out += '\n';
        break;
      }
    }
  }
  return out;
}

util::Json MetricsRegistry::to_json() const {
  util::Json arr = util::Json::array();
  for (const Entry& e : entries_) {
    const std::string& name = *e.name;
    util::Json obj = util::Json::object();
    obj["name"] = name;
    obj["type"] = kind_name(static_cast<int>(e.kind));
    obj["help"] = *e.help;
    switch (e.kind) {
      case Kind::Counter:
        obj["value"] = e.counter().value();
        break;
      case Kind::Gauge:
        obj["value"] = e.gauge().value();
        break;
      case Kind::Histogram: {
        const Histogram& h = e.histogram();
        util::Json bounds = util::Json::array();
        util::Json counts = util::Json::array();
        for (std::size_t i = 0; i < h.bucket_count(); ++i) {
          bounds.push_back(h.bound(i));
        }
        for (std::size_t i = 0; i <= h.bucket_count(); ++i) {
          counts.push_back(h.count_in(i));
        }
        obj["bounds"] = std::move(bounds);
        obj["counts"] = std::move(counts);
        obj["sum"] = h.sum();
        obj["count"] = h.count();
        break;
      }
    }
    arr.push_back(std::move(obj));
  }
  return arr;
}

void MetricsRegistry::merge_json(const util::Json& metrics_array) {
  for (const util::Json& obj : metrics_array.as_array()) {
    const std::string& name = obj.at("name").as_string();
    const std::string& type = obj.at("type").as_string();
    const std::string help = obj.string_or("help", "");
    if (type == "counter") {
      counter(name, help).inc(
          static_cast<std::uint64_t>(obj.at("value").as_int()));
    } else if (type == "gauge") {
      gauge(name, help).add(obj.at("value").as_double());
    } else if (type == "histogram") {
      const util::JsonArray& bounds = obj.at("bounds").as_array();
      const util::JsonArray& counts = obj.at("counts").as_array();
      std::vector<double> bvec;
      bvec.reserve(bounds.size());
      for (const util::Json& b : bounds) bvec.push_back(b.as_double());
      Histogram& h = histogram(name, help, bvec);
      if (h.bucket_count() != bvec.size()) {
        throw std::logic_error("MetricsRegistry::merge_json: histogram '" +
                               name + "' bucket-count mismatch");
      }
      for (std::size_t i = 0; i < bvec.size(); ++i) {
        if (h.bound(i) != bvec[i]) {
          throw std::logic_error("MetricsRegistry::merge_json: histogram '" +
                                 name + "' bound mismatch");
        }
      }
      if (counts.size() != bvec.size() + 1) {
        throw std::logic_error("MetricsRegistry::merge_json: histogram '" +
                               name + "' counts length mismatch");
      }
      for (std::size_t i = 0; i < counts.size(); ++i) {
        h.counts_[i] += static_cast<std::uint64_t>(counts[i].as_int());
      }
      h.count_ += static_cast<std::uint64_t>(obj.at("count").as_int());
      h.sum_ += obj.at("sum").as_double();
    } else {
      throw std::logic_error("MetricsRegistry::merge_json: unknown type '" +
                             type + "'");
    }
  }
}

MetricsRegistry& process_registry() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace fluxpower::obs
