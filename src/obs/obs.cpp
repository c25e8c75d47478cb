#include "obs/obs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/manifest.h"
#include "obs/window.h"

namespace dcl::obs {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Relaxed CAS-max over an atomic<double>.
void atomic_max(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x > cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x < cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_add(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Gauge::set(double x) {
  v_.store(x, std::memory_order_relaxed);
  atomic_max(max_, x);
}

void Gauge::update_max(double x) {
  atomic_max(v_, x);
  atomic_max(max_, x);
}

void Gauge::reset() {
  v_.store(0.0, std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::size_t Histogram::bucket_index(double x) {
  std::size_t idx = 0;
  if (x > kBase) {
    const double octaves = std::log2(x / kBase);
    idx = std::min(kBuckets - 1,
                   static_cast<std::size_t>(std::max(0.0, octaves)) + 1);
  }
  return idx;
}

void Histogram::record(double x) { record(x, bucket_index(x)); }

void Histogram::record(double x, std::size_t idx) {
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t prev = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
  if (prev == 0) {
    // First sample seeds min/max; racing first samples still converge
    // because both CAS loops run afterwards.
    min_.store(x, std::memory_order_relaxed);
    max_.store(x, std::memory_order_relaxed);
  }
  atomic_min(min_, x);
  atomic_max(max_, x);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double Histogram::min() const {
  return count() ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const {
  return count() ? max_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::bucket_upper(std::size_t i) {
  if (i == 0) return kBase;
  return kBase * std::pow(2.0, static_cast<double>(i));
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += bucket_count(i);
    if (static_cast<double>(seen) >= target && seen > 0) {
      // The bucket only bounds the quantile to an octave; reporting its
      // upper edge biases every quantile high by up to 2x. The log-midpoint
      // (geometric mean of the bucket edges, = upper / sqrt(2)) halves the
      // worst-case error, and clamping to the observed [min, max] keeps
      // degenerate single-value histograms near-exact.
      const double mid = bucket_upper(i) / std::sqrt(2.0);
      return std::clamp(mid, min(), max());
    }
  }
  return max();
}

Registry::Registry() = default;
Registry::~Registry() = default;

Counter& Registry::counter_locked(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Histogram& Registry::histogram_locked(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  return *it->second;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counter_locked(name);
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return histogram_locked(name);
}

window::WindowedCounter& Registry::windowed_counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = windowed_counters_.find(name);
  if (it == windowed_counters_.end())
    it = windowed_counters_
             .emplace(std::string(name), std::make_unique<window::WindowedCounter>(
                                             counter_locked(name)))
             .first;
  return *it->second;
}

window::WindowedHistogram& Registry::windowed_histogram(
    std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = windowed_histograms_.find(name);
  if (it == windowed_histograms_.end())
    it = windowed_histograms_
             .emplace(std::string(name),
                      std::make_unique<window::WindowedHistogram>(
                          histogram_locked(name)))
             .first;
  return *it->second;
}

Snapshot Registry::snapshot() const {
  window::refresh();  // rotation is reader-driven; see obs/window.h
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges_) {
    s.gauges.emplace_back(name, g->value());
    s.gauge_maxima.emplace_back(name, g->max());
  }
  for (const auto& [name, h] : histograms_) {
    Snapshot::HistogramData d;
    d.name = name;
    d.count = h->count();
    d.sum = h->sum();
    d.min = h->min();
    d.max = h->max();
    d.mean = h->mean();
    d.p50 = h->quantile(0.5);
    d.p99 = h->quantile(0.99);
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n = h->bucket_count(i);
      if (n > 0) d.buckets.emplace_back(Histogram::bucket_upper(i), n);
    }
    s.histograms.push_back(std::move(d));
  }
  auto window_data = [](const std::string& name, bool is_histogram,
                        const window::WindowView& w) {
    Snapshot::WindowData d;
    d.name = name;
    d.is_histogram = is_histogram;
    d.count = w.count;
    d.rate = w.rate;
    d.p50 = w.p50;
    d.p95 = w.p95;
    d.p99 = w.p99;
    return d;
  };
  for (const auto& [name, wc] : windowed_counters_)
    s.windows.push_back(window_data(name, false, wc->window()));
  for (const auto& [name, wh] : windowed_histograms_)
    s.windows.push_back(window_data(name, true, wh->window()));
  return s;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, wc] : windowed_counters_) wc->reset_window();
  for (auto& [name, wh] : windowed_histograms_) wh->reset_window();
}

Registry& Registry::global() {
  static Registry* reg = new Registry();  // never destroyed: exit-safe
  return *reg;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string json_number(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[64];
  // %.17g round-trips doubles; trim to a sane default precision that still
  // survives a parse-and-compare in the tests.
  std::snprintf(buf, sizeof buf, "%.12g", x);
  return buf;
}

std::string Registry::to_json() const {
  const Snapshot s = snapshot();
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < s.counters.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << '"' << json_escape(s.counters[i].first)
       << "\": " << s.counters[i].second;
  }
  os << (s.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < s.gauges.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << '"' << json_escape(s.gauges[i].first)
       << "\": {\"value\": " << json_number(s.gauges[i].second)
       << ", \"max\": " << json_number(s.gauge_maxima[i].second) << '}';
  }
  os << (s.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < s.histograms.size(); ++i) {
    const auto& h = s.histograms[i];
    os << (i ? ",\n    " : "\n    ") << '"' << json_escape(h.name) << "\": {"
       << "\"count\": " << h.count << ", \"sum\": " << json_number(h.sum)
       << ", \"min\": " << json_number(h.min)
       << ", \"max\": " << json_number(h.max)
       << ", \"mean\": " << json_number(h.mean)
       << ", \"p50\": " << json_number(h.p50)
       << ", \"p99\": " << json_number(h.p99) << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      os << (b ? ", " : "") << "{\"le\": " << json_number(h.buckets[b].first)
         << ", \"count\": " << h.buckets[b].second << '}';
    }
    os << "]}";
  }
  os << (s.histograms.empty() ? "" : "\n  ") << "},\n  \"windows\": {";
  for (std::size_t i = 0; i < s.windows.size(); ++i) {
    const auto& w = s.windows[i];
    os << (i ? ",\n    " : "\n    ") << '"' << json_escape(w.name) << "\": {"
       << "\"count\": " << w.count << ", \"rate\": " << json_number(w.rate);
    if (w.is_histogram)
      os << ", \"p50\": " << json_number(w.p50)
         << ", \"p95\": " << json_number(w.p95)
         << ", \"p99\": " << json_number(w.p99);
    os << '}';
  }
  os << (s.windows.empty() ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::string Registry::to_json(const RunManifest& manifest) const {
  // Splice "manifest" in as the first key of the snapshot object.
  std::string body = to_json();
  const std::size_t brace = body.find('{');
  return body.substr(0, brace + 1) + "\n  \"manifest\": " +
         manifest.to_json() + "," + body.substr(brace + 1);
}

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Dots and every other
// foreign character become underscores; a leading digit gets a '_' prefix.
std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  // Digits map to themselves, so the name needs the prefix exactly when
  // its own first character is a digit.
  if (name.empty() || (name[0] >= '0' && name[0] <= '9')) out += '_';
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

// Label value escaping per the exposition format: backslash, quote, newline.
std::string prometheus_label_value(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

// `{dcl_name="<original>"}` when sanitization altered the name, else "".
std::string prometheus_labels(const std::string& sanitized,
                              std::string_view original) {
  if (sanitized == original) return "";
  return "{dcl_name=\"" + prometheus_label_value(original) + "\"}";
}

std::string prometheus_number(double x) {
  if (std::isnan(x)) return "NaN";
  if (std::isinf(x)) return x > 0 ? "+Inf" : "-Inf";
  return json_number(x);
}

// HELP text escaping per the exposition format: backslash and newline.
std::string prometheus_help_value(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

// One-line HELP per metric family, keyed on the dotted-name prefix the
// subsystems use; the fallback names the original metric so every family
// still gets a HELP line (required by strict exposition parsers).
std::string prometheus_help(std::string_view name) {
  struct PrefixHelp {
    std::string_view prefix;
    const char* help;
  };
  static constexpr PrefixHelp kHelp[] = {
      {"span.", "Wall-clock seconds spent in this pipeline stage."},
      {"sanitize.", "Trace records repaired or dropped by sanitization."},
      {"em.", "EM engine telemetry."},
      {"pipeline.", "Identification pipeline outcome accounting."},
      {"trace.", "Flight-recorder ring accounting."},
      {"serve.", "Embedded ops HTTP server accounting."},
      {"faults.", "Fault-injection driver accounting."},
      {"log.", "Structured logger accounting."},
      {"prof.", "Sampling CPU profiler accounting."},
  };
  for (const auto& h : kHelp)
    if (name.substr(0, h.prefix.size()) == h.prefix) return h.help;
  return "dclid metric '" + prometheus_help_value(name) + "'.";
}

void prometheus_family(std::ostream& os, const std::string& p,
                       std::string_view original, const char* type) {
  os << "# HELP " << p << ' ' << prometheus_help(original) << '\n';
  os << "# TYPE " << p << ' ' << type << '\n';
}

}  // namespace

std::string Registry::to_prometheus() const {
  const Snapshot s = snapshot();
  std::ostringstream os;
  for (const auto& [name, v] : s.counters) {
    const std::string p = prometheus_name(name);
    const std::string labels = prometheus_labels(p, name);
    prometheus_family(os, p, name, "counter");
    os << p << labels << ' ' << v << '\n';
  }
  for (std::size_t i = 0; i < s.gauges.size(); ++i) {
    const std::string& name = s.gauges[i].first;
    const std::string p = prometheus_name(name);
    prometheus_family(os, p, name, "gauge");
    os << p << prometheus_labels(p, name) << ' '
       << prometheus_number(s.gauges[i].second) << '\n';
    const std::string pmax = p + "_max";
    prometheus_family(os, pmax, name, "gauge");
    os << pmax << prometheus_labels(p, name) << ' '
       << prometheus_number(s.gauge_maxima[i].second) << '\n';
  }
  for (const auto& h : s.histograms) {
    const std::string p = prometheus_name(h.name);
    prometheus_family(os, p, h.name, "histogram");
    // Prometheus buckets are cumulative; ours are disjoint octaves.
    std::uint64_t cum = 0;
    for (const auto& [le, n] : h.buckets) {
      cum += n;
      os << p << "_bucket{";
      if (p != h.name)
        os << "dcl_name=\"" << prometheus_label_value(h.name) << "\",";
      os << "le=\"" << prometheus_number(le) << "\"} " << cum << '\n';
    }
    os << p << "_bucket{";
    if (p != h.name)
      os << "dcl_name=\"" << prometheus_label_value(h.name) << "\",";
    os << "le=\"+Inf\"} " << h.count << '\n';
    os << p << "_sum" << prometheus_labels(p, h.name) << ' '
       << prometheus_number(h.sum) << '\n';
    os << p << "_count" << prometheus_labels(p, h.name) << ' '
       << h.count << '\n';
  }
  // Windowed views export as gauges: they describe the last
  // kWindowEpochs × kEpochSeconds only, so counter semantics don't apply.
  const std::string window_note =
      " over the last " +
      std::to_string(static_cast<int>(window::kWindowEpochs *
                                      window::kEpochSeconds)) +
      "s window.";
  for (const auto& w : s.windows) {
    const std::string p = prometheus_name(w.name);
    const std::string labels = prometheus_labels(p, w.name);
    auto gauge_line = [&](const char* suffix, const std::string& what,
                          const std::string& value) {
      const std::string pw = p + suffix;
      os << "# HELP " << pw << ' ' << what << window_note << '\n';
      os << "# TYPE " << pw << " gauge\n";
      os << pw << labels << ' ' << value << '\n';
    };
    gauge_line("_w_count", w.is_histogram ? "Samples" : "Increments",
               std::to_string(w.count));
    gauge_line("_w_rate",
               w.is_histogram ? "Samples per second" : "Increments per second",
               prometheus_number(w.rate));
    if (w.is_histogram) {
      gauge_line("_w_p50", "p50 (octave log-midpoint)",
                 prometheus_number(w.p50));
      gauge_line("_w_p95", "p95 (octave log-midpoint)",
                 prometheus_number(w.p95));
      gauge_line("_w_p99", "p99 (octave log-midpoint)",
                 prometheus_number(w.p99));
    }
  }
  return os.str();
}

std::string Registry::to_prometheus(const RunManifest& manifest) const {
  std::ostringstream os;
  os << "# HELP dcl_build_info Build and run provenance; value is always"
        " 1.\n";
  os << "# TYPE dcl_build_info gauge\n";
  os << "dcl_build_info{"
     << "tool=\"" << prometheus_label_value(manifest.tool) << "\","
     << "version=\"" << prometheus_label_value(manifest.version) << "\","
     << "git=\"" << prometheus_label_value(manifest.git) << "\","
     << "compiler=\"" << prometheus_label_value(manifest.compiler) << "\","
     << "build_type=\"" << prometheus_label_value(manifest.build_type)
     << "\","
     << "config_digest=\"" << prometheus_label_value(manifest.config_digest)
     << "\"} 1\n";
  return os.str() + to_prometheus();
}

Stage::Opened Stage::open(const StageSite& site, double value) {
  Opened opened;
  if (trace::enabled()) {
    opened.traced = true;
    trace::begin(site.name, value);
  }
  if (enabled()) opened.start_ns = now_ns();
  return opened;
}

void Stage::close(StageSite& site, Opened opened) {
  if (opened.start_ns != 0) {
    const double secs = static_cast<double>(now_ns() - opened.start_ns) * 1e-9;
    window::WindowedHistogram* h = site.hist.load(std::memory_order_acquire);
    if (h == nullptr) {
      // Racing first exits resolve to the same handle.
      h = &Registry::global().windowed_histogram(std::string("span.") +
                                                 site.name);
      site.hist.store(h, std::memory_order_release);
    }
    h->record(secs);
  }
  if (opened.traced) trace::end(site.name);
}

}  // namespace dcl::obs
