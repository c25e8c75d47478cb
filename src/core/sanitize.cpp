#include "core/sanitize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/obs.h"
#include "util/stats.h"

namespace dcl::core {

std::string SanitizationReport::summary() const {
  std::ostringstream os;
  os << input_records << " -> " << output_records << " records";
  if (reordered) os << ", reordered " << reordered;
  if (duplicates_dropped) os << ", dup-dropped " << duplicates_dropped;
  if (nonfinite_dropped) os << ", nonfinite-dropped " << nonfinite_dropped;
  if (negative_dropped) os << ", negative-dropped " << negative_dropped;
  if (outliers_dropped) os << ", outlier-dropped " << outliers_dropped;
  return os.str();
}

trace::Trace sanitize_trace(const trace::Trace& input,
                            SanitizationReport* report,
                            const SanitizeConfig& cfg) {
  DCL_STAGE("sanitize_trace");
  SanitizationReport rep;
  rep.input_records = input.records.size();

  // Re-sort by sequence number (stable, so among duplicates the first
  // capture wins) and count how many records the sort moved. Records
  // already in sequence order, the usual case, are read in place.
  const std::vector<trace::TraceRecord>& in = input.records;
  const auto by_seq = [](const trace::TraceRecord& a,
                         const trace::TraceRecord& b) { return a.seq < b.seq; };
  std::vector<trace::TraceRecord> resorted;
  if (!std::is_sorted(in.begin(), in.end(), by_seq)) {
    std::vector<std::size_t> order(in.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return in[a].seq < in[b].seq;
                     });
    resorted.reserve(in.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] != i) ++rep.reordered;
      resorted.push_back(in[order[i]]);
    }
  }
  const std::vector<trace::TraceRecord>& sorted =
      rep.reordered > 0 ? resorted : in;

  // Robust outlier threshold over the finite received delays: median plus
  // `outlier_factor` times the (p90 - median) spread, floored by an
  // absolute slack so tight distributions don't flag honest tail delays.
  double outlier_threshold = std::numeric_limits<double>::infinity();
  if (cfg.outlier_factor > 0.0) {
    std::vector<double> finite;
    finite.reserve(sorted.size());
    for (const auto& r : sorted)
      if (!r.obs.lost && std::isfinite(r.obs.delay) && r.obs.delay >= 0.0)
        finite.push_back(r.obs.delay);
    if (finite.size() >= 20) {
      const double med = util::quantile(finite, 0.5);
      const double p90 = util::quantile(finite, 0.9);
      const double spread =
          std::max(p90 - med, cfg.outlier_min_slack_s / cfg.outlier_factor);
      outlier_threshold = med + cfg.outlier_factor * spread;
    }
  }

  trace::Trace out;
  out.records.reserve(sorted.size());
  bool have_prev = false;
  std::uint64_t prev_seq = 0;
  for (const auto& r : sorted) {
    if (have_prev && r.seq == prev_seq) {
      ++rep.duplicates_dropped;
      continue;
    }
    if (!std::isfinite(r.send_time)) {
      ++rep.nonfinite_dropped;
      continue;
    }
    if (!r.obs.lost) {
      if (!std::isfinite(r.obs.delay)) {
        ++rep.nonfinite_dropped;
        continue;
      }
      if (r.obs.delay < 0.0) {
        ++rep.negative_dropped;
        continue;
      }
      if (r.obs.delay > outlier_threshold) {
        ++rep.outliers_dropped;
        continue;
      }
    }
    prev_seq = r.seq;
    have_prev = true;
    out.records.push_back(r);
  }
  rep.output_records = out.records.size();

  if (!rep.clean()) {
    std::ostringstream os;
    os << "sanitization repaired/dropped records: " << rep.summary();
    rep.warnings.push_back(os.str());
    auto& reg = obs::Registry::global();
    reg.counter("sanitize.reordered").add(rep.reordered);
    reg.counter("sanitize.duplicates_dropped").add(rep.duplicates_dropped);
    reg.counter("sanitize.nonfinite_dropped").add(rep.nonfinite_dropped);
    reg.counter("sanitize.negative_dropped").add(rep.negative_dropped);
    reg.counter("sanitize.outliers_dropped").add(rep.outliers_dropped);
  }
  if (report != nullptr) *report = rep;
  return out;
}

}  // namespace dcl::core
