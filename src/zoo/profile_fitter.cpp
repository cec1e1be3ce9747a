#include "zoo/profile_fitter.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "adapt/stream_sessionizer.h"
#include "trace/workload.h"

namespace prord::zoo {
namespace {

struct MeanCv {
  double mean = 0.0;
  double cv = 0.0;
};

MeanCv mean_cv(const std::vector<double>& xs) {
  if (xs.empty()) return {};
  double sum = 0.0;
  for (const double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  if (mean <= 0.0) return {mean, 0.0};
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  return {mean, std::sqrt(var) / mean};
}

double clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

// Bounded-Pareto shape by MLE on samples above `lo` (the Hill estimator
// truncated at the observed bound): alpha = n / sum(log(x/lo)).
double fit_pareto_alpha(const std::vector<double>& samples, double lo) {
  double acc = 0.0;
  std::size_t n = 0;
  for (const double x : samples) {
    if (x <= lo) continue;
    acc += std::log(x / lo);
    ++n;
  }
  if (n < 8 || acc <= 0.0) return 1.4;  // library default on thin data
  return clamp(static_cast<double>(n) / acc, 0.6, 3.0);
}

}  // namespace

double fit_zipf_alpha_mle(std::span<const std::uint64_t> sorted_counts_desc) {
  std::size_t ranks = 0;
  double n = 0.0, sum_c_logr = 0.0;
  for (std::size_t r = 0; r < sorted_counts_desc.size(); ++r) {
    if (sorted_counts_desc[r] == 0) break;
    ++ranks;
    const double c = static_cast<double>(sorted_counts_desc[r]);
    n += c;
    sum_c_logr += c * std::log(static_cast<double>(r + 1));
  }
  if (ranks < 3 || n <= 0.0) return 0.0;

  // d logL / da = -sum_c_logr + n * (sum log r * r^-a) / (sum r^-a).
  auto deriv = [&](double a) {
    double h = 0.0, hp = 0.0;
    for (std::size_t r = 1; r <= ranks; ++r) {
      const double lr = std::log(static_cast<double>(r));
      const double w = std::exp(-a * lr);
      h += w;
      hp += lr * w;
    }
    return -sum_c_logr + n * hp / h;
  };

  double lo = 0.05, hi = 4.0;
  if (deriv(lo) <= 0.0) return lo;  // flatter than the search range
  if (deriv(hi) >= 0.0) return hi;  // steeper than the search range
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (deriv(mid) > 0.0)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

WorkloadProfile fit_profile(std::span<const trace::LogRecord> records,
                            const MinedTemplates& mined,
                            const FitOptions& options,
                            FitDiagnostics* diagnostics) {
  if (records.size() < 2)
    throw std::runtime_error("fit_profile: need at least 2 records");
  FitDiagnostics local;
  FitDiagnostics& diag = diagnostics ? *diagnostics : local;
  diag = {};

  // Real logs are only near-sorted (mixed timezone suffixes, buffered
  // writers, NTP steps); build_workload requires sorted input, so sort a
  // copy. Stable, to keep same-timestamp lines in log order.
  std::vector<trace::LogRecord> sorted(records.begin(), records.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const trace::LogRecord& a, const trace::LogRecord& b) {
                     return a.time < b.time;
                   });
  const auto workload = trace::build_workload(sorted);
  const auto& reqs = workload.requests;
  if (reqs.size() < 2)
    throw std::runtime_error("fit_profile: no usable requests after build");

  WorkloadProfile p;
  p.source_requests = reqs.size();
  p.source_files = workload.files.count();
  const sim::SimTime span = workload.span();
  p.duration_sec = std::max(1.0, sim::to_seconds(span));
  p.target_requests = reqs.size();

  // --- Popularity: MLE Zipf over per-file request counts. ----------------
  std::vector<std::uint64_t> counts(workload.files.count(), 0);
  for (const auto& r : reqs) ++counts[r.file];
  std::sort(counts.begin(), counts.end(), std::greater<>());
  const double alpha = fit_zipf_alpha_mle(counts);
  p.zipf_alpha = alpha > 0.0 ? clamp(alpha, 0.3, 2.5) : 0.8;

  // --- Sessions: streaming sessionization over the whole trace. ----------
  logmining::SessionOptions session_options;
  adapt::StreamSessionizer sessionizer(span + session_options.inactivity_timeout
                                           + sim::sec(1.0),
                                      session_options);
  for (const auto& r : reqs) sessionizer.observe(r);
  const auto snapshot = sessionizer.snapshot(
      reqs.back().at + session_options.inactivity_timeout + sim::sec(1.0));
  diag.sessions = snapshot.sessions.size();
  if (!snapshot.sessions.empty()) {
    double pages = 0.0;
    for (const auto& s : snapshot.sessions)
      pages += static_cast<double>(s.pages.size());
    p.mean_pages_per_session =
        std::max(1.0, pages / static_cast<double>(snapshot.sessions.size()));
  }

  // --- Think times: gaps between a client's consecutive page views. ------
  // Sessions carry only page ids, so gaps come from the raw stream: group
  // main-page requests per client (stable in-stream order), keep positive
  // gaps under the inactivity timeout.
  std::map<std::uint32_t, sim::SimTime> last_view;
  std::vector<double> think;
  for (const auto& r : reqs) {
    if (r.is_embedded) continue;
    ++diag.page_views;
    const auto it = last_view.find(r.client);
    if (it != last_view.end()) {
      const sim::SimTime gap = r.at - it->second;
      if (gap > 0 && gap < session_options.inactivity_timeout)
        think.push_back(sim::to_seconds(gap));
    }
    last_view[r.client] = r.at;
  }
  diag.think_samples = think.size();
  if (think.size() >= 8) {
    std::sort(think.begin(), think.end());
    p.think_lo_sec = std::max(0.05, think[think.size() / 20]);  // p5
    p.think_hi_sec = std::max(p.think_lo_sec * 4.0, think.back());
    p.think_alpha = fit_pareto_alpha(think, p.think_lo_sec);
  }

  // --- Sizes and mix, per class. ------------------------------------------
  std::vector<double> page_kb, embedded_kb;
  std::size_t embedded = 0, dynamic_pages = 0;
  for (const auto& r : reqs) {
    const double kb = static_cast<double>(r.bytes) / 1024.0;
    if (r.is_embedded) {
      ++embedded;
      if (r.bytes > 0) embedded_kb.push_back(kb);
    } else {
      if (r.is_dynamic) ++dynamic_pages;
      if (r.bytes > 0) page_kb.push_back(kb);
    }
  }
  const auto page_stats = mean_cv(page_kb);
  const auto emb_stats = mean_cv(embedded_kb);
  if (page_stats.mean > 0.0) {
    p.mean_page_kb = page_stats.mean;
    p.page_size_cv = clamp(page_stats.cv, 0.3, 4.0);
  }
  if (diag.page_views > 0) {
    p.mean_embedded =
        static_cast<double>(embedded) / static_cast<double>(diag.page_views);
    p.dynamic_fraction = clamp(static_cast<double>(dynamic_pages) /
                                   static_cast<double>(diag.page_views),
                               0.0, 0.9);
  }
  if (emb_stats.mean > 0.0) {
    p.mean_embedded_kb = emb_stats.mean;
    p.embedded_size_cv = clamp(emb_stats.cv, 0.3, 4.0);
  }

  // --- Site shape from the template clustering. ---------------------------
  std::size_t page_clusters = 0;
  std::uint64_t page_cluster_support = 0;
  for (const auto& t : mined.templates()) {
    if (t.cls == TemplateClass::kStatic && trace::is_embedded_url(t.pattern))
      continue;  // asset templates are not navigation sections
    ++page_clusters;
    page_cluster_support += t.support;
  }
  (void)page_cluster_support;
  p.sections = static_cast<std::uint32_t>(
      clamp(static_cast<double>(page_clusters), 2.0, 64.0));
  std::size_t page_files = 0;
  for (trace::FileId f = 0; f < workload.files.count(); ++f)
    if (!workload.files.is_embedded(f)) ++page_files;
  p.pages_per_section = static_cast<std::uint32_t>(clamp(
      std::ceil(static_cast<double>(std::max<std::size_t>(page_files, 1)) /
                static_cast<double>(p.sections)),
      2.0, 4000.0));

  // Transition locality: how often consecutive page views inside a session
  // window cross template clusters.
  std::map<std::uint32_t, std::size_t> last_cluster;  // client -> cluster
  std::map<std::uint32_t, sim::SimTime> last_cluster_at;
  for (const auto& r : reqs) {
    if (r.is_embedded) continue;
    const auto cluster = mined.cluster_of(workload.files.url(r.file));
    const auto it = last_cluster.find(r.client);
    if (it != last_cluster.end() &&
        r.at - last_cluster_at[r.client] <
            session_options.inactivity_timeout) {
      ++diag.transitions;
      if (cluster != it->second) ++diag.cross_transitions;
    }
    last_cluster[r.client] = cluster;
    last_cluster_at[r.client] = r.at;
  }
  if (diag.transitions >= 16) {
    p.cross_section_link_prob =
        clamp(static_cast<double>(diag.cross_transitions) /
                  static_cast<double>(diag.transitions),
              0.02, 0.9);
  }

  // --- Phase structure. ---------------------------------------------------
  // Segment count scales with page-view density: rotation detection needs
  // a few hundred views per segment or its hot sets are sampling noise.
  const std::size_t segs = std::max<std::size_t>(
      2, std::min(options.segments,
                  std::max<std::size_t>(diag.page_views, reqs.size() / 8) /
                      400));
  const sim::SimTime seg_width = std::max<sim::SimTime>(1, span / segs + 1);

  // Hot-set per segment -> rotation boundaries.
  std::vector<std::unordered_map<trace::FileId, std::uint64_t>> seg_counts(
      segs);
  std::vector<std::uint64_t> seg_requests(segs, 0);
  const sim::SimTime t0 = reqs.front().at;
  for (const auto& r : reqs) {
    auto idx = static_cast<std::size_t>((r.at - t0) / seg_width);
    if (idx >= segs) idx = segs - 1;
    ++seg_requests[idx];
    if (!r.is_embedded) ++seg_counts[idx][r.file];
  }
  std::vector<std::vector<trace::FileId>> hot(segs);
  for (std::size_t s = 0; s < segs; ++s) {
    std::vector<std::pair<std::uint64_t, trace::FileId>> ranked;
    ranked.reserve(seg_counts[s].size());
    for (const auto& [file, count] : seg_counts[s])
      ranked.emplace_back(count, file);
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    ranked.resize(std::min(ranked.size(), options.hot_set));
    hot[s].reserve(ranked.size());
    for (const auto& [count, file] : ranked) hot[s].push_back(file);
    std::sort(hot[s].begin(), hot[s].end());
  }
  // Hot-set mass retention: the share of segment s's page views landing on
  // an earlier segment's hot set, normalized by the share on its own hot
  // set. Stationary popularity keeps retention near 1 even when sparse
  // top-K sets differ by sampling noise; a rotated hot set drops it toward
  // 0. The comparison skips one segment (s vs s-2): a phase boundary
  // rarely aligns with a segment edge, so the straddling segment blends
  // both phases and adjacent-segment retention never clears the cut —
  // skipping the blend compares pure-old against pure-new populations.
  // One boundary then surfaces as a short *run* of low-retention
  // comparisons, so runs (not comparisons) are counted.
  auto hot_mass = [&](std::size_t seg, const std::vector<trace::FileId>& set) {
    std::uint64_t mass = 0, total = 0;
    for (const auto& [file, count] : seg_counts[seg]) {
      total += count;
      if (std::binary_search(set.begin(), set.end(), file)) mass += count;
    }
    return total ? static_cast<double>(mass) / static_cast<double>(total)
                 : 0.0;
  };
  double retention_sum = 0.0, boundary_shift = 0.0, run_min = 1.0;
  std::size_t retention_n = 0, boundaries = 0;
  bool in_run = false;
  auto close_run = [&] {
    if (!in_run) return;
    in_run = false;
    ++boundaries;
    boundary_shift += 1.0 - run_min;
  };
  for (std::size_t s = 2; s < segs; ++s) {
    if (hot[s - 2].empty() || hot[s].empty()) continue;
    const double own = hot_mass(s, hot[s]);
    if (own <= 0.0) continue;
    const double retention = clamp(hot_mass(s, hot[s - 2]) / own, 0.0, 1.0);
    retention_sum += retention;
    ++retention_n;
    if (retention < options.phase_overlap_cut) {
      run_min = in_run ? std::min(run_min, retention) : retention;
      in_run = true;
    } else {
      close_run();
    }
  }
  close_run();
  diag.mean_segment_overlap =
      retention_n ? retention_sum / static_cast<double>(retention_n) : 1.0;
  diag.phase_boundaries = boundaries;
  if (boundaries > 0) {
    p.phase.phases = boundaries + 1;
    p.phase.rotation =
        clamp(boundary_shift / static_cast<double>(boundaries), 0.05, 1.0);
  }

  // Flash crowds: max/median segment rate.
  std::vector<std::uint64_t> rates(seg_requests);
  std::sort(rates.begin(), rates.end());
  const double median =
      std::max<double>(1.0, static_cast<double>(rates[rates.size() / 2]));
  const double peak = static_cast<double>(rates.back());
  diag.flash_ratio = peak / median;
  if (diag.flash_ratio >= options.flash_ratio) {
    p.phase.flash_multiplier = clamp(diag.flash_ratio, 1.0, 20.0);
    // Width: contiguous run of segments at >= 2x the median rate.
    std::size_t widest = 0, run = 0;
    for (const auto r : seg_requests) {
      if (static_cast<double>(r) >= 2.0 * median)
        widest = std::max(widest, ++run);
      else
        run = 0;
    }
    p.phase.flash_duration_sec =
        std::max(1.0, sim::to_seconds(seg_width)) * static_cast<double>(widest);
  }

  // Diurnal swing: least-squares sin/cos regression of segment counts.
  // The log may cover a fraction of a cycle or several cycles (a trace
  // generator that stops at a request budget, a log rotated mid-day), so
  // a single "period = span" guess attenuates the amplitude badly; scan a
  // harmonic grid around the span instead and keep the period whose
  // two-parameter fit explains the most variance. Multi-day logs snap to
  // the daily harmonic directly.
  if (segs >= 6) {
    std::vector<double> candidates;
    if (p.duration_sec >= 2.0 * 86'400.0) {
      candidates.push_back(86'400.0);
    } else {
      for (const double m : {1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0})
        candidates.push_back(m * p.duration_sec);
    }
    double mean_rate = 0.0;
    for (std::size_t s = 0; s < segs; ++s)
      mean_rate += static_cast<double>(seg_requests[s]);
    mean_rate /= static_cast<double>(segs);
    double ss_tot = 0.0;
    for (std::size_t s = 0; s < segs; ++s) {
      const double dev = static_cast<double>(seg_requests[s]) - mean_rate;
      ss_tot += dev * dev;
    }
    double best_amplitude = 0.0, best_period = 0.0, best_r2 = 0.0;
    if (mean_rate > 0.0 && ss_tot > 0.0) {
      for (const double period : candidates) {
        // Over a partial cycle sin and cos are not orthogonal: solve the
        // full 2x2 normal equations instead of projecting.
        double sss = 0.0, scc = 0.0, ssc = 0.0, sds = 0.0, sdc = 0.0;
        for (std::size_t s = 0; s < segs; ++s) {
          const double t =
              (static_cast<double>(s) + 0.5) * sim::to_seconds(seg_width);
          const double w = 2.0 * M_PI * t / period;
          const double sn = std::sin(w), cs = std::cos(w);
          const double dev = static_cast<double>(seg_requests[s]) - mean_rate;
          sss += sn * sn;
          scc += cs * cs;
          ssc += sn * cs;
          sds += dev * sn;
          sdc += dev * cs;
        }
        const double det = sss * scc - ssc * ssc;
        if (std::abs(det) < 1e-9) continue;
        const double a = (sds * scc - sdc * ssc) / det;
        const double b = (sdc * sss - sds * ssc) / det;
        double ss_res = 0.0;
        for (std::size_t s = 0; s < segs; ++s) {
          const double t =
              (static_cast<double>(s) + 0.5) * sim::to_seconds(seg_width);
          const double w = 2.0 * M_PI * t / period;
          const double dev = static_cast<double>(seg_requests[s]) - mean_rate;
          const double e = dev - a * std::sin(w) - b * std::cos(w);
          ss_res += e * e;
        }
        const double r2 = 1.0 - ss_res / ss_tot;
        if (r2 > best_r2) {
          best_r2 = r2;
          best_period = period;
          best_amplitude = std::sqrt(a * a + b * b) / mean_rate;
        }
      }
    }
    if (best_amplitude >= options.diurnal_min_amplitude &&
        diag.flash_ratio < options.flash_ratio) {
      p.phase.diurnal_amplitude = clamp(best_amplitude, 0.0, 0.95);
      p.phase.diurnal_period_sec = best_period;
    }
  }

  // --- Provenance templates. ----------------------------------------------
  for (const auto& t : mined.templates()) {
    if (p.templates.size() >= options.keep_templates) break;
    p.templates.push_back(TemplateSummary{
        t.pattern, t.support, std::string(template_class_name(t.cls))});
  }
  return p;
}

}  // namespace prord::zoo
