#include "trace/generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/distributions.h"

namespace prord::trace {

GeneratedTrace generate_trace(const SiteModel& site,
                              const TraceGenParams& params) {
  if (params.target_requests == 0)
    throw std::invalid_argument("generate_trace: target_requests == 0");
  util::Rng rng(params.seed);

  // Session arrival rate sized so expected request count over the duration
  // matches the target: lambda = target / (duration * reqs_per_session).
  const double reqs_per_session =
      params.mean_pages_per_session * site.mean_requests_per_view();
  const double lambda = static_cast<double>(params.target_requests) /
                        (params.duration_sec * reqs_per_session);
  util::ExponentialDistribution interarrival(lambda);
  util::ParetoDistribution think(params.think_alpha, params.think_lo_sec,
                                 params.think_hi_sec);

  std::vector<double> group_weights;
  group_weights.reserve(site.groups().size());
  for (const auto& g : site.groups()) group_weights.push_back(g.weight);
  util::DiscreteDistribution pick_group(group_weights);

  // Per-group entry distributions.
  std::vector<util::DiscreteDistribution> entry_dist;
  entry_dist.reserve(site.groups().size());
  for (const auto& g : site.groups())
    entry_dist.emplace_back(g.entry_weights);

  // Navigation weight per page: popularity ^ bias, precomputed.
  std::vector<double> nav_weight(site.pages().size());
  for (std::size_t p = 0; p < nav_weight.size(); ++p)
    nav_weight[p] = std::pow(site.pages()[p].weight, params.popularity_bias);

  GeneratedTrace out;
  // Requests are drafted without their URL strings (a pointer into the
  // site instead), sorted by time, and only then materialized as
  // LogRecords: the sort moves 24-byte drafts, and each URL is copied
  // once, straight into its final slot.
  struct Draft {
    sim::SimTime time;
    std::uint32_t client;
    std::uint32_t bytes;
    const std::string* url;
  };
  std::vector<Draft> drafts;
  drafts.reserve(params.target_requests + 64);

  // Workload drift: each phase cyclically re-maps the page-preference
  // indices — entry weights, navigation popularity, AND the groups' page
  // affinities rotate by the same shift — so the hot set and the favored
  // successor of each page both land on structurally different pages
  // while the link graph stays fixed. Rotating the affinities matters:
  // they multiply into every link choice, and leaving them static would
  // pin P(next | page) across phases, reducing "drift" to a popularity
  // reshuffle no predictor ever has to re-learn. A session samples its
  // phase once, at its start time (users mid-session don't switch
  // interests).
  const DriftSpec& drift = params.drift;
  if (drift.rotation < 0.0 || drift.rotation > 1.0)
    throw std::invalid_argument("generate_trace: drift.rotation in [0,1]");
  if (drift.flash_multiplier < 1.0)
    throw std::invalid_argument("generate_trace: drift.flash_multiplier >= 1");
  const bool drifting = drift.enabled();
  const std::size_t num_pages = site.pages().size();
  // nav weights / entry distributions per phase; phase 0 has shift 0 and
  // equals the undrifted tables.
  std::vector<std::vector<double>> nav_by_phase;
  std::vector<std::vector<util::DiscreteDistribution>> entry_by_phase;
  std::vector<std::vector<std::vector<double>>> affinity_by_phase;
  if (drifting) {
    nav_by_phase.reserve(drift.phases);
    entry_by_phase.reserve(drift.phases);
    affinity_by_phase.reserve(drift.phases);
    for (std::size_t p = 0; p < drift.phases; ++p) {
      const std::size_t shift =
          static_cast<std::size_t>(std::llround(
              static_cast<double>(p) * drift.rotation *
              static_cast<double>(num_pages))) %
          num_pages;
      std::vector<double> nav(num_pages);
      for (std::size_t l = 0; l < num_pages; ++l)
        nav[l] = nav_weight[(l + shift) % num_pages];
      nav_by_phase.push_back(std::move(nav));
      std::vector<util::DiscreteDistribution> dists;
      dists.reserve(site.groups().size());
      std::vector<std::vector<double>> affinities;
      affinities.reserve(site.groups().size());
      for (const auto& g : site.groups()) {
        std::vector<double> w(g.entry_weights.size());
        for (std::size_t l = 0; l < w.size(); ++l)
          w[l] = g.entry_weights[(l + shift) % w.size()];
        dists.emplace_back(w);
        std::vector<double> aff(num_pages);
        for (std::size_t l = 0; l < num_pages; ++l)
          aff[l] = g.page_affinity[(l + shift) % num_pages];
        affinities.push_back(std::move(aff));
      }
      entry_by_phase.push_back(std::move(dists));
      affinity_by_phase.push_back(std::move(affinities));
    }
  }
  const double phase_len = drift.phase_length(params.duration_sec);

  // Inhomogeneous session arrivals by thinning: candidates at the peak
  // rate, accepted with probability rate(t)/peak.
  if (params.diurnal_amplitude < 0.0 || params.diurnal_amplitude >= 1.0)
    throw std::invalid_argument("generate_trace: diurnal_amplitude in [0,1)");
  if (params.flash_multiplier < 1.0)
    throw std::invalid_argument("generate_trace: flash_multiplier >= 1");
  const bool phase_flash =
      drifting && drift.flash_multiplier > 1.0 && drift.flash_duration_sec > 0;
  const bool modulated = params.diurnal_amplitude > 0.0 ||
                         params.flash_multiplier > 1.0 || phase_flash;
  const double peak_factor = (1.0 + params.diurnal_amplitude) *
                             params.flash_multiplier *
                             (phase_flash ? drift.flash_multiplier : 1.0);
  util::ExponentialDistribution peak_interarrival(lambda * peak_factor);
  auto rate_factor = [&params, &drift, phase_flash, phase_len](double t) {
    double f = 1.0 + params.diurnal_amplitude *
                         std::sin(6.28318530717958647692 * t /
                                  params.diurnal_period_sec);
    if (params.flash_multiplier > 1.0 && t >= params.flash_start_sec &&
        t < params.flash_start_sec + params.flash_duration_sec)
      f *= params.flash_multiplier;
    if (phase_flash && t >= 0) {
      const double into_phase = t - phase_len * std::floor(t / phase_len);
      if (into_phase < drift.flash_duration_sec) f *= drift.flash_multiplier;
    }
    return f;
  };

  const double session_len_p = 1.0 / params.mean_pages_per_session;
  double session_start = 0.0;

  while (drafts.size() < params.target_requests) {
    if (modulated) {
      // Thinning loop: advance candidates until one is accepted.
      do {
        session_start += peak_interarrival(rng);
      } while (rng.uniform() >= rate_factor(session_start) / peak_factor);
    } else {
      session_start += interarrival(rng);
    }
    const auto group = static_cast<std::uint32_t>(pick_group(rng));
    const auto client = static_cast<std::uint32_t>(out.num_sessions);
    ++out.num_sessions;
    out.session_group.push_back(group);

    const std::size_t phase =
        drift.phase_of(session_start, params.duration_sec);
    const std::vector<double>& nav =
        drifting ? nav_by_phase[phase] : nav_weight;
    util::DiscreteDistribution& entry =
        drifting ? entry_by_phase[phase][group] : entry_dist[group];

    const std::size_t pages_to_view =
        util::sample_geometric(rng, session_len_p);
    PageIndex current = static_cast<PageIndex>(entry(rng));
    double t = session_start;

    for (std::size_t v = 0; v < pages_to_view; ++v) {
      const Page& page = site.pages()[current];
      ++out.num_page_views;

      drafts.push_back({sim::sec(t), client, page.bytes, &page.url});

      double et = t;
      for (const auto& e : page.embedded) {
        et += params.embedded_gap_ms / 1000.0;
        drafts.push_back({sim::sec(et), client, e.bytes, &e.url});
      }
      if (drafts.size() >= params.target_requests) break;

      if (page.links.empty()) break;  // dead end: session ends

      // Choose next link weighted by the group's (phase-rotated) affinity
      // and the target page's intrinsic popularity.
      const auto& affinity = drifting
                                 ? affinity_by_phase[phase][group]
                                 : site.groups()[group].page_affinity;
      double total = 0.0;
      for (PageIndex l : page.links) total += affinity[l] * nav[l];
      double u = rng.uniform() * total;
      PageIndex next = page.links.back();
      for (PageIndex l : page.links) {
        u -= affinity[l] * nav[l];
        if (u <= 0) {
          next = l;
          break;
        }
      }
      current = next;
      t = et + think(rng);
    }
  }

  std::stable_sort(drafts.begin(), drafts.end(),
                   [](const Draft& a, const Draft& b) {
                     return a.time < b.time;
                   });
  out.records.resize(drafts.size());
  for (std::size_t i = 0; i < drafts.size(); ++i) {
    LogRecord& rec = out.records[i];
    rec.time = drafts[i].time;
    rec.client = drafts[i].client;
    rec.url = *drafts[i].url;
    rec.bytes = drafts[i].bytes;
  }
  return out;
}

}  // namespace prord::trace
