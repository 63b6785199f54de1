#include "policy/shootout.hpp"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include "policy/registry.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace drs::policy {

namespace {

/// Observer pair for one pattern: the destination is the owner of the first
/// failed NIC (so the measured stream is one the failure actually
/// threatens); backplane-only patterns degrade every pair equally and keep
/// the default 0 -> 1.
std::pair<net::NodeId, net::NodeId> observer_pair(
    const std::vector<net::ComponentIndex>& pattern,
    std::uint16_t node_count) {
  net::NodeId dst = 1;
  for (const net::ComponentIndex component : pattern) {
    if (component < static_cast<net::ComponentIndex>(2u * node_count)) {
      dst = static_cast<net::NodeId>(component / 2u);
      break;
    }
  }
  return {dst == 0 ? net::NodeId{1} : net::NodeId{0}, dst};
}

/// Distinct failure patterns (sorted component sets after each fail action)
/// across the configured chaos schedules, in first-seen order, capped.
/// Only *discriminating* patterns are kept: ones that break the observer
/// pair's preferred-network direct path (so doing nothing loses) while a
/// backup path survives (so recovering is possible). Harmless and
/// fatal-for-everyone patterns would score every policy identically.
std::vector<std::vector<net::ComponentIndex>> build_corpus(
    const ShootoutConfig& config) {
  const BackupSequences oracle(config.node_count, net::kNetworkA);
  const auto backplane_a =
      static_cast<net::ComponentIndex>(2u * config.node_count);
  const auto discriminating =
      [&](const std::vector<net::ComponentIndex>& down) {
        const auto [src, dst] = observer_pair(down, config.node_count);
        const bool primary_up =
            !std::binary_search(down.begin(), down.end(), backplane_a) &&
            BackupSequences::link_up(src, dst, net::kNetworkA, down);
        return !primary_up && oracle.walk(src, dst, down).delivered;
      };
  std::vector<std::vector<net::ComponentIndex>> corpus;
  std::set<std::vector<net::ComponentIndex>> seen;
  chaos::ScheduleConfig schedule_config;
  schedule_config.node_count = config.node_count;
  schedule_config.events = config.events_per_campaign;
  for (std::uint32_t campaign = 0; campaign < config.campaigns; ++campaign) {
    const chaos::Schedule schedule =
        chaos::generate_schedule(config.seed, campaign, schedule_config);
    std::vector<net::ComponentIndex> down;
    for (const net::FailureAction& action : schedule.actions) {
      if (action.fail) {
        down.insert(std::lower_bound(down.begin(), down.end(),
                                     action.component),
                    action.component);
        if (corpus.size() < config.max_patterns && seen.insert(down).second &&
            discriminating(down)) {
          corpus.push_back(down);
        }
      } else {
        const auto it =
            std::lower_bound(down.begin(), down.end(), action.component);
        if (it != down.end() && *it == action.component) down.erase(it);
      }
    }
  }
  return corpus;
}

}  // namespace

ShootoutReport run_shootout(const ShootoutConfig& config) {
  ShootoutReport report;
  report.corpus = build_corpus(config);

  std::vector<std::string> names = config.policy_filter;
  if (names.empty()) names = policy_names();

  for (const std::string& name : names) {
    ShootoutRow row;
    row.policy = name;
    double detection_ms_sum = 0.0;
    double outage_ms_sum = 0.0;
    double stretch_sum = 0.0;
    std::uint32_t stretch_samples = 0;
    for (const std::vector<net::ComponentIndex>& pattern : report.corpus) {
      ScenarioConfig scenario;
      scenario.node_count = config.node_count;
      scenario.policy = name;
      scenario.params = config.params;
      scenario.app_probe_interval = config.app_probe_interval;
      scenario.app_probe_timeout = config.app_probe_timeout;
      std::tie(scenario.observer_src, scenario.observer_dst) =
          observer_pair(pattern, config.node_count);
      scenario.warmup = config.warmup;
      scenario.measure = config.measure;
      scenario.track_detection = true;
      const ScenarioResult result =
          run_failure_scenario(scenario, pattern);
      ++row.patterns;
      row.messages += result.protocol_messages;
      if (result.detection) {
        ++row.detected;
        detection_ms_sum += result.detection->to_millis();
      }
      if (result.recovered) {
        ++row.recovered;
        outage_ms_sum += result.app_outage.to_millis();
        if (result.path_hops_before > 0 && result.path_hops_after > 0) {
          stretch_sum += static_cast<double>(result.path_hops_after) /
                         static_cast<double>(result.path_hops_before);
          ++stretch_samples;
        }
      }
    }
    if (row.detected > 0) {
      row.mean_detection_ms = detection_ms_sum / row.detected;
    }
    if (row.recovered > 0) {
      row.mean_outage_ms = outage_ms_sum / row.recovered;
    }
    if (stretch_samples > 0) row.mean_stretch = stretch_sum / stretch_samples;
    report.rows.push_back(std::move(row));
  }

  std::sort(report.rows.begin(), report.rows.end(),
            [](const ShootoutRow& a, const ShootoutRow& b) {
              if (a.recovered != b.recovered) return a.recovered > b.recovered;
              if (a.mean_outage_ms != b.mean_outage_ms) {
                return a.mean_outage_ms < b.mean_outage_ms;
              }
              if (a.messages != b.messages) return a.messages < b.messages;
              return a.policy < b.policy;
            });
  return report;
}

std::string ShootoutReport::table() const {
  util::Table table({"rank", "policy", "recovered", "detect ms", "outage ms",
                     "stretch", "messages"});
  std::size_t rank = 1;
  for (const ShootoutRow& row : rows) {
    table.add_row(
        {std::to_string(rank++), row.policy,
         std::to_string(row.recovered) + "/" + std::to_string(row.patterns),
         row.detected > 0 ? util::format_double(row.mean_detection_ms, 2)
                          : "-",
         row.recovered > 0 ? util::format_double(row.mean_outage_ms, 2) : "-",
         row.recovered > 0 ? util::format_double(row.mean_stretch, 2) : "-",
         std::to_string(row.messages)});
  }
  return table.to_text();
}

std::string ShootoutReport::json() const {
  util::JsonWriter json;
  json.begin_object();
  json.key("corpus_patterns");
  json.value(static_cast<std::uint64_t>(corpus.size()));
  json.key("ranking");
  json.begin_array();
  for (const ShootoutRow& row : rows) {
    json.begin_object()
        .field("policy", row.policy)
        .field("patterns", static_cast<std::uint64_t>(row.patterns))
        .field("recovered", static_cast<std::uint64_t>(row.recovered))
        .field("detected", static_cast<std::uint64_t>(row.detected))
        .field("mean_detection_ms", row.mean_detection_ms)
        .field("mean_outage_ms", row.mean_outage_ms)
        .field("mean_stretch", row.mean_stretch)
        .field("messages", row.messages)
        .end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace drs::policy
