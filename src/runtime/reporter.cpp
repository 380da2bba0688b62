#include "src/runtime/reporter.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace qplec {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
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

std::string fixed(double v, int decimals = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace

std::string solver_stats_json(const SolverStats& stats, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in1 = pad + "  ";
  const std::string in2 = pad + "    ";
  std::string out = "{\n";
  const auto count = [&](const char* name, std::int64_t v, const std::string& ind) {
    out += ind + "\"" + name + "\": " + std::to_string(v) + ",\n";
  };
  const auto ms = [&](const char* name, double v, const std::string& ind,
                      bool last = false) {
    out += ind + "\"" + name + "\": " + fixed(v) + (last ? "\n" : ",\n");
  };
  count("basecase_calls", stats.basecase_calls, in1);
  count("defective_calls", stats.defective_calls, in1);
  count("space_reductions", stats.space_reductions, in1);
  count("noslack_fallbacks", stats.noslack_fallbacks, in1);
  count("virtual_instances", stats.virtual_instances, in1);
  count("e2_instances", stats.e2_instances, in1);
  count("trivial_picks", stats.trivial_picks, in1);
  count("classes_total", stats.classes_total, in1);
  count("classes_nonempty", stats.classes_nonempty, in1);
  count("phases_executed", stats.phases_executed, in1);
  count("max_depth", stats.max_depth, in1);
  out += in1 + "\"max_eq2_ratio\": " + fixed(stats.max_eq2_ratio, 6) + ",\n";
  out += in1 + "\"max_defect_ratio\": " + fixed(stats.max_defect_ratio, 6) + ",\n";
  count("cache_flushes", stats.cache_flushes, in1);
  count("cache_deltas", stats.cache_deltas, in1);
  count("cache_colors_removed", stats.cache_colors_removed, in1);
  ms("refresh_ms", stats.refresh_ms, in1);
  ms("restrict_ms", stats.restrict_ms, in1);
  out += in1 + "\"profile\": {\n";
  count("supersteps", stats.profile.supersteps, in2);
  count("validation_walks_run", stats.profile.validation_walks_run, in2);
  count("validation_walks_skipped", stats.profile.validation_walks_skipped, in2);
  count("checkpoints", stats.profile.checkpoints, in2);
  ms("pass_ms", stats.profile.pass_ms, in2);
  ms("validate_ms", stats.profile.validate_ms, in2);
  ms("ledger_ms", stats.profile.ledger_ms, in2, /*last=*/true);
  out += in1 + "}\n";
  out += pad + "}";
  return out;
}

BenchReporter& BenchReporter::set(const std::string& key, const std::string& value) {
  labels_.emplace_back(key, value);
  return *this;
}

void BenchReporter::write_json(const BatchReport& report, std::ostream& out) const {
  out << "{\n";
  for (const auto& [key, value] : labels_) {
    out << "  \"" << json_escape(key) << "\": \"" << json_escape(value) << "\",\n";
  }
  out << "  \"num_threads\": " << report.num_threads << ",\n";
  out << "  \"num_scenarios\": " << report.results.size() << ",\n";
  out << "  \"wall_ms\": " << fixed(report.wall_ms) << ",\n";
  out << "  \"total_solve_ms\": " << fixed(report.total_solve_ms) << ",\n";
  out << "  \"total_edges\": " << report.total_edges << ",\n";
  out << "  \"edges_per_sec\": " << fixed(report.edges_per_sec(), 1) << ",\n";
  out << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const ScenarioResult& r = report.results[i];
    const Scenario& s = r.scenario;
    out << "    {\n";
    out << "      \"name\": \"" << json_escape(s.name()) << "\",\n";
    out << "      \"family\": \"" << family_name(s.family) << "\",\n";
    out << "      \"size\": " << s.size << ",\n";
    out << "      \"lists\": \"" << flavor_name(s.lists) << "\",\n";
    out << "      \"policy\": \"" << policy_name(s.policy) << "\",\n";
    out << "      \"seed\": " << s.seed << ",\n";
    out << "      \"aux\": " << s.aux << ",\n";
    out << "      \"nodes\": " << r.num_nodes << ",\n";
    out << "      \"edges\": " << r.num_edges << ",\n";
    out << "      \"delta\": " << r.max_degree << ",\n";
    out << "      \"delta_bar\": " << r.max_edge_degree << ",\n";
    out << "      \"palette\": " << r.palette_size << ",\n";
    out << "      \"shards\": " << r.shards << ",\n";
    out << "      \"rounds\": " << r.rounds << ",\n";
    out << "      \"raw_rounds\": " << r.raw_rounds << ",\n";
    out << "      \"queue_ms\": " << fixed(r.queue_ms) << ",\n";
    out << "      \"build_ms\": " << fixed(r.build_ms) << ",\n";
    out << "      \"solve_ms\": " << fixed(r.solve_ms) << ",\n";
    out << "      \"edges_per_sec\": " << fixed(r.edges_per_sec, 1) << ",\n";
    out << "      \"stats\": " << solver_stats_json(r.stats, 6) << ",\n";
    out << "      \"colors_hash\": \"" << std::hex << r.colors_hash << std::dec << "\",\n";
    out << "      \"valid\": " << (r.valid ? "true" : "false") << ",\n";
    out << "      \"error\": \"" << json_escape(r.error) << "\"\n";
    out << "    }" << (i + 1 < report.results.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

void BenchReporter::write_json_file(const BatchReport& report, const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  write_json(report, out);
  if (!out.flush()) throw std::runtime_error("write to " + path + " failed");
}

void BenchReporter::write_text(const BatchReport& report, std::ostream& out) const {
  char line[256];
  std::snprintf(line, sizeof(line), "%-42s %8s %8s %7s %9s %10s %6s\n", "scenario", "edges",
                "Dbar", "rounds", "solve ms", "edges/s", "valid");
  out << line;
  for (const ScenarioResult& r : report.results) {
    std::snprintf(line, sizeof(line), "%-42s %8d %8d %7lld %9.2f %10.0f %6s\n",
                  r.scenario.name().c_str(), r.num_edges, r.max_edge_degree,
                  static_cast<long long>(r.rounds), r.solve_ms, r.edges_per_sec,
                  r.valid ? "yes" : "NO");
    out << line;
  }
  std::snprintf(line, sizeof(line),
                "batch: %zu scenarios, %d threads, %.1f ms wall (%.1f ms solve work), "
                "%.0f edges/s\n",
                report.results.size(), report.num_threads, report.wall_ms,
                report.total_solve_ms, report.edges_per_sec());
  out << line;
}

}  // namespace qplec
