#include "loadgen/report.h"

#include "common/version.h"
#include "obs/export.h"

namespace privrec::loadgen {

namespace {

// One JSON scalar policy for the whole tree: the obs exporters own the
// shortest-round-trip number format and the escaping table; the report
// just borrows them under the short local names.
std::string Num(double x) { return obs::JsonNumber(x); }
std::string Escape(const std::string& s) { return obs::JsonEscape(s); }

std::string LatencyBlock(const obs::LatencyRecorder& r) {
  return "{\"count\": " + std::to_string(r.count()) +
         ", \"mean\": " + Num(r.mean()) +
         ", \"p50\": " + Num(r.Quantile(0.50)) +
         ", \"p99\": " + Num(r.Quantile(0.99)) +
         ", \"p999\": " + Num(r.Quantile(0.999)) + "}";
}

std::string BudgetLine(double v) { return v < 0 ? "null" : Num(v); }

// The floor on requests served ok, always on.
constexpr int64_t kMinOk = 1;

}  // namespace

void LoadSummary::Finalize() {
  shed_rate = scheduled > 0
                  ? static_cast<double>(shed) /
                        static_cast<double>(scheduled)
                  : 0.0;
  rollback_rate = swap_attempts > 0
                      ? static_cast<double>(rollbacks) /
                            static_cast<double>(swap_attempts)
                      : 0.0;
  achieved_rps = makespan_ms > 0.0
                     ? static_cast<double>(scheduled) * 1000.0 /
                           makespan_ms
                     : 0.0;
}

SloVerdict EvaluateSlo(const SloBudget& budget,
                       const LoadSummary& summary) {
  SloVerdict verdict;
  auto fail = [&](const std::string& line) {
    verdict.pass = false;
    verdict.failures.push_back(line);
  };
  auto check_latency = [&](const char* name, double q, double ceiling) {
    if (ceiling < 0) return;
    const double measured = summary.latency.Quantile(q);
    if (measured > ceiling) {
      fail(std::string(name) + " " + Num(measured) + "ms exceeds budget " +
           Num(ceiling) + "ms");
    }
  };
  check_latency("p50", 0.50, budget.p50_ms);
  check_latency("p99", 0.99, budget.p99_ms);
  check_latency("p999", 0.999, budget.p999_ms);
  if (budget.max_shed_rate >= 0 &&
      summary.shed_rate > budget.max_shed_rate) {
    fail("shed rate " + Num(summary.shed_rate) + " exceeds budget " +
         Num(budget.max_shed_rate));
  }
  if (budget.max_rollback_rate >= 0 &&
      summary.rollback_rate > budget.max_rollback_rate) {
    fail("rollback rate " + Num(summary.rollback_rate) +
         " exceeds budget " + Num(budget.max_rollback_rate));
  }
  if (budget.require_no_violations &&
      summary.correctness_violations > 0) {
    fail(std::to_string(summary.correctness_violations) +
         " correctness violation(s); first: " + summary.first_violation);
  }
  if (summary.ok < kMinOk) {
    fail("only " + std::to_string(summary.ok) +
         " request(s) served ok; floor is " + std::to_string(kMinOk));
  }
  return verdict;
}

std::string LoadReportJson(const LoadSpec& spec, int64_t swap_period_ms,
                           const LoadSummary& summary,
                           const SloBudget& budget,
                           const SloVerdict& verdict,
                           const std::string& mode, int64_t threads,
                           int64_t shards,
                           const TelemetryReport* telemetry) {
  std::string out = "{\n";
  out += "  \"context\": {\"git_revision\": \"" +
         std::string(kGitRevision) + "\", \"privrec_version\": \"" +
         std::string(kVersionString) + "\", \"mode\": \"" + mode +
         "\", \"threads\": " + std::to_string(threads) +
         ", \"artifact_shards\": " + std::to_string(shards) + "},\n";

  out += "  \"spec\": {\"seed\": " + std::to_string(spec.seed) +
         ", \"rps\": " + Num(spec.rps) +
         ", \"duration_ms\": " + std::to_string(spec.duration_ms) +
         ", \"num_users\": " + std::to_string(spec.num_users) +
         ", \"zipf_s\": " + Num(spec.zipf_s) +
         ", \"users_per_request\": " +
         std::to_string(spec.users_per_request) +
         ", \"top_n\": " + std::to_string(spec.top_n) +
         ", \"short_fraction\": " + Num(kShortDeadlineFraction) +
         ", \"deadline_short_ms\": " +
         std::to_string(spec.deadline_short_ms) +
         ", \"deadline_long_ms\": " + std::to_string(kDeadlineLongMs) +
         ", \"burst_factor\": " + Num(spec.burst_factor) +
         ", \"burst_period_ms\": " + std::to_string(spec.burst_period_ms) +
         ", \"burst_duration_ms\": " +
         std::to_string(spec.burst_duration_ms) +
         ", \"swap_period_ms\": " + std::to_string(swap_period_ms) +
         "},\n";

  out += "  \"results\": {\n";
  out += "    \"scheduled\": " + std::to_string(summary.scheduled) +
         ", \"ok\": " + std::to_string(summary.ok) +
         ", \"shed\": " + std::to_string(summary.shed) +
         ", \"expired\": " + std::to_string(summary.expired) +
         ", \"degraded\": " + std::to_string(summary.degraded) +
         ", \"other_errors\": " + std::to_string(summary.other_errors) +
         ",\n";
  out += "    \"correctness_violations\": " +
         std::to_string(summary.correctness_violations) + ",\n";
  // Virtual-mode latencies come from the harness's service model, not a
  // clock: their keys say so.
  const std::string latency_prefix = mode == "virtual" ? "modeled_" : "";
  out += "    \"" + latency_prefix +
         "latency_ms\": " + LatencyBlock(summary.latency) + ",\n";
  out += "    \"" + latency_prefix +
         "ok_latency_ms\": " + LatencyBlock(summary.ok_latency) + ",\n";
  out += "    \"swap\": {\"attempts\": " +
         std::to_string(summary.swap_attempts) +
         ", \"ok\": " + std::to_string(summary.swap_ok) +
         ", \"rejected\": " + std::to_string(summary.swap_rejected) +
         ", \"rollbacks\": " + std::to_string(summary.rollbacks) +
         ", \"pause_ms\": " + LatencyBlock(summary.swap_pause_ms) +
         "},\n";
  out += "    \"shed_rate\": " + Num(summary.shed_rate) +
         ", \"rollback_rate\": " + Num(summary.rollback_rate) +
         ", \"achieved_rps\": " + Num(summary.achieved_rps) +
         ", \"makespan_ms\": " + Num(summary.makespan_ms) +
         ", \"max_retry_after_ms\": " +
         std::to_string(summary.max_retry_after_ms) + "\n";
  out += "  },\n";

  out += "  \"slo\": {\"pass\": ";
  out += verdict.pass ? "true" : "false";
  out += ", \"budgets\": {\"p50_ms\": " + BudgetLine(budget.p50_ms) +
         ", \"p99_ms\": " + BudgetLine(budget.p99_ms) +
         ", \"p999_ms\": " + BudgetLine(budget.p999_ms) +
         ", \"max_shed_rate\": " + BudgetLine(budget.max_shed_rate) +
         ", \"max_rollback_rate\": " +
         BudgetLine(budget.max_rollback_rate) + ", \"min_ok\": " +
         std::to_string(kMinOk) + "}, \"failures\": [";
  for (size_t i = 0; i < verdict.failures.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + Escape(verdict.failures[i]) + "\"";
  }
  out += "]},\n";

  out += "  \"telemetry\": ";
  if (telemetry != nullptr) {
    out += "{\"recorded\": " + std::to_string(telemetry->recorded) +
           ", \"sampled\": " + std::to_string(telemetry->sampled) +
           ", \"dropped\": " + std::to_string(telemetry->dropped) +
           ", \"sample_every\": " +
           std::to_string(telemetry->sample_every) +
           ", \"window_ms\": " + std::to_string(telemetry->window_ms) +
           ", \"burn_rate\": " + Num(telemetry->burn_rate) +
           ", \"burn_alerts\": " +
           std::to_string(telemetry->series.alerts.size()) +
           ", \"windows\": " + obs::WindowSeriesToJson(telemetry->series) +
           "}";
  } else {
    out += "null";
  }
  out += "\n}\n";
  return out;
}

}  // namespace privrec::loadgen
