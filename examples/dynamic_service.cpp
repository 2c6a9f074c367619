// A recommendation service over time: the dynamic-graph extension in
// example form.
//
// Simulates a service whose preference data grows week by week. The
// operator committed to ONE total privacy guarantee (ε_total) for the
// whole quarter, so every weekly re-release must be paid for by
// sequential composition — the DynamicRecommenderSession handles the
// accounting and refuses to release once the budget is gone.
//
// With --ledger=PATH the session journals every charge to a crash-safe
// write-ahead ledger: kill the process mid-quarter, rerun with the same
// flags, and it resumes at the correct cumulative ε without double-
// spending (a paid-but-unreleased week is re-derived from the same noise
// stream, not re-randomized). --faults arms the deterministic fault
// harness (see common/fault_injection.h) to rehearse exactly that:
//
//   ./dynamic_service [--weeks=8] [--total_epsilon=1.0]
//                     [--allocation=uniform|geometric]
//                     [--ledger=/tmp/quarter.ledger]
//                     [--faults='dynamic.after_journal=io_error@3']
//                     [--serve_stale]
//                     [--artifact-dir=/tmp/quarter_artifacts]
//
// --artifact-dir routes every weekly release through the two-phase
// pipeline: each snapshot is built into <dir>/snapshot_<t>.pvra and served
// from the saved artifact (bit-identical to the in-process path). The
// .pvra files are the quarter's audit trail — each records its ε_t, seed,
// and ledger id in its provenance section.
//
// With --artifact-dir the example also runs the resilient serving runtime
// (serve::ServeRuntime): every saved snapshot is HOT-RELOADED into a live
// runtime — gates, self-check probe, epoch publication — and a request
// batch is answered from the new epoch, so the printout shows the swap
// protocol working week over week. The --serve-* flags size the runtime:
//
//   --serve-deadline-ms --serve-queue-depth --serve-max-concurrency
//   --serve-breaker-failures --serve-breaker-cooldown-ms
//   --serve-reload-period (reload every Nth week; default every week)
//
// The runtime also carries the serving-telemetry sink: every request the
// weekly batches issue lands in the wide-event stream and the rolling SLO
// windows. --statusz-every=N dumps the live statusz page every N weeks
// (to --statusz-out=PATH, or stderr when unset); --telemetry-jsonl=PATH
// writes the sampled wide-event stream on exit.

#include <cstdio>
#include <string>

#include "common/fault_injection.h"
#include "common/driver_flags.h"
#include "common/experiment_inputs.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "core/dynamic_recommender.h"
#include "data/synthetic.h"
#include "eval/exact_reference.h"
#include "obs/export.h"
#include "serve/runtime.h"
#include "serve/statusz.h"
#include "serve/telemetry.h"

int main(int argc, char** argv) {
  using namespace privrec;
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  const int64_t weeks = flags.GetInt("weeks", 8);
  const double total_epsilon = flags.GetDouble("total_epsilon", 1.0);
  const std::string allocation =
      flags.GetString("allocation", "uniform");
  const std::string ledger_path = flags.GetString("ledger", "");
  const std::string faults = flags.GetString("faults", "");
  const bool serve_stale = flags.GetBool("serve_stale", false);
  const std::string artifact_dir = flags.GetString("artifact-dir", "");
  const ServeFlagSettings serve_settings = ApplyServeFlags(flags);
  const TelemetryFlagSettings tel_settings = ApplyTelemetryFlags(flags);
  if (!flags.Validate()) return 1;

  // The live runtime the quarter's snapshots are hot-swapped into. Weekly
  // ε legitimately varies under geometric allocation and the preference
  // graph grows every week, so this stream adopts each artifact's
  // provenance ε and does not pin the dataset fingerprint (a static-
  // dataset deployment would leave pin_graph_hash on).
  serve::ServeTelemetryOptions tel_options;
  tel_options.sample_every = tel_settings.sample_every;
  tel_options.slow_ms = tel_settings.slow_ms;
  tel_options.window_ms = tel_settings.window_ms;
  tel_options.budget.p99_ms = tel_settings.window_p99_ms;
  tel_options.budget.max_shed_rate = tel_settings.window_shed_rate;
  tel_options.budget.lookback = tel_settings.burn_lookback;
  tel_options.budget.burn_threshold = tel_settings.burn_threshold;
  serve::ServeTelemetry telemetry(tel_options);
  serve::ServeRuntimeOptions serve_options;
  serve_options.swap.adopt_artifact_epsilon = true;
  serve_options.swap.pin_graph_hash = false;
  serve_options.admission.queue_depth = serve_settings.queue_depth;
  serve_options.admission.max_concurrency = serve_settings.max_concurrency;
  serve_options.breaker.failure_threshold = serve_settings.breaker_failures;
  serve_options.breaker.cooldown_ms = serve_settings.breaker_cooldown_ms;
  serve_options.telemetry = &telemetry;
  serve::ServeRuntime runtime(serve_options);
  // Dumps the live statusz page: to --statusz-out (overwritten each time,
  // like a real /statusz endpoint) or stderr.
  auto dump_statusz = [&] {
    const std::string page = serve::StatuszText(runtime.Introspect());
    if (tel_settings.statusz_out.empty()) {
      std::fprintf(stderr, "%s", page.c_str());
      return;
    }
    std::string error;
    if (!obs::WriteTextFile(tel_settings.statusz_out, page, &error)) {
      std::fprintf(stderr, "statusz write failed: %s\n", error.c_str());
    }
  };
  const int64_t reload_every =
      serve_settings.reload_period > 0 ? serve_settings.reload_period : 1;

  // PRIVREC_FAULTS from the environment composes with --faults; the
  // explicit flag wins for points named in both.
  (void)fault::FaultInjector::Instance().ArmFromEnv();
  if (!faults.empty()) {
    Status armed = fault::FaultInjector::Instance().ArmFromSpec(faults);
    if (!armed.ok()) {
      std::fprintf(stderr, "--faults: %s\n", armed.ToString().c_str());
      return 1;
    }
  }

  // Shared driver prologue; the session re-clusters per snapshot itself.
  ExperimentInputsOptions inputs_options;
  inputs_options.tiny_users = 400;
  inputs_options.tiny_items = 500;
  inputs_options.tiny_seed = 77;
  inputs_options.run_louvain = false;
  auto inputs = LoadExperimentInputs(inputs_options);
  if (!inputs.ok()) {
    std::fprintf(stderr, "%s\n", inputs.status().ToString().c_str());
    return 1;
  }
  const data::Dataset& full = inputs->dataset;
  auto snapshots =
      data::GrowingPreferenceSnapshots(full.preferences, weeks, 78);
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < full.social.num_nodes(); u += 4) {
    users.push_back(u);
  }

  core::DynamicRecommenderOptions opt;
  opt.total_epsilon = total_epsilon;
  opt.planned_snapshots = weeks;
  opt.allocation = allocation == "geometric"
                       ? core::BudgetAllocation::kGeometric
                       : core::BudgetAllocation::kUniform;
  opt.louvain.restarts = 5;
  opt.seed = 79;
  opt.ledger_path = ledger_path;
  opt.serve_stale_on_exhaustion = serve_stale;
  opt.artifact_dir = artifact_dir;
  auto session = core::DynamicRecommenderSession::Open(opt);
  if (!session.ok()) {
    std::fprintf(stderr, "cannot open session: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  if (!ledger_path.empty() && session->snapshots_processed() > 0) {
    std::printf("resumed from %s: %lld weeks already released, "
                "epsilon spent %.3f\n",
                ledger_path.c_str(),
                static_cast<long long>(session->snapshots_processed()),
                session->epsilon_spent());
  }

  std::printf("quarterly guarantee: epsilon_total = %.2f, %s allocation, "
              "%lld weekly releases planned\n\n",
              total_epsilon, allocation.c_str(),
              static_cast<long long>(weeks));
  std::printf("%-6s %-10s %-10s %-12s %-10s %-8s %s\n", "week", "edges",
              "eps_t", "cumulative", "clusters", "NDCG@20", "notes");
  for (int64_t week = session->snapshots_processed(); week <= weeks;
       ++week) {  // one past the budget
    const graph::PreferenceGraph& prefs =
        snapshots[static_cast<size_t>(std::min(week, weeks - 1))];
    core::RecommenderContext context{&full.social, &prefs,
                                     &inputs->workload};
    auto release = session->ProcessSnapshot(context, users, 20);
    if (!release.ok()) {
      std::printf("%-6lld %s\n", static_cast<long long>(week),
                  release.status().ToString().c_str());
      if (release.status().code() == StatusCode::kIoError &&
          !ledger_path.empty()) {
        std::printf("\nthe charge is journaled in %s — rerun with the "
                    "same flags to resume without double-spending.\n",
                    ledger_path.c_str());
      }
      break;
    }
    std::string notes;
    if (release->stale) notes = "stale replay";
    if (release->resumed_from_intent) notes = "resumed paid release";
    if (!release->report.Clean()) {
      if (!notes.empty()) notes += "; ";
      notes += release->report.ToString();
    }
    eval::ExactReference reference =
        eval::ExactReference::Compute(context, users, 20);
    std::printf("%-6lld %-10lld %-10.3f %-12.3f %-10lld %-8.3f %s\n",
                static_cast<long long>(week),
                static_cast<long long>(prefs.num_edges()),
                release->epsilon_spent, release->cumulative_epsilon,
                static_cast<long long>(release->num_clusters),
                reference.MeanNdcg(release->lists), notes.c_str());

    // Hot-swap the just-saved snapshot into the live runtime and answer a
    // request batch from the new epoch. A gate or probe failure rolls the
    // swap back and the runtime keeps serving last week's epoch.
    if (!artifact_dir.empty() &&
        release->snapshot_index % reload_every == 0) {
      const std::string snapshot_path =
          artifact_dir + "/snapshot_" +
          std::to_string(release->snapshot_index) + ".pvra";
      Status swapped = runtime.Activate(snapshot_path);
      if (!swapped.ok()) {
        std::printf("       hot swap rolled back: %s (still serving epoch "
                    "%lld)\n",
                    swapped.ToString().c_str(),
                    static_cast<long long>(runtime.swapper().current_epoch()));
      } else {
        serve::ServeRequest request;
        request.users = users;
        request.top_n = 20;
        request.deadline_ms = serve_settings.deadline_ms;
        serve::ServeResponse response = runtime.Handle(request);
        std::printf("       hot swap -> epoch %lld (seed %llu, eps %.3f): "
                    "served %zu users%s\n",
                    static_cast<long long>(response.epoch),
                    static_cast<unsigned long long>(response.artifact_seed),
                    runtime.swapper().Acquire()->epsilon,
                    response.batch.lists.size(),
                    response.degraded_fallback ? " [degraded fallback]"
                                               : "");
      }
    }
    if (tel_settings.statusz_every > 0 &&
        week % tel_settings.statusz_every == 0) {
      dump_statusz();
    }
  }
  if (!artifact_dir.empty()) {
    std::printf("\nserving runtime: %lld swaps, %lld rollbacks, epoch %lld "
                "live%s%s\n",
                static_cast<long long>(runtime.swapper().swaps()),
                static_cast<long long>(runtime.swapper().rollbacks()),
                static_cast<long long>(runtime.swapper().current_epoch()),
                runtime.swapper().rollbacks() > 0 ? "; last error: " : "",
                runtime.swapper().rollbacks() > 0
                    ? runtime.swapper().last_error().c_str()
                    : "");
  }
  std::printf(
      "\nwith uniform allocation the session hard-stops after the planned "
      "releases; try --allocation=geometric for a session that never "
      "exhausts but decays instead, or --serve_stale to replay the last "
      "paid release when the budget runs dry.\n");
  telemetry.Flush(serve::SteadyClock::Instance()->NowMs());
  if (!tel_settings.jsonl.empty()) {
    std::string error;
    if (!obs::WriteTextFile(tel_settings.jsonl, telemetry.EventsJsonl(),
                            &error)) {
      std::fprintf(stderr, "telemetry jsonl write failed: %s\n",
                   error.c_str());
    }
  }
  return 0;
}
