// A long-running streaming recommendation service: the batch-snapshot
// dynamic session turned into a pipeline where the graph grows delta by
// delta, ε is never double-spent, and serving never stops.
//
// The driver generates a DETERMINISTIC delta schedule (a pure function of
// --seed and the delta index) and pushes it through a stream::StreamPipeline:
// every delta is WAL-journaled before it is applied, the Louvain partition
// is maintained incrementally, and the RepublishScheduler decides when a
// new artifact is worth a budget charge. Published artifacts are hot-swapped
// into a live serve::ServeRuntime and probed with a request batch.
//
// Because the schedule is deterministic and positioned by the ingester's
// replayed delta count, the SAME invocation doubles as crash recovery:
// kill the process at any point (e.g. with --faults), rerun with the same
// flags, and it resumes exactly where the journal left off. The final
// "state:" line prints the graph fingerprint the crash-recovery CI gate
// compares bit-for-bit against an uninterrupted reference run.
//
//   ./streaming_service [--dir=/tmp/privrec_stream] [--iters=120]
//                       [--users=120] [--items=90] [--seed=7]
//                       [--total_epsilon=1.0] [--planned=10]
//                       [--allocation=uniform|geometric] [--serve_stale]
//                       [--faults='stream.wal.append=io_error@9']
//                       [--stream-fsync-every=1]
//                       [--stream-drift-threshold=0.05]
//                       [--stream-republish-drift=0.05]
//                       [--stream-republish-growth=0.25]
//                       [--stream-republish-every=0]
//                       [--stream-min-deltas=8]
//                       [--audit-ledger]
//
// --audit-ledger re-derives all paid releases from the budget journal with
// dp::AuditLedgerReplay, prints the report, and exits nonzero on any
// double-spend violation — the post-crash invariant check the soak gate
// runs after every kill/restart cycle.
//
// Exit codes: 0 success, 1 usage/config error, 2 a fault-shaped I/O error
// interrupted the run (the "crash" the CI matrix induces on purpose).

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/driver_flags.h"
#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/random.h"
#include "dp/ledger.h"
#include "serve/runtime.h"
#include "stream/pipeline.h"

namespace {

using namespace privrec;

// The delta at schedule position `i` — a pure function of (seed, i), so a
// restarted process can fast-forward past everything the journal already
// holds and regenerate the rest bit-identically.
stream::WalRecord ScheduleRecord(uint64_t seed, int64_t i,
                                 graph::NodeId users, graph::ItemId items) {
  const uint64_t bits = SplitMix64(seed ^ (0x5bd1e995ull * //
                                           static_cast<uint64_t>(i + 1)));
  const uint64_t kind = bits % 100;
  const auto u = static_cast<graph::NodeId>((bits >> 8) % users);
  if (kind < 55) {
    graph::NodeId v = static_cast<graph::NodeId>((bits >> 32) % users);
    if (v == u) v = (v + 1) % users;
    return stream::WalRecord::AddSocial(u, v);
  }
  if (kind < 70) {
    graph::NodeId v = static_cast<graph::NodeId>((bits >> 24) % users);
    if (v == u) v = (v + 1) % users;
    return stream::WalRecord::RemoveSocial(u, v);
  }
  const auto item = static_cast<graph::ItemId>((bits >> 40) % items);
  if (kind < 92) {
    const double weight = 1.0 + static_cast<double>((bits >> 56) % 5);
    return stream::WalRecord::AddPreference(u, item, weight);
  }
  return stream::WalRecord::RemovePreference(u, item);
}

int CrashExit(const Status& status) {
  return status.code() == StatusCode::kIoError ? 2 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace privrec;
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  const std::string dir = flags.GetString("dir", "/tmp/privrec_stream");
  const int64_t iters = flags.GetInt("iters", 120);
  const auto num_users =
      static_cast<graph::NodeId>(flags.GetInt("users", 120));
  const auto num_items =
      static_cast<graph::ItemId>(flags.GetInt("items", 90));
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const double total_epsilon = flags.GetDouble("total_epsilon", 1.0);
  const int64_t planned = flags.GetInt("planned", 10);
  const std::string allocation = flags.GetString("allocation", "uniform");
  const bool serve_stale = flags.GetBool("serve_stale", true);
  const std::string faults = flags.GetString("faults", "");
  const bool audit_only = flags.GetBool("audit-ledger", false);
  const int64_t top_n = flags.GetInt("top_n", 10);
  stream::StreamPipelineOptions options;
  ApplyStreamFlags(flags, &options);
  serve::ServeRuntimeOptions serve_options;
  ApplyServeFlags(flags, &serve_options);
  const int64_t deadline_ms =
      flags.GetInt("serve-deadline-ms", serve::ServeRequest{}.deadline_ms);
  if (!flags.Validate()) return 1;

  const std::string ledger_path = dir + "/budget.ledger";

  // The audit runs BEFORE any pipeline state is touched: it must judge the
  // journal exactly as a crash left it.
  if (audit_only) {
    Result<dp::LedgerAuditReport> audit =
        dp::AuditLedgerReplay(ledger_path);
    if (!audit.ok()) {
      std::fprintf(stderr, "ledger audit failed: %s\n",
                   audit.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", audit->ToString().c_str());
    return audit->ok() ? 0 : 3;
  }

  (void)fault::FaultInjector::Instance().ArmFromEnv();
  if (!faults.empty()) {
    Status armed = fault::FaultInjector::Instance().ArmFromSpec(faults);
    if (!armed.ok()) {
      std::fprintf(stderr, "--faults: %s\n", armed.ToString().c_str());
      return 1;
    }
  }

  options.ingest.num_users = num_users;
  options.ingest.num_items = num_items;
  if (options.ingest.wal_path.empty()) {
    options.ingest.wal_path = dir + "/stream.wal";
  }
  options.session.total_epsilon = total_epsilon;
  options.session.planned_snapshots = planned;
  options.session.allocation = allocation == "geometric"
                                   ? core::BudgetAllocation::kGeometric
                                   : core::BudgetAllocation::kUniform;
  options.session.seed = SplitMix64(seed + 0x51ed);
  options.session.ledger_path = ledger_path;
  options.session.serve_stale_on_exhaustion = serve_stale;
  options.session.artifact_dir = dir + "/artifacts";

  // The WAL/ledger directory must exist before either journal opens.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create --dir '%s': %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // Live rollout target. The stream's ε varies per snapshot and the graph
  // grows continuously, so the runtime adopts each artifact's provenance ε
  // and does not pin the dataset fingerprint.
  serve_options.swap.adopt_artifact_epsilon = true;
  serve_options.swap.pin_graph_hash = false;
  serve::ServeRuntime runtime(serve_options);

  Result<stream::StreamPipeline> opened =
      stream::StreamPipeline::Open(options, &runtime);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open pipeline: %s\n",
                 opened.status().ToString().c_str());
    return CrashExit(opened.status());
  }
  stream::StreamPipeline pipeline = std::move(opened).value();

  std::vector<graph::NodeId> probe_users;
  for (graph::NodeId u = 0; u < num_users; u += 7) probe_users.push_back(u);

  const int64_t resumed = pipeline.ingester().delta_records();
  if (resumed > 0) {
    std::printf("resumed from %s: %lld deltas replayed, %lld snapshots "
                "committed, eps spent %.4f%s\n",
                options.ingest.wal_path.c_str(),
                static_cast<long long>(resumed),
                static_cast<long long>(pipeline.session().snapshots_processed()),
                pipeline.session().epsilon_spent(),
                pipeline.ingester().recovered_torn_tail()
                    ? " (torn WAL tail truncated)"
                    : "");
  }

  // Drain a paid-but-unreleased publish BEFORE new deltas arrive, so the
  // re-derived release covers the same graph prefix the crashed one did.
  bool exhausted = false;
  auto publish = [&](const char* why) -> Status {
    Result<stream::PublishOutcome> out =
        pipeline.Republish(probe_users, top_n);
    if (!out.ok()) {
      if (out.status().code() == StatusCode::kResourceExhausted) {
        std::printf("publish stopped: %s\n", out.status().ToString().c_str());
        exhausted = true;
        return Status::Ok();
      }
      return out.status();
    }
    std::printf("publish[%lld] (%s): eps_t=%.4f cumulative=%.4f "
                "clusters=%lld%s%s\n",
                static_cast<long long>(out->release.snapshot_index),
                out->reason.empty() ? why : out->reason.c_str(),
                out->release.epsilon_spent, out->release.cumulative_epsilon,
                static_cast<long long>(out->release.num_clusters),
                out->release.resumed_from_intent ? " [resumed paid release]"
                                                 : "",
                out->release.stale ? " [stale replay]" : "");
    if (!out->artifact_path.empty()) {
      if (!out->swapped) {
        std::printf("  swap rolled back: %s (epoch %lld still serving)\n",
                    out->swap_status.ToString().c_str(),
                    static_cast<long long>(
                        runtime.swapper().current_epoch()));
      } else {
        serve::ServeRequest request;
        request.users = probe_users;
        request.top_n = top_n;
        request.deadline_ms = deadline_ms;
        serve::ServeResponse response = runtime.Handle(request);
        std::printf("  epoch %lld live (seed %llu), probe served %zu "
                    "users\n",
                    static_cast<long long>(response.epoch),
                    static_cast<unsigned long long>(response.artifact_seed),
                    response.batch.lists.size());
      }
    }
    return Status::Ok();
  };

  if (pipeline.HasPendingRelease()) {
    Status drained = publish("resume");
    if (!drained.ok()) {
      std::fprintf(stderr, "resume publish failed: %s\n",
                   drained.ToString().c_str());
      return CrashExit(drained);
    }
  }

  for (int64_t i = resumed; i < iters; ++i) {
    const stream::WalRecord record =
        ScheduleRecord(seed, i, num_users, num_items);
    Status applied = Status::Ok();
    switch (record.type) {
      case stream::WalRecordType::kAddSocial:
        applied = pipeline.AddSocialEdge(record.a, record.b);
        break;
      case stream::WalRecordType::kRemoveSocial:
        applied = pipeline.RemoveSocialEdge(record.a, record.b);
        break;
      case stream::WalRecordType::kAddPreference:
        applied = pipeline.AddPreference(record.a, record.b,
                                         record.weight());
        break;
      case stream::WalRecordType::kRemovePreference:
        applied = pipeline.RemovePreference(record.a, record.b);
        break;
      default:
        break;
    }
    if (!applied.ok()) {
      std::fprintf(stderr, "delta %lld failed: %s\n",
                   static_cast<long long>(i),
                   applied.ToString().c_str());
      return CrashExit(applied);
    }
    if (!exhausted && !pipeline.RepublishDue().empty()) {
      Status published = publish("due");
      if (!published.ok()) {
        std::fprintf(stderr, "publish failed: %s\n",
                     published.ToString().c_str());
        return CrashExit(published);
      }
    }
  }

  // The line the crash-recovery gate compares against the uninterrupted
  // reference: the graph fingerprint and the community labels hash must be
  // bit-identical however many kill/restart cycles happened on the way.
  // Publish counts and cumulative ε may legitimately differ (at-least-once
  // publication re-arms after a crash between commit and mark), so they
  // are informational.
  std::printf("state: fingerprint=%016llx deltas=%lld social=%lld "
              "prefs=%lld modularity=%.9f clusters=%lld publishes=%lld "
              "eps_spent=%.6f\n",
              static_cast<unsigned long long>(
                  pipeline.ingester().GraphFingerprint()),
              static_cast<long long>(pipeline.ingester().delta_records()),
              static_cast<long long>(pipeline.ingester().social_edges()),
              static_cast<long long>(pipeline.ingester().preference_edges()),
              pipeline.community().modularity(),
              static_cast<long long>(
                  pipeline.community().partition().num_clusters()),
              static_cast<long long>(
                  pipeline.session().snapshots_processed()),
              pipeline.session().epsilon_spent());

  Result<dp::LedgerAuditReport> audit = dp::AuditLedgerReplay(ledger_path);
  if (!audit.ok()) {
    std::fprintf(stderr, "ledger audit failed: %s\n",
                 audit.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", audit->ToString().c_str());
  return audit->ok() ? 0 : 3;
}
