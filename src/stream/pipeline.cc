#include "stream/pipeline.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "similarity/common_neighbors.h"
#include "similarity/workload.h"

namespace privrec::stream {

Result<StreamPipeline> StreamPipeline::Open(
    const StreamPipelineOptions& options, serve::ServeRuntime* runtime) {
  StreamPipeline pipeline;
  pipeline.options_ = options;
  pipeline.runtime_ = runtime;
  pipeline.community_ = std::make_unique<community::IncrementalCommunity>(
      options.ingest.num_users, options.community);
  pipeline.scheduler_ =
      std::make_unique<RepublishScheduler>(options.republish);

  // The observer wires every record — replayed and live — into the
  // maintainer and the scheduler, so both are pure functions of the
  // journal prefix. Raw pointers stay valid across pipeline moves (the
  // targets are heap-owned).
  community::IncrementalCommunity* community = pipeline.community_.get();
  RepublishScheduler* scheduler = pipeline.scheduler_.get();
  EdgeStreamIngester::DeltaObserver observer =
      [community, scheduler](const WalRecord& record,
                             const EdgeStreamIngester& ingester) {
        switch (record.type) {
          case WalRecordType::kAddSocial:
            community->AddEdge(record.a, record.b);
            break;
          case WalRecordType::kRemoveSocial:
            community->RemoveEdge(record.a, record.b);
            break;
          default:
            break;
        }
        scheduler->Observe(record, community->modularity(),
                           ingester.social_edges() +
                               ingester.preference_edges());
      };

  Result<EdgeStreamIngester> ingester =
      EdgeStreamIngester::Open(options.ingest, std::move(observer));
  if (!ingester.ok()) return ingester.status();
  pipeline.ingester_ =
      std::make_unique<EdgeStreamIngester>(std::move(ingester).value());

  Result<core::DynamicRecommenderSession> session =
      core::DynamicRecommenderSession::Open(options.session);
  if (!session.ok()) return session.status();
  pipeline.session_.emplace(std::move(session).value());
  pipeline.publishes_ = pipeline.session_->snapshots_processed();
  return pipeline;
}

Status StreamPipeline::AddSocialEdge(graph::NodeId u, graph::NodeId v) {
  return ingester_->AddSocialEdge(u, v);
}

Status StreamPipeline::RemoveSocialEdge(graph::NodeId u, graph::NodeId v) {
  return ingester_->RemoveSocialEdge(u, v);
}

Status StreamPipeline::AddPreference(graph::NodeId user, graph::ItemId item,
                                     double weight) {
  return ingester_->AddPreference(user, item, weight);
}

Status StreamPipeline::RemovePreference(graph::NodeId user,
                                        graph::ItemId item) {
  return ingester_->RemovePreference(user, item);
}

bool StreamPipeline::HasPendingRelease() const {
  const dp::BudgetLedger* ledger = session_->ledger();
  if (ledger == nullptr) return false;
  const int64_t t = session_->snapshots_processed();
  return ledger->HasIntent(t) && !ledger->IsCommitted(t);
}

std::string StreamPipeline::RepublishDue() const {
  if (HasPendingRelease()) {
    return "resume: journaled-but-uncommitted intent for snapshot " +
           std::to_string(session_->snapshots_processed());
  }
  return scheduler_->DueReason();
}

Result<PublishOutcome> StreamPipeline::Republish(
    const std::vector<graph::NodeId>& users, int64_t top_n) {
  PRIVREC_SPAN("stream.republish");
  PublishOutcome outcome;
  outcome.reason = RepublishDue();
  if (outcome.reason.empty()) outcome.reason = "manual";

  // Snapshot the live state. The partition comes from the incremental
  // maintainer — deterministic from the journal prefix, which is what
  // keeps a resumed (paid-but-unreleased) publish bit-identical.
  graph::SocialGraph social = ingester_->BuildSocialGraph();
  graph::PreferenceGraph preferences = ingester_->BuildPreferenceGraph();
  similarity::SimilarityWorkload workload =
      similarity::SimilarityWorkload::Compute(social,
                                              similarity::CommonNeighbors());
  core::RecommenderContext context{&social, &preferences, &workload};
  const community::Partition partition = community_->partition();

  Result<core::SnapshotRelease> release =
      session_->ProcessSnapshot(context, users, top_n, &partition);
  if (!release.ok()) return release.status();
  outcome.release = std::move(release).value();

  static obs::Counter& published =
      obs::GetCounter("privrec.stream.publishes");
  static obs::Counter& stale =
      obs::GetCounter("privrec.stream.stale_replays");
  if (outcome.release.stale) {
    // Budget exhausted: the session replayed the last paid release at zero
    // ε. Stop burning workload computations on automatic triggers.
    stale.Increment();
    scheduler_->MuteExhausted();
    return outcome;
  }
  published.Increment();
  ++publishes_;

  if (!options_.session.artifact_dir.empty()) {
    outcome.artifact_path = core::SnapshotArtifactPath(
        options_.session.artifact_dir, outcome.release.snapshot_index);
    if (runtime_ != nullptr) {
      outcome.swap_status = runtime_->Activate(outcome.artifact_path);
      outcome.swapped = outcome.swap_status.ok();
      if (!outcome.swapped) {
        static obs::Counter& failed_swaps =
            obs::GetCounter("privrec.stream.failed_swaps");
        failed_swaps.Increment();
      }
    }
  }

  // Journal the publish mark AFTER the commit: replay restores the
  // scheduler baselines; a crash landing before this line merely re-arms
  // the trigger (at-least-once publication).
  Status marked = ingester_->MarkPublish(outcome.release.snapshot_index);
  if (!marked.ok()) return marked;
  return outcome;
}

}  // namespace privrec::stream
