// live_tail — the incremental path. Set-up generates the paper-default
// chain in memory; each timed tail feeds a fresh LiveIndex every block
// through append(), snapshots after every 256th append, then names the
// clusters as `fistctl live` does and runs §5 over them. The index is
// single-threaded by contract: apply_delta's per-block engine and the
// IncrementalClusterer run beside the durable writes (delta log and
// snapshots), so the view layer is written here, not read.
#include <filesystem>
#include <memory>
#include <unordered_set>

#include "bench.hpp"
#include "cluster/heuristic1.hpp"
#include "core/live_index.hpp"
#include "core/pipeline.hpp"

namespace fistbench {

using namespace fist;

namespace {

// The paper-default world: 400 users, 240 days = 2,880 blocks.
sim::WorldConfig live_config(const RunRequest& req, int world) {
  sim::WorldConfig config;
  config.seed = world_seed(req.seed, world);
  config.days = req.days > 0 ? req.days : 240;
  return config;
}

constexpr std::size_t kSnapshotEvery = 256;

/// Bytes of everything in the index directory but the delta log: the
/// snapshot image, its sidecar and the manifest one snapshot() wrote.
std::uint64_t snapshot_bytes(const std::filesystem::path& dir,
                             const std::filesystem::path& log) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file() && entry.path() != log)
      total += entry.file_size();
  return total;
}

}  // namespace

Report run_live_tail(const RunRequest& req) {
  Report report;
  Tracer tracer;
  UnitSamples samples;
  LayerInputs layers;
  Samples blocks_per_s;
  std::vector<double> latency_ms;  // per block: append() + due snapshot
  DigestLedger digests;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::filesystem::path dir = req.work_dir / "live";

  for (int k = 0; k < kWorlds; ++k) {
    release_heap();
    tracer.set_recording(req.traced);
    tracer.begin_run();
    Scope setup(tracer, "setup");
    const std::unique_ptr<Chain> chain =
        generate_chain(live_config(req, k), tracer);
    samples.setup_ms.add(k, setup.close());
    samples.gen_txs_per_s.add(k, static_cast<double>(chain->gen.txs) /
                                     (chain->gen.gen_ms / 1000));
    const std::vector<TagEntry>& feed = chain->feed;
    std::unique_ptr<LiveIndex> index;
    LiveIndex::Options options;
    int tail_run = 0;

    for (UnitLoop loop(req); loop.next();) {
      const bool traced = loop.traced_unit();
      tracer.set_recording(traced);
      const int run = tracer.begin_run();
      index.reset();
      std::filesystem::remove_all(dir);
      TimedStore timed(chain->store);
      const BlockStore& source =
          traced ? static_cast<BlockStore&>(timed) : chain->store;

      Scope root(tracer, "live_tail.tail");
      options = LiveIndex::Options{};
      options.h2 = refined_h2_options();
      options.recovery = RecoveryPolicy::Lenient;
      {
        // The live path's dice set: the feed's gambling addresses.
        Scope span(tracer, "dice");
        for (const TagEntry& entry : feed)
          if (entry.tag.category == Category::Gambling)
            options.dice_addresses.push_back(entry.address);
      }
      index = std::make_unique<LiveIndex>(dir, options);
      const obs::Snapshot before =
          traced ? registry.snapshot() : obs::Snapshot{};
      const double rss0 = traced ? settled_rss_mib() : 0;
      double append_ms = 0;
      double snapshot_ms = 0;
      std::uint64_t snapshot_written = 0;
      {
        Scope appends(tracer, "live.appends");
        for (std::size_t i = 0; i < source.count(); ++i) {
          const Block block = source.read(i);
          Scope append(tracer, "live.append");
          index->append(block);
          double block_ms = append.close();
          append_ms += block_ms;
          if ((i + 1) % kSnapshotEvery == 0) {
            Scope snapshot(tracer, "live.snapshot");
            index->snapshot();
            const double ms = snapshot.close();
            snapshot_ms += ms;
            block_ms += ms;
            if (traced)
              snapshot_written += snapshot_bytes(dir, index->log().path());
          }
          if (!traced) latency_ms.push_back(block_ms);
        }
      }
      const double live_mib = traced ? rss_mib() - rss0 : 0;
      const obs::Snapshot after =
          traced ? registry.snapshot() : obs::Snapshot{};

      // Named clusters, as `fistctl live` derives them from the index.
      const ChainView& view = index->view();
      const Clustering clustering = [&] {
        Scope span(tracer, "live.clusters");
        return index->clusterer().clustering();
      }();
      const H2Result h2 = [&] {
        Scope span(tracer, "live.h2_result");
        return index->clusterer().h2_result();
      }();
      TagStore tags;
      {
        Scope span(tracer, "tags");
        for (const TagEntry& entry : feed)
          if (auto id = view.addresses().find(entry.address))
            tags.add(*id, entry.tag);
      }
      const ClusterNaming naming = [&] {
        Scope span(tracer, "naming");
        return ClusterNaming(clustering.assignment(), clustering.sizes(),
                             tags);
      }();
      const Forensics f = run_forensics(
          view, h2, clustering, naming,
          chain->hoard_record(), chain->thefts, tracer);
      const double unit_ms = root.close();

      const auto view_txs = static_cast<double>(view.tx_count());
      const double tail_ms = append_ms + snapshot_ms;
      if (traced) {
        samples.traced_ms.add(k, unit_ms);
        tail_run = run;
        layers.gen = chain->gen;
        layers.forensics = f;
        layers.store_read_ms = timed.read_ms();
        layers.store_reads = timed.reads();
        layers.view_txs = view.tx_count();
        layers.view_blocks = view.block_count();
        layers.view_addresses = view.address_count();
        layers.h2_labels = h2.label_count();
        layers.exec_tasks = counter_delta(before, after, "exec.tasks");
        layers.exec_steals = counter_delta(before, after, "exec.steals");
        layers.pipeline_mib = live_mib;
        layers.unattributed_ms = tracer.unattributed_ms(root.id());

        const double apply_ms =
            histogram_sum_delta(before, after, "delta.apply_micros") / 1000;
        auto extra = [&report](const char* name, double value,
                               const char* unit) {
          report.extras[name] = Metric{value, unit};
        };
        auto delta = [&](const char* counter) {
          return static_cast<double>(counter_delta(before, after, counter));
        };
        extra("live.apply_ms", apply_ms, "ms");
        extra("live.wal_ms", append_ms - apply_ms, "ms");
        extra("live.snapshot_ms", snapshot_ms, "ms");
        extra("live.snapshots", delta("delta.snapshots"), "count");
        extra("live.final_rebuilds", delta("delta.final_rebuilds"), "count");
        extra("live.reevaluated_per_tx", delta("delta.reevaluated") / view_txs,
              "ratio");
        extra("live.write_amp",
              static_cast<double>(
                  std::filesystem::file_size(index->log().path()) +
                  snapshot_written) /
                  static_cast<double>(chain->store.byte_size()),
              "ratio");
        extra("live.log_retries", delta("delta.log.retries"), "count");
      } else {
        samples.unit_ms.add(k, unit_ms);
        samples.pipeline_txs_per_s.add(k, view_txs / (tail_ms / 1000));
        samples.forensics_ms.add(k, f.total_ms);
        samples.forensics_txs_per_s.add(k, view_txs / (f.total_ms / 1000));
        samples.e2e_txs_per_s.add(k, view_txs / (unit_ms / 1000));
        blocks_per_s.add(k, static_cast<double>(view.block_count()) /
                                (tail_ms / 1000));
      }

      // Output checks (untimed).
      report.attempted += view.tx_count();
      report.failed += index->quarantined_deltas().size() +
                       index->ingest_report().txs.size() +
                       index->ingest_report().blocks.size();
      digests.add(report, k, result_digest(view, clustering, h2, f.summary));
    }

    // The threads=1 reference over the last tail's final view: a batch
    // build of the same chain, then apply_heuristic1 / apply_heuristic2
    // with the same dice set, each against the incremental result. Its
    // spans on the last world feed the view and cluster layers.
    {
      tracer.set_recording(req.traced);
      const int ref_run = tracer.begin_run();
      layers.runs = {tail_run, ref_run};
      const ChainView& live_view = index->view();
      const IncrementalClusterer& incremental = index->clusterer();
      Scope reference(tracer, "reference");

      ChainView batch_view;
      {
        Scope span(tracer, "view");
        obs::Trace trace;
        {
          obs::TraceScope scope(trace);
          batch_view = ChainView::build(chain->store);
        }
        span.close();
        tracer.fold(trace, span.id());
      }
      report.check(batch_view.serialize() == live_view.serialize(),
                   "live view image == batch build image");

      UnionFind uf(live_view.address_count());
      {
        Scope span(tracer, "h1");
        apply_heuristic1(live_view, uf);
      }
      UnionFind h1_forest = uf;
      report.check(Clustering::from_union_find(h1_forest).assignment() ==
                       incremental.h1_clustering().assignment(),
                   "incremental H1 partition == apply_heuristic1");

      H2Result h2;
      {
        Scope span(tracer, "h2");
        std::unordered_set<AddrId> dice;
        for (const Address& a : options.dice_addresses)
          if (auto id = live_view.addresses().find(a)) dice.insert(*id);
        obs::Trace trace;
        {
          obs::TraceScope scope(trace);
          h2 = apply_heuristic2(live_view, options.h2, dice);
        }
        span.close();
        tracer.fold(trace, span.id());
      }
      const H2Result live_h2 = incremental.h2_result();
      bool same_labels = h2.labels.size() == live_h2.labels.size() &&
                         h2.change_of_tx == live_h2.change_of_tx;
      for (std::size_t i = 0; same_labels && i < h2.labels.size(); ++i)
        same_labels = h2.labels[i].tx == live_h2.labels[i].tx &&
                      h2.labels[i].change == live_h2.labels[i].change;
      report.check(same_labels,
                   "h2_result() == apply_heuristic2 with the same dice set");

      {
        Scope span(tracer, "finalize");
        {
          Scope unite(tracer, "finalize.unite");
          unite_h2_labels(live_view, h2, uf);
        }
        Scope clusters(tracer, "finalize.clusters");
        report.check(Clustering::from_union_find(uf).assignment() ==
                         incremental.clustering().assignment(),
                     "incremental final partition == H1 + H2 labels");
      }
      layers.pipeline_t1_ms = reference.close();
    }

    // Reopening the directory resumes at the last block.
    index.reset();
    tracer.set_recording(false);
    report.check(LiveIndex(dir, options).epoch() == chain->store.count(),
                 "reopened index resumes at epoch == block count");
    report.notes.push_back("world " + std::to_string(k) + ": " +
                           std::to_string(chain->gen.txs) + " txs in " +
                           std::to_string(chain->gen.blocks) +
                           " blocks, digest " + digests.of(k));
  }

  report.digest = digests.combined();
  if (req.traced) {
    layers.overhead_share = samples.overhead_share();
    report_layers(report, tracer, layers);
    render_trace(report, req, tracer);
  } else {
    report_end_to_end(report, samples);
    report.extras["live_blocks_per_s"] = Metric{blocks_per_s.value(), "blocks/s"};
    report.extras["live_append_p50_ms"] =
        Metric{quantile(latency_ms, 0.50), "ms"};
    report.extras["live_append_p99_ms"] =
        Metric{quantile(latency_ms, 0.99), "ms"};
    report.extras["live_append_samples"] =
        Metric{static_cast<double>(latency_ms.size()), "count"};
  }
  return report;
}

}  // namespace fistbench
