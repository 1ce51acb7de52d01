// stream_e2e — the ROADMAP unit of work at bench size, one fresh world
// per unit: seed → BlockStreamer → FileBlockStore on disk →
// ForensicPipeline over that file (windowed engine) → named clusters →
// §5. Generation is most of a unit, so work on sim, crypto and chain
// writes shows here first; pipeline_txs_per_s measures the windowed
// view engine.
#include <filesystem>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "sim/stream.hpp"

namespace fistbench {

using namespace fist;

namespace {

// The table_clusters_large population (2,000 users at daily activity
// 1.0, one halving mid-run), shrunk to 60 days (~20-25k txs) so that
// one run holds several seed-to-§5 units.
sim::WorldConfig stream_config(const RunRequest& req, int world) {
  sim::WorldConfig config;
  config.seed = world_seed(req.seed, world);
  config.days = req.days > 0 ? req.days : 60;
  config.users = 2000;
  config.user_daily_activity = 1.0;
  config.halving_interval = config.days * config.blocks_per_day / 2;
  return config;
}

constexpr std::uint32_t kWindowBlocks = 64;

PipelineOptions pipeline_options(unsigned lanes) {
  PipelineOptions options;
  options.threads = lanes;
  options.window_blocks = kWindowBlocks;
  options.recovery = RecoveryPolicy::Lenient;
  return options;
}

}  // namespace

Report run_stream_e2e(const RunRequest& req) {
  Report report;
  Tracer tracer;
  UnitSamples samples;
  LayerInputs layers;
  DigestLedger digests;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();

  const std::filesystem::path chain_path = req.work_dir / "chain.blk";
  Executor gen_exec(kLanes);
  GenTally gen;  // outlives the streamer whose nonce hook writes into it
  std::unique_ptr<sim::BlockStreamer> streamer;

  for (int k = 0; k < kWorlds; ++k) {
    streamer.reset();
    release_heap();
    const sim::WorldConfig config = stream_config(req, k);
    for (UnitLoop loop(req); loop.next();) {
      const bool traced = loop.traced_unit();
      tracer.set_recording(traced);
      const int run = tracer.begin_run();

      // Set-up: World construction (the seed's population and services).
      streamer.reset();
      const auto setup_t0 = Clock::now();
      streamer = std::make_unique<sim::BlockStreamer>(config, &gen_exec);
      samples.setup_ms.add(k, ms_since(setup_t0));
      const sim::World& world = streamer->world();

      Scope root(tracer, "stream_e2e");
      gen = GenTally{};
      if (traced) hook_nonce_miner(streamer->world(), gen_exec, tracer, gen);
      std::filesystem::remove(chain_path);
      std::filesystem::remove(chain_path.string() + ".sums");
      {
        const double rss0 = traced ? settled_rss_mib() : 0;
        Scope generate(tracer, "sim.generate");
        {
          FileBlockStore store(chain_path);
          for (;;) {
            std::optional<Block> block;
            {
              Scope next(tracer, "sim.next");
              block = streamer->next();
            }
            if (!block) break;
            Scope append(tracer, "chain.store_append");
            store.append(*block);
            gen.append_ms += append.close();
            ++gen.blocks;
            gen.overhead_bytes += block_overhead_bytes(*block);
          }
        }
        gen.gen_ms = generate.close();
        if (traced) gen.world_mib = rss_mib() - rss0;
      }
      gen.txs = world.tx_count();
      gen.store_bytes = std::filesystem::file_size(chain_path);

      FileBlockStore store(chain_path);
      TimedStore timed(store);
      const obs::Snapshot before =
          traced ? registry.snapshot() : obs::Snapshot{};
      const double rss1 = traced ? settled_rss_mib() : 0;
      ForensicPipeline pipe(traced ? static_cast<BlockStore&>(timed) : store,
                            world.tag_feed(), pipeline_options(kLanes));
      double pipeline_ms = 0;
      {
        Scope span(tracer, "pipeline.run");
        pipe.run();
        pipeline_ms = span.close();
        tracer.fold(pipe.trace(), span.id());
      }
      const double pipeline_mib = traced ? rss_mib() - rss1 : 0;
      const obs::Snapshot after =
          traced ? registry.snapshot() : obs::Snapshot{};
      const Forensics f = run_forensics(pipe.view(), pipe.h2(),
                                        pipe.clustering(), pipe.naming(),
                                        world.hoard(), world.thefts(), tracer);
      const double unit_ms = root.close();

      const ChainView& view = pipe.view();
      const auto view_txs = static_cast<double>(view.tx_count());
      if (traced) {
        samples.traced_ms.add(k, unit_ms);
        layers.runs = {run};
        layers.gen = gen;
        layers.forensics = f;
        layers.store_read_ms = timed.read_ms();
        layers.store_reads = timed.reads();
        layers.view_txs = view.tx_count();
        layers.view_blocks = view.block_count();
        layers.view_addresses = view.address_count();
        layers.h2_labels = pipe.h2().label_count();
        layers.exec_tasks = counter_delta(before, after, "exec.tasks");
        layers.exec_steals = counter_delta(before, after, "exec.steals");
        layers.pipeline_mib = pipeline_mib;
        layers.unattributed_ms = tracer.unattributed_ms(root.id());
      } else {
        samples.unit_ms.add(k, unit_ms);
        samples.gen_txs_per_s.add(
            k, static_cast<double>(gen.txs) / (gen.gen_ms / 1000));
        samples.pipeline_txs_per_s.add(k, view_txs / (pipeline_ms / 1000));
        samples.forensics_ms.add(k, f.total_ms);
        samples.forensics_txs_per_s.add(k, view_txs / (f.total_ms / 1000));
        samples.e2e_txs_per_s.add(k, view_txs / (unit_ms / 1000));
      }

      // Output checks (untimed).
      report.attempted += view.tx_count();
      report.failed +=
          pipe.ingest_report().txs.size() + pipe.ingest_report().blocks.size();
      report.check(view.tx_count() == gen.txs + gen.blocks,
                   "view txs == generated txs + blocks");
      report.check(pipe.clustering().cluster_count() <=
                           pipe.h1_clustering().cluster_count() &&
                       pipe.h1_clustering().cluster_count() <=
                           view.address_count(),
                   "final clusters <= H1 clusters <= addresses");
      digests.add(report, k,
                  result_digest(view, pipe.clustering(), pipe.h2(), f.summary));
    }

    // The threads=1 reference pass over the world's chain file. Its time
    // on the last world is core.pipeline_t1_ms.
    const sim::World& world = streamer->world();
    report.check(reference_digest(FileBlockStore(chain_path), world.tag_feed(),
                                  pipeline_options(1), world.hoard(),
                                  world.thefts(), layers.pipeline_t1_ms) ==
                     digests.of(k),
                 "threads=1 reference pass over world " + std::to_string(k) +
                     " gives the same digest");
    report.notes.push_back("world " + std::to_string(k) + ": " +
                           std::to_string(gen.txs) + " txs in " +
                           std::to_string(gen.blocks) + " blocks, digest " +
                           digests.of(k));
  }

  report.digest = digests.combined();
  if (req.traced) {
    layers.overhead_share = samples.overhead_share();
    report_layers(report, tracer, layers);
    render_trace(report, req, tracer);
  } else {
    report_end_to_end(report, samples);
  }
  return report;
}

}  // namespace fistbench
