// batch_analyze — an analyst re-running the pipeline over a chain
// already in hand, as every bench/table* and ablation does. Set-up
// generates a world's chain in memory; each timed pass is a fresh
// ForensicPipeline over that store (window 0: the in-memory
// build_parallel engine, 4 lanes) followed by §5. Generation is outside
// the timed section, so the view, H2 and the analyses do the work.
#include <memory>

#include "bench.hpp"
#include "core/pipeline.hpp"

namespace fistbench {

using namespace fist;

namespace {

// The paper-table population (400 users at daily activity 0.5) over the
// paper-default 240 days (~65-70k txs per world).
sim::WorldConfig batch_config(const RunRequest& req, int world) {
  sim::WorldConfig config;
  config.seed = world_seed(req.seed, world);
  config.days = req.days > 0 ? req.days : 240;
  return config;
}

PipelineOptions pipeline_options(unsigned lanes) {
  PipelineOptions options;
  options.threads = lanes;
  options.window_blocks = 0;
  options.recovery = RecoveryPolicy::Lenient;
  return options;
}

}  // namespace

Report run_batch_analyze(const RunRequest& req) {
  Report report;
  Tracer tracer;
  UnitSamples samples;
  LayerInputs layers;
  DigestLedger digests;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();

  for (int k = 0; k < kWorlds; ++k) {
    release_heap();
    tracer.set_recording(req.traced);
    tracer.begin_run();
    Scope setup(tracer, "setup");
    const std::unique_ptr<Chain> chain =
        generate_chain(batch_config(req, k), tracer);
    samples.setup_ms.add(k, setup.close());
    samples.gen_txs_per_s.add(k, static_cast<double>(chain->gen.txs) /
                                     (chain->gen.gen_ms / 1000));

    for (UnitLoop loop(req); loop.next();) {
      const bool traced = loop.traced_unit();
      tracer.set_recording(traced);
      const int run = tracer.begin_run();
      TimedStore timed(chain->store);

      Scope root(tracer, "batch_analyze.pass");
      const obs::Snapshot before =
          traced ? registry.snapshot() : obs::Snapshot{};
      const double rss0 = traced ? settled_rss_mib() : 0;
      ForensicPipeline pipe(
          traced ? static_cast<BlockStore&>(timed) : chain->store,
          chain->feed, pipeline_options(kLanes));
      double pipeline_ms = 0;
      {
        Scope span(tracer, "pipeline.run");
        pipe.run();
        pipeline_ms = span.close();
        tracer.fold(pipe.trace(), span.id());
      }
      const double pipeline_mib = traced ? rss_mib() - rss0 : 0;
      const obs::Snapshot after =
          traced ? registry.snapshot() : obs::Snapshot{};
      const Forensics f = run_forensics(
          pipe.view(), pipe.h2(), pipe.clustering(), pipe.naming(),
          chain->hoard_record(), chain->thefts, tracer);
      const double unit_ms = root.close();

      const ChainView& view = pipe.view();
      const auto view_txs = static_cast<double>(view.tx_count());
      if (traced) {
        samples.traced_ms.add(k, unit_ms);
        layers.runs = {run};
        layers.gen = chain->gen;
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
        samples.pipeline_txs_per_s.add(k, view_txs / (pipeline_ms / 1000));
        samples.forensics_ms.add(k, f.total_ms);
        samples.forensics_txs_per_s.add(k, view_txs / (f.total_ms / 1000));
        samples.e2e_txs_per_s.add(k, view_txs / (unit_ms / 1000));
      }

      // Output checks (untimed).
      report.attempted += view.tx_count();
      report.failed +=
          pipe.ingest_report().txs.size() + pipe.ingest_report().blocks.size();
      digests.add(report, k,
                  result_digest(view, pipe.clustering(), pipe.h2(), f.summary));
    }

    // The threads=1 reference pass: the sequential engine must give the
    // same digest. Its time on the last world is core.pipeline_t1_ms.
    report.check(reference_digest(chain->store, chain->feed,
                                  pipeline_options(1), chain->hoard_record(),
                                  chain->thefts, layers.pipeline_t1_ms) ==
                     digests.of(k),
                 "threads=1 reference pass over world " + std::to_string(k) +
                     " gives the same digest");
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
  }
  return report;
}

}  // namespace fistbench
