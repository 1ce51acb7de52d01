// bench.hpp — shared pieces of the fistful benchmark (fistbench).
//
// fistbench runs one named workload at one seed through the library's
// public API. An untraced run reports the end-to-end metrics; a traced
// run reports the per-layer metrics. All timing and tracing lives on
// this side of the API: the library gains no span or counter for the
// benchmark, and the library spans it does record (ForensicPipeline's
// stage tree, ChainView / Heuristic-2 phases) are folded in from
// outside.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chain/blockstore.hpp"
#include "chain/view.hpp"
#include "cluster/clustering.hpp"
#include "cluster/heuristic2.hpp"
#include "core/executor.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/span.hpp"
#include "core/pipeline.hpp"
#include "sim/world.hpp"
#include "tag/naming.hpp"

namespace fistbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `t0`.
double ms_since(Clock::time_point t0);

/// Concurrency lanes of the parallel workloads (the 4-vCPU reference
/// box's nproc).
inline constexpr unsigned kLanes = 4;

/// One invocation of fistbench.
struct RunRequest {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool traced = false;
  /// Self-test override of the workload's simulated days (0 keeps the
  /// workload's own size).
  int days = 0;
  /// Scratch directory for chain files and index directories.
  std::filesystem::path work_dir;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run produced.
struct Report {
  /// The contract metrics: every end-to-end metric of BENCHMARK.json in
  /// an untraced run, every per-layer metric in a traced run.
  std::map<std::string, Metric> metrics;
  /// Further numbers for the readable report (workload-specific ones
  /// that have no value on the other workloads).
  std::map<std::string, Metric> extras;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::string digest;
  /// Traced runs: the span list and per-layer metrics as JSON.
  std::string trace_json;

  /// Records one output check: a failure counts in `failed` and fails
  /// the run.
  void check(bool ok, const std::string& what);
};

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// Resident set size now (VmRSS), MiB.
double rss_mib();
/// Hands freed heap pages back to the OS (glibc malloc_trim). Called
/// between worlds, so one world's peak does not sit on what the world
/// before it left cached in the allocator.
void release_heap();
/// rss_mib() after release_heap(), so growth from here counts what the
/// next call touches, not what earlier units left in the allocator.
double settled_rss_mib();
/// Peak resident set size so far (VmHWM), MiB.
double peak_rss_mib();

/// Kernel rate of sha256() over a fixed buffer, MB/s.
double sha256_mb_per_s();

/// Bytes a block store spends on one block besides its serialized
/// transactions: the 8-byte record frame, the 80-byte header and the
/// transaction count. Σ over the chain, subtracted from the store size,
/// gives crypto.tx_bytes without serializing anything again.
std::uint64_t block_overhead_bytes(const fist::Block& block);

/// Counter / histogram-sum differences between two registry snapshots:
/// the registry is process-wide, so every count is scoped to the call
/// it brackets.
std::uint64_t counter_delta(const fist::obs::Snapshot& before,
                            const fist::obs::Snapshot& after,
                            std::string_view name);
double histogram_sum_delta(const fist::obs::Snapshot& before,
                           const fist::obs::Snapshot& after,
                           std::string_view name);

/// One span of a traced run. Times are ms since the tracer started.
struct SpanRecord {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  std::int64_t parent = -1;
  int run = 0;
  /// Folded from a library obs::Trace, which records durations only:
  /// the duration is measured, the start is laid out back to back
  /// under the parent.
  bool derived = false;
};

/// In-memory span recorder. Spans opened while another is open become
/// its children; each set-up and each timed unit of work gets its own
/// run id. A tracer that is not recording keeps nothing.
class Tracer {
 public:
  Tracer();

  void set_recording(bool on) noexcept { recording_ = on; }
  bool recording() const noexcept { return recording_; }

  /// Starts a new run id and returns it.
  int begin_run() noexcept { return ++run_; }

  std::int64_t open(std::string_view name);
  void close(std::int64_t id);

  /// Appends the spans a library call recorded under `parent`.
  void fold(const fist::obs::Trace& trace, std::int64_t parent);

  /// Σ duration of the spans of `runs` carrying any of `names`.
  double sum_ms(const std::vector<int>& runs,
                std::initializer_list<std::string_view> names) const;

  /// A root's duration minus Σ of its direct children.
  double unattributed_ms(std::int64_t root) const;

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

 private:
  Clock::time_point origin_;
  bool recording_ = false;
  int run_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> stack_;
};

/// Times a scope, and records it as a span when the tracer records.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name);
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Stops the timer (idempotent) and returns the elapsed ms.
  double close();
  std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  std::int64_t id_;
  double ms_ = 0;
  bool closed_ = false;
};

/// Forwards to another store and times read(). The view stage reads on
/// executor lanes, so the totals are atomic and sum busy time across
/// lanes.
class TimedStore final : public fist::BlockStore {
 public:
  explicit TimedStore(fist::BlockStore& inner) : inner_(inner) {}
  std::size_t append(const fist::Block& block) override {
    return inner_.append(block);
  }
  fist::Block read(std::size_t index) const override;
  std::size_t count() const noexcept override { return inner_.count(); }

  double read_ms() const noexcept {
    return static_cast<double>(read_ns_.load()) / 1e6;
  }
  std::uint64_t reads() const noexcept { return reads_.load(); }

 private:
  fist::BlockStore& inner_;
  mutable std::atomic<std::uint64_t> read_ns_{0};
  mutable std::atomic<std::uint64_t> reads_{0};
};

/// Worlds per run. A run measures this many worlds seeded from --seed,
/// one after another (set-up, then a third of the run's seconds of
/// units), so the chain shape of one seed moves the result less.
inline constexpr int kWorlds = 3;

/// Seed of world `k` of a run; world 0 is the --seed world itself.
std::uint64_t world_seed(std::uint64_t seed, int k);

/// The closed timed loop over one world: one caller runs unit after
/// unit of work until the world's share of the run's seconds has
/// elapsed. A traced run alternates untraced and traced units and ends
/// on a traced one, so the tracing overhead is measured within the run.
class UnitLoop {
 public:
  explicit UnitLoop(const RunRequest& req);
  /// True when another unit should run.
  bool next();
  bool traced_unit() const noexcept { return traced_ && done_ % 2 == 1; }

 private:
  Clock::time_point start_;
  double seconds_;
  bool traced_;
  int done_ = -1;
};

/// Samples of one quantity by world, reported as the mean over the
/// worlds of each world's median.
class Samples {
 public:
  void add(int world, double value) { by_world_[world].push_back(value); }
  double value() const;
  /// Number of samples over all worlds.
  std::size_t count() const;

 private:
  std::map<int, std::vector<double>> by_world_;
};

/// Result digests by world: every unit over one world must agree.
class DigestLedger {
 public:
  /// Records a unit's digest as one output check.
  void add(Report& report, int world, const std::string& digest);
  const std::string& of(int world) const { return digests_.at(world); }
  /// Hex SHA-256 over the worlds' digests in world order.
  std::string combined() const;

 private:
  std::map<int, std::string> digests_;
};

/// Per-layer tallies of one chain generation.
struct GenTally {
  std::uint64_t blocks = 0;
  std::uint64_t txs = 0;
  std::uint64_t pow_nonces = 0;
  std::uint64_t overhead_bytes = 0;  ///< Σ block_overhead_bytes
  std::uint64_t store_bytes = 0;
  double gen_ms = 0;
  double pow_ms = 0;
  double append_ms = 0;
  double world_mib = 0;
};

/// Replaces the world's nonce search with sim::mine_nonce over `exec`
/// (the same smallest valid nonce), timed as "sim.pow" spans and with
/// the nonces tried counted into `tally`.
void hook_nonce_miner(fist::sim::World& world, fist::Executor& exec,
                      Tracer& tracer, GenTally& tally);

/// A generated chain as an analyst holds it: the blocks, the tag feed
/// and the public case-study records §5 starts from. The World that
/// made it is gone.
struct Chain {
  fist::MemoryBlockStore store;
  std::vector<fist::TagEntry> feed;
  std::optional<fist::sim::HoardRecord> hoard;
  std::vector<fist::sim::TheftRecord> thefts;
  GenTally gen;

  const fist::sim::HoardRecord* hoard_record() const {
    return hoard ? &*hoard : nullptr;
  }
};

/// The set-up of batch_analyze and live_tail: builds and runs `config`'s
/// World in memory (World::run()), its blocks landing in the chain's
/// store through the block sink so each append is timed. The traced
/// form also hooks the nonce search.
std::unique_ptr<Chain> generate_chain(const fist::sim::WorldConfig& config,
                                      Tracer& tracer);

/// Result of the §5 analyses over one set of named clusters.
struct Forensics {
  double balances_ms = 0;
  double graph_ms = 0;
  double peel_ms = 0;
  double theft_ms = 0;
  double total_ms = 0;
  std::uint64_t peel_hops = 0;
  std::uint64_t theft_txs = 0;
  /// Canonical text of the results (for the run digest).
  std::string summary;
};

/// Runs §5: weekly category balances (Fig. 2), the user graph and its
/// category inflow shares (chokepoints), the hoard's three peeling
/// chains at 115 hops (Table 2), and every theft (Table 3). Starting
/// points come from the public case-study records, as in bench/table*;
/// `hoard` may be null.
Forensics run_forensics(const fist::ChainView& view, const fist::H2Result& h2,
                        const fist::Clustering& clustering,
                        const fist::ClusterNaming& naming,
                        const fist::sim::HoardRecord* hoard,
                        const std::vector<fist::sim::TheftRecord>& thefts,
                        Tracer& tracer);

/// A threads=1 reference pass: ForensicPipeline with `options` over
/// `store`, then §5; returns its result digest and sets `pipeline_ms`
/// to the pipeline's wall time.
std::string reference_digest(const fist::BlockStore& store,
                             const std::vector<fist::TagEntry>& feed,
                             const fist::PipelineOptions& options,
                             const fist::sim::HoardRecord* hoard,
                             const std::vector<fist::sim::TheftRecord>& thefts,
                             double& pipeline_ms);

/// Hex SHA-256 over the view image, the final partition, the H2 labels
/// and the §5 summary: equal across lanes and engines for one seed, so
/// two commits compare by it.
std::string result_digest(const fist::ChainView& view,
                          const fist::Clustering& clustering,
                          const fist::H2Result& h2,
                          const std::string& forensics_summary);

/// Measurements of a traced run that feed the per-layer metrics.
struct LayerInputs {
  /// Run ids whose spans hold the view, cluster and tag stages.
  std::vector<int> runs;
  GenTally gen;
  Forensics forensics;
  double store_read_ms = 0;
  std::uint64_t store_reads = 0;
  std::uint64_t view_txs = 0;
  std::uint64_t view_blocks = 0;
  std::uint64_t view_addresses = 0;
  std::uint64_t h2_labels = 0;
  std::uint64_t exec_tasks = 0;
  std::uint64_t exec_steals = 0;
  double pipeline_t1_ms = 0;
  double pipeline_mib = 0;
  double unattributed_ms = 0;
  double overhead_share = 0;
};

/// Sets every per-layer metric of BENCHMARK.json.
void report_layers(Report& report, const Tracer& tracer,
                   const LayerInputs& in);

/// Per-unit measurements of an untraced run that feed the end-to-end
/// metrics.
struct UnitSamples {
  Samples setup_ms;
  Samples unit_ms;
  Samples gen_txs_per_s;
  Samples pipeline_txs_per_s;
  Samples forensics_ms;
  Samples forensics_txs_per_s;
  Samples e2e_txs_per_s;
  /// Traced unit times of a traced run.
  Samples traced_ms;

  /// (traced − untraced) ÷ untraced unit time.
  double overhead_share() const;
};

/// Sets every end-to-end metric of BENCHMARK.json, plus the readable
/// extras e2e_s and forensics_ms.
void report_end_to_end(Report& report, const UnitSamples& samples);

/// `{"name": {"value": v, "unit": "u"}, ...}`, numbers with all their
/// digits.
std::string metrics_json(const std::map<std::string, Metric>& metrics);

/// Writes the trace document (spans + per-layer metrics) into
/// report.trace_json.
void render_trace(Report& report, const RunRequest& req,
                  const Tracer& tracer);

Report run_stream_e2e(const RunRequest& req);
Report run_batch_analyze(const RunRequest& req);
Report run_live_tail(const RunRequest& req);

}  // namespace fistbench
