#include "bench.hpp"

#include <malloc.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <string>

#include "analysis/balances.hpp"
#include "analysis/graph.hpp"
#include "analysis/peeling.hpp"
#include "analysis/theft.hpp"
#include "core/obs/export.hpp"
#include "core/obs/rss.hpp"
#include "crypto/sha256.hpp"
#include "sim/stream.hpp"
#include "util/hex.hpp"

namespace fistbench {

using namespace fist;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  check_failures.push_back(what);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void release_heap() { ::malloc_trim(0); }

double settled_rss_mib() {
  release_heap();
  return rss_mib();
}

double rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

double peak_rss_mib() {
  return static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

double sha256_mb_per_s() {
  Bytes buffer(1 << 20);
  for (std::size_t i = 0; i < buffer.size(); ++i)
    buffer[i] = static_cast<std::uint8_t>(i * 131 + 7);
  std::vector<double> rates;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t0 = Clock::now();
    const Sha256::Digest d = sha256(buffer);
    const double ms = ms_since(t0);
    buffer[0] = d[0];  // each pass hashes the previous pass's output byte
    rates.push_back(static_cast<double>(buffer.size()) / 1e3 / ms);
  }
  return median(rates);
}

std::uint64_t block_overhead_bytes(const Block& block) {
  const std::size_t n = block.transactions.size();
  const std::uint64_t count_len = n < 0xfd ? 1 : n <= 0xffff ? 3 : 5;
  return 8 + 80 + count_len;
}

std::uint64_t counter_delta(const obs::Snapshot& before,
                            const obs::Snapshot& after,
                            std::string_view name) {
  const obs::CounterValue* a = before.counter(name);
  const obs::CounterValue* b = after.counter(name);
  return (b != nullptr ? b->value : 0) - (a != nullptr ? a->value : 0);
}

double histogram_sum_delta(const obs::Snapshot& before,
                           const obs::Snapshot& after,
                           std::string_view name) {
  const obs::HistogramValue* a = before.histogram(name);
  const obs::HistogramValue* b = after.histogram(name);
  return (b != nullptr ? b->sum : 0) - (a != nullptr ? a->sum : 0);
}

// ---- tracing -------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t Tracer::open(std::string_view name) {
  if (!recording_) return -1;
  SpanRecord record;
  record.name = std::string(name);
  record.start_ms = ms_since(origin_);
  record.parent = stack_.empty() ? -1 : stack_.back();
  record.run = run_;
  spans_.push_back(std::move(record));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ms = ms_since(origin_);
  while (!stack_.empty()) {
    const std::int64_t top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

void Tracer::fold(const obs::Trace& trace, std::int64_t parent) {
  if (!recording_ || parent < 0) return;
  const std::vector<obs::SpanRecord> records = trace.records();
  std::vector<std::int64_t> id_of(records.size());
  std::map<std::int64_t, double> cursor;  // next free start under a span
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::int64_t p = records[i].parent == obs::kNoParent
                               ? parent
                               : id_of[records[i].parent];
    auto [it, fresh] =
        cursor.try_emplace(p, spans_[static_cast<std::size_t>(p)].start_ms);
    SpanRecord record;
    record.name = records[i].name;
    record.start_ms = it->second;
    record.end_ms = it->second + records[i].millis;
    record.parent = p;
    record.run = spans_[static_cast<std::size_t>(parent)].run;
    record.derived = true;
    it->second = record.end_ms;
    spans_.push_back(std::move(record));
    id_of[i] = static_cast<std::int64_t>(spans_.size() - 1);
  }
}

double Tracer::sum_ms(const std::vector<int>& runs,
                      std::initializer_list<std::string_view> names) const {
  double total = 0;
  for (const SpanRecord& span : spans_) {
    if (std::find(runs.begin(), runs.end(), span.run) == runs.end()) continue;
    if (std::find(names.begin(), names.end(), span.name) == names.end())
      continue;
    total += span.end_ms - span.start_ms;
  }
  return total;
}

double Tracer::unattributed_ms(std::int64_t root) const {
  if (root < 0) return 0;
  const SpanRecord& r = spans_[static_cast<std::size_t>(root)];
  double covered = 0;
  for (const SpanRecord& span : spans_)
    if (span.parent == root) covered += span.end_ms - span.start_ms;
  return (r.end_ms - r.start_ms) - covered;
}

Scope::Scope(Tracer& tracer, std::string_view name)
    : tracer_(tracer), start_(Clock::now()), id_(tracer.open(name)) {}

double Scope::close() {
  if (!closed_) {
    ms_ = ms_since(start_);
    tracer_.close(id_);
    closed_ = true;
  }
  return ms_;
}

Block TimedStore::read(std::size_t index) const {
  const auto t0 = Clock::now();
  Block block = inner_.read(index);
  read_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  ++reads_;
  return block;
}

std::uint64_t world_seed(std::uint64_t seed, int k) {
  return seed + static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ull;
}

UnitLoop::UnitLoop(const RunRequest& req)
    : start_(Clock::now()),
      seconds_(req.seconds / kWorlds),
      traced_(req.traced) {}

bool UnitLoop::next() {
  ++done_;
  // A traced run ends on a traced unit, the partner of an untraced one.
  return done_ == 0 || traced_unit() || ms_since(start_) < seconds_ * 1000;
}

double Samples::value() const {
  if (by_world_.empty()) return 0;
  double total = 0;
  for (const auto& [world, values] : by_world_) total += median(values);
  return total / static_cast<double>(by_world_.size());
}

std::size_t Samples::count() const {
  std::size_t n = 0;
  for (const auto& [world, values] : by_world_) n += values.size();
  return n;
}

double UnitSamples::overhead_share() const {
  return (traced_ms.value() - unit_ms.value()) / unit_ms.value();
}

void DigestLedger::add(Report& report, int world, const std::string& digest) {
  auto [it, fresh] = digests_.try_emplace(world, digest);
  report.check(fresh || it->second == digest,
               "every unit over world " + std::to_string(world) +
                   " gives one digest");
}

std::string DigestLedger::combined() const {
  Sha256 hasher;
  for (const auto& [world, digest] : digests_)
    hasher.write(ByteView(reinterpret_cast<const std::uint8_t*>(digest.data()),
                          digest.size()));
  const Sha256::Digest d = hasher.finish();
  return to_hex(ByteView(d.data(), d.size()));
}

// ---- generation ----------------------------------------------------------

void hook_nonce_miner(sim::World& world, Executor& exec, Tracer& tracer,
                      GenTally& tally) {
  world.set_nonce_miner([&exec, &tracer, &tally](const BlockHeader& header) {
    Scope pow(tracer, "sim.pow");
    const std::uint32_t nonce = sim::mine_nonce(header, exec);
    tally.pow_ms += pow.close();
    tally.pow_nonces += std::uint64_t{nonce} - header.nonce + 1;
    return nonce;
  });
}

std::unique_ptr<Chain> generate_chain(const sim::WorldConfig& config,
                                      Tracer& tracer) {
  auto chain = std::make_unique<Chain>();
  GenTally& tally = chain->gen;
  // One lane: mine_nonce then runs World's own sequential search.
  Executor one_lane(1);
  const double rss0 = tracer.recording() ? settled_rss_mib() : 0;
  sim::World world(config);
  world.set_block_sink([&chain, &tracer, &tally](const Block& block) {
    Scope append(tracer, "chain.store_append");
    chain->store.append(block);
    tally.append_ms += append.close();
    ++tally.blocks;
    tally.overhead_bytes += block_overhead_bytes(block);
  });
  if (tracer.recording()) hook_nonce_miner(world, one_lane, tracer, tally);
  {
    Scope gen(tracer, "sim.generate");
    world.run();
    tally.gen_ms = gen.close();
  }
  if (tracer.recording()) tally.world_mib = rss_mib() - rss0;
  tally.txs = world.tx_count();
  tally.store_bytes = chain->store.byte_size();
  chain->feed = world.tag_feed();
  if (world.hoard() != nullptr) chain->hoard = *world.hoard();
  chain->thefts = world.thefts();
  return chain;
}

// ---- §5 ------------------------------------------------------------------

Forensics run_forensics(const ChainView& view, const H2Result& h2,
                        const Clustering& clustering,
                        const ClusterNaming& naming,
                        const sim::HoardRecord* hoard,
                        const std::vector<sim::TheftRecord>& thefts,
                        Tracer& tracer) {
  Forensics f;
  std::string& s = f.summary;
  Scope all(tracer, "forensics");
  {
    Scope span(tracer, "analysis.balances");
    const BalanceSeries series =
        category_balances(view, clustering, naming, kWeek);
    f.balances_ms = span.close();
    s += "balances " + std::to_string(series.times.size());
    for (const CategoryTrack& track : series.tracks)
      s += " " + std::to_string(track.balance.empty() ? 0
                                                       : track.balance.back());
    s += "\n";
  }
  {
    Scope span(tracer, "analysis.graph");
    const UserGraph graph = UserGraph::build(view, clustering);
    const std::vector<CategoryFlowShare> shares =
        category_flow_shares(graph, naming);
    f.graph_ms = span.close();
    s += "graph " + std::to_string(graph.node_count()) + " " +
         std::to_string(graph.edge_count());
    for (const CategoryFlowShare& share : shares)
      s += " " + std::to_string(static_cast<int>(share.category)) + ":" +
           std::to_string(share.received);
    s += "\n";
  }
  {
    Scope span(tracer, "analysis.peel");
    const PeelFollower follower(view, h2, clustering, naming);
    if (hoard != nullptr) {
      for (const OutPoint& start : hoard->chain_starts) {
        const TxIndex tx = view.find_tx(start.txid);
        if (tx == kNoTx) continue;
        const PeelChainResult chain =
            follower.follow(tx, start.index, FollowOptions{115});
        f.peel_hops += static_cast<std::uint64_t>(chain.hops);
        s += "peel " + std::to_string(chain.hops) + " " +
             std::to_string(chain.peels.size()) + " " +
             std::to_string(chain.final_amount) + "\n";
      }
    }
    f.peel_ms = span.close();
  }
  {
    Scope span(tracer, "analysis.theft");
    for (const sim::TheftRecord& rec : thefts) {
      std::vector<TxIndex> txs;
      for (const Hash256& h : rec.theft_txids)
        if (const TxIndex idx = view.find_tx(h); idx != kNoTx)
          txs.push_back(idx);
      std::vector<AddrId> thief;
      for (const Address& a : rec.thief_addresses)
        if (auto id = view.addresses().find(a)) thief.push_back(*id);
      const TheftTrace trace =
          track_theft(view, h2, clustering, naming, txs, thief);
      f.theft_txs += static_cast<std::uint64_t>(trace.txs_followed);
      s += "theft " + trace.movement + " " +
           std::to_string(trace.to_exchanges) + " " +
           std::to_string(trace.dormant) + "\n";
    }
    f.theft_ms = span.close();
  }
  f.total_ms = all.close();
  return f;
}

std::string result_digest(const ChainView& view, const Clustering& clustering,
                          const H2Result& h2,
                          const std::string& forensics_summary) {
  Sha256 hasher;
  hasher.write(view.serialize());
  const std::vector<ClusterId>& assignment = clustering.assignment();
  hasher.write(ByteView(reinterpret_cast<const std::uint8_t*>(assignment.data()),
                        assignment.size() * sizeof(ClusterId)));
  std::vector<std::uint32_t> labels;
  labels.reserve(h2.labels.size() * 2);
  for (const H2Label& label : h2.labels) {
    labels.push_back(label.tx);
    labels.push_back(label.change);
  }
  hasher.write(ByteView(reinterpret_cast<const std::uint8_t*>(labels.data()),
                        labels.size() * sizeof(std::uint32_t)));
  hasher.write(ByteView(
      reinterpret_cast<const std::uint8_t*>(forensics_summary.data()),
      forensics_summary.size()));
  const Sha256::Digest d = hasher.finish();
  return to_hex(ByteView(d.data(), d.size()));
}

std::string reference_digest(const BlockStore& store,
                             const std::vector<TagEntry>& feed,
                             const PipelineOptions& options,
                             const sim::HoardRecord* hoard,
                             const std::vector<sim::TheftRecord>& thefts,
                             double& pipeline_ms) {
  Tracer untraced;
  ForensicPipeline pipe(store, feed, options);
  const auto t0 = Clock::now();
  pipe.run();
  pipeline_ms = ms_since(t0);
  const Forensics f = run_forensics(pipe.view(), pipe.h2(), pipe.clustering(),
                                    pipe.naming(), hoard, thefts, untraced);
  return result_digest(pipe.view(), pipe.clustering(), pipe.h2(), f.summary);
}

// ---- reports -------------------------------------------------------------

void report_layers(Report& report, const Tracer& tracer,
                   const LayerInputs& in) {
  auto set = [&report](const char* name, double value, const char* unit) {
    report.metrics[name] = Metric{value, unit};
  };
  auto count = [&set](const char* name, std::uint64_t value,
                      const char* unit = "count") {
    set(name, static_cast<double>(value), unit);
  };
  auto spans = [&](std::initializer_list<std::string_view> names) {
    return tracer.sum_ms(in.runs, names);
  };
  const GenTally& g = in.gen;
  set("sim.gen_ms", g.gen_ms, "ms");
  set("sim.pow_ms", g.pow_ms, "ms");
  count("sim.pow_nonces", g.pow_nonces);
  set("sim.self_ms", g.gen_ms - g.pow_ms - g.append_ms, "ms");
  count("sim.txs", g.txs);
  count("sim.blocks", g.blocks);

  set("crypto.sha256_mb_per_s", sha256_mb_per_s(), "MB/s");
  count("crypto.tx_bytes", g.store_bytes - g.overhead_bytes, "bytes");

  set("chain.store_append_ms", g.append_ms, "ms");
  count("chain.store_bytes", g.store_bytes, "bytes");
  set("chain.store_read_ms", in.store_read_ms, "ms");
  count("chain.store_reads", in.store_reads);
  set("chain.view_ms", spans({"view"}), "ms");
  set("chain.view_scan_ms", spans({"view.scan"}), "ms");
  set("chain.view_first_seen_ms", spans({"view.first_seen"}), "ms");
  count("chain.view_txs", in.view_txs);
  count("chain.view_addresses", in.view_addresses);

  set("cluster.h1_ms", spans({"h1"}), "ms");
  set("cluster.h2_ms", spans({"h2"}), "ms");
  set("cluster.h2_receipts_ms", spans({"h2.receipts"}), "ms");
  set("cluster.h2_scan_ms", spans({"h2.scan"}), "ms");
  set("cluster.finalize_ms", spans({"finalize.unite", "finalize.clusters"}),
      "ms");
  const std::uint64_t spends = in.view_txs - in.view_blocks;  // non-coinbase
  set("cluster.h2_label_share",
      spends == 0 ? 0.0
                  : static_cast<double>(in.h2_labels) /
                        static_cast<double>(spends),
      "ratio");

  set("tag.tags_ms", spans({"tags"}), "ms");
  set("tag.dice_ms", spans({"dice"}), "ms");
  set("tag.naming_ms", spans({"h1_naming", "finalize.naming", "naming"}),
      "ms");

  const Forensics& f = in.forensics;
  set("analysis.balances_ms", f.balances_ms, "ms");
  set("analysis.graph_ms", f.graph_ms, "ms");
  set("analysis.peel_ms", f.peel_ms, "ms");
  set("analysis.theft_ms", f.theft_ms, "ms");
  count("analysis.peel_hops", f.peel_hops);
  count("analysis.theft_txs", f.theft_txs);

  count("core.exec_tasks", in.exec_tasks);
  count("core.exec_steals", in.exec_steals);
  set("core.pipeline_t1_ms", in.pipeline_t1_ms, "ms");

  set("mem.world_mib", g.world_mib, "MiB");
  set("mem.pipeline_mib", in.pipeline_mib, "MiB");

  set("trace.unattributed_ms", in.unattributed_ms, "ms");
  set("trace.overhead_share", in.overhead_share, "ratio");
}

void report_end_to_end(Report& report, const UnitSamples& samples) {
  auto set = [&report](const char* name, double value, const char* unit) {
    report.metrics[name] = Metric{value, unit};
  };
  set("setup_s", samples.setup_ms.value() / 1000, "s");
  set("e2e_txs_per_s", samples.e2e_txs_per_s.value(), "tx/s");
  set("gen_txs_per_s", samples.gen_txs_per_s.value(), "tx/s");
  set("pipeline_txs_per_s", samples.pipeline_txs_per_s.value(), "tx/s");
  set("forensics_txs_per_s", samples.forensics_txs_per_s.value(), "tx/s");
  set("peak_rss_mib", peak_rss_mib(), "MiB");
  report.extras["e2e_s"] = Metric{samples.unit_ms.value() / 1000, "s"};
  report.extras["forensics_ms"] = Metric{samples.forensics_ms.value(), "ms"};
  report.extras["units"] =
      Metric{static_cast<double>(samples.unit_ms.count()), "count"};
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + obs::json_escape(name) + "\": {\"value\": " +
           obs::json_number(m.value) + ", \"unit\": \"" +
           obs::json_escape(m.unit) + "\"}";
  }
  return out + "}";
}

void render_trace(Report& report, const RunRequest& req,
                  const Tracer& tracer) {
  std::string json = "{\"workload\": \"" + obs::json_escape(req.workload) +
                     "\", \"seed\": " + std::to_string(req.seed) +
                     ",\n \"spans\": [";
  const std::vector<SpanRecord>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    json += i == 0 ? "\n  " : ",\n  ";
    json += "{\"id\": " + std::to_string(i) + ", \"name\": \"" +
            obs::json_escape(s.name) + "\", \"run\": " + std::to_string(s.run) +
            ", \"parent\": " +
            (s.parent < 0 ? std::string("null") : std::to_string(s.parent)) +
            ", \"start_ms\": " + obs::json_number(s.start_ms) +
            ", \"end_ms\": " + obs::json_number(s.end_ms) +
            ", \"derived\": " + (s.derived ? "true" : "false") + "}";
  }
  json += "],\n \"metrics\": " + metrics_json(report.metrics) +
          ",\n \"extras\": " + metrics_json(report.extras) + "}\n";
  report.trace_json = std::move(json);
}

}  // namespace fistbench
