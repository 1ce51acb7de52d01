// fistbench — the benchmark's entry point.
//
//   fistbench --workload <stream_e2e|batch_analyze|live_tail> --seed <n>
//             --seconds <s> --trace <0|1> [--days <n>]
//
// Prints a readable report, then, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one. A traced run also writes its spans and per-layer metrics
// to traces/<workload>-seed<n>.json beside the binary. Exit status: 0
// when every output check passed, 1 when one failed, 2 on bad
// arguments or an error before any result.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace fs = std::filesystem;
using namespace fistbench;

namespace {

/// The run's scratch directory, removed on every exit path.
struct WorkDir {
  fs::path path;
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

bool parse_args(int argc, char** argv, RunRequest& req) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      req.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      req.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      req.seconds = std::strtod(value.c_str(), &end);
      if (!(req.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      req.traced = value == "1";
    } else if (key == "--days") {
      req.days = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (req.days <= 0) return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1;
}

void print_metrics(const char* title,
                   const std::map<std::string, Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics)
    std::printf("  %-28s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunRequest req;
  if (!parse_args(argc, argv, req)) {
    std::fprintf(stderr,
                 "usage: fistbench --workload <stream_e2e|batch_analyze|"
                 "live_tail> --seed <n> --seconds <s> --trace <0|1> "
                 "[--days <n>]\n");
    return 2;
  }
  Report (*run)(const RunRequest&) = nullptr;
  if (req.workload == "stream_e2e") run = run_stream_e2e;
  if (req.workload == "batch_analyze") run = run_batch_analyze;
  if (req.workload == "live_tail") run = run_live_tail;
  if (run == nullptr) {
    std::fprintf(stderr, "fistbench: unknown workload '%s'\n",
                 req.workload.c_str());
    return 2;
  }

  // Scratch files and traces live beside the binary, inside the build
  // directory.
  fs::path home = fs::path(argv[0]).parent_path();
  if (home.empty()) home = ".";
  WorkDir work{home / ("run-" + std::to_string(::getpid()))};
  Report report;
  try {
    fs::create_directories(work.path);
    req.work_dir = work.path;
    report = run(req);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fistbench: %s failed: %s\n", req.workload.c_str(),
                 e.what());
    return 2;
  }

  const double failed_share = static_cast<double>(report.failed) /
                              static_cast<double>(report.attempted);
  report.extras["failed_share"] = Metric{failed_share, "ratio"};
  std::printf("workload %s, seed %llu, %s run of %g s\n",
              req.workload.c_str(), static_cast<unsigned long long>(req.seed),
              req.traced ? "traced" : "untraced", req.seconds);
  for (const std::string& note : report.notes)
    std::printf("%s\n", note.c_str());
  print_metrics(req.traced ? "per-layer metrics:" : "end-to-end metrics:",
                report.metrics);
  print_metrics("also measured:", report.extras);
  for (const std::string& failure : report.check_failures)
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  std::printf("checks: %s; digest %s\n",
              report.check_failures.empty() ? "all passed" : "FAILED",
              report.digest.c_str());
  if (req.traced) {
    const fs::path trace_path =
        home / "traces" /
        (req.workload + "-seed" + std::to_string(req.seed) + ".json");
    fs::create_directories(trace_path.parent_path());
    std::ofstream(trace_path) << report.trace_json;
    std::printf("trace: %s\n", trace_path.c_str());
  }

  const bool correct = report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics_json(report.metrics).c_str());
  return correct ? 0 : 1;
}
