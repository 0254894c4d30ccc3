// perfbench: one workload of the end-to-end / per-layer benchmark.
//
//   perfbench --workload newton_mesh --seed 1 --seconds 10 --trace 0
//             [--scratch DIR] [--trace-out FILE]
//
// Prints a detail record (fingerprint, sample counts, coverage counts,
// checks) as one JSON line, then the result line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// as the last line of standard output. perfbench/run.py builds and drives
// this binary; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "fingerprint.h"
#include "inputs.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{newton_mesh|transient_trisolve|pattern_churn|restart_store} "
               "--seed N --seconds S --trace {0|1} "
               "[--scratch DIR] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  retain_freed_memory();
  RunConfig cfg;
  std::string workload;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        cfg.trace = value == "1";
      } else if (arg == "--scratch") {
        cfg.scratch_dir = value;
      } else if (arg == "--trace-out") {
        cfg.trace_path = value;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  const auto w = parse_workload(workload);
  if (!w) usage("unknown or missing --workload");
  if (!have_seed) usage("missing --seed");
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 60.0)) usage("--seconds must be in (0, 60]");
  cfg.workload = *w;
  if (cfg.scratch_dir.empty()) cfg.scratch_dir = ".bench_build/scratch";
  std::filesystem::create_directories(cfg.scratch_dir);

  try {
    const Inputs in = make_inputs(cfg.workload, cfg.seed);
    Result result = run_workload(cfg, in);
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(in.hash));
    JsonObject detail;
    detail.str("workload", to_string(cfg.workload))
        .integer("seed", static_cast<std::int64_t>(cfg.seed))
        .integer("trace", cfg.trace ? 1 : 0)
        .num("seconds", cfg.seconds)
        .str("input_hash", hash)
        .obj("fingerprint", host_fingerprint())
        .obj("run", result.detail);
    std::printf("%s\n%s\n", detail.dump().c_str(), result.result_line().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
}
