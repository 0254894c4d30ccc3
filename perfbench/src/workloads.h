// The four workloads, run either end to end through the public api facade
// (tracing off) or as a traced replay that calls each layer's public entry
// point in the order the facade calls them, recording one span per call.
#pragma once

#include <cstdint>
#include <string>

#include "inputs.h"
#include "report.h"

namespace perfbench {

/// Largest accepted normwise backward error of a checked step:
/// ||Ax - b||inf / (||A||inf ||x||inf + ||b||inf), with L in place of A for
/// the triangular solve. Backward-stable Cholesky and substitution land
/// near 1e-16 on these inputs.
inline constexpr double kBackwardErrorTolerance = 1e-12;

struct RunConfig {
  Workload workload = Workload::kNewtonMesh;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;  ///< the plan store lives here
  std::string trace_path;   ///< Chrome trace-event JSON of the traced run
};

/// Keep freed memory in the process: glibc malloc serves every size from
/// its heap (no per-allocation mmap) and never trims the heap. Call first
/// in main(). A long-lived solver process comes close to this state on its
/// own once glibc's dynamic mmap threshold has risen; without it, every fresh
/// plan of a run is new pages, and on a VM guest that reports free pages
/// to its host each of them faults at a cost set by the host's load. The
/// run returns the pages freed by input generation once, before warm-up (see
/// reset_peak_rss in workloads.cpp).
void retain_freed_memory();

/// Run one workload. trace = false: the end-to-end metrics. trace = true:
/// the per-layer metrics, from interleaved untraced and traced blocks plus
/// the extras only the traced run times.
[[nodiscard]] Result run_workload(const RunConfig& cfg, const Inputs& in);

}  // namespace perfbench
