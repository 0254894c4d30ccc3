// Host and build fingerprint recorded on every result, so numbers from
// different hosts, builds or inputs are never compared by mistake.
#pragma once

#include "report.h"

namespace perfbench {

/// CPU model, nproc, L2/L3 sizes, compiler, build type, kernel ISA,
/// OpenMP build flag and thread count. perfbench/run.py adds the source
/// revision; the caller adds the workload seed and input hash.
[[nodiscard]] JsonObject host_fingerprint();

}  // namespace perfbench
