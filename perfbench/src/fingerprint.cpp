#include "fingerprint.h"

#include <unistd.h>

#include <fstream>
#include <string>

#ifdef SYMPILER_HAS_OPENMP
#include <omp.h>
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

/// Size in bytes of the cpu0 cache at `level` (unified or data), from
/// sysfs; 0 when unknown.
long cache_bytes(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream lv(dir + "level");
    std::ifstream ty(dir + "type");
    std::ifstream sz(dir + "size");
    int l = 0;
    std::string type;
    std::string size;
    if (!(lv >> l) || !(ty >> type) || !(sz >> size)) continue;
    if (l != level || type == "Instruction") continue;
    long v = std::stol(size);
    if (size.back() == 'K') v *= 1024;
    if (size.back() == 'M') v *= 1024 * 1024;
    return v;
  }
  return 0;
}

}  // namespace

JsonObject host_fingerprint() {
  JsonObject f;
  f.str("cpu_model", cpu_model());
  f.integer("nproc", sysconf(_SC_NPROCESSORS_ONLN));
  f.integer("l2_bytes", cache_bytes(2));
  f.integer("l3_bytes", cache_bytes(3));
  f.str("compiler", PERFBENCH_COMPILER);
  f.str("build_type", PERFBENCH_BUILD_TYPE);
  f.str("kernel_isa", PERFBENCH_KERNEL_ISA);
#ifdef SYMPILER_HAS_OPENMP
  f.boolean("openmp", true);
  f.integer("omp_threads", omp_get_max_threads());
#else
  f.boolean("openmp", false);
  f.integer("omp_threads", 1);
#endif
  return f;
}

}  // namespace perfbench
