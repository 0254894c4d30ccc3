#include "core/jit.h"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "util/fault.h"
#include "util/status.h"
#include "util/timer.h"

#ifndef SYMPILER_HOST_CXX
#define SYMPILER_HOST_CXX "c++"
#endif

namespace sympiler::core {

namespace {

std::string scratch_dir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string base = tmp ? tmp : "/tmp";
  static std::atomic<int> counter{0};
  std::ostringstream os;
  os << base << "/sympiler-jit-" << ::getpid() << "-"
     << counter.fetch_add(1);
  return os.str();
}

/// `path` as one single-quoted shell word ($TMPDIR may hold spaces or
/// quotes): each embedded ' closes the quote, adds an escaped ', reopens.
std::string shell_quote(const std::string& path) {
  std::string out = "'";
  for (const char ch : path) {
    if (ch == '\'') {
      out += "'\\''";
    } else {
      out += ch;
    }
  }
  out += '\'';
  return out;
}

/// Removes a compile's scratch directory when compile() returns or
/// throws: on success the library is mapped by then (a mapping outlives
/// its file), and on failure the compiler's diagnostics have been read
/// into the error.
class ScratchDirGuard {
 public:
  explicit ScratchDirGuard(std::string dir) : dir_(std::move(dir)) {}
  ScratchDirGuard(const ScratchDirGuard&) = delete;
  ScratchDirGuard& operator=(const ScratchDirGuard&) = delete;
  ~ScratchDirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

 private:
  std::string dir_;
};

}  // namespace

JitModule::JitModule(JitModule&& other) noexcept
    : handle_(other.handle_),
      fn_(other.fn_),
      compile_seconds_(other.compile_seconds_) {
  other.handle_ = nullptr;
  other.fn_ = nullptr;
}

JitModule& JitModule::operator=(JitModule&& other) noexcept {
  if (this != &other) {
    if (handle_ != nullptr) ::dlclose(handle_);
    handle_ = other.handle_;
    fn_ = other.fn_;
    compile_seconds_ = other.compile_seconds_;
    other.handle_ = nullptr;
    other.fn_ = nullptr;
  }
  return *this;
}

JitModule::~JitModule() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

bool JitModule::compiler_available() {
  static const bool available = [] {
    const std::string cmd =
        std::string(SYMPILER_HOST_CXX) + " --version > /dev/null 2>&1";
    return std::system(cmd.c_str()) == 0;
  }();
  return available;
}

JitModule JitModule::compile(const std::string& source,
                             const std::string& symbol) {
  // Every failure below is a jit_unavailable_error (kJitUnavailable):
  // PlanCompiler::compile contains it via JitSlot::mark_failed and the
  // executors keep interpreting the plan — a scratch-dir or compiler
  // failure never aborts a solve.
  if (SYMPILER_FAULT_POINT(util::FaultSite::kJitCompile))
    throw jit_unavailable_error(
        "jit: injected compile failure (fault site jit-compile)");
  const std::string dir = scratch_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    throw jit_unavailable_error("jit: cannot create scratch dir " + dir +
                                ": " + ec.message());
  const ScratchDirGuard guard(dir);
  const std::string src_path = dir + "/kernel.cpp";
  const std::string so_path = dir + "/kernel.so";
  const std::string err_path = dir + "/cc.err";
  {
    std::ofstream src(src_path);
    src << source;
    if (!src.good())
      throw jit_unavailable_error("jit: cannot write " + src_path);
  }

  Timer timer;
  // -ffp-contract=off: the generated code must be bit-identical to the
  // executor schedule (tests assert this); fused multiply-add contraction
  // under -march=native would reassociate the rounding.
  const std::string cmd =
      std::string(SYMPILER_HOST_CXX) +
      " -O3 -march=native -ffp-contract=off -fopenmp-simd -shared -fPIC " +
      shell_quote(src_path) + " -o " + shell_quote(so_path) + " 2> " +
      shell_quote(err_path);
  const int rc = std::system(cmd.c_str());
  JitModule mod;
  mod.compile_seconds_ = timer.seconds();
  if (rc != 0) {
    std::ifstream err(err_path);
    std::ostringstream msg;
    msg << "jit: compiler failed (rc=" << rc << "):\n" << err.rdbuf();
    throw jit_unavailable_error(msg.str());
  }
  if (SYMPILER_FAULT_POINT(util::FaultSite::kJitLoad))
    throw jit_unavailable_error(
        "jit: injected dlopen failure (fault site jit-load)");
  mod.handle_ = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (mod.handle_ == nullptr)
    throw jit_unavailable_error(std::string("jit: dlopen failed: ") +
                                ::dlerror());
  mod.fn_ = ::dlsym(mod.handle_, symbol.c_str());
  if (mod.fn_ == nullptr)
    throw jit_unavailable_error("jit: symbol not found: " + symbol);
  return mod;
}

}  // namespace sympiler::core
