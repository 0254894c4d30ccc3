// The library's build, not the including translation unit, decides the
// debug-only defaults that headers carry. This file flips NDEBUG against
// the build type before any include, so every header below sees the
// opposite of what the library was compiled with; the defaults must still
// read the library's answer.
#ifdef NDEBUG
#undef NDEBUG
#define SYMPILER_TEST_LIBRARY_DEBUG 0
#else
#define NDEBUG 1
#define SYMPILER_TEST_LIBRARY_DEBUG 1
#endif

#include <gtest/gtest.h>

#include "core/options.h"
#include "core/workspace.h"
#include "util/common.h"

namespace sympiler {
namespace {

// The tests and the library share one CMake build type, so the NDEBUG
// this file saw before flipping it is the library's.
constexpr bool kLibraryDebug = SYMPILER_TEST_LIBRARY_DEBUG != 0;

TEST(BuildMode, LibraryDebugBuildIsTheLibrarysNotThisFiles) {
  EXPECT_EQ(library_debug_build(), kLibraryDebug);
}

TEST(BuildMode, VerifyPlanDefaultFollowsTheLibraryBuild) {
  EXPECT_EQ(core::SympilerOptions{}.verify_plan, kLibraryDebug);
}

TEST(BuildMode, WorkspaceGuardDefaultFollowsTheLibraryBuild) {
  core::Workspace ws;
  EXPECT_EQ(ws.guard_enabled(), kLibraryDebug);
  ws.set_guard(true);
  EXPECT_TRUE(ws.guard_enabled());
}

}  // namespace
}  // namespace sympiler
