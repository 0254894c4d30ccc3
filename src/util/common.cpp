#include "util/common.h"

namespace sympiler {

bool library_debug_build() noexcept {
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

}  // namespace sympiler
