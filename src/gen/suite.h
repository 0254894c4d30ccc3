// The Table-2 analogue suite: eleven SPD problems mirroring the regimes of
// the paper's SuiteSparse selection (suite.cpp pairs each paper matrix
// with its generator; bench/table2_matrices prints their measured
// structure).
//
// Sizes are scaled to laptop/CI scale (n ~ 14k..185k instead of 14k..1M);
// the suite deliberately spans the structural regimes the paper's
// heuristics key on: nested-dissection mesh problems with large separator
// supernodes, banded problems with unit supernodes and large column
// counts, and block-structural problems with dof-block supernodes.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::gen {

struct SuiteSpec {
  int id = 0;                 ///< 1-based, matching Table 2 rows
  std::string paper_name;     ///< SuiteSparse name in the paper
  std::string generator;      ///< description of our synthetic analogue
  index_t paper_n_thousands;  ///< Table 2 "n (10^3)"
  double paper_nnz_millions;  ///< Table 2 "nnz (10^6)"
  std::function<CscMatrix()> make;  ///< builds the lower triangle
};

/// All eleven problems in Table 2 order.
[[nodiscard]] const std::vector<SuiteSpec>& suite();

/// Lookup by 1-based id; throws if out of range.
[[nodiscard]] const SuiteSpec& suite_problem(int id);

}  // namespace sympiler::gen
