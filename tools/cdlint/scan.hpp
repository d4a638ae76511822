// cdlint's scan driver: the two-phase analysis over a source tree, shared
// by the CLI (cdlint.cpp) and the benchmark (bench/micro_cdlint.cpp).
//
// Phase 1 lexes every file and runs the per-file rules while distilling a
// FileIndex per translation unit; the per-file work fans out over
// cosmicdance::exec::ordered_map (cdlint dogfoods the pool it lints).
// Phase 2 merges the indexes in sorted path order and judges the
// cross-file rules R9-R14.  Because the worklist is sorted, the merge is
// ordered, and findings are sorted by (file, line, rule, message), the
// output is byte-identical at any --threads value — the same determinism
// contract the analyzer enforces on the rest of the tree.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "index.hpp"
#include "rules.hpp"

namespace cdlint {

struct ScanOptions {
  std::string root = ".";
  std::vector<std::string> dirs{"src", "tools", "bench", "tests"};
  int threads = 0;  ///< exec convention: 0 = all hardware, 1 = exact serial
};

struct ScanResult {
  std::vector<Finding> findings;  ///< sorted; baseline not yet applied
  std::size_t files_scanned = 0;
  ProjectIndex index;             ///< merged phase-1 artifact (--dump-index)
  std::string error;              ///< non-empty on an I/O failure
};

/// Run both phases over `options.dirs` under `options.root`.
[[nodiscard]] ScanResult scan_tree(const ScanOptions& options);

}  // namespace cdlint
