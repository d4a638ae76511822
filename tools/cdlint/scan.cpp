#include "scan.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exec/parallel_for.hpp"
#include "lexer.hpp"

namespace cdlint {
namespace {

namespace fs = std::filesystem;

bool has_lintable_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

/// Directories never scanned: self-test corpora (deliberate violations),
/// build trees, VCS internals.
bool skipped_directory(const fs::path& path) {
  const std::string name = path.filename().string();
  return name == "testdata" || name == ".git" || name.rfind("build", 0) == 0;
}

/// Deterministic worklist: sorted repo-relative paths.
std::vector<std::string> collect_files(const fs::path& root,
                                       const std::vector<std::string>& dirs) {
  std::vector<std::string> files;
  for (const std::string& dir : dirs) {
    const fs::path base = root / dir;
    if (!fs::is_directory(base)) continue;
    fs::recursive_directory_iterator it(base), end;
    while (it != end) {
      if (it->is_directory() && skipped_directory(it->path())) {
        it.disable_recursion_pending();
      } else if (it->is_regular_file() && has_lintable_extension(it->path())) {
        files.push_back(fs::relative(it->path(), root).generic_string());
      }
      ++it;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

/// Everything one phase-1 worker produces for one file.
struct PerFile {
  std::vector<Finding> findings;
  FileIndex index;
  std::string error;
};

}  // namespace

ScanResult scan_tree(const ScanOptions& options) {
  ScanResult result;
  const fs::path root(options.root);
  if (!fs::is_directory(root)) {
    result.error = "--root is not a directory: " + options.root;
    return result;
  }
  const std::vector<std::string> files = collect_files(root, options.dirs);
  result.files_scanned = files.size();

  // Phase 1: per-file lexing, per-file rules, index extraction.  Workers
  // write only to their own index's slot; ordered_map returns slots in
  // path order regardless of scheduling.
  std::vector<PerFile> per_file =
      cosmicdance::exec::ordered_map<PerFile>(
          files.size(), options.threads, [&root, &files](std::size_t i) {
            PerFile out;
            const std::string& rel = files[i];
            std::ifstream in(root / rel, std::ios::binary);
            if (!in) {
              out.error = "cannot read " + rel;
              return out;
            }
            std::ostringstream text;
            text << in.rdbuf();
            const SourceFile source(rel, text.str());

            bool sibling_header = false;
            if (rel.size() > 4 &&
                rel.compare(rel.size() - 4, 4, ".cpp") == 0) {
              const fs::path header = (root / rel).parent_path() /
                                      ((root / rel).stem().string() + ".hpp");
              sibling_header = fs::exists(header);
            }
            out.findings = run_rules(source, sibling_header);
            out.index = build_index(source);
            return out;
          });

  // Ordered merge: each worker's index in path order.
  for (PerFile& pf : per_file) {
    if (!pf.error.empty()) {
      result.error = pf.error;
      return result;
    }
    result.index.merge(std::move(pf.index));
    result.findings.insert(result.findings.end(), pf.findings.begin(),
                           pf.findings.end());
  }

  // Phase 2: cross-file rules over the merged project index.
  std::vector<Finding> cross = run_project_rules(result.index);
  result.findings.insert(result.findings.end(),
                         std::make_move_iterator(cross.begin()),
                         std::make_move_iterator(cross.end()));
  std::sort(result.findings.begin(), result.findings.end());
  return result;
}

}  // namespace cdlint
