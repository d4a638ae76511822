// cdlint's project symbol index: the phase-1 artifact the cross-file rules
// (R9-R14, rules.hpp) run over.
//
// Every concurrency bug this analyzer exists to catch was a *cross-file*
// interaction: the shared-propagator resonance race lived in a header's
// mutable member but raced at a call site two files away (PR 8), and the
// listener-fd race and torn `.tmp` writes crossed the server/service and
// snapshot/save boundaries (PR 7).  A per-file lexical rule cannot see any
// of those.  So phase 1 distils each SourceFile into a small FileIndex —
// declared mutexes and atomics, lock-acquisition nestings, blocking-call
// sites, thread spawns/joins/aliases, exec::parallel_for /
// ordered_map call sites with their lambda capture lists and body writes,
// obs counter registrations, relaxed-memory-order sites, floating-point
// accumulation hazards, and the reasoned allow() directives — and phase 2
// merges the per-file indexes (in sorted path order, so the merge is
// deterministic at any --threads value) into a ProjectIndex before judging.
//
// The index prints as text (one record per line, tab-separated, the
// whitespace-normalized raw source line last) so `--dump-index` can expose
// it for debugging and tests; the scan workers hand their FileIndex objects
// straight to the ordered merge.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace cdlint {

/// `std::mutex`-family member/local declaration.
struct MutexDecl {
  std::string name;
  std::size_t line = 0;
};

/// `std::atomic<...>` declaration; writes to these commute (the obs counter
/// contract), so R9 does not treat them as shared-mutable state.
struct AtomicDecl {
  std::string name;
  std::size_t line = 0;
};

/// `std::vector<std::thread>` declaration: emplace/push calls on this name
/// are thread spawns, possibly in another file of the same subsystem.
struct ThreadVectorDecl {
  std::string name;
  std::size_t line = 0;
};

/// A thread creation site.  `target` is the variable the thread lands in
/// ("<temporary>" when it is constructed and dropped in one expression).
struct ThreadSpawn {
  std::string target;
  std::size_t line = 0;
  std::string raw;
};

/// `container.emplace_back(...)` / `push_back(...)`: a spawn iff `container`
/// is a ThreadVectorDecl somewhere in the subsystem (resolved in phase 2).
struct PendingSpawn {
  std::string container;
  std::size_t line = 0;
  std::string raw;
};

/// `name.join()` / `name.detach()` — the reachable join/detach decision.
struct JoinSite {
  std::string target;
  std::size_t line = 0;
};

/// `to = std::move(from)`: joining `to` counts as joining `from`.
struct MoveAlias {
  std::string from;
  std::string to;
};

/// Range-for `for (T& var : range)`: joining `var` counts as joining `range`.
struct RangeAlias {
  std::string var;
  std::string range;
};

/// Guard/lock acquisition of `acquired` while `held` was already held in an
/// enclosing scope — one edge of the project-wide lock graph (R10).
struct LockEdge {
  std::string held;
  std::string acquired;
  std::size_t line = 0;
  std::string raw;
};

/// A blocking syscall/sleep issued while at least one mutex was held (R11
/// judges these for src/serve/).  `held` is the innermost held mutex.
struct BlockingCall {
  std::string callee;
  std::string held;
  std::size_t line = 0;
  std::string raw;
};

/// obs counter registry registration site (counter / sched_counter /
/// counter_or_null): the sanctioned relaxed-atomic idiom R14 contrasts with.
struct CounterReg {
  std::size_t line = 0;
  std::string raw;
};

/// Floating-point accumulation-order hazard: `kind` is "reduce" (unordered
/// std::reduce/transform_reduce), "float-accum" (float declaration), or
/// "fast-math" (pragma).  R13 judges these in bit-identical-grid code.
struct FpHazard {
  std::string kind;
  std::size_t line = 0;
  std::string raw;
};

/// `std::memory_order_relaxed` use; R14 confines these to src/obs/.
struct RelaxedSite {
  std::size_t line = 0;
  std::string raw;
};

/// One write inside a parallel lambda body: `name` possibly captured by
/// reference, `subscripted` when the access chain indexes per element
/// before mutating (the sanctioned disjoint-slot pattern).
struct ParallelWrite {
  std::string name;
  std::size_t line = 0;
  bool subscripted = false;
  std::string raw;
};

/// An `exec::parallel_for` / `exec::ordered_map` call site with its lambda
/// capture list, body-declared locals and body writes (R9).
struct ParallelSite {
  std::string callee;  ///< "parallel_for" | "ordered_map"
  std::size_t line = 0;
  bool capture_default_ref = false;  ///< [&] or [&, ...]
  std::set<std::string> ref_captures;    ///< explicit &name
  std::set<std::string> value_captures;  ///< explicit name / name = init
  std::set<std::string> locals;  ///< lambda params + body-declared names
  std::vector<ParallelWrite> writes;
};

/// A reasoned allow() directive, carried so phase 2 can honour
/// suppressions after the SourceFile is gone.
struct AllowRecord {
  std::size_t line = 0;  ///< target line the suppression applies to
  std::string rule;
};

/// Everything phase 2 needs to know about one translation unit.
struct FileIndex {
  std::string file;  ///< repo-relative path

  std::vector<MutexDecl> mutexes;
  std::vector<AtomicDecl> atomics;
  std::vector<ThreadVectorDecl> thread_vectors;
  std::vector<ThreadSpawn> spawns;
  std::vector<PendingSpawn> pending_spawns;
  std::vector<JoinSite> joins;
  std::vector<MoveAlias> move_aliases;
  std::vector<RangeAlias> range_aliases;
  std::vector<LockEdge> lock_edges;
  std::vector<BlockingCall> blocking_calls;
  std::vector<CounterReg> counter_regs;
  std::vector<FpHazard> fp_hazards;
  std::vector<RelaxedSite> relaxed_sites;
  std::vector<ParallelSite> parallel_sites;
  std::vector<AllowRecord> allows;

  /// True when a reasoned allow(rule) targets `line` in this file.
  [[nodiscard]] bool allowed(std::size_t line, const std::string& rule) const;

  /// One record per line, '\t'-separated, normalized raw text last.
  [[nodiscard]] std::string serialize() const;
};

/// Extract a FileIndex from a scanned file (phase 1, runs per worker).
[[nodiscard]] FileIndex build_index(const SourceFile& file);

/// The merged project-wide view phase 2 judges.  Files are kept in the
/// order they were merged; the scan driver merges in sorted path order so
/// the index — and therefore every finding — is thread-count independent.
struct ProjectIndex {
  std::vector<FileIndex> files;

  void merge(FileIndex index) { files.push_back(std::move(index)); }

  /// Concatenated per-file serializations (`--dump-index`).
  [[nodiscard]] std::string serialize() const;
};

/// The subsystem a path belongs to for cross-file identity: the first two
/// path components for nested trees ("src/serve", "tools/cdlint"), the
/// first alone otherwise ("tests", "bench").  Mutex and thread names are
/// only merged within one subsystem — `mutex_` in src/exec must never
/// alias `mutex_` in src/serve.
[[nodiscard]] std::string subsystem_of(const std::string& path);

}  // namespace cdlint
