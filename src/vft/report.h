// Race reports and the error-context store behind them.
//
// The Figure 2 specification halts at the first Error; the production
// detectors instead follow the Section 7 fail-over semantics: a detected
// race is recorded as a structured report and checking continues, with the
// analysis state force-updated as if the racing access had been ordered.
//
// Reports are not a flat log. Borrowing valgrind's error-context
// machinery (coregrind/vg_errcontext.c), every report is folded into an
// *error context* keyed by the racing access's call stack + race kind
// (falling back to the variable id when no stack was captured - wrapper
// and trace-replay callers). A hot race that fires a million times is one
// context with count 10^6, not a million log lines. Suppression rules
// (vft/suppress.h, valgrind-like syntax, loaded from VFT_SUPPRESSIONS)
// hide matching contexts from the report body while still counting them.
//
// Two keys per context:
//   - the *dedup* key hashes the raw frame PCs: cheap, computed on every
//     occurrence, process-local (ASLR-dependent);
//   - the *context* key hashes the resolved module-basename+offset frames
//     plus the kind: stable across runs of the same binaries, and the
//     fusion key for `vft report merge` over a fleet of runs. Computed
//     once, when the context is created.
//
// Cost model: the race-free fast path never touches any of this. An
// occurrence of a known context pays one lock + one hash lookup. Only a
// *new* context resolves frames (dladdr) and runs suppression matching.
//
// The collector is thread-safe: handlers run inline in target threads, so
// concurrent reports are expected.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <string>
#include <vector>

#include "vft/epoch.h"
#include "vft/stack.h"
#include "vft/suppress.h"

namespace vft {

/// Which analysis rule detected the race (Figure 2 error rules).
enum class RaceKind : std::uint8_t {
  kWriteRead,    // [Write-Read Race]: read races with the last write
  kWriteWrite,   // [Write-Write Race]: write races with the last write
  kReadWrite,    // [Read-Write Race]: write races with the last (epoch) read
  kSharedWrite,  // [Shared-Write Race]: write races with a read-shared read
};

const char* race_kind_name(RaceKind k);

struct RaceReport {
  RaceKind kind;
  /// Variable identifier. The id scheme, by origin of the VarState:
  ///   - trace replay: the trace's small dense variable id;
  ///   - wrapper shadows (rt::Var, rt::Array inline mode): the address of
  ///     the VarState itself - uniform across wrapper kinds, and distinct
  ///     per element for arrays;
  ///   - the address-keyed packed shadow (rt::PackedShadowSpace, and
  ///     rt::Array's carved mode, which borrows its slots): the word-aligned
  ///     *target* address being shadowed, so a report names the racing
  ///     memory, not the shadow's location;
  ///   - explicit ids passed to Var's constructor override the default.
  /// Ids only need to be stable and unique per logical variable; name_var
  /// attaches the human-readable names reports print.
  std::uint64_t var;
  /// Thread performing the racing (current) access.
  Tid current_tid;
  /// Epoch of the prior conflicting access; SHARED-mode read races report
  /// the first unordered component found.
  Epoch prior;
  /// The current thread's epoch at the racing access.
  Epoch current;
  /// The racing (current) access's call stack, captured when the race
  /// fired (vft/stack.h). Empty when no interposition boundary was armed.
  CallStack stack;
  /// The prior access's call stack, looked up in the per-thread access
  /// history (vft/access_history.h) by exact prior epoch. Empty when the
  /// history layer is off, the prior thread's record was replaced or
  /// evicted, or the prior is SHARED - the report then degrades to a bare
  /// prior epoch, exactly like pre-history reports.
  CallStack prior_stack;

  std::string str() const;
};

/// One deduplicated error context: a representative report, the resolved
/// frames of its racing access, and the occurrence count.
struct RaceContext {
  std::uint64_t key = 0;  ///< ASLR-stable cross-run key (see file header)
  RaceReport first;       ///< representative (first) occurrence
  std::vector<ResolvedFrame> frames;  ///< resolved first.stack
  std::vector<ResolvedFrame> prior_frames;  ///< resolved first.prior_stack
  std::uint64_t count = 0;            ///< occurrences folded in
  /// Matching suppression rule, or nullptr. Suppressed contexts are
  /// hidden from count()/all()/first() but remain in contexts() so the
  /// report can show what was hidden.
  const SuppressionRule* suppressed_by = nullptr;
  /// Context arrived past set_total_limit()/set_per_var_limit(): hidden
  /// like a suppressed context, attributed to the limits instead of a
  /// rule.
  bool limit_dropped = false;

  bool hidden() const { return suppressed_by != nullptr || limit_dropped; }
};

class RaceCollector {
 public:
  /// Fold one race occurrence into its error context. Thread-safe.
  void report(const RaceReport& r);

  /// Total *visible* race occurrences (sum of non-hidden context counts);
  /// detector tests count every occurrence, so dedup must not change
  /// this number.
  std::size_t count() const;

  /// Number of distinct visible error contexts.
  std::size_t context_count() const;

  /// Occurrences hidden from the report: suppression-rule matches plus
  /// over-limit drops. Nonzero suppression still means "racy run".
  std::size_t suppressed() const;

  /// Every context, visible and hidden, in first-seen order.
  std::vector<RaceContext> contexts() const;

  /// Flat per-occurrence log of visible races, in arrival order, for
  /// callers that predate dedup. Each entry is the occurrence as
  /// reported (its own tid/epochs — occurrences folding into the same
  /// context are NOT collapsed to the representative). Capped at 65536
  /// entries; occurrences of hidden contexts are omitted.
  std::vector<RaceReport> all() const;

  std::optional<RaceReport> first() const;

  bool empty() const;

  void clear();

  /// At most k stored contexts per distinct variable / in total
  /// (default: unlimited). With dedup these are triage guards, not
  /// memory guards: past the limit, *new* contexts are recorded hidden
  /// and their occurrences count as suppressed.
  void set_per_var_limit(std::size_t k);
  void set_total_limit(std::size_t n);

  /// Attach a human-readable name to a variable id; describe() and the
  /// report writers use it.
  void name_var(std::uint64_t var, std::string name);
  std::optional<std::string> var_name(std::uint64_t var) const;

  /// Like RaceReport::str() but with the registered variable name.
  std::string describe(const RaceReport& r) const;

  /// The suppression rules this collector filters through. Loading is
  /// thread-safe; rules apply to contexts created after the load.
  bool load_suppressions(const std::string& path, std::string* err = nullptr);
  bool load_suppressions_text(const std::string& text,
                              const std::string& origin,
                              std::string* err = nullptr);
  /// Load every file in a colon-separated VFT_SUPPRESSIONS-style list.
  /// Returns the number of files loaded; parse failures warn to stderr.
  int load_suppressions_env(const char* paths);

  /// Per-rule match statistics: (rule name, occurrences hidden).
  std::vector<std::pair<std::string, std::uint64_t>> suppression_stats() const;
  std::size_t suppression_rule_count() const;

 private:
  std::uint64_t raw_key(const RaceReport& r) const;
  std::uint64_t stable_key(const RaceReport& r,
                           const std::vector<ResolvedFrame>& frames) const;

  mutable std::mutex mu_;
  std::vector<RaceContext> contexts_;
  std::vector<RaceReport> flat_;  // visible occurrences, arrival order
  std::unordered_map<std::uint64_t, std::size_t> index_;  // raw key -> idx
  std::unordered_map<std::uint64_t, std::size_t> per_var_contexts_;
  std::unordered_map<std::uint64_t, std::string> names_;
  SuppressionEngine suppressions_;
  std::size_t per_var_limit_ = static_cast<std::size_t>(-1);
  std::size_t total_limit_ = static_cast<std::size_t>(-1);
  std::size_t visible_contexts_ = 0;
  std::size_t suppressed_ = 0;
};

}  // namespace vft
