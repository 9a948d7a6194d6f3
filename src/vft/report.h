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
//   - the *dedup* key hashes the raw frame PCs with hash_stack's word
//     steps, mixed with the kind: cheap, computed on every occurrence,
//     process-local (ASLR-dependent);
//   - the *context* key hashes the resolved module-basename+offset frames
//     plus the kind: stable across runs of the same binaries, and the
//     fusion key for `vft report merge` over a fleet of runs. Computed
//     once, when the context is created.
//
// Cost model: the race-free fast path never touches any of this. An
// occurrence of a known context is folded by fold(): one lock-free hash
// lookup and one relaxed counter add, no lock. Only a *new* context takes
// the lock to resolve frames (dladdr) and run suppression matching.
//
// The collector is thread-safe: handlers run inline in target threads, so
// concurrent reports are expected. Contexts are created only under the
// lock and published through atomic bucket heads, so lookups never lock;
// every count is exact at a quiescent point (ALGORITHM.md §13.4).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <string>
#include <vector>

#include "vft/access_history.h"
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

/// One race occurrence without its stacks: what fold() and the report
/// formatters take.
struct RaceOccurrence {
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

  /// "<kind> on <var_label>: thread T at E conflicts with prior access at
  /// P", the one race formatter.
  std::string str(const std::string& var_label) const;
  /// str() with the label "var <id>".
  std::string str() const;
};

/// A race occurrence with both call stacks: what a new error context is
/// created from.
struct RaceReport : RaceOccurrence {
  /// The racing (current) access's call stack, captured when the race
  /// fired (vft/stack.h). Empty when no interposition boundary was armed.
  CallStack stack;
  /// The prior access's call stack, looked up in the per-thread access
  /// history (vft/access_history.h) by exact prior epoch. Empty when the
  /// history layer is off, the prior thread's record was replaced or
  /// evicted, or the prior is SHARED - the report then degrades to a bare
  /// prior epoch, exactly like pre-history reports.
  CallStack prior_stack;
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
  /// hidden from count()/first() but remain in contexts() so the report
  /// can show what was hidden.
  const SuppressionRule* suppressed_by = nullptr;

  bool hidden() const { return suppressed_by != nullptr; }
};

class RaceCollector {
 public:
  /// Fold an occurrence into its error context if that context already
  /// exists, and return true; return false for an unknown context, whose
  /// occurrence the caller then passes to report() with both stacks.
  /// `stack` is the racing access's call stack (the dedup key's input).
  /// Costs one lock-free lookup and one relaxed counter add. Thread-safe.
  bool fold(const RaceOccurrence& o, const CallStack& stack);

  /// Fold one race occurrence into its error context, creating the
  /// context when it is new: the one entry that creates contexts. A known
  /// context is folded as by fold(), without the lock; one another thread
  /// created after this occurrence's lookup missed is folded into, not
  /// duplicated. Thread-safe.
  void report(const RaceReport& r);

  /// Total *visible* race occurrences (sum of non-hidden context counts);
  /// detector tests count every occurrence, so dedup must not change
  /// this number. Like every count below, exact at a quiescent point.
  std::size_t count() const;

  /// Number of distinct visible error contexts.
  std::size_t context_count() const;

  /// Occurrences hidden from the report by suppression rules, i.e. the
  /// sum of the suppressed contexts' counts. Nonzero suppression still
  /// means "racy run".
  std::size_t suppressed() const;

  /// Every context, visible and hidden, in first-seen order.
  std::vector<RaceContext> contexts() const;

  /// The first visible context's representative occurrence.
  std::optional<RaceReport> first() const;

  bool empty() const;

  /// Forget every context. Quiescent only: no thread may fold or report
  /// concurrently, since lookups walk the contexts without the lock.
  void clear();

  /// Install a fresh access history (vft/access_history.h) whose records
  /// the detectors reporting here look prior stacks up in, or none. The
  /// previous instance is destroyed. Quiescent only, like clear(): no
  /// thread may record or report through this collector concurrently.
  void set_history(bool enabled);

  /// The installed access history, or nullptr when the layer is off.
  history::AccessHistory* history() const { return history_.get(); }

  /// Attach a human-readable name to a variable id; describe() and the
  /// report writers use it.
  void name_var(std::uint64_t var, std::string name);
  std::optional<std::string> var_name(std::uint64_t var) const;

  /// RaceOccurrence::str() labelled with the registered variable name,
  /// when there is one.
  std::string describe(const RaceOccurrence& r) const;

  /// The suppression rules this collector filters through. Loading is
  /// thread-safe; rules apply to contexts created after the load.
  bool load_suppressions(const std::string& path, std::string* err = nullptr);
  bool load_suppressions_text(const std::string& text,
                              const std::string& origin,
                              std::string* err = nullptr);
  /// Load every file in a colon-separated VFT_SUPPRESSIONS-style list.
  /// Returns the number of files loaded; parse failures warn to stderr.
  int load_suppressions_env(const char* paths);

  /// Per-rule match statistics: (rule name, occurrences hidden), each the
  /// sum of the counts of the contexts that rule hides.
  std::vector<std::pair<std::string, std::uint64_t>> suppression_stats() const;
  std::size_t suppression_rule_count() const;

 private:
  /// One error context in the lock-free index. Created only under mu_
  /// and published by a release store of its bucket head; everything but
  /// `count` is immutable once published. The fields a lookup reads come
  /// first, so a fold touches one cache line of the node.
  struct Node {
    std::uint64_t raw = 0;  ///< dedup key
    Node* next = nullptr;   ///< bucket chain, fixed before publication
    bool hidden = false;    ///< ctx.hidden()
    std::atomic<std::uint64_t> count{0};
    RaceContext ctx;  ///< ctx.count is unused: `count` holds it
  };

  static constexpr std::size_t kBucketBits = 10;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;

  /// The chain head for dedup key `raw`: its high bits, which the
  /// key's multiplies fill from every input.
  std::atomic<Node*>& bucket(std::uint64_t raw) const {
    return buckets_[raw >> (64 - kBucketBits)];
  }
  Node* find(std::uint64_t raw) const;
  /// Count one occurrence of the context keyed `raw`, if it exists; no
  /// lock. Returns whether it did.
  bool bump(std::uint64_t raw) const;
  std::uint64_t stable_key(const RaceReport& r,
                           const std::vector<ResolvedFrame>& frames) const;

  mutable std::mutex mu_;
  std::unique_ptr<std::atomic<Node*>[]> buckets_ =
      std::make_unique<std::atomic<Node*>[]>(kBuckets);
  std::deque<Node> nodes_;  // every context, first-seen order
  std::unordered_map<std::uint64_t, std::string> names_;
  SuppressionEngine suppressions_;
  std::size_t visible_contexts_ = 0;
  std::unique_ptr<history::AccessHistory> history_;
};

}  // namespace vft
