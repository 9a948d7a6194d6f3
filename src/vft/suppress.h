// Valgrind-style suppression rules for race reports.
//
// A suppression file is a sequence of blocks:
//
//     # known benign: the stats counter is monotonic and racy by design
//     {
//        stats-counter-increment
//        vft:race
//        fun:bump_stats*
//        obj:*libserver.so
//        ...
//     }
//
// Block grammar, line by line inside the braces:
//   - first line: the rule's name (free text, shown in the report's
//     suppression stats);
//   - `vft:<glob>` - which race kinds the rule covers. The glob is
//     matched against the kind name ("write-write race", ...); the
//     conventional `vft:race` matches every kind;
//   - the remaining lines describe the racing access's call stack from
//     the innermost frame down: `fun:<glob>` matches the frame's symbol
//     (dladdr's nearest dynamic symbol - compile the target with
//     -rdynamic for static-linkage names, or suppress by object),
//     `obj:<glob>` matches the containing module path, and `...` matches
//     any number of frames (including zero). A rule matches a *prefix*
//     of the stack: frames below the pattern are ignored, exactly like
//     valgrind.
//
// Matching runs only when a new error context is created (report.h), so
// the per-occurrence cost of a suppressed hot race is a lock-free hash
// lookup and one counter add, and the race-free fast path never sees any
// of this. Matched contexts are counted, not dropped: valgrind's
// "suppressed: N" discipline, so a suppression hiding a *new* race is
// still visible in the stats. A rule's count is derived, never kept: the
// collector sums the counts of the contexts the rule hides.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "vft/stack.h"

namespace vft {

/// Shell-style glob match supporting `*` and `?` (no character classes).
bool glob_match(const std::string& pattern, const std::string& text);

struct SuppressionFrame {
  enum Kind : std::uint8_t { kFun, kObj, kEllipsis };
  Kind kind;
  std::string glob;  ///< empty for kEllipsis
};

struct SuppressionRule {
  std::string name;
  std::string kind_glob;  ///< matched against race_kind_name(); "race" = all
  std::vector<SuppressionFrame> frames;
};

class SuppressionEngine {
 public:
  /// Parse one file / one in-memory ruleset and append its rules.
  /// Returns false (leaving previously loaded rules intact) on a
  /// missing file or malformed block; `err` gets a one-line diagnostic.
  bool load_file(const std::string& path, std::string* err = nullptr);
  bool load_text(const std::string& text, const std::string& origin,
                 std::string* err = nullptr);

  /// First rule matching this kind + resolved stack, or nullptr. The
  /// collector owns occurrence accounting (RaceCollector::
  /// suppression_stats()).
  const SuppressionRule* match(const char* kind_name,
                               const std::vector<ResolvedFrame>& stack) const;

  const std::deque<SuppressionRule>& rules() const { return rules_; }
  bool empty() const { return rules_.empty(); }
  void clear() { rules_.clear(); }

 private:
  /// deque: rules are referenced by address from live error contexts,
  /// so appending another file's rules must not move existing ones.
  std::deque<SuppressionRule> rules_;
};

}  // namespace vft
