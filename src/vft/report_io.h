// The race-report document model and its wire formats.
//
// One renderer serves every producer and consumer of reports: the C ABI's
// vft_report_write (in-process, end of run), the interposer's crash-path
// writer, and the `vft report merge/symbolize` offline tools. The JSON
// schema is versioned ("vft-report-v2"); the old flat text form survives
// as the `plain` compatibility format.
//
// Schema (canonical key order as rendered):
//   {
//     "schema": "vft-report-v2",
//     "detector": "VerifiedFT-v2",
//     "runs": 1,                      // >1 after `vft report merge`
//     "clean_exit": true,             // false: written from a crash handler
//     "contexts": [
//       {
//         "key": "0x<16 hex>",        // ASLR-stable context key (report.h)
//         "kind": "write-write race",
//         "var": "0x<hex>",
//         "var_name": "...",          // only when registered
//         "count": 1000,              // occurrences folded into the context
//         "suppressed_by": "rule",    // only when hidden ("<limit>": caps)
//         "accesses": [
//           { "role": "current", "kind": "write", "tid": 2, "epoch": "2@7",
//             "stack": [ { "pc": "0x..", "module": "/path", "offset": "0x..",
//                          "symbol": "fn", "symbol_offset": "0x..",
//                          "file": "x.cpp", "line": 12 } ] },
//           { "role": "prior", "kind": "write", "tid": 1, "epoch": "1@5",
//             "stack": [ ...the prior access's frames, from the per-thread
//                        access history (vft/access_history.h); empty when
//                        the record was evicted or history is off... ] }
//         ]
//       }
//     ],
//     "suppressions": [ { "name": "rule", "matched": 12 } ],
//     "summary": { "races": .., "contexts": .., "suppressed": ..,
//                  "suppressed_contexts": .., "threads": .., "locks": ..,
//                  "shadow_words": .. }
//   }
//
// Frames carry module+offset so symbolization can happen *offline*
// (`vft report symbolize`, addr2line/llvm-symbolizer): the monitored
// process never touches symbol tables. "symbol" is dladdr's nearest
// dynamic symbol when one was visible at capture time; "file"/"line"
// appear only after offline symbolization.
//
// Parsing is tolerant by design: a report truncated by a dying target
// yields every complete context plus a `truncated` flag, so `vft run`
// can still give a verdict for a crashed run.
//
// Rendering is canonical - fixed key order, contexts sorted by
// (kind, var, key), counts in decimal, addresses in hex - which is what
// makes `vft report merge` byte-stable across input orderings.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vft {
class RaceCollector;
}

namespace vft::reportio {

// ---------------------------------------------------------------------
// Minimal JSON tree (self-contained; no external deps). Numbers keep
// their raw token so uint64 counts round-trip losslessly.
// ---------------------------------------------------------------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  std::string number;  ///< raw numeric token
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;  ///< insertion order

  /// Object member lookup; nullptr when absent or not an object.
  const Json* get(std::string_view key) const;
  std::uint64_t as_u64(std::uint64_t fallback = 0) const;
  std::int64_t as_i64(std::int64_t fallback = 0) const;
};

struct JsonParse {
  Json value;
  bool complete = false;  ///< false: input ended mid-value (truncation)
  std::string error;      ///< non-empty only for malformed (not truncated)
};

/// Parse one JSON value. Truncated input produces the partial tree with
/// complete=false; structurally malformed input sets `error`.
JsonParse parse_json(std::string_view text);

/// Escape a byte string into JSON string-literal content (no quotes).
/// Printable ASCII passes through; quote/backslash are escaped; control
/// bytes and non-ASCII bytes become \u00XX so the output is valid JSON
/// for *any* input bytes (paths and symbols are not guaranteed UTF-8).
std::string json_escape(std::string_view s);

// ---------------------------------------------------------------------
// Report document model.
// ---------------------------------------------------------------------

struct Frame {
  std::uint64_t pc = 0;
  std::string module;
  std::uint64_t offset = 0;
  std::string symbol;
  std::uint64_t symbol_offset = 0;
  std::string file;  ///< offline symbolization only
  int line = -1;     ///< offline symbolization only
};

struct Access {
  std::string role;  ///< "current" | "prior"
  std::string kind;  ///< "read" | "write"; empty in pre-history reports
  unsigned tid = 0;
  std::string epoch;  ///< "t@c"
  std::vector<Frame> stack;
};

struct Context {
  std::string key;  ///< "0x<16 hex>"
  std::string kind;
  std::string var;  ///< "0x<hex>"
  std::string var_name;
  std::uint64_t count = 0;
  std::string suppressed_by;  ///< empty: visible
  std::vector<Access> accesses;

  bool hidden() const { return !suppressed_by.empty(); }
};

struct Summary {
  std::uint64_t races = 0;       ///< visible occurrences
  std::uint64_t contexts = 0;    ///< visible contexts
  std::uint64_t suppressed = 0;  ///< hidden occurrences
  std::uint64_t suppressed_contexts = 0;
  std::uint64_t threads = 0;
  std::uint64_t locks = 0;
  std::uint64_t shadow_words = 0;
};

/// Sampling-mode block ("sampling" object, emitted only when the run had
/// the sampling gate enabled - reports from exact runs are unchanged, so
/// the CI schema golden stays stable). All counters are integers so
/// merge_reports can sum them deterministically; the ratios the object
/// renders (achieved_rate, overhead_pct) are derived from the integers at
/// render time. The controller's current rate travels as parts-per-million
/// (rate_ppm) for the same reason; merge averages it weighted by busy_ns
/// in integer arithmetic.
struct SamplingInfo {
  bool enabled = false;
  std::string policy;         ///< "cell" | "drop" ("mixed" after a merge)
  double budget_pct = 0.0;    ///< configured target overhead (0: none)
  double rate0 = 1.0;         ///< configured initial rate
  std::uint64_t rate_ppm = 1000000;  ///< current global rate * 1e6
  std::uint64_t sampled = 0;
  std::uint64_t skipped = 0;
  std::uint64_t cooled_out = 0;
  std::uint64_t reheats = 0;
  std::uint64_t overhead_ns = 0;
  std::uint64_t busy_ns = 0;  ///< process CPU ns while the gate was live
  std::uint64_t adjustments = 0;
};

struct ReportDoc {
  std::string detector;
  std::uint64_t runs = 1;
  bool clean_exit = true;
  bool truncated = false;  ///< parse-side only: the input was cut short
  SamplingInfo sampling;   ///< rendered only when .enabled
  std::vector<Context> contexts;
  std::vector<std::pair<std::string, std::uint64_t>> suppression_stats;
  Summary summary;
};

/// Snapshot the live collector into a document. Backend stats (threads,
/// locks, shadow words) come from the caller; recomputes the summary
/// from the contexts.
ReportDoc build_report_doc(const RaceCollector& rc, const char* detector,
                           std::size_t threads, std::size_t locks,
                           std::size_t shadow_words, bool clean_exit);

/// Canonical JSON rendering (see header comment). Deterministic for a
/// given document.
std::string render_json(const ReportDoc& doc);

/// The pre-v2 flat text format, kept as the `plain` compatibility mode:
/// one "race:" line per visible context plus the "summary: races=..."
/// line older tooling scrapes.
std::string render_plain(const ReportDoc& doc);

/// Parse a v2 JSON report. Tolerant: truncation keeps complete contexts
/// and sets doc->truncated. Returns false only when nothing usable could
/// be recovered (err gets a diagnostic).
bool parse_report(std::string_view text, ReportDoc* doc,
                  std::string* err = nullptr);

/// Fuse fleet runs: contexts merged by key (counts and suppression stats
/// summed, representative chosen deterministically), process-level stats
/// summed, `runs` accumulated, clean_exit ANDed. Input order never
/// changes the rendered output.
ReportDoc merge_reports(const std::vector<ReportDoc>& docs);

/// Structural skeleton of a JSON document: object keys sorted, array
/// elements union-merged, scalars replaced by type tags. Two reports
/// with the same schema but different values/counts/addresses produce
/// identical skeletons - the CI golden for the merged fleet report.
std::string json_skeleton(std::string_view text);

}  // namespace vft::reportio
