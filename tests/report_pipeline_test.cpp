// The report pipeline above the collector: suppression rules and their
// valgrind-like grammar, JSON escaping/parsing, the v2 document model
// (render -> parse round trips), fleet merge determinism, and the
// structural skeleton used as the CI golden.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "vft/report.h"
#include "vft/report_io.h"
#include "vft/suppress.h"

namespace vft {
namespace {

using reportio::ReportDoc;

// ---------------------------------------------------------------------
// Glob matching.
// ---------------------------------------------------------------------

TEST(GlobMatch, Basics) {
  EXPECT_TRUE(glob_match("abc", "abc"));
  EXPECT_FALSE(glob_match("abc", "abd"));
  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("lib*.so", "libserver.so"));
  EXPECT_FALSE(glob_match("lib*.so", "libserver.so.1"));
  EXPECT_TRUE(glob_match("*race*", "write-write race"));
  EXPECT_TRUE(glob_match("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(glob_match("a*b*c", "aXXcYYb"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
}

// ---------------------------------------------------------------------
// Suppression grammar and matching.
// ---------------------------------------------------------------------

ResolvedFrame frame(const char* module, const char* symbol) {
  ResolvedFrame f;
  f.pc = 0x1000;
  f.module = module;
  f.offset = 0x10;
  f.symbol = symbol;
  return f;
}

TEST(SuppressionEngine, ParsesBlocksAndRejectsMalformed) {
  SuppressionEngine e;
  std::string err;
  EXPECT_TRUE(e.load_text("# comment\n{\n rule-a\n vft:race\n fun:foo*\n ...\n}\n"
                          "{\n rule-b\n vft:write-*\n obj:*libx.so\n}\n",
                          "test", &err))
      << err;
  ASSERT_EQ(e.rules().size(), 2u);
  EXPECT_EQ(e.rules()[0].name, "rule-a");
  EXPECT_EQ(e.rules()[1].kind_glob, "write-*");

  // Each failure leaves previously loaded rules intact.
  EXPECT_FALSE(e.load_text("{\n unnamed-block-missing-vft\n}\n", "t", &err));
  EXPECT_NE(err.find("no vft:"), std::string::npos);
  EXPECT_FALSE(e.load_text("{\n r\n vft:race\n bogus:line\n}\n", "t", &err));
  EXPECT_NE(err.find("unrecognized"), std::string::npos);
  EXPECT_FALSE(e.load_text("{\n r\n vft:race\n", "t", &err));
  EXPECT_NE(err.find("unterminated"), std::string::npos);
  EXPECT_FALSE(e.load_text("not-a-brace\n", "t", &err));
  EXPECT_EQ(e.rules().size(), 2u);
}

TEST(SuppressionEngine, MatchesStackPrefixWithEllipsis) {
  SuppressionEngine e;
  ASSERT_TRUE(e.load_text(
      "{\n deep\n vft:race\n fun:leaf\n ...\n fun:main\n}\n", "t", nullptr));
  std::vector<ResolvedFrame> stack = {
      frame("/bin/app", "leaf"), frame("/bin/app", "mid1"),
      frame("/bin/app", "mid2"), frame("/bin/app", "main")};
  EXPECT_NE(e.match("write-write race", stack), nullptr);
  // Prefix semantics: frames below the pattern are ignored.
  stack.push_back(frame("/lib/libc.so", "__libc_start_main"));
  EXPECT_NE(e.match("write-write race", stack), nullptr);
  // But the anchored first frame must be the innermost one.
  std::vector<ResolvedFrame> wrong = {frame("/bin/app", "other"),
                                      frame("/bin/app", "leaf")};
  EXPECT_EQ(e.match("write-write race", wrong), nullptr);
}

TEST(SuppressionEngine, KindGlobFiltersAndRaceMatchesAll) {
  SuppressionEngine e;
  ASSERT_TRUE(e.load_text("{\n ww-only\n vft:write-write*\n ...\n}\n"
                          "{\n everything\n vft:race\n ...\n}\n",
                          "t", nullptr));
  std::vector<ResolvedFrame> stack = {frame("/bin/app", "f")};
  const SuppressionRule* m = e.match("write-write race", stack);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->name, "ww-only");  // first matching rule wins
  m = e.match("read-write race", stack);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->name, "everything");
}

TEST(SuppressionEngine, ObjMatchesModuleAndEmptyStackNeedsEllipsisOnly) {
  SuppressionEngine e;
  ASSERT_TRUE(e.load_text("{\n by-obj\n vft:race\n obj:*libserver.so\n}\n"
                          "{\n stackless\n vft:race\n ...\n}\n",
                          "t", nullptr));
  std::vector<ResolvedFrame> server = {frame("/opt/libserver.so", "")};
  const SuppressionRule* m = e.match("write-read race", server);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->name, "by-obj");
  // A report with no captured stack can only match frame-free patterns.
  std::vector<ResolvedFrame> none;
  m = e.match("write-read race", none);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->name, "stackless");
}

TEST(RaceCollector, SuppressionHidesButCounts) {
  RaceCollector c;
  ASSERT_TRUE(c.load_suppressions_text(
      "{\n hide-ww\n vft:write-write*\n ...\n}\n", "test"));
  EXPECT_EQ(c.suppression_rule_count(), 1u);
  for (int i = 0; i < 4; ++i) {
    c.report(RaceReport{RaceKind::kWriteWrite, 7, 2, Epoch::make(1, 5),
                        Epoch::make(2, 3), {}});
  }
  c.report(RaceReport{RaceKind::kReadWrite, 7, 2, Epoch::make(1, 5),
                      Epoch::make(2, 3), {}});
  EXPECT_EQ(c.count(), 1u);       // only the read-write context is visible
  EXPECT_EQ(c.suppressed(), 4u);  // ...but every hidden occurrence counted
  EXPECT_FALSE(c.empty());        // suppressed races still mean "racy run"
  ASSERT_EQ(c.contexts().size(), 2u);
  EXPECT_TRUE(c.contexts()[0].hidden());
  ASSERT_NE(c.contexts()[0].suppressed_by, nullptr);
  EXPECT_EQ(c.contexts()[0].suppressed_by->name, "hide-ww");
  auto stats = c.suppression_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].first, "hide-ww");
  EXPECT_EQ(stats[0].second, 4u);
}

// ---------------------------------------------------------------------
// JSON escaping: report fields must survive adversarial bytes.
// ---------------------------------------------------------------------

TEST(JsonEscape, AdversarialStrings) {
  using reportio::json_escape;
  EXPECT_EQ(json_escape("plain_name.so"), "plain_name.so");
  EXPECT_EQ(json_escape("quote\"backslash\\"), "quote\\\"backslash\\\\");
  EXPECT_EQ(json_escape(std::string_view("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(json_escape("tab\tnewline\n"), "tab\\u0009newline\\u000a");
  // Non-ASCII bytes (e.g. UTF-8 é = 0xc3 0xa9) become \u00XX per byte:
  // lossless for any input, valid JSON always.
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\\u00c3\\u00a9");
  EXPECT_EQ(json_escape("\x7f\x80"), "\\u007f\\u0080");
}

TEST(JsonEscape, EscapedFieldsRoundTripThroughParser) {
  using reportio::json_escape;
  using reportio::parse_json;
  const std::string nasty =
      std::string("a\"b\\c\n\t") + "\xc3\xa9" + std::string("\0z", 2);
  const std::string doc = "{\"v\": \"" + json_escape(nasty) + "\"}";
  auto p = parse_json(doc);
  ASSERT_TRUE(p.complete) << p.error;
  const reportio::Json* v = p.value.get("v");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->string, nasty);
}

// ---------------------------------------------------------------------
// Tolerant parsing of truncated documents (crash salvage).
// ---------------------------------------------------------------------

ReportDoc doc_from_collector(RaceCollector& c, bool clean = true) {
  return reportio::build_report_doc(c, "VerifiedFT-v2", 3, 2, 100, clean);
}

RaceReport rep(RaceKind k, std::uint64_t var, std::uintptr_t pc = 0) {
  RaceReport r{k, var, 2, Epoch::make(1, 5), Epoch::make(2, 3), {}};
  if (pc != 0) r.stack.push(pc);
  return r;
}

TEST(ParseReport, TruncatedInputKeepsCompleteContexts) {
  RaceCollector c;
  c.report(rep(RaceKind::kWriteWrite, 1));
  c.report(rep(RaceKind::kReadWrite, 2));
  const std::string full = reportio::render_json(doc_from_collector(c));

  // Cut the document in the middle of the second context.
  const std::size_t second = full.find("\"kind\"", full.find("\"kind\"") + 1);
  ASSERT_NE(second, std::string::npos);
  const std::string cut = full.substr(0, second + 3);

  ReportDoc doc;
  std::string err;
  ASSERT_TRUE(reportio::parse_report(cut, &doc, &err)) << err;
  EXPECT_TRUE(doc.truncated);
  EXPECT_FALSE(doc.clean_exit);  // truncation implies a dirty end
  ASSERT_EQ(doc.contexts.size(), 1u);
  EXPECT_EQ(doc.contexts[0].count, 1u);
  EXPECT_EQ(doc.summary.races, 1u);
}

TEST(ParseReport, RejectsGarbageAndWrongSchema) {
  ReportDoc doc;
  std::string err;
  EXPECT_FALSE(reportio::parse_report("not json at all", &doc, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(
      reportio::parse_report("{\"schema\": \"something-else\"}", &doc, &err));
  EXPECT_NE(err.find("schema"), std::string::npos);
}

TEST(ParseReport, OlderSamplingBlockWithRetiredKeysStillParses) {
  // Reports written while the sampling layer had two sampled-out policies
  // carry a "policy" key, and reports written while it had an adaptive
  // cooldown table carry "cooled_out" and "reheats"; all three are ignored
  // on parse and not re-rendered.
  const std::string text =
      "{\"schema\": \"vft-report-v2\", \"detector\": \"VerifiedFT-v2\","
      " \"runs\": 1, \"clean_exit\": true,"
      " \"sampling\": {\"policy\": \"drop\", \"budget_pct\": 5,"
      " \"rate0\": 1, \"rate_ppm\": 20000, \"sampled\": 10,"
      " \"skipped\": 490, \"cooled_out\": 0, \"reheats\": 2,"
      " \"overhead_ns\": 100, \"busy_ns\": 2000, \"adjustments\": 1},"
      " \"contexts\": []}";
  ReportDoc doc;
  std::string err;
  ASSERT_TRUE(reportio::parse_report(text, &doc, &err)) << err;
  ASSERT_TRUE(doc.sampling.enabled);
  EXPECT_EQ(doc.sampling.budget_pct, 5.0);
  EXPECT_EQ(doc.sampling.sampled, 10u);
  EXPECT_EQ(doc.sampling.skipped, 490u);
  const std::string merged =
      reportio::render_json(reportio::merge_reports({doc, doc}));
  EXPECT_EQ(merged.find("\"policy\""), std::string::npos) << merged;
  EXPECT_EQ(merged.find("\"cooled_out\""), std::string::npos) << merged;
  EXPECT_EQ(merged.find("\"reheats\""), std::string::npos) << merged;
  EXPECT_NE(merged.find("\"skipped\": 980"), std::string::npos) << merged;
}

TEST(ParseReport, OlderLimitHiddenContextStillParses) {
  // Builds that capped contexts per variable marked the over-limit ones
  // "suppressed_by": "<limit>"; such a context parses as hidden.
  const std::string text =
      "{\"schema\": \"vft-report-v2\", \"detector\": \"VerifiedFT-v2\","
      " \"runs\": 1, \"clean_exit\": true, \"contexts\": ["
      " {\"key\": \"0x00000000000000aa\", \"kind\": \"write-write race\","
      " \"var\": \"0x7\", \"count\": 3, \"accesses\": []},"
      " {\"key\": \"0x00000000000000bb\", \"kind\": \"read-write race\","
      " \"var\": \"0x7\", \"count\": 2, \"suppressed_by\": \"<limit>\","
      " \"accesses\": []}]}";
  ReportDoc doc;
  std::string err;
  ASSERT_TRUE(reportio::parse_report(text, &doc, &err)) << err;
  ASSERT_EQ(doc.contexts.size(), 2u);
  EXPECT_EQ(doc.summary.races, 3u);
  EXPECT_EQ(doc.summary.contexts, 1u);
  EXPECT_EQ(doc.summary.suppressed, 2u);
  EXPECT_EQ(doc.summary.suppressed_contexts, 1u);
}

TEST(ParseReport, RenderParseRoundTripPreservesEverything) {
  RaceCollector c;
  c.name_var(5, "Account.balance \"quoted\"");
  for (int i = 0; i < 3; ++i) c.report(rep(RaceKind::kWriteWrite, 5));
  c.report(rep(RaceKind::kWriteRead, 6, 0x4000));
  const std::string text = reportio::render_json(doc_from_collector(c));

  ReportDoc doc;
  std::string err;
  ASSERT_TRUE(reportio::parse_report(text, &doc, &err)) << err;
  EXPECT_FALSE(doc.truncated);
  EXPECT_EQ(doc.detector, "VerifiedFT-v2");
  EXPECT_EQ(doc.runs, 1u);
  ASSERT_EQ(doc.contexts.size(), 2u);
  EXPECT_EQ(doc.summary.races, 4u);
  EXPECT_EQ(doc.summary.threads, 3u);
  // Re-render of the parse is byte-identical: the canonical form is a
  // fixed point.
  EXPECT_EQ(reportio::render_json(doc), text);
}

TEST(ParseReport, StackDropsRenderParseAndMergeWhenNonZero) {
  // A history whose intern table is full drops the stack of every later
  // record; the report counts those drops, and only once there are any.
  RaceCollector c;
  c.set_history(true);
  history::AccessHistory& h = *c.history();
  EXPECT_EQ(reportio::render_json(doc_from_collector(c)).find("stack_drops"),
            std::string::npos);
  EXPECT_EQ(reportio::render_plain(doc_from_collector(c)).find("stack-drops"),
            std::string::npos);
  for (std::uintptr_t i = 0; i < history::StackTable::kMaxStacks; ++i) {
    CallStack cs;
    cs.push(0x100000 + i);
    h.record(0x8000, Epoch::make(1, 1), history::AccessKind::kWrite, cs);
  }
  ASSERT_EQ(h.stack_drops(), 0u);
  CallStack one_more;
  one_more.push(0x1);
  h.record(0x8000, Epoch::make(1, 2), history::AccessKind::kWrite, one_more);
  ASSERT_EQ(h.stack_drops(), 1u);

  const ReportDoc built = doc_from_collector(c);
  EXPECT_EQ(built.summary.stack_drops, 1u);
  const std::string text = reportio::render_json(built);
  EXPECT_NE(text.find("\"stack_drops\": 1}"), std::string::npos) << text;
  EXPECT_NE(reportio::render_plain(built).find(" stack-drops=1\n"),
            std::string::npos);

  ReportDoc parsed;
  std::string err;
  ASSERT_TRUE(reportio::parse_report(text, &parsed, &err)) << err;
  EXPECT_EQ(parsed.summary.stack_drops, 1u);
  EXPECT_EQ(reportio::render_json(parsed), text);

  const ReportDoc merged = reportio::merge_reports({parsed, built});
  EXPECT_EQ(merged.summary.stack_drops, 2u);
  EXPECT_NE(reportio::render_json(merged).find("\"stack_drops\": 2}"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Fleet merge: counts sum, output independent of input order.
// ---------------------------------------------------------------------

TEST(MergeReports, SumsCountsByContextKey) {
  RaceCollector a, b;
  for (int i = 0; i < 10; ++i) a.report(rep(RaceKind::kWriteWrite, 1));
  a.report(rep(RaceKind::kReadWrite, 2));
  for (int i = 0; i < 5; ++i) b.report(rep(RaceKind::kWriteWrite, 1));

  ReportDoc da = doc_from_collector(a);
  ReportDoc db = doc_from_collector(b);
  ReportDoc m = reportio::merge_reports({da, db});
  EXPECT_EQ(m.runs, 2u);
  ASSERT_EQ(m.contexts.size(), 2u);  // shared context fused, unique kept
  EXPECT_EQ(m.summary.races, 16u);
  EXPECT_EQ(m.summary.threads, 6u);  // process stats sum across runs

  std::uint64_t fused = 0;
  for (const auto& ctx : m.contexts) {
    if (ctx.kind == "write-write race") fused = ctx.count;
  }
  EXPECT_EQ(fused, 15u);
}

TEST(MergeReports, ByteStableAcrossInputOrders) {
  RaceCollector a, b, c;
  for (int i = 0; i < 7; ++i) a.report(rep(RaceKind::kWriteWrite, 1));
  b.report(rep(RaceKind::kReadWrite, 2, 0x5000));
  c.report(rep(RaceKind::kWriteWrite, 1));
  c.report(rep(RaceKind::kSharedWrite, 3));

  ReportDoc da = doc_from_collector(a);
  ReportDoc db = doc_from_collector(b);
  ReportDoc dc = doc_from_collector(c);

  const std::string m1 = reportio::render_json(reportio::merge_reports({da, db, dc}));
  const std::string m2 = reportio::render_json(reportio::merge_reports({dc, da, db}));
  const std::string m3 = reportio::render_json(reportio::merge_reports({db, dc, da}));
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m1, m3);
}

TEST(MergeReports, CrashInAnyRunDirtiesTheFleet) {
  RaceCollector a, b;
  a.report(rep(RaceKind::kWriteWrite, 1));
  b.report(rep(RaceKind::kWriteWrite, 1));
  ReportDoc da = doc_from_collector(a, /*clean=*/true);
  ReportDoc db = doc_from_collector(b, /*clean=*/false);
  ReportDoc m = reportio::merge_reports({da, db});
  EXPECT_FALSE(m.clean_exit);
}

TEST(MergeReports, SuppressionStatsSumByRuleName) {
  RaceCollector a, b;
  const char* rules = "{\n hide-ww\n vft:write-write*\n ...\n}\n";
  ASSERT_TRUE(a.load_suppressions_text(rules, "t"));
  ASSERT_TRUE(b.load_suppressions_text(rules, "t"));
  for (int i = 0; i < 3; ++i) a.report(rep(RaceKind::kWriteWrite, 1));
  for (int i = 0; i < 2; ++i) b.report(rep(RaceKind::kWriteWrite, 1));
  ReportDoc m =
      reportio::merge_reports({doc_from_collector(a), doc_from_collector(b)});
  ASSERT_EQ(m.suppression_stats.size(), 1u);
  EXPECT_EQ(m.suppression_stats[0].first, "hide-ww");
  EXPECT_EQ(m.suppression_stats[0].second, 5u);
  EXPECT_EQ(m.summary.suppressed, 5u);
  EXPECT_EQ(m.summary.races, 0u);
}

// ---------------------------------------------------------------------
// Structural skeleton (the CI golden): values vary, shape does not.
// ---------------------------------------------------------------------

TEST(JsonSkeleton, InvariantUnderValuesAndCounts) {
  RaceCollector a, b;
  for (int i = 0; i < 100; ++i) a.report(rep(RaceKind::kWriteWrite, 1, 0x7000));
  b.report(rep(RaceKind::kReadWrite, 99, 0x9999));
  const std::string sa = reportio::json_skeleton(
      reportio::render_json(doc_from_collector(a)));
  const std::string sb = reportio::json_skeleton(
      reportio::render_json(doc_from_collector(b)));
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa.find("\"schema\""), std::string::npos);
}

}  // namespace
}  // namespace vft
