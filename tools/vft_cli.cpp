// vft: command-line driver for the library.
//
//   vft analyze <trace | @file> [--tool v1|v1.5|v2|ft-mutex|ft-cas|djit]
//       Parse and feasibility-check a Section 2 trace, replay it through
//       the chosen detector and the specification, report the verdict and
//       the happens-before oracle's cross-check.
//
//   vft generate --ops N [--threads T] [--forked F] [--vars V] [--locks L]
//                [--disciplined P] [--seed S]
//       Emit a random feasible trace (one op per line flows through
//       `vft analyze @-` nicely).
//
//   vft bench <kernel> [--tool ...] [--threads T] [--scale S]
//             [--shadow inline|packed]
//       Time one kernel of the Table 1 suite under one detector.
//       --shadow picks where ported kernels (sor, lufact) keep their
//       element shadow: inline VarStates (default) or the packed
//       64-bit-cell PackedShadowSpace (prints the fast-path hit/miss/
//       spill counters next to the rule totals).
//
//   vft minimize <trace | @file>
//       Shrink a racy trace to a locally minimal racy core (delta
//       debugging for race triage).
//
//   vft sched list
//   vft sched <scenario> [--bound K] [--mutate NAME]
//   vft sched <scenario> --seed N [--preemptions K] [--runs R] [--mutate NAME]
//   vft sched <scenario> --schedule 0,1,1,0 [--mutate NAME]
//       Systematic schedule exploration of the detector hot paths
//       (src/sched/). The three modes are exhaustive/bounded DFS, PCT
//       randomized sampling, and exact replay of one recorded schedule -
//       the triage loop for a VFT-SCHED-FAIL artifact line is to paste
//       its schedule= field into --schedule (plus the same --mutate, if
//       any). Requires a -DVFT_SCHED=ON build; exits 2 otherwise.
//
//   vft run [--detector NAME] [--report PATH] [--expect race|none]
//           [--suppressions FILE] [--preload LIB] [--budget PCT]
//           [--sampling SPEC] -- <program> [args...]
//       Run an *unmodified* binary under the analysis: LD_PRELOAD the
//       interposition library (src/interpose/), select the detector via
//       VFT_DETECTOR, collect the end-of-run report (text, or JSON when
//       the path ends in .json), and print the verdict. A target that
//       crashes or is killed mid-run still yields a verdict: the
//       interposer's crash handler salvages a partial report
//       (clean_exit=false) and the tolerant parser recovers every
//       complete context even from a cut-short file. With --expect the
//       exit code asserts the verdict (0 iff it matches), which is how
//       the examples/native corpus runs under ctest and CI. --budget PCT
//       (VFT_BUDGET) arms the always-on sampling mode with a target
//       overhead; --sampling SPEC (VFT_SAMPLING, e.g.
//       "rate=0.02,policy=drop,seed=7") sets the gate directly. The
//       effective configuration is echoed in the banner and recorded in
//       the JSON report's "sampling" object.
//
//   vft report merge [--out PATH] <report.json>...
//       Fuse vft-report-v2 JSONs from a fleet of runs: contexts with the
//       same ASLR-stable key are merged (counts summed, suppression
//       stats summed, `runs` accumulated). Output is canonical - byte-
//       identical regardless of input order.
//
//   vft report symbolize [--out PATH] [--symbolizer BIN] <report.json>
//       Offline symbolization: resolve each frame's module+offset to
//       function/file/line with addr2line (or llvm-symbolizer). The
//       monitored process never touches symbol tables; this is where
//       names come from.
//
//   vft report show <report.json>
//       Render a v2 JSON report in the flat text form.
//
//   vft report skeleton <report.json>
//       Print the report's structural schema (keys sorted, scalars as
//       type tags) - what CI diffs against the checked-in golden.
//
//   vft rules
//       Print the Figure 2 rule names with a one-line summary each.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "kernels/all.h"
#include "sched/explore.h"
#include "sched/scenarios.h"
#include "trace/feasibility.h"
#include "trace/generator.h"
#include "trace/hb_oracle.h"
#include "trace/minimize.h"
#include "trace/replay.h"
#include "vft/report_io.h"
#include "vft/sampling.h"

namespace {

using namespace vft;

int usage() {
  std::fprintf(stderr,
               "usage: vft analyze <trace|@file> [--tool NAME]\n"
               "       vft generate --ops N [--threads T] [--forked F]\n"
               "                    [--vars V] [--locks L] [--disciplined P]"
               " [--seed S]\n"
               "       vft bench <kernel> [--tool NAME] [--threads T]"
               " [--scale S] [--shadow inline|packed]\n"
               "       vft minimize <trace|@file>\n"
               "       vft sched list\n"
               "       vft sched <scenario> [--bound K] [--seed N"
               " [--preemptions K] [--runs R]] [--schedule CSV]"
               " [--mutate NAME]\n"
               "       vft run [--detector NAME] [--report PATH]"
               " [--expect race|none] [--suppressions FILE] [--preload LIB]"
               "\n               [--budget PCT] [--sampling SPEC]"
               " -- <program> [args...]\n"
               "       vft report merge [--out PATH] <report.json>...\n"
               "       vft report symbolize [--out PATH] [--symbolizer BIN]"
               " <report.json>\n"
               "       vft report show <report.json>\n"
               "       vft report skeleton <report.json>\n"
               "       vft rules\n"
               "tools: v1 v1.5 v2 ft-mutex ft-cas djit (default v2)\n");
  return 2;
}

std::string arg_value(int argc, char** argv, const char* flag,
                      const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

std::string load_trace_text(const std::string& spec) {
  if (spec.empty() || spec[0] != '@') return spec;
  std::istream* in = &std::cin;
  std::ifstream file;
  if (spec != "@-") {
    file.open(spec.substr(1));
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", spec.c_str() + 1);
      std::exit(2);
    }
    in = &file;
  }
  std::ostringstream all;
  std::string line;
  while (std::getline(*in, line)) all << line << "; ";
  return all.str();
}

template <typename D>
int analyze_with(const trace::Trace& t, D detector, RaceCollector& rc) {
  const trace::ReplayResult run = trace::replay(t, detector);
  Spec spec;
  const trace::SpecReplayResult sr = trace::replay_spec(t, spec);
  const trace::HbResult oracle = trace::analyze(t);

  if (run.first_race) {
    std::printf("%s: race detected at op %zu (%s)\n", D::kName,
                *run.first_race, t[*run.first_race].str().c_str());
    for (const auto& r : rc.all()) {
      std::printf("  %s\n", r.str().c_str());
    }
  } else {
    std::printf("%s: race-free (%zu operations)\n", D::kName, t.size());
  }
  const bool spec_agrees = sr.error_index == run.first_race;
  const bool oracle_agrees =
      oracle.race_free() == !run.first_race.has_value();
  std::printf("specification %s, happens-before oracle %s\n",
              spec_agrees ? "agrees" : "DISAGREES",
              oracle_agrees ? "agrees" : "DISAGREES");
  return spec_agrees && oracle_agrees ? (run.first_race ? 1 : 0) : 3;
}

int cmd_analyze(int argc, char** argv) {
  if (argc < 1) return usage();
  trace::Trace t;
  if (!trace::parse(load_trace_text(argv[0]), &t)) {
    std::fprintf(stderr, "parse error\n");
    return 2;
  }
  if (const auto err = trace::check_feasible(t)) {
    std::fprintf(stderr, "infeasible at op %zu: %s\n", err->index,
                 err->message.c_str());
    return 2;
  }
  const std::string tool = arg_value(argc, argv, "--tool", "v2");
  RaceCollector rc;
  if (tool == "v1") return analyze_with(t, VftV1(&rc), rc);
  if (tool == "v1.5") return analyze_with(t, VftV15(&rc), rc);
  if (tool == "v2") return analyze_with(t, VftV2(&rc), rc);
  if (tool == "ft-mutex") return analyze_with(t, FtMutex(&rc), rc);
  if (tool == "ft-cas") return analyze_with(t, FtCas(&rc), rc);
  if (tool == "djit") return analyze_with(t, Djit(&rc), rc);
  return usage();
}

int cmd_generate(int argc, char** argv) {
  trace::GeneratorConfig cfg;
  cfg.ops = static_cast<std::uint32_t>(
      std::atoi(arg_value(argc, argv, "--ops", "100").c_str()));
  cfg.initial_threads = static_cast<std::uint32_t>(
      std::atoi(arg_value(argc, argv, "--threads", "3").c_str()));
  cfg.max_threads = static_cast<std::uint32_t>(
      std::atoi(arg_value(argc, argv, "--forked", "2").c_str()));
  cfg.vars = static_cast<std::uint32_t>(
      std::atoi(arg_value(argc, argv, "--vars", "8").c_str()));
  cfg.locks = static_cast<std::uint32_t>(
      std::atoi(arg_value(argc, argv, "--locks", "2").c_str()));
  cfg.disciplined_fraction =
      std::atof(arg_value(argc, argv, "--disciplined", "1.0").c_str());
  cfg.seed = static_cast<std::uint64_t>(
      std::atoll(arg_value(argc, argv, "--seed", "1").c_str()));
  const trace::Trace t = trace::generate(cfg);
  for (const trace::Op& op : t) std::printf("%s\n", op.str().c_str());
  return 0;
}

template <typename D>
int bench_with(const std::string& kernel, kernels::KernelConfig cfg) {
  for (const auto& e : kernels::kernel_table<D>()) {
    if (kernel != e.name) continue;
    RaceCollector races;
    RuleStats stats;
    rt::Runtime<D> R{D(&races, &stats)};
    typename rt::Runtime<D>::MainScope scope(R);
    const auto t0 = std::chrono::steady_clock::now();
    const kernels::KernelResult result = e.fn(R, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    std::printf("%s/%s: %.4fs valid=%d races=%zu checksum=%.6g shadow=%s\n",
                e.name, D::kName,
                std::chrono::duration<double>(t1 - t0).count(),
                result.valid ? 1 : 0, races.count(), result.checksum,
                kernels::shadow_backend_name(cfg.shadow));
    if (R.has_packed_space()) {
      std::printf("  packed space: %s\n",
                  rt::str(R.packed_space().stats()).c_str());
      const std::uint64_t all = stats.total_accesses();
      const std::uint64_t rh = stats.count(Rule::kFastReadHit);
      const std::uint64_t wh = stats.count(Rule::kFastWriteHit);
      auto pct = [all](std::uint64_t n) {
        return all == 0 ? 0.0 : 100.0 * static_cast<double>(n) /
                                    static_cast<double>(all);
      };
      std::printf("  fast path: read-hit %.1f%% write-hit %.1f%% miss %.1f%% "
                  "spills=%llu (of %llu accesses)\n",
                  pct(rh), pct(wh), pct(stats.count(Rule::kFastMiss)),
                  static_cast<unsigned long long>(
                      stats.count(Rule::kFastSpill)),
                  static_cast<unsigned long long>(all));
    }
    return result.valid ? 0 : 1;
  }
  std::fprintf(stderr, "unknown kernel %s (see DESIGN.md 1.4)\n",
               kernel.c_str());
  return 2;
}

int cmd_bench(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string kernel = argv[0];
  kernels::KernelConfig cfg;
  cfg.threads = static_cast<std::uint32_t>(
      std::atoi(arg_value(argc, argv, "--threads", "4").c_str()));
  cfg.scale = static_cast<std::uint32_t>(
      std::atoi(arg_value(argc, argv, "--scale", "2").c_str()));
  const std::string shadow = arg_value(argc, argv, "--shadow", "inline");
  if (shadow == "packed") {
    cfg.shadow = kernels::ShadowBackend::kPacked;
  } else if (shadow != "inline") {
    std::fprintf(stderr, "unknown shadow backend %s\n", shadow.c_str());
    return usage();
  }
  const std::string tool = arg_value(argc, argv, "--tool", "v2");
  if (tool == "none") return bench_with<rt::NullTool>(kernel, cfg);
  if (tool == "v1") return bench_with<VftV1>(kernel, cfg);
  if (tool == "v1.5") return bench_with<VftV15>(kernel, cfg);
  if (tool == "v2") return bench_with<VftV2>(kernel, cfg);
  if (tool == "ft-mutex") return bench_with<FtMutex>(kernel, cfg);
  if (tool == "ft-cas") return bench_with<FtCas>(kernel, cfg);
  if (tool == "djit") return bench_with<Djit>(kernel, cfg);
  return usage();
}

int cmd_minimize(int argc, char** argv) {
  if (argc < 1) return usage();
  trace::Trace t;
  if (!trace::parse(load_trace_text(argv[0]), &t)) {
    std::fprintf(stderr, "parse error\n");
    return 2;
  }
  if (const auto err = trace::check_feasible(t)) {
    std::fprintf(stderr, "infeasible at op %zu: %s\n", err->index,
                 err->message.c_str());
    return 2;
  }
  if (trace::analyze(t).race_free()) {
    std::printf("trace is race-free; nothing to minimize\n");
    return 0;
  }
  const trace::MinimizeResult r = trace::minimize_racy_trace(t);
  std::printf("minimized %zu ops -> %zu ops (%zu oracle calls)\n", t.size(),
              r.trace.size(), r.oracle_calls);
  for (const trace::Op& op : r.trace) std::printf("%s\n", op.str().c_str());
  return 0;
}

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream all;
  all << in.rdbuf();
  return all.str();
}

/// What `vft run` learned from the report file the target (or its crash
/// handler) left behind.
struct RunReport {
  bool found = false;    ///< a report file existed and yielded a summary
  bool partial = false;  ///< crash-path write or truncated file
  long races = -1;
  long suppressed = 0;
  reportio::SamplingInfo sampling;  ///< .enabled iff the run was sampled
};

/// Race count scraped from the plain text form ("summary: races=N ...").
/// -1 when there is no summary to scrape.
long scrape_race_count(const std::string& text) {
  const std::size_t sum = text.find("summary");
  if (sum == std::string::npos) return -1;
  const std::size_t key = text.find("races", sum);
  if (key == std::string::npos) return -1;
  std::size_t i = key + 5;
  while (i < text.size() && (text[i] == '"' || text[i] == ':' ||
                             text[i] == '=' || text[i] == ' ')) {
    ++i;
  }
  if (i >= text.size() || text[i] < '0' || text[i] > '9') return -1;
  return std::atol(text.c_str() + i);
}

/// Parse whatever the run left at `path`: the v2 JSON schema through the
/// tolerant parser (which salvages complete contexts from a file a dying
/// target cut short), or the plain text form by summary-scraping.
RunReport load_run_report(const std::string& path) {
  RunReport r;
  const auto text = slurp(path);
  if (!text.has_value()) return r;
  std::size_t first = text->find_first_not_of(" \t\r\n");
  if (first != std::string::npos && (*text)[first] == '{') {
    reportio::ReportDoc doc;
    if (reportio::parse_report(*text, &doc)) {
      r.found = true;
      r.partial = doc.truncated || !doc.clean_exit;
      r.races = static_cast<long>(doc.summary.races);
      r.suppressed = static_cast<long>(doc.summary.suppressed);
      r.sampling = doc.sampling;
      return r;
    }
  }
  const long races = scrape_race_count(*text);
  if (races >= 0) {
    r.found = true;
    r.races = races;
  }
  return r;
}

int cmd_run(int argc, char** argv) {
  int sep = -1;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--") == 0) {
      sep = i;
      break;
    }
  }
  if (sep < 0 || sep + 1 >= argc) {
    std::fprintf(stderr, "vft run: missing `-- <program> [args...]`\n");
    return usage();
  }

  const std::string detector = arg_value(sep, argv, "--detector", "v2");
  const std::string expect = arg_value(sep, argv, "--expect", "");
  const std::string suppressions =
      arg_value(sep, argv, "--suppressions", "");
  if (!expect.empty() && expect != "race" && expect != "none") {
    std::fprintf(stderr, "vft run: --expect wants `race` or `none`\n");
    return 2;
  }

  // Sampling knobs: flags win over inherited environment (and are
  // propagated explicitly below, so the child's configuration never
  // depends on what happens to be in vft's own env). Validate here -
  // rejecting a bad spec in the launcher beats a warning buried in the
  // target's stderr.
  std::string budget = arg_value(sep, argv, "--budget", "");
  std::string sampling_spec = arg_value(sep, argv, "--sampling", "");
  if (budget.empty()) {
    if (const char* env = std::getenv("VFT_BUDGET")) budget = env;
  }
  if (sampling_spec.empty()) {
    if (const char* env = std::getenv("VFT_SAMPLING")) sampling_spec = env;
  }
  sampling::Config sampling_cfg;
  {
    std::string err;
    if (!sampling::parse_config(
            sampling_spec.empty() ? nullptr : sampling_spec.c_str(),
            budget.empty() ? nullptr : budget.c_str(), &sampling_cfg, &err)) {
      std::fprintf(stderr, "vft run: %s\n", err.c_str());
      return 2;
    }
  }

  std::string preload = arg_value(sep, argv, "--preload", "");
  if (preload.empty()) {
    if (const char* env = std::getenv("VFT_PRELOAD")) preload = env;
  }
#ifdef VFT_PRELOAD_DEFAULT
  if (preload.empty()) preload = VFT_PRELOAD_DEFAULT;
#endif
  if (preload.empty()) {
    std::fprintf(stderr,
                 "vft run: no interposition library available in this build "
                 "(sanitizer configurations do not build it); pass "
                 "--preload <libvft_preload.so> or set VFT_PRELOAD\n");
    return 2;
  }

  std::string report = arg_value(sep, argv, "--report", "");
  bool temp_report = false;
  if (report.empty()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "/tmp/vft-report-%d.json",
                  static_cast<int>(getpid()));
    report = buf;
    temp_report = true;
  }

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("vft run: fork");
    return 2;
  }
  if (pid == 0) {
    setenv("LD_PRELOAD", preload.c_str(), 1);
    setenv("VFT_DETECTOR", detector.c_str(), 1);
    setenv("VFT_REPORT", report.c_str(), 1);
    if (!suppressions.empty()) {
      setenv("VFT_SUPPRESSIONS", suppressions.c_str(), 1);
    }
    if (!budget.empty()) setenv("VFT_BUDGET", budget.c_str(), 1);
    if (!sampling_spec.empty()) setenv("VFT_SAMPLING", sampling_spec.c_str(), 1);
    execvp(argv[sep + 1], argv + sep + 1);
    std::perror("vft run: exec");
    _exit(127);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  const bool signaled = WIFSIGNALED(status);
  const int target_rc = WIFEXITED(status) ? WEXITSTATUS(status)
                                          : 128 + WTERMSIG(status);

  const RunReport rr = load_run_report(report);
  if (!rr.found) {
    // No salvageable report at all: the target died before the interposer
    // could write anything (e.g. SIGKILL, or a crash inside the crash
    // handler). Still give a verdict - just an inconclusive one.
    if (signaled) {
      std::fprintf(stderr,
                   "vft run: target killed by signal %d before any report "
                   "could be written (%s); verdict: inconclusive\n",
                   WTERMSIG(status), report.c_str());
    } else {
      std::fprintf(stderr,
                   "vft run: no report from the target (exit %d) at %s; "
                   "verdict: inconclusive\n",
                   target_rc, report.c_str());
    }
    if (temp_report) std::remove(report.c_str());
    return expect.empty() ? target_rc : 1;
  }

  std::printf("vft run: detector=%s races=%ld suppressed=%ld "
              "target-exit=%d%s%s%s\n",
              detector.c_str(), rr.races, rr.suppressed, target_rc,
              rr.partial ? " (partial)" : "",
              temp_report ? "" : " report=",
              temp_report ? "" : report.c_str());
  if (sampling_cfg.enabled) {
    std::printf("vft run: sampling: %s\n",
                sampling::describe(sampling_cfg).c_str());
  }
  if (rr.sampling.enabled) {
    const reportio::SamplingInfo& sp = rr.sampling;
    const double total = static_cast<double>(sp.sampled + sp.skipped);
    std::printf(
        "vft run: sampling achieved: rate=%.4f (now %.4f) overhead=%.2f%% "
        "sampled=%llu skipped=%llu reheats=%llu adjustments=%llu\n",
        total > 0 ? static_cast<double>(sp.sampled) / total : 0.0,
        static_cast<double>(sp.rate_ppm) / 1e6,
        sp.busy_ns > 0 ? 100.0 * static_cast<double>(sp.overhead_ns) /
                             static_cast<double>(sp.busy_ns)
                       : 0.0,
        static_cast<unsigned long long>(sp.sampled),
        static_cast<unsigned long long>(sp.skipped),
        static_cast<unsigned long long>(sp.reheats),
        static_cast<unsigned long long>(sp.adjustments));
  }
  if (rr.partial) {
    std::printf("vft run: verdict from a PARTIAL report: the target %s "
                "mid-run; counts cover everything detected before that\n",
                signaled ? "was killed" : "crashed or was killed");
  }
  if (temp_report) std::remove(report.c_str());

  if (expect == "race") {
    if (rr.races > 0) return 0;
    std::fprintf(stderr, "vft run: expected a race, found none%s\n",
                 rr.partial ? " (partial report)" : "");
    return 1;
  }
  if (expect == "none") {
    if (rr.races == 0 && !rr.partial) return 0;
    if (rr.races == 0) {
      std::fprintf(stderr,
                   "vft run: race-free so far, but the report is partial "
                   "(target died mid-run) - refusing a clean verdict\n");
      return 1;
    }
    std::fprintf(stderr, "vft run: expected race-free, found %ld\n",
                 rr.races);
    return 1;
  }
  return target_rc;
}

// ---------------------------------------------------------------------
// vft report: offline triage over vft-report-v2 JSON files.
// ---------------------------------------------------------------------

bool write_out(const std::string& out_path, const std::string& text) {
  if (out_path.empty() || out_path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "vft report: cannot write %s\n", out_path.c_str());
    return false;
  }
  out << text;
  return out.good();
}

bool load_doc(const std::string& path, reportio::ReportDoc* doc) {
  const auto text = slurp(path);
  if (!text.has_value()) {
    std::fprintf(stderr, "vft report: cannot read %s\n", path.c_str());
    return false;
  }
  std::string err;
  if (!reportio::parse_report(*text, doc, &err)) {
    std::fprintf(stderr, "vft report: %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  if (doc->truncated) {
    std::fprintf(stderr,
                 "vft report: note: %s is truncated; using the %zu "
                 "complete context(s) it still holds\n",
                 path.c_str(), doc->contexts.size());
  }
  return true;
}

/// One batch of addresses through the symbolizer for one module.
/// addr2line and llvm-symbolizer (GNU output style) agree on the shape:
/// with -f, each address yields a function line then a file:line line.
/// Addresses are `offset - 1`: a frame holds a *return* address, and the
/// byte before it is inside the calling instruction - the line the call
/// is on, not the line after it.
std::vector<std::pair<std::string, std::string>> symbolize_module(
    const std::string& symbolizer, const std::string& module,
    const std::vector<std::uint64_t>& offsets) {
  std::vector<std::pair<std::string, std::string>> out(offsets.size(),
                                                       {"", ""});
  const bool llvm = symbolizer.find("llvm-symbolizer") != std::string::npos;
  std::string cmd = "'" + symbolizer + "'";
  if (llvm) {
    cmd += " --output-style=GNU --functions=linkage --demangle --obj='" +
           module + "'";
  } else {
    cmd += " -f -C -e '" + module + "'";
  }
  char buf[32];
  for (const std::uint64_t off : offsets) {
    std::snprintf(buf, sizeof(buf), " 0x%llx",
                  static_cast<unsigned long long>(off == 0 ? 0 : off - 1));
    cmd += buf;
  }
  cmd += " 2>/dev/null";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  std::string text;
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), pipe)) > 0) {
    text.append(chunk, n);
  }
  pclose(pipe);

  std::istringstream lines(text);
  std::string line;
  std::size_t i = 0;
  while (i < offsets.size() && std::getline(lines, line)) {
    if (line.empty()) continue;  // llvm-symbolizer's blank separators
    const std::string func = line;
    std::string loc;
    if (!std::getline(lines, loc)) break;
    out[i] = {func, loc};
    ++i;
  }
  return out;
}

void apply_symbolization(reportio::ReportDoc* doc,
                         const std::string& symbolizer) {
  // Batch per module: every unresolved (module, offset) pair goes through
  // one symbolizer invocation per module.
  std::map<std::string, std::vector<std::uint64_t>> batches;
  for (const auto& c : doc->contexts) {
    for (const auto& a : c.accesses) {
      for (const auto& f : a.stack) {
        if (!f.module.empty()) batches[f.module].push_back(f.offset);
      }
    }
  }
  std::map<std::string,
           std::vector<std::pair<std::string, std::string>>> results;
  for (const auto& [module, offsets] : batches) {
    results[module] = symbolize_module(symbolizer, module, offsets);
  }
  std::map<std::string, std::size_t> cursor;
  for (auto& c : doc->contexts) {
    for (auto& a : c.accesses) {
      for (auto& f : a.stack) {
        if (f.module.empty()) continue;
        const std::size_t i = cursor[f.module]++;
        const auto& mod_results = results[f.module];
        if (i >= mod_results.size()) continue;
        const auto& [func, loc] = mod_results[i];
        if (!func.empty() && func != "??") {
          f.symbol = func;
          f.symbol_offset = 0;  // line info supersedes the dladdr offset
        }
        // loc is "file:line" (possibly ":col" suffixed, possibly "??:0").
        const std::size_t colon = loc.find_last_of(':');
        std::string file = colon == std::string::npos
                               ? loc
                               : loc.substr(0, colon);
        std::string line_s =
            colon == std::string::npos ? "" : loc.substr(colon + 1);
        // GNU style can emit file:line:col - peel a trailing column.
        const std::size_t colon2 = file.find_last_of(':');
        if (colon2 != std::string::npos &&
            file.find_first_not_of("0123456789", colon2 + 1) ==
                std::string::npos) {
          line_s = file.substr(colon2 + 1);
          file = file.substr(0, colon2);
        }
        if (!file.empty() && file != "??") {
          f.file = file;
          f.line = std::atoi(line_s.c_str());
        }
      }
    }
  }
}

int cmd_report(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string what = argv[0];
  const std::string out_path = arg_value(argc, argv, "--out", "");

  // Positional arguments: everything that is neither a flag nor a flag's
  // value.
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-' && argv[i][1] == '-') {
      ++i;  // skip the flag's value
      continue;
    }
    inputs.emplace_back(argv[i]);
  }

  if (what == "merge") {
    if (inputs.empty()) {
      std::fprintf(stderr, "vft report merge: no input reports\n");
      return 2;
    }
    std::vector<reportio::ReportDoc> docs(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (!load_doc(inputs[i], &docs[i])) return 2;
    }
    const reportio::ReportDoc merged = reportio::merge_reports(docs);
    return write_out(out_path, reportio::render_json(merged)) ? 0 : 2;
  }

  if (what == "symbolize") {
    if (inputs.size() != 1) {
      std::fprintf(stderr, "vft report symbolize: want one input report\n");
      return 2;
    }
    reportio::ReportDoc doc;
    if (!load_doc(inputs[0], &doc)) return 2;
    const std::string symbolizer =
        arg_value(argc, argv, "--symbolizer", "addr2line");
    apply_symbolization(&doc, symbolizer);
    return write_out(out_path, reportio::render_json(doc)) ? 0 : 2;
  }

  if (what == "show") {
    if (inputs.size() != 1) {
      std::fprintf(stderr, "vft report show: want one input report\n");
      return 2;
    }
    reportio::ReportDoc doc;
    if (!load_doc(inputs[0], &doc)) return 2;
    return write_out(out_path, reportio::render_plain(doc)) ? 0 : 2;
  }

  if (what == "skeleton") {
    if (inputs.size() != 1) {
      std::fprintf(stderr, "vft report skeleton: want one input report\n");
      return 2;
    }
    const auto text = slurp(inputs[0]);
    if (!text.has_value()) {
      std::fprintf(stderr, "vft report: cannot read %s\n",
                   inputs[0].c_str());
      return 2;
    }
    return write_out(out_path, reportio::json_skeleton(*text)) ? 0 : 2;
  }

  return usage();
}

int cmd_rules() {
  std::printf(
      "Figure 2 analysis rules (VerifiedFT):\n"
      "  [Read Same Epoch]         re-read within the epoch: no-op (60%% of accesses)\n"
      "  [Read Shared Same Epoch]  re-read of read-shared data within the epoch (12%%)\n"
      "  [Read Exclusive]          ordered read: R := E_t\n"
      "  [Read Share]              concurrent reads: inflate R to a vector clock\n"
      "  [Read Shared]             read-shared bookkeeping: V(t) := E_t\n"
      "  [Write Same Epoch]        re-write within the epoch: no-op (14%%)\n"
      "  [Write Exclusive]         ordered write: W := E_t\n"
      "  [Write Shared]            write over read-shared data (full VC check)\n"
      "  [Write-Read Race]         read races with the last write\n"
      "  [Write-Write Race]        write races with the last write\n"
      "  [Read-Write Race]         write races with the last (epoch) read\n"
      "  [Shared-Write Race]       write races with an unordered shared read\n");
  return 0;
}

void print_sched_artifacts(const std::vector<sched::FailureArtifact>& all,
                           const char* scenario) {
  for (sched::FailureArtifact a : all) {
    a.scenario = scenario;
    std::printf("%s\n", sched::format_artifact(a).c_str());
  }
}

int cmd_sched(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string what = argv[0];
  if (what == "list") {
    for (const sched::Scenario& s : sched::scenarios()) {
      std::printf("%-22s %s%s\n", s.name, s.summary,
                  s.expect_deadlocks ? " (deadlocks expected)" : "");
    }
    std::printf("mutations (--mutate): volatile-value-before-arm"
                " escalate-publish-before-inject\n");
    return 0;
  }
  if (!sched::kEnabled) {
    std::fprintf(stderr,
                 "vft sched needs a -DVFT_SCHED=ON build; in this one the "
                 "hot-path schedule points compile to no-ops, so there is "
                 "nothing to explore\n");
    return 2;
  }
  const sched::Scenario* sc = sched::find_scenario(what);
  if (sc == nullptr) {
    std::fprintf(stderr, "unknown scenario %s (try `vft sched list`)\n",
                 what.c_str());
    return 2;
  }

  const std::string mutate = arg_value(argc, argv, "--mutate", "");
  std::unique_ptr<sched::ScopedMutation> armed;
  if (!mutate.empty()) {
    std::atomic<bool>* knob = sched::find_mutation(mutate);
    if (knob == nullptr) {
      std::fprintf(stderr, "unknown mutation %s (try `vft sched list`)\n",
                   mutate.c_str());
      return 2;
    }
    armed = std::make_unique<sched::ScopedMutation>(*knob);
  }

  const std::string schedule_csv = arg_value(argc, argv, "--schedule", "");
  if (!schedule_csv.empty()) {
    const std::optional<sched::Schedule> plan =
        sched::parse_schedule(schedule_csv);
    if (!plan.has_value()) {
      std::fprintf(stderr, "--schedule wants comma-separated thread "
                           "indices, e.g. 0,1,1,0\n");
      return 2;
    }
    const sched::ReplayOutcome out = sched::replay(sc->make, *plan);
    if (out.error.has_value()) {
      std::printf("replay: FAIL (%s)\n", out.error->c_str());
      return 1;
    }
    std::printf("replay: schedule completes and every oracle agrees\n");
    return 0;
  }

  const std::string seed = arg_value(argc, argv, "--seed", "");
  if (!seed.empty()) {
    sched::PctConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(std::atoll(seed.c_str()));
    cfg.preemptions =
        std::atoi(arg_value(argc, argv, "--preemptions", "3").c_str());
    cfg.runs = static_cast<std::size_t>(
        std::atoll(arg_value(argc, argv, "--runs", "200").c_str()));
    cfg.length_hint = static_cast<std::size_t>(
        std::atoll(arg_value(argc, argv, "--length-hint", "32").c_str()));
    const sched::PctResult r = sched::explore_pct(sc->make, cfg);
    std::printf("%s: pct seed=%llu d=%d runs=%zu failures=%zu "
                "deadlocks=%zu livelocks=%zu\n",
                sc->name, static_cast<unsigned long long>(cfg.seed),
                cfg.preemptions, r.runs, r.failures, r.deadlocks,
                r.livelocks);
    print_sched_artifacts(r.artifacts, sc->name);
    return r.failures == 0 ? 0 : 1;
  }

  sched::ExploreConfig cfg;
  cfg.preemption_bound =
      std::atoi(arg_value(argc, argv, "--bound", "-1").c_str());
  const sched::ExploreResult r = sched::explore_dfs(sc->make, cfg);
  std::printf("%s: schedules=%zu sleep_blocked=%zu bound_blocked=%zu "
              "deadlocks=%zu livelocks=%zu failures=%zu%s\n",
              sc->name, r.schedules, r.sleep_blocked, r.bound_blocked,
              r.deadlocks, r.livelocks, r.failures,
              r.capped ? " (CAPPED)" : "");
  print_sched_artifacts(r.artifacts, sc->name);
  const bool deadlocks_ok =
      sc->expect_deadlocks ? r.deadlocks > 0 : r.deadlocks == 0;
  return r.failures == 0 && r.livelocks == 0 && !r.capped && deadlocks_ok
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "analyze") return cmd_analyze(argc - 2, argv + 2);
  if (cmd == "generate") return cmd_generate(argc - 2, argv + 2);
  if (cmd == "bench") return cmd_bench(argc - 2, argv + 2);
  if (cmd == "minimize") return cmd_minimize(argc - 2, argv + 2);
  if (cmd == "sched") return cmd_sched(argc - 2, argv + 2);
  if (cmd == "run") return cmd_run(argc - 2, argv + 2);
  if (cmd == "report") return cmd_report(argc - 2, argv + 2);
  if (cmd == "rules") return cmd_rules();
  return usage();
}
