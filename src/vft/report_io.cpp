#include "vft/report_io.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "vft/report.h"

namespace vft::reportio {

// ---------------------------------------------------------------------
// JSON tree.
// ---------------------------------------------------------------------

const Json* Json::get(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::uint64_t Json::as_u64(std::uint64_t fallback) const {
  if (type == Type::kNumber && !number.empty()) {
    return std::strtoull(number.c_str(), nullptr, 10);
  }
  if (type == Type::kString && string.rfind("0x", 0) == 0) {
    return std::strtoull(string.c_str() + 2, nullptr, 16);
  }
  return fallback;
}

std::int64_t Json::as_i64(std::int64_t fallback) const {
  if (type == Type::kNumber && !number.empty()) {
    return std::strtoll(number.c_str(), nullptr, 10);
  }
  return fallback;
}

namespace {

/// Recursive-descent parser, tolerant of truncation: running out of
/// input mid-value keeps everything parsed so far and clears `complete`,
/// so a report cut short by a dying process still yields its finished
/// contexts. Structural errors (not truncation) set `error`.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParse run() {
    JsonParse out;
    skip_ws();
    out.value = parse_value(0);
    out.complete = !truncated_ && error_.empty();
    out.error = error_;
    return out;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  void fail(const std::string& what) {
    if (error_.empty()) {
      error_ = "json: " + what + " at offset " + std::to_string(pos_);
    }
  }

  Json parse_value(int depth) {
    Json v;
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return v;
    }
    skip_ws();
    if (eof()) {
      truncated_ = true;
      return v;
    }
    const char c = peek();
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') return parse_string_value();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') return parse_null();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail(std::string("unexpected character '") + c + "'");
    return v;
  }

  Json parse_object(int depth) {
    Json v;
    v.type = Json::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      if (eof()) {
        truncated_ = true;
        return v;
      }
      if (peek() != '"') {
        fail("expected object key");
        return v;
      }
      std::string key;
      if (!parse_string_raw(&key)) return v;
      skip_ws();
      if (eof()) {
        truncated_ = true;
        return v;
      }
      if (peek() != ':') {
        fail("expected ':'");
        return v;
      }
      ++pos_;
      const std::size_t before_errors = error_.size();
      Json member = parse_value(depth + 1);
      // A scalar cut off mid-way is dropped; a truncated container is kept
      // (it already dropped its own incomplete tail), so a report that
      // dies inside "contexts" still surfaces the complete entries.
      if (before_errors == error_.size() &&
          (!truncated_ || member.type == Json::Type::kObject ||
           member.type == Json::Type::kArray)) {
        v.object.emplace_back(std::move(key), std::move(member));
      }
      if (truncated_ || !error_.empty()) return v;
      skip_ws();
      if (eof()) {
        truncated_ = true;
        return v;
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}'");
      return v;
    }
  }

  Json parse_array(int depth) {
    Json v;
    v.type = Json::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      const std::size_t before_errors = error_.size();
      Json elem = parse_value(depth + 1);
      if (before_errors == error_.size() &&
          (!truncated_ || elem.type == Json::Type::kObject ||
           elem.type == Json::Type::kArray)) {
        v.array.push_back(std::move(elem));
      }
      if (truncated_ || !error_.empty()) return v;
      skip_ws();
      if (eof()) {
        truncated_ = true;
        return v;
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']'");
      return v;
    }
  }

  bool parse_string_raw(std::string* out) {
    ++pos_;  // '"'
    std::string s;
    while (true) {
      if (eof()) {
        truncated_ = true;
        return false;
      }
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (eof()) {
          truncated_ = true;
          return false;
        }
        const char e = text_[pos_++];
        switch (e) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'n': s += '\n'; break;
          case 'r': s += '\r'; break;
          case 't': s += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              truncated_ = true;
              return false;
            }
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("bad \\u escape");
                return false;
              }
            }
            // We only emit \u00XX for raw bytes; decode those back to the
            // byte. Larger code points get a UTF-8 encoding.
            if (cp < 0x80) {
              s += static_cast<char>(cp);
            } else if (cp < 0x100) {
              s += static_cast<char>(cp);
            } else if (cp < 0x800) {
              s += static_cast<char>(0xC0 | (cp >> 6));
              s += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              s += static_cast<char>(0xE0 | (cp >> 12));
              s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              s += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default:
            fail("bad escape");
            return false;
        }
        continue;
      }
      s += c;
    }
    *out = std::move(s);
    return true;
  }

  Json parse_string_value() {
    Json v;
    v.type = Json::Type::kString;
    parse_string_raw(&v.string);
    return v;
  }

  Json parse_bool() {
    Json v;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.type = Json::Type::kBool;
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.type = Json::Type::kBool;
      v.boolean = false;
      pos_ += 5;
    } else if (text_.size() - pos_ < 5) {
      truncated_ = true;
    } else {
      fail("bad literal");
    }
    return v;
  }

  Json parse_null() {
    Json v;
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else if (text_.size() - pos_ < 4) {
      truncated_ = true;
    } else {
      fail("bad literal");
    }
    return v;
  }

  Json parse_number() {
    Json v;
    v.type = Json::Type::kNumber;
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() && ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
                      peek() == 'e' || peek() == 'E' || peek() == '+' ||
                      peek() == '-')) {
      ++pos_;
    }
    v.number = std::string(text_.substr(start, pos_ - start));
    if (v.number.empty() || v.number == "-") fail("bad number");
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool truncated_ = false;
  std::string error_;
};

std::string hex(std::uint64_t v, int width = 0) {
  char buf[32];
  if (width > 0) {
    std::snprintf(buf, sizeof(buf), "0x%0*llx", width,
                  static_cast<unsigned long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
  }
  return buf;
}

}  // namespace

JsonParse parse_json(std::string_view text) { return Parser(text).run(); }

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  char buf[8];
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (u >= 0x20 && u < 0x7f) {
      out += c;
    } else {
      // Control bytes and everything non-ASCII: \u00XX keeps the output
      // valid JSON for arbitrary input bytes (paths are not always UTF-8).
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      out += buf;
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Live-collector snapshot.
// ---------------------------------------------------------------------

ReportDoc build_report_doc(const RaceCollector& rc, const char* detector,
                           std::size_t threads, std::size_t locks,
                           std::size_t shadow_words, bool clean_exit) {
  ReportDoc doc;
  doc.detector = detector == nullptr ? "" : detector;
  doc.clean_exit = clean_exit;
  doc.summary.threads = threads;
  doc.summary.locks = locks;
  doc.summary.shadow_words = shadow_words;

  for (const RaceContext& c : rc.contexts()) {
    Context out;
    out.key = hex(c.key, 16);
    out.kind = race_kind_name(c.first.kind);
    out.var = hex(c.first.var);
    if (const auto name = rc.var_name(c.first.var)) out.var_name = *name;
    out.count = c.count;
    if (c.suppressed_by != nullptr) out.suppressed_by = c.suppressed_by->name;

    // Access kinds follow from the race kind: a write-read race is a
    // current *read* against a prior *write*; every other kind has a
    // current write, racing against a prior write (write-write) or a
    // prior read (read-write, shared-write).
    Access cur;
    cur.role = "current";
    cur.kind = c.first.kind == RaceKind::kWriteRead ? "read" : "write";
    cur.tid = c.first.current_tid;
    cur.epoch = c.first.current.str();
    for (const ResolvedFrame& f : c.frames) {
      Frame fr;
      fr.pc = f.pc;
      fr.module = f.module;
      fr.offset = f.offset;
      fr.symbol = f.symbol;
      fr.symbol_offset = f.sym_offset;
      cur.stack.push_back(std::move(fr));
    }
    Access prior;
    prior.role = "prior";
    prior.kind = (c.first.kind == RaceKind::kWriteRead ||
                  c.first.kind == RaceKind::kWriteWrite)
                     ? "write"
                     : "read";
    prior.tid = c.first.prior.is_shared() ? 0 : c.first.prior.tid();
    prior.epoch = c.first.prior.str();
    for (const ResolvedFrame& f : c.prior_frames) {
      Frame fr;
      fr.pc = f.pc;
      fr.module = f.module;
      fr.offset = f.offset;
      fr.symbol = f.symbol;
      fr.symbol_offset = f.sym_offset;
      prior.stack.push_back(std::move(fr));
    }
    out.accesses.push_back(std::move(cur));
    out.accesses.push_back(std::move(prior));
    doc.contexts.push_back(std::move(out));
  }
  for (const auto& [name, matched] : rc.suppression_stats()) {
    doc.suppression_stats.emplace_back(name, matched);
  }

  for (const Context& c : doc.contexts) {
    if (c.hidden()) {
      doc.summary.suppressed += c.count;
      ++doc.summary.suppressed_contexts;
    } else {
      doc.summary.races += c.count;
      ++doc.summary.contexts;
    }
  }
  return doc;
}

// ---------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------

namespace {

void render_frame(std::string& o, const Frame& f, const char* indent) {
  o += indent;
  o += "{\"pc\": \"" + hex(f.pc) + "\"";
  if (!f.module.empty()) {
    o += ", \"module\": \"" + json_escape(f.module) + "\"";
    o += ", \"offset\": \"" + hex(f.offset) + "\"";
  }
  if (!f.symbol.empty()) {
    o += ", \"symbol\": \"" + json_escape(f.symbol) + "\"";
    o += ", \"symbol_offset\": \"" + hex(f.symbol_offset) + "\"";
  }
  if (!f.file.empty()) {
    o += ", \"file\": \"" + json_escape(f.file) + "\"";
    o += ", \"line\": " + std::to_string(f.line < 0 ? 0 : f.line);
  }
  o += "}";
}

void render_access(std::string& o, const Access& a) {
  o += "      {\"role\": \"" + json_escape(a.role) + "\"";
  if (!a.kind.empty()) o += ", \"kind\": \"" + json_escape(a.kind) + "\"";
  o += ", \"tid\": " + std::to_string(a.tid) + ", \"epoch\": \"" +
       json_escape(a.epoch) + "\",\n       \"stack\": [";
  for (std::size_t i = 0; i < a.stack.size(); ++i) {
    o += i == 0 ? "\n" : ",\n";
    render_frame(o, a.stack[i], "         ");
  }
  if (!a.stack.empty()) o += "\n       ";
  o += "]}";
}

/// Contexts ordered by (kind, var, key, var_name): the canonical output
/// order, independent of discovery or merge-input order.
bool context_less(const Context& a, const Context& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.var != b.var) return a.var < b.var;
  if (a.key != b.key) return a.key < b.key;
  return a.var_name < b.var_name;
}

}  // namespace

std::string render_json(const ReportDoc& doc) {
  std::vector<const Context*> ordered;
  ordered.reserve(doc.contexts.size());
  for (const Context& c : doc.contexts) ordered.push_back(&c);
  std::sort(ordered.begin(), ordered.end(),
            [](const Context* a, const Context* b) {
              return context_less(*a, *b);
            });

  std::string o;
  o += "{\n";
  o += "  \"schema\": \"vft-report-v2\",\n";
  o += "  \"detector\": \"" + json_escape(doc.detector) + "\",\n";
  o += "  \"runs\": " + std::to_string(doc.runs) + ",\n";
  o += std::string("  \"clean_exit\": ") +
       (doc.clean_exit ? "true" : "false") + ",\n";
  if (doc.sampling.enabled) {
    const SamplingInfo& sp = doc.sampling;
    const std::uint64_t total = sp.sampled + sp.skipped;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  \"sampling\": {\"budget_pct\": %g",
                  sp.budget_pct);
    o += buf;
    std::snprintf(buf, sizeof(buf), ", \"rate0\": %g", sp.rate0);
    o += buf;
    o += ", \"rate_ppm\": " + std::to_string(sp.rate_ppm);
    o += ",\n               \"sampled\": " + std::to_string(sp.sampled);
    o += ", \"skipped\": " + std::to_string(sp.skipped);
    o += ",\n               \"overhead_ns\": " + std::to_string(sp.overhead_ns);
    o += ", \"busy_ns\": " + std::to_string(sp.busy_ns);
    o += ", \"adjustments\": " + std::to_string(sp.adjustments);
    std::snprintf(buf, sizeof(buf), ",\n               \"achieved_rate\": %.6f",
                  total > 0 ? static_cast<double>(sp.sampled) /
                                  static_cast<double>(total)
                            : 0.0);
    o += buf;
    std::snprintf(buf, sizeof(buf), ", \"overhead_pct\": %.3f",
                  sp.busy_ns > 0 ? 100.0 * static_cast<double>(sp.overhead_ns) /
                                       static_cast<double>(sp.busy_ns)
                                 : 0.0);
    o += buf;
    o += "},\n";
  }
  o += "  \"contexts\": [";
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const Context& c = *ordered[i];
    o += i == 0 ? "\n" : ",\n";
    o += "    {\"key\": \"" + c.key + "\",\n";
    o += "     \"kind\": \"" + json_escape(c.kind) + "\",\n";
    o += "     \"var\": \"" + json_escape(c.var) + "\",\n";
    if (!c.var_name.empty()) {
      o += "     \"var_name\": \"" + json_escape(c.var_name) + "\",\n";
    }
    o += "     \"count\": " + std::to_string(c.count) + ",\n";
    if (!c.suppressed_by.empty()) {
      o += "     \"suppressed_by\": \"" + json_escape(c.suppressed_by) +
           "\",\n";
    }
    o += "     \"accesses\": [";
    for (std::size_t j = 0; j < c.accesses.size(); ++j) {
      o += j == 0 ? "\n" : ",\n";
      render_access(o, c.accesses[j]);
    }
    if (!c.accesses.empty()) o += "\n     ";
    o += "]}";
  }
  if (!ordered.empty()) o += "\n  ";
  o += "],\n";
  o += "  \"suppressions\": [";
  {
    auto stats = doc.suppression_stats;
    std::sort(stats.begin(), stats.end());
    for (std::size_t i = 0; i < stats.size(); ++i) {
      o += i == 0 ? "\n" : ",\n";
      o += "    {\"name\": \"" + json_escape(stats[i].first) +
           "\", \"matched\": " + std::to_string(stats[i].second) + "}";
    }
    if (!stats.empty()) o += "\n  ";
  }
  o += "],\n";
  const Summary& s = doc.summary;
  o += "  \"summary\": {\"races\": " + std::to_string(s.races) +
       ", \"contexts\": " + std::to_string(s.contexts) +
       ", \"suppressed\": " + std::to_string(s.suppressed) +
       ", \"suppressed_contexts\": " + std::to_string(s.suppressed_contexts) +
       ",\n              \"threads\": " + std::to_string(s.threads) +
       ", \"locks\": " + std::to_string(s.locks) +
       ", \"shadow_words\": " + std::to_string(s.shadow_words) + "}\n";
  o += "}\n";
  return o;
}

std::string render_plain(const ReportDoc& doc) {
  std::string o;
  o += "== VerifiedFT report (detector " + doc.detector + ") ==\n";
  std::vector<const Context*> ordered;
  for (const Context& c : doc.contexts) ordered.push_back(&c);
  std::sort(ordered.begin(), ordered.end(),
            [](const Context* a, const Context* b) {
              return context_less(*a, *b);
            });
  for (const Context* cp : ordered) {
    const Context& c = *cp;
    if (c.hidden()) continue;
    const std::string var_label =
        c.var_name.empty() ? "var " + c.var : c.var_name;
    std::string cur_tid = "?", cur_epoch = "?", prior_epoch = "?";
    for (const Access& a : c.accesses) {
      if (a.role == "current") {
        cur_tid = std::to_string(a.tid);
        cur_epoch = a.epoch;
      } else if (a.role == "prior") {
        prior_epoch = a.epoch;
      }
    }
    o += "race: " + c.kind + " on " + var_label + ": thread " + cur_tid +
         " at " + cur_epoch + " conflicts with prior access at " +
         prior_epoch;
    if (c.count > 1) o += " (x" + std::to_string(c.count) + ")";
    o += "\n";
    // Both sides of the race, indented under the scraper-stable "race:"
    // line. The prior side's stack comes from the access history; when
    // the record was evicted the side renders with "(no stack)".
    for (const Access& a : c.accesses) {
      o += "  " + a.role;
      if (!a.kind.empty()) o += " " + a.kind;
      o += " by thread " + std::to_string(a.tid) + " at " + a.epoch + ":";
      if (a.stack.empty()) {
        o += " (no stack)\n";
        continue;
      }
      o += "\n";
      for (std::size_t i = 0; i < a.stack.size(); ++i) {
        const Frame& f = a.stack[i];
        o += "    #" + std::to_string(i) + " ";
        if (!f.symbol.empty()) o += f.symbol + " ";
        if (!f.module.empty()) {
          o += f.module + "+" + hex(f.offset);
        } else {
          o += hex(f.pc);
        }
        if (!f.file.empty()) {
          o += " " + f.file + ":" + std::to_string(f.line < 0 ? 0 : f.line);
        }
        o += "\n";
      }
    }
  }
  for (const Context* cp : ordered) {
    if (!cp->hidden()) continue;
    o += "suppressed: " + cp->kind + " on var " + cp->var + " by " +
         cp->suppressed_by + " (x" + std::to_string(cp->count) + ")\n";
  }
  const Summary& s = doc.summary;
  o += "summary: races=" + std::to_string(s.races) +
       " contexts=" + std::to_string(s.contexts) +
       " suppressed=" + std::to_string(s.suppressed) +
       " threads=" + std::to_string(s.threads) +
       " locks=" + std::to_string(s.locks) +
       " shadow-words=" + std::to_string(s.shadow_words) + "\n";
  return o;
}

// ---------------------------------------------------------------------
// Parsing a document back.
// ---------------------------------------------------------------------

namespace {

Frame frame_from_json(const Json& j) {
  Frame f;
  if (const Json* v = j.get("pc")) f.pc = v->as_u64();
  if (const Json* v = j.get("module")) f.module = v->string;
  if (const Json* v = j.get("offset")) f.offset = v->as_u64();
  if (const Json* v = j.get("symbol")) f.symbol = v->string;
  if (const Json* v = j.get("symbol_offset")) f.symbol_offset = v->as_u64();
  if (const Json* v = j.get("file")) f.file = v->string;
  if (const Json* v = j.get("line")) {
    f.line = static_cast<int>(v->as_i64(-1));
  }
  return f;
}

Access access_from_json(const Json& j) {
  Access a;
  if (const Json* v = j.get("role")) a.role = v->string;
  if (const Json* v = j.get("kind")) a.kind = v->string;
  if (const Json* v = j.get("tid")) a.tid = static_cast<unsigned>(v->as_u64());
  if (const Json* v = j.get("epoch")) a.epoch = v->string;
  if (const Json* v = j.get("stack")) {
    for (const Json& e : v->array) a.stack.push_back(frame_from_json(e));
  }
  return a;
}

std::optional<Context> context_from_json(const Json& j) {
  // A context salvaged from a truncated report must at least identify
  // itself; half-parsed trailing entries without kind+key are dropped.
  const Json* kind = j.get("kind");
  const Json* key = j.get("key");
  if (kind == nullptr || key == nullptr) return std::nullopt;
  Context c;
  c.kind = kind->string;
  c.key = key->string;
  if (const Json* v = j.get("var")) c.var = v->string;
  if (const Json* v = j.get("var_name")) c.var_name = v->string;
  if (const Json* v = j.get("count")) c.count = v->as_u64(1);
  if (c.count == 0) c.count = 1;
  if (const Json* v = j.get("suppressed_by")) c.suppressed_by = v->string;
  if (const Json* v = j.get("accesses")) {
    for (const Json& e : v->array) c.accesses.push_back(access_from_json(e));
  }
  return c;
}

}  // namespace

bool parse_report(std::string_view text, ReportDoc* doc, std::string* err) {
  JsonParse parsed = parse_json(text);
  if (!parsed.error.empty()) {
    if (err != nullptr) *err = parsed.error;
    return false;
  }
  if (parsed.value.type != Json::Type::kObject) {
    if (err != nullptr) *err = "report: top-level JSON object missing";
    return false;
  }
  const Json& root = parsed.value;
  if (const Json* v = root.get("schema"); v != nullptr &&
      v->string != "vft-report-v2") {
    if (err != nullptr) *err = "report: unknown schema '" + v->string + "'";
    return false;
  }
  *doc = ReportDoc{};
  doc->truncated = !parsed.complete;
  if (const Json* v = root.get("detector")) doc->detector = v->string;
  if (const Json* v = root.get("runs")) doc->runs = v->as_u64(1);
  if (doc->runs == 0) doc->runs = 1;
  if (const Json* v = root.get("clean_exit")) doc->clean_exit = v->boolean;
  if (doc->truncated) doc->clean_exit = false;
  if (const Json* v = root.get("sampling")) {
    SamplingInfo& sp = doc->sampling;
    sp.enabled = true;
    if (const Json* t = v->get("budget_pct")) {
      sp.budget_pct = std::strtod(t->number.c_str(), nullptr);
    }
    if (const Json* t = v->get("rate0")) {
      sp.rate0 = std::strtod(t->number.c_str(), nullptr);
    }
    if (const Json* t = v->get("rate_ppm")) sp.rate_ppm = t->as_u64(1000000);
    if (const Json* t = v->get("sampled")) sp.sampled = t->as_u64();
    if (const Json* t = v->get("skipped")) sp.skipped = t->as_u64();
    if (const Json* t = v->get("overhead_ns")) sp.overhead_ns = t->as_u64();
    if (const Json* t = v->get("busy_ns")) sp.busy_ns = t->as_u64();
    if (const Json* t = v->get("adjustments")) sp.adjustments = t->as_u64();
  }
  if (const Json* v = root.get("contexts")) {
    for (const Json& e : v->array) {
      if (auto c = context_from_json(e)) doc->contexts.push_back(*std::move(c));
    }
  }
  if (const Json* v = root.get("suppressions")) {
    for (const Json& e : v->array) {
      const Json* name = e.get("name");
      const Json* matched = e.get("matched");
      if (name != nullptr) {
        doc->suppression_stats.emplace_back(
            name->string, matched == nullptr ? 0 : matched->as_u64());
      }
    }
  }
  // Recompute the context-derived summary (authoritative even for
  // truncated input); process stats come from the summary block when it
  // survived.
  for (const Context& c : doc->contexts) {
    if (c.hidden()) {
      doc->summary.suppressed += c.count;
      ++doc->summary.suppressed_contexts;
    } else {
      doc->summary.races += c.count;
      ++doc->summary.contexts;
    }
  }
  if (const Json* v = root.get("summary")) {
    if (const Json* t = v->get("threads")) doc->summary.threads = t->as_u64();
    if (const Json* t = v->get("locks")) doc->summary.locks = t->as_u64();
    if (const Json* t = v->get("shadow_words")) {
      doc->summary.shadow_words = t->as_u64();
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Fleet merge.
// ---------------------------------------------------------------------

namespace {

/// Deterministic representative fingerprint: the context rendered with
/// its volatile fields (count, suppression) zeroed, so the winner never
/// depends on input order.
std::string context_fingerprint(const Context& c) {
  Context copy = c;
  copy.count = 0;
  copy.suppressed_by.clear();
  ReportDoc tmp;
  tmp.contexts.push_back(std::move(copy));
  return render_json(tmp);
}

}  // namespace

ReportDoc merge_reports(const std::vector<ReportDoc>& docs) {
  ReportDoc out;
  out.runs = 0;
  out.clean_exit = true;

  struct Slot {
    Context ctx;
    std::string fingerprint;
    std::uint64_t count = 0;
    bool any_visible = false;
    std::string suppressed_by;
  };
  std::map<std::string, Slot> by_key;
  std::map<std::string, std::uint64_t> supp;
  std::string detector;
  bool mixed = false;

  // Sampling block: integer counters sum; the weighted current-rate
  // average and the config-equality folds below are all order-independent,
  // keeping the merge byte-stable across input orderings.
  bool sampling_any = false;
  bool sampling_cfg_mixed = false;
  double sampling_budget = 0.0, sampling_rate0 = 1.0;
  bool sampling_cfg_set = false;
  std::uint64_t rate_weighted = 0;

  for (const ReportDoc& d : docs) {
    out.runs += d.runs;
    out.clean_exit = out.clean_exit && d.clean_exit && !d.truncated;
    if (d.sampling.enabled) {
      const SamplingInfo& sp = d.sampling;
      SamplingInfo& o = out.sampling;
      sampling_any = true;
      if (!sampling_cfg_set) {
        sampling_cfg_set = true;
        sampling_budget = sp.budget_pct;
        sampling_rate0 = sp.rate0;
      } else if (sp.budget_pct != sampling_budget ||
                 sp.rate0 != sampling_rate0) {
        sampling_cfg_mixed = true;
      }
      o.sampled += sp.sampled;
      o.skipped += sp.skipped;
      o.overhead_ns += sp.overhead_ns;
      o.busy_ns += sp.busy_ns;
      o.adjustments += sp.adjustments;
      rate_weighted += sp.rate_ppm * (sp.busy_ns / 1000);
    }
    if (detector.empty()) {
      detector = d.detector;
    } else if (!d.detector.empty() && d.detector != detector) {
      mixed = true;
    }
    out.summary.threads += d.summary.threads;
    out.summary.locks += d.summary.locks;
    out.summary.shadow_words += d.summary.shadow_words;
    for (const auto& [name, matched] : d.suppression_stats) {
      supp[name] += matched;
    }
    for (const Context& c : d.contexts) {
      Slot& slot = by_key[c.key];
      slot.count += c.count;
      // Visible in any run wins: a context is only hidden fleet-wide if
      // every run hid it (suppression configs should agree, but a
      // disagreement must not silently hide a race).
      if (!c.hidden()) {
        slot.any_visible = true;
      } else if (slot.suppressed_by.empty() ||
                 c.suppressed_by < slot.suppressed_by) {
        slot.suppressed_by = c.suppressed_by;
      }
      const std::string fp = context_fingerprint(c);
      if (slot.fingerprint.empty() || fp < slot.fingerprint) {
        slot.fingerprint = fp;
        slot.ctx = c;
      }
    }
  }
  if (out.runs == 0) out.runs = 1;
  out.detector = mixed ? "mixed" : detector;
  if (sampling_any) {
    SamplingInfo& o = out.sampling;
    o.enabled = true;
    o.budget_pct = sampling_cfg_mixed ? 0.0 : sampling_budget;
    o.rate0 = sampling_cfg_mixed ? 1.0 : sampling_rate0;
    const std::uint64_t busy_us = o.busy_ns / 1000;
    o.rate_ppm = busy_us > 0 ? rate_weighted / busy_us : 1000000;
  }

  for (auto& [key, slot] : by_key) {
    Context c = slot.ctx;
    c.count = slot.count;
    c.suppressed_by = slot.any_visible ? "" : slot.suppressed_by;
    if (c.hidden()) {
      out.summary.suppressed += c.count;
      ++out.summary.suppressed_contexts;
    } else {
      out.summary.races += c.count;
      ++out.summary.contexts;
    }
    out.contexts.push_back(std::move(c));
  }
  for (const auto& [name, matched] : supp) {
    out.suppression_stats.emplace_back(name, matched);
  }
  return out;
}

// ---------------------------------------------------------------------
// Schema skeleton (CI golden).
// ---------------------------------------------------------------------

namespace {

/// Schema trees reuse Json: leaves are type-tag strings, arrays hold one
/// union-merged element schema, object keys are sorted.
Json schema_of(const Json& v) {
  Json s;
  switch (v.type) {
    case Json::Type::kNull:
      s.type = Json::Type::kString;
      s.string = "null";
      break;
    case Json::Type::kBool:
      s.type = Json::Type::kString;
      s.string = "bool";
      break;
    case Json::Type::kNumber:
      s.type = Json::Type::kString;
      s.string = "num";
      break;
    case Json::Type::kString:
      s.type = Json::Type::kString;
      s.string = "str";
      break;
    case Json::Type::kArray:
      s.type = Json::Type::kArray;
      break;
    case Json::Type::kObject:
      s.type = Json::Type::kObject;
      break;
  }
  return s;
}

Json merge_schema(const Json& a, const Json& b);

Json merge_object_schema(const Json& a, const Json& b) {
  Json out;
  out.type = Json::Type::kObject;
  std::map<std::string, const Json*> am, bm;
  for (const auto& [k, v] : a.object) am[k] = &v;
  for (const auto& [k, v] : b.object) bm[k] = &v;
  for (const auto& [k, av] : am) {
    const auto bit = bm.find(k);
    out.object.emplace_back(
        k, bit == bm.end() ? *av : merge_schema(*av, *bit->second));
  }
  for (const auto& [k, bv] : bm) {
    if (am.find(k) == am.end()) out.object.emplace_back(k, *bv);
  }
  std::sort(out.object.begin(), out.object.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  return out;
}

Json merge_schema(const Json& a, const Json& b) {
  if (a.type != b.type) {
    Json s;
    s.type = Json::Type::kString;
    s.string = "mixed";
    return s;
  }
  if (a.type == Json::Type::kObject) return merge_object_schema(a, b);
  if (a.type == Json::Type::kArray) {
    Json s;
    s.type = Json::Type::kArray;
    if (a.array.empty()) {
      s.array = b.array;
    } else if (b.array.empty()) {
      s.array = a.array;
    } else {
      s.array.push_back(merge_schema(a.array[0], b.array[0]));
    }
    return s;
  }
  if (a.string == b.string) return a;
  Json s;
  s.type = Json::Type::kString;
  s.string = "mixed";
  return s;
}

Json skeletonize(const Json& v) {
  Json s = schema_of(v);
  if (v.type == Json::Type::kObject) {
    for (const auto& [k, member] : v.object) {
      s.object.emplace_back(k, skeletonize(member));
    }
    std::sort(s.object.begin(), s.object.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
  } else if (v.type == Json::Type::kArray) {
    Json merged;
    bool have = false;
    for (const Json& e : v.array) {
      Json es = skeletonize(e);
      merged = have ? merge_schema(merged, es) : std::move(es);
      have = true;
    }
    if (have) s.array.push_back(std::move(merged));
  }
  return s;
}

void render_schema(const Json& s, std::string& o, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  switch (s.type) {
    case Json::Type::kString:
      o += "\"" + s.string + "\"";
      break;
    case Json::Type::kArray:
      if (s.array.empty()) {
        o += "[]";
      } else {
        o += "[\n" + pad + "  ";
        render_schema(s.array[0], o, indent + 1);
        o += "\n" + pad + "]";
      }
      break;
    case Json::Type::kObject: {
      if (s.object.empty()) {
        o += "{}";
        break;
      }
      o += "{\n";
      for (std::size_t i = 0; i < s.object.size(); ++i) {
        o += pad + "  \"" + json_escape(s.object[i].first) + "\": ";
        render_schema(s.object[i].second, o, indent + 1);
        o += i + 1 < s.object.size() ? ",\n" : "\n";
      }
      o += pad + "}";
      break;
    }
    default:
      o += "\"?\"";
  }
}

}  // namespace

std::string json_skeleton(std::string_view text) {
  const JsonParse parsed = parse_json(text);
  if (!parsed.error.empty() || !parsed.complete) {
    return "\"<unparsable: " + (parsed.error.empty() ? "truncated"
                                                     : parsed.error) +
           ">\"\n";
  }
  const Json skel = skeletonize(parsed.value);
  std::string o;
  render_schema(skel, o, 0);
  o += "\n";
  return o;
}

}  // namespace vft::reportio
