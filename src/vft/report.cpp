#include "vft/report.h"

#include <cstdio>

namespace vft {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  return fnv_bytes(h, &v, sizeof(v));
}

std::uint64_t fnv_str(std::uint64_t h, const std::string& s) {
  h = fnv_bytes(h, s.data(), s.size());
  return fnv_bytes(h, "\0", 1);  // delimiter: "ab","c" != "a","bc"
}

/// One hash_stack step (vft/stack.h): a whole word per multiply.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// The dedup key: hash_stack over the raw pcs, then the kind.
std::uint64_t dedup_key(const RaceOccurrence& o, const CallStack& stack) {
  std::uint64_t h = hash_stack(stack);
  if (stack.empty()) {
    // No capture boundary: the variable id is the only locality signal
    // (and the historical per-variable behaviour the unit suites pin).
    h = mix(mix(h, 0xA11), o.var);  // domain-separate the two key shapes
  }
  return mix(h, static_cast<std::uint64_t>(o.kind));
}

}  // namespace

const char* race_kind_name(RaceKind k) {
  switch (k) {
    case RaceKind::kWriteRead: return "write-read race";
    case RaceKind::kWriteWrite: return "write-write race";
    case RaceKind::kReadWrite: return "read-write race";
    case RaceKind::kSharedWrite: return "shared-write race";
  }
  return "unknown race";
}

std::string RaceOccurrence::str(const std::string& var_label) const {
  return std::string(race_kind_name(kind)) + " on " + var_label +
         ": thread " + std::to_string(current_tid) + " at " + current.str() +
         " conflicts with prior access at " + prior.str();
}

std::string RaceOccurrence::str() const {
  return str("var " + std::to_string(var));
}

std::uint64_t RaceCollector::stable_key(
    const RaceReport& r, const std::vector<ResolvedFrame>& frames) const {
  std::uint64_t h = fnv_str(kFnvOffset, race_kind_name(r.kind));
  if (frames.empty()) {
    h = fnv_u64(h, 0xA11);
    h = fnv_u64(h, r.var);
    return h;
  }
  for (const ResolvedFrame& f : frames) {
    if (f.module.empty()) {
      // Unresolvable frame: the raw pc is all we have. Not ASLR-stable;
      // merge treats contexts containing such frames as distinct per run
      // unless the binary is loaded at a fixed address.
      h = fnv_u64(h, f.pc);
    } else {
      h = fnv_str(h, module_basename(f.module));
      h = fnv_u64(h, f.offset);
    }
  }
  return h;
}

RaceCollector::Node* RaceCollector::find(std::uint64_t raw) const {
  for (Node* n = bucket(raw).load(std::memory_order_acquire); n != nullptr;
       n = n->next) {
    if (n->raw == raw) return n;
  }
  return nullptr;
}

bool RaceCollector::bump(std::uint64_t raw) const {
  Node* n = find(raw);
  if (n == nullptr) return false;
  n->count.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool RaceCollector::fold(const RaceOccurrence& o, const CallStack& stack) {
  return bump(dedup_key(o, stack));
}

void RaceCollector::report(const RaceReport& r) {
  const std::uint64_t raw = dedup_key(r, r.stack);
  if (bump(raw)) return;
  std::scoped_lock lk(mu_);
  // Another thread may have created the context since the lookup missed.
  if (bump(raw)) return;

  RaceContext ctx;
  ctx.first = r;
  ctx.frames.reserve(r.stack.depth);
  for (std::uint8_t i = 0; i < r.stack.depth; ++i) {
    ctx.frames.push_back(resolve_frame(r.stack.pc[i]));
  }
  ctx.prior_frames.reserve(r.prior_stack.depth);
  for (std::uint8_t i = 0; i < r.prior_stack.depth; ++i) {
    ctx.prior_frames.push_back(resolve_frame(r.prior_stack.pc[i]));
  }
  ctx.key = stable_key(r, ctx.frames);
  // A fun:/obj: rule may match EITHER side of the race: the racing pair
  // is symmetric, and a rule written against the library function that
  // owns the allocation should hide the context no matter which side the
  // detector happened to catch second.
  ctx.suppressed_by = suppressions_.match(race_kind_name(r.kind), ctx.frames);
  if (ctx.suppressed_by == nullptr && !ctx.prior_frames.empty()) {
    ctx.suppressed_by =
        suppressions_.match(race_kind_name(r.kind), ctx.prior_frames);
  }

  Node& n = nodes_.emplace_back();
  n.raw = raw;
  n.hidden = ctx.hidden();
  n.count.store(1, std::memory_order_relaxed);
  n.ctx = std::move(ctx);
  if (!n.hidden) ++visible_contexts_;
  // Publish: every field above is visible to a lookup that acquires this
  // head. Older nodes behind it were published the same way, earlier.
  std::atomic<Node*>& head = bucket(raw);
  n.next = head.load(std::memory_order_relaxed);
  head.store(&n, std::memory_order_release);
}

std::size_t RaceCollector::count() const {
  std::scoped_lock lk(mu_);
  std::size_t total = 0;
  for (const Node& n : nodes_) {
    if (!n.hidden) total += n.count.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t RaceCollector::context_count() const {
  std::scoped_lock lk(mu_);
  return visible_contexts_;
}

std::size_t RaceCollector::suppressed() const {
  std::scoped_lock lk(mu_);
  std::size_t total = 0;
  for (const Node& n : nodes_) {
    if (n.hidden) total += n.count.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<RaceContext> RaceCollector::contexts() const {
  std::scoped_lock lk(mu_);
  std::vector<RaceContext> out;
  out.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    out.push_back(n.ctx);
    out.back().count = n.count.load(std::memory_order_relaxed);
  }
  return out;
}

std::optional<RaceReport> RaceCollector::first() const {
  std::scoped_lock lk(mu_);
  for (const Node& n : nodes_) {
    if (!n.hidden) return n.ctx.first;
  }
  return std::nullopt;
}

bool RaceCollector::empty() const {
  std::scoped_lock lk(mu_);
  return nodes_.empty();
}

void RaceCollector::clear() {
  std::scoped_lock lk(mu_);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    buckets_[b].store(nullptr, std::memory_order_relaxed);
  }
  nodes_.clear();
  visible_contexts_ = 0;
}

void RaceCollector::set_history(bool enabled) {
  history_ = enabled ? std::make_unique<history::AccessHistory>() : nullptr;
}

void RaceCollector::name_var(std::uint64_t var, std::string name) {
  std::scoped_lock lk(mu_);
  names_[var] = std::move(name);
}

std::optional<std::string> RaceCollector::var_name(std::uint64_t var) const {
  std::scoped_lock lk(mu_);
  const auto it = names_.find(var);
  if (it == names_.end()) return std::nullopt;
  return it->second;
}

std::string RaceCollector::describe(const RaceOccurrence& r) const {
  const std::optional<std::string> name = var_name(r.var);
  return name ? r.str(*name) : r.str();
}

bool RaceCollector::load_suppressions(const std::string& path,
                                      std::string* err) {
  std::scoped_lock lk(mu_);
  return suppressions_.load_file(path, err);
}

bool RaceCollector::load_suppressions_text(const std::string& text,
                                           const std::string& origin,
                                           std::string* err) {
  std::scoped_lock lk(mu_);
  return suppressions_.load_text(text, origin, err);
}

int RaceCollector::load_suppressions_env(const char* paths) {
  if (paths == nullptr || paths[0] == '\0') return 0;
  int loaded = 0;
  std::string list(paths);
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t colon = list.find(':', start);
    const std::string path =
        list.substr(start, colon == std::string::npos ? std::string::npos
                                                      : colon - start);
    if (!path.empty()) {
      std::string err;
      if (load_suppressions(path, &err)) {
        ++loaded;
      } else {
        std::fprintf(stderr, "vft: warning: %s (VFT_SUPPRESSIONS)\n",
                     err.c_str());
      }
    }
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  return loaded;
}

std::vector<std::pair<std::string, std::uint64_t>>
RaceCollector::suppression_stats() const {
  std::scoped_lock lk(mu_);
  std::unordered_map<const SuppressionRule*, std::uint64_t> hidden;
  for (const Node& n : nodes_) {
    if (n.ctx.suppressed_by != nullptr) {
      hidden[n.ctx.suppressed_by] += n.count.load(std::memory_order_relaxed);
    }
  }
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const SuppressionRule& r : suppressions_.rules()) {
    const auto it = hidden.find(&r);
    out.emplace_back(r.name, it == hidden.end() ? 0 : it->second);
  }
  return out;
}

std::size_t RaceCollector::suppression_rule_count() const {
  std::scoped_lock lk(mu_);
  return suppressions_.rules().size();
}

}  // namespace vft
