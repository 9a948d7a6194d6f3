#include "vft/access_history.h"

#include <cstdlib>
#include <cstring>

namespace vft::history {

namespace {

std::atomic<AccessHistory*> g_active{nullptr};

/// Per-thread front of every StackTable: a direct-mapped cache of
/// (table, hash) -> id. The table tag is the instance's uid_, never reused,
/// so an entry left behind by a destroyed table can never hit.
struct FrontSlot {
  std::uint64_t table = 0;  ///< 0 never matches a table
  std::uint64_t hash = 0;
  std::uint32_t id = 0;
};
constexpr int kFrontBits = 6;
/// constinit: direct TLS access, no dynamic-init wrapper (see the shadow
/// space's page cache).
constinit thread_local FrontSlot tl_front[std::size_t{1} << kFrontBits] = {};

std::atomic<std::uint64_t> g_next_table_uid{1};

/// Claim a slot's seqlock: even -> odd. Fails (the caller skips the slot)
/// while another writer holds it.
bool claim(std::atomic<std::uint32_t>& seq, std::uint32_t* held) {
  std::uint32_t s = seq.load(std::memory_order_relaxed);
  do {
    if ((s & 1) != 0) return false;
  } while (!seq.compare_exchange_weak(s, s + 1, std::memory_order_acquire,
                                      std::memory_order_relaxed));
  *held = s + 1;
  return true;
}

}  // namespace

AccessHistory* active() { return g_active.load(std::memory_order_acquire); }

void install(AccessHistory* h) {
  // Publication only: a replaced instance is leaked by design, because a
  // concurrently racing recorder may still hold the old pointer (same
  // contract as sampling::Gate::install).
  g_active.store(h, std::memory_order_release);
}

bool enabled_from_env() {
  const char* env = std::getenv("VFT_HISTORY");
  if (env == nullptr || env[0] == '\0') return true;
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
           std::strcmp(env, "false") == 0);
}

StackTable::StackTable()
    : uid_(g_next_table_uid.fetch_add(1, std::memory_order_relaxed)) {}

StackTable::~StackTable() {
  for (auto& c : chunks_) delete[] c.load(std::memory_order_relaxed);
}

std::uint32_t StackTable::intern(const CallStack& cs) {
  if (cs.empty()) return 0;
  const std::uint64_t h = hash_stack(cs);
  // Indexed by the hash's high bits, where every frame lands.
  FrontSlot& f = tl_front[h >> (64 - kFrontBits)];
  if (f.table == uid_ && f.hash == h && at(f.id) == cs) return f.id;
  const std::uint32_t id = intern_locked(cs, h);
  if (id != 0) f = FrontSlot{uid_, h, id};
  return id;
}

std::uint32_t StackTable::intern_locked(const CallStack& cs, std::uint64_t h) {
  std::lock_guard<std::mutex> lk(mu_);
  if (auto it = by_hash_.find(h); it != by_hash_.end()) {
    for (std::uint32_t id : it->second) {
      if (at(id) == cs) return id;
    }
  }
  const std::uint32_t n = size_.load(std::memory_order_relaxed);
  if (n >= kMaxStacks) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  std::atomic<CallStack*>& slot = chunks_[n / kChunkStacks];
  CallStack* chunk = slot.load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new CallStack[kChunkStacks];
    slot.store(chunk, std::memory_order_release);
  }
  chunk[n % kChunkStacks] = cs;
  // Publish the stack before its id: lookup() trusts every id <= size().
  size_.store(n + 1, std::memory_order_release);
  by_hash_[h].push_back(n + 1);
  return n + 1;
}

bool StackTable::lookup(std::uint32_t id, CallStack* out) const {
  if (id == 0 || id > size()) return false;
  *out = at(id);
  return true;
}

AccessHistory::~AccessHistory() {
  for (auto& t : tables_) delete t.load(std::memory_order_relaxed);
}

AccessHistory::Table& AccessHistory::publish_table(Tid t) {
  // First record under this tid slot: allocate and CAS-publish. A thread
  // that loses the race frees its copy and uses the winner's.
  auto* fresh = new Table();
  Table* expected = nullptr;
  if (tables_[t].compare_exchange_strong(expected, fresh,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
    return *fresh;
  }
  delete fresh;
  return *expected;
}

void AccessHistory::record(std::uint64_t var, Epoch epoch, AccessKind kind,
                           const CallStack& stack) {
  const std::uint32_t sid = stacks_.intern(stack);
  Slot& s = table_of(epoch.tid()).slots[slot_index(var, kind)];
  std::uint32_t held;
  // A held slot means a concurrent reset_range is clearing it; dropping
  // this record degrades at most this access's future prior to its epoch.
  if (!claim(s.seq, &held)) return;
  // Release stores: a reader that sees any new field synchronizes with the
  // claim before it, so its version re-check sees the odd value and
  // retries instead of pairing new and old fields.
  s.var.store(var, std::memory_order_release);
  s.epoch.store(epoch.bits(), std::memory_order_release);
  s.stack_id.store(sid, std::memory_order_release);
  s.seq.store(held + 1, std::memory_order_release);
}

bool AccessHistory::find(std::uint64_t var, Epoch epoch, AccessKind want,
                         Entry* out) const {
  if (epoch.is_shared()) return false;
  const Table* t = tables_[epoch.tid()].load(std::memory_order_acquire);
  if (t == nullptr) return false;
  const Slot& s = t->slots[slot_index(var, want)];
  // A writer holds a slot for three stores; a reader that keeps meeting
  // one (a preempted writer) gives up and degrades to the bare epoch.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::uint32_t v0 = s.seq.load(std::memory_order_acquire);
    if ((v0 & 1) != 0) continue;
    const std::uint64_t v = s.var.load(std::memory_order_acquire);
    const std::uint32_t e = s.epoch.load(std::memory_order_acquire);
    const std::uint32_t sid = s.stack_id.load(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != v0) continue;
    if (v != var || e != epoch.bits()) return false;
    *out = Entry{sid, epoch, want};
    return true;
  }
  return false;
}

void AccessHistory::reset_range(std::uint64_t addr, std::size_t size) {
  if (size == 0) return;
  const std::uint64_t lo = addr & ~std::uint64_t{7};
  const std::uint64_t hi = addr + size;
  auto doomed = [lo, hi](std::uint64_t v) { return v >= lo && v < hi; };
  auto clear = [&doomed](Slot& s) {
    if (!doomed(s.var.load(std::memory_order_relaxed))) return;
    std::uint32_t held;
    // A held slot is being rewritten by its owner or cleared by another
    // reset: either way it stops holding the doomed record.
    if (!claim(s.seq, &held)) return;
    if (doomed(s.var.load(std::memory_order_relaxed))) {
      s.var.store(0, std::memory_order_release);
      s.epoch.store(0, std::memory_order_release);
      s.stack_id.store(0, std::memory_order_release);
    }
    s.seq.store(held + 1, std::memory_order_release);
  };
  // Per-word probes cost two slots per word per table, a scan kSlots per
  // table: probe up to half a table's worth of words.
  const bool scan = (hi - lo) / 8 > kSlots / 2;
  for (auto& tp : tables_) {
    Table* t = tp.load(std::memory_order_acquire);
    if (t == nullptr) continue;
    if (scan) {
      for (Slot& s : t->slots) clear(s);
      continue;
    }
    for (std::uint64_t v = lo; v < hi; v += 8) {
      clear(t->slots[slot_index(v, AccessKind::kRead)]);
      clear(t->slots[slot_index(v, AccessKind::kWrite)]);
    }
  }
}

}  // namespace vft::history
