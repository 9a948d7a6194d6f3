#include "vft/access_history.h"

#include <cstdlib>
#include <cstring>

namespace vft::history {

namespace {

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

/// Per-thread record memo (docs/ALGORITHM.md s17.4): one entry per hash
/// of the armed event_ctx pc, remembering the id that pc's last capture
/// interned. Its key is everything capture_event_stack() depends on while
/// a boundary is armed: the table (uid, never reused), pc, fp and the
/// call serial, which every instrumented entry and exit and every range
/// event's exit bump. 16 entries, because neighbouring access sites
/// alternate (a stencil sweep records at A[i+1] and B[i] in turn).
struct MemoSlot {
  std::uint64_t table = 0;  ///< 0 never matches a table
  const void* pc = nullptr;
  const void* fp = nullptr;
  std::uint64_t serial = 0;
  std::uint32_t id = 0;
};
constexpr int kMemoBits = 4;
constinit thread_local MemoSlot tl_memo[std::size_t{1} << kMemoBits] = {};

std::size_t memo_index(const void* pc) {
  const auto p = reinterpret_cast<std::uintptr_t>(pc);
  return static_cast<std::size_t>((p * 0x9e3779b97f4a7c15ull) >>
                                  (64 - kMemoBits));
}

std::atomic<std::uint64_t> g_next_table_uid{1};

}  // namespace

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

std::uint32_t StackTable::intern_current() {
  // The serial is read before the boundary and before the capture. A
  // signal handler that lands in between and records, or clears the
  // boundary, bumps it on the way out, so an entry stored below from a
  // capture it disturbed - or torn by its own store to the same entry -
  // carries a serial that never becomes current again.
  const std::uint64_t serial = vft_tl_shadow_stack.serial;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  const vft_event_ctx_s ctx = vft_tl_event_ctx;
  if (ctx.pc == nullptr) return intern(capture_event_stack());
  MemoSlot& m = tl_memo[memo_index(ctx.pc)];
  if (m.table == uid_ && m.pc == ctx.pc && m.fp == ctx.fp &&
      m.serial == serial) {
    return m.id;
  }
  const std::uint32_t id = intern(capture_event_stack());
  if (id != 0) m = MemoSlot{uid_, ctx.pc, ctx.fp, serial, id};
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
  // First record under this tid slot. Only the thread owning the tid
  // records into it, so nothing races the publication; find() acquires it.
  auto* fresh = new Table();
  tables_[t].store(fresh, std::memory_order_release);
  return *fresh;
}

void AccessHistory::store(std::uint64_t var, Epoch epoch, AccessKind kind,
                          std::uint32_t sid) {
  Slot& s = table_of(epoch.tid()).slots[slot_index(var, kind)];
  // The single-writer seqlock: this thread is the slot's only writer, so
  // a plain load/store pair takes the version odd. The field stores are
  // release stores: a reader that sees any new field synchronizes with
  // the odd store before it, so its version re-check sees an odd or newer
  // value and retries instead of pairing new and old fields.
  const std::uint32_t seq = s.seq.load(std::memory_order_relaxed);
  s.seq.store(seq + 1, std::memory_order_relaxed);
  s.var.store(var, std::memory_order_release);
  s.epoch.store(epoch.bits(), std::memory_order_release);
  s.stack_id.store(sid, std::memory_order_release);
  s.seq.store(seq + 2, std::memory_order_release);
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

}  // namespace vft::history
