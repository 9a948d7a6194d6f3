// The scenario library: the concurrent micro-programs the schedule
// explorer enumerates, shared by tests/sched_explore_test.cpp and the
// `vft sched` CLI so a failure artifact from either replays in both.
//
// Every scenario is an InstanceFactory producing fresh detector state per
// execution, two (or more) virtual-thread bodies whose shared accesses
// all pass through VFT_SCHED points, and a check() run on the terminal
// state. Checks are differential: the detector's race reports are
// compared against the sequential Spec oracle run over the serialized
// trace(s) the schedule could linearize to, and the race verdict is
// cross-checked against hb_oracle (whose answer is interleaving-
// independent for a fixed operation set). A scenario therefore fails
// only when the concurrent implementation disagrees with the paper's
// sequential semantics - exactly the Theorem 3.1 serializability claim,
// checked per schedule.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/instrument.h"
#include "runtime/registry.h"
#include "runtime/tool.h"
#include "sched/explore.h"
#include "sched/sched_point.h"
#include "trace/hb_oracle.h"
#include "trace/trace.h"
#include "vft/atomics.h"
#include "vft/ft_cas.h"
#include "vft/packed_cell.h"
#include "vft/probe.h"
#include "vft/report.h"
#include "vft/spec.h"
#include "vft/stats.h"
#include "vft/vft_v2.h"

namespace vft::sched {

// Shared ids across scenario traces: one data variable, one volatile,
// one volatile-ordered variable.
inline constexpr VarId kX = 1;
inline constexpr std::uint64_t kV = 100;
inline constexpr VarId kY = 200;

/// Spec run over a serialized trace: where it halted (if it raced) and
/// the machine itself, for terminal-state comparison.
struct SpecEnd {
  bool raced = false;
  Rule rule = Rule::kReadSameEpoch;
  Tid by = 0;
  Spec spec{RuleSet::kVerifiedFT};
};

inline SpecEnd run_spec(const trace::Trace& tr) {
  SpecEnd end;
  for (const trace::Op& op : tr) {
    Spec::StepResult r{};
    switch (op.kind) {
      case trace::OpKind::kRead:
        r = end.spec.on_read(op.t, op.target);
        break;
      case trace::OpKind::kWrite:
        r = end.spec.on_write(op.t, op.target);
        break;
      case trace::OpKind::kAcquire:
        r = end.spec.on_acquire(op.t, op.target);
        break;
      case trace::OpKind::kRelease:
        r = end.spec.on_release(op.t, op.target);
        break;
      case trace::OpKind::kFork:
        r = end.spec.on_fork(op.t, static_cast<Tid>(op.target));
        break;
      case trace::OpKind::kJoin:
        r = end.spec.on_join(op.t, static_cast<Tid>(op.target));
        break;
      case trace::OpKind::kVolRead:
        r = end.spec.on_vol_read(op.t, op.target);
        break;
      case trace::OpKind::kVolWrite:
        r = end.spec.on_vol_write(op.t, op.target);
        break;
    }
    if (r.error) {
      end.raced = true;
      end.rule = r.rule;
      end.by = op.t;
      break;
    }
  }
  return end;
}

/// Figure 2 race rule -> report kind, for matching Spec halts against
/// RaceCollector entries.
inline std::optional<RaceKind> race_kind_of(Rule r) {
  switch (r) {
    case Rule::kWriteReadRace:
      return RaceKind::kWriteRead;
    case Rule::kWriteWriteRace:
      return RaceKind::kWriteWrite;
    case Rule::kReadWriteRace:
      return RaceKind::kReadWrite;
    case Rule::kSharedWriteRace:
      return RaceKind::kSharedWrite;
    default:
      return std::nullopt;
  }
}

/// Compare a detector VarState (through the probe seam) against the Spec
/// machine's state for kX. Empty string = equivalent.
template <typename VS>
std::string diff_var_state(VS& v, Spec& spec, Tid max_tid) {
  const Spec::VarState& sx = spec.var(kX);
  if (probe_w(v) != sx.W) {
    return "W=" + probe_w(v).str() + " spec=" + sx.W.str();
  }
  if (probe_r(v) != sx.R) {
    return "R=" + probe_r(v).str() + " spec=" + sx.R.str();
  }
  if (probe_r(v).is_shared()) {
    for (Tid t = 0; t <= max_tid; ++t) {
      if (probe_vslot(v, t) != sx.V.get(t)) {
        return "V[" + std::to_string(t) + "]=" + probe_vslot(v, t).str() +
               " spec=" + sx.V.get(t).str();
      }
    }
  }
  return "";
}

inline trace::Trace operator+(trace::Trace a, const trace::Trace& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// ---------------------------------------------------------------------------
// Two-thread read/read and read/write duos over a bare detector
// (VftV2 or FtCas): the v2 read-share CAS-free promotion and the FT-CAS
// R update window from the paper's Figure 4/5 discussion.
// ---------------------------------------------------------------------------

template <typename D>
D make_detector(RaceCollector* rc, RuleStats* st) {
  if constexpr (std::is_constructible_v<D, RaceCollector*, RuleStats*,
                                        RuleSet>) {
    return D(rc, st, RuleSet::kVerifiedFT);
  } else {
    return D(rc, st);
  }
}

template <typename D>
struct DuoState {
  RaceCollector races;
  RuleStats stats;
  D det;
  typename D::VarState x;
  ThreadState t0{0}, t1{1}, t2{2};

  DuoState() : det(make_detector<D>(&races, &stats)) {
    x.id = kX;
    det.write(t0, x);
    det.fork(t0, t1);
    det.fork(t0, t2);
  }
};

/// Shared duo postcondition. Race-free shape (read/read): no reports,
/// terminal VarState == the Spec state of either serial order (they
/// coincide for these programs, but we accept either on principle).
/// Racy shape (read/write): exactly one report, matching the Spec halt
/// of one of the two serial orders; hb_oracle must agree a race exists.
template <typename S>
std::optional<std::string> duo_check(S& s, bool second_writes) {
  const trace::Trace base{trace::wr(0, kX), trace::fork(0, 1),
                          trace::fork(0, 2)};
  // Mirrors make_duo: the race-free shape reads twice per thread (so the
  // windows overlap under exploration), the racy shape accesses once.
  const trace::Trace a_ops = second_writes
                                 ? trace::Trace{trace::rd(1, kX)}
                                 : trace::Trace{trace::rd(1, kX),
                                                trace::rd(1, kX)};
  const trace::Trace b_ops = second_writes
                                 ? trace::Trace{trace::wr(2, kX)}
                                 : trace::Trace{trace::rd(2, kX),
                                                trace::rd(2, kX)};
  SpecEnd ab = run_spec(base + a_ops + b_ops);
  SpecEnd ba = run_spec(base + b_ops + a_ops);
  const trace::HbResult hb = trace::analyze(base + a_ops + b_ops);
  const auto reports = s.races.all();

  if (hb.race_free()) {
    if (ab.raced || ba.raced) return "spec raced on an hb-race-free trace";
    if (!reports.empty()) {
      return "detector reported a race on a race-free program";
    }
    const std::string da = diff_var_state(s.x, ab.spec, 2);
    const std::string db = diff_var_state(s.x, ba.spec, 2);
    if (!da.empty() && !db.empty()) {
      return "terminal state matches no serial order: " + da;
    }
    return std::nullopt;
  }

  if (!ab.raced && !ba.raced) return "hb raced but spec did not";
  if (reports.size() != 1) {
    return "expected exactly one race report, got " +
           std::to_string(reports.size());
  }
  const RaceReport& r = reports.front();
  if (r.var != kX) return "race reported on wrong variable";
  const auto matches = [&](const SpecEnd& e) {
    return e.raced && race_kind_of(e.rule) == r.kind && e.by == r.current_tid;
  };
  if (!matches(ab) && !matches(ba)) {
    return "race report matches no serial order";
  }
  return std::nullopt;
}

template <typename D>
Instance make_duo(bool second_writes) {
  auto s = std::make_shared<DuoState<D>>();
  Instance inst;
  inst.state = s;
  inst.bodies = {
      [s, second_writes] {
        s->det.read(s->t1, s->x);
        if (!second_writes) s->det.read(s->t1, s->x);
      },
      [s, second_writes] {
        if (second_writes) {
          s->det.write(s->t2, s->x);
        } else {
          s->det.read(s->t2, s->x);
          s->det.read(s->t2, s->x);
        }
      },
  };
  inst.check = [s, second_writes] { return duo_check(*s, second_writes); };
  return inst;
}

// ---------------------------------------------------------------------------
// Packed-cell escalation scenarios (PR 3's ESCALATING/ESCALATED spill
// protocol), driven through the production packed_access dispatcher with
// hand-managed ThreadStates.
// ---------------------------------------------------------------------------

struct PackedState {
  RaceCollector races;
  RuleStats stats;
  VftV2 det{&races, &stats};
  PackedCell cell;
  SyncVarState spill;
  ThreadState t0{0}, t1{1}, t2{2};

  PackedState() { spill.id = kX; }

  auto slot() {
    return [this]() -> SyncVarState& { return spill; };
  }
};

enum class PackedShape {
  kReadRead,    ///< race-free; one reader promotes, the other spills
  kWriteWrite,  ///< racy: one write-write race in every schedule
  kMissedRace,  ///< racy both-slow contended escalation: two reports
};

inline std::optional<std::string> packed_check(PackedState& s,
                                               PackedShape shape) {
  const std::uint64_t spills = s.stats.count(Rule::kFastSpill);
  const auto reports = s.races.all();
  switch (shape) {
    case PackedShape::kReadRead: {
      if (!reports.empty()) {
        return "detector reported a race on a race-free program";
      }
      if (spills != 1) {
        return "expected exactly one spill, got " + std::to_string(spills);
      }
      if (!s.cell.escalated()) return "cell not ESCALATED at exit";
      const trace::Trace base{trace::wr(0, kX), trace::fork(0, 1),
                              trace::fork(0, 2)};
      SpecEnd ab = run_spec(base + trace::Trace{trace::rd(1, kX),
                                                trace::rd(1, kX),
                                                trace::rd(2, kX),
                                                trace::rd(2, kX)});
      if (ab.raced) return "spec raced on the race-free packed program";
      const std::string d = diff_var_state(s.spill, ab.spec, 2);
      if (!d.empty()) return "spilled state diverges from Spec: " + d;
      return std::nullopt;
    }
    case PackedShape::kWriteWrite: {
      if (spills != 1) {
        return "expected exactly one spill, got " + std::to_string(spills);
      }
      if (reports.size() != 1) {
        return "expected exactly one race report, got " +
               std::to_string(reports.size());
      }
      const RaceReport& r = reports.front();
      if (r.kind != RaceKind::kWriteWrite || r.var != kX ||
          (r.current_tid != 1 && r.current_tid != 2)) {
        return "write/write race report malformed";
      }
      return std::nullopt;
    }
    case PackedShape::kMissedRace: {
      // Both readers race with the pre-escalation write the cell snapshot
      // carries; the snapshot reaches them through inject(), so both MUST
      // report - a schedule where one does not means the publication
      // order leaked an empty VarState.
      if (reports.size() != 2) {
        return "expected two write/read reports, got " +
               std::to_string(reports.size());
      }
      bool saw1 = false, saw2 = false;
      for (const RaceReport& r : reports) {
        if (r.kind != RaceKind::kWriteRead || r.var != kX) {
          return "missed-race report malformed";
        }
        saw1 |= r.current_tid == 1;
        saw2 |= r.current_tid == 2;
      }
      if (!saw1 || !saw2) return "both readers must report the race";
      if (spills != 1) {
        return "expected exactly one spill, got " + std::to_string(spills);
      }
      return std::nullopt;
    }
  }
  return "unreachable";
}

inline Instance make_packed(PackedShape shape) {
  auto s = std::make_shared<PackedState>();
  if (shape == PackedShape::kMissedRace) {
    // Fork first: the initializing write's epoch (0@3) is then unordered
    // with BOTH children, so both take the slow path and contend for the
    // escalation - the widest window the protocol has.
    s->det.fork(s->t0, s->t1);
    s->det.fork(s->t0, s->t2);
    packed_access<true>(s->det, s->t0, s->cell, s->slot(), s->slot());
  } else {
    packed_access<true>(s->det, s->t0, s->cell, s->slot(), s->slot());
    s->det.fork(s->t0, s->t1);
    s->det.fork(s->t0, s->t2);
  }
  const bool writes = shape == PackedShape::kWriteWrite;
  // kReadRead reads twice per thread: the winner of the fast-path CAS
  // would otherwise finish before the loser even discovers it must
  // escalate, collapsing the interleaving space to the two fast paths.
  // The second read keeps both threads alive through the whole
  // escalation protocol (spin window, inject, spilled-state reads), so
  // the explorer exercises every overlap the protocol actually has.
  const int reads = shape == PackedShape::kReadRead ? 2 : 1;
  Instance inst;
  inst.state = s;
  inst.bodies = {
      [s, writes, reads] {
        if (writes) {
          packed_access<true>(s->det, s->t1, s->cell, s->slot(), s->slot());
        } else {
          for (int i = 0; i < reads; ++i) {
            packed_access<false>(s->det, s->t1, s->cell, s->slot(),
                                 s->slot());
          }
        }
      },
      [s, writes, reads] {
        if (writes) {
          packed_access<true>(s->det, s->t2, s->cell, s->slot(), s->slot());
        } else {
          for (int i = 0; i < reads; ++i) {
            packed_access<false>(s->det, s->t2, s->cell, s->slot(),
                                 s->slot());
          }
        }
      },
  };
  inst.check = [s, shape] { return packed_check(*s, shape); };
  return inst;
}

// ---------------------------------------------------------------------------
// Volatile fast-path scenarios (PR 2's same-epoch arm/disarm), through
// the full rt::Runtime plumbing. The reader records the values it
// observed; the check linearizes its volatile reads after exactly the
// writer operations those values prove happened, runs the Spec over that
// serialization, and demands the detector agree.
// ---------------------------------------------------------------------------

struct VolatileState {
  RaceCollector races;
  RuleStats stats;
  rt::Runtime<VftV2> rt{VftV2(&races, &stats)};
  rt::Runtime<VftV2>::MainScope main{rt};
  rt::Volatile<int, VftV2> v{rt, 0};
  rt::Var<int, VftV2> y{rt, 0, kY};
  ThreadState* t1 = nullptr;
  ThreadState* t2 = nullptr;
  int s1 = -1, s2 = -1;

  VolatileState() {
    t1 = &rt.registry().create();
    rt.tool().fork(rt.self(), *t1);
    t2 = &rt.registry().create();
    rt.tool().fork(rt.self(), *t2);
  }
};

/// Build the serialized trace a reader observing `seen` volatile values
/// linearizes to: each volatile read is placed after exactly the writer
/// prefix that produced the value it saw; gated plain reads follow their
/// guarding volatile read.
inline trace::Trace linearize_volatile(const trace::Trace& writer_ops,
                                       const std::vector<trace::Op>& reads,
                                       const std::vector<int>& vws_before) {
  trace::Trace out{trace::fork(0, 1), trace::fork(0, 2)};
  std::size_t wi = 0;
  int vws = 0;
  auto emit_writer_until = [&](int want) {
    while (vws < want && wi < writer_ops.size()) {
      out.push_back(writer_ops[wi]);
      if (writer_ops[wi].kind == trace::OpKind::kVolWrite) ++vws;
      ++wi;
    }
  };
  for (std::size_t i = 0; i < reads.size(); ++i) {
    emit_writer_until(vws_before[i]);
    out.push_back(reads[i]);
  }
  while (wi < writer_ops.size()) out.push_back(writer_ops[wi++]);
  return out;
}

inline std::optional<std::string> volatile_check(VolatileState& s,
                                                 bool stale_epoch_shape) {
  if (s.s1 < 0 || s.s2 < 0 || s.s2 < s.s1) {
    return "reader observed a non-monotonic value sequence";
  }
  trace::Trace writer_ops;
  std::vector<trace::Op> reads;
  std::vector<int> vws_before;
  if (stale_epoch_shape) {
    // writer: v=1; y=1; v=2      reader: s1=v; s2=v; if (s2==2) read y
    writer_ops = {trace::vwr(1, kV), trace::wr(1, kY), trace::vwr(1, kV)};
    if (s.s1 > 2 || s.s2 > 2) return "reader saw an impossible value";
    reads.push_back(trace::vrd(2, kV));
    vws_before.push_back(s.s1 == 0 ? 0 : (s.s1 == 1 ? 1 : 2));
    reads.push_back(trace::vrd(2, kV));
    vws_before.push_back(s.s2 == 0 ? 0 : (s.s2 == 1 ? 1 : 2));
    if (s.s2 == 2) {
      reads.push_back(trace::rd(2, kY));
      vws_before.push_back(2);
    }
  } else {
    // writer: y=1; v=1           reader: s1=v; if (s1==1) read y
    writer_ops = {trace::wr(1, kY), trace::vwr(1, kV)};
    if (s.s1 > 1) return "reader saw an impossible value";
    reads.push_back(trace::vrd(2, kV));
    vws_before.push_back(s.s1);
    if (s.s1 == 1) {
      reads.push_back(trace::rd(2, kY));
      vws_before.push_back(1);
    }
  }
  const trace::Trace tr = linearize_volatile(writer_ops, reads, vws_before);
  SpecEnd end = run_spec(tr);
  if (end.raced) return "spec raced on the linearized volatile trace";
  if (!trace::analyze(tr).race_free()) {
    return "hb raced on the linearized volatile trace";
  }
  if (!s.races.empty()) {
    const RaceReport r = *s.races.first();
    return "false race: " + std::string(race_kind_name(r.kind)) + " on var " +
           std::to_string(r.var) + " by t" + std::to_string(r.current_tid);
  }
  return std::nullopt;
}

inline Instance make_volatile(bool stale_epoch_shape) {
  auto s = std::make_shared<VolatileState>();
  Instance inst;
  inst.state = s;
  inst.bodies = {
      [s, stale_epoch_shape] {
        rt::Registry::ThreadScope scope(*s->t1);
        if (stale_epoch_shape) {
          s->v.store(1);
          s->y.store(1);
          s->v.store(2);
        } else {
          s->y.store(1);
          s->v.store(1);
        }
      },
      [s, stale_epoch_shape] {
        rt::Registry::ThreadScope scope(*s->t2);
        s->s1 = s->v.load();
        if (stale_epoch_shape) {
          s->s2 = s->v.load();
          if (s->s2 == 2) (void)s->y.load();
        } else {
          s->s2 = s->s1;
          if (s->s1 == 1) (void)s->y.load();
        }
      },
  };
  inst.check = [s, stale_epoch_shape] {
    return volatile_check(*s, stale_epoch_shape);
  };
  return inst;
}

// ---------------------------------------------------------------------------
// Atomic sync-state scenarios (the __tsan_atomic* clock layer of
// vft/atomics.h): the fast-epoch arm CAS in atomic_publish racing an
// acquire load's fast-skip read, and two unordered CAS-loop publishers
// contending for the arm. Driven through the DetectorBase handlers with a
// bare AtomicState, like the duo scenarios. Checks are differential
// against Spec::on_atomic_*; the data-read gates mirror make_volatile:
// within the cooperative scheduler a thread runs atomically between sched
// points, so a flag set right after a handler returns (no point in
// between) is observable iff the publication completed first.
// ---------------------------------------------------------------------------

inline bool vc_eq(const VectorClock& a, const VectorClock& b) {
  return a.leq(b) && b.leq(a);
}

template <typename D>
struct AtomicHandoffState {
  RaceCollector races;
  RuleStats stats;
  D det;
  typename D::VarState x;
  atomics::AtomicState a;
  atomics::FenceTls fw, fr;
  ThreadState t0{0}, t1{1}, t2{2};
  bool published = false;  ///< set after the writer's store handler returns
  bool saw = false;        ///< reader's observation, taken before its load

  AtomicHandoffState() : det(make_detector<D>(&races, &stats)) {
    x.id = kX;
    det.write(t0, x);
    det.fork(t0, t1);
    det.fork(t0, t2);
  }
};

/// Release/acquire handoff postcondition. The reader touched x only if it
/// observed the completed publication, so with a release store NO
/// schedule may report a race and the terminal state must match the
/// serialization the observation proves; with a relaxed store the same
/// observation proves nothing (no edge), so every schedule where the
/// gated read ran must report exactly the write-read race the Spec halts
/// on — the relaxed-no-edge property, checked under every interleaving of
/// the arm CAS, the fast-skip load, and the sync mutex.
template <typename S>
std::optional<std::string> atomic_handoff_check(S& s, bool relaxed) {
  Spec spec;
  bool okc = !spec.on_write(0, kX).error && !spec.on_fork(0, 1).error &&
             !spec.on_fork(0, 2).error && !spec.on_write(1, kX).error;
  if (!okc) return "spec raced on the race-free handoff prefix";
  const Epoch pub = spec.thread_epoch(1);
  spec.on_atomic_store(1, kV,
                       relaxed ? atomics::kMoRelaxed : atomics::kMoRelease);
  spec.on_atomic_load(2, kV, atomics::kMoAcquire);
  if (!vc_eq(s.a.sync_V, spec.atomic_vc(kV))) {
    return "atomic release clock diverges from Spec";
  }
  const std::uint32_t bits = s.a.fast_epoch.load(std::memory_order_relaxed);
  if (relaxed) {
    if (bits != 0) return "relaxed store armed the fast epoch";
  } else if (bits != pub.bits()) {
    return "fast epoch is not the sole publisher's epoch";
  }
  const auto reports = s.races.all();
  if (!s.saw) {
    if (!reports.empty()) return "race reported without the gated read";
    const std::string d = diff_var_state(s.x, spec, 2);
    if (!d.empty()) return "terminal state diverges from Spec: " + d;
    return std::nullopt;
  }
  const Spec::StepResult r = spec.on_read(2, kX);
  if (relaxed) {
    if (!r.error || r.rule != Rule::kWriteReadRace) {
      return "spec did not halt on the relaxed-published read";
    }
    if (reports.size() != 1) {
      return "expected exactly one race report, got " +
             std::to_string(reports.size());
    }
    const RaceReport& rep = reports.front();
    if (rep.kind != RaceKind::kWriteRead || rep.var != kX ||
        rep.current_tid != 2) {
      return "relaxed-handoff race report malformed";
    }
    return std::nullopt;
  }
  if (r.error) return "spec raced on the release/acquire handoff";
  if (!reports.empty()) return "false race on a release/acquire handoff";
  const std::string d = diff_var_state(s.x, spec, 2);
  if (!d.empty()) return "terminal state diverges from Spec: " + d;
  return std::nullopt;
}

template <typename D>
Instance make_atomic_handoff(bool relaxed) {
  auto s = std::make_shared<AtomicHandoffState<D>>();
  Instance inst;
  inst.state = s;
  inst.bodies = {
      [s, relaxed] {
        s->det.write(s->t1, s->x);
        s->det.atomic_store(
            s->t1, s->a, s->fw,
            relaxed ? atomics::kMoRelaxed : atomics::kMoRelease);
        // No sched point since the handler's last one: the flag becomes
        // visible atomically with the completed publication.
        s->published = true;
      },
      [s] {
        s->saw = s->published;
        s->det.atomic_load(s->t2, s->a, s->fr, atomics::kMoAcquire);
        if (s->saw) s->det.read(s->t2, s->x);
      },
  };
  inst.check = [s, relaxed] { return atomic_handoff_check(*s, relaxed); };
  return inst;
}

template <typename D>
struct AtomicCasState {
  RaceCollector races;
  RuleStats stats;
  D det;
  typename D::VarState x, y;
  atomics::AtomicState a;
  atomics::FenceTls f1, f2;
  ThreadState t0{0}, t1{1}, t2{2};
  bool pub1 = false, pub2 = false;
  bool saw_by1 = false;  ///< t1 observed t2's completed publication
  bool saw_by2 = false;  ///< t2 observed t1's completed publication

  AtomicCasState() : det(make_detector<D>(&races, &stats)) {
    x.id = kX;
    y.id = kY;
    det.write(t0, x);
    det.write(t0, y);
    det.fork(t0, t1);
    det.fork(t0, t2);
  }
};

/// Two unordered acq_rel publishers (the rmw_pre/rmw_post split of a CAS
/// loop) racing for the fast-epoch arm: the terminal arm must be SHARED
/// in every interleaving of the two mutex sections and CAS attempts
/// (neither publisher's clock covers the other's publication), the sync
/// clock must be the exact join of both (release = JOIN, not copy: no
/// schedule may lose a publisher), and the gated cross-reads must be
/// race-free exactly when the gate's serialization says so.
template <typename S>
std::optional<std::string> atomic_cas_check(S& s) {
  if (s.saw_by1 && s.saw_by2) {
    return "both threads observed the other publishing first";
  }
  Spec spec;
  const auto t1_ops = [&spec] {
    return !spec.on_write(1, kX).error &&
           !spec.on_atomic_rmw(1, kV, atomics::kMoAcqRel).error;
  };
  const auto t2_ops = [&spec] {
    return !spec.on_write(2, kY).error &&
           !spec.on_atomic_rmw(2, kV, atomics::kMoAcqRel).error;
  };
  bool okc = !spec.on_write(0, kX).error && !spec.on_write(0, kY).error &&
             !spec.on_fork(0, 1).error && !spec.on_fork(0, 2).error;
  if (s.saw_by1) {
    okc = okc && t2_ops() && t1_ops() && !spec.on_read(1, kY).error;
  } else if (s.saw_by2) {
    okc = okc && t1_ops() && t2_ops() && !spec.on_read(2, kX).error;
  } else {
    okc = okc && t1_ops() && t2_ops();
  }
  if (!okc) return "spec raced on the gated CAS publication program";
  if (!s.races.empty()) {
    const RaceReport r = *s.races.first();
    return "false race: " + std::string(race_kind_name(r.kind)) + " on var " +
           std::to_string(r.var) + " by t" + std::to_string(r.current_tid);
  }
  if (!vc_eq(s.a.sync_V, spec.atomic_vc(kV))) {
    return "CAS release clock is not the join of both publishers";
  }
  if (s.a.fast_epoch.load(std::memory_order_relaxed) !=
      atomics::AtomicState::kSharedBits) {
    return "unordered publishers must collapse the fast epoch to SHARED";
  }
  if (probe_w(s.x) != spec.var(kX).W || probe_r(s.x) != spec.var(kX).R) {
    return "terminal x state diverges from Spec";
  }
  if (probe_w(s.y) != spec.var(kY).W || probe_r(s.y) != spec.var(kY).R) {
    return "terminal y state diverges from Spec";
  }
  return std::nullopt;
}

template <typename D>
Instance make_atomic_cas_publish() {
  auto s = std::make_shared<AtomicCasState<D>>();
  Instance inst;
  inst.state = s;
  inst.bodies = {
      [s] {
        s->det.write(s->t1, s->x);
        s->saw_by1 = s->pub2;
        s->det.atomic_rmw_pre(s->t1, s->a, s->f1, atomics::kMoAcqRel);
        s->det.atomic_rmw_post(s->t1, s->a, s->f1, atomics::kMoAcqRel);
        s->pub1 = true;
        if (s->saw_by1) s->det.read(s->t1, s->y);
      },
      [s] {
        s->det.write(s->t2, s->y);
        s->saw_by2 = s->pub1;
        s->det.atomic_rmw_pre(s->t2, s->a, s->f2, atomics::kMoAcqRel);
        s->det.atomic_rmw_post(s->t2, s->a, s->f2, atomics::kMoAcqRel);
        s->pub2 = true;
        if (s->saw_by2) s->det.read(s->t2, s->x);
      },
  };
  inst.check = [s] { return atomic_cas_check(*s); };
  return inst;
}

// ---------------------------------------------------------------------------
// Harness self-test: a textbook AB-BA deadlock over cooperative mutexes.
// The explorer must FIND the deadlock (deadlocks > 0); a harness that
// cannot is not exploring lock orders.
// ---------------------------------------------------------------------------

inline Instance make_toy_deadlock() {
  struct S {
    Mutex a, b;
  };
  auto s = std::make_shared<S>();
  Instance inst;
  inst.state = s;
  inst.bodies = {
      [s] {
        s->a.lock();
        s->b.lock();
        s->b.unlock();
        s->a.unlock();
      },
      [s] {
        s->b.lock();
        s->a.lock();
        s->a.unlock();
        s->b.unlock();
      },
  };
  inst.check = [] { return std::nullopt; };
  return inst;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Scenario {
  const char* name;
  const char* summary;
  bool expect_deadlocks = false;  ///< toy-deadlock: deadlocks are the point
  InstanceFactory make;
};

inline const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all = {
      {"v2-read-share", "VftV2 concurrent readers promote R to SHARED",
       false, [] { return make_duo<VftV2>(false); }},
      {"v2-read-write-race", "VftV2 unordered read vs write: one race",
       false, [] { return make_duo<VftV2>(true); }},
      {"ftcas-read-share", "FT-CAS concurrent readers through the R CAS window",
       false, [] { return make_duo<FtCas>(false); }},
      {"ftcas-read-write-race", "FT-CAS unordered read vs write: one race",
       false, [] { return make_duo<FtCas>(true); }},
      {"packed-escalate", "packed cell read/read: exactly one spill, no race",
       false, [] { return make_packed(PackedShape::kReadRead); }},
      {"packed-write-race", "packed cell write/write: one spill, one race",
       false, [] { return make_packed(PackedShape::kWriteWrite); }},
      {"packed-missed-race",
       "contended escalation: snapshot must reach both losers", false,
       [] { return make_packed(PackedShape::kMissedRace); }},
      {"volatile-publish", "Volatile publication: gated read is ordered",
       false, [] { return make_volatile(false); }},
      {"volatile-stale-epoch",
       "Volatile re-arm: stale fast epoch must not skip the join", false,
       [] { return make_volatile(true); }},
      {"atomic-handoff",
       "atomic release/acquire handoff: gated read is ordered", false,
       [] { return make_atomic_handoff<VftV2>(false); }},
      {"atomic-handoff-relaxed",
       "relaxed publication orders nothing: gated read must race", false,
       [] { return make_atomic_handoff<VftV2>(true); }},
      {"atomic-cas-publish",
       "unordered CAS publishers: joined clock, SHARED arm", false,
       [] { return make_atomic_cas_publish<VftV2>(); }},
      {"toy-deadlock", "AB-BA lock order: explorer must find the deadlock",
       true, make_toy_deadlock},
  };
  return all;
}

inline const Scenario* find_scenario(std::string_view name) {
  for (const Scenario& s : scenarios()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// Test-only ordering mutations by CLI-friendly name.
inline std::atomic<bool>* find_mutation(std::string_view name) {
  if (name == "volatile-value-before-arm") {
    return &Mutations::volatile_value_before_arm;
  }
  if (name == "escalate-publish-before-inject") {
    return &Mutations::escalate_publish_before_inject;
  }
  return nullptr;
}

/// RAII arm/disarm of one mutation knob around an exploration.
class ScopedMutation {
 public:
  explicit ScopedMutation(std::atomic<bool>& knob) : knob_(knob) {
    knob_.store(true, std::memory_order_relaxed);
  }
  ~ScopedMutation() { knob_.store(false, std::memory_order_relaxed); }
  ScopedMutation(const ScopedMutation&) = delete;
  ScopedMutation& operator=(const ScopedMutation&) = delete;

 private:
  std::atomic<bool>& knob_;
};

}  // namespace vft::sched
