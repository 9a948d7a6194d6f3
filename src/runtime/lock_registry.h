// Native-lock registry: the address-keyed map from target lock objects
// (pthread_mutex_t*, or any stable address acting as a lock identity) to
// their LockState shadow.
//
// The rt::Mutex wrapper owns its LockState inline; an unmodified binary's
// mutexes are just addresses the interposer observes, so the session keeps
// this side table instead - the lock analogue of the shadow space's
// address->cell mapping, with the same two properties the Section 4
// runtime discipline needs (stability and agreement, see
// vft/address_table.h). The LockState itself is accessed under the target
// lock per the discipline, not under the table's shard mutex.
//
// Reuse safety mirrors the shadow space: if the target frees a mutex and the
// allocator recycles the address for a new one, the new lock would inherit
// the old release clock (sound - it only adds happens-before edges - but
// stale). free()/munmap() interposition calls reset_range(), which drops
// entries covered by the freed block so a recycled address starts from a
// bottom clock.
#pragma once

#include "vft/address_table.h"
#include "vft/shadow_state.h"

namespace vft::rt {

/// Mutexes are at least word-aligned; the shard hash drops four low bits.
using LockRegistry = AddressTable<LockState, 4>;

}  // namespace vft::rt
