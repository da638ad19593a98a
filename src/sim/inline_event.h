/**
 * @file
 * Allocation-free event callable for the simulation hot path.
 *
 * std::function<void()> heap-allocates any capture larger than its
 * small-buffer (16 B on libstdc++) and pays a manager-function call on
 * every move and destroy -- at ~10^6 scheduled events per wall second
 * that malloc/free pair dominates the engine.  InlineEvent stores the
 * capture inline in a fixed buffer sized for the largest real capture
 * in the codebase (a NoC eject callback carrying a NocMessage plus a
 * std::function deliver hook) and rejects anything bigger at compile
 * time, so schedule() never allocates.
 *
 * Events are move-only; a move transfers the capture and empties the
 * source.  Storage itself is recycled by the event queue: each
 * scheduled event is moved once into a slot of the queue's slab (a
 * vector of InlineEvents plus a free-slot list, grown only at a new
 * pending-set peak) and moved out when it fires, while buckets and
 * the far-future heap order small plain keys -- after warmup no event
 * path touches the allocator, and no sort or heap sift moves a
 * capture.
 *
 * InlineEvent is the `void()` instantiation of the general
 * InlineFunction template (common/inline_function.h), which the link
 * and chain callback surfaces use for non-nullary signatures.
 */

#ifndef HMCSIM_SIM_INLINE_EVENT_H_
#define HMCSIM_SIM_INLINE_EVENT_H_

#include <cstddef>

#include "common/inline_function.h"

namespace hmcsim {

/**
 * Inline capture capacity in bytes.  Sized for the largest scheduled
 * lambda in the tree (Router::tryDrain's router-to-router arrival:
 * Router* + port int + a 48 B NocMessage).  Growing a capture past
 * this is a compile error at the schedule() site, not a silent
 * fallback to heap allocation -- raise the constant deliberately.
 * The event queue sorts keys, not events, so capacity costs slab
 * memory (one InlineEvent per pending-set peak slot) and the two
 * moves per event (into its slot and out to fire), not sort time.
 */
constexpr std::size_t kInlineEventCapacity = 64;

using InlineEvent = InlineFunction<void(), kInlineEventCapacity>;

}  // namespace hmcsim

#endif  // HMCSIM_SIM_INLINE_EVENT_H_
