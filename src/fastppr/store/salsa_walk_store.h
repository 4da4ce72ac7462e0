#ifndef FASTPPR_STORE_SALSA_WALK_STORE_H_
#define FASTPPR_STORE_SALSA_WALK_STORE_H_

#include "fastppr/store/walk_store.h"

namespace fastppr {

/// Walk-segment store for SALSA (Section 2.3 of the paper): the one
/// walk store with the SalsaWalk kind — 2R segments per node (R
/// forward-start, R backward-start), alternating forward/backward
/// steps, hub/authority visit counters, and repairs at both endpoints of
/// every updated edge.
using SalsaWalkStore = BasicWalkStore<SalsaWalk>;

}  // namespace fastppr

#endif  // FASTPPR_STORE_SALSA_WALK_STORE_H_
