#ifndef FASTPPR_CORE_INCREMENTAL_SALSA_H_
#define FASTPPR_CORE_INCREMENTAL_SALSA_H_

#include "fastppr/core/incremental_engine.h"
#include "fastppr/store/salsa_walk_store.h"

namespace fastppr {

/// The SALSA counterpart of IncrementalPageRank (Section 2.3): maintains
/// 2R alternating forward/backward walk segments per node under edge
/// arrivals and departures; total update work over m arrivals is bounded
/// by 16 nR ln m / eps^2 (Theorem 6).
using IncrementalSalsa = IncrementalEngine<SalsaWalk>;

}  // namespace fastppr

#endif  // FASTPPR_CORE_INCREMENTAL_SALSA_H_
