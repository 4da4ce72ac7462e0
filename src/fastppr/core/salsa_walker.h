#ifndef FASTPPR_CORE_SALSA_WALKER_H_
#define FASTPPR_CORE_SALSA_WALKER_H_

#include "fastppr/core/ppr_walker.h"
#include "fastppr/store/salsa_walk_store.h"

namespace fastppr {

/// Algorithm 1 adapted to personalized SALSA (Section 2.3): the one
/// personalized walker with the SalsaWalk kind — alternating steps, 2R
/// stored segments per node, and TopK ranked by authority visits.
using PersonalizedSalsaWalker =
    BasicPersonalizedWalker<SalsaWalk, SalsaWalkStore>;

}  // namespace fastppr

#endif  // FASTPPR_CORE_SALSA_WALKER_H_
