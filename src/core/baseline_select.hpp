// Cross-block selection for the baseline identifiers: rank every candidate
// subgraph by merit and greedily keep the best Ninstr feasible ones — the
// scheme the paper applies when comparing against Clubbing and MaxMISO. A
// candidate that would form a dependence cycle with the ones already kept
// in its block (two multi-output clubs feeding each other) is skipped: the
// pair could not both issue.
#pragma once

#include <span>

#include "core/selection.hpp"
#include "latency/latency_model.hpp"
#include "support/parallel.hpp"

namespace isex {

enum class BaselineAlgorithm { clubbing, max_miso };

/// Per-block identification is independent; when an `executor` is given the
/// blocks run through it and candidates are merged in block order, so the
/// output is identical to the serial run.
SelectionResult select_baseline(std::span<const Dfg> blocks, const LatencyModel& latency,
                                const Constraints& constraints, int num_instructions,
                                BaselineAlgorithm algorithm, Executor* executor = nullptr);

}  // namespace isex
