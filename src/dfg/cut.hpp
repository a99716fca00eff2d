// Cuts (candidate instruction subgraphs) and their reference metrics.
//
// A cut S ⊆ G is represented as a bit vector over DFG node ids; only
// candidate op nodes may be members. The functions here are the
// *non-incremental reference implementations* of the paper's IN(S), OUT(S),
// convexity and latency measures (Sections 5 and 7). The enumerator in
// src/core maintains the same quantities incrementally; property tests pin
// the two against each other.
#pragma once

#include "dfg/dfg.hpp"
#include "latency/latency_model.hpp"

namespace isex {

struct CutMetrics {
  int num_ops = 0;          // member nodes
  int inputs = 0;           // IN(S): distinct external producers (paper Sec. 5)
  int outputs = 0;          // OUT(S): members with a consumer outside S
  bool convex = true;
  int sw_cycles = 0;        // software execution cycles of the members
  double hw_critical = 0;   // hardware critical path, in MAC delays
  int hw_cycles = 0;        // max(1, ceil(hw_critical)); 0 for the empty cut
  double area_macs = 0;     // AFU datapath area (operators + ROM tables)
};

/// Computes all metrics of `members` (reference implementation).
CutMetrics compute_metrics(const Dfg& g, const BitVector& members, const LatencyModel& latency);

/// The paper's merit M(S): estimated cycles saved per block execution times
/// block frequency (Section 7).
double merit_of(const CutMetrics& m, double exec_freq);

/// Convexity check alone (reference implementation, Section 5).
bool is_convex(const Dfg& g, const BitVector& members);

/// True if `members` only contains candidate nodes and satisfies the
/// microarchitectural constraints.
bool is_feasible(const Dfg& g, const BitVector& members, const LatencyModel& latency,
                 int max_inputs, int max_outputs);

/// Hardware delay of one node inside an AFU (ROM loads use the ROM delay).
double node_hw_delay(const Dfg& g, NodeId n, const LatencyModel& latency);
/// Software cycles of one node on the baseline processor.
int node_sw_cycles(const Dfg& g, NodeId n, const LatencyModel& latency);

}  // namespace isex
