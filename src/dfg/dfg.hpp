// Dataflow graph of one basic block — the paper's G+ (Section 5).
//
// Node kinds:
//  * op       — a primitive operation of the block (the paper's V). Memory
//               operations are present but marked `forbidden`: an AFU has no
//               memory port (optionally, loads from read-only tables can be
//               admitted as ROMs — the paper's Section 9 extension).
//  * constant — an integer literal. Constants are hardwired into the AFU:
//               they can join any cut for free and never count in IN/OUT.
//  * input    — the paper's V+ input variables: block live-ins (parameters,
//               values from other blocks, phi results).
//  * output   — the paper's V+ output variables: one per op value that is
//               live out of the block (used by other blocks, by a phi edge,
//               or by the terminator).
//
// Edges follow dataflow direction (producer -> consumer) and are
// deduplicated. Ordering edges between memory operations (flagged
// `order_only`) keep rewrites sound; both endpoints are always forbidden.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/module.hpp"
#include "support/bitvector.hpp"
#include "support/ids.hpp"

namespace isex {

enum class NodeKind : std::uint8_t { op, constant, input, output };

struct DfgEdge {
  NodeId from;
  NodeId to;
  bool order_only = false;  // memory-ordering edge, carries no value
};

/// Everything a node is apart from its edges.
struct DfgNodeFields {
  NodeKind kind = NodeKind::op;
  Opcode op = Opcode::add;   // op nodes only
  std::int64_t imm = 0;      // constant literal / rom hint payload
  ValueId value;             // value produced (op/constant/input) or consumed (output)
  InstrId instr;             // defining instruction (op nodes)
  bool forbidden = false;    // never a cut member
  bool rom_load = false;     // admissible load from a read-only table
  std::uint32_t rom_words = 0;  // table size backing a rom_load (area model)
  std::string label;
};

struct DfgNode : DfgNodeFields {
  // Adjacency (deduplicated). `pred_data`/`succ_data` parallel flags are
  // false for order-only edges.
  std::vector<NodeId> preds;
  std::vector<NodeId> succs;
  std::vector<std::uint8_t> pred_is_data;
  std::vector<std::uint8_t> succ_is_data;
};

struct DfgOptions {
  /// Admit loads carrying a ROM hint (read-only table) as cut candidates.
  bool allow_rom_loads = false;
};

class Dfg {
 public:
  Dfg() = default;

  /// Extracts the G+ of `block` of `fn`. `exec_freq` weights cut merits
  /// (paper Section 7); pass the profile count of the block.
  static Dfg from_block(const Module& module, const Function& fn, BlockId block,
                        double exec_freq = 1.0, const DfgOptions& options = {});

  // --- manual construction (tests, synthetic graphs) --------------------
  NodeId add_op(Opcode op, std::string label = {});
  NodeId add_forbidden_op(Opcode op, std::string label = {});
  NodeId add_constant(std::int64_t literal);
  NodeId add_input(std::string label = {});
  /// Adds a V+ output node fed by `producer`.
  NodeId add_output(NodeId producer, std::string label = {});
  /// Appends a node carrying every field of `source` but none of its edges.
  NodeId copy_node(const DfgNode& source);
  void add_edge(NodeId from, NodeId to, bool order_only = false);
  /// Computes orders, the descendant closure and the data-successor rows;
  /// must be called after manual construction.
  void finalize();

  // --- accessors --------------------------------------------------------
  std::size_t num_nodes() const { return nodes_.size(); }
  const DfgNode& node(NodeId n) const;
  DfgNode& node_mutable(NodeId n);

  /// Non-forbidden op nodes (cut candidates).
  const std::vector<NodeId>& candidates() const { return candidates_; }
  /// Op and output nodes in the search's decision order: reverse topological,
  /// i.e. every node appears after all of its graph descendants.
  const std::vector<NodeId>& search_order() const { return search_order_; }
  /// All op nodes (including forbidden ones), ascending id.
  const std::vector<NodeId>& op_nodes() const { return op_nodes_; }

  /// True if a path from `a` to `b` exists (following edge direction).
  bool reaches(NodeId a, NodeId b) const;

  // Node sets as rows of row_words() 64-bit words (bit i at word i/64, bit
  // i%64; bits past num_nodes() are zero). finalize() stores each kind of
  // row in one row-major array, node n's row at n * row_words(), shared —
  // like the graph itself — through the extraction cache. The enumeration
  // engines in src/core borrow the arrays whole: reach, output and
  // convexity checks become AND/ANDNOT word operations instead of per-edge
  // scans over the adjacency lists.
  std::size_t row_words() const { return row_words_; }
  /// Descendants of n (excluding n).
  const std::uint64_t* desc_row(NodeId n) const;
  /// Immediate successors of n over data edges only.
  const std::uint64_t* data_succ_row(NodeId n) const;

  double exec_freq() const { return exec_freq_; }
  void set_exec_freq(double f) { exec_freq_ = f; }
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }
  /// IR block this graph was extracted from (invalid for synthetic graphs).
  BlockId source_block() const { return source_block_; }

  /// True once finalize() has run.
  bool finalized() const { return finalized_; }

 private:
  NodeId add_node(DfgNode node);
  void check_finalized() const { ISEX_CHECK(finalized_, "Dfg not finalized"); }

  std::vector<DfgNode> nodes_;
  std::vector<NodeId> candidates_;
  std::vector<NodeId> op_nodes_;
  std::vector<NodeId> search_order_;
  std::size_t row_words_ = 0;
  std::vector<std::uint64_t> desc_rows_;       // transitive descendants
  std::vector<std::uint64_t> data_succ_rows_;  // immediate data successors
  double exec_freq_ = 1.0;
  std::string name_;
  BlockId source_block_;
  bool finalized_ = false;
};

}  // namespace isex
