// File-backed workloads: a `.isex` file is a small header describing how to
// drive a kernel, followed by the textual IR module itself.
//
//   workload NAME                  ; optional, defaults to the module name
//   entry NAME                     ; optional, defaults to the function named
//                                  ;   like the module, or the sole function
//   args [N, N, ...]               ; optional, defaults to no arguments
//   outputs segment NAME xCOUNT    ; optional, defaults to `outputs none`
//   outputs none
//   module NAME
//   ...
//
// Expected outputs are not stored in the file: the loader runs the kernel
// once with the interpreter (step-bounded, so hostile kernels terminate) and
// records what it produced. The loaded Workload is therefore its own
// reference — exactly what rewrite verification needs to prove a selection
// preserved behaviour.
#pragma once

#include <string>
#include <string_view>

#include "workloads/workload.hpp"

namespace isex {

/// Serializes a workload to the `.isex` format. Requires the workload's
/// output reader to be introspectable (a SegmentReader, as every registry
/// kernel uses) or trivial; throws Error otherwise.
std::string dump_workload(const Workload& workload);

/// Parses a `.isex` document. Throws ParseError (header or module syntax,
/// locations relative to the whole document) or Error (probe run failed).
/// The module is verified once, by parse_module, before the probe runs it.
Workload load_workload_string(std::string_view text);

/// Reads `path` and loads it. The workload's name comes from the file
/// content, never the path, so reports and cache keys stay path-independent.
Workload load_workload_file(const std::string& path);

}  // namespace isex
