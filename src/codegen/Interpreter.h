//===-- codegen/Interpreter.h - Reference backend ---------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A direct tree-walking executor for lowered pipeline statements. It is
/// the semantic reference the C backend is differentially tested against,
/// and it gathers execution statistics (stores per buffer, peak memory,
/// parallel iterations) that the tests and Figure-3 benchmarks use to
/// observe work amplification and storage folding. Execution is serial and
/// deterministic; parallel loop types are counted, not threaded.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_CODEGEN_INTERPRETER_H
#define HALIDE_CODEGEN_INTERPRETER_H

#include "runtime/Runtime.h"
#include "runtime/ExecutionStats.h"
#include "transforms/Lower.h"

namespace halide {

/// Options controlling interpretation.
struct InterpOptions {
  /// Track the operation distance between each store and the loads that
  /// reuse it (Figure 3's locality measure). Adds per-element bookkeeping.
  bool TrackReuseDistance = false;
};

/// Executes a lowered pipeline against concrete parameter bindings,
/// returning execution statistics. Aborts (via user_error) on failed
/// pipeline assertions or out-of-bounds accesses.
ExecutionStats interpret(const LoweredPipeline &P,
                         const ParamBindings &Params,
                         const InterpOptions &Opts = InterpOptions());

} // namespace halide

#endif // HALIDE_CODEGEN_INTERPRETER_H
