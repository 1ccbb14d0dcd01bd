//===-- transforms/Instrument.h - Profiling and tracing hooks ---*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumentation pass behind Target::Profile and Target::Trace. It
/// inserts Call::RuntimeHook intrinsics (hooks listed in
/// runtime/Runtime.h's HALIDE_RUNTIME_HOOKS), which every engine executes
/// through one path into runtimeHook():
///
///   - Profile brackets every stage's produce body with prof_enter /
///     prof_exit; the output stage's bracket is the whole pipeline body,
///     so it is entered once per run. Entering a producer suspends the
///     enclosing stage's self time (the consume transition), and when a
///     produce body's statement chain is recognizably
///     "init ; update(0) ; ..." each update is also bracketed as its own
///     "name.update(k)" sub-stage (observe/Profiler.h).
///   - Trace follows Func::traceLoads()/traceStores()/traceRealizations()
///     (with no per-stage flag anywhere, every buffer is traced, input
///     images included). A traced Load becomes a trace.load hook around
///     it, a traced Store is followed by a trace.store hook, and a traced
///     Allocate's body is bracketed by trace.begin(extents...) /
///     trace.end; the output buffer, which has no Allocate, is bracketed
///     around the whole pipeline using its "<name>.extent.<d>" metadata.
///     The index (and a store's value, evaluated first) is let-bound so
///     the access and its event share one evaluation.
///
/// The pass runs in makeExecutable(), on a copy of the cached
/// LoweredPipeline — never inside lower() — so neither flag enters the
/// lowering fingerprint, instrumented and plain targets share one cached
/// lowering, and an off-target run executes bit-identical, hook-free code
/// (the zero-cost-when-off guarantee ProfilerTest and TracingTest assert).
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_TRANSFORMS_INSTRUMENT_H
#define HALIDE_TRANSFORMS_INSTRUMENT_H

#include "transforms/Lower.h"

namespace halide {

/// Returns \p P with the runtime hooks \p T asks for. \p P itself is not
/// modified.
LoweredPipeline instrument(const LoweredPipeline &P, const Target &T);

} // namespace halide

#endif // HALIDE_TRANSFORMS_INSTRUMENT_H
