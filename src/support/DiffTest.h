//===-- support/DiffTest.h - Differential schedule testing ------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential schedule-correctness harness: the paper's core safety
/// property is that *any* valid schedule of a pipeline computes the same
/// result as the naive one. For a given app this harness enumerates a
/// deterministic sample of schedules from the autotuner's search space and
/// checks every output against the breadth-first reference and, where one
/// exists, the hand-written C++ baseline from apps/baselines. Three
/// engines participate: the bytecode VM executes every schedule (the
/// suite's default backend — fast enough to keep the sweep wide), the
/// CodeGenC -> host-compiler -> dlopen path independently re-executes
/// every schedule, and the tree-walking interpreter spot-checks a prefix
/// of the sample bit-for-bit as the semantic reference. On top of that,
/// every sampled schedule is checked serial-vs-parallel: the threaded VM
/// must reproduce the serial VM's output bit-for-bit with identical
/// merged ExecutionStats (DiffOptions::ThreadedVmThreads /
/// HALIDE_DIFF_THREADS). A final concurrency leg re-runs the first few
/// schedules' executables as simultaneous async jobs on the task
/// scheduler — the serving configuration — and requires every frame to
/// be bit-identical (output and merged stats) to its sequential run
/// (DiffOptions::ConcurrentFrames / HALIDE_DIFF_CONCURRENT). Since the
/// backends grew real SIMD execution, a scalar-vs-vector leg re-lowers
/// every sampled schedule that contains a vectorized loop with that loop
/// demoted to serial (splits intact) and requires the vectorized run to
/// reproduce the scalarized output bit-for-bit with identical per-buffer
/// load/store counts (DiffOptions::ScalarVectorParity /
/// HALIDE_DIFF_SCALAR). Finally a trace-parity leg re-runs a prefix of
/// the sample with value tracing enabled (Target::withTrace() streaming
/// to a temporary file): the traced run must reproduce the untraced
/// output bit-for-bit, and the per-buffer load/store lane counts summed
/// from the trace itself must equal the untraced run's ExecutionStats —
/// instrumentation may not change the computation, and may not miss or
/// invent an access (DiffOptions::TraceParityChecks / HALIDE_DIFF_TRACE).
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_SUPPORT_DIFFTEST_H
#define HALIDE_SUPPORT_DIFFTEST_H

#include "apps/Apps.h"
#include "transforms/Lower.h"

#include <memory>
#include <string>
#include <vector>

namespace halide {

/// Uniform backend entry point: executes \p P on the backend \p T names
/// and returns the pipeline's exit code (0 on success). The interpreter
/// aborts via user_error on internal pipeline assertions; the JIT backends
/// report them through the exit code. Compiles fresh on every call — the
/// schedule sweep wants per-schedule artifacts, not the process cache.
/// \p Stats, when non-null, receives the backend's execution counters.
int runOnBackend(const Target &T, const LoweredPipeline &P,
                 const ParamBindings &Params,
                 ExecutionStats *Stats = nullptr);

/// Target::jit() carrying the HALIDE_DIFF_JIT_FLAGS host-compiler flags
/// when that variable is set. Tests that compile single pipelines use it,
/// so a CI leg that pins the flags (e.g. AddressSanitizer on the generated
/// code) reaches them as well as the schedule sweep.
Target diffJitTarget();

/// Options controlling a differential run.
struct DiffOptions {
  int Width = 96;
  int Height = 64;
  /// Frame size for the hand-written-baseline check (0 = use Width/Height).
  /// Pyramid apps diverge from the baseline's edge-clamping over a border
  /// band whose width is set by pyramid depth, not frame size, so they
  /// need a frame large enough that an interior region survives the
  /// ReferenceMargin — while the schedule sweep itself (which compares
  /// full frames schedule-vs-schedule) can stay small and fast.
  int BaselineWidth = 0;
  int BaselineHeight = 0;
  /// Schedules drawn from ScheduleSpace::deterministicSample. The first
  /// five are the canonical variants (breadth-first, max-inline,
  /// tiled+parallel, vectorized, sliding window); the rest are seeded
  /// random points in the search space. Twelve per app since the bytecode
  /// VM became the suite's engine (PR 3 made the sweep ~4x faster, so the
  /// sample affords twice the coverage it had under the interpreter).
  int ScheduleCount = 12;
  uint32_t Seed = 2013;
  /// Absolute per-element tolerance for float outputs. Integer outputs
  /// must match bit-exactly.
  double FloatTolerance = 1e-5;
  /// The engine that computes the reference output and executes every
  /// sampled schedule. Defaults to the bytecode VM; the
  /// HALIDE_DIFF_BACKEND environment variable (Target::parse syntax,
  /// e.g. "vm", "interp") overrides it process-wide, which is how CI
  /// forces a backend under sanitizers.
  Target ExecTarget = Target::vm();
  /// The first this-many sampled schedules are additionally executed by
  /// the tree-walking interpreter, which must reproduce the execution
  /// backend's output for the same schedule bit-for-bit — the
  /// stats-reference engine keeps auditing the VM without paying its
  /// 10-40x slowdown on every schedule. 0 disables; ignored when
  /// ExecTarget is already the interpreter.
  int InterpreterSpotChecks = 1;
  /// The threaded-VM leg: when the execution backend is the bytecode VM,
  /// every sampled schedule is re-executed with this many threads
  /// requested and must reproduce the serial output bit-for-bit with
  /// identical merged ExecutionStats — the serial-vs-parallel
  /// determinism check. <= 1 disables. The HALIDE_DIFF_THREADS
  /// environment variable overrides it process-wide (0 to disable); the
  /// effective worker count is still bounded by the task scheduler's
  /// pool size (HALIDE_NUM_THREADS / hardware concurrency).
  int ThreadedVmThreads = 4;
  /// The concurrent-serving leg: the first this-many sampled schedules'
  /// executables are re-run as simultaneous async jobs sharing the task
  /// scheduler (mixed priorities), and every frame's output and merged
  /// ExecutionStats must be bit-identical to that schedule's sequential
  /// run — concurrency must be invisible in the results. 0 disables. The
  /// HALIDE_DIFF_CONCURRENT environment variable overrides it
  /// process-wide (0 to disable).
  int ConcurrentFrames = 4;
  /// The scalar-vs-vector parity leg: every sampled schedule containing a
  /// vectorized loop is additionally re-lowered with each vectorized
  /// dimension demoted to a serial loop of the same extent (splits stay,
  /// so the iteration space is identical) and re-executed on the same
  /// backend. The vectorized run must reproduce the scalarized output
  /// bit-for-bit — zero tolerance, floats included, since lane-parallel
  /// arithmetic performs exactly the per-element operations — with
  /// identical per-buffer load/store counts. The HALIDE_DIFF_SCALAR
  /// environment variable overrides it process-wide (0 disables).
  bool ScalarVectorParity = true;
  /// The trace-parity leg: the first this-many sampled schedules are
  /// re-executed with value tracing enabled (Target::withTrace(), stream
  /// directed at a temporary file that is deleted afterwards). The traced
  /// run must reproduce the untraced output bit-for-bit, and summing the
  /// trace's per-lane load/store records per buffer must reproduce the
  /// untraced run's ExecutionStats LoadsPerBuffer/StoresPerBuffer exactly
  /// — the instrumentation neither perturbs the computation nor drops or
  /// duplicates an access. (Compiled C keeps no such counters, so on a
  /// jit_c engine the counts come from a VM run of the same lowering.) 0
  /// disables. The HALIDE_DIFF_TRACE environment variable overrides it
  /// process-wide (0 to disable).
  int TraceParityChecks = 1;
  /// Also push every schedule through the C backend (compile + dlopen).
  bool RunCodeGenC = true;
  /// Host-compiler flags for the C backend. -O0 because this harness
  /// checks correctness, not speed: the vectorized schedules emit large
  /// translation units that -O3 compiles an order of magnitude slower.
  /// The HALIDE_DIFF_JIT_FLAGS environment variable overrides it
  /// process-wide (and also applies to an exec backend forced to jit_c
  /// via HALIDE_DIFF_BACKEND) — CI's no-autovectorize leg pins
  /// "-O2 -fno-tree-vectorize" to prove the emitted vector code, not the
  /// host compiler, carries the SIMD.
  std::string JitFlags = "-O0";
};

/// One disagreement between a schedule's output and the reference.
struct DiffMismatch {
  std::string Schedule;   ///< ScheduleSpace::describe of the genome
  std::string Comparison; ///< e.g. "interpreter vs reference"
  std::string Detail;     ///< first differing element and both values
};

/// The outcome of a differential run over one app.
struct DiffReport {
  std::string AppName;
  int SchedulesRun = 0;
  std::vector<DiffMismatch> Mismatches;
  bool ok() const { return Mismatches.empty(); }
  /// Human-readable multi-line failure description (empty when ok).
  std::string summary() const;
};

/// Demotes every vectorized loop in the pipeline's currently applied
/// schedules to a serial loop, leaving splits intact: the scalarized
/// pipeline walks exactly the same iteration space as the vectorized
/// one, only the lane-parallel execution disappears. Returns true if any
/// loop was demoted (i.e. the schedule actually vectorized something).
/// Used by the scalar-vs-vector parity leg and bench_runner --novec.
bool scalarizeVectorLoops(const Function &Output);

/// The widest vector width the pipeline's currently applied schedules
/// request: the constant split factor (or whole-dimension bound() extent)
/// of each vectorized loop, maximized over all stages. 1 when nothing is
/// vectorized — the scalar baseline.
int scheduleVectorWidth(const Function &Output);

/// Allocates a dense planar output buffer shaped like the app's output
/// signature: W x H, plus 3 channels when the output is 3-dimensional.
/// \p Keep receives the owning storage handle.
RawBuffer makeAppOutput(const App &A, int W, int H,
                        std::shared_ptr<void> *Keep);

/// Element-wise comparison of two identically shaped buffers: bit-exact
/// for integer element types, absolute tolerance \p FloatTol for floats.
/// \p Margin border elements in dims 0 and 1 are excluded. On mismatch,
/// *Detail (if non-null) receives the first differing coordinate and both
/// values.
bool buffersMatch(const RawBuffer &A, const RawBuffer &B, double FloatTol,
                  int Margin, std::string *Detail);

/// Runs the full differential sweep for one app. The reference output is
/// the breadth-first schedule through the interpreter; every sampled
/// schedule must reproduce it on both backends, and the reference itself
/// must agree with the app's hand-written baseline where one is wired.
DiffReport runScheduleDifferential(App &A, const DiffOptions &Opts = {});

} // namespace halide

#endif // HALIDE_SUPPORT_DIFFTEST_H
