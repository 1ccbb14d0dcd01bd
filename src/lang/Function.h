//===-- lang/Function.h - Internal function representation ------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler-internal representation of one pipeline stage: a pure
/// definition (value at every point of an infinite integer domain, paper
/// section 2), optional update definitions recursing over reduction
/// domains, and the stage's Schedule. Func (lang/Func.h) is the user-facing
/// handle around this.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_LANG_FUNCTION_H
#define HALIDE_LANG_FUNCTION_H

#include "lang/RDom.h"
#include "schedule/Schedule.h"
#include "support/Util.h"

#include <string>
#include <vector>

namespace halide {

/// One update definition: Name(Args...) = Value, iterated over the RDom
/// dimensions in lexicographic order. Args may be arbitrary integer
/// expressions of free pure variables and RVars (scatters).
struct UpdateDefinition {
  std::vector<Expr> Args;
  Expr Value;
  std::vector<ReductionVariable> RVars;
  /// Loop order for this update stage, outermost first: free pure vars then
  /// reduction vars (which default to serial).
  std::vector<Dim> Dims;
};

/// Reference-counted payload of a Function. Registered in a process-wide
/// name table (see Function.cpp) so Call nodes, which store only names, can
/// be resolved back to functions when building the pipeline environment.
struct FunctionContents {
  /// Atomic: Func handles are captured by in-flight async frames and
  /// copied across threads (see IntrusivePtr in support/Util.h).
  mutable std::atomic<int> RefCount{0};

  std::string Name;
  /// Process-unique serial number. Names are unique only among *live*
  /// functions — once a Function dies its name can be reused by a stage
  /// with a different definition — so identity-sensitive consumers (the
  /// compile cache's schedule fingerprint) key on this id, never on the
  /// name alone.
  int64_t Id = 0;
  std::vector<std::string> Args;
  Expr Value;
  std::vector<UpdateDefinition> Updates;
  Schedule Sched;

  /// Value-tracing requests (Func::traceLoads() etc.). Deliberately not part
  /// of Schedule so Schedule::str() — and with it the lowering fingerprint —
  /// is unchanged by tracing; the flags are applied by instrument() on a
  /// copy of the cached lowered pipeline and fingerprinted into the
  /// executable cache key only (see lang/Pipeline.cpp).
  bool TraceLoads = false;
  bool TraceStores = false;
  bool TraceRealizations = false;

  ~FunctionContents();
};

/// A shared handle to a pipeline stage. Copies alias the same stage.
class Function {
public:
  Function() = default;
  /// Creates a new, undefined function. The name is made process-unique if
  /// it collides with an existing live function.
  explicit Function(const std::string &Name);

  bool defined() const;
  bool hasPureDefinition() const;
  bool hasUpdateDefinition() const;

  const std::string &name() const;
  /// Process-unique serial number of this stage (stable across renames,
  /// never reused by another Function in the same process).
  int64_t id() const;
  /// The pure argument names, in definition order (x innermost by default).
  const std::vector<std::string> &args() const;
  int dimensions() const { return int(args().size()); }
  Type outputType() const;

  /// The pure definition's right-hand side.
  const Expr &value() const;
  const std::vector<UpdateDefinition> &updates() const;
  std::vector<UpdateDefinition> &updates();

  Schedule &schedule();
  const Schedule &schedule() const;

  /// Value-tracing flags (see FunctionContents). Setters are additive;
  /// resetSchedule() does not clear them.
  void setTraceLoads(bool Enable);
  void setTraceStores(bool Enable);
  void setTraceRealizations(bool Enable);
  bool traceLoads() const;
  bool traceStores() const;
  bool traceRealizations() const;

  /// Installs the pure definition and initializes the default schedule
  /// (row-major loop order over the pure args).
  void define(const std::vector<std::string> &Args, Expr Value);

  /// Restores the default schedule: no splits, row-major order, all serial,
  /// compute/store inlined (or root if the function has updates). Used by
  /// the autotuner between candidate schedules.
  void resetSchedule();
  /// Appends an update definition.
  void defineUpdate(const std::vector<Expr> &Args, Expr Value,
                    const std::vector<ReductionVariable> &RVars);

  bool sameAs(const Function &Other) const { return C.get() == Other.C.get(); }

  /// Looks up a live function by (unique) name; asserts on failure.
  static Function lookup(const std::string &Name);
  /// Returns true and fills \p Out if a live function has this name.
  static bool tryLookup(const std::string &Name, Function *Out);

private:
  IntrusivePtr<FunctionContents> C;
};

} // namespace halide

#endif // HALIDE_LANG_FUNCTION_H
