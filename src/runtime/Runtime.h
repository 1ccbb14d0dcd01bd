//===-- runtime/Runtime.h - Execution-time support --------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime contract between compiled pipelines and the host: parameter
/// bindings (buffers and scalars), the function-pointer table passed to
/// JIT-compiled code (so generated code needs no link-time symbols), the
/// runtime-hook table every engine's profiling and tracing goes through,
/// and small allocation helpers.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_RUNTIME_RUNTIME_H
#define HALIDE_RUNTIME_RUNTIME_H

#include "runtime/Buffer.h"

#include <cstdint>
#include <map>
#include <string>

namespace halide {

/// Concrete values for a pipeline invocation: buffers by name (output and
/// input images) and scalar parameters by name.
class ParamBindings {
public:
  void bind(const std::string &Name, const RawBuffer &Buffer) {
    Buffers[Name] = Buffer;
  }
  template <typename T>
  void bind(const std::string &Name, const Buffer<T> &B) {
    Buffers[Name] = B.raw();
  }
  void bindInt(const std::string &Name, int64_t Value) {
    IntScalars[Name] = Value;
  }
  void bindFloat(const std::string &Name, double Value) {
    FloatScalars[Name] = Value;
  }

  bool hasBuffer(const std::string &Name) const {
    return Buffers.count(Name) > 0;
  }
  const RawBuffer &buffer(const std::string &Name) const {
    auto It = Buffers.find(Name);
    internal_assert(It != Buffers.end()) << "unbound buffer " << Name;
    return It->second;
  }

  /// Resolves a scalar parameter: either a user scalar or buffer metadata
  /// of the form "<buf>.min.<d>" / ".extent.<d>" / ".stride.<d>".
  bool lookupScalar(const std::string &Name, double *Out) const;

  const std::map<std::string, RawBuffer> &buffers() const { return Buffers; }
  const std::map<std::string, int64_t> &intScalars() const {
    return IntScalars;
  }
  const std::map<std::string, double> &floatScalars() const {
    return FloatScalars;
  }

private:
  std::map<std::string, RawBuffer> Buffers;
  std::map<std::string, int64_t> IntScalars;
  std::map<std::string, double> FloatScalars;
};

/// The runtime hooks instrumented executables call: one row per hook,
/// X(Enum, Name, Valued, Gate, Fn). Name is what VM disassembly and the
/// generated C's comments show. A Valued hook's payload is {value,
/// index} (a traced access); any other hook's payload is its
/// coordinates (realization extents) or nothing. Gate is the cheap
/// "would this hook record anything" check the engines make before
/// packing a payload; Fn is the runtime function the dispatcher calls.
/// Adding a hook takes one row here plus its Fn in Runtime.cpp.
#define HALIDE_RUNTIME_HOOKS(X)                                              \
  X(ProfEnter, "prof_enter", false, profilerEnabled, hookProfEnter)          \
  X(ProfExit, "prof_exit", false, profilerEnabled, hookProfExit)             \
  X(TraceLoad, "trace.load", true, traceStreamActive, hookTraceLoad)         \
  X(TraceStore, "trace.store", true, traceStreamActive, hookTraceStore)      \
  X(TraceBegin, "trace.begin", false, traceStreamActive, hookTraceBegin)     \
  X(TraceEnd, "trace.end", false, traceStreamActive, hookTraceEnd)

/// Hook ids, the first argument of a Call::RuntimeHook intrinsic.
enum class HookId : int32_t {
#define HALIDE_HOOK_ENUM(Enum, ...) Enum,
  HALIDE_RUNTIME_HOOKS(HALIDE_HOOK_ENUM)
#undef HALIDE_HOOK_ENUM
};

const char *runtimeHookName(int32_t Hook);
/// Whether the hook's payload starts with a value (see the table).
bool runtimeHookValued(int32_t Hook);
/// The hook's Gate: false means a call would record nothing.
bool runtimeHookActive(int32_t Hook);
/// The one hook dispatcher: the vtable's Hook slot, also called directly
/// by the interpreter and the VM. \p Stage is a profilerStageId, \p N
/// the number of \p Coords (and, for valued hooks, of value words in
/// \p Bits, normalized as observe/TraceStream.h describes).
void runtimeHook(int32_t Hook, int32_t Stage, int32_t TypeCode, int32_t N,
                 const int32_t *Coords, const uint64_t *Bits);

/// The vtable handed to JIT-compiled pipelines, one X(Ret, Name, Params)
/// row per slot. Passing function pointers explicitly (rather than
/// relying on dynamic symbol resolution) keeps the generated shared
/// object fully self-contained; CodeGenC expands the same rows into the
/// generated code's hl_vtable typedef, so the two layouts cannot drift.
///  - Malloc/Free: heap allocation for internal buffers (64-byte aligned).
///  - ParFor: closure-based parallel for, Body(I, Closure) for I in
///    [Min, Min+Extent) on the work-stealing task scheduler (paper §4.6).
///  - GpuLaunch: simulated-GPU kernel launch over a flattened block range,
///    ParFor semantics routed through the GPU simulator for accounting.
///  - Abort: aborts execution with a message (failed AssertStmt).
///  - Hook: runtimeHook, called only by instrumented executables.
#define HALIDE_RUNTIME_VTABLE(X)                                             \
  X(void *, Malloc, (int64_t Bytes))                                         \
  X(void, Free, (void *Ptr))                                                 \
  X(void, ParFor,                                                            \
    (int32_t Min, int32_t Extent, void (*Body)(int32_t, void *),             \
     void *Closure))                                                         \
  X(void, GpuLaunch,                                                         \
    (int32_t Blocks, void (*Body)(int32_t, void *), void *Closure))          \
  X(void, Abort, (const char *Message))                                      \
  X(void, Hook,                                                              \
    (int32_t HookId, int32_t Stage, int32_t TypeCode, int32_t N,             \
     const int32_t *Coords, const uint64_t *Bits))

struct RuntimeVTable {
#define HALIDE_VTABLE_FIELD(Ret, Name, Params) Ret(*Name) Params;
  HALIDE_RUNTIME_VTABLE(HALIDE_VTABLE_FIELD)
#undef HALIDE_VTABLE_FIELD
};

/// The global vtable instance (also used by the interpreter for parity).
const RuntimeVTable *runtimeVTable();

/// 64-byte-aligned heap allocation helpers. Backed by the process-wide
/// buffer pool (runtime/BufferPool.h), so steady-state frame loops reuse
/// blocks instead of hitting the system allocator.
void *halideMalloc(int64_t Bytes);
void halideFree(void *Ptr);

} // namespace halide

#endif // HALIDE_RUNTIME_RUNTIME_H
