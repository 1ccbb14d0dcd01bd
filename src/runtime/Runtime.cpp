//===-- runtime/Runtime.cpp -----------------------------------------------------=//

#include "runtime/Runtime.h"
#include "observe/Profiler.h"
#include "observe/TraceStream.h"
#include "runtime/BufferPool.h"
#include "runtime/GpuSim.h"
#include "runtime/TaskScheduler.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

using namespace halide;

bool ParamBindings::lookupScalar(const std::string &Name, double *Out) const {
  auto IntIt = IntScalars.find(Name);
  if (IntIt != IntScalars.end()) {
    *Out = double(IntIt->second);
    return true;
  }
  auto FloatIt = FloatScalars.find(Name);
  if (FloatIt != FloatScalars.end()) {
    *Out = FloatIt->second;
    return true;
  }
  // Buffer metadata: "<buf>.min.<d>" etc.
  for (const char *Suffix : {".min.", ".extent.", ".stride."}) {
    size_t Pos = Name.rfind(Suffix);
    if (Pos == std::string::npos)
      continue;
    auto BufIt = Buffers.find(Name.substr(0, Pos));
    if (BufIt == Buffers.end())
      continue;
    int D = std::atoi(Name.c_str() + Pos + std::strlen(Suffix));
    if (D < 0 || D >= MaxBufferDims)
      return false;
    const BufferDim &Dim = BufIt->second.Dim[D];
    // Dimensions beyond the buffer's rank read as a degenerate [0, 1).
    if (D >= BufIt->second.Dimensions) {
      *Out = (std::strncmp(Suffix, ".extent.", 8) == 0) ? 1 : 0;
      return true;
    }
    if (std::strncmp(Suffix, ".min.", 5) == 0)
      *Out = Dim.Min;
    else if (std::strncmp(Suffix, ".extent.", 8) == 0)
      *Out = Dim.Extent;
    else
      *Out = Dim.Stride;
    return true;
  }
  return false;
}

void *halide::halideMalloc(int64_t Bytes) { return bufferPoolMalloc(Bytes); }

void halide::halideFree(void *Ptr) { bufferPoolFree(Ptr); }

namespace {

void vtableAbort(const char *Message) {
  std::fprintf(stderr, "pipeline aborted: %s\n", Message);
  std::fflush(stderr);
  std::abort();
}

void vtableParFor(int32_t Min, int32_t Extent,
                  void (*Body)(int32_t, void *), void *Closure) {
  parallelFor(Min, Extent, Body, Closure);
}

void vtableGpuLaunch(int32_t Blocks, void (*Body)(int32_t, void *),
                     void *Closure) {
  gpuSim().launch(Blocks, Body, Closure);
}

void hookProfEnter(int32_t Stage, int32_t, int32_t, const int32_t *,
                   const uint64_t *) {
  profilerEnter(Stage);
}

void hookProfExit(int32_t Stage, int32_t, int32_t, const int32_t *,
                  const uint64_t *) {
  profilerExit(Stage);
}

void hookTraceLoad(int32_t Stage, int32_t TypeCode, int32_t N,
                   const int32_t *Coords, const uint64_t *Bits) {
  traceStreamEmit(Stage, TraceEventKind::TraceLoad, uint8_t(TypeCode), N,
                  Coords, N, Bits);
}

void hookTraceStore(int32_t Stage, int32_t TypeCode, int32_t N,
                    const int32_t *Coords, const uint64_t *Bits) {
  traceStreamEmit(Stage, TraceEventKind::TraceStore, uint8_t(TypeCode), N,
                  Coords, N, Bits);
}

void hookTraceBegin(int32_t Stage, int32_t, int32_t N, const int32_t *Coords,
                    const uint64_t *) {
  traceStreamEmit(Stage, TraceEventKind::TraceBegin, 0, 0, Coords, N,
                  nullptr);
}

void hookTraceEnd(int32_t Stage, int32_t, int32_t, const int32_t *,
                  const uint64_t *) {
  traceStreamEmit(Stage, TraceEventKind::TraceEnd, 0, 0, nullptr, 0, nullptr);
}

struct HookRow {
  const char *Name;
  bool Valued;
  bool (*Gate)();
  void (*Fn)(int32_t, int32_t, int32_t, const int32_t *, const uint64_t *);
};

#define HALIDE_HOOK_ROW(Enum, Name, Valued, Gate, Fn) {Name, Valued, Gate, Fn},
constexpr HookRow HookRows[] = {HALIDE_RUNTIME_HOOKS(HALIDE_HOOK_ROW)};
#undef HALIDE_HOOK_ROW

const HookRow &hookRow(int32_t Hook) {
  internal_assert(Hook >= 0 && size_t(Hook) < std::size(HookRows))
      << "unknown runtime hook " << Hook;
  return HookRows[Hook];
}

} // namespace

const char *halide::runtimeHookName(int32_t Hook) {
  return hookRow(Hook).Name;
}

bool halide::runtimeHookValued(int32_t Hook) { return hookRow(Hook).Valued; }

bool halide::runtimeHookActive(int32_t Hook) { return hookRow(Hook).Gate(); }

void halide::runtimeHook(int32_t Hook, int32_t Stage, int32_t TypeCode,
                         int32_t N, const int32_t *Coords,
                         const uint64_t *Bits) {
  hookRow(Hook).Fn(Stage, TypeCode, N, Coords, Bits);
}

const RuntimeVTable *halide::runtimeVTable() {
  static const RuntimeVTable Table = {
      halideMalloc,    halideFree,  vtableParFor,
      vtableGpuLaunch, vtableAbort, runtimeHook,
  };
  return &Table;
}
