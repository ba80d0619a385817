#ifndef CACKLE_EXEC_OP_CONTEXT_H_
#define CACKLE_EXEC_OP_CONTEXT_H_

#include <cstdint>
#include <functional>

namespace cackle::exec {

/// \brief Ambient per-task context the executor hands to operators.
///
/// Operators (HashJoin, HashAggregate, PartitionByHash) are invoked through
/// stage `run` closures captured at lowering time, so executor state cannot
/// travel through operator signatures without rethreading every call site.
/// Instead the executor installs an OpExecContext in a thread-local slot
/// around each task body (ScopedOpExecContext in PlanRun::RunTask) and
/// operators read it via CurrentOpExecContext(). With no context installed
/// (unit tests, direct operator calls) operators run exactly the same way
/// and report nothing.
struct OpExecContext {
  /// Scratch reporting hook: an operator calls this once with the transient
  /// high-water bytes of its side allocations (packed-key vectors, hash
  /// tables) so PlanRunStats::peak_resident_bytes can account for them. May
  /// be null.
  std::function<void(int64_t)> report_scratch_bytes;
};

namespace internal {
inline thread_local const OpExecContext* g_op_exec_context = nullptr;
}  // namespace internal

/// The context installed on this thread, or an empty context (no scratch
/// hook) when none is installed.
inline const OpExecContext& CurrentOpExecContext() {
  static const OpExecContext kDefault;
  const OpExecContext* ctx = internal::g_op_exec_context;
  return ctx != nullptr ? *ctx : kDefault;
}

/// RAII installer for the thread-local context (same idiom as
/// ScopedLogContext). The referenced context must outlive the scope.
class ScopedOpExecContext {
 public:
  explicit ScopedOpExecContext(const OpExecContext* ctx)
      : previous_(internal::g_op_exec_context) {
    internal::g_op_exec_context = ctx;
  }
  ~ScopedOpExecContext() { internal::g_op_exec_context = previous_; }

  ScopedOpExecContext(const ScopedOpExecContext&) = delete;
  ScopedOpExecContext& operator=(const ScopedOpExecContext&) = delete;

 private:
  const OpExecContext* previous_;
};

}  // namespace cackle::exec

#endif  // CACKLE_EXEC_OP_CONTEXT_H_
