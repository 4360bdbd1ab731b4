// JSON serialization of traces — the on-disk interchange format between the
// emulator and the downstream pipeline stages (the paper's emulator emits
// JSON event traces, Fig. 3).
#ifndef SRC_TRACE_SERIALIZATION_H_
#define SRC_TRACE_SERIALIZATION_H_

#include <string>

#include "src/common/json_parser.h"
#include "src/common/status.h"
#include "src/trace/collator.h"
#include "src/trace/trace.h"

namespace maya {

std::string SerializeWorkerTrace(const WorkerTrace& worker);
std::string SerializeJobTrace(const JobTrace& job);

// Parses the output of SerializeWorkerTrace (strict: missing fields are
// errors; unknown keys are ignored).
Result<WorkerTrace> ParseWorkerTrace(const std::string& json);

// Parses the output of SerializeJobTrace — the payload format the prediction
// service accepts for pre-collated traces. Strict: missing keys, unknown
// enum names, and comm references to undeclared uids are errors. The
// JsonValue overload parses a job trace embedded in a larger request message.
Result<JobTrace> ParseJobTrace(const std::string& json);
Result<JobTrace> ParseJobTrace(const JsonValue& value);

// Name -> enum lookups for the serialized trace vocabulary (inverse of
// TraceOpTypeName / KernelKindName / DTypeName / CollectiveKindName).
Result<TraceOpType> TraceOpTypeFromName(const std::string& name);
Result<KernelKind> KernelKindFromName(const std::string& name);
Result<DType> DTypeFromName(const std::string& name);
Result<CollectiveKind> CollectiveKindFromName(const std::string& name);

}  // namespace maya

#endif  // SRC_TRACE_SERIALIZATION_H_
