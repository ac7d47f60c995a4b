// Shared schema version of every machine-readable artifact the library
// emits: Chrome traces, JSON run reports, flight-recorder timelines, and
// run-ledger records. Consumers (tools/mcgp_bench_diff, external
// dashboards) key their parsers on this number; bump it whenever a field
// is removed or changes meaning — adding fields is backward compatible
// and does not require a bump. Version 2 dropped the profile's hardware
// counter fields (available, status, counters, enabled_ns, running_ns,
// the derived ipc/llc/branch rates) and the ledger's metrics_snapshot.
// Version 3 made each ledger phase an object {wall_s, cpu_s} of the
// profiler's top-level scopes, beside the record's unattributed_s.
#pragma once

#include <cstdint>

namespace mcgp {

inline constexpr std::int64_t kMcgpSchemaVersion = 3;

}  // namespace mcgp
