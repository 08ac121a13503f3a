#include "obs/run_meta.h"

#include <atomic>
#include <sstream>

#include "util/json.h"

#ifndef MOC_BUILD_TYPE
#define MOC_BUILD_TYPE "unknown"
#endif
#ifndef MOC_GIT_SHA
#define MOC_GIT_SHA "unknown"
#endif

namespace moc::obs {

namespace {

/** Refreshed continuously by the transport's reader thread, read by every
    exporter: an atomic, not a RunMetadata field. */
std::atomic<std::int64_t> g_cluster_clock_offset_ns{0};

}  // namespace

RunMetadata&
RunMeta() {
    static RunMetadata* meta = [] {
        auto* m = new RunMetadata();
        m->build_type = MOC_BUILD_TYPE;
        m->git_sha = MOC_GIT_SHA;
        return m;
    }();
    return *meta;
}

void
SetRunCommandLine(int argc, const char* const* argv) {
    std::ostringstream joined;
    for (int i = 0; i < argc; ++i) {
        joined << (i == 0 ? "" : " ") << argv[i];
    }
    RunMeta().command_line = joined.str();
}

void
SetRunConfigDigest(const std::string& digest_hex) {
    RunMeta().config_digest = digest_hex;
}

void
SetRunRole(const std::string& role) {
    RunMeta().role = role;
}

void
SetClusterClockOffsetNs(std::int64_t offset_ns) {
    g_cluster_clock_offset_ns.store(offset_ns, std::memory_order_relaxed);
}

std::int64_t
ClusterClockOffsetNs() {
    return g_cluster_clock_offset_ns.load(std::memory_order_relaxed);
}

void
WriteRunMetaFields(json::Writer& w) {
    const RunMetadata& meta = RunMeta();
    w.Field("schema", meta.schema).Field("build_type", meta.build_type)
        .Field("git_sha", meta.git_sha).Field("command_line", meta.command_line)
        .Field("config_digest", meta.config_digest).Field("role", meta.role)
        .Field("clock_offset_ns", ClusterClockOffsetNs());
}

}  // namespace moc::obs
