#include "obs/prometheus.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "obs/cluster_view.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/run_meta.h"
#include "obs/timeseries.h"
#include "util/json.h"

namespace moc::obs {

std::string
PromEscapeLabel(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case '"': out += "\\\""; break;
            case '\n': out += "\\n"; break;
            default: out += c;
        }
    }
    return out;
}

namespace {

void
EmitExpertGauge(std::ostringstream& out, const char* name,
                const std::vector<ExpertStat>& experts,
                std::uint64_t ExpertStat::*field) {
    out << "# TYPE " << name << " gauge\n";
    for (const ExpertStat& cell : experts) {
        out << name << "{layer=\"" << cell.layer << "\",expert=\""
            << cell.expert << "\"} " << cell.*field << "\n";
    }
}

}  // namespace

std::string
PromMetricName(const std::string& name) {
    std::string out = "moc_";
    out.reserve(name.size() + 4);
    for (const char c : name) {
        const bool word = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '_';
        out += word ? c : '_';
    }
    return out;
}

std::string
MetricsPrometheus() {
    const MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
    const RunMetadata& meta = RunMeta();
    std::ostringstream out;

    out << "# TYPE moc_run_info gauge\n"
        << "moc_run_info{schema=\"" << PromEscapeLabel(meta.schema)
        << "\",build_type=\"" << PromEscapeLabel(meta.build_type)
        << "\",git_sha=\"" << PromEscapeLabel(meta.git_sha)
        << "\",command_line=\"" << PromEscapeLabel(meta.command_line)
        << "\",config_digest=\"" << PromEscapeLabel(meta.config_digest)
        << "\",role=\"" << PromEscapeLabel(meta.role) << "\"} 1\n";

    for (const auto& [name, value] : snap.counters) {
        const std::string prom = PromMetricName(name);
        out << "# TYPE " << prom << " counter\n" << prom << " " << value << "\n";
    }
    for (const auto& [name, value] : snap.gauges) {
        const std::string prom = PromMetricName(name);
        out << "# TYPE " << prom << " gauge\n"
            << prom << " " << json::FormatNumber(value) << "\n";
    }
    for (const auto& [name, data] : snap.histograms) {
        const std::string prom = PromMetricName(name);
        out << "# TYPE " << prom << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < data.bucket_counts.size(); ++i) {
            cumulative += data.bucket_counts[i];
            const std::string le = i < data.bounds.size()
                                       ? json::FormatNumber(data.bounds[i])
                                       : std::string("+Inf");
            out << prom << "_bucket{le=\"" << le << "\"} " << cumulative << "\n";
        }
        out << prom << "_sum " << json::FormatNumber(data.sum) << "\n"
            << prom << "_count " << data.count << "\n";
    }

    if (!snap.experts.empty()) {
        EmitExpertGauge(out, "moc_expert_last_snapshot_iteration", snap.experts,
                        &ExpertStat::last_snapshot_iteration);
        EmitExpertGauge(out, "moc_expert_last_persist_iteration", snap.experts,
                        &ExpertStat::last_persist_iteration);
        EmitExpertGauge(out, "moc_expert_snapshot_staleness", snap.experts,
                        &ExpertStat::snapshot_staleness);
        EmitExpertGauge(out, "moc_expert_persist_staleness", snap.experts,
                        &ExpertStat::persist_staleness);
        EmitExpertGauge(out, "moc_expert_lost_tokens", snap.experts,
                        &ExpertStat::lost_tokens);
        EmitExpertGauge(out, "moc_expert_snapshot_bytes_total", snap.experts,
                        &ExpertStat::snapshot_bytes);
        EmitExpertGauge(out, "moc_expert_persist_bytes_total", snap.experts,
                        &ExpertStat::persist_bytes);
    }

    // Coordinator-side cluster health (obs/cluster_view.h): one labelled
    // sample per rank heard from, mirroring the per-expert gauge idiom.
    const auto health = ClusterAggregator::Instance().Health();
    if (!health.empty()) {
        out << "# TYPE moc_rank_phase gauge\n";
        for (const auto& row : health) {
            out << "moc_rank_phase{rank=\"" << row.rank << "\",phase=\""
                << PromEscapeLabel(row.phase.empty() ? "idle" : row.phase)
                << "\"} 1\n";
        }
        out << "# TYPE moc_rank_slack_seconds gauge\n";
        for (const auto& row : health) {
            out << "moc_rank_slack_seconds{rank=\"" << row.rank << "\"} "
                << json::FormatNumber(row.slack_s) << "\n";
        }
        out << "# TYPE moc_rank_alive gauge\n";
        for (const auto& row : health) {
            out << "moc_rank_alive{rank=\"" << row.rank << "\"} "
                << (row.alive ? 1 : 0) << "\n";
        }
        out << "# TYPE moc_rank_straggler gauge\n";
        for (const auto& row : health) {
            out << "moc_rank_straggler{rank=\"" << row.rank << "\"} "
                << (row.straggler ? 1 : 0) << "\n";
        }
        // Death causes are transport-declared strings from another
        // process; escape them like every other foreign label value.
        out << "# TYPE moc_rank_death_cause gauge\n";
        for (const auto& row : health) {
            out << "moc_rank_death_cause{rank=\"" << row.rank
                << "\",cause=\""
                << PromEscapeLabel(row.alive ? "none" : row.death_cause)
                << "\"} " << (row.alive ? 0 : 1) << "\n";
        }
    }

    // Live time-series ring (obs/timeseries.h): enough for a scraper to
    // track trajectory freshness without parsing the /series JSON.
    const TimeSeriesRing& ring = TimeSeriesRing::Instance();
    out << "# TYPE moc_series_total gauge\n"
        << "moc_series_total " << ring.total() << "\n";
    const auto last = ring.Window(1);
    if (!last.empty()) {
        out << "# TYPE moc_series_last_iteration gauge\n"
            << "moc_series_last_iteration " << last.back().iteration << "\n"
            << "# TYPE moc_series_last_iter_seconds gauge\n"
            << "moc_series_last_iter_seconds "
            << json::FormatNumber(last.back().iter_seconds) << "\n"
            << "# TYPE moc_series_last_live_ranks gauge\n"
            << "moc_series_last_live_ranks " << last.back().live_ranks
            << "\n";
    }
    return out.str();
}

bool
WriteMetricsPrometheus(const std::string& path) {
    return WriteTextFile(path, MetricsPrometheus(), "prometheus metrics");
}

std::vector<PromSample>
ParsePrometheusText(const std::string& text) {
    std::vector<PromSample> samples;
    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto fail = [&](const std::string& message) -> void {
            throw std::invalid_argument("prometheus line " +
                                        std::to_string(lineno) + ": " + message);
        };
        std::size_t pos = line.find_first_not_of(" \t");
        if (pos == std::string::npos || line[pos] == '#') {
            continue;
        }
        PromSample sample;
        while (pos < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[pos])) != 0 ||
                line[pos] == '_' || line[pos] == ':')) {
            sample.name += line[pos++];
        }
        if (sample.name.empty()) {
            fail("expected a metric name");
        }
        if (pos < line.size() && line[pos] == '{') {
            ++pos;
            while (pos < line.size() && line[pos] != '}') {
                std::string key;
                while (pos < line.size() && line[pos] != '=') {
                    key += line[pos++];
                }
                if (pos + 1 >= line.size() || line[pos] != '=' ||
                    line[pos + 1] != '"') {
                    fail("malformed label");
                }
                pos += 2;
                std::string value;
                while (pos < line.size() && line[pos] != '"') {
                    if (line[pos] == '\\' && pos + 1 < line.size()) {
                        const char esc = line[pos + 1];
                        value += esc == 'n' ? '\n' : esc;
                        pos += 2;
                    } else {
                        value += line[pos++];
                    }
                }
                if (pos >= line.size()) {
                    fail("unterminated label value");
                }
                ++pos;  // closing quote
                sample.labels.emplace(std::move(key), std::move(value));
                if (pos < line.size() && line[pos] == ',') {
                    ++pos;
                }
            }
            if (pos >= line.size() || line[pos] != '}') {
                fail("unterminated label set");
            }
            ++pos;
        }
        while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) {
            ++pos;
        }
        const std::string number = line.substr(pos);
        if (number.empty()) {
            fail("missing sample value");
        }
        if (number == "+Inf") {
            sample.value = HUGE_VAL;
        } else if (number == "-Inf") {
            sample.value = -HUGE_VAL;
        } else {
            char* end = nullptr;
            sample.value = std::strtod(number.c_str(), &end);
            if (end != number.c_str() + number.size()) {
                fail("invalid sample value '" + number + "'");
            }
        }
        samples.push_back(std::move(sample));
    }
    return samples;
}

}  // namespace moc::obs
