/**
 * @file
 * `moc_cli watch` — a terminal client for the live observability endpoint
 * (src/obs/http_endpoint.h). Polls `/healthz` + `/ranks` + `/series` on a
 * running coordinator (or single-process trainer) and renders a per-rank
 * health table plus the in-flight overhead trajectory.
 *
 *   moc_cli watch --url http://127.0.0.1:8080 [--once] [--watch-json]
 *       [--interval-s S] [--max-polls N] [--series-last N]
 *
 * Exit codes (asserted by the CI gauntlet):
 *   0  the endpoint answered and /healthz was 200 (healthy)
 *   1  the endpoint answered but /healthz was non-200 (degraded: a rank is
 *      dead or suspect)
 *   2  the endpoint was never reachable (connection refused, bad URL,
 *      timeout before the first answer)
 *
 * In loop mode (without --once) the watcher polls every --interval-s until
 * the endpoint disappears — a vanished endpoint after a successful poll
 * means the run ended, and the exit code is the last observed verdict.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "cli_lib.h"
#include "obs/http_endpoint.h"
#include "util/bytes.h"
#include "util/json.h"
#include "util/table.h"

namespace moc::cli {

namespace {

/** One poll's fetched pages; reachable == the /healthz GET answered. */
struct PollResult {
    bool reachable = false;
    int health_status = 0;
    std::string healthz;
    std::string ranks;
    std::string series;
};

PollResult
Poll(const obs::UrlParts& url, std::size_t series_last) {
    PollResult result;
    const auto health = obs::HttpGet(url.host, url.port, "/healthz");
    if (!health) {
        return result;
    }
    result.reachable = true;
    result.health_status = health->status;
    result.healthz = health->body;
    if (const auto ranks = obs::HttpGet(url.host, url.port, "/ranks")) {
        result.ranks = ranks->body;
    }
    const std::string series_path =
        "/series?last=" + std::to_string(series_last);
    if (const auto series = obs::HttpGet(url.host, url.port, series_path)) {
        result.series = series->body;
    }
    return result;
}

/** "n/a" for the unknown-PLT sentinel, percent otherwise. */
std::string
PltCell(double plt) {
    return plt < 0.0 ? "n/a" : Table::Num(plt * 100.0, 3) + "%";
}

void
RenderHuman(const PollResult& poll, std::ostream& out) {
    try {
        const json::Value health = json::Parse(poll.healthz);
        out << (poll.health_status == 200 ? "HEALTHY" : "DEGRADED")
            << " (healthz " << poll.health_status << "): "
            << health.U64Or("alive", 0) << "/" << health.U64Or("ranks", 0)
            << " rank(s) alive, " << health.U64Or("stragglers", 0)
            << " straggler(s), iteration " << health.U64Or("iteration", 0)
            << ", " << health.U64Or("telemetry_samples", 0)
            << " telemetry sample(s)\n";
    } catch (const std::exception&) {
        out << "healthz " << poll.health_status << " (unparseable body)\n";
    }

    try {
        const json::Value ranks = json::Parse(poll.ranks);
        const json::Array& rows = ranks.At("ranks").AsArray();
        if (!rows.empty()) {
            Table t({"rank", "alive", "phase", "gen", "iter", "slack (s)",
                     "straggler", "samples"});
            for (const json::Value& row : rows) {
                const bool alive =
                    row.Find("alive") != nullptr && row.At("alive").AsBool();
                t.AddRow({std::to_string(
                              static_cast<long long>(row.NumberOr("rank", -1))),
                          alive ? "yes"
                                : "DEAD (" +
                                      row.StringOr("death_cause", "?") + ")",
                          row.StringOr("phase", "idle"),
                          std::to_string(row.U64Or("generation", 0)),
                          std::to_string(row.U64Or("iteration", 0)),
                          Table::Num(row.NumberOr("slack_s", 0.0), 3),
                          row.Find("straggler") != nullptr &&
                                  row.At("straggler").AsBool()
                              ? "YES"
                              : "no",
                          std::to_string(row.U64Or("samples", 0))});
            }
            out << t.ToString();
        }
    } catch (const std::exception&) {
        out << "(no parseable /ranks view)\n";
    }

    try {
        const json::Value series = json::Parse(poll.series);
        const json::Array& points = series.At("points").AsArray();
        out << "overhead trajectory (" << series.U64Or("total", 0)
            << " point(s) total, last " << points.size() << "):\n";
        if (!points.empty()) {
            Table t({"iter", "iter (s)", "persisted", "saved", "PLT",
                     "live", "stragglers"});
            for (const json::Value& p : points) {
                t.AddRow({std::to_string(p.U64Or("iteration", 0)),
                          Table::Num(p.NumberOr("iter_seconds", 0.0), 4),
                          FormatBytes(p.U64Or("bytes_persisted", 0)),
                          FormatBytes(p.U64Or("bytes_saved", 0)),
                          PltCell(p.NumberOr("plt", -1.0)),
                          std::to_string(p.U64Or("live_ranks", 0)),
                          std::to_string(p.U64Or("stragglers", 0))});
            }
            out << t.ToString();
        }
    } catch (const std::exception&) {
        out << "(no parseable /series window)\n";
    }
}

/** A fetched body as its parsed document, or null when it does not parse:
    nothing the network sends can break the enclosing document. */
void
PutBody(json::Writer& w, const std::string& body) {
    try {
        w.Put(json::Parse(body));
    } catch (const std::invalid_argument&) {
        w.Null();
    }
}

/** One poll as a `moc-watch/1` JSON object. */
void
RenderJson(const std::string& url, const PollResult& poll,
           std::ostream& out) {
    json::Writer w;
    w.BeginObject().Field("schema", "moc-watch/1").Field("url", url)
        .Field("reachable", poll.reachable);
    if (poll.reachable) {
        w.Field("health_status", poll.health_status)
            .Field("healthy", poll.health_status == 200);
        PutBody(w.Key("healthz"), poll.healthz);
        PutBody(w.Key("ranks"), poll.ranks);
        PutBody(w.Key("series"), poll.series);
    }
    out << w.EndObject().EndLine().str();
}

}  // namespace

int
RunWatch(const Args& args, std::ostream& out) {
    const std::string url_text = args.Get("url", "");
    const auto url = obs::ParseHttpUrl(url_text);
    if (!url) {
        out << "usage: moc_cli watch --url http://HOST:PORT [--once 1]\n"
               "    [--watch-json 1] [--interval-s S] [--max-polls N]\n"
               "    [--series-last N]\n"
               "  polls /healthz + /ranks + /series on a live run\n"
               "  exit 0 healthy, 1 degraded, 2 unreachable\n";
        return 2;
    }
    const bool once = args.GetInt("once", 0) != 0;
    const bool as_json = args.GetInt("watch-json", 0) != 0;
    const double interval_s =
        std::max(0.05, std::atof(args.Get("interval-s", "2.0").c_str()));
    const auto max_polls =
        static_cast<std::size_t>(args.GetInt("max-polls", 0));
    const auto series_last =
        static_cast<std::size_t>(args.GetInt("series-last", 10));

    bool ever_reached = false;
    int verdict = 2;
    std::size_t polls = 0;
    while (true) {
        const PollResult poll = Poll(*url, series_last);
        ++polls;
        if (poll.reachable) {
            ever_reached = true;
            verdict = poll.health_status == 200 ? 0 : 1;
            if (as_json) {
                RenderJson(url_text, poll, out);
            } else {
                RenderHuman(poll, out);
            }
        } else {
            if (!ever_reached) {
                if (as_json) {
                    RenderJson(url_text, poll, out);
                } else {
                    out << "unreachable: " << url_text << "\n";
                }
                return 2;
            }
            // The run ended out from under us; report the last verdict.
            if (!as_json) {
                out << "endpoint gone (" << url_text
                    << "); last verdict was "
                    << (verdict == 0 ? "healthy" : "degraded") << "\n";
            }
            return verdict;
        }
        if (once || (max_polls > 0 && polls >= max_polls)) {
            return verdict;
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
    }
}

}  // namespace moc::cli
