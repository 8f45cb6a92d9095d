/**
 * @file
 * Minimal JSON emission for machine-readable result files.
 *
 * One insertion-ordered object builder (JsonReport) serves every JSON
 * surface in the repo: the benches' BENCH_*.json result files, the CLI's
 * `--stats --json` run summaries, and nested sub-objects like the engine
 * pool statistics. Keeping a single builder keeps the schemas congruent —
 * a run summary nests the exact same "pool" object a bench file does, so
 * downstream tooling parses both with one code path.
 */

#ifndef REPORT_JSON_HH
#define REPORT_JSON_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.hh"
#include "exec/engine_pool.hh"

namespace rmp::report
{

/** Escape a string for embedding in a JSON document. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Minimal insertion-ordered JSON object builder. Nest objects with
 * putRaw(child JsonReport::str()).
 */
class JsonReport
{
  public:
    void
    put(const std::string &key, uint64_t v)
    {
        kv.emplace_back(key, std::to_string(v));
    }
    void
    put(const std::string &key, double v)
    {
        if (!std::isfinite(v)) // JSON has no NaN/Inf
            v = 0.0;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        kv.emplace_back(key, buf);
    }
    void
    put(const std::string &key, const std::string &v)
    {
        kv.emplace_back(key, "\"" + jsonEscape(v) + "\"");
    }
    /** Insert a pre-rendered JSON value (nested object/array). */
    void
    putRaw(const std::string &key, const std::string &json)
    {
        kv.emplace_back(key, json);
    }

    std::string
    str() const
    {
        std::string out = "{";
        for (size_t i = 0; i < kv.size(); i++) {
            if (i)
                out += ", ";
            out += "\"" + jsonEscape(kv[i].first) + "\": " + kv[i].second;
        }
        return out + "}";
    }

    bool
    writeFile(const std::string &path) const
    {
        std::ofstream f(path);
        if (!f)
            return false;
        f << str() << "\n";
        return static_cast<bool>(f);
    }

  private:
    std::vector<std::pair<std::string, std::string>> kv;
};

/**
 * Minimal insertion-ordered JSON array builder, the sequence analogue of
 * JsonReport. Nest into an object with putRaw(arr.str()).
 */
class JsonArray
{
  public:
    void add(uint64_t v) { items.push_back(std::to_string(v)); }
    void
    add(const std::string &v)
    {
        items.push_back("\"" + jsonEscape(v) + "\"");
    }
    /** Append a pre-rendered JSON value (nested object/array). */
    void addRaw(const std::string &json) { items.push_back(json); }

    size_t size() const { return items.size(); }

    std::string
    str() const
    {
        std::string out = "[";
        for (size_t i = 0; i < items.size(); i++) {
            if (i)
                out += ", ";
            out += items[i];
        }
        return out + "]";
    }

  private:
    std::vector<std::string> items;
};

/**
 * Render a lint/analyze diagnostics report as a JSON object. This is the
 * ONE schema shared by `rmp lint --json`, `rmp analyze --json`, and
 * analysis::LintReport::json (which delegates here): {design, cells,
 * errors, warnings, diagnostics: [{rule, severity, cell, message}]},
 * with cell = -1 for design-level findings.
 */
inline std::string
diagnosticsJson(const Design &d, const analysis::LintReport &rep)
{
    JsonArray diags;
    for (const analysis::Diagnostic &di : rep.diags) {
        JsonReport e;
        e.put("rule", std::string(analysis::ruleName(di.rule)));
        e.put("severity", std::string(analysis::severityName(di.severity)));
        e.putRaw("cell", di.sig == kNoSig
                             ? "-1"
                             : std::to_string(
                                   static_cast<long long>(di.sig)));
        e.put("message", di.message);
        diags.addRaw(e.str());
    }
    JsonReport j;
    j.put("design", d.name());
    j.put("cells", static_cast<uint64_t>(d.numCells()));
    j.put("errors", static_cast<uint64_t>(rep.errors()));
    j.put("warnings", static_cast<uint64_t>(rep.warnings()));
    j.putRaw("diagnostics", diags.str());
    return j.str();
}

/** Render an engine pool's aggregate statistics as a JSON object. */
inline std::string
poolStatsJson(const exec::PoolStats &s)
{
    JsonReport j;
    j.put("solver_queries", s.engine.queries);
    j.put("reachable", s.engine.reachable);
    j.put("unreachable", s.engine.unreachable);
    j.put("undetermined", s.engine.undetermined);
    // Always 0 (bmc::EngineStats::staticPruned); kept only for the
    // benchmark harness's reader (rmpbench/src/daemon.cc:261).
    j.put("static_pruned", s.engine.staticPruned);
    j.put("solver_seconds", s.engine.totalSeconds);
    j.put("cache_hits", s.cache.hits);
    j.put("cache_misses", s.cache.misses);
    j.put("cache_entries", s.cache.entries);
    j.put("cache_collisions", s.cache.collisions);
    j.put("audit_replayed", s.engine.auditReplayed);
    j.put("audit_proof_checked", s.engine.auditProofChecked);
    j.put("audit_mismatches", s.engine.auditMismatches);
    // 0 or 1: whether the pool's one engine is built. Named for the
    // removed engine lanes; the benchmark harness reads it
    // (rmpbench/src/daemon.cc:262, rmpbench/run.py:671).
    j.put("lanes_built", static_cast<uint64_t>(s.lanesBuilt));
    j.put("sat_conflicts", s.sat.conflicts);
    j.put("sat_decisions", s.sat.decisions);
    j.put("sat_propagations", s.sat.propagations);
    j.put("sat_learned_clauses", s.sat.learnedClauses);
    j.put("sat_removed_clauses", s.sat.removedClauses);
    j.put("sat_db_reductions", s.sat.dbReductions);
    j.put("sat_gc_passes", s.sat.gcPasses);
    j.put("sat_assumption_cores", s.sat.assumptionConflicts);
    j.put("sat_saved_trail_lits", s.sat.savedTrailLits);
    j.put("sat_glue_clauses", s.sat.glueClauses);
    j.put("sat_avg_lbd", s.sat.learnedClauses
                             ? static_cast<double>(s.sat.lbdSum) /
                                   static_cast<double>(s.sat.learnedClauses)
                             : 0.0);
    j.put("assumption_core_hits", s.engine.assumptionCoreHits);
    return j.str();
}

/**
 * Render verdict-store counters as a JSON object. The ONE schema shared
 * by the daemon's synth/stats responses and `rmp store stats --json`
 * surfaces — downstream tooling parses both with one code path.
 */
inline std::string
storeStatsJson(const store::StoreStats &s)
{
    JsonReport j;
    j.put("hits", s.hits);
    j.put("misses", s.misses);
    j.put("collisions", s.collisions);
    j.put("corrupt", s.corrupt);
    j.put("writes", s.writes);
    j.put("blob_writes", s.blobWrites);
    j.put("blob_dedups", s.blobDedups);
    return j.str();
}

} // namespace rmp::report

#endif // REPORT_JSON_HH
