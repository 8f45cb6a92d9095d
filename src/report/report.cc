#include "report/report.hh"

#include <map>
#include <set>
#include <sstream>

#include "common/table.hh"
#include "obs/registry.hh"
#include "report/json.hh"

namespace rmp::report
{

using namespace uhb;
using slc::Operand;
using slc::TxType;

std::string
renderFig8Matrix(const ct::AnalysisDb &db)
{
    const auto &info = db.hx->duv();
    auto iname = [&](InstrId i) { return info.instrs[i].name; };

    // Columns: one per leakage signature (transponder_src), grouped by
    // transponder; rows: (transmitter, type) pairs with rs1/rs2 sub-rows.
    struct Row
    {
        InstrId t;
        TxType type;
        Operand op;
        bool
        operator<(const Row &o) const
        {
            return std::tie(t, type, op) < std::tie(o.t, o.type, o.op);
        }
    };
    std::set<Row> rows;
    for (const auto &sig : db.signatures)
        for (const auto &ti : sig.inputs)
            rows.insert({ti.instr, ti.type, ti.op});

    AsciiTable t;
    std::vector<std::string> header{"transmitter (type, operand)"};
    for (const auto &sig : db.signatures) {
        header.push_back(iname(sig.transponder) + "_" +
                         db.hx->plName(sig.src) + " (|out|=" +
                         std::to_string(sig.outputRange()) + ")");
    }
    t.setHeader(header);
    for (const auto &row : rows) {
        std::vector<std::string> cells;
        std::string label = iname(row.t);
        switch (row.type) {
          case TxType::Intrinsic: label += " N"; break;
          case TxType::DynamicOlder: label += " D(older)"; break;
          case TxType::DynamicYounger: label += " D(younger)"; break;
          case TxType::Static: label += " S"; break;
        }
        label += std::string(" .") + slc::operandName(row.op);
        cells.push_back(label);
        for (const auto &sig : db.signatures) {
            bool hit = false;
            for (const auto &ti : sig.inputs)
                if (ti.instr == row.t && ti.type == row.type &&
                    ti.op == row.op)
                    hit = true;
            cells.push_back(hit ? "X" : "");
        }
        t.addRow(cells);
    }
    std::ostringstream os;
    os << "Leakage-signature matrix (Fig. 8 style): " << db.signatures.size()
       << " signatures, " << rows.size() << " typed transmitter inputs\n"
       << t.str();
    return os.str();
}

std::string
renderTableII(const designs::Harness &hx)
{
    const DuvInfo &info = hx.duv();
    size_t state_regs = 0;
    for (const auto &f : info.fsms)
        state_regs += f.vars.size();
    AsciiTable t;
    t.setHeader({"annotation (§V-A)", info.name, "paper's CVA6 core"});
    t.addRow({"IFR", "1 reg", "1 reg"});
    t.addRow({"μFSMs (PCR+vars tuples)", std::to_string(info.fsms.size()),
              "21"});
    t.addRow({"μFSM state variable regs", std::to_string(state_regs),
              "38"});
    t.addRow({"PCRs", std::to_string(info.fsms.size()), "21 (14 added)"});
    t.addRow({"commit signal", "1 wire", "1 wire"});
    t.addRow({"operand regs", "2 regs", "2 regs"});
    t.addRow({"ARF", std::to_string(info.arfRegs.size()) + " words",
              "1 array"});
    t.addRow({"AMEM", std::to_string(info.amemRegs.size()) + " words",
              "1 array"});
    t.addRow({"candidate PLs", std::to_string(hx.numPls()),
              "41 (reachable)"});
    DesignStats st = hx.design().stats();
    t.addRow({"design cells", std::to_string(st.cells), "19,575 std cells"});
    t.addRow({"flip-flop bits", std::to_string(st.flopBits), "11,985"});
    return t.str();
}

std::string
renderStepStats(const std::vector<r2m::StepStats> &steps,
                const slc::SynthLcStats *synthlc)
{
    AsciiTable t;
    t.setHeader({"step", "properties", "reachable", "unreachable",
                 "undetermined", "undet %", "avg s/prop"});
    auto pct = [](uint64_t part, uint64_t whole) {
        if (!whole)
            return std::string("0.0");
        char buf[16];
        snprintf(buf, sizeof(buf), "%.1f", 100.0 * part / whole);
        return std::string(buf);
    };
    auto avg = [](double s, uint64_t q) {
        char buf[16];
        snprintf(buf, sizeof(buf), "%.4f", q ? s / q : 0.0);
        return std::string(buf);
    };
    uint64_t tq = 0, tr = 0, tu = 0, tun = 0;
    double ts = 0;
    for (const auto &s : steps) {
        if (!s.queries)
            continue;
        t.addRow({s.step, std::to_string(s.queries),
                  std::to_string(s.reachable), std::to_string(s.unreachable),
                  std::to_string(s.undetermined),
                  pct(s.undetermined, s.queries), avg(s.seconds, s.queries)});
        tq += s.queries;
        tr += s.reachable;
        tu += s.unreachable;
        tun += s.undetermined;
        ts += s.seconds;
    }
    t.addSeparator();
    t.addRow({"RTL2MμPATH total", std::to_string(tq), std::to_string(tr),
              std::to_string(tu), std::to_string(tun), pct(tun, tq),
              avg(ts, tq)});
    if (synthlc) {
        t.addRow({"SynthLC sim-discharged", std::to_string(synthlc->simHits),
                  std::to_string(synthlc->simHits), "0", "0", "0.0", "-"});
        t.addRow({"SynthLC (decision_taint)",
                  std::to_string(synthlc->queries),
                  std::to_string(synthlc->reachable),
                  std::to_string(synthlc->unreachable),
                  std::to_string(synthlc->undetermined),
                  pct(synthlc->undetermined, synthlc->queries),
                  avg(synthlc->seconds, synthlc->queries)});
    }
    return t.str();
}

std::string
renderInstrPaths(const designs::Harness &hx, const InstrPaths &paths)
{
    const auto &info = hx.duv();
    std::ostringstream os;
    os << info.instrs[paths.instr].name << ": " << paths.paths.size()
       << " μPATH(s)\n";
    for (size_t i = 0; i < paths.paths.size(); i++) {
        const UPath &p = paths.paths[i];
        os << "-- μPATH " << i << " (latency " << p.latency()
           << " cycles, " << p.edges.size() << " HB edges)\n";
        os << renderUPath(p, hx.plNames());
        for (const auto &[pl, counts] : p.revisitCounts) {
            os << "   revisit counts at " << hx.plName(pl) << ": {";
            for (size_t k = 0; k < counts.size(); k++)
                os << (k ? "," : "") << counts[k];
            os << "}\n";
        }
    }
    return os.str();
}

std::string
renderDecisions(const designs::Harness &hx, const InstrPaths &paths)
{
    const auto &info = hx.duv();
    std::ostringstream os;
    os << "d^" << info.instrs[paths.instr].name << " = {";
    for (size_t i = 0; i < paths.decisions.size(); i++) {
        os << (i ? ", " : "")
           << renderDecision(paths.decisions[i], hx.plNames());
    }
    os << "}\n";
    auto srcs = paths.decisionSources();
    os << "decision sources: {";
    for (size_t i = 0; i < srcs.size(); i++)
        os << (i ? ", " : "") << hx.plName(srcs[i]);
    os << "}\n";
    return os.str();
}

std::string
renderSynthAll(const designs::Harness &hx,
               const std::vector<uhb::InstrId> &ids,
               const std::map<uhb::InstrId, uhb::InstrPaths> &all)
{
    std::ostringstream os;
    for (uhb::InstrId i : ids) {
        auto it = all.find(i);
        if (it == all.end())
            continue; // interrupted run: render only completed IUVs
        os << "=== " << hx.duv().instrs[i].name << " ===\n";
        os << renderInstrPaths(hx, it->second);
        os << renderDecisions(hx, it->second);
    }
    return os.str();
}

std::string
renderObsStats()
{
    std::vector<obs::Sample> samples = obs::Registry::global().snapshot();
    if (samples.empty())
        return "";
    AsciiTable t;
    t.setHeader({"metric", "labels", "kind", "value", "sum", "max", "mean"});
    auto fmt1 = [](double v) {
        char buf[32];
        snprintf(buf, sizeof(buf), "%.1f", v);
        return std::string(buf);
    };
    for (const obs::Sample &s : samples) {
        const char *kind = s.kind == obs::Sample::Kind::Counter ? "counter"
                           : s.kind == obs::Sample::Kind::Gauge
                               ? "gauge"
                               : "histogram";
        bool hist = s.kind == obs::Sample::Kind::Histogram;
        t.addRow({s.name, s.labels, kind, std::to_string(s.value),
                  hist ? std::to_string(s.sum) : "",
                  hist ? std::to_string(s.max) : "",
                  hist ? fmt1(s.mean) : ""});
    }
    std::ostringstream os;
    os << "Run metrics (" << samples.size() << " series)\n" << t.str();
    return os.str();
}

std::string
runSummaryJson(const std::string &bench, const std::string &design,
               double wall_seconds, const exec::PoolStats *pool)
{
    JsonReport out;
    out.put("bench", bench);
    out.put("design", design);
    out.put("wall_seconds", wall_seconds);
    if (pool)
        out.putRaw("pool", poolStatsJson(*pool));
    JsonReport metrics;
    for (const obs::Sample &s : obs::Registry::global().snapshot()) {
        std::string key = s.name;
        if (!s.labels.empty())
            key += "{" + s.labels + "}";
        if (s.kind == obs::Sample::Kind::Histogram) {
            metrics.put(key + ".count", static_cast<uint64_t>(s.value));
            metrics.put(key + ".sum", s.sum);
            metrics.put(key + ".max", s.max);
        } else {
            metrics.put(key, static_cast<uint64_t>(s.value));
        }
    }
    out.putRaw("metrics", metrics.str());
    return out.str();
}

} // namespace rmp::report
