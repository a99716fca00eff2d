#include "api/report.hpp"

#include "core/serialize.hpp"

namespace isex {

namespace {

Json cut_to_json(const CutReport& c) {
  Json j = Json::object();
  j.set("block_index", c.block_index);
  j.set("block", c.block);
  j.set("merit", c.merit);
  write_cut_metrics(c.metrics, j);
  j.set("nodes", c.nodes);
  return j;
}

CutReport cut_from_json(const Json& j) {
  CutReport c;
  c.block_index = static_cast<int>(j.at("block_index").as_int());
  c.block = j.at("block").as_string();
  c.merit = j.at("merit").as_double();
  c.metrics = cut_metrics_from_json(j);
  c.nodes = j.at("nodes").as_string();
  return c;
}

Json afu_to_json(const AfuReport& a) {
  Json j = Json::object();
  j.set("name", a.name);
  j.set("inputs", a.num_inputs);
  j.set("outputs", a.num_outputs);
  j.set("latency_cycles", a.latency_cycles);
  j.set("area_macs", a.area_macs);
  return j;
}

AfuReport afu_from_json(const Json& j) {
  AfuReport a;
  a.name = j.at("name").as_string();
  a.num_inputs = static_cast<int>(j.at("inputs").as_int());
  a.num_outputs = static_cast<int>(j.at("outputs").as_int());
  a.latency_cycles = static_cast<int>(j.at("latency_cycles").as_int());
  a.area_macs = j.at("area_macs").as_double();
  return a;
}

Json to_json(const EmissionReport& e) {
  Json j = Json::object();
  Json targets = Json::array();
  for (const std::string& t : e.targets) targets.push_back(t);
  j.set("targets", std::move(targets));
  j.set("out_dir", e.out_dir);
  j.set("verify_rewrites", e.verify_rewrites);
  Json artifacts = Json::array();
  for (const ArtifactReport& a : e.artifacts) {
    Json entry = Json::object();
    entry.set("emitter", a.emitter);
    entry.set("path", a.path);
    entry.set("bytes", a.bytes);
    entry.set("hash", a.hash);
    artifacts.push_back(std::move(entry));
  }
  j.set("artifacts", std::move(artifacts));
  Json instantiations = Json::array();
  for (const AfuInstantiationReport& i : e.afu_instantiations) {
    Json entry = Json::object();
    entry.set("workload", i.workload);
    entry.set("count", i.count);
    instantiations.push_back(std::move(entry));
  }
  j.set("afu_instantiations", std::move(instantiations));
  return j;
}

EmissionReport emission_from_json(const Json& j) {
  EmissionReport e;
  for (const Json& t : j.at("targets").as_array()) e.targets.push_back(t.as_string());
  e.out_dir = j.at("out_dir").as_string();
  e.verify_rewrites = j.at("verify_rewrites").as_bool();
  for (const Json& a : j.at("artifacts").as_array()) {
    ArtifactReport artifact;
    artifact.emitter = a.at("emitter").as_string();
    artifact.path = a.at("path").as_string();
    artifact.bytes = a.at("bytes").as_uint();
    artifact.hash = a.at("hash").as_string();
    e.artifacts.push_back(std::move(artifact));
  }
  for (const Json& i : j.at("afu_instantiations").as_array()) {
    AfuInstantiationReport entry;
    entry.workload = i.at("workload").as_string();
    entry.count = static_cast<int>(i.at("count").as_int());
    e.afu_instantiations.push_back(std::move(entry));
  }
  return e;
}

}  // namespace

Json to_json(const ValidationReport& v) {
  Json j = Json::object();
  j.set("rewritten", v.rewritten);
  j.set("bit_exact", v.bit_exact);
  j.set("counts_match", v.counts_match);
  j.set("custom_invocations", v.custom_invocations);
  j.set("cycles_before", v.cycles_before);
  j.set("cycles_after", v.cycles_after);
  j.set("measured_speedup", v.measured_speedup);
  return j;
}

ValidationReport validation_from_json(const Json& j) {
  ValidationReport v;
  v.rewritten = j.at("rewritten").as_bool();
  v.bit_exact = j.at("bit_exact").as_bool();
  // Absent in reports serialized before the emission backend introduced the
  // invocation-count check; default so archived report files stay loadable.
  if (const Json* counts = j.find("counts_match")) v.counts_match = counts->as_bool();
  if (const Json* invocations = j.find("custom_invocations")) {
    v.custom_invocations = invocations->as_uint();
  }
  v.cycles_before = j.at("cycles_before").as_uint();
  v.cycles_after = j.at("cycles_after").as_uint();
  v.measured_speedup = j.at("measured_speedup").as_double();
  return v;
}

void write_cut_metrics(const CutMetrics& metrics, Json& j) {
  j.set("num_ops", metrics.num_ops);
  j.set("inputs", metrics.inputs);
  j.set("outputs", metrics.outputs);
  j.set("sw_cycles", metrics.sw_cycles);
  j.set("hw_cycles", metrics.hw_cycles);
  j.set("hw_critical", metrics.hw_critical);
  j.set("area_macs", metrics.area_macs);
}

CutMetrics cut_metrics_from_json(const Json& j) {
  CutMetrics m;
  m.num_ops = static_cast<int>(j.at("num_ops").as_int());
  m.inputs = static_cast<int>(j.at("inputs").as_int());
  m.outputs = static_cast<int>(j.at("outputs").as_int());
  m.sw_cycles = static_cast<int>(j.at("sw_cycles").as_int());
  m.hw_cycles = static_cast<int>(j.at("hw_cycles").as_int());
  m.hw_critical = j.at("hw_critical").as_double();
  m.area_macs = j.at("area_macs").as_double();
  return m;
}

void write_run_sections(const RunSections& sections, Json& j) {
  j.set("emission", to_json(sections.emission));

  const ReportTimings& timings = sections.timings;
  Json t = Json::object();
  if (timings.load_ms) t.set("load_ms", *timings.load_ms);
  t.set("extract_ms", timings.extract_ms);
  t.set("identify_ms", timings.identify_ms);
  t.set("emit_ms", timings.emit_ms);
  t.set("total_ms", timings.total_ms);
  j.set("timings", std::move(t));

  const CacheReport& cache = sections.cache;
  Json c = Json::object();
  c.set("enabled", cache.enabled);
  c.set("hits", cache.counters.hits);
  c.set("misses", cache.counters.misses);
  c.set("dfg_hits", cache.counters.dfg_hits);
  c.set("dfg_misses", cache.counters.dfg_misses);
  c.set("evictions", cache.counters.evictions);
  c.set("cross_workload_hits", cache.counters.cross_workload_hits);
  j.set("cache", std::move(c));

  // Present only when subtree parallelism was requested: default-request
  // reports keep their historical byte layout, and warm runs (no searches)
  // stay comparable to cold ones.
  if (const EngineReport& engine = sections.engine; engine.subtree_split_depth != 0) {
    Json e = Json::object();
    e.set("subtree_split_depth", engine.subtree_split_depth);
    e.set("subtree_tasks", engine.subtree_tasks);
    e.set("split_searches", engine.split_searches);
    e.set("serial_searches", engine.serial_searches);
    j.set("engine", std::move(e));
  }
  // Present only on cut-short runs, for the same layout-stability reason.
  if (sections.partial) {
    j.set("partial", true);
    j.set("partial_reason", sections.partial_reason);
  }
}

void read_run_sections(const Json& j, RunSections& sections) {
  // Absent in reports serialized before the emission backend existed.
  if (const Json* e = j.find("emission")) sections.emission = emission_from_json(*e);
  const Json& t = j.at("timings");
  ReportTimings& timings = sections.timings;
  if (const Json* l = t.find("load_ms")) timings.load_ms = l->as_double();
  timings.extract_ms = t.at("extract_ms").as_double();
  timings.identify_ms = t.at("identify_ms").as_double();
  if (const Json* e = t.find("emit_ms")) timings.emit_ms = e->as_double();
  timings.total_ms = t.at("total_ms").as_double();
  const Json& c = j.at("cache");
  CacheReport& cache = sections.cache;
  cache.enabled = c.at("enabled").as_bool();
  cache.counters.hits = c.at("hits").as_uint();
  cache.counters.misses = c.at("misses").as_uint();
  cache.counters.dfg_hits = c.at("dfg_hits").as_uint();
  cache.counters.dfg_misses = c.at("dfg_misses").as_uint();
  cache.counters.evictions = c.at("evictions").as_uint();
  // Absent in reports serialized before the portfolio API introduced it.
  if (const Json* cross = c.find("cross_workload_hits")) {
    cache.counters.cross_workload_hits = cross->as_uint();
  }
  // Absent in reports from serial-engine requests and in archived files.
  if (const Json* e = j.find("engine")) {
    EngineReport& engine = sections.engine;
    engine.subtree_split_depth = static_cast<int>(e->at("subtree_split_depth").as_int());
    engine.subtree_tasks = e->at("subtree_tasks").as_uint();
    engine.split_searches = e->at("split_searches").as_uint();
    engine.serial_searches = e->at("serial_searches").as_uint();
  }
  // Absent in complete reports and in archived files.
  if (const Json* p = j.find("partial")) {
    sections.partial = p->as_bool();
    sections.partial_reason = j.at("partial_reason").as_string();
  }
}

Json ExplorationReport::to_json() const {
  Json j = Json::object();
  j.set("workload", workload);
  j.set("scheme", scheme);
  j.set("constraints", isex::to_json(constraints));
  j.set("num_instructions", num_instructions);
  j.set("num_threads", num_threads);
  j.set("num_blocks", num_blocks);
  j.set("base_cycles", base_cycles);
  j.set("total_merit", total_merit);
  j.set("estimated_speedup", estimated_speedup);
  j.set("identification_calls", identification_calls);
  j.set("stats", isex::to_json(stats));

  Json cut_array = Json::array();
  for (const CutReport& c : cuts) cut_array.push_back(cut_to_json(c));
  j.set("cuts", std::move(cut_array));

  Json afu_array = Json::array();
  for (const AfuReport& a : afus) afu_array.push_back(afu_to_json(a));
  j.set("afus", std::move(afu_array));
  j.set("afu_area_macs", afu_area_macs);

  j.set("validation", isex::to_json(validation));
  write_run_sections(*this, j);
  return j;
}

ExplorationReport ExplorationReport::from_json(const Json& j) {
  ExplorationReport r;
  r.workload = j.at("workload").as_string();
  r.scheme = j.at("scheme").as_string();
  r.constraints = constraints_from_json(j.at("constraints"));
  r.num_instructions = static_cast<int>(j.at("num_instructions").as_int());
  r.num_threads = static_cast<int>(j.at("num_threads").as_int());
  r.num_blocks = static_cast<int>(j.at("num_blocks").as_int());
  r.base_cycles = j.at("base_cycles").as_double();
  r.total_merit = j.at("total_merit").as_double();
  r.estimated_speedup = j.at("estimated_speedup").as_double();
  r.identification_calls = j.at("identification_calls").as_uint();
  r.stats = stats_from_json(j.at("stats"));
  for (const Json& c : j.at("cuts").as_array()) r.cuts.push_back(cut_from_json(c));
  for (const Json& a : j.at("afus").as_array()) r.afus.push_back(afu_from_json(a));
  r.afu_area_macs = j.at("afu_area_macs").as_double();
  r.validation = validation_from_json(j.at("validation"));
  read_run_sections(j, r);
  return r;
}

}  // namespace isex
