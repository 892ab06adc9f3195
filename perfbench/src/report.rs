//! The metric tables and the result line.
//!
//! Every workload reports every metric of the table the run prints
//! (end-to-end untraced, per-layer traced). A layer a workload does not
//! run reports zero work and zero time; see README.md for what each
//! metric means on each workload.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 8] = [
    ("compile_s", "s"),
    ("depth_total", "count"),
    ("fusions_total", "count"),
    ("throughput_rps", "1/s"),
    ("request_gmean_ms", "ms"),
    ("miss_gmean_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`, printed by traced runs.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("frontend.parse_ms", "ms"),
    ("mbqc.translate_ms", "ms"),
    ("mbqc.flow_ms", "ms"),
    ("mbqc.graph_nodes", "count"),
    ("mbqc.graph_edges", "count"),
    ("partition.ms", "ms"),
    ("partition.partitions", "count"),
    ("partition.cross_edges", "count"),
    ("fusion_graph.ms", "ms"),
    ("fusion_graph.nodes", "count"),
    ("mapping.ms", "ms"),
    ("mapping.bfs_searches", "count"),
    ("mapping.bfs_expansions", "count"),
    ("mapping.seed_scans", "count"),
    ("mapping.routing_cells", "count"),
    ("mapping.occupancy_peak", "count"),
    ("mapping.bfs_yield", "ratio"),
    ("shuffle.ms", "ms"),
    ("shuffle.pairs", "count"),
    ("shuffle.layers", "count"),
    ("shuffle.fusions", "count"),
    ("service.cache_key_us", "us"),
    ("service.http_parse_us", "us"),
    ("service.compile_ms", "ms"),
    ("service.memory_hits", "count"),
    ("service.disk_hits", "count"),
    ("service.misses", "count"),
    ("service.memory_evictions", "count"),
    ("service.compile_executions", "count"),
    ("service.spill_appends", "count"),
    ("server.read_ms_p50", "ms"),
    ("server.read_ms_p99", "ms"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.queue_wait_ms_p99", "ms"),
    ("server.write_ms_p50", "ms"),
    ("server.write_ms_p99", "ms"),
    ("server.lookup_memory_ms_p50", "ms"),
    ("server.lookup_memory_ms_p99", "ms"),
    ("server.lookup_disk_ms_p50", "ms"),
    ("server.lookup_disk_ms_p99", "ms"),
    ("server.spill_lag_ms_p50", "ms"),
    ("server.spill_lag_ms_p90", "ms"),
    ("client.hit_p50_ms", "ms"),
    ("client.hit_p99_ms", "ms"),
    ("client.disk_p50_ms", "ms"),
    ("client.miss_p90_ms", "ms"),
    ("client.hit_ratio", "ratio"),
    ("client.reconnects", "count"),
    ("client.failed", "count"),
    ("machine.ref_ms", "ms"),
    ("raw.compile_s", "s"),
    ("raw.request_gmean_ms", "ms"),
    ("raw.miss_gmean_ms", "ms"),
    ("trace.unaccounted_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// A run's outcome: operations attempted and failed, and the metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (compiles, requests, checks) attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: exactly the metrics of `table`, each with its
    /// unit. Errors name a metric the workload did not produce.
    pub fn result_line(&self, table: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not a number ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(spec) = std::fs::read_to_string(path) else {
            return; // a bare copy of the benchmark directory has no spec
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + spec.matches("\"why\": ").count(),
            "BENCHMARK.json lists a metric the benchmark does not print"
        );
    }

    #[test]
    fn result_line_has_exactly_the_table() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.set("a", 1.5);
        r.set("b", 2.0);
        r.set("extra", 9.0);
        let line = r.result_line(&[("a", "ms"), ("b", "count")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        assert!(r.result_line(&[("missing", "s")]).is_err());
        r.check(false, || "bad".into());
        assert!(r
            .result_line(&[("a", "ms")])
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
