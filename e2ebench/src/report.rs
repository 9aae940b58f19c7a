//! Metric records, the human-readable report and the final JSON line.

/// End-to-end metrics of the JSON line (`--trace 0`), as named in
/// `BENCHMARK.json`: the ones every workload produces and that hold
/// steady across runs on a shared host. Tail latencies go to the report
/// only (see the README).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the JSON line (`--trace 1`), as named in
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.overhead_p50_us", "us"),
    ("server.frame_codec_us", "us"),
    ("server.resp_shed", "count"),
    ("shared.execute_p50_us", "us"),
    ("plancache.hit_ratio", "ratio"),
    ("plancache.lookups", "count"),
    ("sql.parse_us", "us"),
    ("algebra.bind_us", "us"),
    ("algebra.normalize_us", "us"),
    ("validity.hit_ratio", "ratio"),
    ("validity.lookups", "count"),
    ("validity.revalidation_ratio", "ratio"),
    ("validity.revalidations", "count"),
    ("validity.invalidated_per_change", "count"),
    ("policy.changes", "count"),
    ("compiled.fastpath_hit_ratio", "ratio"),
    ("compiled.fastpath_checks", "count"),
    ("compiled.compiles", "count"),
    ("compiled.compile_us", "us"),
    ("nontruman.check_us", "us"),
    ("nontruman.views_considered", "count"),
    ("nontruman.c3_probes_per_check", "count"),
    ("optimizer.dag_eq_nodes", "count"),
    ("optimizer.dag_op_nodes", "count"),
    ("analyze.revalidate_us", "us"),
    ("invalidation.change_us", "us"),
    ("exec.execute_us", "us"),
    ("exec.rows_cloned_per_result_row", "ratio"),
    ("exec.result_rows", "count"),
    ("storage.snapshot_table_us", "us"),
    ("storage.table_rows", "count"),
    ("updates.dml_us", "us"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_write", "bytes"),
    ("trace.coverage", "ratio"),
    ("trace.requests", "count"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples (or base count) behind the value.
    pub samples: usize,
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Everything one run prints.
#[derive(Debug)]
pub struct Report {
    pub header: Vec<String>,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    traced: bool,
}

impl Report {
    pub fn new(attempted: u64, failed: u64, traced: bool) -> Report {
        Report {
            header: Vec::new(),
            metrics: Vec::new(),
            attempted,
            failed,
            traced,
        }
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    fn names(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Every metric named for this mode is present, finite and in its
    /// declared unit; every other metric is finite too.
    pub fn check_complete(&self) -> Result<(), String> {
        for (name, unit) in self.names() {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric {name} missing"))?;
            if m.unit != *unit {
                return Err(format!("metric {name} in {} instead of {unit}", m.unit));
            }
        }
        if let Some(m) = self.metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        if self.failed > 0 {
            return Err(format!(
                "{} of {} requests failed",
                self.failed, self.attempted
            ));
        }
        if self.attempted == 0 {
            return Err("no request was attempted".into());
        }
        Ok(())
    }

    pub fn print_human(&self) {
        for h in &self.header {
            println!("# {h}");
        }
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!(", {}", m.note)
            };
            println!(
                "metric {:<36} {:>16.3} {:<6} (n={}{note})",
                m.name, m.value, m.unit, m.samples
            );
        }
    }

    /// The human report, then the JSON line with this mode's metrics.
    pub fn print(&self) {
        self.print_human();
        let metrics: Vec<String> = self
            .names()
            .iter()
            .filter_map(|(name, _)| self.get(name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check_complete().is_ok(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Full-precision JSON number; a non-finite value (never expected, and
/// reported as incorrect) prints as -1 to keep the line parseable.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above and `BENCHMARK.json` must name the same
    /// metrics in the same units, and its workloads must be ones this
    /// program runs.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let compact: String = doc.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = crate::workload::ALL
            .iter()
            .filter(|w| compact.contains(&format!("\"name\":\"{}\",\"why\"", w.name())))
            .count();
        assert!(
            workloads >= 2,
            "BENCHMARK.json names fewer than two workloads"
        );
        let listed = compact.matches("\"name\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
