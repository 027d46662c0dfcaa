//! The run's result: metrics, verdict checks and the final JSON line.

use chess_bench::Json;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Verdicts checked against a known answer.
    pub attempted: u64,
    /// Descriptions of the verdicts that did not match (and of any other
    /// check that failed).
    pub failures: Vec<String>,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed check.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Records a context line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// Checks the emitted metric names and units against the benchmark
    /// definition's list for this mode (`end_to_end` or `per_layer`).
    pub fn check_against_definition(&mut self, definition: &str, list: &str) {
        let declared = match Json::parse(definition) {
            Ok(doc) => match doc.get(list).and_then(Json::as_array) {
                Some(items) => items
                    .iter()
                    .map(|m| {
                        let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                        (field("name"), field("unit"))
                    })
                    .collect::<Vec<_>>(),
                None => return self.fail(format!("BENCHMARK.json has no {list:?} list")),
            },
            Err(e) => return self.fail(format!("BENCHMARK.json: {e}")),
        };
        let mut emitted: Vec<(String, String)> = self
            .metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.to_string()))
            .collect();
        let mut declared_sorted = declared;
        emitted.sort();
        declared_sorted.sort();
        if emitted != declared_sorted {
            self.fail(format!(
                "emitted metrics differ from BENCHMARK.json {list:?}: emitted {emitted:?}, declared {declared_sorted:?}"
            ));
        }
        if let Some((name, value, _)) = self.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            let why = format!("metric {name} is not a finite number ({value})");
            self.fail(why);
        }
    }

    /// The result line: one JSON object. A run that failed before
    /// checking anything still reports one attempt (the format requires
    /// at least one), with `correct` false.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// The daemon and process-pool layers, which a search workload never
/// reaches: reported as zero so every traced run prints the same set.
pub fn absent_daemon_layers(out: &mut Outcome) {
    for name in [
        "daemon.submit_rtt_s",
        "daemon.status_rtt_s",
        "procpool.job_interval_s",
        "procpool.overhead_s",
    ] {
        out.metric(name, 0.0, "s");
    }
}
