//! The result line the benchmark prints, and the fuller record it keeps
//! next to it: every metric with its unit and sample count, plus the
//! machine fingerprint that says what hardware and toolchain produced it.

use std::fmt::Write as _;
use std::path::Path;

/// The metrics of every untraced run (`--trace 0`), with their units,
/// in the order `BENCHMARK.json` lists them. Every workload measures all
/// of them; what each one times on each workload is in `README.md`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// The metrics of every traced run (`--trace 1`), as `BENCHMARK.json`
/// lists them. A workload reports the layers it reaches; the others read 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("rln.witness_ms.d20", "ms"),
    ("snark.quotient_ms.d20", "ms"),
    ("curve.msm_a_ms.d20", "ms"),
    ("curve.msm_b_g2_ms.d20", "ms"),
    ("curve.msm_b_g1_ms.d20", "ms"),
    ("curve.msm_lh_ms.d20", "ms"),
    ("snark.prove_ms.d20", "ms"),
    ("trace.prove_coverage.d20", "ratio"),
    ("pool.prove_speedup.d20", "ratio"),
    ("rln.witness_ms.d32", "ms"),
    ("snark.quotient_ms.d32", "ms"),
    ("curve.msm_a_ms.d32", "ms"),
    ("curve.msm_b_g2_ms.d32", "ms"),
    ("curve.msm_b_g1_ms.d32", "ms"),
    ("curve.msm_lh_ms.d32", "ms"),
    ("snark.prove_ms.d32", "ms"),
    ("trace.prove_coverage.d32", "ratio"),
    ("pool.prove_speedup.d32", "ratio"),
    ("rln.verify_batch_ms", "ms"),
    ("rln.verify_single_ms", "ms"),
    ("curve.miller_loop_ms", "ms"),
    ("curve.final_exp_ms", "ms"),
    ("rln.isolate_ms", "ms"),
    ("rln_relay.verify_useful_ratio", "ratio"),
    ("rln_relay.precheck_us", "us"),
    ("rln_relay.flush_ms", "ms"),
    ("rln_relay.batch_size_mean", "count"),
    ("rln_relay.queue_dwell_ms", "ms"),
    ("rln.rate_check_us", "us"),
    ("relay.segment_append_us", "us"),
    ("relay.segment_flush_ms", "ms"),
    ("node.checkpoint_ms", "ms"),
    ("node.step_ms", "ms"),
    ("node.ingest_us.p50", "us"),
    ("node.ingest_us.p99", "us"),
    ("node.decision_p99_ms", "ms"),
    ("trace.ingest_coverage", "ratio"),
    ("chain.mine_block_ms", "ms"),
    ("outcome.relay", "count"),
    ("outcome.invalid_proof", "count"),
    ("outcome.spam", "count"),
    ("outcome.duplicate", "count"),
    ("outcome.epoch_out_of_range", "count"),
    ("outcome.unknown_root", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("gossip.events", "count"),
    ("gossip.barriers", "count"),
    ("gossip.shards", "count"),
    ("sim.validations", "count"),
    ("gossip.bytes_sent", "bytes"),
    ("sim.ns_per_event", "ns"),
    ("pool.sim_speedup", "ratio"),
    ("pool.sim_speedup.1k", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("error_ratio", "ratio"),
];

/// Named metrics of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, Option<f64>, &'static str)>,
    /// Sample count behind each statistic, for the run record.
    counts: Vec<(String, usize)>,
    /// Cross-checks between the router and standalone layer calls that
    /// disagreed; each counts as a failed operation.
    pub mismatches: usize,
}

impl Metrics {
    /// Records a metric; `None` means the run could not measure it.
    pub fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        let value = value.filter(|v| v.is_finite());
        self.entries.push((name.to_string(), value, unit));
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put(name, Some(value), unit);
    }

    /// Records a statistic together with the sample count it rests on.
    pub fn stat(&mut self, name: &str, value: Option<f64>, samples: usize, unit: &'static str) {
        self.put(name, value, unit);
        self.counts.push((name.to_string(), samples));
    }

    /// `{"name": samples, …}` for every statistic recorded with [`Metrics::stat`].
    pub fn counts_json(&self) -> String {
        let body: Vec<String> = self
            .counts
            .iter()
            .map(|(name, n)| format!("\"{name}\": {n}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Names of metrics that were expected but not measured.
    pub fn missing(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(_, v, _)| v.is_none())
            .map(|(n, _, _)| n.as_str())
            .collect()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .and_then(|(_, v, _)| *v)
    }

    /// This run's metrics in the order and units of `spec`. A metric the
    /// workload never recorded belongs to a layer it does not reach: it
    /// reads 0 when `absent_is_zero`, and is missing otherwise. Recording
    /// a metric outside `spec`, or in another unit, is a bug.
    pub fn laid_out(&self, spec: &[(&str, &'static str)], absent_is_zero: bool) -> Metrics {
        for (name, _, unit) in &self.entries {
            let listed = spec.iter().find(|(n, _)| n == name);
            assert_eq!(
                listed.map(|(_, u)| u),
                Some(unit),
                "metric {name} is not listed in this unit"
            );
        }
        let entries = spec
            .iter()
            .map(|&(name, unit)| {
                let value = match self.entries.iter().find(|(n, _, _)| n == name) {
                    Some((_, v, _)) => *v,
                    None => absent_is_zero.then_some(0.0),
                };
                (name.to_string(), value, unit)
            })
            .collect();
        Metrics {
            entries,
            counts: self.counts.clone(),
            mismatches: self.mismatches,
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`; unmeasured metrics read 0.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (k, (name, value, unit)) in self.entries.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value.unwrap_or(0.0))
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.to_json()
    )
}

/// What produced a number: source, host and toolchain.
#[derive(Debug)]
pub struct Fingerprint {
    pub commit: String,
    pub source_digest: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub pool_threads: usize,
    pub rustc: String,
}

impl Fingerprint {
    /// Collects the fingerprint of the checkout at `root`.
    pub fn collect(root: &Path, pool_threads: usize) -> Self {
        let run = |cmd: &str, args: &[&str]| -> Option<String> {
            let out = std::process::Command::new(cmd)
                .args(args)
                .current_dir(root)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            commit: run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string()),
            source_digest: format!("{:016x}", source_digest(root)),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            pool_threads,
            rustc: run("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\": \"{}\", \"source_digest\": \"{}\", \"nproc\": {}, \"cpu_model\": \"{}\", \
             \"pool_threads\": {}, \"rustc\": \"{}\"}}",
            self.commit,
            self.source_digest,
            self.nproc,
            self.cpu_model.replace('"', "'"),
            self.pool_threads,
            self.rustc.replace('"', "'")
        )
    }
}

/// FNV-1a over the paths and bytes of every source and manifest file, so
/// a record names the code it measured even outside a git checkout.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(read) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in read.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && !name.to_string_lossy().starts_with('.') {
                    walk(&path, out);
                }
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["crates", "vendor", "perfbench", "src"] {
        walk(&root.join(top), &mut files);
    }
    for top in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(top));
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            feed(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            feed(&bytes);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(f64::NAN), "0.0");
        assert_eq!(number(1e-7), "0.0000001");
    }

    /// The `"name": …, "unit": …` pairs of one section of the manifest.
    fn manifest_section(section: &str) -> Vec<(String, String)> {
        let manifest = include_str!("../../BENCHMARK.json");
        let start = manifest.find(&format!("\"{section}\"")).expect("section");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section end")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|item| {
                let name = item[..item.find('"').unwrap()].to_string();
                let unit = item.split("\"unit\": \"").nth(1).expect("unit");
                (name, unit[..unit.find('"').unwrap()].to_string())
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let own = |spec: &[(&str, &str)]| -> Vec<(String, String)> {
            spec.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(manifest_section("end_to_end"), own(&END_TO_END));
        assert_eq!(manifest_section("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn laid_out_follows_the_spec_and_fills_unreached_layers() {
        let spec = [("a_ms", "ms"), ("b", "count"), ("c_ms", "ms")];
        let mut m = Metrics::default();
        m.metric("c_ms", 2.5, "ms");
        m.put("a_ms", None, "ms");
        let filled = m.laid_out(&spec, true);
        assert_eq!(
            filled.to_json(),
            "{\"a_ms\": {\"value\": 0.0, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 0.0, \"unit\": \"count\"}, \
             \"c_ms\": {\"value\": 2.5, \"unit\": \"ms\"}}"
        );
        assert_eq!(filled.missing(), vec!["a_ms"]);
        assert_eq!(m.laid_out(&spec, false).missing(), vec!["a_ms", "b"]);
    }

    #[test]
    #[should_panic(expected = "not listed")]
    fn laid_out_refuses_a_metric_in_another_unit() {
        let mut m = Metrics::default();
        m.metric("a_ms", 1.0, "s");
        m.laid_out(&[("a_ms", "ms")], false);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.metric("latency_ms", 1.5, "ms");
        m.put("missing", None, "ms");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"missing\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
        assert_eq!(m.missing(), vec!["missing"]);
    }
}
