//! Per-layer metrics of a traced run.
//!
//! Every traced run prints every name in [`per_layer`], so runs of
//! different workloads line up column for column; a layer a workload does
//! not exercise reads 0 (README.md lists which workload moves which
//! metric). The span-derived values are totals from the traced
//! operation's own span tree (`Timings::snapshot`/`summary`) and counters
//! from its `MetricsSnapshot`; the benchmark adds no span or counter.

use footsteps_core::Study;
use footsteps_obs::TimingsSnapshot;
use footsteps_sim::prelude::ServiceId;
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in output order: the `per_layer`
/// list of `BENCHMARK.json`, so the benchmark's declared metrics and the
/// ones a traced run prints cannot drift apart.
fn per_layer() -> Vec<(String, String)> {
    let bench = serde_json::parse(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json is valid JSON");
    let Some(serde_json::Value::Seq(entries)) = bench.get_field("per_layer") else {
        panic!("BENCHMARK.json has a per_layer list");
    };
    entries
        .iter()
        .map(|entry| {
            let field = |key: &str| match entry.get_field(key) {
                Some(serde_json::Value::Str(s)) => s.clone(),
                _ => panic!("every per_layer entry of BENCHMARK.json has a string {key}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Per-layer values of one traced run, keyed by [`per_layer`] name.
#[derive(Debug)]
pub(crate) struct Layers {
    order: Vec<(String, String)>,
    values: BTreeMap<String, f64>,
}

impl Layers {
    pub(crate) fn new() -> Self {
        let order = per_layer();
        let values = order.iter().map(|(name, _)| (name.clone(), 0.0)).collect();
        Self { order, values }
    }

    /// Set one metric.
    ///
    /// # Panics
    /// On a name missing from [`per_layer`] (a typo here is a bug).
    pub(crate) fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    /// The values in [`per_layer`] order, with units.
    pub(crate) fn into_metrics(self) -> Vec<(String, f64, String)> {
        self.order
            .into_iter()
            .map(|(name, unit)| {
                let value = self.values[&name];
                (name, value, unit)
            })
            .collect()
    }

    /// Fill the span-, counter- and stream-derived metrics of a study that
    /// ran in this process.
    pub(crate) fn record_study(&mut self, study: &Study) {
        let spans = study.platform.obs.timings.snapshot();
        let total = |name: &str| span_total(&spans, name);

        // `engine.step_day`'s direct children are the background span and
        // each service's decision/route/apply spans; what is left is the
        // day boundary (sink drain, removals, responses) and bookkeeping
        // outside the named spans.
        let mut children = total("engine.background");
        for service in ServiceId::ALL {
            let slug = service.slug();
            for (stage, metric) in [
                ("decision", "decision_s"),
                ("route", "route_s"),
                ("apply", "apply_s"),
            ] {
                let secs = total(&format!("aas.{slug}.{stage}"));
                children += secs;
                self.set(&format!("aas.{slug}.{metric}"), secs);
            }
        }
        self.set("sim.step_day_self_s", total("engine.step_day") - children);
        self.set("sim.background_s", total("engine.background"));
        self.set("detect.pipeline_build_s", total("detect.pipeline_build"));
        self.set("detect.extract_s", total("detect.extract.worker"));
        self.set("detect.thresholds_s", total("detect.thresholds.worker"));

        let summary = study.platform.obs.timings.summary();
        self.set("aas.worker_lanes", f64::from(summary.worker_lanes));
        self.set("aas.shard_lanes", f64::from(summary.shard_lanes));
        self.set("obs.self_s", summary.obs_self_secs);

        let metrics = study.platform.obs.metrics.snapshot();
        self.set(
            "sim.outbound_delivered",
            metrics.counter("platform.outbound.delivered") as f64,
        );
        self.set(
            "sim.inbound_delivered",
            metrics.counter("platform.inbound.delivered") as f64,
        );
        let batches = metrics
            .totals
            .histograms
            .get("platform.batch_size")
            .map_or(0, |h| h.count);
        self.set("sim.batches", batches as f64);
        for service in ServiceId::ALL {
            let slug = service.slug();
            let engaged = metrics.counter(&format!("aas.{slug}.engaged"));
            self.set(&format!("aas.{slug}.engaged"), engaged as f64);
        }
        // The intervention policies attribute every enforcement outcome to
        // the experiment bin it fell in (`enforce.bin<k>.<outcome>`).
        let enforced = |outcome: &str| -> u64 {
            metrics
                .counters_with_prefix("enforce.bin")
                .filter(|(k, _)| k.ends_with(outcome))
                .map(|(_, v)| v)
                .sum()
        };
        self.set("intervene.blocked", enforced(".blocked") as f64);
        self.set("intervene.deferred", enforced(".deferred") as f64);
        let customers: u64 = metrics
            .counters_with_prefix("detect.customers.")
            .map(|(_, v)| v)
            .sum();
        self.set("detect.customers", customers as f64);

        if let Some(outcome) = &study.stream {
            self.set("stream.detector_s", outcome.detector_secs);
            self.set("stream.events", outcome.events_processed as f64);
            self.set("stream.batches", outcome.batches as f64);
        }
    }
}

/// Total seconds of every span with this name (0 when it never ran).
fn span_total(spans: &TimingsSnapshot, name: &str) -> f64 {
    spans.get(name).map_or(0.0, |s| s.total_secs)
}
