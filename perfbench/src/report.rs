//! `report_scaled`: the 206-day study that regenerates the paper's tables.
//!
//! Set-up builds a `default_scaled` world (25k organic accounts, 1/50
//! scale) at 1 worker thread and attaches the streaming detector without
//! a recorder. The operation runs the four phases, collects and serializes
//! `StudyResults`, renders the 21 sections `report_all` prints, and writes
//! the results and the report.

use crate::layers::Layers;
use crate::{Args, Checks, OpClock, OpSample, WorkDir, Workload};
use footsteps_bench::render;
use footsteps_core::results::StudyResults;
use footsteps_core::{Scenario, Study};
use footsteps_detect::score_group;
use footsteps_honeypot::baseline_inbound;
use footsteps_obs::Stopwatch;
use footsteps_sim::prelude::{Day, ServiceGroup};
use std::path::PathBuf;

/// One thread: on a shared 2-CPU host the 2-thread fork-joins stall
/// whenever the hypervisor takes either CPU, which moved this workload's
/// `days_per_s` by half between two sets of runs while the 1-thread
/// `stream_scaled` moved by 2%.
const THREADS: usize = 1;

pub(crate) struct ReportScaled {
    scenario: Scenario,
    results_path: PathBuf,
    report_path: PathBuf,
    study_new_secs: Vec<f64>,
}

impl ReportScaled {
    pub(crate) fn new(args: &Args, dir: &WorkDir) -> Self {
        let mut scenario = Scenario::default_scaled(args.seed);
        scenario.worker_threads = THREADS;
        Self {
            scenario,
            results_path: dir.path().join("results.json"),
            report_path: dir.path().join("report.txt"),
            study_new_secs: Vec::new(),
        }
    }
}

/// The 21 sections `report_all` prints, rendered the way it renders them:
/// through `plan_parallel` over the study's worker threads, joined in
/// index order.
fn render_sections(study: &Study) -> Vec<String> {
    let indices: Vec<usize> = (0..21).collect();
    footsteps_aas::plan_parallel(
        &indices,
        study.platform.config.worker_threads,
        |&i| match i {
            0 => render::franchise_note(),
            1 => render::table01(),
            2 => render::table02(Some(study)),
            3 => render::table03(),
            4 => render::table04(),
            5 => render::table05(study),
            6 => render::detection_quality(study),
            7 => render::table06(study),
            8 => render::table07(study),
            9 => render::table08(study),
            10 => render::table09(study),
            11 => render::table10(study),
            12 => render::table11(study),
            13 => render::figure02(study),
            14 => render::figures0304(study),
            15 => render::figure05(study),
            16 => render::figure06(study),
            17 => render::figure07(study),
            18 => render::section51(study),
            19 => render::epilogue(study),
            20 => render::detection_latency(study),
            _ => unreachable!("section index out of range"),
        },
    )
}

/// The detector scored against the simulator's ground truth, at the
/// calibration boundary (ground truth keeps growing afterwards).
pub(crate) fn check_scores(study: &Study, checks: &mut Checks) {
    let classification = &study.pipeline().classification;
    for group in ServiceGroup::BUSINESS {
        let score = score_group(&study.platform, classification, group);
        checks.require(score.precision() >= 0.98 && score.recall() >= 0.9, || {
            format!(
                "{group}: precision {:.4} recall {:.4} at the calibration boundary (want >= 0.98 / >= 0.9)",
                score.precision(),
                score.recall()
            )
        });
    }
}

impl Workload for ReportScaled {
    type World = Study;

    fn setup(&mut self) -> Study {
        let watch = Stopwatch::start();
        let mut study = Study::new(self.scenario.clone());
        self.study_new_secs.push(watch.elapsed_secs());
        study
            .attach_stream(None)
            .expect("a stream without a recorder attaches");
        study
    }

    fn op(
        &mut self,
        mut study: Study,
        mut layers: Option<&mut Layers>,
        checks: &mut Checks,
    ) -> OpSample {
        if layers.is_some() {
            study.platform.obs.timings.enable_events();
        }
        let mut clock = OpClock::start();
        let ((), characterization) = clock.time(|| study.run_characterization());
        clock.exclude(|| check_scores(&study, checks));
        let ((), narrow) = clock.time(|| study.run_narrow());
        let ((), broad) = clock.time(|| study.run_broad());
        let ((), epilogue) = clock.time(|| study.run_epilogue());
        let ((results, json), collect) = clock.time(|| {
            let results = StudyResults::collect(&study);
            let json = results.to_json();
            (results, json)
        });
        let (sections, render_secs) = clock.time(|| render_sections(&study));
        // Untimed on purpose: the writes are part of `bench.unattributed_s`.
        let written = std::fs::write(&self.results_path, json.as_bytes())
            .and_then(|()| std::fs::write(&self.report_path, sections.join("\n")));
        let secs = clock.stop(layers.as_deref_mut());

        let failed = match &written {
            Ok(()) => false,
            Err(e) => {
                eprintln!("perfbench: writing the results or the report failed: {e}");
                true
            }
        };
        // §4.1: nobody touches the inactive baseline honeypots.
        let baseline = baseline_inbound(
            &study.framework,
            &study.platform,
            Day(0),
            study.timeline.narrow_start,
        );
        checks.require(baseline == 0, || {
            format!("baseline honeypots received {baseline} inbound actions")
        });
        // §5: Hublaagram's customer base dwarfs Insta*'s (paper: ~8.3x).
        let customers = |g: ServiceGroup| {
            results
                .table6
                .iter()
                .find(|r| r.group == g)
                .map_or(0, |r| r.customers)
        };
        let (hubla, insta) = (
            customers(ServiceGroup::Hublaagram),
            customers(ServiceGroup::InstaStar),
        );
        checks.require(hubla > 5 * insta, || {
            format!("Hublaagram {hubla} customers vs Insta* {insta}: want > 5x")
        });
        for (i, section) in sections.iter().enumerate() {
            checks.require(!section.trim().is_empty(), || {
                format!("report section {i} rendered empty")
            });
        }

        let results_bytes = crate::probe::file_bytes(&self.results_path);
        let report_bytes = crate::probe::file_bytes(&self.report_path);
        if let Some(l) = layers {
            l.record_study(&study);
            l.set("core.study_new_s", crate::median(&self.study_new_secs));
            l.set("core.characterization_s", characterization);
            l.set("core.narrow_s", narrow);
            l.set("core.broad_s", broad);
            l.set("core.epilogue_s", epilogue);
            l.set("core.results_collect_s", collect);
            l.set("analysis.render_s", render_secs);
            l.set("analysis.report_bytes", report_bytes as f64);
            l.set("core.results_bytes", results_bytes as f64);
        }
        let _ = std::fs::remove_file(&self.results_path);
        let _ = std::fs::remove_file(&self.report_path);
        let days = study.timeline.end.days_since(study.timeline.char_start);
        OpSample {
            secs,
            days: f64::from(days),
            written_bytes: results_bytes + report_bytes,
            failed,
        }
    }
}
