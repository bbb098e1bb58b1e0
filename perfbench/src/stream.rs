//! `stream_scaled`: detection over a recorded activity stream.
//!
//! Set-up builds a `default_scaled` world at 1 worker thread and attaches
//! the streaming detector with a recorder. The operation runs the 90-day
//! characterization, which writes the event log, then replays that log
//! through a fresh detector with `footsteps_stream::replay`.

use crate::layers::Layers;
use crate::{Args, Checks, OpClock, OpSample, WorkDir, Workload};
use footsteps_core::{Scenario, Study};
use footsteps_obs::Stopwatch;
use std::collections::BTreeSet;
use std::path::PathBuf;

const THREADS: usize = 1;

pub(crate) struct StreamScaled {
    scenario: Scenario,
    log_path: PathBuf,
    study_new_secs: Vec<f64>,
    /// Characterization seconds of the untraced operations (recorder on).
    recorded_characterization_secs: Vec<f64>,
}

impl StreamScaled {
    pub(crate) fn new(args: &Args, dir: &WorkDir) -> Self {
        let mut scenario = Scenario::default_scaled(args.seed);
        scenario.worker_threads = THREADS;
        Self {
            scenario,
            log_path: dir.path().join("events.jsonl"),
            study_new_secs: Vec::new(),
            recorded_characterization_secs: Vec::new(),
        }
    }

    fn new_study(&mut self) -> Study {
        let watch = Stopwatch::start();
        let study = Study::new(self.scenario.clone());
        self.study_new_secs.push(watch.elapsed_secs());
        study
    }
}

/// Online verdicts equal the batch pipeline's: no account is classified by
/// one detector and not the other, for any service.
fn check_parity(study: &Study, checks: &mut Checks) {
    let Some(online) = study.stream.as_ref().map(|o| &o.verdicts.classification) else {
        checks.require(false, || {
            "characterization left no stream outcome".to_string()
        });
        return;
    };
    let batch = &study.pipeline().classification;
    let empty = BTreeSet::new();
    let services: BTreeSet<_> = online
        .customers
        .keys()
        .chain(batch.customers.keys())
        .collect();
    for service in services {
        let on = online.customers.get(service).unwrap_or(&empty);
        let off = batch.customers.get(service).unwrap_or(&empty);
        let online_only = on.difference(off).count();
        let batch_only = off.difference(on).count();
        checks.require(online_only == 0 && batch_only == 0, || {
            format!("{service}: {online_only} online-only and {batch_only} batch-only customers")
        });
    }
}

impl Workload for StreamScaled {
    type World = Study;

    fn setup(&mut self) -> Study {
        let mut study = self.new_study();
        study
            .attach_stream(Some(&self.log_path))
            .expect("the event log can be created in the work directory");
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
        let (replayed, replay_secs) = clock.time(|| footsteps_stream::replay(&self.log_path));
        let secs = clock.stop(layers.as_deref_mut());

        let log_bytes = crate::probe::file_bytes(&self.log_path);
        let inline = study.stream.as_ref().expect("the recorder was attached");
        let failed = match &replayed {
            Ok(replayed) => {
                checks.require(
                    replayed.verdict_digest == inline.verdict_digest
                        && replayed.batches == inline.batches
                        && replayed.events_processed == inline.events_processed,
                    || {
                        format!(
                            "replay digest {:#018x} / {} batches / {} events vs inline {:#018x} / {} / {}",
                            replayed.verdict_digest,
                            replayed.batches,
                            replayed.events_processed,
                            inline.verdict_digest,
                            inline.batches,
                            inline.events_processed
                        )
                    },
                );
                false
            }
            Err(e) => {
                eprintln!("perfbench: replay failed: {e}");
                true
            }
        };
        check_parity(&study, checks);
        crate::report::check_scores(&study, checks);

        match layers {
            None => self.recorded_characterization_secs.push(characterization),
            Some(l) => {
                l.record_study(&study);
                l.set("core.characterization_s", characterization);
                l.set("stream.replay_s", replay_secs);
                l.set("stream.log_bytes", log_bytes as f64);
                l.set(
                    "stream.bytes_per_event",
                    log_bytes as f64 / inline.events_processed.max(1) as f64,
                );
                // What recording costs: the same characterization without
                // the recorder, against the untraced recorded median.
                drop(study);
                let mut bare = self.new_study();
                bare.attach_stream(None)
                    .expect("a stream without a recorder attaches");
                let watch = Stopwatch::start();
                bare.run_characterization();
                let unrecorded = watch.elapsed_secs();
                l.set(
                    "stream.recorder_s",
                    crate::median(&self.recorded_characterization_secs) - unrecorded,
                );
                l.set("core.study_new_s", crate::median(&self.study_new_secs));
            }
        }
        let _ = std::fs::remove_file(&self.log_path);
        // Each characterization day is processed twice: recorded, then replayed.
        let days = 2.0 * f64::from(self.scenario.characterization_days);
        OpSample {
            secs,
            days,
            written_bytes: log_bytes,
            failed,
        }
    }
}
