//! `sweep_smoke`: a multi-seed sweep that resumes after a crash.
//!
//! The operation runs `run_sweep` on 2 seeds of `Scenario::smoke` (1
//! thread per job, 1 worker) into a fresh directory, fakes a kill of the
//! second job after its `BroadDone` boundary (manifest entry back to
//! `Running`, `finished` checkpoint removed), and calls `resume_sweep`.
//! The scheduler builds its jobs' worlds itself, so set-up builds only the
//! bare reference worlds the digest check characterizes.

use crate::layers::Layers;
use crate::probe::{dir_bytes, file_bytes};
use crate::{Args, Checks, OpClock, OpSample, WorkDir, Workload};
use footsteps_core::results::StudyResults;
use footsteps_core::{Phase, Scenario, Study};
use footsteps_obs::Stopwatch;
use footsteps_sweep::checkpoint::{self, fnv1a};
use footsteps_sweep::manifest::{JobStatus, Manifest};
use footsteps_sweep::scheduler::{
    manifest_path, results_path, resume_sweep, run_sweep, trace_path, SweepConfig,
};
use std::path::{Path, PathBuf};

const VARIANT: &str = "smoke";
/// One worker, for the reason `report.rs` runs the engine at one thread:
/// with two jobs on the host's two CPUs, `days_per_s` moved by a fifth
/// between two sets of runs.
const WORKERS: usize = 1;
const BOUNDARIES: [(Phase, &str); 5] = [
    (Phase::Setup, "setup"),
    (Phase::Characterized, "characterized"),
    (Phase::NarrowDone, "narrow-done"),
    (Phase::BroadDone, "broad-done"),
    (Phase::Finished, "finished"),
];

pub(crate) struct SweepSmoke {
    scenario: Scenario,
    seeds: [u64; 2],
    dir: PathBuf,
    study_new_secs: Vec<f64>,
}

impl SweepSmoke {
    pub(crate) fn new(args: &Args, dir: &WorkDir) -> Self {
        let mut scenario = Scenario::smoke(args.seed);
        scenario.worker_threads = 1;
        Self {
            scenario,
            seeds: [args.seed, args.seed.wrapping_add(1)],
            dir: dir.path().join("sweep"),
            study_new_secs: Vec::new(),
        }
    }

    fn scenario_for(&self, seed: u64) -> Scenario {
        Scenario {
            seed,
            ..self.scenario.clone()
        }
    }

    /// The state a kill of `seed`'s job just after its `BroadDone`
    /// checkpoint leaves: the manifest says `Running` at `BroadDone` and
    /// the `finished` checkpoint does not exist. Returns the FNV-1a of the
    /// removed checkpoint.
    fn fake_kill(&self, seed: u64) -> std::io::Result<u64> {
        let finished = checkpoint::path_for(&self.dir, VARIANT, seed, Phase::Finished);
        let digest = fnv1a(&std::fs::read(&finished)?);
        let mpath = manifest_path(&self.dir);
        let mut manifest = Manifest::load(&mpath).map_err(std::io::Error::other)?;
        let job = manifest.job_mut(VARIANT, seed);
        job.status = JobStatus::Running;
        job.phase = Phase::BroadDone;
        manifest.save(&mpath).map_err(std::io::Error::other)?;
        std::fs::remove_file(&finished)?;
        Ok(digest)
    }

    /// Load and re-save each checkpoint the first job left; returns the
    /// summed load and save seconds and the accounts of the final world.
    fn checkpoint_probe(&self, checks: &mut Checks) -> (f64, f64, usize) {
        let (mut load_secs, mut save_secs, mut accounts) = (0.0, 0.0, 0);
        let scenario = self.scenario_for(self.seeds[0]);
        let copy = self.dir.join("probe_copy.json");
        for (phase, tag) in BOUNDARIES {
            let path = checkpoint::path_for(&self.dir, VARIANT, self.seeds[0], phase);
            let watch = Stopwatch::start();
            let loaded = checkpoint::load(&path, &scenario);
            load_secs += watch.elapsed_secs();
            let study = match loaded {
                Ok(s) => s,
                Err(e) => {
                    checks.require(false, || format!("loading the {tag} checkpoint: {e}"));
                    continue;
                }
            };
            let watch = Stopwatch::start();
            let saved = checkpoint::save(&study, &copy);
            save_secs += watch.elapsed_secs();
            checks.require(saved.is_ok(), || {
                format!("re-saving the {tag} checkpoint failed")
            });
            checks.require(same_bytes(&path, &copy), || {
                format!("the {tag} checkpoint does not re-save byte-identically")
            });
            accounts = study.platform.accounts.len();
            let _ = std::fs::remove_file(&copy);
        }
        (load_secs, save_secs, accounts)
    }
}

fn same_bytes(a: &Path, b: &Path) -> bool {
    matches!((std::fs::read(a), std::fs::read(b)), (Ok(x), Ok(y)) if x == y)
}

impl Workload for SweepSmoke {
    /// Bare reference worlds, one per seed.
    type World = Vec<Study>;

    fn setup(&mut self) -> Vec<Study> {
        let seeds = self.seeds;
        seeds
            .iter()
            .map(|&seed| {
                let watch = Stopwatch::start();
                let study = Study::new(self.scenario_for(seed));
                self.study_new_secs.push(watch.elapsed_secs());
                study
            })
            .collect()
    }

    fn op(
        &mut self,
        references: Vec<Study>,
        mut layers: Option<&mut Layers>,
        checks: &mut Checks,
    ) -> OpSample {
        let _ = std::fs::remove_dir_all(&self.dir);
        let cfg = SweepConfig {
            dir: self.dir.clone(),
            variants: vec![(VARIANT.to_string(), self.scenario.clone())],
            seeds: self.seeds.to_vec(),
            workers: WORKERS,
        };
        let killed = self.seeds[1];
        let mut clock = OpClock::start();
        let (ran, run_secs) = clock.time(|| run_sweep(&cfg));
        let killed_digest = clock.exclude(|| ran.as_ref().ok().map(|_| self.fake_kill(killed)));
        let (resumed, resume_secs) = clock.time(|| resume_sweep(&self.dir, WORKERS));
        let secs = clock.stop(layers.as_deref_mut());

        let mut failed = false;
        if let Err(e) = &ran {
            eprintln!("perfbench: run_sweep failed: {e}");
            failed = true;
        }
        match killed_digest {
            Some(Err(e)) => {
                eprintln!("perfbench: faking the kill failed: {e}");
                failed = true;
            }
            Some(Ok(before)) => {
                let finished = checkpoint::path_for(&self.dir, VARIANT, killed, Phase::Finished);
                let after = std::fs::read(&finished).map(|b| fnv1a(&b)).ok();
                checks.require(after == Some(before), || {
                    format!("resumed finished checkpoint {after:x?} differs from the uninterrupted {before:#018x}")
                });
            }
            None => {}
        }
        match &resumed {
            Ok(out) => {
                checks.require(
                    out.ran == 1 && out.skipped == 1 && out.manifest.all_done(),
                    || format!("resume ran {} and skipped {} jobs", out.ran, out.skipped),
                );
                // Each job's digest equals a bare study's, characterized
                // without any checkpoint.
                for mut reference in references {
                    let seed = reference.scenario.seed;
                    reference.run_characterization();
                    let want = StudyResults::collect(&reference).digest();
                    let got = out.manifest.job(VARIANT, seed).and_then(|j| j.digest);
                    checks.require(got == Some(want), || {
                        format!("seed {seed}: manifest digest {got:x?}, bare study {want:#018x}")
                    });
                }
            }
            Err(e) => {
                eprintln!("perfbench: resume_sweep failed: {e}");
                failed = true;
            }
        }

        let written = dir_bytes(&self.dir);
        if let Some(l) = layers {
            l.set("core.study_new_s", crate::median(&self.study_new_secs));
            l.set("sweep.run_s", run_secs);
            l.set("sweep.resume_s", resume_secs);
            for (phase, tag) in BOUNDARIES {
                let bytes = file_bytes(&checkpoint::path_for(
                    &self.dir,
                    VARIANT,
                    self.seeds[0],
                    phase,
                ));
                l.set(&format!("sweep.checkpoint_bytes.{tag}"), bytes as f64);
            }
            let sum = |f: fn(&Path, &str, u64) -> PathBuf| -> f64 {
                self.seeds
                    .iter()
                    .map(|&s| file_bytes(&f(&self.dir, VARIANT, s)))
                    .sum::<u64>() as f64
            };
            l.set("sweep.trace_bytes", sum(trace_path));
            l.set("sweep.results_bytes", sum(results_path));
            let (load_secs, save_secs, accounts) = self.checkpoint_probe(checks);
            l.set("sweep.checkpoint_load_s", load_secs);
            l.set("sweep.checkpoint_save_s", save_secs);
            let finished = file_bytes(&checkpoint::path_for(
                &self.dir,
                VARIANT,
                self.seeds[0],
                Phase::Finished,
            ));
            l.set(
                "sweep.checkpoint_bytes_per_account",
                finished as f64 / accounts.max(1) as f64,
            );
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        let s = &self.scenario;
        let job_days = s.characterization_days + s.narrow_days + s.broad_days + s.epilogue_days;
        // Both jobs run every day; the resumed one re-runs its epilogue.
        let days = 2 * job_days + s.epilogue_days;
        OpSample {
            secs,
            days: f64::from(days),
            written_bytes: written,
            failed,
        }
    }
}
