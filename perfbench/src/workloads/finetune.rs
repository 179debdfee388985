//! `finetune_eval`: one Table I cell per op — PyraNet-Architecture
//! fine-tuning of a pretrained base, then pass@k on both eval splits.

use super::{ClosedLoop, Ctx, OpResult, THREADS};
use crate::report::{Json, Metrics, Ratio};
use crate::stats::{fnv64, median, FNV_OFFSET};
use crate::trace::Tracer;
use pyranet::experiment::{EvalPair, Recipe};
use pyranet::{Experiment, ExperimentOptions, ModelConfig, PyraNetBuilder};
use pyranet_bench::Scale;
use pyranet_eval::{evaluate, human_split, machine_split, Problem};
use pyranet_exec::stream_seed;
use pyranet_model::TransformerLm;
use pyranet_train::TrainReport;
use std::time::Instant;

/// Digest of the cell run with the quick-scale options' own seeds (see
/// [`cell_digest`]).
pub const PINNED_CELL_DIGEST: u64 = 0xaca5_551f_cb9f_feed;

/// Quick-scale experiment options with every thread knob set.
pub fn options() -> ExperimentOptions {
    let mut opts = Scale::Quick.experiment_options();
    opts.train.threads = THREADS;
    opts.eval.threads = THREADS;
    opts
}

/// FNV-1a 64 over both splits' results and the final training loss.
pub fn cell_digest(evals: &EvalPair, report: &TrainReport) -> u64 {
    let json = |r| serde_json::to_string(r).expect("EvalResult serializes");
    let loss = final_loss(report).to_bits().to_le_bytes();
    [json(&evals.machine), json(&evals.human)]
        .iter()
        .fold(fnv64(FNV_OFFSET, &loss), |h, s| fnv64(h, s.as_bytes()))
}

/// Last loss of the last phase that took a step.
fn final_loss(report: &TrainReport) -> f32 {
    report.phases.iter().rev().find(|p| p.steps > 0).map_or(f32::NAN, |p| p.last_loss)
}

struct Counters(Vec<(&'static str, pyranet_obs::Counter)>);

impl Counters {
    const NAMES: [&'static str; 6] = [
        "train.tokens",
        "train.steps",
        "decode.tokens",
        "decode.prefill.tokens",
        "sim.vectors",
        "eval.samples",
    ];

    fn resolve() -> Counters {
        let obs = pyranet_obs::global();
        Counters(Self::NAMES.iter().map(|&n| (n, obs.counter(n))).collect())
    }

    fn read(&self) -> Vec<u64> {
        self.0.iter().map(|(_, c)| c.get()).collect()
    }
}

/// Counts of op 0, which repeat exactly for a seed.
#[derive(Debug, Clone)]
struct FirstOp {
    counts: Vec<u64>,
    phases_nonempty: usize,
    syntax_valid: u64,
    samples: u64,
    pass_at_1: f64,
}

/// The `finetune_eval` workload state.
pub struct Finetune {
    experiment: Experiment,
    base: TransformerLm,
    opts: ExperimentOptions,
    machine: Vec<Problem>,
    human: Vec<Problem>,
    counters: Counters,
    digest: Option<u64>,
    first: Option<FirstOp>,
}

impl Finetune {
    /// One cell: fine-tune a clone of the base, evaluate both splits.
    fn cell(&self, opts: &ExperimentOptions) -> (TrainReport, EvalPair, [Instant; 4]) {
        let t0 = Instant::now();
        let run = self.experiment.run(&self.base, Recipe::PyraNetArchitecture, opts);
        let t1 = Instant::now();
        let tk = &self.experiment.tokenizer;
        let machine = evaluate(&run.model, tk, &self.machine, &opts.eval);
        let t2 = Instant::now();
        let human = evaluate(&run.model, tk, &self.human, &opts.eval);
        let t3 = Instant::now();
        (run.report, EvalPair { machine, human }, [t0, t1, t2, t3])
    }
}

impl ClosedLoop for Finetune {
    const OP_METRIC: &'static str = "finetune_eval.cell_s";
    const SETUP_REPEATS: usize = 3;

    /// Builds the quick-scale dataset, the experiment context, and the
    /// pretrained codeLlama-7B analogue every cell starts from.
    fn setup(ctx: &Ctx) -> Result<Finetune, String> {
        let mut build = Scale::Quick.build_options();
        build.threads = THREADS;
        let built = PyraNetBuilder::new(build).build();
        let experiment = Experiment::new(built.dataset);
        let base = experiment.pretrain_base(&ModelConfig::codellama_7b(), &options());
        // The workload seed picks the fine-tuning shuffle and the eval
        // sampling streams; the dataset and base stay fixed.
        let mut opts = options();
        opts.train.seed = stream_seed(ctx.seed, 1);
        opts.eval.seed = stream_seed(ctx.seed, 2);
        Ok(Finetune {
            experiment,
            base,
            opts,
            machine: machine_split(),
            human: human_split(),
            counters: Counters::resolve(),
            digest: None,
            first: None,
        })
    }

    fn op(&mut self, _ctx: &Ctx, index: u64, tracer: &mut Tracer) -> Result<OpResult, String> {
        let before = self.counters.read();
        let (report, evals, [t0, t1, t2, t3]) = self.cell(&self.opts);
        let after = self.counters.read();
        if tracer.on() {
            let op = tracer.span("op", index, None, t0, t3);
            tracer.span("train.finetune", index, op, t0, t1);
            tracer.span("eval.machine", index, op, t1, t2);
            tracer.span("eval.human", index, op, t2, t3);
        }
        let digest = cell_digest(&evals, &report);
        let ok = *self.digest.get_or_insert(digest) == digest;
        if index == 0 {
            let problems = evals.machine.problems.iter().chain(&evals.human.problems);
            self.first = Some(FirstOp {
                counts: after.iter().zip(&before).map(|(a, b)| a - b).collect(),
                phases_nonempty: report.phases.iter().filter(|p| p.steps > 0).count(),
                syntax_valid: problems.clone().map(|p| u64::from(p.syntactically_valid)).sum(),
                samples: problems.map(|p| u64::from(p.n)).sum(),
                pass_at_1: (evals.machine.pass_at(1) + evals.human.pass_at(1)) / 2.0,
            });
        }
        Ok(OpResult { wall: (t3 - t0).as_secs_f64(), ok })
    }

    fn finish(
        &mut self,
        _ctx: &Ctx,
        tracer: &Tracer,
        metrics: &mut Metrics,
        report: &mut Json,
    ) -> Result<bool, String> {
        // The pinned digest: one cell with the quick options' own seeds.
        let (train, evals, _) = self.cell(&options());
        let got = cell_digest(&evals, &train);
        let pinned_ok = got == PINNED_CELL_DIGEST;
        report
            .str("run_digest", &format!("{:016x}", self.digest.unwrap_or(0)))
            .str("default_seed_digest", &format!("{got:016x}"))
            .str("pinned_digest", &format!("{PINNED_CELL_DIGEST:016x}"))
            .bool("pinned_digest_ok", pinned_ok);

        let first = self.first.clone().ok_or("op 0 never ran")?;
        let c = |name: &str| {
            let i = Counters::NAMES.iter().position(|n| *n == name).expect("known counter");
            first.counts[i] as f64
        };
        metrics.set("train.tokens", c("train.tokens"), "count");
        metrics.set("train.steps", c("train.steps"), "count");
        metrics.set("train.phases_nonempty", first.phases_nonempty as f64, "count");
        metrics.set("decode.tokens", c("decode.tokens"), "count");
        metrics.set("decode.prefill_tokens", c("decode.prefill.tokens"), "count");
        metrics.set("sim.vectors", c("sim.vectors"), "count");
        let syntax = Ratio {
            num: first.syntax_valid as f64,
            den: first.samples as f64,
            base: "eval samples in op 0",
        };
        metrics.set("eval.syntax_rate", 100.0 * syntax.value(), "%");
        metrics.set("eval.pass_at_1", first.pass_at_1, "%");
        report.raw("ratios", Json::default().raw("eval.syntax_rate", syntax.to_json()).done());

        let ft = median(&tracer.durations("train.finetune"));
        let machine = median(&tracer.durations("eval.machine"));
        let human = median(&tracer.durations("eval.human"));
        if let (Some(ft), Some(machine), Some(human)) = (ft, machine, human) {
            metrics.set("train.finetune_s", ft, "s");
            metrics.set("train.tokens_per_s", c("train.tokens") / ft, "1/s");
            metrics.set("eval.run_s.machine", machine, "s");
            metrics.set("eval.run_s.human", human, "s");
            metrics.set("eval.samples_per_s", c("eval.samples") / (machine + human), "1/s");
        }
        Ok(pinned_ok)
    }
}
