//! `anneal`: qaMKP as the paper runs it. Each operation builds the MKP
//! QUBO (R = 2), anneals it with SQA at a fixed annealing-time budget
//! and seed, and decodes the best sample with repair and greedy
//! extension. Only the QUBO builder and the annealer do work.

use crate::trace::Trace;
use crate::{Instance, OpResult, Workload};
use qmkp::annealer::{sqa_qubo, SqaConfig};
use qmkp::graph::gen::{paper_anneal_dataset, ANNEAL_DATASETS};
use qmkp::qubo::{MkpQubo, MkpQuboParams};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Plex slacks: k = 2..=5 as in Table VII, except k = 5 on the largest
/// dataset, whose annealing time would dominate a pass.
fn ks(n: usize) -> std::ops::RangeInclusive<usize> {
    if n > 20 {
        2..=4
    } else {
        2..=5
    }
}
/// Annealing time per shot, in microseconds (the paper's Δt).
const DT_US: f64 = 1.0;
/// Shots per anneal.
const SHOTS: usize = 100;
/// SQA seed of every anneal.
const SQA_SEED: u64 = 29;

fn sqa_config() -> SqaConfig {
    SqaConfig {
        seed: SQA_SEED,
        ..SqaConfig::from_anneal_time(DT_US, SHOTS)
    }
}

/// The `anneal` workload.
pub struct Anneal {
    instances: Vec<Instance>,
    /// Index of the first instance of each dataset, annealed as the
    /// set-up pass.
    firsts: Vec<usize>,
    next_op: u64,
}

impl Anneal {
    /// Generates the datasets and, where `n ≤ 20`, their optima.
    pub fn new() -> Self {
        let mut instances = Vec::new();
        let mut firsts = Vec::new();
        for (n, m) in ANNEAL_DATASETS {
            firsts.push(instances.len());
            for k in ks(n) {
                instances.push(Instance::new(
                    format!("D({n},{m})"),
                    paper_anneal_dataset(n, m),
                    k,
                    false,
                ));
            }
        }
        Anneal {
            instances,
            firsts,
            next_op: 0,
        }
    }

    fn anneal(&mut self, i: usize, trace: Option<&mut Trace>) -> OpResult {
        let inst = &self.instances[i];
        let config = sqa_config();
        let op = self.next_op;
        self.next_op += 1;
        let t0 = Instant::now();
        let mq = MkpQubo::new(&inst.graph, MkpQuboParams { k: inst.k, r: 2.0 });
        let t1 = Instant::now();
        let out = sqa_qubo(&mq.model, &config);
        let t2 = Instant::now();
        // Only the vertex variables (the first n) decode to the set.
        let bits = out.best[..inst.graph.n()]
            .iter()
            .enumerate()
            .fold(0u128, |b, (v, &x)| b | (u128::from(x) << v));
        let t3 = Instant::now();
        let set = mq.decode_polished(bits);
        let t4 = Instant::now();
        if let Some(trace) = trace {
            let root = trace.span("anneal.op", t0, t4, None, op);
            trace.span("qubo.build", t0, t1, Some(root), op);
            trace.span("anneal.sqa", t1, t2, Some(root), op);
            trace.span("anneal.decode", t3, t4, Some(root), op);
            let vars = mq.model.num_vars();
            trace.add("qubo.vars", vars as f64);
            trace.add("anneal.best_energy", out.best_energy);
            trace.add(
                "anneal.spin_updates",
                (config.shots * config.sweeps * config.trotter_slices * vars) as f64,
            );
        }
        OpResult {
            latency: t4 - t0,
            check: inst.check(Ok(set)),
        }
    }
}

impl Workload for Anneal {
    fn ops(&self) -> usize {
        self.instances.len()
    }

    /// No state outlives an anneal, so the set-up is the first anneal
    /// of each dataset.
    fn setup(&mut self) -> (Duration, Vec<OpResult>) {
        let start = Instant::now();
        let results = self
            .firsts
            .clone()
            .into_iter()
            .map(|i| self.anneal(i, None))
            .collect();
        (start.elapsed(), results)
    }

    fn pass(&mut self, order: &[usize], mut trace: Option<&mut Trace>) -> Vec<OpResult> {
        order
            .iter()
            .map(|&i| self.anneal(i, trace.as_deref_mut()))
            .collect()
    }

    fn layer_metrics(
        &mut self,
        trace: &mut Trace,
        passes: usize,
        ops: usize,
    ) -> BTreeMap<&'static str, f64> {
        let per_op = |span: &str| trace.total_ms(span) / ops as f64;
        let mut m = BTreeMap::new();
        m.insert("qubo.vars", trace.value("qubo.vars") / passes as f64);
        m.insert("qubo.build_ms", per_op("qubo.build"));
        m.insert("anneal.sqa_ms", per_op("anneal.sqa"));
        m.insert(
            "anneal.spin_updates_s",
            trace.value("anneal.spin_updates") / (trace.total_ms("anneal.sqa") / 1e3),
        );
        m.insert("anneal.decode_ms", per_op("anneal.decode"));
        m.insert(
            "anneal.best_energy",
            trace.value("anneal.best_energy") / passes as f64,
        );
        m.insert("unattributed_ms", trace.self_ms("anneal.op") / ops as f64);
        m
    }
}
