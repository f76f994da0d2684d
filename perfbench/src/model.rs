//! `model`: the bounded model checker over all three protocol variants at
//! 1 line × 3 elems × 3 procs, max-ops 4. It runs only the `spec`
//! transition function, `check::canon` state hashing and the visited set;
//! `machine`, `proto`, `cache`, `net` and `ir` are bypassed. The scope is
//! fixed, so the seed changes nothing here.

use std::time::Instant;

use specrt_check::{enumerate_scripts, run_model, ModelConfig};
use specrt_spec::{SpecScope, SpecVariant};

use crate::measure::{ratio, Fnv, Recorder};
use crate::{Pass, Sim};

const VARIANTS: [SpecVariant; 3] = [SpecVariant::NonPriv, SpecVariant::Priv, SpecVariant::Priv3];
const SCOPE: SpecScope = SpecScope {
    lines: 1,
    elems: 3,
    procs: 3,
};
const MAX_OPS: usize = 4;

pub struct Prepared {
    configs: Vec<ModelConfig>,
    /// Script-universe size per variant, enumerated at set-up.
    scripts: Vec<u64>,
}

/// Validates the scope and enumerates each variant's script universe (the
/// checker's own set-up, which `run_model` repeats internally).
pub fn setup(jobs: usize) -> Prepared {
    let scope = SCOPE
        .validate()
        .expect("the benchmark's model scope is valid");
    let configs: Vec<ModelConfig> = VARIANTS
        .iter()
        .map(|&variant| ModelConfig {
            variant,
            scope,
            max_ops: MAX_OPS,
            jobs,
        })
        .collect();
    let scripts = configs
        .iter()
        .map(|c| enumerate_scripts(c.variant, c.scope, c.max_ops).len() as u64)
        .collect();
    Prepared { configs, scripts }
}

fn states_name(v: SpecVariant) -> &'static str {
    match v {
        SpecVariant::NonPriv => "check.model_states.nonpriv",
        SpecVariant::Priv => "check.model_states.priv",
        SpecVariant::Priv3 => "check.model_states.priv3",
    }
}

fn rate_name(v: SpecVariant) -> &'static str {
    match v {
        SpecVariant::NonPriv => "check.model_states_per_s.nonpriv",
        SpecVariant::Priv => "check.model_states_per_s.priv",
        SpecVariant::Priv3 => "check.model_states_per_s.priv3",
    }
}

pub fn pass(p: &Prepared, rec: &Recorder, root: u64) -> Pass {
    let started = Instant::now();
    let mut pass = Pass {
        host_s: 0.0,
        latencies_ms: Vec::new(),
        attempted: p.configs.len() as u64,
        failed: 0,
        errors: Vec::new(),
        sim: Sim {
            fingerprint: 0,
            counts: Vec::new(),
            results: Vec::new(),
        },
        layer: Vec::new(),
    };
    let mut fp = Fnv::new();
    let (mut states, mut hits) = (0u64, 0u64);
    for (cfg, &scripts) in p.configs.iter().zip(&p.scripts) {
        let t = Instant::now();
        let r = rec.span("check.run_model", cfg.variant.name(), root, |_| {
            run_model(cfg)
        });
        let secs = t.elapsed().as_secs_f64();
        pass.latencies_ms.push(secs * 1e3);
        pass.layer
            .push((rate_name(cfg.variant), ratio(r.states as f64, secs)));
        if !r.ok() || r.counterexample.is_some() {
            pass.fail(format!(
                "model {}: {} violation(s), {} invariant violation(s)",
                cfg.variant.name(),
                r.violations,
                r.invariant_violations
            ));
        } else if r.scripts != scripts {
            pass.fail(format!(
                "model {}: explored {} scripts, set-up enumerated {scripts}",
                cfg.variant.name(),
                r.scripts
            ));
        }
        fp.str(cfg.variant.name())
            .u64(r.scripts)
            .u64(r.states)
            .u64(r.dedup_hits)
            .u64(r.violations)
            .u64(r.invariant_violations)
            .u64(r.conservative);
        for &n in &r.coverage.counts {
            fp.u64(n);
        }
        pass.sim
            .counts
            .push((states_name(cfg.variant), r.states as f64));
        states += r.states;
        hits += r.dedup_hits;
    }
    pass.host_s = started.elapsed().as_secs_f64();
    pass.sim.fingerprint = fp.finish();
    pass.sim.counts.push((
        "check.model_dedup",
        ratio(hits as f64, (states + hits) as f64),
    ));
    pass
}
