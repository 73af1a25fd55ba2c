//! The repository's canonical benchmark (see `perfbench/README.md`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1|grow|kv-zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs on the rayon-shim pool at width [`WIDTH`]. With
//! `--trace 0` a run measures its workload for `--seconds` seconds and
//! reports the end-to-end metrics; with `--trace 1` it reports the
//! per-layer metrics, timed from this crate around calls into each
//! layer's public functions. Either way every output is checked
//! against a reference outside the timed sections. Human-readable
//! report lines start with `#`; the last line is one JSON object.

mod grow;
mod kv;
mod layers;
mod stats;
mod table1;
mod trace;

use std::process::ExitCode;

/// Pool width for every timed section (the measurement box has 2 cores).
pub const WIDTH: usize = 2;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run reports: correctness tallies and named metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that are not per-op (determinism fingerprints, response
    /// log hashes); any false makes the run incorrect.
    pub checks_ok: bool,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            checks_ok: true,
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("# metric {name} = {value} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// Records a failed non-op check.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            println!("# CHECK FAILED: {what}");
            self.checks_ok = false;
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { -1.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks_ok && self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite()),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args) -> Outcome = match args.workload.as_str() {
        "table1" => table1::run,
        "grow" => grow::run,
        "kv-zipf" => kv::run,
        w => {
            eprintln!("perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} width={WIDTH} cores={} simd={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        phc_core::simd::tier().name()
    );
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(WIDTH)
        .build()
        .expect("the shim pool builder never fails");
    let out = pool.install(|| run(&args));
    println!(
        "# attempted {} failed {} checks {}",
        out.attempted,
        out.failed,
        if out.checks_ok { "ok" } else { "FAILED" }
    );
    println!("{}", out.json());
    ExitCode::SUCCESS
}
