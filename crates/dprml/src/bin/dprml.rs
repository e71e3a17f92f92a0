//! `dprml` — the command-line tool (paper §3.2).
//!
//! ```text
//! dprml --alignment <aln.fasta> [--config <file>] [--workers N]
//!       [--output <tree.nwk>] [--order natural|maximin|jumble:<seed>]
//!       [--instances N] [--verify]
//! ```
//!
//! Reads an aligned FASTA file (all sequences equal length, DNA),
//! builds the maximum-likelihood tree by distributed stepwise
//! insertion under the configured substitution model, and writes the
//! Newick tree. `--order` selects the taxon addition order: input
//! order, distance-diverse (maximin over JC distances), or a seeded
//! random "jumble". `--instances N` runs N stochastic instances
//! *simultaneously* (each with its own jumbled order, keeping donors
//! busy across stage barriers — the paper's Fig. 2 usage) and reports
//! the best tree. `--verify` also runs the sequential reference for
//! each instance and asserts identical trees.

use biodist_core::{run_tcp, SchedulerConfig, Server};
use biodist_dprml::{build_problem, DprmlConfig, PhyloOutput};
use biodist_phylo::nj::{jc_distance_matrix, maximin_order};
use biodist_phylo::patterns::PatternAlignment;
use biodist_phylo::search::stepwise_ml;
use biodist_util::rng::{shuffle, Xoshiro256StarStar};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    alignment: String,
    config: Option<String>,
    workers: usize,
    output: Option<String>,
    order: String,
    instances: usize,
    verify: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        alignment: String::new(),
        config: None,
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        output: None,
        order: "natural".into(),
        instances: 1,
        verify: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--alignment" => args.alignment = value("--alignment")?,
            "--config" => args.config = Some(value("--config")?),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be a positive integer".to_string())?
            }
            "--output" => args.output = Some(value("--output")?),
            "--order" => args.order = value("--order")?,
            "--instances" => {
                args.instances = value("--instances")?
                    .parse()
                    .map_err(|_| "--instances must be a positive integer".to_string())?
            }
            "--verify" => args.verify = true,
            "--help" | "-h" => {
                println!(
                    "usage: dprml --alignment <aln.fasta> [--config <file>] [--workers N] \
                     [--output <tree.nwk>] [--order natural|maximin|jumble:<seed>] \
                     [--instances N] [--verify]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.alignment.is_empty() {
        return Err("--alignment is required (see --help)".into());
    }
    if args.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if args.instances == 0 {
        return Err("--instances must be at least 1".into());
    }
    Ok(args)
}

fn taxon_order(spec: &str, data: &PatternAlignment) -> Result<Option<Vec<usize>>, String> {
    let n = data.taxon_count();
    match spec {
        "natural" => Ok(None),
        "maximin" => Ok(Some(maximin_order(&jc_distance_matrix(data)))),
        other => {
            if let Some(seed) = other.strip_prefix("jumble:") {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("bad jumble seed `{seed}`"))?;
                let mut order: Vec<usize> = (0..n).collect();
                let mut rng = Xoshiro256StarStar::new(seed);
                shuffle(&mut order, &mut rng);
                Ok(Some(order))
            } else {
                Err(format!(
                    "unknown order `{other}` (natural|maximin|jumble:<seed>)"
                ))
            }
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    let config = match &args.config {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read config `{path}`: {e}"))?;
            DprmlConfig::parse(&text)?
        }
        None => DprmlConfig::default(),
    };

    let text = std::fs::read_to_string(&args.alignment)
        .map_err(|e| format!("cannot read alignment `{}`: {e}", args.alignment))?;
    let seqs = biodist_bioseq::parse_fasta(&text, biodist_bioseq::Alphabet::Dna)
        .map_err(|e| e.to_string())?;
    if seqs.len() < 3 {
        return Err("need at least 3 aligned sequences".into());
    }
    let data = Arc::new(PatternAlignment::from_sequences(&seqs));
    eprintln!(
        "dprml: {} taxa x {} sites ({} patterns), model {:?}, {} workers",
        data.taxon_count(),
        data.site_count(),
        data.pattern_count(),
        config.model,
        args.workers
    );

    // Instance 0 uses the requested order; extra stochastic instances
    // get their own jumbled orders so their stage barriers interleave.
    let mut orders: Vec<Option<Vec<usize>>> = vec![taxon_order(&args.order, &data)?];
    for i in 1..args.instances {
        orders.push(taxon_order(&format!("jumble:{}", 1000 + i), &data)?);
    }

    let mut server = Server::new(SchedulerConfig {
        target_unit_secs: 0.02,
        prior_ops_per_sec: 2e8,
        min_unit_ops: 1.0,
        ..Default::default()
    });
    let pids: Vec<_> = orders
        .iter()
        .enumerate()
        .map(|(i, order)| {
            server.submit(build_problem(
                data.clone(),
                &config,
                order.clone(),
                &format!("dprml-{i}"),
            ))
        })
        .collect();
    let (mut server, elapsed) = run_tcp(server, args.workers);
    let outs: Vec<PhyloOutput> = pids
        .iter()
        .map(|&p| {
            server
                .take_output(p)
                .expect("search completed")
                .into_inner::<PhyloOutput>()
        })
        .collect();
    for (i, out) in outs.iter().enumerate() {
        let stats = server.stats(pids[i]);
        eprintln!(
            "instance {i}: lnL = {:.4} ({} units)",
            out.ln_likelihood, stats.completed_units
        );
    }
    eprintln!("total wall clock: {elapsed:.2} s");

    if args.verify {
        eprintln!("verifying each instance against the sequential reference...");
        let model = config.build_model();
        for (out, order) in outs.iter().zip(&orders) {
            let (ref_tree, ref_lnl) = stepwise_ml(&data, &model, order.as_deref(), &config.search);
            if out.tree.rf_distance(&ref_tree) != 0 || (out.ln_likelihood - ref_lnl).abs() > 1e-6 {
                return Err("distributed tree differs from sequential reference".into());
            }
        }
        eprintln!("verified: distributed == sequential for all instances");
    }

    // Report the best instance (stochastic restarts keep the max).
    let out = outs
        .into_iter()
        .max_by(|a, b| a.ln_likelihood.total_cmp(&b.ln_likelihood))
        .expect("at least one instance");
    eprintln!("best instance lnL = {:.4}", out.ln_likelihood);

    match &args.output {
        Some(path) => {
            std::fs::write(path, format!("{}\n", out.newick))
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{}", out.newick),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("dprml: error: {msg}");
            ExitCode::FAILURE
        }
    }
}
